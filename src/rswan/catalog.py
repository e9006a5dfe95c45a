"""The canned verification catalog.

One table of characters per prime, with pinned conductors and (for a few
anchors) pinned rendered invariants, drives both the test suite and the
``check-all`` subcommand: the latter is generated as an ordinary run
configuration, so the canned run exercises exactly the same code path as a
user-supplied config file.
"""

from __future__ import annotations

from .errors import ConfigError
from .tower import FieldTower

__all__ = ["catalog_characters", "canned_config", "CATALOG_PRIMES"]

CATALOG_PRIMES = (2, 3, 5)

# label -> (tower params, components in print order, pinned Swan conductor)
_TOWERS = {
    2: {
        "main": (2, 1, 1, ("t",)),
        "Ks2": (2, 1, 2, ("t",)),
        "Kd2": (2, 1, 1, ("u", "t")),
        "Kk2": (2, 2, 1, ("t",)),
        "L": (2, 1, 1, ("u",)),
    },
    3: {
        "main": (3, 1, 1, ("t",)),
        "Ks2": (3, 1, 2, ("t",)),
        "Kd2": (3, 1, 1, ("u", "t")),
        "L": (3, 1, 1, ("u",)),
    },
    5: {
        "main": (5, 1, 1, ("t",)),
        "Ks2": (5, 1, 2, ("t",)),
        "Kd2": (5, 1, 1, ("u", "t")),
        "L": (5, 1, 1, ("u",)),
    },
}

# (label, tower name, components print order, expected Sw, expected rsw render or None)
_CHARACTERS = {
    2: [
        ("X_t3", "main", ["t^-3"], 3, "t^-3 dlog(t) | window(3,1)"),
        ("X_t1", "main", ["t^-1"], 1, None),
        ("X_t2", "main", ["t^-2"], 1, None),
        ("X_deep", "main", ["t^-5 + t^-2"], 5, None),
        ("Y_13", "Ks2", ["t^-1", "t^-3"], 3, "(t^-3 + t^-2) dlog(t) | window(3,1)"),
        ("Y_01", "Ks2", ["0", "t^-1"], 1, None),
        ("Y_10", "Ks2", ["t^-1", "0"], 2, None),
        ("Y_14", "Ks2", ["t^-1", "t^-4"], 2, None),
        ("Z_ut2", "Kd2", ["u*t^-2"], 2, "u*t^-2 dlog(u) | window(2,1)"),
        ("Z_t3", "Kd2", ["t^-3"], 3, None),
        ("Z_ut3", "Kd2", ["u*t^-3"], 3, None),
        ("Z_u1t2", "Kd2", ["u^-1*t^-2"], 2, None),
        ("W_g", "Kk2", ["g*t^-3"], 3, None),
    ],
    3: [
        ("X_t2", "main", ["t^-2"], 2, "2*t^-2 dlog(t) | window(2,0)"),
        ("X_mix", "main", ["t^-4 + t^-1"], 4, None),
        ("X_2t2", "main", ["2*t^-2"], 2, None),
        ("Y_12", "Ks2", ["t^-1", "t^-2"], 3, None),
        ("Y_01", "Ks2", ["0", "t^-1"], 1, None),
        ("Y_21", "Ks2", ["t^-2", "t^-1"], 6, None),
        ("Z_ut2", "Kd2", ["u*t^-2"], 2, None),
    ],
    5: [
        ("X_t2", "main", ["t^-2"], 2, None),
        ("X_mix", "main", ["4*t^-3 + t^-1"], 3, None),
        ("X_t7", "main", ["t^-7"], 7, None),
        ("Y_12", "Ks2", ["t^-1", "t^-2"], 5, None),
    ],
}

# Reciprocity sampling cells per prime: labels and sample counts.
_RECIPROCITY = {
    2: [("X_t3", 100), ("X_t1", 100), ("X_deep", 100), ("Y_13", 100), ("Y_10", 100),
        ("Z_ut2", 100), ("Z_t3", 100), ("Z_ut3", 100)],
    3: [("X_t2", 100), ("X_mix", 100), ("Y_12", 100), ("Y_21", 100)],
    5: [("X_t2", 25)],
}

_DUALITY = {
    2: [("Kd2", 2, 1), ("Kd2", 3, 1), ("Kd2", 4, 2)],
    3: [("Kd2", 2, 1)],
    5: [("Kd2", 2, 1)],
}

_CONDUCTOR_CHANGE = {
    2: [
        ("X_t3", "phi_wild", "PASS", 5),
        ("X_t1", "phi_wild", "NOT_APPLICABLE", None),
        ("X_t2", "phi_tame", "PASS", 3),
    ],
    3: [("X_t2", "phi_wild", "PASS", 4)],
    5: [("X_t2", "phi_wild", "PASS", 4)],
}

_EXTENSIONS = {
    2: {
        "phi_wild": {"target": "L", "images": {"t": "u^2*(1+u)"}},
        "phi_tame": {"target": "L", "images": {"t": "u^3"}},
    },
    3: {"phi_wild": {"target": "L", "images": {"t": "u^2*(1+u)"}}},
    5: {"phi_wild": {"target": "L", "images": {"t": "u^2*(1+u)"}}},
}

_CURVES = {
    2: {"exponents": [2, 4, 8], "expect_ratios": ["5/2", "11/4", "23/8"]},
    3: {"exponents": [3, 9], "expect_ratios": ["8/3", "26/9"]},
    5: {"exponents": [5, 25], "expect_ratios": ["14/5", "74/25"]},
}

_THMB = {
    2: {"t_values": [3, 5, 7], "expect_ratios": ["5/3", "9/5", "13/7"]},
}


def _tower_dict(params):
    p, k, s, variables = params
    return {"p": p, "k": k, "s": s, "variables": list(variables)}


def catalog_characters(p: int):
    """(label, FieldTower, print-order components, pinned Sw, pinned render).

    The table read back as towers: the test suite checks the pinned values
    through it, while ``check-all`` reads the same table as a config.
    """
    rows = []
    for label, tower_name, comps, sw, rendered in _CHARACTERS[p]:
        tower = FieldTower(*_TOWERS[p][tower_name])
        rows.append((label, tower, tuple(comps), sw, rendered))
    return rows


def canned_config(p: int) -> dict:
    """The check-all run configuration for one prime."""
    if p not in CATALOG_PRIMES:
        raise ConfigError(f"no canned catalog for p = {p}")
    towers = {
        name: _tower_dict(params)
        for name, params in _TOWERS[p].items()
        if name != "main"
    }
    characters = {}
    tasks = [{"task": "exp-congruences"}]
    for label, tower_name, comps, sw, rendered in _CHARACTERS[p]:
        characters[label] = (
            list(comps)
            if tower_name == "main"
            else {"tower": tower_name, "components": list(comps)}
        )
        tasks.append({"task": "swan", "character": label, "expect": sw})
        rsw_task = {"task": "rsw", "character": label}
        if rendered is not None:
            rsw_task["expect"] = rendered
        tasks.append(rsw_task)
    for tower_name, n, m in _DUALITY[p]:
        tasks.append({"task": "duality", "tower": tower_name, "n": n, "m": m})
    for label, samples in _RECIPROCITY[p]:
        tasks.append({"task": "reciprocity", "character": label, "samples": samples})
    for label, ext_name, expect, expect_sw in _CONDUCTOR_CHANGE[p]:
        task = {"task": "conductor-change", "character": label, "extension": ext_name,
                "expect": expect}
        if expect_sw is not None:
            task["expect_sw"] = expect_sw
        tasks.append(task)
    if p in _THMB:
        tasks.append({"task": "thmB", **_THMB[p]})
    tasks.append({"task": "thmC", "f": {"-3": "x"}, "x0": 0, **_CURVES[p]})
    return {
        "version": 1,
        "tower": _tower_dict(_TOWERS[p]["main"]),
        "towers": towers,
        "characters": characters,
        "extensions": dict(_EXTENSIONS[p]),
        "tasks": tasks,
    }
