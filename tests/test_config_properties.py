"""Property test of the configuration boundary (skipped without
Hypothesis).

A canned ``check-all`` configuration with one or two of its leaves replaced
by arbitrary JSON values (``null``, bools, ints, floats, strings, among
them tower, character and extension names and series literals, and lists
and objects of these), and maybe a field added to one task (a field that
kind reads, a field of another kind, a misspelling or any short name, with
such a value), either loads or raises :class:`ConfigError`: no other
exception leaves ``load_config``.  A configuration that loads runs: ``run``
raises nothing and writes only PASS, FAIL, NOT_APPLICABLE and ERROR
records.
"""

import copy

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rswan.catalog import CATALOG_PRIMES, canned_config  # noqa: E402
from rswan.cli import _KINDS, load_config, run  # noqa: E402
from rswan.errors import ConfigError  # noqa: E402


def leaf_paths(doc, path=()):
    """The key paths of the leaves of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items for leaf in leaf_paths(value, path + (key,))]


CONFIGS = {p: canned_config(p) for p in CATALOG_PRIMES}
LEAVES = {p: leaf_paths(doc) for p, doc in CONFIGS.items()}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8)
    | st.sampled_from(["main", "L", "Ks2", "Kd2", "X_t2", "phi_wild", "t^-3", "u^2*(1+u)"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


# Every field some task kind reads, and two misspellings.
TASK_FIELDS = sorted({field for fields, _ in _KINDS.values() for field in fields} | {"sample", "x_0"})


@st.composite
def edited_config(draw):
    p = draw(st.sampled_from(CATALOG_PRIMES))
    doc = copy.deepcopy(CONFIGS[p])
    for path in draw(st.lists(st.sampled_from(LEAVES[p]), min_size=1, max_size=2, unique=True)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(JSON_VALUES)
    if draw(st.booleans()):
        task = draw(st.sampled_from(doc["tasks"]))
        task[draw(st.sampled_from(TASK_FIELDS) | st.text(max_size=4))] = draw(JSON_VALUES)
    return doc


@settings(max_examples=150, deadline=None)
@given(edited_config())
def test_load_config_loads_or_raises_a_config_error(doc):
    try:
        load_config(doc)
    except ConfigError:
        pass


STATUSES = {"PASS", "FAIL", "NOT_APPLICABLE", "ERROR"}


@settings(max_examples=150, deadline=None)
@given(edited_config())
def test_run_emits_only_the_four_statuses(doc):
    """Every edited configuration that loads runs to a report: no exception
    leaves ``run``, every record has one of the four statuses, and every
    ERROR record names the exception's type and message."""
    try:
        config = load_config(doc)
    except ConfigError:
        return
    records = run(config)["tasks"]
    assert {record["status"] for record in records} <= STATUSES
    for record in records:
        if record["status"] == "ERROR":
            assert {"type", "message"} <= record["error"].keys(), record
