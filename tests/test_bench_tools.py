"""The layer-bench harness, ``bench/_trees.py``: its entry point, its
cross-tree series form, its equality check and its alternation rule; the
reach map's collector, ``bench/reach.py``, on a throwaway module; and the
equality gate, ``bench/identity.py``, on two copies of this tree.

Nothing here is timed: ``alternate`` runs on a fake clock.
"""

from __future__ import annotations

import importlib.util
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

import rswan

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

_spec = importlib.util.spec_from_file_location("_trees", BENCH / "_trees.py")
trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trees)
_spec = importlib.util.spec_from_file_location("reach", BENCH / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

# script -> its arguments after OUT, where they are not the layer benches' SRC ...
ARGUMENTS = {"reach.py": "[SRC]"}  # the reach map traces one tree


def _series(rswan, inner_ceiling):
    """``t^-1 (1 + u^2 + O(u^inner_ceiling)) + t^3 u + O(t^6)`` over ``F_2``."""
    dom = rswan.scalars.fq_domain(2, 1)
    inner = rswan.NestedSeries(1, dom, {0: 1, 2: 1}, inner_ceiling)
    return rswan.NestedSeries(2, dom, {-1: inner, 3: rswan.NestedSeries(1, dom, {1: 1})}, 6)


def test_the_form_compares_series_of_two_loaded_packages():
    first, second = (trees.load(str(ROOT / "src"), index) for index in (900, 901))
    assert first.NestedSeries is not second.NestedSeries
    a, b = _series(first, 5), _series(second, 5)
    assert trees.form([(a, "ZeroInput")]) == trees.form([(b, "ZeroInput")])
    assert trees.form(a) != trees.form(_series(second, 4))
    assert trees.form({"x": a}) != trees.form({"x": _series(second, 4)})


def test_the_equality_check_refuses_a_mismatch():
    trees.same("sums", [[_series(rswan, 5)], [_series(rswan, 5)]])
    with pytest.raises(SystemExit, match="sums of cell 1: results differ between trees 0 and 2"):
        trees.same("sums of cell 1", [[_series(rswan, 5)], [_series(rswan, 5)],
                                      [_series(rswan, 4)]])
    with pytest.raises(SystemExit):
        trees.same("errors", ["ZeroInput", "PrecisionExhausted"])


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("[!_]*.py")))
def test_a_bench_without_out_prints_its_usage_and_exits_2(script):
    done = subprocess.run([sys.executable, str(BENCH / script)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == f"usage: python3 bench/{script} OUT {ARGUMENTS.get(script, '[SRC ...]')}\n"
    assert done.stdout == ""


def test_alternate_gives_every_tree_of_a_key_one_batch_count(monkeypatch):
    clock = [0.0]
    log = []
    monkeypatch.setattr(trees, "perf_counter", lambda: clock[0])

    def tree(index, cost):
        def call():
            clock[0] += cost
            log.append(index)

        return call

    seconds = trees.alternate({"key": [tree(0, 0.001), tree(1, 0.004)]}, 3, 0.01)
    # The passes run the trees in the orders 0 1 | 1 0 | 0 1.
    runs = [len(list(group)) for _, group in itertools.groupby(log)]
    batch = runs[-1]
    assert runs[-4:] == [batch, 2 * batch, 2 * batch, batch]
    assert batch * 0.001 >= 0.01  # the faster tree's count, which the slower one runs too
    assert seconds["key"] == pytest.approx([0.001, 0.004])


TOY = '''
def called(n):
    """A docstring, which is not a statement."""
    total = 0
    for i in range(n):
        total += i
    return total


def uncalled(x):
    y = x + 1
    if y:
        return y
    return -y


def outer(x):
    def inner(y):
        return y * 2
    return x
'''


def test_the_reach_map_counts_each_function_apart(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    path = (package / "mod.py").resolve()
    path.write_text(TOY)

    def run():
        spec = importlib.util.spec_from_file_location("toy_mod", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.called(3)
        mod.outer(1)

    result = reach.collect(package, run)
    functions = {f["qualname"]: f for f in result["functions"]}
    assert set(functions) == {"called", "uncalled", "outer", "outer.<locals>.inner"}
    assert all(f["module"] == "toy.mod" for f in functions.values())
    assert functions["called"]["statements"] == 4 and functions["called"]["unreached"] == []
    uncalled = functions["uncalled"]
    assert uncalled["statements"] == 4 and uncalled["unreached"] == [11, 12, 13, 14]
    assert functions["outer"]["statements"] == 2 and functions["outer"]["unreached"] == []
    inner = functions["outer.<locals>.inner"]
    assert (inner["line"], inner["statements"], inner["unreached"]) == (18, 1, [19])
    assert result["totals"] == {"functions": 4, "statements": 11, "reached": 6, "never_run": 2}
    assert result["never_run"] == ["toy.mod.uncalled", "toy.mod.outer.<locals>.inner"]


def test_the_equality_gate_compares_reports_and_embed_outcomes(monkeypatch):
    """At one seed and one cycle: two copies of this tree give the pinned
    seed-0 report digests and the same 14 ``embed`` outcomes; a changed
    report body or a changed answer stops the gate, naming it."""
    monkeypatch.setitem(sys.modules, "_trees", trees)
    spec = importlib.util.spec_from_file_location("identity", BENCH / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    monkeypatch.setattr(identity, "CHECK_ALL_SEEDS", range(1))
    monkeypatch.setattr(identity, "EMBED_SEEDS", (0,))
    monkeypatch.setattr(identity, "CYCLES", 1)
    first, second = (trees.load(str(ROOT / "src"), index) for index in (910, 911))
    result = identity.measure([first, second])
    workloads = identity.workloads_for(first)
    assert {p: d for p, (d,) in result["check_all"].items()} == workloads.CATALOG_DIGESTS
    assert result["embed"]["units"] == len(result["embed"]["outcomes"]) == 14
    assert result["embed"]["answered"] + sum(result["embed"]["refusals"].values()) == 14

    def refused(*args):
        raise second.errors.PrecisionExhausted("planted", exponent=-1)

    monkeypatch.setattr(second.extensions, "curve_restriction_ratios", refused)
    with pytest.raises(SystemExit, match="embed unit 13 .*curve-restriction"):
        identity.measure([first, second])
    monkeypatch.setattr(second, "report_body_bytes", lambda report: b"planted")
    with pytest.raises(SystemExit, match="check-all p = 2 seed 0: results differ"):
        identity.measure([first, second])
