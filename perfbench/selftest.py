"""Tests of the benchmark itself, in a quick mode of one cycle per workload.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_rswan()

import tracing  # noqa: E402
import workloads  # noqa: E402
from rswan.errors import RswanError  # noqa: E402


def quick_pass(name, seed=0, cycles=1):
    wl = workloads.WORKLOADS[name](seed)
    return wl, run.run_pass(wl, cycles=cycles, keep_answers=True)


class QuickMode(unittest.TestCase):
    def test_every_workload_answers_and_checks(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                wl, res = quick_pass(name)
                self.assertGreater(res.attempted, 0)
                self.assertEqual(res.wrong, 0, dict(res.failures))
                self.assertGreater(res.answered, 0)
                self.assertEqual(len(res.answers), res.attempted)

    def test_speed_probe_takes_its_share_outside_unit_time(self):
        res = run.run_pass(workloads.Witt(0), cycles=2, probe=True)
        self.assertGreater(res.probe.calls, 0)
        self.assertLess(res.probe.seconds, 0.2 * res.unit_seconds)
        metrics = run.end_to_end(res, ([0.1, 0.2], [0.1, 0.2]), 90)
        self.assertAlmostEqual(
            metrics["units_per_s_norm"]["value"] * res.probe.speed,
            metrics["units_per_s"]["value"])

    def test_same_seed_same_inputs(self):
        for name in ("witt", "duality", "embed"):
            a, b = workloads.WORKLOADS[name](7), workloads.WORKLOADS[name](7)
            self.assertEqual(a.cycle(3), b.cycle(3))
            self.assertNotEqual(a.cycle(3), workloads.WORKLOADS[name](8).cycle(3))

    def test_warm_up_does_not_depend_on_the_run_seed(self):
        # At run seed 29 an embed unit drawn from the run seed raises
        # PrecisionExhausted; the warm-up unit is fixed and must not fail.
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                wl = workloads.WORKLOADS[name](29)
                self.assertEqual(wl.warmup(), workloads.WORKLOADS[name](0).warmup())
        embed = workloads.Embed(29)
        embed.run(embed.warmup())
        with self.assertRaises(RswanError):
            embed.run(workloads.Unit("conductor-change", workloads.EMBED_CELLS[0], 29))

    def test_known_witt_defect_is_reported_by_kind(self):
        # The print-order character ("t^-3", "1 + t", "0") over F_2((t)), s = 3,
        # trips the reduction's internal-error guard at this commit.
        rswan = sys.modules["rswan"]
        tower = rswan.FieldTower(2, 1, 3, ("t",))
        vec = rswan.WittVector.from_print_order(
            tower, [rswan.parse_series(c, tower) for c in ("t^-3", "1 + t", "0")]
        )
        try:
            rswan.asw_reduce(vec)
        except RswanError as exc:
            self.assertIn("internal error", str(exc))
            self.assertTrue(run.failure_kind(exc).startswith("RswanError: "))


class PlantedWrongExpectation(unittest.TestCase):
    def test_catalog_fail_record_counts_as_wrong(self):
        wl = workloads.Catalog(0)
        swan = next(t for t in wl.configs[5].tasks if t["task"] == "swan")
        swan["expect"] += 1
        units = [u for u in wl.cycle(0) if u.params == (5,)]
        res = run.run_pass(_Fixed(wl, units), cycles=1)
        self.assertEqual((res.attempted, res.wrong, res.failed), (1, 1, 1))
        metrics = run.end_to_end(res, ([1.0], [1.0]), 90)
        self.assertEqual(metrics["fail_share"]["value"], 1.0)
        self.assertEqual(metrics["answered_share"]["value"], 0.0)

    def test_embed_oracle_mismatch_counts_as_wrong(self):
        wl = workloads.Embed(0)
        unit = next(u for u in wl.cycle(0) if u.kind == "curve-restriction")
        original = workloads.fp_conductor
        workloads.fp_conductor = lambda terms, p: original(terms, p) + 1
        try:
            res = run.run_pass(_Fixed(wl, [unit]), cycles=1)
        finally:
            workloads.fp_conductor = original
        self.assertEqual(res.wrong, 1)
        self.assertEqual(res.failed, 1)


class Tracing(unittest.TestCase):
    def test_wrappers_rebind_every_alias_and_restore_all(self):
        rswan = sys.modules["rswan"]
        before = tracing.snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIs(rswan.reciprocity.dlog, rswan.logdiff.dlog)
            self.assertTrue(getattr(rswan.reciprocity.dlog, tracing.MARK))
            self.assertTrue(getattr(rswan.dlog, tracing.MARK))
            self.assertIn("rswan.series.NestedSeries.inv", tracing.installed_wrappers())
            run.run_pass(workloads.Witt(0), cycles=1)
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.differences(before, tracing.snapshot()), [])
        self.assertEqual(tracing.installed_wrappers(), [])
        self.assertGreater(tracer.calls["witt.combine"], 0)

    def test_counts_repeat_and_answers_match(self):
        first = run.measure_traced("embed", 3, 1)
        second = run.measure_traced("embed", 3, 1)
        for checks in (first[3], second[3]):
            self.assertFalse(any(checks.values()), checks)
        counts = [
            {k: m["value"] for k, m in result[2].items() if m["unit"] != "s"
             and k != "trace.overhead_share"}
            for result in (first, second)
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["extensions.pullback.calls"], 0)
        self.assertGreater(counts[0]["series.mul.mono_products"], 0)


class Record(unittest.TestCase):
    def test_record_carries_provenance_and_spreads(self):
        wl, res = quick_pass("witt")
        metrics = run.end_to_end(res, ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]), 90)
        args = run.argparse.Namespace(workload="witt", seed=0, seconds=1.0, trace=0)
        rec = run.record(args, metrics, res, {})
        for key in ("commit", "src_sha256", "python", "nproc", "seed"):
            self.assertIn(key, rec)
        for name in ("setup_s", "unit_p50_ms", "unit_p90_ms"):
            self.assertGreaterEqual(rec["metrics"][name]["samples"], 3)
            self.assertEqual(len(rec["metrics"][name]["quartiles"]), 3)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            run.print_report(rec, res, wl)
        self.assertIn("failure ledger", out.getvalue())

    def test_oracle_for_curve_restrictions(self):
        # (x0 + u) u^(-ne) at p = 2, n = 1, x0 = 1, e = 2: u^-2 + u^-1 ~ 0.
        self.assertEqual(workloads.fp_conductor({-2: 1, -1: 1}, 2), 0)
        self.assertEqual(workloads.fp_conductor({-12: 1, -11: 1}, 3), 11)
        self.assertEqual(workloads.fp_conductor({-9: 2}, 3), 1)
        self.assertEqual(workloads.fp_conductor({-9: 2, -1: 1}, 3), 0)


class Contract(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "witt", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        wl, res = quick_pass("duality")
        e2e = run.end_to_end(res, ([0.1, 0.2], [0.1, 0.2]), 75)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertLessEqual(set(run.END_TO_END), set(e2e))
        traced = run.measure_traced("witt", 0, 1)[2]
        self.assertEqual({m["name"] for m in spec["per_layer"]}, set(traced))


class _Fixed:
    """A workload whose every cycle is a fixed list of units."""

    def __init__(self, wl, units):
        self.wl, self.units = wl, units

    def cycle(self, index):
        return list(self.units)

    def run(self, unit):
        return self.wl.run(unit)


if __name__ == "__main__":
    unittest.main()
