"""rswan benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``rswan`` from ``src/``.  One
client runs units back to back in one thread, in whole cycles; a run does
the number of cycles that takes about ``--seconds`` on the reference
machine, so one seed always gives the same inputs.  Every answer is checked
exactly.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give every metric with its sample count and quartiles, the run record
(commit, Python, nproc, seed) and the failure ledger.

``--trace 0`` gives the end-to-end metrics, with no wrapper installed.  The
machine this was tuned on changes speed by +-20% from one second to the
next, so a reference kernel is timed between units and around each set-up,
and ``setup_s`` and the ``*_norm`` metrics restate set-up time, throughput
and latency at the reference speed; the raw figures are printed too.
``--trace 1`` runs a fixed number of cycles twice, untraced and then with
per-module wrappers installed (see ``tracing.py``), and gives the per-layer
metrics: exact operation counts and self times, plus the tracing overhead.

The exit code is 1 when an answer is wrong, a pinned seed-0 catalog digest
differs, or a traced pass answers differently from the untraced one; 2 when
the workload cannot be set up (for example without ``src/rswan``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The end-to-end metrics on the last line (BENCHMARK.json lists the same);
# the raw units_per_s, unit_p50_ms, unit_p90_ms and fail_share are printed
# above it.
END_TO_END = ("setup_s", "units_per_s_norm", "unit_p50_ms_norm", "unit_p90_ms_norm",
              "answered_share", "peak_rss_mb")
SETUP_PROBES = 7  # fresh processes timed for setup_s; the median is reported
LEDGER_EXAMPLES = 3  # failing inputs printed per failure kind
# A run does a fixed amount of work, so that one seed always gives the same
# inputs however fast the machine or the code is: --seconds times these
# cycle rates, measured on the reference machine (see REFERENCE_RATE).
CYCLES_PER_SECOND = {"catalog": 0.27, "witt": 5.0, "duality": 0.45, "embed": 8.0}
# Cycles in a --trace 1 pass: fixed, so every count repeats exactly.
TRACE_CYCLES = {"catalog": 1, "witt": 8, "duality": 2, "embed": 20}
# Speed probe: a fixed pure-Python kernel timed between units, for 5% of the
# time the units take, gives the machine's speed during the pass.  The *_norm
# metrics scale the measured rate and latencies to REFERENCE_RATE, the
# kernel's median rate on the machine the bounds were set on (2-vCPU Xeon
# VM at 2.1 GHz, Python 3.11).  There, six same-seed embed runs varied by
# 9.5% (coefficient of variation) raw and by 2-3% scaled.
REFERENCE_SHARE = 0.05
REFERENCE_RATE = 3860.0  # kernel calls per second
SETUP_PROBE_KERNEL_S = 0.03  # kernel time around each timed set-up
# The percentile reported as unit_p90_ms: the highest with at least ten
# samples beyond it in a 20-second run.  It is fixed per workload so that
# runs of other lengths still report the same percentile.  A 20-second
# catalog run has 15 units, so no percentile has that depth there; p90 is
# reported with its depth.
TAIL_PERCENTILE = {"catalog": 90, "witt": 90, "duality": 75, "embed": 90}


def _import_rswan():
    """Import ``rswan`` from this checkout's ``src``, and nothing else."""
    if not (SRC / "rswan" / "__init__.py").is_file():
        print(f"perfbench: no rswan sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import rswan

    if Path(rswan.__file__).resolve().parent != SRC / "rswan":
        print(f"perfbench: imported rswan from {rswan.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return rswan


# ------------------------------------------------------------------- passes

class PassResult:
    """What one pass over whole cycles saw."""

    def __init__(self):
        self.attempted = 0
        self.latencies: list[float] = []  # seconds, answered units only
        self.wrong = 0
        self.failures: Counter = Counter()
        self.examples: dict[str, list] = {}
        self.answers: list = []
        self.wall = 0.0
        self.cycles = 0
        self.cycle_rates: list[float] = []  # answered units per second, per cycle
        self.probe = SpeedProbe()

    @property
    def answered(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.answered

    @property
    def unit_seconds(self) -> float:
        """Wall time of the pass less the speed probe's share."""
        return self.wall - self.probe.seconds


def reference_kernel() -> int:
    """Fixed pure-Python work: integer arithmetic and dict traffic."""
    acc = {}
    for i in range(1000):
        key = (i * 7919) % 211
        acc[key] = (acc.get(key, 0) + i * i) % 65537
    return len(acc)


class SpeedProbe:
    """Runs :func:`reference_kernel` after units, REFERENCE_SHARE of their time."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self._owed = 0.0

    def spend(self, seconds: float) -> float:
        """Run the kernel at least once and for about ``seconds``; time spent."""
        spent = 0.0
        while spent < seconds or not spent:
            t0 = time.perf_counter()
            reference_kernel()
            dt = time.perf_counter() - t0
            self.calls += 1
            self.seconds += dt
            spent += dt
        return spent

    def after(self, unit_seconds: float):
        self._owed += unit_seconds * REFERENCE_SHARE
        if self._owed > 0:
            self._owed -= self.spend(self._owed)

    @property
    def speed(self) -> float:
        """Machine speed during the pass relative to the reference machine."""
        return self.calls / self.seconds / REFERENCE_RATE if self.seconds else 1.0


def failure_kind(exc) -> str:
    """Exception type and first message line, numbers folded to N."""
    message = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {re.sub(r'-?[0-9]+', 'N', message)[:80]}"


def run_pass(wl, cycles: int, keep_answers=False, probe=False) -> PassResult:
    """Run ``cycles`` whole cycles; with ``probe``, time the reference kernel
    between units."""
    from workloads import WrongAnswer

    clock = time.perf_counter
    res = PassResult()
    start = clock()
    while True:
        cycle_start, answered_before, probed = clock(), res.answered, res.probe.seconds
        for unit in wl.cycle(res.cycles):
            res.attempted += 1
            t0 = clock()
            try:
                answer = wl.run(unit)
            except WrongAnswer as exc:
                res.wrong += 1
                answer = kind = f"wrong answer: {exc}"
            except Exception as exc:  # noqa: BLE001 - a failed unit is data
                answer = kind = failure_kind(exc)
            else:
                res.latencies.append(clock() - t0)
                kind = None
            if kind is not None:
                res.failures[kind] += 1
                examples = res.examples.setdefault(kind, [])
                if len(examples) < LEDGER_EXAMPLES:
                    examples.append(unit)
            if keep_answers:
                res.answers.append(answer)
            if probe:
                res.probe.after(clock() - t0)
        res.cycles += 1
        cycle_seconds = clock() - cycle_start - (res.probe.seconds - probed)
        res.cycle_rates.append((res.answered - answered_before) / cycle_seconds)
        if res.cycles >= cycles:
            break
    res.wall = clock() - start
    return res


# ------------------------------------------------------------------ numbers

def quartiles(values):
    if len(values) < 2:
        return None
    return [float(q) for q in statistics.quantiles(values, n=4, method="inclusive")]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(latencies, q):
    """(value, samples beyond it) of the q-th percentile."""
    if len(latencies) < 2:
        return (latencies[0] if latencies else 0.0), 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]
    return value, sum(1 for x in latencies if x > value)


def metric(value, unit, samples=1, spread=None, note=None):
    out = {"value": value, "unit": unit, "samples": samples, "quartiles": spread}
    if note:
        out["note"] = note
    return out


def end_to_end(res: PassResult, setups: tuple[list[float], list[float]], q: int) -> dict:
    """The end-to-end metrics; ``setup_s`` and ``*_norm`` are scaled to the
    reference speed.  ``setups`` holds raw and scaled set-up times."""
    lat_ms = [x * 1e3 for x in res.latencies]
    p50 = median(lat_ms)
    p_tail, beyond = tail(lat_ms, q)
    speed = res.probe.speed
    tail_note = f"p{q} over {len(lat_ms)} samples, {beyond} beyond it"
    scaled = f"at the reference speed; this machine ran at {speed:.4f} of it"
    return {
        "setup_s": metric(median(setups[1]), "s", len(setups[1]), quartiles(setups[1]),
                          note=f"at the reference speed; raw median {median(setups[0]):.4f} s"),
        "units_per_s": metric(res.answered / res.unit_seconds, "1/s", res.cycles,
                              quartiles(res.cycle_rates),
                              note=f"{res.answered} answered units in "
                                   f"{res.unit_seconds:.3f} s; quartiles of per-cycle rates"),
        "unit_p50_ms": metric(p50, "ms", len(lat_ms), quartiles(lat_ms)),
        "unit_p90_ms": metric(p_tail, "ms", len(lat_ms), quartiles(lat_ms), note=tail_note),
        "units_per_s_norm": metric(res.answered / res.unit_seconds / speed, "1/s", res.cycles,
                                   note=scaled),
        "unit_p50_ms_norm": metric(p50 * speed, "ms", len(lat_ms), note=scaled),
        "unit_p90_ms_norm": metric(p_tail * speed, "ms", len(lat_ms),
                                   note=f"{tail_note}; {scaled}"),
        "fail_share": metric(res.failed / res.attempted, "share", res.attempted),
        "answered_share": metric(res.answered / res.attempted, "share", res.attempted),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, wl, traced: PassResult, untraced: PassResult) -> dict:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def mean(total, n):
        return total / n if n else 0.0

    out = {}
    for name in ("series.inv", "logdiff.dlog", "reciprocity.verify", "reciprocity.exp",
                 "reciprocity.theta", "series.mul", "series.pow", "series.add",
                 "witt.combine", "witt.reduce", "witt.swan", "logdiff.wedge", "logdiff.r_b",
                 "logdiff.residue", "rsw.form_at", "extensions.pullback",
                 "extensions.delta_tor", "parser.parse", "parser.render"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("logdiff.duality_matrix", "logdiff.gram", "rsw.closed",
                 "extensions.conductor_change", "cli.load_config", "cli.run",
                 "cli.report_bytes", "catalog.canned_config"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["series.inv.width_mean"] = (
        mean(counts["series.inv.width_sum"], counts["series.inv.outer"]), "exponents")
    out["logdiff.dlog.width_mean"] = (
        mean(counts["logdiff.dlog.width_sum"], calls["logdiff.dlog"]), "exponents")
    out["logdiff.gram.size_mean"] = (
        mean(counts["logdiff.gram.size_sum"], calls["logdiff.gram"]), "rows")
    out["series.mul.mono_products"] = (counts["series.mul.mono_products"], "count")
    out["witt.combine.terms_in"] = (counts["witt.combine.terms_in"], "count")
    out["reciprocity.samples"] = (counts["reciprocity.samples"], "count")
    out["reciprocity.schmid.calls"] = (calls["reciprocity.schmid"], "count")
    out["series.objects"] = (calls["series.init"], "count")
    out["logdiff.forms"] = (calls["logdiff.form_init"], "count")
    out["rsw.char_p.calls"] = (calls["rsw.char_p"], "count")
    out["extensions.applicable_share"] = (
        mean(counts["extensions.applicable"], calls["extensions.conductor_change"]), "share")
    out["witt.ramified_share"] = (
        mean(getattr(wl, "ramified", 0), getattr(wl, "draws", 0)), "share")
    for layer in ("scalars", "ratfunc"):
        names = [n for n in calls if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = (sum((self_s[n] for n in names), 0.0), "s")
    out["scalars.mul.calls"] = (calls["scalars.mul"], "count")
    out["scalars.inv.calls"] = (calls["scalars.inv"], "count")
    out["ratfunc.ops.calls"] = (
        sum(calls[n] for n in calls if n.startswith("ratfunc.")), "count")
    out["witt.internal_errors"] = (counts["witt.internal_errors"], "count")
    out["witt.precision_exhausted"] = (counts["witt.precision_exhausted"], "count")
    out["extensions.precision_exhausted"] = (counts["extensions.precision_exhausted"], "count")
    out["trace.overhead_share"] = (traced.wall / untraced.wall - 1.0, "share")
    return {k: metric(v, unit, traced.attempted) for k, (v, unit) in sorted(out.items())}


# ---------------------------------------------------------------- the record

def commit_id() -> str:
    """HEAD of the checkout's git directory, when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the library sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rswan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record(args, metrics, res: PassResult, checks: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": res.attempted,
        "failed": res.failed,
        "cycles": res.cycles,
        "checks": checks,
        "metrics": metrics,
    }


def print_report(rec: dict, res: PassResult, wl):
    print(f"perfbench {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"commit={rec['commit'][:12]} python={rec['python']} nproc={rec['nproc']}")
    for name, m in rec["metrics"].items():
        spread = ""
        if m["quartiles"]:
            spread = " quartiles " + "/".join(f"{q:.6g}" for q in m["quartiles"])
        note = f" ({m['note']})" if "note" in m else ""
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}  n={m['samples']}{spread}{note}")
    print(f"failure ledger: {res.failed} of {res.attempted} units failed")
    for kind, count in res.failures.most_common():
        print(f"  {count:6d}  {kind}")
        for unit in res.examples[kind]:
            print(f"          e.g. {wl.literal(unit)}")
    for name, problems in rec["checks"].items():
        for problem in problems:
            print(f"CHECK FAILED {name}: {problem}")
    print("record: " + json.dumps(rec, sort_keys=True))


# ---------------------------------------------------------------------- modes

def warm_up(wl):
    """Run the workload's fixed warm-up unit.  It is outside every timed
    pass, so a library error there is not fatal: the passes count failures."""
    try:
        wl.run(wl.warmup())
    except Exception:  # noqa: BLE001
        pass


def setup_probe(name: str, seed: int) -> dict:
    """Import rswan, build the workload, run one warm-up unit: the seconds
    taken, and the speed the reference kernel measured around it."""
    probe = SpeedProbe()
    probe.spend(SETUP_PROBE_KERNEL_S / 2)
    t0 = time.perf_counter()
    _import_rswan()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    warm_up(wl)
    seconds = time.perf_counter() - t0
    probe.spend(SETUP_PROBE_KERNEL_S / 2)
    return {"setup_s": seconds, "speed": probe.speed}


def probe_setups(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes: (raw, scaled to the reference speed)."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * probe["speed"])
    return raw, scaled


def measure(name: str, seed: int, seconds: float):
    """Untraced end-to-end run: (workload, pass, checks)."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    warm_up(wl)
    checks = {"wrappers_installed": tracing.installed_wrappers()}
    res = run_pass(wl, cycles=max(1, round(seconds * CYCLES_PER_SECOND[name])), probe=True)
    checks["wrappers_installed"] += tracing.installed_wrappers()
    if name == "catalog":
        checks["pinned_digests"] = wl.check_pinned_digests()
    return wl, res, checks


def measure_traced(name: str, seed: int, cycles: int):
    """Same cycles untraced, then traced: (workload, traced pass, metrics, checks)."""
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    wl = cls(seed)
    warm_up(wl)
    before = tracing.snapshot()
    checks = {"wrappers_installed": tracing.installed_wrappers()}
    untraced = run_pass(wl, cycles=cycles, keep_answers=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wl = cls(seed)
        traced = run_pass(traced_wl, cycles=cycles, keep_answers=True)
    finally:
        tracer.uninstall()
    checks["not_restored"] = tracing.differences(before, tracing.snapshot())
    checks["traced_answers_differ"] = [
        f"unit {i}: {a!r} != {b!r}"
        for i, (a, b) in enumerate(zip(untraced.answers, traced.answers)) if a != b
    ][:5]
    if name == "catalog":
        checks["pinned_digests"] = wl.check_pinned_digests()
    metrics = per_layer(tracer, traced_wl, traced, untraced)
    return traced_wl, traced, metrics, checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("catalog", "witt", "duality", "embed"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    _import_rswan()
    if args.trace:
        wl, res, metrics, checks = measure_traced(
            args.workload, args.seed, TRACE_CYCLES[args.workload])
    else:
        setups = probe_setups(args.workload, args.seed)
        wl, res, checks = measure(args.workload, args.seed, args.seconds)
        metrics = end_to_end(res, setups, TAIL_PERCENTILE[args.workload])
    checks["wrong_answers"] = [k for k in res.failures if k.startswith("wrong answer")]
    correct = not any(checks.values())
    rec = record(args, metrics, res, checks)
    print_report(rec, res, wl)
    shown = {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()
             if args.trace or k in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
