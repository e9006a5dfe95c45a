"""Layer bench: one-variable series products, Kronecker kernel against the dict loop.

    python3 bench/series_mul.py OUT

Run it from the repository root; it imports ``rswan`` from ``src/`` and uses
only the standard library.  For ``(p, k, s)`` in ``(2,1,1)``, ``(3,2,1)`` and
``(2,1,4)`` it times the product of two dense level-1 series:

* ``products``: widths 16 and 64, exact operands and operands with a window
  (the shape of the power tables in a pullback).  ``kernel_us`` is
  ``NestedSeries.__mul__``; ``reference_us`` is the schoolbook loop plus the
  validating constructor, the product of the parent design.
* ``crossover``: ``n x n`` products for ``n`` in 2..12, exact and cut at
  exponent ``n`` (the square of a window), kernel against loop without
  constructors, and the smallest term-pair count from which the kernel
  wins for every triple and shape.  It moves between 36 and 49 from run to
  run (6 x 6 windows at ``(2,1,4)`` are a tie), and
  ``series._KRONECKER_MIN_PAIRS`` takes the upper end.

Each figure is the median of ``REPEATS`` timings of a batch of calls.  The
JSON written to ``OUT`` (required, so that no run overwrites a committed
``BENCH_<n>.json`` by default) records the commit
(``git describe --always --dirty``), the Python version and the machine.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

from _trees import commit

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rswan.scalars import galois_ring_domain  # noqa: E402
from rswan.series import (  # noqa: E402
    NestedSeries,
    _KRONECKER_MIN_PAIRS,
    _kronecker_mul,
    _schoolbook_mul,
)

CELLS = ((2, 1, 1), (3, 2, 1), (2, 1, 4))
WIDTHS = (16, 64)
CROSSOVER_SIZES = range(2, 13)
REPEATS = 7
BATCH_SECONDS = 0.02  # each timing covers a batch of about this length


def _median_us(fn) -> float:
    """Median over REPEATS batches of the time of one call, in microseconds."""
    fn()
    batch = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        if time.perf_counter() - t0 >= BATCH_SECONDS:
            break
        batch *= 2
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times) * 1e6


def _dense(dom, rng, low: int, width: int, ceiling) -> NestedSeries:
    return NestedSeries(
        1, dom, {e: dom.random_nonzero(rng) for e in range(low, low + width)}, ceiling
    )


def _reference(x: NestedSeries, y: NestedSeries, ceiling) -> NestedSeries:
    dom = x.domain
    return NestedSeries(1, dom, _schoolbook_mul(x.coeffs, y.coeffs, ceiling, dom.mul, dom.add), ceiling)


def products(rng) -> list:
    rows = []
    for p, k, s in CELLS:
        dom = galois_ring_domain(p, k, s)
        for width in WIDTHS:
            for shape in ("exact", "window"):
                ceiling = width - 3 if shape == "window" else None
                x = _dense(dom, rng, -3, width, ceiling)
                y = _dense(dom, rng, 0, width, None if ceiling is None else width)
                product = x * y
                if product != _reference(x, y, product.ceiling):
                    raise SystemExit(f"kernel and reference differ at {(p, k, s, width, shape)}")
                kernel = _median_us(lambda: x * y)
                reference = _median_us(lambda: _reference(x, y, product.ceiling))
                rows.append({
                    "p": p, "k": k, "s": s, "width": width, "shape": shape,
                    "kernel_us": round(kernel, 2), "reference_us": round(reference, 2),
                    "speedup": round(reference / kernel, 2),
                })
    return rows


def crossover(rng) -> dict:
    table = []
    for n in CROSSOVER_SIZES:
        row = {"n": n, "pairs": n * n}
        for p, k, s in CELLS:
            dom = galois_ring_domain(p, k, s)
            for shape, ceiling in (("exact", None), ("window", n)):
                a = _dense(dom, rng, 0, n, ceiling).coeffs
                b = _dense(dom, rng, 0, n, ceiling).coeffs
                loop = _median_us(lambda: _schoolbook_mul(a, b, ceiling, dom.mul, dom.add))
                kernel = _median_us(lambda: _kronecker_mul(dom, a, b, ceiling))
                row[f"{p},{k},{s} {shape}"] = round(loop / kernel, 2)
        table.append(row)
    # the smallest size from which the kernel wins in every cell and shape
    wins_from = None
    for row in reversed(table):
        if not all(v > 1 for key, v in row.items() if key not in ("n", "pairs")):
            break
        wins_from = row["pairs"]
    return {
        "loop_over_kernel": table,
        "kernel_wins_from_pairs": wins_from,
        "cutoff_in_code": _KRONECKER_MIN_PAIRS,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 bench/series_mul.py OUT", file=sys.stderr)
        return 2
    out_path = Path(argv[0])
    rng = random.Random(5)
    result = {
        "bench": "series_mul",
        "commit": commit(str(ROOT / "src")),
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "repeats": REPEATS,
        "products": products(rng),
        "crossover": crossover(rng),
    }
    text = json.dumps(result, indent=2)
    out_path.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
