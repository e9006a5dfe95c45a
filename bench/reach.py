"""Reach map: which statements of the library the shipped paths run.

    python3 bench/reach.py OUT [SRC]

Run it from the repository root; it uses only the standard library.
``SRC`` is a ``src`` directory holding an ``rswan`` package (default: this
checkout's ``src``); run it on two checkouts and diff the two ``OUT`` files
to see what a change moved.  Without ``OUT`` it prints its usage line and
exits with status 2.

The shipped paths are ``check-all`` for p = 2, 3, 5 at seeds 0-2, once
through ``cli.run`` and ``report_body_bytes`` and once through
``cli.main``, and then, for seeds 0-2, the warm-up unit and 10 cycles of
every workload of ``perfbench/workloads.py`` (imported, never edited).  A
unit that raises is counted as failed.  ``sys.settrace`` records the lines
that run in files under ``SRC/rswan``.

A statement is one ``ast`` statement inside a function, docstrings aside;
a compound statement (``if``, ``for``, ``try``, a nested ``def``) counts
its header, and its body counts statement by statement.  A nested function
or class method counts on its own, under its ``__qualname__``.  A
statement is reached when any line of it (of its header, for a compound
one) ran.  ``OUT`` gets, per function, its module, qualname, first line,
statement count and the first lines of the statements no run reached;
then the totals, the functions that ran no statement, and the unit counts
of the runs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import platform
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
PRIMES = (2, 3, 5)
CYCLES = 10

_COMPOUND_BODIES = ("body", "orelse", "finalbody")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _span(stmt: ast.stmt) -> range:
    """The lines whose running means ``stmt`` ran: all of a simple
    statement, the header (decorators included) of a compound one."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, stmt.lineno + 1))
    return range(first, stmt.end_lineno + 1)


def _statements(body: list, out: list, nested: list, prefix: str) -> None:
    """Append to ``out`` the statements of ``body`` that belong to the
    function being read, and to ``nested`` the ``(qualname prefix, def)``
    of each function defined in it."""
    for stmt in body:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue  # compiles to nothing, so no line of it ever runs
        out.append(stmt)
        if isinstance(stmt, _FUNCTIONS):
            nested.append((prefix, stmt))
            continue
        if isinstance(stmt, ast.ClassDef):
            _statements(stmt.body, out, nested, f"{prefix}{stmt.name}.")
            continue
        for field in _COMPOUND_BODIES:
            _statements(getattr(stmt, field, []), out, nested, prefix)
        for handler in getattr(stmt, "handlers", ()):
            _statements(handler.body, out, nested, prefix)
        for case in getattr(stmt, "cases", ()):
            _statements(case.body, out, nested, prefix)


def _docstring(body: list) -> bool:
    first = body[0]
    return (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str))


def functions(path: Path) -> list:
    """``(qualname, def node, statements)`` of every function in ``path``."""
    found = []
    todo = []
    module_level: list = []
    _statements(ast.parse(path.read_text(), str(path)).body, module_level, todo, "")
    while todo:
        prefix, node = todo.pop()
        qualname = prefix + node.name
        body = node.body[1:] if _docstring(node.body) else node.body
        stmts: list = []
        _statements(body, stmts, todo, f"{qualname}.<locals>.")
        found.append((qualname, node, stmts))
    return sorted(found, key=lambda item: item[1].lineno)


def collect(package: Path, run) -> dict:
    """Call ``run()`` under a line trace of the files under ``package`` and
    return the reach map of every function in them."""
    package = package.resolve()
    root = f"{package}/"
    executed = defaultdict(set)

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(root):
            return None
        add = executed[filename].add

        def lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return lines

        return lines

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)

    records = []
    for path in sorted(package.rglob("*.py")):
        ran = executed.get(str(path), set())
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        for qualname, node, stmts in functions(path):
            unreached = [s.lineno for s in stmts if ran.isdisjoint(_span(s))]
            records.append({
                "module": module,
                "qualname": qualname,
                "line": node.lineno,
                "statements": len(stmts),
                "unreached": unreached,
            })
    statements = sum(r["statements"] for r in records)
    never_run = [f"{r['module']}.{r['qualname']}" for r in records
                 if r["statements"] and len(r["unreached"]) == r["statements"]]
    return {
        "totals": {
            "functions": len(records),
            "statements": statements,
            "reached": statements - sum(len(r["unreached"]) for r in records),
            "never_run": len(never_run),
        },
        "never_run": never_run,
        "functions": records,
    }


def shipped_paths(counts: dict):
    """The shipped paths (module docstring), counting units into ``counts``."""
    from rswan import catalog, cli

    for p in PRIMES:
        for seed in SEEDS:
            config = cli.load_config(catalog.canned_config(p))
            cli.report_body_bytes(cli.run(config, seed=seed))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["check-all", "--p", str(p), "--seed", str(seed)])
            counts["check-all"] += 1

    import workloads

    for name, workload in workloads.WORKLOADS.items():
        tally = counts.setdefault(name, {"units": 0, "failed": 0})
        for seed in SEEDS:
            wl = workload(seed)
            units = [wl.warmup()] + [u for i in range(CYCLES) for u in wl.cycle(i)]
            for unit in units:
                tally["units"] += 1
                try:
                    wl.run(unit)
                except Exception:  # noqa: BLE001 - a failed unit is counted
                    tally["failed"] += 1


def main() -> int:
    argv = sys.argv[1:]
    if not 1 <= len(argv) <= 2:
        print("usage: python3 bench/reach.py OUT [SRC]", file=sys.stderr)
        return 2
    src = Path(argv[1] if len(argv) > 1 else ROOT / "src").resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    package = src / "rswan"
    counts: dict = {"check-all": 0}
    reach = collect(package, lambda: shipped_paths(counts))

    import rswan

    if Path(rswan.__file__).resolve().parent != package:
        raise SystemExit(f"reach: imported rswan from {rswan.__file__}, not {package}")
    from _trees import commit

    result = {
        "bench": "reach",
        "python": platform.python_version(),
        "trees": [{"commit": commit(str(src))}],
        "seeds": list(SEEDS),
        "cycles": CYCLES,
        "runs": counts,
        **reach,
    }
    text = json.dumps(result, indent=2)
    Path(argv[0]).write_text(text + "\n")
    print(json.dumps({"totals": reach["totals"], "never_run": reach["never_run"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
