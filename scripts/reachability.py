#!/usr/bin/env python
"""List the functions of the ``repro`` package that nothing reaches.

Runs every CLI subcommand, the CI smoke scripts and the examples, each in
its own process under ``cProfile``, then the tier-1 suite the same way.
Prints every function defined under ``src/repro`` that no profiled run
entered, marking with ``T`` the ones only the tests reach. Each listed
function either earns a row in ``docs/reachability.md`` (the paper
figure, invariant or public API it serves) or is deleted.

Usage::

    python scripts/reachability.py [--keep DIR]

Reach is a lower bound: pool workers and test subprocesses are not
profiled, so every batch command runs with ``--jobs 1``; ``report
--defense`` and the ``nxns``/``random-subdomain`` defense-study modes
are left out because each takes many minutes under the profiler. A full
pass takes about 12 minutes on a 2-core x86-64 box.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import pstats
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Run in order from a shared scratch directory ``{tmp}``; ``{root}`` is
#: the repository.
COMMANDS = [
    "-m repro ddos H --probes 16 --jobs 1 --trace {tmp}/spans.jsonl"
    " --metrics-out {tmp}/metrics.jsonl --export-trace {tmp}/queries.jsonl",
    "-m repro ddos H --probes 16 --jobs 1 --timeline {tmp}/tl.jsonl --timeline-interval 300",
    "-m repro analyze-trace {tmp}/spans.jsonl --mode trace-summary --top 5",
    "-m repro analyze-trace {tmp}/queries.jsonl",
    "-m repro timeline {tmp}/tl.jsonl",
    "-m repro timeline {tmp}/tl.jsonl --format csv --series offered_qps,client_ok_ratio",
    "{root}/scripts/validate_telemetry.py {tmp}/spans.jsonl",
    "{root}/scripts/validate_telemetry.py {tmp}/tl.jsonl",
    "-m repro baseline 1800 --probes 16 --jobs 1 --cache-dir {tmp}/cache",
    "-m repro baseline 1800 --probes 16 --jobs 1 --cache-dir {tmp}/cache",
    "-m repro defense-study --probes 16 --attackers 2 --intensities 2 --jobs 1"
    " --json {tmp}/defense.json",
    "-m repro report --baseline-probes 24 --ddos-probes 16 --jobs 1"
    " --timeline {tmp}/report-tl.jsonl",
    "-m repro sweep --losses 0.9 --ttls 60 --probes 16 --jobs 1 --csv {tmp}/sweep.csv",
    "-m repro software --attack",
    "-m repro glue --probes 40",
    "-m repro probe-case",
    "-m repro profile --probes 16",
    "-m repro lint",
    "-m repro verify",
    "-m repro verify --dot {tmp}/dot",
    "{root}/scripts/check_kernel_budget.py",
    "{root}/scripts/chaos_smoke.py --cache-dir {tmp}/chaos",
] + [f"{{root}}/examples/{path.name}" for path in sorted((ROOT / "examples").glob("*.py"))]


def profile(argv, out: pathlib.Path, cwd) -> bool:
    """Run ``python argv`` in ``cwd`` under cProfile into ``out``; False
    on failure."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "cProfile", "-o", str(out), *argv]
    try:
        done = subprocess.run(
            command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, timeout=1800
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0 and out.exists()


def reached(paths) -> set:
    """``(file, first line)`` of every function the profiles entered."""
    keys = set()
    for path in paths:
        for filename, line, _name in pstats.Stats(str(path)).stats:
            keys.add((os.path.realpath(filename), line))
    return keys


def defined():
    """``(file, first line) -> (module, qualified name, lines)`` for
    every function under the package; the first line is the first
    decorator's, as in ``co_firstlineno``."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(os.path.realpath(path), first)] = (
                    str(path.relative_to(PACKAGE)),
                    prefix + child.name,
                    child.end_lineno - child.lineno + 1,
                )
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def profile_all(workdir: pathlib.Path):
    """Profile every entry point, then tier-1; returns both reach sets."""
    entry = []
    with tempfile.TemporaryDirectory(prefix="reach-run-") as scratch:
        for index, command in enumerate(COMMANDS):
            out = workdir / f"entry-{index:02d}.pstats"
            argv = command.format(tmp=scratch, root=ROOT).split()
            if profile(argv, out, cwd=scratch):
                entry.append(out)
            else:
                print(f"reachability: failed: {command}", file=sys.stderr)
    out = workdir / "tests.pstats"
    # Failing tests still leave a profile worth reading.
    profile(["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"], out, cwd=ROOT)
    return reached(entry), (reached([out]) if out.exists() else set())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", help="keep the profiles here")
    args = parser.parse_args(argv)

    if args.keep:
        workdir = pathlib.Path(args.keep)
        workdir.mkdir(parents=True, exist_ok=True)
        from_entry, from_tests = profile_all(workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="reach-") as name:
            from_entry, from_tests = profile_all(pathlib.Path(name))

    lines = 0
    for key, (module, name, size) in sorted(defined().items()):
        if key in from_entry:
            continue
        lines += size
        mark = "T" if key in from_tests else "-"
        print(f"{mark} {size:4d}  {module}:{name}")
    print(f"{lines} lines in functions no entry point reaches (T: tests do)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
