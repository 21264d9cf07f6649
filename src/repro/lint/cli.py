"""The ``repro lint`` subcommand.

Canonical invocation, from the repository root::

    PYTHONPATH=src python -m repro lint

Exit status: 0 when every finding is pragma'd or baselined, 1 when new
findings exist (or baseline entries went stale), 2 for usage errors.
``--format json`` emits a machine-readable report; ``--output`` writes
that report to a file regardless of exit status, which is what CI
uploads as the findings artifact.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import List, Optional, Sequence

import repro
from repro.lint.baseline import Baseline, BaselineError
from repro.lint.checkers import RULES, all_checkers
from repro.lint.driver import LintConfigError, discover_files, run_checkers
from repro.lint.findings import sort_findings


def default_target() -> pathlib.Path:
    """The installed ``repro`` package directory."""
    return pathlib.Path(repro.__file__).resolve().parent


def default_baseline_path() -> pathlib.Path:
    """``lint-baseline.json`` next to the source tree (the repo root in
    the canonical ``src/`` layout)."""
    return default_target().parent.parent / "lint-baseline.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared between the ``repro lint`` subcommand and :func:`main`."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files git reports as changed (working tree vs "
        "HEAD, plus untracked), scoped to the package tree",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="fmt",
        help="report format",
    )
    parser.add_argument(
        "--rules",
        metavar="LIST",
        help=f"comma list of rules to run (default: all of "
        f"{','.join(sorted(RULES))})",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="baseline file (default: lint-baseline.json at the repo root)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="also write the JSON report here (written even on failure)",
    )


def changed_paths() -> List[pathlib.Path]:
    """Python files git reports as changed, limited to the package tree.

    "Changed" is the union of the working tree diff against ``HEAD``
    (staged and unstaged) and untracked files; deleted files drop out.
    Keeps pre-commit runs proportional to the edit, not the tree —
    findings are per-file, so linting the touched subset reports
    exactly the findings the full run would report for those files.
    """
    target = default_target()
    root = target.parent.parent
    names = set()
    for command in (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            command, cwd=root, capture_output=True, text=True
        )
        if proc.returncode != 0:
            detail = proc.stderr.strip() or f"exit {proc.returncode}"
            raise LintConfigError(
                f"--changed: `{' '.join(command)}` failed: {detail}"
            )
        names.update(
            line.strip() for line in proc.stdout.splitlines() if line.strip()
        )
    paths: List[pathlib.Path] = []
    for name in sorted(names):
        if not name.endswith(".py"):
            continue
        path = (root / name).resolve()
        if not path.is_file():
            continue
        try:
            path.relative_to(target)
        except ValueError:
            continue
        paths.append(path)
    return paths


def run_lint(args: argparse.Namespace) -> int:
    try:
        rules = (
            [rule.strip() for rule in args.rules.split(",") if rule.strip()]
            if args.rules
            else None
        )
        checkers = all_checkers(rules)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    try:
        if args.changed:
            if args.paths:
                raise LintConfigError(
                    "--changed and explicit paths are mutually exclusive"
                )
            paths = changed_paths()
            if not paths:
                print("repro lint: no changed files")
                return 0
        else:
            paths = [pathlib.Path(path) for path in args.paths] or [
                default_target()
            ]
        files = discover_files(paths)
    except (LintConfigError, OSError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    ctx = run_checkers(files, checkers)

    baseline_path = pathlib.Path(
        args.baseline if args.baseline else default_baseline_path()
    )
    if args.write_baseline:
        Baseline(ctx.findings).save(baseline_path)
        print(
            f"wrote {len(ctx.findings)} finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0

    if args.no_baseline:
        baseline = Baseline()
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
    new, suppressed, stale = baseline.filter(ctx.findings)
    new = sort_findings(new)

    report = {
        "checked_files": len(files),
        "rules": sorted(checker.rule for checker in checkers),
        "findings": [finding.as_dict() for finding in new],
        "baselined": [finding.as_dict() for finding in suppressed],
        "stale_baseline_entries": [entry.as_dict() for entry in stale],
        "pragma_suppressed": ctx.suppressed_count,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")

    if args.fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in new:
            print(finding.render())
        for entry in stale:
            print(
                f"stale baseline entry (fixed? remove it): "
                f"[{entry.rule}] {entry.file}: {entry.message}"
            )
        summary = (
            f"repro lint: {len(files)} files, "
            f"{len(new)} finding(s)"
        )
        if suppressed:
            summary += f", {len(suppressed)} baselined"
        if ctx.suppressed_count:
            summary += f", {ctx.suppressed_count} pragma-suppressed"
        print(summary)

    return 1 if new or stale else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint", description=__doc__.splitlines()[0]
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(list(argv) if argv is not None else None))


if __name__ == "__main__":
    sys.exit(main())
