"""The single-pass AST visitor driver all checkers share.

Each source file is read and parsed exactly once. One ``ast.walk`` per
file dispatches every node to the checkers that registered interest in
its type, so adding a checker costs a dict lookup per node, not another
parse of the tree. Cross-file rules (spec hygiene, callback-path
discovery) buffer state during the walk and emit their findings in
``finalize``.

Checkers report through :meth:`LintContext.report`, which applies the
per-line ``# repro-lint: allow[rule]`` pragmas; the committed baseline
is applied later, by the CLI, so library callers always see the full
finding list.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

from repro.lint.findings import Finding, sort_findings
from repro.lint.pragmas import allows, parse_pragmas


class LintConfigError(ValueError):
    """Raised for unusable lint inputs (bad paths, broken source)."""


class SourceFile:
    """One parsed source file plus its pragma table and import aliases."""

    __slots__ = ("path", "rel", "source", "tree", "pragmas", "_imports")

    def __init__(
        self, path: pathlib.Path, rel: str, source: str, tree: ast.Module
    ) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = tree
        self.pragmas = parse_pragmas(source)
        self._imports: Optional[Dict[str, str]] = None

    @property
    def imports(self) -> Dict[str, str]:
        """Alias table: local name -> dotted origin.

        ``import time as _walltime`` maps ``_walltime -> time``;
        ``from datetime import datetime`` maps ``datetime ->
        datetime.datetime``. Built lazily, once, by the first checker
        that resolves module references.
        """
        if self._imports is None:
            table: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        table[alias.asname or alias.name.split(".")[0]] = (
                            alias.name
                        )
                elif isinstance(node, ast.ImportFrom) and node.module:
                    if node.level:
                        continue  # relative imports never name stdlib modules
                    for alias in node.names:
                        table[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )
            self._imports = table
        return self._imports


class LintContext:
    """Shared state for one lint run."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        self.findings: List[Finding] = []
        self.suppressed_count = 0

    def files_matching(self, suffix: str) -> List[SourceFile]:
        return [file for file in self.files if file.rel.endswith(suffix)]

    def report(
        self,
        rule: str,
        file: SourceFile,
        where: Union[int, ast.AST],
        message: str,
    ) -> None:
        """Emit a finding unless a pragma on its line (or the line above,
        standalone form) allows the rule."""
        line = where if isinstance(where, int) else getattr(where, "lineno", 0)
        if allows(file.pragmas, line, rule):
            self.suppressed_count += 1
            return
        self.findings.append(Finding(rule, file.rel, line, message))


class Checker:
    """Base class: subclasses set ``rule`` and ``node_types`` and
    implement any of the four hooks."""

    rule: str = ""
    #: AST node classes this checker wants to see during the walk.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def begin_file(self, ctx: LintContext, file: SourceFile) -> None:
        pass

    def visit(self, ctx: LintContext, file: SourceFile, node: ast.AST) -> None:
        pass

    def end_file(self, ctx: LintContext, file: SourceFile) -> None:
        pass

    def finalize(self, ctx: LintContext) -> None:
        pass


def discover_files(
    paths: Iterable[pathlib.Path], src_root: Optional[pathlib.Path] = None
) -> List[SourceFile]:
    """Load and parse every ``.py`` file under ``paths``.

    ``src_root`` anchors the relative path recorded on findings (so
    baselines are machine-independent); by default it is the parent of
    the first path, which for the canonical invocation (the ``repro``
    package directory) yields ``repro/...`` paths.
    """
    path_list = [pathlib.Path(path) for path in paths]
    if not path_list:
        raise LintConfigError("no paths to lint")
    if src_root is None:
        first = path_list[0].resolve()
        src_root = first.parent if first.is_dir() else first.parent.parent
    seen = set()
    files: List[SourceFile] = []
    for path in path_list:
        path = path.resolve()
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise LintConfigError(f"not a python file or directory: {path}")
        for candidate in candidates:
            if candidate in seen:
                continue
            seen.add(candidate)
            files.append(load_file(candidate, src_root))
    return files


def load_file(path: pathlib.Path, src_root: pathlib.Path) -> SourceFile:
    source = path.read_text(encoding="utf-8")
    try:
        rel = path.relative_to(src_root).as_posix()
    except ValueError:
        rel = path.as_posix()
    return parse_source(source, rel, path)


def parse_source(
    source: str, rel: str, path: Optional[pathlib.Path] = None
) -> SourceFile:
    """Build a :class:`SourceFile` from in-memory source (tests use this
    to lint fixture snippets without touching disk)."""
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        raise LintConfigError(f"{rel}: syntax error: {exc}") from exc
    return SourceFile(path or pathlib.Path(rel), rel, source, tree)


def run_checkers(
    files: Sequence[SourceFile], checkers: Sequence[Checker]
) -> LintContext:
    """One pass over every file, then one finalize round."""
    ctx = LintContext(files)
    dispatch: Dict[Type[ast.AST], List[Checker]] = {}
    for checker in checkers:
        for node_type in checker.node_types:
            dispatch.setdefault(node_type, []).append(checker)
    for file in files:
        for checker in checkers:
            checker.begin_file(ctx, file)
        if dispatch:
            for node in ast.walk(file.tree):
                for checker in dispatch.get(type(node), ()):
                    checker.visit(ctx, file, node)
        for checker in checkers:
            checker.end_file(ctx, file)
    for checker in checkers:
        checker.finalize(ctx)
    ctx.findings = sort_findings(ctx.findings)
    return ctx
