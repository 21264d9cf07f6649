"""Callback-path discovery shared by the slots and event-loop checkers.

A function is *on the callback path* when the simulator can invoke it
from the event loop: it is passed to a scheduling/registration call
(``sim.call_later``, ``sim.at``, ``queue.push``, ``network.register``,
``network.register_tap``), or it is (by name) an
override of a method so registered anywhere in the tree, or it is
reachable from such a function through same-module calls
(``self.helper()`` / ``helper()``).

Name-based matching is deliberate: ``Host.__init__`` registers
``self.on_packet`` once, and every subclass's ``on_packet`` — defined in
a different module — must inherit the hot-path obligations. The cost is
a conservative over-approximation (an unrelated method that happens to
share a registered callback's name is treated as hot), which for a lint
is the right direction to err.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Union

from repro.lint.driver import SourceFile

#: Registration entry points -> index of the callback argument.
REGISTRARS: Dict[str, int] = {
    "call_later": 1,
    "at": 1,
    "push": 1,
    "register": 1,
    "register_tap": 1,
}

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _callback_argument(node: ast.Call) -> Union[ast.expr, None]:
    """The expression passed as the callback, if ``node`` registers one."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    index = REGISTRARS.get(func.attr)
    if index is None or len(node.args) <= index:
        return None
    return node.args[index]


def callback_names(files: Iterable[SourceFile]) -> Set[str]:
    """Every function/method *name* registered as a callback anywhere."""
    names: Set[str] = set()
    for file in files:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            callback = _callback_argument(node)
            if callback is None:
                continue
            if isinstance(callback, ast.Name):
                names.add(callback.id)
            elif isinstance(callback, ast.Attribute):
                names.add(callback.attr)
    return names


def _local_definitions(tree: ast.Module) -> Dict[str, List[ast.AST]]:
    """Function/method definitions in a module, keyed by bare name.

    Methods are keyed by method name (not qualified) so ``self.helper()``
    resolves without type inference; name collisions merge, which only
    widens the hot set.
    """
    defs: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    return defs


def hot_functions(
    file: SourceFile, global_callback_names: Set[str]
) -> List[FunctionNode]:
    """Functions in ``file`` reachable from the event loop.

    Roots are (a) defs whose name is registered as a callback anywhere in
    the tree and (b) lambdas passed directly to a registrar in this file.
    The set is closed under same-module calls.
    """
    defs = _local_definitions(file.tree)
    hot: List[FunctionNode] = []
    seen: Set[int] = set()
    worklist: List[ast.AST] = []

    def add(node: ast.AST) -> None:
        if id(node) not in seen:
            seen.add(id(node))
            worklist.append(node)
            hot.append(node)  # type: ignore[arg-type]

    for name in global_callback_names:
        for definition in defs.get(name, ()):
            add(definition)
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Call):
            callback = _callback_argument(node)
            if isinstance(callback, ast.Lambda):
                add(callback)

    while worklist:
        current = worklist.pop()
        for node in ast.walk(current):
            if not isinstance(node, ast.Call):
                continue
            target = None
            if isinstance(node.func, ast.Name):
                target = node.func.id
            elif isinstance(node.func, ast.Attribute) and isinstance(
                node.func.value, ast.Name
            ):
                if node.func.value.id in ("self", "cls"):
                    target = node.func.attr
            if target is not None:
                for definition in defs.get(target, ()):
                    add(definition)
    return hot
