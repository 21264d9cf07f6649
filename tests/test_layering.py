"""Static checks on where worlds and resolver personalities are built.

Every experiment, example and the shared test fixture gets its DNS world
from :class:`repro.core.testbed.World`, the one place that constructs
the simulator, the network and the authoritative servers. The
BIND/Unbound personality likewise lives only in
``ResolverConfig.for_software``: nothing else in the package or the
examples switches on Unbound's AAAA-for-NS chasing.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORLD_PARTS = {"Simulator", "Network", "AuthoritativeServer"}


def parse(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def world_part_calls(path: pathlib.Path):
    return [
        f"{path.relative_to(ROOT)}:{node.lineno} {called_name(node)}("
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call) and called_name(node) in WORLD_PARTS
    ]


def test_worlds_come_from_the_builder():
    paths = [
        *sorted((ROOT / "src" / "repro" / "core" / "experiments").glob("*.py")),
        *sorted((ROOT / "examples").glob("*.py")),
        ROOT / "tests" / "conftest.py",
    ]
    offenders = [call for path in paths for call in world_part_calls(path)]
    assert offenders == []
    # Not vacuous: the builder itself makes all three.
    builder = world_part_calls(ROOT / "src" / "repro" / "core" / "testbed.py")
    assert {call.rsplit(" ", 1)[1] for call in builder} == {
        f"{name}(" for name in WORLD_PARTS
    }


def sets_chase_ns_aaaa(node: ast.AST) -> bool:
    """``x.chase_ns_aaaa = True`` or a ``chase_ns_aaaa=True`` keyword."""
    if isinstance(node, ast.keyword):
        target, value = node.arg, node.value
    elif isinstance(node, ast.Assign):
        if not any(
            isinstance(t, ast.Attribute) and t.attr == "chase_ns_aaaa"
            for t in node.targets
        ):
            return False
        target, value = "chase_ns_aaaa", node.value
    else:
        return False
    return (
        target == "chase_ns_aaaa"
        and isinstance(value, ast.Constant)
        and value.value is True
    )


def for_software_nodes(tree: ast.AST):
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "ResolverConfig":
            for func in cls.body:
                if isinstance(func, ast.FunctionDef) and func.name == "for_software":
                    return set(map(id, ast.walk(func)))
    return set()


def test_unbound_personality_only_in_for_software():
    paths = [
        *sorted((ROOT / "src" / "repro").rglob("*.py")),
        *sorted((ROOT / "examples").glob("*.py")),
    ]
    offenders, inside = [], 0
    for path in paths:
        tree = parse(path)
        allowed = for_software_nodes(tree)
        for node in ast.walk(tree):
            if sets_chase_ns_aaaa(node):
                if id(node) in allowed:
                    inside += 1
                else:
                    offenders.append(f"{path.relative_to(ROOT)}:{node.value.lineno}")
    assert offenders == []
    assert inside == 1
