"""Fold a ``cProfile`` run into per-layer spans.

Layers are the packages of ``repro``, derived from each function's
module path (never from a hand-kept function list). A layer's span
starts when a call enters one of its functions from outside the layer
and ends when that call returns; its *self* time is the span minus the
child spans of other layers, which is the sum of the self times of the
layer's own functions plus the stdlib/builtin time it caused. Functions
outside every layer (``ipaddress``, ``random``, ``heapq``, ``pickle``,
dict/list methods, ``repro`` packages that are not a layer) are charged
to the layer that called them, through the profiler's caller edges.

The profiler adds a fixed cost to every Python call, so call-heavy
layers look bigger than they are: use this for *attribution* (which
layer owns the time on which workload), never as a speed claim.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

#: The layers, most specific module prefix first wins.
LAYERS: Tuple[str, ...] = (
    "simcore",
    "netem",
    "dnscore",
    "resolvers",
    "resolvers.cache",
    "fsm",
    "servers",
    "clients",
    "core",
    "attackload",
    "defense",
    "obs",
    "runner",
    "analysis",
)

UNATTRIBUTED = "<unattributed>"

FuncKey = Tuple[str, int, str]


def module_of(filename: str, package_root: str) -> Optional[str]:
    """Dotted module path below ``package_root`` (``resolvers.cache``)."""
    if not filename.startswith(package_root + os.sep):
        return None
    relative = filename[len(package_root) + 1 :]
    if relative.endswith(".py"):
        relative = relative[:-3]
    return relative.replace(os.sep, ".")


def layer_of(module: Optional[str]) -> Optional[str]:
    """Longest layer name that is a dotted prefix of ``module``."""
    if module is None:
        return None
    parts = module.split(".")
    for length in range(len(parts), 0, -1):
        candidate = ".".join(parts[:length])
        if candidate in LAYERS:
            return candidate
    return None


def _edge_weights(callers: Dict[FuncKey, Any]) -> Dict[FuncKey, float]:
    """Each caller's share of a function's self time; by call count when
    the profiler recorded no time on the edges (zero-cost builtins)."""
    for index in (2, 0):
        total = sum(edge[index] for edge in callers.values())
        if total > 0:
            return {
                caller: edge[index] / total
                for caller, edge in callers.items()
                if edge[index] > 0
            }
    return {}


def fold(stats: Dict[FuncKey, Any], package_root: str) -> Dict[str, Any]:
    """Per-layer self time, calls and boundary calls from ``pstats`` data.

    ``stats`` is ``pstats.Stats(profile).stats``: ``func -> (primitive
    calls, total calls, self time, cumulative time, callers)`` with
    ``callers`` mapping each caller to ``(total calls, primitive calls,
    self time, cumulative time)`` restricted to that edge.
    """
    layer: Dict[FuncKey, Optional[str]] = {
        func: layer_of(module_of(func[0], package_root)) for func in stats
    }
    # Share of each transparent (non-layer) function's time owed to each
    # layer, propagated along caller edges until it stops changing;
    # stdlib call chains are a handful of frames deep.
    weights = {func: _edge_weights(stats[func][4]) for func in stats if layer[func] is None}
    shares: Dict[FuncKey, Dict[str, float]] = {}
    for _ in range(16):
        delta = 0.0
        for func, edges in weights.items():
            new: Dict[str, float] = {}
            for caller, fraction in edges.items():
                owner = layer.get(caller)
                parts = (
                    {owner: 1.0}
                    if owner is not None
                    else shares.get(caller, {UNATTRIBUTED: 1.0})
                )
                for name, part in parts.items():
                    new[name] = new.get(name, 0.0) + fraction * part
            if not new:
                new = {UNATTRIBUTED: 1.0}
            old = shares.get(func, {})
            delta = max(
                [delta] + [abs(new.get(k, 0.0) - old.get(k, 0.0)) for k in set(new) | set(old)]
            )
            shares[func] = new
        if delta < 1e-9:
            break

    self_s = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    calls_in = {name: 0 for name in LAYERS}
    unattributed = 0.0
    total_s = 0.0
    for func, (_prim, total_calls, own, _cum, callers) in stats.items():
        total_s += own
        owner = layer[func]
        if owner is not None:
            self_s[owner] += own
            calls[owner] += total_calls
            calls_in[owner] += sum(
                edge[0] for caller, edge in callers.items() if layer.get(caller) != owner
            )
            continue
        for name, part in shares.get(func, {UNATTRIBUTED: 1.0}).items():
            if name == UNATTRIBUTED:
                unattributed += own * part
            else:
                self_s[name] += own * part
    attributed = sum(self_s.values())
    return {
        "total_s": total_s,
        "unattributed_frac": unattributed / total_s if total_s > 0 else 0.0,
        "layers": {
            name: {
                "self_s": self_s[name],
                "self_frac": self_s[name] / attributed if attributed > 0 else 0.0,
                "calls": calls[name],
                "calls_in": calls_in[name],
            }
            for name in LAYERS
        },
    }


def function_table(
    stats: Dict[FuncKey, Any], package_root: str, limit: int = 80
) -> List[Dict[str, Any]]:
    """The raw per-function rows, hottest self time first."""
    rows = []
    for (filename, line, name), (prim, total_calls, own, cum, _callers) in stats.items():
        module = module_of(filename, package_root)
        rows.append(
            {
                "module": module if module is not None else filename,
                "function": name,
                "line": line,
                "layer": layer_of(module),
                "calls": total_calls,
                "primitive_calls": prim,
                "self_s": own,
                "cum_s": cum,
            }
        )
    rows.sort(key=lambda row: -row["self_s"])
    return rows[:limit]


def row_of(stats: Dict[FuncKey, Any], code: Any) -> Optional[Any]:
    """The profile row ``(primitive calls, total calls, self, cumulative,
    callers)`` of the function owning ``code``; None if never called."""
    for (filename, line, _name), row in stats.items():
        if line == code.co_firstlineno and filename == code.co_filename:
            return row
    return None


def calls_into_file(stats: Dict[FuncKey, Any], suffix: str) -> int:
    """Calls entering any function of the file ending in ``suffix`` from
    a function outside that file (the boundary count into a stdlib
    module such as ``ipaddress.py``)."""
    total = 0
    for (filename, _line, _name), row in stats.items():
        if not filename.endswith(suffix):
            continue
        total += sum(
            edge[0] for caller, edge in row[4].items() if not caller[0].endswith(suffix)
        )
    return total
