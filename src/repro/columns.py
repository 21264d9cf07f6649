"""Column-store building blocks for per-packet and per-hop logs.

A run records one row per packet at the authoritatives
(:class:`repro.servers.querylog.QueryLog`) and one per lifecycle hop when
traced (:class:`repro.obs.records.SpanLog`). Both keep their rows as
typed arrays — ``array('d')`` times plus unsigned-int id columns that
index small tables of the distinct values seen — instead of one object
per row: a few contiguous buffers to hold, pickle and scan, and the
aggregations count ids instead of touching rows. Row objects exist only
on demand, through :class:`RowSequence`.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Any, Dict, Hashable, Iterable, Iterator, List

#: Next wider unsigned typecode; beyond 64 bits there is none.
_WIDER = {"B": "H", "H": "I", "I": "Q"}


def widened(column: array, value: int) -> array:
    """``column`` retyped to the narrowest unsigned width holding ``value``.

    Raises :class:`OverflowError` for values no column can hold
    (negative, or 2**64 and above).
    """
    code, itemsize = column.typecode, column.itemsize
    # A negative value never shifts down to zero, so it runs off the
    # end of the typecodes like one that is too large.
    while value >> (8 * itemsize):
        if code not in _WIDER:
            raise OverflowError(f"unsigned column cannot hold {value}")
        code = _WIDER[code]
        itemsize = array(code).itemsize
    return column if code == column.typecode else array(code, column)


class IdColumn:
    """One interned column: per-row ids into a table of distinct values.

    ``values[i]`` is the ``i``-th distinct value in first-seen order,
    ``index`` its inverse, ``ids`` the per-row column. ``ids`` starts one
    byte wide and is widened when the table outgrows it, which happens
    in :meth:`add` — the slow path taken once per *distinct* value — so
    the per-row path is a dict lookup and an array append::

        try:
            column.ids.append(column.index[value])
        except KeyError:
            column.add(value)

    Pickles as the array and the table; the index is rebuilt on load.
    """

    __slots__ = ("ids", "values", "index")

    def __init__(self) -> None:
        self.ids = array("B")
        self.values: List[Hashable] = []
        self.index: Dict[Hashable, int] = {}

    def add(self, value: Hashable) -> int:
        """Append a row holding ``value``, which the table lacks; its new id."""
        new_id = len(self.values)
        self.values.append(value)
        self.index[value] = new_id
        self.ids = widened(self.ids, new_id)
        self.ids.append(new_id)
        return new_id

    def __getstate__(self):
        return self.ids, self.values

    def __setstate__(self, state) -> None:
        self.ids, self.values = state
        self.index = {value: value_id for value_id, value in enumerate(self.values)}


class RowSequence(Sequence):
    """Read-only sequence behaviour for a store that builds rows on demand.

    Subclasses provide ``__len__`` and ``_row(index)`` for an in-range
    non-negative index. Iteration, indexing, negative indexes, slices (a
    list of rows), membership and equality with any other sequence of
    equal rows follow. Rows are value objects made per access, never
    cached: iterate a column instead wherever the row count matters.
    """

    __slots__ = ()

    def _row(self, index: int) -> Any:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:
        return map(self._row, range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("row index out of range")
        return self._row(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RowSequence, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]


def round_indexes(times: Iterable[float], round_seconds: float) -> Iterable[int]:
    """Per-row probing-round index, ``int(time // round_seconds)``, lazily."""
    return map(int, map(float(round_seconds).__rfloordiv__, times))
