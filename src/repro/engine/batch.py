"""Column batches: the unit of work of the vectorized execution path.

A :class:`ColumnBatch` is a *view* over a :class:`~repro.engine.storage.
ColumnStore`'s buffers — it never copies column data.  It carries the
shared column buffers plus a **selection vector**: the row positions
that are still alive after the scan and any filters.  Operators narrow
the selection (``FilterOp``), gather values from it (projection,
aggregation) or adapt it back to row dicts at the boundary to the
row-at-a-time world (joins, sorts, DISTINCT, the SQL session).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator, Mapping, Optional, Sequence

from .types import NULL

#: Rows per batch.  Large enough that per-batch overhead (compiling is
#: per-execution, this is just loop bookkeeping) vanishes, small enough
#: that TOP-style early termination does not compute far past its limit.
BATCH_ROWS = 4096


def morsel_ranges(total: int, size: int = BATCH_ROWS) -> list[tuple[int, int]]:
    """The ``[start, stop)`` row ranges a scan of ``total`` slots splits into.

    Morsels are fixed-size row-range slices of the column buffers — the
    unit the parallel scheduler hands to workers.  The serial batch loop
    walks the identical ranges, which is what makes parallel execution's
    ordered gather reproduce the serial batch stream exactly.

    Segmented column stores no longer call this for scans — their
    morsels are :meth:`ColumnStore.scan_units` (one per sealed
    segment, ``SEGMENT_ROWS == BATCH_ROWS``, plus the tail), which
    tile row ids exactly like these ranges do.  It remains the tiling
    for row stores and non-scan consumers.
    """
    return [(start, min(start + size, total)) for start in range(0, total, size)]


class BatchRowView:
    """A dict-like view of one batch row, addressed by column name.

    ``view[name]`` reads the current row position from the column
    buffers (honouring the null masks), which lets the row-mode
    functions of :func:`repro.engine.compile.compile_row_expression` run
    unchanged over columnar data: their ``r['key']`` reads call
    ``__getitem__`` exactly as they would on a row dict.
    """

    __slots__ = ("_columns", "_masks", "index")

    def __init__(self, columns: Mapping[str, Sequence],
                 masks: Mapping[str, bytearray]):
        self._columns = columns
        self._masks = masks
        self.index = 0

    def __getitem__(self, key: str) -> Any:
        mask = self._masks.get(key)
        if mask is not None and mask[self.index]:
            return NULL
        return self._columns[key][self.index]


class ColumnBatch:
    """One batch of a columnar scan: shared buffers + a selection vector."""

    __slots__ = ("columns", "masks", "selection", "binding_name")

    def __init__(self, columns: Mapping[str, Sequence],
                 masks: Mapping[str, bytearray],
                 selection: list[int], binding_name: str):
        self.columns = columns
        self.masks = masks
        self.selection = selection
        self.binding_name = binding_name

    def __len__(self) -> int:
        return len(self.selection)

    def row_view(self) -> BatchRowView:
        return BatchRowView(self.columns, self.masks)

    def rows(self, column_order: Sequence[str]) -> Iterator[dict[str, Any]]:
        """Row-dict adapter: the selected rows as fresh dicts keyed in
        ``column_order`` (boundary use), gathered a column at a time."""
        selection = self.selection
        if not column_order:
            return ({} for _position in selection)
        buffers = [column_values(self.columns[name], self.masks.get(name),
                                 selection, len(selection))
                   for name in column_order]
        return row_dicts(column_order, zip(*buffers))


def column_values(values: Sequence, mask: Optional[Sequence[int]],
                  local: Optional[list[int]], count: int) -> Sequence:
    """One column's values at positions ``local``, NULL where masked.

    ``local`` None means all of the first ``count`` positions (a tail
    buffer may have grown past a scan's snapshot).  The buffer is never
    written: masking builds a new list.
    """
    if local is None:
        if mask is None:
            return values[:count] if len(values) > count else values
        return [NULL if flag else value
                for value, flag in zip(values, mask[:count])]
    if mask is None:
        return [values[i] for i in local]
    return [NULL if mask[i] else values[i] for i in local]


def row_dicts(names: Sequence[str], values: Iterator[tuple]) -> Iterator[dict[str, Any]]:
    """One ``{name: value}`` dict per value tuple, keyed in ``names`` order."""
    return map(dict, map(zip, repeat(names), values))
