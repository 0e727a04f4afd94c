"""Column batches: the unit of work of the vectorized execution path.

A :class:`ColumnBatch` is a *view* over a :class:`~repro.engine.storage.
ColumnStore`'s buffers — it never copies column data.  It carries the
shared column buffers plus a **selection vector**: the row positions
that are still alive after the scan and any filters.  Operators narrow
the selection (``FilterOp``), gather values from it (projection,
aggregation) or adapt it back to row dicts at the boundary to the
row-at-a-time world (joins, sorts, DISTINCT, the SQL session).

A :class:`RowBatch` is the same unit over a
:class:`~repro.engine.storage.RowStore`: its positions index a list of
the stored row dicts, which the generated loops read in place.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Any, Iterator, Mapping, Optional, Sequence

from .types import NULL

#: Rows per batch.  Large enough that per-batch overhead (compiling is
#: per-execution, this is just loop bookkeeping) vanishes, small enough
#: that TOP-style early termination does not compute far past its limit.
BATCH_ROWS = 4096


class BatchRowView:
    """A dict-like view of one batch row, addressed by batch column key.

    ``view[key]`` reads the current row position from the column
    buffers (honouring the null masks), which lets the row-mode
    functions of the vector compiler's fallback run over a batch: their
    ``r['key']`` reads call ``__getitem__`` exactly as they would on a
    row dict.
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
    """One batch of a columnar scan: shared buffers + a selection vector.

    ``base`` is the row id of the batch's position 0 (its scan unit's
    first row), so ``base + position`` is a selected row's row id.
    """

    __slots__ = ("columns", "masks", "selection", "binding_name", "base")

    def __init__(self, columns: Mapping[str, Sequence],
                 masks: Mapping[str, bytearray],
                 selection: list[int], binding_name: str, base: int = 0):
        self.columns = columns
        self.masks = masks
        self.selection = selection
        self.binding_name = binding_name
        self.base = base

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

    def take(self, column: str, positions: Sequence[int]) -> list:
        """Column ``column`` at ``positions``, NULL where masked."""
        return column_values(self.columns[column], self.masks.get(column),
                             positions, 0)


class GatheredBatch(ColumnBatch):
    """A batch of rows gathered by row id — an index seek's — whose
    ``columns`` (:meth:`repro.engine.storage.ColumnStore.gather`) read a
    column at its gathered positions on first access.  Its row adapter
    reads a column at a time when the gather reads whole units (many
    rows), else row by row, as a row-at-a-time fetch does, so ``select
    *`` of one row costs one pass over the columns, not one gather per
    column."""

    __slots__ = ()

    @property
    def row_ids(self) -> list[int]:
        """The row id of each position."""
        return self.columns.row_ids

    def rows(self, column_order: Sequence[str]) -> Iterator[dict[str, Any]]:
        columns = self.columns
        if columns.whole_units:
            return super().rows(column_order)
        row = columns.row
        return (row(position, column_order) for position in self.selection)


class DictColumns(dict):
    """The columns of a list of stored row dicts, each transposed on
    first read and then kept (a row store's values are NULL in place,
    so no column has a mask)."""

    __slots__ = ("dicts",)

    def __init__(self, dicts: list[dict[str, Any]]):
        super().__init__()
        self.dicts = dicts

    def __missing__(self, name: str) -> list:
        values = self[name] = list(map(itemgetter(name), self.dicts))
        return values

    def batch(self, binding_name: str) -> "RowBatch":
        """Every row as one batch."""
        return RowBatch(self.dicts, list(range(len(self.dicts))), binding_name)


class RowBatch(ColumnBatch):
    """A batch of a row store: positions index :attr:`dicts`, the stored
    row dicts themselves (live rows only, so a position is not a row id
    and ``base`` means nothing).

    No value is copied to build one.  The vector codegen reads a row
    store's one-binding batches dict by dict (``_r['ra']``), so a
    predicate touches only the entries its short-circuit reaches; joins
    read a column at the selected positions alone (:meth:`take`), and
    the row adapter hands out the stored dicts, as the row path does.
    """

    __slots__ = ()

    def __init__(self, dicts: list[dict[str, Any]], selection: list[int],
                 binding_name: str):
        super().__init__(DictColumns(dicts), {}, selection, binding_name)

    @property
    def dicts(self) -> list[dict[str, Any]]:
        return self.columns.dicts

    def rows(self, column_order: Sequence[str]) -> Iterator[dict[str, Any]]:
        """The selected stored dicts (each holds every column)."""
        return map(self.dicts.__getitem__, self.selection)

    def take(self, column: str, positions: Sequence[int]) -> list:
        dicts = self.dicts
        return [dicts[position][column] for position in positions]


class JoinBatch(ColumnBatch):
    """A batch join's output: position ``i`` joins position
    ``probe_positions[i]`` of the probe-side batch ``probe`` with a row
    of the other side, one probe position's matches adjacent and in
    order."""

    __slots__ = ("probe", "probe_positions")

    def __init__(self, columns: Mapping[str, Sequence], selection: list[int],
                 binding_name: str, probe: ColumnBatch,
                 probe_positions: list[int]):
        super().__init__(columns, {}, selection, binding_name)
        self.probe = probe
        self.probe_positions = probe_positions


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
