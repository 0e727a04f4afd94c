"""B-tree style indices.

The paper's design replaces ObjectivityDB "tag tables" with ordinary
B-tree indices: an index on columns (A, B, C) acts as an automatically
maintained vertical slice of the table that the optimizer uses whenever
a query is *covered* by those columns, and it also supports range
seeks on a prefix of the key (section 9.1.3).  This module provides a
sorted-array index with the same observable behaviour: composite keys,
optional uniqueness, prefix range scans, covered-column accounting and
per-entry byte widths used by the size accounting of Table 1 ("indices
approximately double the space").

The leaf level is one sorted list of ``(rank, row_id, key)`` tuples.
:func:`key_rank` maps a key to a flat tuple of ``(type rank, value)``
segments whose plain tuple order is the index order, so every bisect,
sort and merge compares in C, never through a Python method.
Writes cost what they change, not what the index holds: a single insert
bisects into place; a bulk is validated as a whole and then merged (a
small batch bisected in, a large one merged by one sort of the two
sorted runs); a remove bisects to its exact ``(rank, row_id)``
position, so a long run of equal keys — thousands of PhotoObj rows with
no spectrum share ``specObjID = 0`` — is never walked.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import (Any, Iterable, Iterator, Mapping, Optional, Sequence,
                    TYPE_CHECKING)

from .errors import PrimaryKeyViolation, SchemaError
from .types import NULL, DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import Table

#: Key column types whose values a plain number ranks against in the
#: index exactly as SQL compares them.
NUMERIC_KEY_TYPES = (DataType.INTEGER, DataType.BIGINT, DataType.FLOAT)


#: Above every row id: ``(rank, _ROW_ID_LIMIT)`` sorts after each entry of ``rank``.
_ROW_ID_LIMIT = 2 ** 63

#: Entries a seek walks before it bisects for the end of its run: a
#: walk step costs one comparison, a bisection about log2(n) of them.
_SEEK_WALK = 8

#: About how many list slots a memmove shifts in the time of one entry
#: comparison.  :meth:`BTreeIndex.merge` prices a bisected insert into n
#: entries at log2(n) comparisons plus n / this for the tail move, and
#: one merge of the two sorted runs at n comparisons.
_MOVES_PER_COMPARISON = 512


_ENTRY_ROW_ID = itemgetter(1)
_ENTRY_KEY = itemgetter(2)


def _pack_key_column(values: list) -> Any:
    """Pack one key column for a checkpoint: an ``array`` when every
    value is a plain int64/float (bools, NULL and ints beyond 64 bits
    force the list form — an array would come back as a different type
    or not hold the value)."""
    types = set(map(type, values))
    if types <= {int}:
        try:
            return array("q", values)
        except OverflowError:
            pass
    elif types == {float}:
        return array("d", values)
    return values


def _has_nan(values: Iterable[Any]) -> bool:
    """True when some value is NaN — a key no order can place."""
    for value in values:
        if value != value:
            return True
    return False


_NULL_RANK = (0,)
#: Segments that pad a short range bound or seek prefix to the key's
#: length: they rank before / after every real value.
_MIN_RANK = (-1,)
_MAX_RANK = (9,)


def _rank_part(part: Any) -> tuple:
    """One key part's rank segment: its type rank, then what orders it
    within that type.

    NULLs sort first (as in SQL Server index ordering); numbers (bools
    as 0/1) compare by value, so ``1`` and ``1.0`` rank equal; strings
    compare case-insensitively; anything else by its ``str``.  The
    exact-type tests up front are shortcuts for the common cases and
    give the same segment as the ``isinstance`` chain below them.
    """
    kind = type(part)
    if kind is int or kind is float:
        return (1, part)
    if part is NULL:
        return _NULL_RANK
    if kind is str:
        return (2, part.lower())
    if isinstance(part, bool):
        return (1, int(part))
    if isinstance(part, (int, float)):
        return (1, part)
    if isinstance(part, str):
        return (2, part.lower())
    return (3, str(part))


def key_rank(key: Sequence[Any]) -> tuple:
    """The rank tuple that orders ``key`` in an index: its parts'
    segments, concatenated.

    A total order over heterogeneous, possibly-NULL key tuples that
    plain tuple comparison (in C) evaluates.  Two segments of the same
    type rank have the same length, so comparing the flat tuples is
    comparing the keys part by part.
    """
    if len(key) == 1:
        return _rank_part(key[0])
    rank: tuple = ()
    for part in key:
        rank += _rank_part(part)
    return rank


@dataclass
class IndexStatistics:
    """Book-keeping counters exposed to the planner and the benchmarks."""

    seeks: int = 0
    range_scans: int = 0
    full_scans: int = 0

    def reset(self) -> None:
        self.seeks = 0
        self.range_scans = 0
        self.full_scans = 0


class BTreeIndex:
    """A composite-key ordered index over a table.

    The leaf level is one sorted list of ``(rank, row_id, key)`` tuples:
    ``rank`` is :func:`key_rank` of the key, and the row id breaks ties,
    so every entry is distinct and every bisect, sort and merge runs on
    plain tuple comparison in C (``key`` itself is never compared; it is
    kept for checkpoints and error messages).  Seeks and range scans
    bisect on the rank.  A single insert bisects into place; a batch
    (:meth:`batch_entries` then :meth:`merge`) is validated as a whole,
    then either bisected in entry by entry (a small batch) or appended
    and merged by one sort of the two sorted runs (a large one).  A
    remove bisects straight to its ``(rank, row_id)`` position, however
    long the run of equal keys around it.  Bulk loads may still append
    with ``defer_sort=True`` and :meth:`rebuild` once.
    """

    def __init__(self, name: str, table: "Table", columns: Sequence[str], *,
                 unique: bool = False, included_columns: Sequence[str] = ()):
        if not columns:
            raise SchemaError(f"index {name!r} must have at least one key column")
        self.name = name
        self.table = table
        self.columns = [column.lower() for column in columns]
        self.included_columns = [column.lower() for column in included_columns]
        self.unique = unique
        self.statistics = IndexStatistics()
        self._entries: list[tuple[tuple, int, tuple]] = []
        self._sorted = True
        # Entries with a NaN key part.  NaN compares false with
        # everything, so one such entry can leave the array out of key
        # order, and then no bisection over it is sound.
        self._nan_entries = 0

    # -- construction and maintenance ------------------------------------

    def key_for_row(self, row: Mapping[str, Any]) -> tuple:
        return tuple([row.get(column, NULL) for column in self.columns])

    def _duplicate(self, key: tuple) -> PrimaryKeyViolation:
        return PrimaryKeyViolation(
            f"duplicate key {key!r} in unique index {self.name!r}",
            table=self.table.name, constraint=self.name)

    def insert(self, row_id: int, row: Mapping[str, Any], *,
               defer_sort: bool = False) -> None:
        """Add an entry for ``row``.  ``defer_sort`` (bulk loads) appends
        it unsorted and unchecked until :meth:`rebuild`."""
        if self._sorted and not defer_sort:
            self.merge(self.batch_entries([row], row_id))
            return
        key = self.key_for_row(row)
        self._entries.append((key_rank(key), row_id, key))
        self._sorted = False
        if _has_nan(key):
            self._nan_entries += 1

    def batch_entries(self, rows: Sequence[Mapping[str, Any]],
                      first_row_id: int) -> list[tuple[tuple, int, tuple]]:
        """The sorted entries of ``rows`` (row ids ``first_row_id`` on),
        for :meth:`merge`.  A unique index raises when a key repeats
        within the batch or is already indexed; nothing changes either
        way."""
        batch = []
        for row_id, row in enumerate(rows, first_row_id):
            key = self.key_for_row(row)
            batch.append((key_rank(key), row_id, key))
        batch.sort()
        if self.unique:
            self._ensure_sorted()
            entries = self._entries
            previous = None
            for rank, _row_id, key in batch:
                position = bisect_left(entries, (rank,))
                if rank == previous or (position < len(entries)
                                        and entries[position][0] == rank):
                    raise self._duplicate(key)
                previous = rank
        return batch

    def merge(self, batch: list[tuple[tuple, int, tuple]]) -> None:
        """Add the (sorted) entries :meth:`batch_entries` returned.

        A batch small next to the index is bisected in, each search
        starting where the last entry went; otherwise it is appended
        and the list sorted once, which Timsort does as one merge of
        its two sorted runs.  Either way the cost stays within about
        one linear pass.
        """
        self._ensure_sorted()
        entries = self._entries
        size = len(entries)
        if len(batch) * (size.bit_length() + size // _MOVES_PER_COMPARISON) < size:
            position = 0
            for entry in batch:
                position = bisect_left(entries, entry, position)
                entries.insert(position, entry)
                position += 1
        else:
            entries.extend(batch)
            entries.sort()
        for _rank, _row_id, key in batch:
            if _has_nan(key):
                self._nan_entries += 1

    def remove(self, row_id: int, row: Mapping[str, Any]) -> None:
        self._ensure_sorted()
        entries = self._entries
        if self._nan_entries:
            # Out of key order: find the row's entry by id instead.
            for position, (_rank, entry_row_id, key) in enumerate(entries):
                if entry_row_id == row_id:
                    del entries[position]
                    if _has_nan(key):
                        self._nan_entries -= 1
                        if not self._nan_entries:
                            # The NaN may have misplaced other entries.
                            entries.sort()
                    return
            return
        position = bisect_left(entries, (key_rank(self.key_for_row(row)), row_id))
        if position < len(entries) and entries[position][1] == row_id:
            del entries[position]

    def entries_state(self) -> dict:
        """The sorted leaf level in columnar form, for checkpointing.

        One vector per key column plus a row-id vector: homogeneous
        int64/float columns pack as ``array`` (decoded in one
        ``frombytes``), anything else falls back to a value list.
        """
        self._ensure_sorted()
        entries = self._entries
        keys = list(map(_ENTRY_KEY, entries))
        return {
            "count": len(entries),
            "columns": [_pack_key_column(list(map(itemgetter(position), keys)))
                        for position in range(len(self.columns))],
            "row_ids": array("q", list(map(_ENTRY_ROW_ID, entries))),
        }

    def restore_entries(self, state: dict) -> None:
        """Adopt a checkpointed leaf level verbatim.

        The entries were sorted (and uniqueness-checked) when the
        checkpoint was taken, so restoring skips both the sort and the
        per-row key extraction a rebuild would pay; a packed numeric
        single-column key ranks without a per-value type test.
        """
        columns = state["columns"]
        keys = list(zip(*columns))
        if len(columns) == 1 and isinstance(columns[0], array):
            ranks = [(1, value) for value in columns[0]]
        else:
            ranks = [key_rank(key) for key in keys]
        self._entries = list(zip(ranks, state["row_ids"], keys))
        self._sorted = True
        self._nan_entries = (
            sum(1 for entry in self._entries if _has_nan(entry[2]))
            if any(_has_nan(column) for column in columns) else 0)

    def rebuild(self) -> None:
        """Re-sort after deferred bulk inserts and re-check uniqueness."""
        entries = self._entries
        entries.sort()
        self._sorted = True
        if self.unique:
            previous = None
            for rank, _row_id, key in entries:
                if rank == previous:
                    raise self._duplicate(key)
                previous = rank

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self.rebuild()

    def clear(self) -> None:
        self._entries.clear()
        self._sorted = True
        self._nan_entries = 0

    # -- lookups ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def contains_key(self, key: Sequence[Any]) -> bool:
        return next(self.seek(tuple(key)), None) is not None

    def _bound_rank(self, prefix: tuple, pad: tuple) -> tuple:
        """The rank of ``prefix`` padded to the key's length with the
        ``pad`` segment (:data:`_MIN_RANK` or :data:`_MAX_RANK`)."""
        return key_rank(prefix) + pad * (len(self.columns) - len(prefix))

    def seek(self, key: Sequence[Any]) -> Iterator[int]:
        """Row ids whose leading index columns equal ``key`` (a prefix seek).

        As in :meth:`range`, the walk is a slice of the leaf level taken
        at the call, its row ids read in one C pass.  The slice ends
        after a walk of a short run (a unique key's) or by bisection in
        a long one.
        """
        self._ensure_sorted()
        self.statistics.seeks += 1
        prefix = tuple(key)
        if len(prefix) < len(self.columns):
            low = self._bound_rank(prefix, _MIN_RANK)
            high = self._bound_rank(prefix, _MAX_RANK)
        else:
            low = high = key_rank(prefix)
        entries = self._entries
        size = len(entries)
        start = end = bisect_left(entries, (low,))
        while end < size and not high < entries[end][0]:
            end += 1
            # A NaN key leaves entries out of key order: walk them all.
            if end - start == _SEEK_WALK and not self._nan_entries:
                end = bisect_right(entries, (high, _ROW_ID_LIMIT), end)
                break
        return map(_ENTRY_ROW_ID, entries[start:end])

    def range(self, low: Optional[Sequence[Any]] = None,
              high: Optional[Sequence[Any]] = None) -> Iterator[int]:
        """Row ids whose key lies in [low, high] on the leading columns (inclusive)."""
        self._ensure_sorted()
        self.statistics.range_scans += 1
        entries = self._entries
        start = (0 if low is None else
                 bisect_left(entries, (self._bound_rank(tuple(low), _MIN_RANK),)))
        end = (len(entries) if high is None else
               bisect_right(entries, (self._bound_rank(tuple(high), _MAX_RANK),
                                      _ROW_ID_LIMIT)))
        return map(_ENTRY_ROW_ID, entries[start:end])

    def range_or_scan(self, low: Optional[Sequence[Any]],
                      high: Optional[Sequence[Any]]) -> Iterator[int]:
        """:meth:`range` when every bound ranks like its key column, else :meth:`scan`.

        A number (not NaN) against an integer or float key column sits
        in the index where SQL comparison puts it, so every entry
        outside ``[low, high]`` fails that comparison.  Any other bound
        — NULL, NaN, a string, a number against a text key — promises
        nothing, and neither does an index holding a NaN key (its
        entries need not be in key order), so the whole index is read
        and the caller's predicate matches, or raises, exactly as over
        a full scan.
        """
        if self.ranks(low, high):
            return self.range(low, high)
        return self.scan()

    def ranks(self, low: Optional[Sequence[Any]],
              high: Optional[Sequence[Any]]) -> bool:
        """Whether :meth:`range_or_scan` walks ``[low, high]`` rather
        than the whole index."""
        if self._nan_entries:
            return False
        for bound in (low, high):
            for column, value in zip(self.columns, bound or ()):
                if not (isinstance(value, (int, float)) and value == value
                        and self.table.column(column).dtype in NUMERIC_KEY_TYPES):
                    return False
        return True

    def scan(self) -> Iterator[int]:
        """All row ids in key order (an ordered index scan)."""
        self._ensure_sorted()
        self.statistics.full_scans += 1
        return map(_ENTRY_ROW_ID, self._entries)

    # -- planner metadata --------------------------------------------------

    def covered_columns(self) -> set[str]:
        """Columns available directly from the index (key + included + PK)."""
        covered = set(self.columns) | set(self.included_columns)
        covered.update(column.lower() for column in self.table.primary_key_columns())
        return covered

    def covers(self, needed_columns: Iterable[str]) -> bool:
        """True when every needed column can be read from the index alone."""
        covered = self.covered_columns()
        return all(column.lower() in covered for column in needed_columns)

    def entry_byte_width(self) -> int:
        """Approximate bytes per index entry, used for space accounting."""
        width = 8  # row pointer
        for column in self.columns + self.included_columns:
            column_def = self.table.column(column)
            if column_def is not None:
                width += column_def.byte_width
        return width

    def byte_size(self) -> int:
        return self.entry_byte_width() * len(self._entries)

    def describe(self) -> dict[str, Any]:
        """Metadata surfaced by the schema browser (SkyServerQA object browser)."""
        return {
            "name": self.name,
            "table": self.table.name,
            "columns": list(self.columns),
            "included_columns": list(self.included_columns),
            "unique": self.unique,
            "entries": len(self._entries),
            "bytes": self.byte_size(),
        }
