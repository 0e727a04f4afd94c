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
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence, TYPE_CHECKING

from .errors import PrimaryKeyViolation, SchemaError
from .types import NULL, DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import Table

#: Key column types whose values a plain number ranks against in the
#: index exactly as SQL compares them.
NUMERIC_KEY_TYPES = (DataType.INTEGER, DataType.BIGINT, DataType.FLOAT)


class _MinSentinel:
    """Pads short range bounds so they sort before every real value."""


class _MaxSentinel:
    """Pads short range bounds so they sort after every real value."""


_MIN = _MinSentinel()
_MAX = _MaxSentinel()


def _pack_key_column(values: list) -> Any:
    """Pack one key column for a checkpoint: an ``array`` when every
    value is a plain int64/float (bools and NULL force the list form —
    an array would come back as a different type)."""
    if all(type(value) is int and -(1 << 63) <= value < (1 << 63)
           for value in values):
        return array("q", values)
    if all(type(value) is float for value in values):
        return array("d", values)
    return values


def _has_nan(values: Iterable[Any]) -> bool:
    """True when some value is NaN — a key no order can place."""
    for value in values:
        if value != value:
            return True
    return False


class _KeyWrapper:
    """Total ordering over heterogeneous, possibly-NULL key tuples.

    NULLs sort first (as in SQL Server index ordering); values of
    different types are ordered by a type rank to keep the order total;
    the two sentinels bracket every real value for open-ended ranges.
    """

    __slots__ = ("_ranked", "key")

    def __init__(self, key: tuple):
        self.key = key
        ranked = []
        for part in key:
            if isinstance(part, _MinSentinel):
                ranked.append((-1, 0, ""))
            elif isinstance(part, _MaxSentinel):
                ranked.append((9, 0, ""))
            elif part is NULL:
                ranked.append((0, 0, ""))
            elif isinstance(part, bool):
                ranked.append((1, int(part), ""))
            elif isinstance(part, (int, float)):
                ranked.append((1, part, ""))
            elif isinstance(part, str):
                ranked.append((2, 0, part.lower()))
            else:
                ranked.append((3, 0, str(part)))
        self._ranked = tuple(ranked)

    def __lt__(self, other: "_KeyWrapper") -> bool:
        return self._ranked < other._ranked

    def __le__(self, other: "_KeyWrapper") -> bool:
        return self._ranked <= other._ranked

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _KeyWrapper) and self._ranked == other._ranked

    def __hash__(self) -> int:
        return hash(self._ranked)


@dataclass
class IndexStatistics:
    """Book-keeping counters exposed to the planner and the benchmarks."""

    seeks: int = 0
    range_scans: int = 0
    full_scans: int = 0
    entries_read: int = 0

    def reset(self) -> None:
        self.seeks = 0
        self.range_scans = 0
        self.full_scans = 0
        self.entries_read = 0


class BTreeIndex:
    """A composite-key ordered index over a table.

    The implementation keeps a sorted array of ``(key, row_id)`` pairs
    (equivalent to the leaf level of a B-tree) and uses binary search
    for seeks.  Insertion into the sorted array is O(n) in the worst
    case, but the loader performs bulk inserts with ``defer_sort=True``
    followed by a single :meth:`rebuild`, the way warehouse loads build
    indices in practice.
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
        self._entries: list[tuple[_KeyWrapper, int]] = []
        self._sorted = True
        # Entries with a NaN key part.  NaN compares false with
        # everything, so one such entry can leave the array out of key
        # order, and then no bisection over it is sound.
        self._nan_entries = 0

    # -- construction and maintenance ------------------------------------

    def key_for_row(self, row: dict[str, Any]) -> tuple:
        return tuple(row.get(column, NULL) for column in self.columns)

    def insert(self, row_id: int, row: dict[str, Any], *, defer_sort: bool = False) -> None:
        """Add an entry for ``row``; ``defer_sort`` supports bulk loads."""
        wrapper = _KeyWrapper(self.key_for_row(row))
        if defer_sort or not self._sorted:
            self._entries.append((wrapper, row_id))
            self._sorted = False
        else:
            if self.unique:
                position = bisect.bisect_left(self._entries, (wrapper, -1))
                if position < len(self._entries) and self._entries[position][0] == wrapper:
                    raise PrimaryKeyViolation(
                        f"duplicate key {wrapper.key!r} in unique index {self.name!r}",
                        table=self.table.name, constraint=self.name)
            bisect.insort(self._entries, (wrapper, row_id))
        if _has_nan(wrapper.key):
            self._nan_entries += 1

    def remove(self, row_id: int, row: dict[str, Any]) -> None:
        wrapper = _KeyWrapper(self.key_for_row(row))
        self._ensure_sorted()
        if self._nan_entries:
            # Out of key order: find the row's entry by id instead.
            for position, (entry_key, entry_row_id) in enumerate(self._entries):
                if entry_row_id == row_id:
                    del self._entries[position]
                    if _has_nan(entry_key.key):
                        self._nan_entries -= 1
                        if not self._nan_entries:
                            # The NaN may have misplaced other entries.
                            self._entries.sort()
                    return
            return
        position = bisect.bisect_left(self._entries, (wrapper, -1))
        while position < len(self._entries) and self._entries[position][0] == wrapper:
            if self._entries[position][1] == row_id:
                del self._entries[position]
                return
            position += 1

    def entries_state(self) -> dict:
        """The sorted leaf level in columnar form, for checkpointing.

        One vector per key column plus a row-id vector: homogeneous
        int64/float columns pack as ``array`` (decoded in one
        ``frombytes``), anything else falls back to a value list.
        """
        self._ensure_sorted()
        columns = []
        for position in range(len(self.columns)):
            values = [wrapper.key[position]
                      for wrapper, _row_id in self._entries]
            columns.append(_pack_key_column(values))
        return {
            "count": len(self._entries),
            "columns": columns,
            "row_ids": array("q", (row_id for _wrapper, row_id
                                   in self._entries)),
        }

    def restore_entries(self, state: dict) -> None:
        """Adopt a checkpointed leaf level verbatim.

        The entries were sorted (and uniqueness-checked) when the
        checkpoint was taken, so restoring skips both the sort and the
        per-row key extraction a rebuild would pay.
        """
        columns = state["columns"]
        row_ids = state["row_ids"]
        self._entries = [
            (_KeyWrapper(tuple(column[position] for column in columns)),
             row_ids[position])
            for position in range(state["count"])]
        self._sorted = True
        self._nan_entries = (
            sum(1 for wrapper, _row_id in self._entries if _has_nan(wrapper.key))
            if any(_has_nan(column) for column in columns) else 0)

    def rebuild(self) -> None:
        """Re-sort after deferred bulk inserts and re-check uniqueness."""
        self._entries.sort(key=lambda entry: (entry[0], entry[1]))
        self._sorted = True
        if self.unique:
            previous: Optional[_KeyWrapper] = None
            for wrapper, _row_id in self._entries:
                if previous is not None and wrapper == previous:
                    raise PrimaryKeyViolation(
                        f"duplicate key {wrapper.key!r} in unique index {self.name!r}",
                        table=self.table.name, constraint=self.name)
                previous = wrapper

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

    def seek(self, key: Sequence[Any]) -> Iterator[int]:
        """Row ids whose leading index columns equal ``key`` (a prefix seek)."""
        self._ensure_sorted()
        self.statistics.seeks += 1
        prefix = tuple(key)
        padding = len(self.columns) - len(prefix)
        low = _KeyWrapper(prefix + (_MIN,) * padding)
        high = _KeyWrapper(prefix + (_MAX,) * padding)
        start = bisect.bisect_left(self._entries, (low, -1))
        for position in range(start, len(self._entries)):
            wrapper, row_id = self._entries[position]
            if high < wrapper:
                break
            self.statistics.entries_read += 1
            yield row_id

    def range(self, low: Optional[Sequence[Any]] = None,
              high: Optional[Sequence[Any]] = None) -> Iterator[int]:
        """Row ids whose key lies in [low, high] on the leading columns (inclusive)."""
        self._ensure_sorted()
        self.statistics.range_scans += 1
        if low is None:
            start = 0
        else:
            padding = len(self.columns) - len(tuple(low))
            low_key = _KeyWrapper(tuple(low) + (_MIN,) * padding)
            start = bisect.bisect_left(self._entries, (low_key, -1))
        if high is None:
            end = len(self._entries)
        else:
            padding = len(self.columns) - len(tuple(high))
            high_key = _KeyWrapper(tuple(high) + (_MAX,) * padding)
            end = bisect.bisect_right(self._entries, (high_key, 2 ** 63))
        for position in range(start, end):
            self.statistics.entries_read += 1
            yield self._entries[position][1]

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
        if self._nan_entries:
            return self.scan()
        for bound in (low, high):
            for column, value in zip(self.columns, bound or ()):
                if not (isinstance(value, (int, float)) and value == value
                        and self.table.column(column).dtype in NUMERIC_KEY_TYPES):
                    return self.scan()
        return self.range(low, high)

    def scan(self) -> Iterator[int]:
        """All row ids in key order (an ordered index scan)."""
        self._ensure_sorted()
        self.statistics.full_scans += 1
        for _wrapper, row_id in self._entries:
            self.statistics.entries_read += 1
            yield row_id

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
