"""Table storage engines: row-oriented and column-oriented row stores.

The paper's workload (and the 20-query suite of §11) is dominated by
sequential scans over a few wide numeric tables, which is exactly the
shape column-oriented storage accelerates: per-column ``array.array``
buffers keep magnitudes, flags and htmIDs as unboxed machine values the
vectorized execution path (:mod:`repro.engine.batch`,
:func:`repro.engine.compile.compile_vector_predicate`) can sweep with
tight generated loops.

Two interchangeable implementations of :class:`TableStorage` exist:

* :class:`RowStore` — the original list-of-dicts layout.  It remains
  the default (and the write-optimised path): one dict per row, ``None``
  tombstones for deletes.
* :class:`ColumnStore` — sealed, compressed segments plus an append
  tail, with a global live (non-tombstone) mask.  The tail keeps one
  buffer per column (INTEGER/BIGINT use ``array('q')``, promoted to a
  plain list on 64-bit overflow; FLOAT uses ``array('d')``; everything
  else a plain Python list); every :data:`~repro.engine.segments.
  SEGMENT_ROWS` appends it is sealed into an encoded segment with a
  zone map (:mod:`repro.engine.segments`).

Both stores share the same row-id contract the indices rely on: ids are
assigned densely on append, survive deletes (tombstones), and are only
reassigned by :meth:`TableStorage.vacuum`, after which the owning
:class:`~repro.engine.table.Table` rebuilds every index.

Concurrency contract (see :mod:`repro.engine.concurrency`): compacting
operations (``vacuum``/``clear``) run only inside the owning table's
exclusive lock section.  Appends publish a row's *live* flag strictly
after every column value is stored, so a reader that iterates without a
lock can never observe a torn (half-appended) row — it either sees the
whole row or not at all.  :meth:`ColumnStore.iter_rows` and
:meth:`ColumnStore.iter_dicts` additionally snapshot the live mask up
front, so one scan observes one consistent set of row ids even while
appends land behind it.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .batch import column_values, row_dicts
from .errors import SchemaError
from .segments import SEGMENT_ROWS, _logical_bytes, build_segment
from .types import Column, DataType, NULL


class TableStorage:
    """Abstract row container behind a :class:`~repro.engine.table.Table`.

    Row ids are dense append positions; a delete leaves a tombstone (the
    id is never reused) and :meth:`vacuum` compacts the store,
    reassigning ids.  ``len(storage)`` counts *slots* (live rows plus
    tombstones); :attr:`live_count` counts live rows only.
    """

    #: ``"row"`` or ``"column"`` — the planner keys vectorization off this.
    kind = "abstract"

    def next_row_id(self) -> int:
        """The id the next :meth:`append` will assign."""
        raise NotImplementedError

    def append(self, row: dict[str, Any]) -> int:
        """Store one prepared row (lower-cased keys); returns its row id."""
        raise NotImplementedError

    def get(self, row_id: int,
            columns: Optional[Sequence[str]] = None) -> Optional[dict[str, Any]]:
        """The row dict for ``row_id``, or None for tombstones / bad ids.

        ``columns`` (lower-cased row keys of this table) asks for just
        those keys; the dict may hold more — a consumer reads only the
        keys it asked for — but never fewer.  None asks for the whole row.
        """
        raise NotImplementedError

    def delete(self, row_id: int) -> bool:
        """Tombstone ``row_id``; False when it was already dead or invalid."""
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def vacuum(self) -> int:
        """Drop tombstones, compacting ids; returns slots reclaimed."""
        raise NotImplementedError

    @property
    def live_count(self) -> int:
        raise NotImplementedError

    @property
    def tombstone_count(self) -> int:
        return len(self) - self.live_count

    def __len__(self) -> int:
        raise NotImplementedError

    def iter_rows(self, columns: Optional[Sequence[str]] = None
                  ) -> Iterator[tuple[int, dict[str, Any]]]:
        """(row_id, row dict) for every live row, in id order
        (``columns`` as for :meth:`get`)."""
        raise NotImplementedError

    def iter_dicts(self, columns: Optional[Sequence[str]] = None
                   ) -> Iterator[dict[str, Any]]:
        """Live row dicts in id order (the sequential-scan entry point)."""
        for _row_id, row in self.iter_rows(columns):
            yield row

    def iter_row_views(self) -> Iterator[tuple[int, Mapping[str, Any]]]:
        """(row_id, read-only row mapping) for every live row, in id
        order — for a caller that reads a few columns of each row but
        does not know which in advance (a ``delete_where`` predicate)."""
        return self.iter_rows()

    def slots(self) -> list[Optional[dict[str, Any]]]:
        """The full slot array (``None`` for tombstones) — compat/debug view."""
        raise NotImplementedError

    # -- durability (see repro.storage.format / repro.engine.durable) -----

    def checkpoint_state(self) -> dict[str, Any]:
        """A snapshot of this store as plain codec-encodable values.

        Caller must hold the owning table's write lock; the snapshot may
        share buffers with the live store until it is encoded.
        """
        raise NotImplementedError

    def restore_state(self, state: dict[str, Any]) -> None:
        """Load a :meth:`checkpoint_state` snapshot into this (empty) store."""
        raise NotImplementedError


class RowStore(TableStorage):
    """List-of-dicts storage: one dict per row, ``None`` tombstones.

    Reads ignore ``columns``: the stored dict is already built, and a
    superset of the asked-for keys is all the contract promises.
    """

    kind = "row"

    def __init__(self) -> None:
        self._slots: list[Optional[dict[str, Any]]] = []
        self._live = 0

    def next_row_id(self) -> int:
        return len(self._slots)

    def append(self, row: dict[str, Any]) -> int:
        row_id = len(self._slots)
        self._slots.append(row)
        self._live += 1
        return row_id

    def get(self, row_id: int,
            columns: Optional[Sequence[str]] = None) -> Optional[dict[str, Any]]:
        if 0 <= row_id < len(self._slots):
            return self._slots[row_id]
        return None

    def delete(self, row_id: int) -> bool:
        if 0 <= row_id < len(self._slots) and self._slots[row_id] is not None:
            self._slots[row_id] = None
            self._live -= 1
            return True
        return False

    def clear(self) -> None:
        self._slots.clear()
        self._live = 0

    def vacuum(self) -> int:
        dead = len(self._slots) - self._live
        if dead:
            self._slots = [row for row in self._slots if row is not None]
        return dead

    @property
    def live_count(self) -> int:
        return self._live

    def __len__(self) -> int:
        return len(self._slots)

    def iter_rows(self, columns: Optional[Sequence[str]] = None
                  ) -> Iterator[tuple[int, dict[str, Any]]]:
        for row_id, row in enumerate(self._slots):
            if row is not None:
                yield row_id, row

    def iter_dicts(self, columns: Optional[Sequence[str]] = None
                   ) -> Iterator[dict[str, Any]]:
        for row in self._slots:
            if row is not None:
                yield row

    def slots(self) -> list[Optional[dict[str, Any]]]:
        return self._slots

    def checkpoint_state(self) -> dict[str, Any]:
        # Tombstones serialize as NULL; live rows as their dicts.
        return {"kind": "row", "slots": list(self._slots)}

    def restore_state(self, state: dict[str, Any]) -> None:
        if state.get("kind") != "row":
            raise SchemaError(f"row store cannot restore {state.get('kind')!r} state")
        self._slots = list(state["slots"])
        self._live = sum(1 for row in self._slots if row is not None)


class _ColumnData:
    """One column's buffer: values, null mask and null count.

    Numeric columns keep unboxed values in an ``array.array`` (``'q'``
    for integers, ``'d'`` for floats); an integer that overflows 64 bits
    promotes the whole column to a plain list.  NULLs store a zero
    placeholder in the buffer and a 1 in the mask.
    """

    __slots__ = ("name", "dtype", "values", "mask", "null_count")

    _TYPECODES = {DataType.INTEGER: "q", DataType.BIGINT: "q", DataType.FLOAT: "d"}

    def __init__(self, column: Column):
        self.name = column.name.lower()
        self.dtype = column.dtype
        typecode = self._TYPECODES.get(column.dtype)
        self.values: Any = array(typecode) if typecode else []
        self.mask = bytearray()
        self.null_count = 0

    def append(self, value: Any) -> None:
        if value is NULL:
            self.mask.append(1)
            self.null_count += 1
            if isinstance(self.values, array):
                self.values.append(0 if self.values.typecode == "q" else 0.0)
            else:
                self.values.append(NULL)
            return
        self.mask.append(0)
        try:
            self.values.append(value)
        except (OverflowError, TypeError):
            # An int outside 64 bits (or an unexpected type from a lenient
            # coercion): demote this column to a plain list and retry.
            self.values = list(self.values)
            self.values.append(value)

    def get(self, position: int) -> Any:
        if self.mask[position]:
            return NULL
        return self.values[position]

    def reader(self) -> Callable[[int], Any]:
        """``position -> get(position)``; the buffer's own indexing when
        the column holds no NULL."""
        return self.get if self.null_count else self.values.__getitem__


class _Parts:
    """One atomically-published snapshot of a :class:`ColumnStore`.

    ``segments`` are immutable sealed runs of :data:`SEGMENT_ROWS` rows;
    ``tail`` is the mutable append run (local coordinates, global id =
    ``base`` + local position); ``live`` is the global live mask shared
    across publications — appends extend it in place (prefix-stable),
    deletes zero a byte.  Seal/vacuum/clear publish a *new* triple, so
    a reader that grabbed ``store._parts`` once keeps a position-stable
    view for its whole scan.
    """

    __slots__ = ("segments", "tail", "base", "live")

    def __init__(self, segments: tuple, tail: dict[str, _ColumnData],
                 base: int, live: bytearray):
        self.segments = segments
        self.tail = tail
        self.base = base
        self.live = live


class _ScanUnit:
    """One unit of a batch scan: a sealed segment or the append tail.

    Positions are *local* (0-based within the unit); ``base`` converts
    back to global row ids.  ``columns()``/``masks()`` give local
    buffers — lazily decoded for sealed segments, the live buffers for
    the tail — so batches built from a unit slot straight into the
    vectorized pipeline.
    """

    __slots__ = ("store", "parts", "segment", "base", "stop")

    def __init__(self, store: "ColumnStore", parts: _Parts,
                 segment, base: int, stop: int):
        self.store = store
        self.parts = parts
        self.segment = segment          # SealedSegment, or None for the tail
        self.base = base
        self.stop = stop

    def selection(self) -> list[int]:
        """Local positions of live rows."""
        live = self.parts.live
        base = self.base
        stop = min(self.stop, len(live))
        if stop <= base:
            return []
        if (self.segment is None or self.segment.tombstones == 0) and \
                self.store._live_count == len(live):
            return list(range(stop - base))
        return [i - base for i in range(base, stop) if live[i]]

    def columns(self) -> Mapping[str, Sequence]:
        if self.segment is not None:
            return _LazySegmentColumns(self.segment)
        return {name: data.values for name, data in self.parts.tail.items()}

    def masks(self) -> Mapping[str, Sequence]:
        if self.segment is not None:
            return self.segment.masks
        return {name: data.mask for name, data in self.parts.tail.items()
                if data.null_count}


class _UnitColumns(dict):
    """One scan unit's columns, each decoded (NULL mask applied) on
    first access and kept for the rest of the unit."""

    __slots__ = ("store", "parts", "segment", "count")

    def __init__(self, store: "ColumnStore", parts: _Parts, segment, count: int):
        super().__init__()
        self.store = store
        self.parts = parts
        self.segment = segment          # SealedSegment, or None for the tail
        self.count = count

    def __missing__(self, name: str) -> Sequence:
        if name not in self.store._column_defs:
            raise KeyError(name)
        if self.segment is not None:
            values, mask = (self.segment.decode_column(name),
                            self.segment.masks.get(name))
        else:
            data = self.parts.tail[name]
            values, mask = data.values, data.mask if data.null_count else None
        decoded = self[name] = column_values(values, mask, None, self.count)
        return decoded


class _RowView(Mapping):
    """A read-only row of a :class:`ColumnStore` scan unit: reading a
    column decodes it for the whole unit, once."""

    __slots__ = ("_columns", "_position")

    def __init__(self, columns: _UnitColumns, position: int):
        self._columns = columns
        self._position = position

    def __getitem__(self, name: str) -> Any:
        return self._columns[name][self._position]

    def __contains__(self, name: object) -> bool:
        return name in self._columns.store._column_defs

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns.store._names)

    def __len__(self) -> int:
        return len(self._columns.store._names)


class _LazySegmentColumns(dict):
    """Column mapping that decodes a sealed column on first access and
    caches the result for the rest of the scan of that unit."""

    __slots__ = ("segment",)

    def __init__(self, segment):
        super().__init__()
        self.segment = segment

    def __missing__(self, name: str) -> Sequence:
        decoded = self.segment.decode_column(name)
        self[name] = decoded
        return decoded


#: A gather reads its units' columns whole once its row ids number at
#: least 1/_WHOLE_UNIT_SHARE of the units' rows: one decode per unit and
#: one index per row id then beat a read per row id.
_WHOLE_UNIT_SHARE = 8


class _GatheredColumns(dict):
    """The columns of :meth:`ColumnStore.gather`, each read on first
    access and then kept.

    Many row ids (:data:`_WHOLE_UNIT_SHARE`): a column is read whole over
    the scan units they span — decoded and masked once per unit — and
    indexed by row id in one C-level pass.  Few: each value is read
    at its unit and local position through the unit's cheapest reader
    (:meth:`SealedSegment.reader`: a plain unmasked buffer's own
    indexing), so a point lookup never decodes a segment.  Either way
    the values come in the caller's order.
    """

    __slots__ = ("store", "parts", "row_ids", "span", "positions", "touched")

    def __init__(self, store: "ColumnStore", parts: _Parts, row_ids: list[int]):
        super().__init__()
        self.store = store
        self.parts = parts
        self.row_ids = row_ids
        #: Whole-unit reads: the first and last unit spanned, and each
        #: row id's position in their concatenation.
        self.span: Optional[tuple[int, int]] = None
        self.positions: list[int] = row_ids
        #: Per-value reads: the units the row ids touch.
        self.touched: set[int] = set()
        if not row_ids:
            return
        # Segments are SEGMENT_ROWS-aligned and the tail starts at the
        # next boundary, so a row id's unit is ``row_id // SEGMENT_ROWS``.
        low, high = min(row_ids) // SEGMENT_ROWS, max(row_ids) // SEGMENT_ROWS
        if len(row_ids) * _WHOLE_UNIT_SHARE >= (high - low + 1) * SEGMENT_ROWS:
            self.span = (low, high)
            first = low * SEGMENT_ROWS
            if first:
                self.positions = [row_id - first for row_id in row_ids]
        else:
            self.touched = {row_id // SEGMENT_ROWS for row_id in row_ids}

    @property
    def whole_units(self) -> bool:
        """Whether columns are read whole over the units (many row ids)."""
        return self.span is not None

    def segment(self, key: int):
        """Unit ``key``'s sealed segment, or None for the tail."""
        parts = self.parts
        return parts.segments[key] if key < len(parts.segments) else None

    def whole(self, name: str, key: int) -> Sequence:
        """Column ``name`` of unit ``key``, decoded and masked."""
        segment = self.segment(key)
        if segment is not None:
            return column_values(segment.decode_column(name),
                                 segment.masks.get(name), None, segment.rows)
        data = self.parts.tail[name]
        return column_values(data.values, data.mask if data.null_count else None,
                             None, len(data.values))

    def reader(self, name: str, key: int) -> Callable[[int], Any]:
        segment = self.segment(key)
        return (segment.reader(name) if segment is not None
                else self.parts.tail[name].reader())

    def __missing__(self, name: str) -> list:
        if name not in self.store._column_defs:
            raise KeyError(name)
        if self.span is not None:
            low, high = self.span
            buffer = list(chain.from_iterable(self.whole(name, key)
                                              for key in range(low, high + 1)))
            values = list(map(buffer.__getitem__, self.positions))
        else:
            readers: list = [None] * (max(self.touched, default=-1) + 1)
            for key in self.touched:
                readers[key] = self.reader(name, key)
            values = [readers[row_id // SEGMENT_ROWS](row_id % SEGMENT_ROWS)
                      for row_id in self.row_ids]
        self[name] = values
        return values

    def row(self, position: int, names: Sequence[str]) -> dict[str, Any]:
        """The row at ``position`` as a dict of ``names`` (table columns),
        read value by value as :meth:`ColumnStore.get` reads it."""
        return self.store._row_at(self.parts, self.row_ids[position], names)


class ColumnStore(TableStorage):
    """Column-oriented storage: sealed, encoded segments plus an append tail.

    Every :data:`~repro.engine.segments.SEGMENT_ROWS` appends, the tail
    is **sealed**: each column picks an encoding (dictionary / RLE /
    delta / plain — see :mod:`repro.engine.segments`) and gets a zone
    map (min/max, null count, exact integer sum) the execution layer
    uses to skip segments, filter by dictionary codes and answer
    aggregates without touching data.  Deletes tombstone the global
    live mask and bump the owning segment's ``tombstones`` counter (the
    DML invalidation: a tombstoned segment still *skips* safely but no
    longer *answers* from its zone map); :meth:`vacuum` re-seals the
    compacted rows into fresh segments with rebuilt zone maps.

    Dict materialisation (``get``/``iter_rows``/``iter_dicts``) is the
    adapter for row-at-a-time operators, and it is late: given
    ``columns`` it decodes only those columns and builds fresh dicts
    holding exactly those keys, so a plan that references four of
    PhotoObj's 148 columns pays for four.  Whole rows (``columns`` None)
    keep the table's column order.  Scans go through one per-unit
    materialiser (:meth:`_row_runs`): each column is decoded once per
    sealed segment and its NULL mask applied once, then rows are zipped
    out of the buffers.  The vectorized path reads per-unit local
    buffers through :meth:`scan_units` (or the global concatenation
    through :meth:`batch_columns`).
    """

    kind = "column"

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise SchemaError("a column store needs at least one column")
        self._column_defs: dict[str, Column] = {
            column.name.lower(): column for column in columns}
        self._names: list[str] = list(self._column_defs)
        self._parts = _Parts((), self._fresh_tail(), 0, bytearray())
        self._live_count = 0
        #: Total segments sealed over this store's lifetime (vacuum
        #: re-seals count too) — reported by :meth:`storage_statistics`.
        self.segments_sealed = 0

    def _fresh_tail(self) -> dict[str, _ColumnData]:
        return {name: _ColumnData(column)
                for name, column in self._column_defs.items()}

    # -- the row-id contract ---------------------------------------------

    def next_row_id(self) -> int:
        return len(self._parts.live)

    def append(self, row: dict[str, Any]) -> int:
        parts = self._parts
        row_id = len(parts.live)
        for name, data in parts.tail.items():
            data.append(row.get(name, NULL))
        # The live flag is published last: a lock-free reader that sees
        # it set is guaranteed every column buffer already holds the row.
        parts.live.append(1)
        self._live_count += 1
        if len(parts.live) - parts.base >= SEGMENT_ROWS:
            self._seal(parts)
        return row_id

    def _seal(self, parts: _Parts) -> None:
        """Seal the (full) tail into an encoded segment + fresh tail.

        Publishes a new parts triple; readers holding the old one keep
        scanning the old tail buffers, which are never touched again.
        """
        base = parts.base
        specs = {name: (data.values, data.mask if data.null_count else None,
                        data.dtype)
                 for name, data in parts.tail.items()}
        dead = SEGMENT_ROWS - sum(parts.live[base:base + SEGMENT_ROWS])
        segment = build_segment(base, specs, tombstones=dead)
        self._parts = _Parts(parts.segments + (segment,), self._fresh_tail(),
                             base + SEGMENT_ROWS, parts.live)
        self.segments_sealed += 1

    def get(self, row_id: int,
            columns: Optional[Sequence[str]] = None) -> Optional[dict[str, Any]]:
        parts = self._parts
        if not (0 <= row_id < len(parts.live)) or not parts.live[row_id]:
            return None
        return self._row_at(parts, row_id, self._names if columns is None else columns)

    @staticmethod
    def _row_at(parts: _Parts, row_id: int, names: Sequence[str]) -> dict[str, Any]:
        if row_id >= parts.base:
            local = row_id - parts.base
            return {name: parts.tail[name].get(local) for name in names}
        segment = parts.segments[row_id // SEGMENT_ROWS]
        local = row_id - segment.base
        return {name: segment.value_at(name, local) for name in names}

    def delete(self, row_id: int) -> bool:
        parts = self._parts
        if 0 <= row_id < len(parts.live) and parts.live[row_id]:
            parts.live[row_id] = 0
            self._live_count -= 1
            if row_id < parts.base:
                # Invalidate the zone map for answering (skipping stays
                # safe: the zone still bounds a superset of live rows).
                parts.segments[row_id // SEGMENT_ROWS].tombstones += 1
            return True
        return False

    def clear(self) -> None:
        self._parts = _Parts((), self._fresh_tail(), 0, bytearray())
        self._live_count = 0

    def vacuum(self) -> int:
        """Drop tombstones and **re-seal**: compacted rows are packed
        into fresh segments (zone maps rebuilt, tombstone counters back
        to zero) with the remainder as the new tail — never a
        degradation to one big plain append run."""
        parts = self._parts
        dead = len(parts.live) - self._live_count
        if not dead:
            return 0
        keep = [i for i, live in enumerate(parts.live) if live]
        compacted = {name: self._compact_column(parts, name, keep)
                     for name in self._names}
        count = len(keep)
        sealed_rows = (count // SEGMENT_ROWS) * SEGMENT_ROWS
        segments = []
        for start in range(0, sealed_rows, SEGMENT_ROWS):
            specs = {}
            for name, (values, mask) in compacted.items():
                local_mask = mask[start:start + SEGMENT_ROWS]
                specs[name] = (values[start:start + SEGMENT_ROWS],
                               local_mask if any(local_mask) else None,
                               self._column_defs[name].dtype)
            segments.append(build_segment(start, specs))
        self.segments_sealed += len(segments)
        tail = self._fresh_tail()
        for name, (values, mask) in compacted.items():
            data = tail[name]
            for local in range(sealed_rows, count):
                data.append(NULL if mask[local] else values[local])
        self._parts = _Parts(tuple(segments), tail, sealed_rows,
                             bytearray(b"\x01" * count))
        return dead

    def _compact_column(self, parts: _Parts, name: str,
                        keep: Sequence[int]):
        """(values, mask) for the kept positions of one column, global
        order, decoded segment by segment."""
        values: list = []
        mask = bytearray()
        data = parts.tail[name]
        pieces = [(segment.base, segment.base + segment.rows, segment)
                  for segment in parts.segments]
        pieces.append((parts.base, len(parts.live), None))
        index = 0
        total = len(keep)
        for start, stop, segment in pieces:
            if index >= total:
                break
            if keep[index] >= stop:
                continue
            if segment is not None:
                buffer = segment.decode_column(name)
                local_mask = segment.masks.get(name)
            else:
                buffer = data.values
                local_mask = data.mask if data.null_count else None
            while index < total and keep[index] < stop:
                local = keep[index] - start
                values.append(buffer[local])
                mask.append(local_mask[local] if local_mask is not None else 0)
                index += 1
        return values, mask

    @property
    def live_count(self) -> int:
        return self._live_count

    def __len__(self) -> int:
        return len(self._parts.live)

    def iter_rows(self, columns: Optional[Sequence[str]] = None
                  ) -> Iterator[tuple[int, dict[str, Any]]]:
        names = self._names if columns is None else tuple(columns)
        for row_ids, values in self._row_runs(names):
            yield from zip(row_ids, row_dicts(names, values))

    def iter_dicts(self, columns: Optional[Sequence[str]] = None
                   ) -> Iterator[dict[str, Any]]:
        names = self._names if columns is None else tuple(columns)
        for _row_ids, values in self._row_runs(names):
            yield from row_dicts(names, values)

    def iter_row_views(self) -> Iterator[tuple[int, Mapping[str, Any]]]:
        """(row_id, :class:`_RowView`) per live row: a view decodes only
        the columns its reader asks for, once per scan unit."""
        parts = self._parts
        snapshot = bytes(parts.live)
        for start, stop, segment in self._unit_bounds(parts, len(snapshot)):
            columns = _UnitColumns(self, parts, segment, stop - start)
            for row_id in range(start, stop):
                if snapshot[row_id]:
                    yield row_id, _RowView(columns, row_id - start)

    @staticmethod
    def _unit_bounds(parts: _Parts, stop: int) -> list[tuple[int, int, Any]]:
        """(first row id, end, sealed segment or None) per scan unit of
        ``parts``, the tail ending at ``stop``."""
        units = [(segment.base, segment.base + segment.rows, segment)
                 for segment in parts.segments]
        units.append((parts.base, stop, None))
        return units

    def _row_runs(self, names: Sequence[str]
                  ) -> Iterator[tuple[Sequence[int], Iterator[tuple]]]:
        """(live row ids, their value tuples in ``names`` order) per scan
        unit: each sealed segment, then the tail.

        One parts snapshot and one frozen live mask serve the whole
        scan, so it sees one consistent row-id set even while appends
        extend the store.  A unit is materialised when the scan reaches
        it: each column is decoded once and its NULL mask applied once.
        An empty ``names`` still yields one empty tuple per live row.
        """
        parts = self._parts
        snapshot = bytes(parts.live)
        for start, stop, segment in self._unit_bounds(parts, len(snapshot)):
            live = snapshot.count(1, start, stop)
            if not live:
                continue
            local: Optional[list[int]] = None
            row_ids: Sequence[int] = range(start, stop)
            if live < stop - start:
                local = [i - start for i in row_ids if snapshot[i]]
                row_ids = [start + i for i in local]
            buffers = []
            for name in names:
                if segment is not None:
                    values, mask = (segment.decode_column(name),
                                    segment.masks.get(name))
                else:
                    data = parts.tail[name]
                    values, mask = (data.values,
                                    data.mask if data.null_count else None)
                buffers.append(column_values(values, mask, local, stop - start))
            yield row_ids, (zip(*buffers) if buffers
                            else repeat((), len(row_ids)))

    def slots(self) -> list[Optional[dict[str, Any]]]:
        return [self.get(row_id) for row_id in range(len(self._parts.live))]

    # -- the vectorized read interface -----------------------------------

    def scan_units(self) -> list[_ScanUnit]:
        """The batch scan's units — one per sealed segment plus (when
        non-empty) one for the append tail — from a single consistent
        parts snapshot.  Sealed units carry zone maps, so a unit the
        zone verdict rules out is skipped without decoding."""
        parts = self._parts
        units = [_ScanUnit(self, parts, segment, segment.base,
                           segment.base + segment.rows)
                 for segment in parts.segments]
        if len(parts.live) > parts.base:
            units.append(_ScanUnit(self, parts, None, parts.base,
                                   parts.base + SEGMENT_ROWS))
        return units

    def gather(self, row_ids: Iterable[int]) -> tuple[list[int], Mapping[str, list]]:
        """The live ``row_ids``, in the order given (repeats kept), and
        their columns.

        One parts snapshot serves both.  A column is read when first
        accessed — whole per scan unit when the ids are many, value by
        value when few (:class:`_GatheredColumns`), so a point lookup
        never decodes a segment — the batch form of :meth:`get`.
        """
        parts = self._parts
        live = parts.live
        # Rows appended after this snapshot (past its tail) are not in it.
        count = min(len(live), parts.base + SEGMENT_ROWS)
        ids = list(row_ids)
        if ids and (min(ids) < 0 or max(ids) >= count):
            ids = [row_id for row_id in ids if 0 <= row_id < count]
        if self._live_count != len(live):
            ids = list(compress(ids, map(live.__getitem__, ids)))
        return ids, _GatheredColumns(self, parts, ids)

    def segments(self) -> tuple:
        """The sealed segments of the current snapshot (tests/statistics)."""
        return self._parts.segments

    def batch_columns(self) -> tuple[Mapping[str, Sequence], Mapping[str, bytearray]]:
        """(column buffers, null masks) for batch execution — the
        *global* concatenated view (compatibility path; per-unit access
        through :meth:`scan_units` avoids decoding skipped segments).

        The masks mapping only contains columns that actually hold NULLs;
        the vector codegen treats absent masks as "never NULL".
        """
        parts = self._parts
        buffers: dict[str, Sequence] = {}
        masks: dict[str, bytearray] = {}
        for name in self._names:
            if not parts.segments:
                data = parts.tail[name]
                buffers[name] = data.values
                if data.null_count:
                    masks[name] = data.mask
                continue
            values: list = []
            mask = bytearray()
            for segment in parts.segments:
                values.extend(segment.decode_column(name))
                local = segment.masks.get(name)
                mask.extend(local if local is not None else bytes(segment.rows))
            data = parts.tail[name]
            values.extend(data.values)
            mask.extend(data.mask)
            buffers[name] = values
            if any(mask):
                masks[name] = mask
        return buffers, masks

    def column_null_count(self, name: str) -> int:
        parts = self._parts
        key = name.lower()
        total = parts.tail[key].null_count
        for segment in parts.segments:
            total += segment.null_count(key)
        return total

    def live_positions(self, start: int, stop: int) -> list[int]:
        """Row ids of live rows in [start, stop) — a batch's selection vector."""
        live = self._parts.live
        stop = min(stop, len(live))
        if self._live_count == len(live):
            return list(range(start, stop))
        return [i for i in range(start, stop) if live[i]]

    def checkpoint_state(self) -> dict[str, Any]:
        parts = self._parts
        tail = {}
        for name, data in parts.tail.items():
            tail[name] = {
                "values": (data.values if isinstance(data.values, array)
                           else list(data.values)),
                "mask": bytes(data.mask),
                "null_count": data.null_count,
            }
        return {
            "kind": "column",
            "segments": list(parts.segments),
            "base": parts.base,
            "live": bytes(parts.live),
            "tail": tail,
            "segments_sealed": self.segments_sealed,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        if state.get("kind") != "column":
            raise SchemaError(
                f"column store cannot restore {state.get('kind')!r} state")
        tail = self._fresh_tail()
        for name, snapshot in state["tail"].items():
            data = tail[name]
            values = snapshot["values"]
            if isinstance(values, array) or not isinstance(data.values, array):
                data.values = values
            else:
                # A numeric column checkpointed after overflow promotion
                # (or a decoder that fell back to lists): keep the list.
                data.values = list(values)
            data.mask = bytearray(snapshot["mask"])
            data.null_count = snapshot["null_count"]
        live = bytearray(state["live"])
        self._parts = _Parts(tuple(state["segments"]), tail,
                             state["base"], live)
        self._live_count = sum(live)
        self.segments_sealed = state["segments_sealed"]

    def storage_statistics(self) -> dict[str, Any]:
        """Encoded vs. logical bytes, segment and encoding counts — the
        compression report behind ``site_statistics()["storage"]``."""
        parts = self._parts
        encoded = 0
        logical = 0
        encodings: dict[str, int] = {}
        for segment in parts.segments:
            encoded += segment.encoded_bytes()
            for name in self._names:
                column = segment.columns[name]
                logical += _logical_bytes(segment.decode_column(name)
                                          if column.name != "plain"
                                          else column.values,
                                          column.dtype)
                encodings[column.name] = encodings.get(column.name, 0) + 1
        tail_rows = len(parts.live) - parts.base
        for name, data in parts.tail.items():
            size = _logical_bytes(data.values, data.dtype)
            encoded += size + (len(data.mask) if data.null_count else 0)
            logical += size
        return {
            "segments": len(parts.segments),
            "segments_sealed": self.segments_sealed,
            "sealed_rows": parts.base,
            "tail_rows": tail_rows,
            "encoded_bytes": encoded,
            "logical_bytes": logical,
            "compression_ratio": (logical / encoded) if encoded else 1.0,
            "encodings": dict(sorted(encodings.items())),
        }


def make_storage(kind: str, columns: Sequence[Column]) -> TableStorage:
    """Storage factory: ``"row"`` or ``"column"``."""
    if kind == "row":
        return RowStore()
    if kind == "column":
        return ColumnStore(columns)
    raise SchemaError(f"unknown storage kind {kind!r} (expected 'row' or 'column')")
