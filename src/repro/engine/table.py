"""Tables: typed row storage with constraints, defaults and timestamps.

A table owns its row storage (a :class:`~repro.engine.storage.TableStorage`
keyed by lower-cased column name — row-oriented by default, column-oriented
when converted for scan-heavy workloads), its indices, and its constraint
declarations.  Every row automatically receives the table's timestamp
column default when one is declared with ``CURRENT_TIMESTAMP`` — this is
the mechanism the loader's UNDO uses to delete exactly the rows inserted
by a failed load step (paper §9.4).
"""

from __future__ import annotations

import datetime as _dt
import threading
from collections import deque
from itertools import compress, repeat
from operator import is_not
from typing import (Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence,
                    TYPE_CHECKING)

from .concurrency import ReadWriteLock, lock_tables
from .constraints import (CheckConstraint, ForeignKey, PrimaryKey,
                          check_not_null)
from .errors import SchemaError, TypeMismatchError
from .index import BTreeIndex
from .storage import TableStorage, make_storage
from .types import (CURRENT_TIMESTAMP, STORED_TYPES, Column, DataType, NULL,
                    coerce_value, value_byte_size)

# Row-plan default markers: "absent", "the table clock", and "a literal
# default that does not coerce" (it raises when a row needs it, as
# coercing it per row always did).
_MISSING = object()
_CLOCK = object()
_BAD_DEFAULT = object()


def _planned_default(column: Column) -> Any:
    if column.default == CURRENT_TIMESTAMP:
        return _CLOCK
    if column.default is None:
        return NULL
    try:
        return column.coerce(column.default)
    except TypeMismatchError:
        return _BAD_DEFAULT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .catalog import Database


class ChangeLog:
    """The rows a table's recent writes touched, for caches that keep
    a result across a write that provably missed what it read.

    Each record is ``(first, last, rows)``: one statement moved the
    table's ``modification_counter`` from ``first`` to ``last`` and
    inserted or deleted ``rows`` (row images keyed like stored rows).
    :meth:`changes` hands out the rows between two counter values only
    when the records chain from one to the other without a gap, so a
    move the log never saw — a truncate, a release flip, a restore, or a
    table written before the log was attached — is a *barrier*: nothing
    older than it can be vouched for.  :meth:`barrier` says so
    explicitly.  The log holds at most :data:`CAPACITY` rows; the oldest
    records fall off first, raising the horizon past them.
    """

    #: Row images held per table.
    CAPACITY = 512

    def __init__(self, counter: int):
        #: The oldest counter value the log can speak from.
        self.horizon = counter
        self._records: "deque[tuple[int, int, Sequence[Mapping[str, Any]]]]" = deque()
        self._held = 0
        self._mutex = threading.Lock()

    def record(self, first: int, last: int,
               rows: Sequence[Mapping[str, Any]]) -> None:
        """One statement's move of the counter from ``first`` to ``last``."""
        with self._mutex:
            if len(rows) > self.CAPACITY:
                self._reset(last)
                return
            records = self._records
            records.append((first, last, rows))
            self._held += len(rows)
            while self._held > self.CAPACITY:
                _first, dropped_last, dropped = records.popleft()
                self._held -= len(dropped)
                self.horizon = dropped_last

    def barrier(self, counter: int) -> None:
        """Forget everything: the counter reached ``counter`` by a move
        whose rows are not recorded."""
        with self._mutex:
            self._reset(counter)

    def _reset(self, counter: int) -> None:
        self._records.clear()
        self._held = 0
        self.horizon = counter

    def changes(self, since: int, until: int
                ) -> Optional[list[Mapping[str, Any]]]:
        """Every row inserted or deleted while the counter moved from
        ``since`` to ``until``, or None when the records do not chain
        from the one to the other."""
        rows: list[Mapping[str, Any]] = []
        with self._mutex:
            if since < self.horizon:
                return None
            reached = since
            for first, last, touched in self._records:
                if reached == until:
                    break
                if last <= since:
                    continue
                if first != reached:
                    return None
                rows.extend(touched)
                reached = last
        return rows if reached == until else None


class Table:
    """A base table in the catalog."""

    def __init__(self, name: str, columns: Sequence[Column], *,
                 primary_key: Optional[PrimaryKey] = None,
                 foreign_keys: Sequence[ForeignKey] = (),
                 checks: Sequence[CheckConstraint] = (),
                 description: str = "",
                 storage: str = "row"):
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        self.name = name
        self.description = description
        self.columns: list[Column] = list(columns)
        self._columns_by_name: dict[str, Column] = {}
        for column in self.columns:
            key = column.name.lower()
            if key in self._columns_by_name:
                raise SchemaError(f"duplicate column {column.name!r} in table {name!r}")
            self._columns_by_name[key] = column
        #: Lower-cased column name -> its key in this table's row dicts
        #: (the same string: rows are keyed by lower-cased name).  The
        #: shared, never-mutated half of every scan's compile layout.
        self.row_keys: dict[str, str] = {key: key for key in self._columns_by_name}
        #: How :meth:`_prepare_row` builds a row, one entry per column
        #: in order: (key, nullable, default, column), and each column's
        #: stored Python type.
        self._row_plan = tuple(
            (column.name.lower(), column.nullable, _planned_default(column), column)
            for column in self.columns)
        self._stored_types = [STORED_TYPES[column.dtype] for column in self.columns]
        #: Every spelling of a column name seen in inserted values ->
        #: its row key (learned on first sight, so a row pays one dict
        #: lookup per value, not a ``str.lower`` call).
        self._spellings: dict[str, str] = dict(self.row_keys)
        # Byte accounting (:meth:`_row_bytes`): a fixed-width NOT NULL
        # column always holds a value, so those columns add up to one
        # constant; the rest are (key, width — 0 for TEXT/BLOB —, type).
        variable = (DataType.TEXT, DataType.BLOB)
        self._fixed_bytes = sum(
            column.byte_width for column in self.columns
            if not column.nullable and column.dtype not in variable)
        self._width_plan = tuple(
            (column.name.lower(),
             0 if column.dtype in variable else column.byte_width, column.dtype)
            for column in self.columns
            if column.nullable or column.dtype in variable)
        self.primary_key = primary_key
        self.foreign_keys: list[ForeignKey] = list(foreign_keys)
        self.checks: list[CheckConstraint] = list(checks)
        self.storage: TableStorage = make_storage(storage, self.columns)
        #: Reader–writer lock guarding this table: SELECTs share it,
        #: DML/VACUUM/index DDL take it exclusively.  The catalog hooks
        #: its ``on_exclusive_release`` to bump the database epoch.
        self.lock = ReadWriteLock(name=name)
        self.indexes: dict[str, BTreeIndex] = {}
        self._data_bytes = 0
        #: Bumped by every INSERT/DELETE/TRUNCATE; statistics snapshots
        #: record the value at ANALYZE time so staleness is measurable.
        self.modification_counter = 0
        #: The rows recent writes touched (:class:`ChangeLog`), kept only
        #: while a result cache reads them; ``None`` otherwise.
        self.changes: Optional[ChangeLog] = None
        self._clock: Callable[[], _dt.datetime] = _default_clock
        self._on_schema_change: Optional[Callable[[], None]] = None
        #: Durability hook: called as ``hook(op, payload)`` once per
        #: statement, inside the mutating lock section, after the
        #: mutation has applied (see :mod:`repro.engine.durable`); an
        #: insert passes ``{"rows": ...}``, a delete ``{"row_ids": ...}``.
        #: ``None`` when the table is not attached to a write-ahead log.
        self._on_mutation: Optional[Callable[[str, dict], None]] = None
        if primary_key is not None:
            for column in primary_key.columns:
                if column not in self._columns_by_name:
                    raise SchemaError(
                        f"primary key column {column!r} not in table {name!r}")
            self.create_index(f"pk_{name}", primary_key.columns, unique=True)

    # -- metadata ----------------------------------------------------------

    def column(self, name: str) -> Optional[Column]:
        return self._columns_by_name.get(name.lower())

    def has_column(self, name: str) -> bool:
        return name.lower() in self._columns_by_name

    def primary_key_columns(self) -> list[str]:
        return list(self.primary_key.columns) if self.primary_key else []

    def primary_key_index(self) -> Optional[BTreeIndex]:
        if self.primary_key is None:
            return None
        return self.indexes.get(f"pk_{self.name}")

    @property
    def row_count(self) -> int:
        return self.storage.live_count

    @property
    def rows(self) -> list[Optional[dict[str, Any]]]:
        """Slot-level view (``None`` marks a tombstone).

        For a :class:`~repro.engine.storage.RowStore` this is the live
        slot list; a :class:`~repro.engine.storage.ColumnStore`
        materialises row dicts on every access, so hot code should use
        :meth:`iter_rows` or the storage object directly.
        """
        return self.storage.slots()

    @property
    def data_bytes(self) -> int:
        """Total live-row payload bytes (Table 1 accounting)."""
        return self._data_bytes

    def index_bytes(self) -> int:
        return sum(index.byte_size() for index in self.indexes.values())

    def average_row_bytes(self) -> float:
        live = self.storage.live_count
        return self._data_bytes / live if live else 0.0

    def set_clock(self, clock: Callable[[], _dt.datetime]) -> None:
        """Override the timestamp source (tests and the loader use this)."""
        self._clock = clock

    def on_schema_change(self, callback: Optional[Callable[[], None]]) -> None:
        """Register the catalog's schema-version bump (fires on index DDL)."""
        self._on_schema_change = callback

    def on_mutation(self, callback: Optional[Callable[[str, dict], None]]) -> None:
        """Attach (or detach, with ``None``) the durability WAL hook."""
        self._on_mutation = callback

    def _log_mutation(self, op: str, payload: dict) -> None:
        if self._on_mutation is not None:
            self._on_mutation(op, payload)

    def describe(self) -> dict[str, Any]:
        """Schema-browser metadata (tables pane of SkyServerQA)."""
        return {
            "name": self.name,
            "description": self.description,
            "columns": [
                {
                    "name": column.name,
                    "type": column.dtype.value,
                    "nullable": column.nullable,
                    "unit": column.unit,
                    "description": column.description,
                }
                for column in self.columns
            ],
            "primary_key": self.primary_key_columns(),
            "foreign_keys": [
                {
                    "columns": list(fk.columns),
                    "references": fk.referenced_table,
                    "referenced_columns": list(fk.referenced_columns),
                }
                for fk in self.foreign_keys
            ],
            "indexes": [index.describe() for index in self.indexes.values()],
            "rows": self.row_count,
            "storage": self.storage.kind,
            "data_bytes": self.data_bytes,
            "index_bytes": self.index_bytes(),
        }

    # -- indices -----------------------------------------------------------

    def create_index(self, name: str, columns: Sequence[str], *, unique: bool = False,
                     included_columns: Sequence[str] = ()) -> BTreeIndex:
        for column in list(columns) + list(included_columns):
            if not self.has_column(column):
                raise SchemaError(
                    f"index {name!r}: column {column!r} not in table {self.name!r}")
        if name.lower() in {existing.lower() for existing in self.indexes}:
            raise SchemaError(f"duplicate index name {name!r} on table {self.name!r}")
        with self.lock.write():
            index = BTreeIndex(name, self, columns, unique=unique,
                               included_columns=included_columns)
            for row_id, row in self.storage.iter_rows(index.columns):
                index.insert(row_id, row, defer_sort=True)
            index.rebuild()
            self.indexes[name] = index
            if self._on_schema_change is not None:
                self._on_schema_change()
            self._log_mutation("create_index", {
                "index": name, "columns": list(columns), "unique": unique,
                "included_columns": list(included_columns)})
        return index

    def drop_index(self, name: str) -> None:
        with self.lock.write():
            for existing in list(self.indexes):
                if existing.lower() == name.lower():
                    del self.indexes[existing]
                    if self._on_schema_change is not None:
                        self._on_schema_change()
                    self._log_mutation("drop_index", {"index": name})
                    return
        raise SchemaError(f"no index {name!r} on table {self.name!r}")

    def find_index_on(self, columns: Sequence[str]) -> Optional[BTreeIndex]:
        """An index whose leading key columns match ``columns`` exactly."""
        wanted = [column.lower() for column in columns]
        for index in self.indexes.values():
            if index.columns[:len(wanted)] == wanted:
                return index
        return None

    # -- row access ----------------------------------------------------------

    def get_row(self, row_id: int,
                columns: Optional[Sequence[str]] = None) -> Optional[dict[str, Any]]:
        """The row for ``row_id`` (None for a tombstone); ``columns``
        narrows it as :meth:`TableStorage.get` describes."""
        return self.storage.get(row_id, columns)

    def iter_rows(self, columns: Optional[Sequence[str]] = None
                  ) -> Iterator[tuple[int, dict[str, Any]]]:
        """(row_id, row) pairs, holding the table's read lock while open.

        The lock is acquired when the first row is pulled and released
        when the generator is exhausted (or closed), so concurrent
        VACUUM/TRUNCATE/storage conversion — which reassign row ids —
        cannot run mid-iteration.  Code already inside an exclusive
        section iterates ``self.storage`` directly.  ``columns`` narrows
        the rows as :meth:`TableStorage.get` describes.
        """
        with self.lock.read():
            yield from self.storage.iter_rows(columns)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        with self.lock.read():
            yield from self.storage.iter_dicts()

    def __len__(self) -> int:
        return self.storage.live_count

    def has_key(self, columns: Sequence[str], key: tuple) -> bool:
        """True when a row with ``columns == key`` exists (used by FK checks)."""
        index = self.find_index_on(columns)
        if index is not None and len(columns) <= len(index.columns):
            return index.contains_key(key)
        wanted = [column.lower() for column in columns]
        for _row_id, row in self.iter_rows():
            if all(row.get(column) == value for column, value in zip(wanted, key)):
                return True
        return False

    # -- mutation ------------------------------------------------------------

    def _prepare_row(self, values: dict[str, Any]) -> dict[str, Any]:
        """The stored row for ``values``: every column coerced or
        defaulted; raises on an unknown column, a value that does not
        coerce, or a NULL in a NOT NULL column (after every value has
        coerced).

        The row is first built as given, in column order; then one pass
        over the row plan (in C) picks out the columns whose value is
        not already of the column's stored type — absent, NULL, or in
        need of coercion — and only those are fixed up.
        """
        spellings = self._spellings
        try:
            provided = dict(zip(map(spellings.__getitem__, values), values.values()))
        except KeyError:
            provided = {name.lower(): value for name, value in values.items()}
            unknown = provided.keys() - self.row_keys.keys()
            if unknown:
                raise SchemaError(
                    f"unknown column(s) {sorted(unknown)!r} for table {self.name!r}")
            spellings.update((name, name.lower()) for name in values)
        keys = self.row_keys
        row = dict(zip(keys, map(provided.get, keys, repeat(_MISSING))))
        null_violation: Optional[Column] = None
        for key, nullable, default, column in list(compress(
                self._row_plan,
                map(is_not, map(type, row.values()), self._stored_types))):
            value = row[key]
            if value is _MISSING:
                value = default
                if value is _CLOCK:
                    value = self._clock()
                elif value is _BAD_DEFAULT:
                    value = column.coerce(column.default)
                row[key] = value
            elif value is not NULL:
                row[key] = coerce_value(value, column.dtype, column=column.name)
            if value is NULL and not nullable and null_violation is None:
                null_violation = column
        if null_violation is not None:
            check_not_null(row, (null_violation,), table_name=self.name)
        return row

    def insert(self, values: dict[str, Any], *, database: Optional["Database"] = None,
               defer_index_sort: bool = False, skip_fk: bool = False) -> int:
        """Insert one row, returning its row id.

        ``database`` is required to enforce foreign keys; the loader
        passes it, while low-level tests may omit it.  Bulk loads use
        ``defer_index_sort=True`` and call :meth:`rebuild_indexes` once.
        """
        row = self._prepare_row(values)
        for check in self.checks:
            check.check(row, table_name=self.name)
        # Exclusive on this table + shared on every FK parent, acquired
        # in one global name order (incremental acquisition could form
        # deadlock cycles with queries and vacuum).  Holding the parent
        # locks through the append closes the check-then-insert window a
        # concurrent parent delete could otherwise slip into.
        with lock_tables(self.insert_lock_specs(database, skip_fk=skip_fk)):
            if database is not None and not skip_fk:
                for foreign_key in self.foreign_keys:
                    foreign_key.check(row, database, table_name=self.name)
            row_id = self.storage.next_row_id()
            if defer_index_sort:
                for index in self.indexes.values():
                    index.insert(row_id, row, defer_sort=True)
            else:
                self._index_rows([row], row_id)
            self.storage.append(row)
            self._data_bytes += self._row_bytes(row)
            self._count_changes((row,))
            self._log_mutation("insert", {"rows": (row,)})
        return row_id

    def insert_lock_specs(self, database: Optional["Database"], *,
                          skip_fk: bool = False) -> list[tuple["Table", str]]:
        """The lock set one insert needs: write here, read on FK parents."""
        specs: list[tuple["Table", str]] = [(self, "write")]
        if database is not None and not skip_fk:
            for foreign_key in self.foreign_keys:
                if database.has_table(foreign_key.referenced_table):
                    specs.append((database.table(foreign_key.referenced_table),
                                  "read"))
        return specs

    def insert_many(self, rows: Iterable[dict[str, Any]], *,
                    database: Optional["Database"] = None,
                    skip_fk: bool = False) -> int:
        """Bulk insert, all or nothing; returns rows inserted.

        The whole bulk is validated before anything is written:
        coercion, NOT NULL and checks per row, then (under the locks)
        foreign keys, and uniqueness against every unique index and
        within the bulk.  Only then is it applied — merged into each
        index, appended to storage, logged — so a bulk that fails
        changes neither the table nor the write-ahead log.  It runs in
        one exclusive section (FK parents held shared throughout):
        readers see none or all of it, and the database epoch advances
        once.  The whole bulk is one WAL frame, so a crash recovers all
        of it or none.
        """
        prepared = [self._prepare_row(values) for values in rows]
        for check in self.checks:
            for row in prepared:
                check.check(row, table_name=self.name)
        with lock_tables(self.insert_lock_specs(database, skip_fk=skip_fk)):
            if database is not None and not skip_fk:
                for foreign_key in self.foreign_keys:
                    for row in prepared:
                        foreign_key.check(row, database, table_name=self.name)
            self._index_rows(prepared, self.storage.next_row_id())
            for row in prepared:
                self.storage.append(row)
                self._data_bytes += self._row_bytes(row)
            if prepared:
                self._count_changes(prepared)
                self._log_mutation("insert", {"rows": prepared})
        return len(prepared)

    def _index_rows(self, rows: Sequence[dict[str, Any]], first_row_id: int) -> None:
        """Add ``rows`` (ids from ``first_row_id``) to every index.  All
        the batches are built, and every unique index checked, before
        any index changes: a duplicate key leaves every index as it was."""
        batches = [(index, index.batch_entries(rows, first_row_id))
                   for index in self.indexes.values()]
        for index, batch in batches:
            index.merge(batch)

    def rebuild_indexes(self) -> None:
        for index in self.indexes.values():
            index.rebuild()

    def _count_changes(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Move the modification counter past one statement's inserted
        or deleted ``rows`` (caller holds the write lock), recording
        them when a change log is attached."""
        first = self.modification_counter
        self.modification_counter = first + len(rows)
        if self.changes is not None:
            self.changes.record(first, self.modification_counter, rows)

    def delete_row(self, row_id: int) -> bool:
        with self.lock.write():
            row = self._delete(row_id)
            if row is None:
                return False
            self._count_changes((row,))
            self._log_mutation("delete", {"row_ids": (row_id,)})
            return True

    def _delete(self, row_id: int) -> Optional[dict[str, Any]]:
        """Delete one live row, returning its image, or None for a dead
        id (caller holds the write lock and counts the change)."""
        row = self.storage.get(row_id)
        if row is None:
            return None
        for index in self.indexes.values():
            index.remove(row_id, row)
        self.storage.delete(row_id)
        self._data_bytes -= self._row_bytes(row)
        return row

    def delete_where(self, predicate: Callable[[Mapping[str, Any]], bool]) -> int:
        """Delete all rows matching ``predicate``; returns the number deleted.

        Selection and deletion happen in one exclusive section, so the
        predicate runs against a stable snapshot.  It is handed a
        read-only mapping per row (a column store decodes only the
        columns the predicate reads).  The victims' row ids are one WAL
        frame, so a crash recovers the whole statement or none of it.
        """
        with self.lock.write():
            victims = [row_id for row_id, row in self.storage.iter_row_views()
                       if predicate(row)]
            if victims:
                deleted = []
                try:
                    for row_id in victims:
                        deleted.append(self._delete(row_id))
                finally:
                    # Rows gone before a failure still moved the table.
                    self._count_changes(deleted)
                self._log_mutation("delete", {"row_ids": victims})
            return len(victims)

    def truncate(self) -> None:
        with self.lock.write():
            self.modification_counter += self.storage.live_count
            if self.changes is not None:
                self.changes.barrier(self.modification_counter)
            self.storage.clear()
            self._data_bytes = 0
            for index in self.indexes.values():
                index.clear()
            self._log_mutation("truncate", {})

    # -- storage layout --------------------------------------------------------

    def convert_storage(self, kind: str) -> int:
        """Rebuild the row store in ``kind`` layout (``"row"``/``"column"``).

        Live rows are re-appended in id order, so ids are compacted
        exactly as by :meth:`vacuum` and every index is rebuilt.  The
        schema-change callback fires (bumping the catalog version) so
        cached plans built against the old layout are invalidated.
        Returns the number of live rows converted; a same-kind call is
        a no-op.
        """
        with self.lock.write():
            if self.storage.kind == kind:
                return self.storage.live_count
            new_storage = make_storage(kind, self.columns)
            for _row_id, row in self.storage.iter_rows():
                new_storage.append(row)
            self.storage = new_storage
            self._rebuild_indexes_from_storage()
            if self._on_schema_change is not None:
                self._on_schema_change()
            self._log_mutation("convert", {"layout": kind})
            return self.storage.live_count

    # -- tombstone compaction ------------------------------------------------

    #: Dead-slot fraction above which :meth:`maybe_vacuum` compacts.
    VACUUM_THRESHOLD = 0.25

    @property
    def tombstone_count(self) -> int:
        """Dead (deleted) slots still occupying the row store."""
        return self.storage.tombstone_count

    def vacuum(self) -> int:
        """Compact the row store, dropping tombstones.

        Delegates to the storage engine (both :class:`RowStore` and
        :class:`ColumnStore` implement compaction); row ids are
        reassigned, so every index is rebuilt from the compacted store.
        Returns the number of dead slots reclaimed.  Scans stop paying
        the skip-a-hole branch for every deleted row (the loader's UNDO
        of a large failed step can leave millions).
        """
        with self.lock.write():
            dead = self.storage.vacuum()
            if dead == 0:
                return 0
            self._rebuild_indexes_from_storage()
            self._log_mutation("vacuum", {})
            return dead

    def maybe_vacuum(self, threshold: Optional[float] = None) -> int:
        """Vacuum when the dead-slot fraction exceeds ``threshold``."""
        limit = self.VACUUM_THRESHOLD if threshold is None else threshold
        with self.lock.write():
            total = len(self.storage)
            if total and self.storage.tombstone_count / total >= limit:
                return self.vacuum()
            return 0

    def _rebuild_indexes_from_storage(self) -> None:
        for index in self.indexes.values():
            index.clear()
            for row_id, row in self.storage.iter_rows(index.columns):
                index.insert(row_id, row, defer_sort=True)
            index.rebuild()

    def _row_bytes(self, row: Mapping[str, Any]) -> int:
        """:func:`value_byte_size` summed over the row's columns."""
        total = self._fixed_bytes
        for key, width, dtype in self._width_plan:
            value = row.get(key, NULL)
            if value is NULL:
                total += 1
            elif width:
                total += width
            else:
                total += value_byte_size(value, dtype)
        return total


def _default_clock() -> _dt.datetime:
    return _dt.datetime.now(tz=_dt.timezone.utc)
