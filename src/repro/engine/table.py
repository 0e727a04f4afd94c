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
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TYPE_CHECKING

from .concurrency import ReadWriteLock, lock_tables
from .constraints import (CheckConstraint, ForeignKey, PrimaryKey,
                          check_not_null)
from .errors import SchemaError
from .index import BTreeIndex
from .storage import TableStorage, make_storage
from .types import CURRENT_TIMESTAMP, Column, NULL, value_byte_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .catalog import Database


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
        self._clock: Callable[[], _dt.datetime] = _default_clock
        self._on_schema_change: Optional[Callable[[], None]] = None
        #: Durability hook: called as ``hook(op, payload)`` inside the
        #: mutating lock section, after the mutation has applied (see
        #: :mod:`repro.engine.durable`).  ``None`` when the table is not
        #: attached to a write-ahead log.
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

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

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
            for row_id, row in self.storage.iter_rows():
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
        row: dict[str, Any] = {}
        provided = {key.lower(): value for key, value in values.items()}
        unknown = set(provided) - set(self._columns_by_name)
        if unknown:
            raise SchemaError(
                f"unknown column(s) {sorted(unknown)!r} for table {self.name!r}")
        for column in self.columns:
            key = column.name.lower()
            if key in provided and provided[key] is not NULL:
                row[key] = column.coerce(provided[key])
            elif key in provided:
                row[key] = NULL
            elif column.default == CURRENT_TIMESTAMP:
                row[key] = self._clock()
            elif column.default is not None:
                row[key] = column.coerce(column.default)
            else:
                row[key] = NULL
        check_not_null(row, self.columns, table_name=self.name)
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
            # Unique/PK indexes raise before the row is attached, keeping state consistent.
            for index in self.indexes.values():
                index.insert(row_id, row, defer_sort=defer_index_sort)
            self.storage.append(row)
            self._data_bytes += self._row_bytes(row)
            self.modification_counter += 1
            self._log_mutation("insert", {"row": row})
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
        """Bulk insert with deferred index maintenance; returns rows inserted.

        The whole bulk runs in one exclusive section (FK parents held
        shared throughout): readers see either none or all of it, and
        the database epoch advances once.
        """
        count = 0
        with lock_tables(self.insert_lock_specs(database, skip_fk=skip_fk)):
            for values in rows:
                self.insert(values, database=database, defer_index_sort=True,
                            skip_fk=skip_fk)
                count += 1
            self.rebuild_indexes()
        return count

    def rebuild_indexes(self) -> None:
        for index in self.indexes.values():
            index.rebuild()

    def delete_row(self, row_id: int) -> bool:
        with self.lock.write():
            row = self.storage.get(row_id)
            if row is None:
                return False
            for index in self.indexes.values():
                index.remove(row_id, row)
            self.storage.delete(row_id)
            self._data_bytes -= self._row_bytes(row)
            self.modification_counter += 1
            self._log_mutation("delete", {"row_id": row_id})
            return True

    def delete_where(self, predicate: Callable[[dict[str, Any]], bool]) -> int:
        """Delete all rows matching ``predicate``; returns the number deleted.

        Selection and deletion happen in one exclusive section, so the
        predicate runs against a stable snapshot.
        """
        with self.lock.write():
            victims = [row_id for row_id, row in self.storage.iter_rows()
                       if predicate(row)]
            for row_id in victims:
                self.delete_row(row_id)
            return len(victims)

    def truncate(self) -> None:
        with self.lock.write():
            self.modification_counter += self.storage.live_count
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
            for row_id, row in self.storage.iter_rows():
                index.insert(row_id, row, defer_sort=True)
            index.rebuild()

    def _row_bytes(self, row: dict[str, Any]) -> int:
        total = 0
        for column in self.columns:
            total += value_byte_size(row.get(column.name.lower(), NULL), column.dtype)
        return total


def _default_clock() -> _dt.datetime:
    return _dt.datetime.now(tz=_dt.timezone.utc)
