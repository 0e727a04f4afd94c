"""The database catalog.

A :class:`Database` owns tables, views, indices (via tables), scalar
and table-valued functions, and temporary result tables (the ``##name``
tables the paper's queries SELECT INTO).  It also exposes the
space-accounting summary used to reproduce Table 1; SkyServerQA's object
browser (:class:`repro.skyserver.QueryAnalyzer`) reads tables, columns,
types, units, indexes, constraints and comments off it.
"""

from __future__ import annotations

import datetime as _dt
import threading
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .constraints import CheckConstraint, ConstraintReport, ForeignKey, PrimaryKey
from .errors import CatalogError
from .expressions import EvaluationContext
from .functions import FunctionRegistry
from .stats import TableStatistics, collect_table_statistics
from .table import ChangeLog, Table, _default_clock
from .types import Column
from .view import ResolvedRelation, View, fold_view_chain


class Database:
    """An in-memory database: the engine's equivalent of one SQL Server catalog."""

    def __init__(self, name: str = "SkyServer", *, description: str = ""):
        self.name = name
        self.description = description
        self.tables: dict[str, Table] = {}
        self.views: dict[str, View] = {}
        self.functions = FunctionRegistry()
        #: ANALYZE snapshots keyed by lower-cased table name; the
        #: planner's cost-based optimizer reads them, ``ANALYZE`` and
        #: the loader write them.
        self.statistics: dict[str, TableStatistics] = {}
        self._clock: Callable[[], _dt.datetime] = _default_clock
        #: Bumped by every DDL change (tables, views, indexes, functions);
        #: caches of planned work are valid for the version they were
        #: built under — or any later one that :meth:`changed_since`
        #: says left their tables alone.
        self.schema_version = 0
        #: Where the version was last bumped: per lower-cased table name
        #: for DDL that concerns one table (create/drop, its indexes,
        #: layout and statistics), and once for everything else (views,
        #: functions, release flips), which concerns every plan.
        self._table_ddl_versions: dict[str, int] = {}
        self._catalog_ddl_version = 0
        #: The database-wide snapshot epoch: advanced whenever a table's
        #: exclusive (write) section completes and on every DDL bump.  A
        #: reader holding read locks can record the epoch as a snapshot
        #: identifier — an unchanged epoch means nothing has changed.
        self.epoch = 0
        self._epoch_lock = threading.Lock()
        #: Durability manager (:class:`repro.engine.durable.DurabilityManager`)
        #: when this database is backed by disk, else ``None``.  The
        #: catalog notifies it of table create/drop so new tables get
        #: WAL hooks and checkpoints cover the full table set.
        self.durability = None
        #: Result caches reading the tables' change logs (see
        #: :meth:`track_changes`); no table keeps one while it is 0.
        self._change_readers = 0

    def checkpoint(self) -> Optional[dict[str, Any]]:
        """Write a durable checkpoint and truncate the WAL (no-op and
        ``None`` when the database is purely in-memory)."""
        if self.durability is None:
            return None
        return self.durability.checkpoint()

    def bump_schema_version(self, table: Optional[str] = None) -> None:
        """Record a DDL change — to ``table`` alone, or (None) to the catalog."""
        with self._epoch_lock:
            self.schema_version += 1
            self.epoch += 1
            if table is None:
                self._catalog_ddl_version = self.schema_version
            else:
                self._table_ddl_versions[table.lower()] = self.schema_version

    def changed_since(self, version: int, tables: Iterable[str]) -> bool:
        """Whether DDL after schema version ``version`` could affect work
        planned over ``tables`` (lower-cased base-table names): any
        catalog-wide change, or a change to one of those tables.  A
        ``SELECT … INTO ##results`` therefore costs the plans that read
        ``##results`` — not every cached plan in the session.
        """
        if self._catalog_ddl_version > version:
            return True
        versions = self._table_ddl_versions
        return any(versions.get(name, 0) > version for name in tables)

    def table_versions(self, name: str) -> tuple[int, ...]:
        """``(modification_counter,)`` of one table: the shape
        :meth:`ShardCluster.table_versions` gives per shard.  Any DML
        moves it; caches of results compare it before reuse."""
        return (self.table(name).modification_counter,)

    def adopt_release(self, fresh: "Database") -> None:
        """Serve ``fresh``'s rows, indexes and statistics from this
        catalog's own table objects: a data-release flip.

        Sessions, the serving pool and a cluster hold references to the
        table objects and their locks, so only their contents move.
        Tables ``fresh`` lacks (``##temp`` results, scratch) keep
        theirs.  Every swapped table's modification counter ends
        strictly above its old value, whatever either side saw, because
        cached results and gathers validate against it; the schema
        version bumps, so every cached plan is dropped.  The caller
        holds every table's write lock.
        """
        for old in list(self.tables.values()):
            if not fresh.has_table(old.name):
                continue
            new = fresh.table(old.name)
            old.storage = new.storage
            old._data_bytes = new._data_bytes
            for index in new.indexes.values():
                index.table = old
            old.indexes = new.indexes
            old.modification_counter += new.modification_counter + 1
            if old.changes is not None:
                old.changes.barrier(old.modification_counter)
        self.statistics.clear()
        self.statistics.update(fresh.statistics)
        self.bump_schema_version()

    def track_changes(self, enabled: bool = True) -> None:
        """Take (``enabled``) or give back one reader's claim on the
        tables' :class:`~repro.engine.table.ChangeLog`\\ s.

        While any claim is held every table, and every table created
        later, records the rows its writes touch; when the last is given
        back the logs are dropped and writes record nothing.  A log
        attached after a write simply cannot vouch for it.
        """
        with self._epoch_lock:
            self._change_readers += 1 if enabled else -1
            tracking = self._change_readers > 0
            for table in self.tables.values():
                if not tracking:
                    table.changes = None
                elif table.changes is None:
                    table.changes = ChangeLog(table.modification_counter)

    def _bump_epoch(self) -> None:
        with self._epoch_lock:
            self.epoch += 1

    # -- clock (shared by all tables, lets the loader control timestamps) --

    def set_clock(self, clock: Callable[[], _dt.datetime]) -> None:
        self._clock = clock
        for table in self.tables.values():
            table.set_clock(clock)

    def now(self) -> _dt.datetime:
        return self._clock()

    # -- tables -------------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[Column], *,
                     primary_key: Optional[PrimaryKey] = None,
                     foreign_keys: Sequence[ForeignKey] = (),
                     checks: Sequence[CheckConstraint] = (),
                     description: str = "",
                     replace: bool = False,
                     storage: str = "row") -> Table:
        key = name.lower()
        if key in self._lowered_table_names() and not replace:
            raise CatalogError(f"table {name!r} already exists")
        if replace:
            self.drop_table(name, if_exists=True)
        table = Table(name, columns, primary_key=primary_key,
                      foreign_keys=foreign_keys, checks=checks,
                      description=description, storage=storage)
        table.set_clock(self._clock)
        table.on_schema_change(lambda: self.bump_schema_version(name))
        table.lock.on_exclusive_release = self._bump_epoch
        if self._change_readers:
            table.changes = ChangeLog(table.modification_counter)
        self.tables[name] = table
        self.bump_schema_version(name)
        if self.durability is not None:
            self.durability.table_created(table)
        return table

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        for existing in list(self.tables):
            if existing.lower() == name.lower():
                del self.tables[existing]
                self.statistics.pop(existing.lower(), None)
                self.bump_schema_version(existing)
                if self.durability is not None:
                    self.durability.table_dropped(existing)
                return
        if not if_exists:
            raise CatalogError(f"no table named {name!r}")

    def has_table(self, name: str) -> bool:
        return name in self.tables or name.lower() in self._lowered_table_names()

    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is not None:
            return table
        key = name.lower()
        for existing, table in self.tables.items():
            if existing.lower() == key:
                return table
        raise CatalogError(f"no table named {name!r}")

    def _lowered_table_names(self) -> set[str]:
        return {name.lower() for name in self.tables}

    def table_names(self) -> list[str]:
        return sorted(self.tables, key=str.lower)

    # -- views ---------------------------------------------------------------

    def create_view(self, view: View, *, replace: bool = False) -> View:
        key = view.name.lower()
        if key in {existing.lower() for existing in self.views} and not replace:
            raise CatalogError(f"view {view.name!r} already exists")
        if key in self._lowered_table_names():
            raise CatalogError(f"a table named {view.name!r} already exists")
        self.views[view.name] = view
        self.bump_schema_version()
        return view

    def has_view(self, name: str) -> bool:
        return name.lower() in {existing.lower() for existing in self.views}

    def view(self, name: str) -> View:
        key = name.lower()
        for existing, view in self.views.items():
            if existing.lower() == key:
                return view
        raise CatalogError(f"no view named {name!r}")

    def view_names(self) -> list[str]:
        return sorted(self.views, key=str.lower)

    def resolve_relation(self, name: str) -> ResolvedRelation:
        """Fold views down to a base table; raises if the base table is missing."""
        resolved = fold_view_chain(name, self.views)
        if not self.has_table(resolved.table_name):
            raise CatalogError(f"no table or view named {name!r}")
        return resolved

    # -- functions -------------------------------------------------------------

    def register_scalar_function(self, name: str, implementation: Callable[..., Any], *,
                                 description: str = "", replace: bool = False) -> None:
        self.functions.register_scalar(name, implementation,
                                       description=description, replace=replace)
        self.bump_schema_version()

    def register_table_function(self, name: str, columns: Sequence[Column],
                                implementation: Callable[..., Iterable[Mapping[str, Any]]], *,
                                description: str = "", row_estimate: int = 10,
                                replace: bool = False,
                                reads: Optional[Sequence[str]] = None,
                                qualifier: Optional[Callable[..., Callable[
                                    [Mapping[str, Any]], Any]]] = None) -> None:
        """Register a table-valued function.

        ``reads`` declares the base tables the implementation reads
        (``()``: none; ``None``, the default: unknown).  A declared
        function's results are result-cached and its queries read-lock
        only those tables; an undeclared one is never cached and locks
        every table.  ``qualifier``, allowed when ``reads`` names one
        table, takes the function's argument values and returns a test
        of one of that table's rows (keyed by lower-cased column name):
        TRUE when inserting or deleting that row could change the
        function's output.  Declaring one promises that the output is a
        function of the set of rows passing it alone, ordered totally,
        so a cached result survives writes whose rows all fail it.
        """
        if qualifier is not None and (reads is None or len(reads) != 1):
            raise CatalogError(
                f"table-valued function {name!r}: a qualifier tests the rows "
                "of exactly one declared table")
        self.functions.register_table_valued(name, columns, implementation,
                                             description=description,
                                             row_estimate=row_estimate, replace=replace,
                                             reads=reads, qualifier=qualifier)
        self.bump_schema_version()

    def evaluation_context(self, variables: Optional[Mapping[str, Any]] = None) -> EvaluationContext:
        """Build the ambient context used to evaluate expressions in this database."""
        return EvaluationContext(functions=self.functions.scalar_callables(),
                                 variables={k.lower(): v for k, v in (variables or {}).items()})

    # -- statistics (the ANALYZE subsystem) ------------------------------------

    def analyze_table(self, name: str) -> TableStatistics:
        """Collect and store statistics for one table (SQL ``ANALYZE name``).

        Bumps the schema version: cached plans were costed against the
        old statistics and must be re-planned.
        """
        table = self.table(name)
        with table.lock.read():
            statistics = collect_table_statistics(table)
        self.statistics[table.name.lower()] = statistics
        self.bump_schema_version(table.name)
        return statistics

    def analyze(self, table_names: Optional[Sequence[str]] = None) -> list[TableStatistics]:
        """ANALYZE several tables (default: every table in the catalog)."""
        names = table_names if table_names is not None else self.table_names()
        return [self.analyze_table(name) for name in names]

    def table_statistics(self, name: str) -> Optional[TableStatistics]:
        return self.statistics.get(name.lower())

    def statistics_freshness(self) -> list[dict[str, Any]]:
        """Per-table staleness report (surfaced by ``site_statistics``)."""
        report = []
        for name in self.table_names():
            table = self.table(name)
            statistics = self.table_statistics(name)
            entry: dict[str, Any] = {
                "table": table.name,
                "analyzed": statistics is not None,
                "modification_counter": table.modification_counter,
            }
            if statistics is not None:
                entry["analyzed_at_modification"] = statistics.modification_counter
                entry["modifications_since_analyze"] = statistics.modifications_since(table)
                entry["stale"] = statistics.is_stale(table)
            report.append(entry)
        return report

    # -- concurrency (the serving layer's lock/epoch view) ----------------------

    def concurrency_statistics(self) -> dict[str, Any]:
        """Aggregate lock-acquisition/contention counters plus the epoch.

        This is the ``site_statistics()["serving"]["locks"]`` payload:
        how often readers and writers took table locks, and how often
        either side had to wait (contention), summed over every table.
        """
        totals = {"read_acquisitions": 0, "write_acquisitions": 0,
                  "read_contentions": 0, "write_contentions": 0}
        contended: list[str] = []
        for name in self.table_names():
            statistics = self.table(name).lock.statistics()
            for key in totals:
                totals[key] += statistics[key]
            if statistics["read_contentions"] or statistics["write_contentions"]:
                contended.append(name)
        return {"epoch": self.epoch, "contended_tables": contended, **totals}

    # -- integrity validation (post-load pass) ---------------------------------

    def validate_table(self, name: str) -> ConstraintReport:
        """Re-check NOT NULL and FK constraints for every row of a table."""
        table = self.table(name)
        report = ConstraintReport(table=table.name)
        nullable = {column.name.lower() for column in table.columns if column.nullable}
        for _row_id, row in table.iter_rows():
            report.rows_checked += 1
            for column in table.columns:
                if column.name.lower() not in nullable and row.get(column.name.lower()) is None:
                    report.add(f"NULL in NOT NULL column {column.name}")
            for foreign_key in table.foreign_keys:
                key = foreign_key.key_of(row)
                if key is None:
                    continue
                referenced = self.table(foreign_key.referenced_table)
                if not referenced.has_key(foreign_key.referenced_columns, key):
                    report.add(
                        f"dangling FK {'/'.join(foreign_key.columns)}={key!r} "
                        f"-> {foreign_key.referenced_table}")
        return report

    def validate(self, table_names: Optional[Sequence[str]] = None) -> list[ConstraintReport]:
        names = table_names if table_names is not None else self.table_names()
        return [self.validate_table(name) for name in names]

    # -- space accounting (Table 1) ---------------------------------------------

    def size_report(self) -> list[dict[str, Any]]:
        """Per-table record counts and byte sizes, mirroring Table 1."""
        report = []
        for name in self.table_names():
            table = self.table(name)
            report.append({
                "table": table.name,
                "records": table.row_count,
                "data_bytes": table.data_bytes,
                "index_bytes": table.index_bytes(),
                "total_bytes": table.data_bytes + table.index_bytes(),
            })
        return report

    def total_bytes(self) -> int:
        return sum(entry["total_bytes"] for entry in self.size_report())
