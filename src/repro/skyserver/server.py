"""The SkyServer facade: the paper's web site / query service in library form.

A :class:`SkyServer` wraps a loaded schema database and exposes what the
ASP pages and SkyServerQA expose: free-form SQL (with the public row and
time limits when asked for), the spatial search forms (cone and
rectangle), the object explorer (the "drill down to the whole record"
page of Figure 2), the famous-places gallery and the 20-query
data-mining suite used by the evaluation benchmarks.  The schema browser
is :class:`~repro.skyserver.QueryAnalyzer`'s object browser.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..engine import (Database, QueryResult, SqlSession, lock_tables,
                      make_session)
from ..engine.durable import DurabilityManager
from ..loader import load_release_database
from ..pipeline import PipelineOutput, SurveyConfig, SyntheticSurvey
from ..schema import register_schema_functions
from ..telemetry import Telemetry
from .config import ServerConfig, TelemetryConfig
from .formats import render
from .limits import QueryLimits
from .queries import (ADDITIONAL_SIMPLE_QUERIES, DATA_MINING_QUERIES,
                      DataMiningQuery, fill_placeholders, query_by_id)
from .spatial import (get_nearby_objects, get_objects_in_rect,
                      register_spatial_functions)
from .urls import register_url_functions, url_for_navigation, url_for_object


@dataclass
class QueryExecution:
    """Timing and results of one benchmark query run."""

    query: DataMiningQuery
    result: QueryResult
    elapsed_seconds: float
    cpu_seconds: float

    @property
    def query_id(self) -> str:
        return self.query.query_id

    @property
    def row_count(self) -> int:
        return len(self.result.rows)

    def plan_text(self) -> str:
        return self.result.plan.explain()


class SkyServer:
    """Public access point to one SkyServer database.

    With a :class:`~repro.cluster.ShardCluster` attached the server is a
    *cluster coordinator*: SQL routes through the distributed planner
    (scatter-gather for distributable shapes, data-shipping gather for
    the rest), the spatial search forms scatter to HTM-pruned shards,
    and ``site_statistics()["cluster"]`` reports shard, pruning and
    merge counters.  Results are identical to the single-node layout.
    """

    def __init__(self, database: Database, *,
                 limits: Optional[QueryLimits] = None,
                 site_name: str = "SkyServer (reproduction)",
                 cluster=None,
                 telemetry: Optional[TelemetryConfig] = None):
        self.database = database
        self.limits = limits or QueryLimits.private()
        self.site_name = site_name
        self.cluster = cluster
        register_spatial_functions(database)
        register_url_functions(database)
        #: Observability bundle (tracing + metrics + the durable query
        #: log), driven by the config's ``telemetry`` section.  Built
        #: before the session so the ``QueryLog`` table exists by the
        #: time anything plans against the catalog.
        telemetry_config = telemetry or TelemetryConfig()
        self.telemetry = Telemetry(
            database,
            tracing=telemetry_config.tracing,
            query_log=telemetry_config.query_log,
            slow_query_seconds=telemetry_config.slow_query_seconds,
            trace_capacity=telemetry_config.trace_capacity)
        self.session: SqlSession = make_session(
            database, cluster=cluster, row_limit=self.limits.max_rows,
            time_limit_seconds=self.limits.max_seconds)
        #: The concurrent serving pool, once one is started/attached.
        self._pool = None
        #: The survey a ``create()`` server was loaded from (None for
        #: ``open()``ed or hand-built servers).
        self.survey_output: Optional[PipelineOutput] = None
        #: Data releases served so far (bumped by :meth:`load_release`).
        self.release_number = 1

    # -- construction helpers --------------------------------------------------

    @classmethod
    def create(cls, config: Optional[ServerConfig] = None, *,
               path: Optional[str | os.PathLike] = None) -> "SkyServer":
        """Stand up a server from one declarative :class:`ServerConfig`.

        Schema → pipeline → loader → server, steered by the config's
        sections: storage layout (row/columnar, durable at
        ``config.storage.path`` or the ``path`` override), cluster
        partitioning, planner statistics, and an optional serving pool.
        The generated survey is kept on ``server.survey_output``.
        """
        config = config or ServerConfig()
        output = SyntheticSurvey(config.survey or SurveyConfig()).run()
        database, report = load_release_database(
            output,
            columnar=config.storage.columnar,
            analyze=config.planner.analyze,
            shards=config.cluster.shards,
            partition=config.cluster.partition,
            build_neighbors=config.build_neighbors)
        server = cls(database, limits=config.limits,
                     site_name=config.site_name, cluster=report.cluster,
                     telemetry=config.telemetry)
        server.survey_output = output
        durable_path = path if path is not None else config.storage.path
        if durable_path is not None:
            server.make_durable(durable_path, fsync=config.storage.fsync)
        if config.pool.workers:
            server.start_pool(workers=config.pool.workers,
                              result_cache_size=config.pool.result_cache_size)
        return server

    @classmethod
    def open(cls, path: str | os.PathLike, *,
             limits: Optional[QueryLimits] = None,
             site_name: str = "SkyServer (reproduction)",
             fsync: bool = False,
             telemetry: Optional[TelemetryConfig] = None) -> "SkyServer":
        """Reopen a durable server from its on-disk directory.

        Restores the last checkpoint (a header parse plus lazy segment
        reads — no re-encode of the column stores) and replays the WAL
        tail, so the server resumes exactly at its last committed
        write.  A directory holding a cluster manifest reopens as the
        cluster's coordinator with every shard recovered the same way.
        Code-defined functions (flags, profiles, spatial, URLs) are
        re-registered — checkpoints never serialize callables.
        """
        root = os.fspath(path)
        cluster = None
        from ..cluster import ShardCluster

        if os.path.exists(os.path.join(root, ShardCluster.CLUSTER_MANIFEST)):
            cluster = ShardCluster.open_durable(root, fsync=fsync)
            database = cluster.coordinator
        else:
            database = DurabilityManager.open(root, fsync=fsync).database
        register_schema_functions(database)
        return cls(database, limits=limits, site_name=site_name,
                   cluster=cluster, telemetry=telemetry)

    # -- durability lifecycle ----------------------------------------------------

    def make_durable(self, path: str | os.PathLike, *,
                     fsync: bool = False) -> "SkyServer":
        """Attach this server's data to an on-disk directory (checkpoint
        everything now; WAL-log every mutation from here on)."""
        if self.cluster is not None:
            self.cluster.make_durable(path, fsync=fsync)
        else:
            DurabilityManager.attach(self.database, path, fsync=fsync)
        return self

    @property
    def durable(self) -> bool:
        if self.cluster is not None:
            return self.cluster.durability is not None
        return self.database.durability is not None

    def checkpoint(self) -> Optional[dict[str, Any]]:
        """Force a full checkpoint (no-op when not durable), pending
        query-log rows included."""
        self.telemetry.flush_query_log()
        if self.cluster is not None:
            if self.cluster.durability is None:
                return None
            return self.cluster.checkpoint()
        return self.database.checkpoint()

    def checkpoint_if_due(self) -> bool:
        """Apply the periodic checkpoint policy (WAL tail too long or
        too old); cheap enough to call from serving loops."""
        due = False
        for manager in self._durability_managers():
            due = manager.maybe_checkpoint() or due
        return due

    def _durability_managers(self) -> list[DurabilityManager]:
        if self.cluster is not None:
            durability = self.cluster.durability
            if durability is None:
                return []
            return [durability["coordinator"], *durability["shards"]]
        manager = self.database.durability
        return [manager] if manager is not None else []

    def close(self) -> None:
        """Shut down the serving pool, checkpoint, and release the WAL.

        After ``close()`` the on-disk directory reopens replay-free via
        :meth:`open`, with every query-log row.  Safe to call on a
        non-durable server (it stops the pool and flushes the query log)
        and idempotent.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self.telemetry.flush_query_log()
        if self.cluster is not None:
            if self.cluster.durability is not None:
                self.cluster.checkpoint()
                self.cluster.close_durable()
        else:
            manager = self.database.durability
            if manager is not None:
                manager.checkpoint()
                manager.close()

    def __enter__(self) -> "SkyServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- data releases -----------------------------------------------------------

    def load_release(self, output: PipelineOutput, *,
                     build_neighbors: bool = True) -> dict[str, Any]:
        """Ingest a new data release and atomically switch serving to it.

        The DR1→DR2 story: the incoming release loads into a *fresh*
        set of tables (same schema, same layout and partitioning as the
        serving set) while queries keep flowing against the old data —
        the load takes no locks the serving path uses.  The flip itself
        swaps each serving table's storage, indexes and statistics
        under one exclusive lock section: queries admitted before the
        flip finish on the old segments they hold, queries admitted
        after see DR2, and none fail.  Modification counters strictly
        increase across the flip and the schema version bumps, so every
        cached plan and cached result is invalidated, and a durable
        server checkpoints the new release before returning.
        """
        fresh_db, report = load_release_database(
            output, columnar=self._columnar_layout(),
            shards=(self.cluster.shard_count
                    if self.cluster is not None else 1),
            partition=(self.cluster.scheme
                       if self.cluster is not None else "hash"),
            build_neighbors=build_neighbors)
        if self.cluster is not None:
            self.cluster.swap_release(report.cluster)
        else:
            self._flip_database(fresh_db)
        self.release_number += 1
        self.survey_output = output
        rows = {entry["table"]: entry["records"]
                for entry in (self.cluster.size_report()
                              if self.cluster is not None
                              else self.database.size_report())}
        return {"release": self.release_number, "rows": rows,
                "rows_loaded": report.rows_loaded,
                "checkpointed": self.durable}

    def _columnar_layout(self) -> bool:
        """Whether this server's own PhotoObj (a cluster's coordinator
        copy) is a column store: the incoming release is loaded into the
        same layout.  A cluster's shards are column stores either way."""
        return self.database.table("PhotoObj").storage.kind == "column"

    def _flip_database(self, fresh: Database) -> None:
        """Swap every serving table's contents for the fresh release's,
        in place, under exclusive locks (single-node path)."""
        tables = [self.database.table(name)
                  for name in self.database.table_names()]
        with lock_tables([(table, "write") for table in tables]):
            self.database.adopt_release(fresh)
        manager = self.database.durability
        if manager is not None:
            manager.checkpoint()

    # -- free-form SQL -----------------------------------------------------------

    def query(self, sql: str) -> QueryResult:
        """Run a SQL batch and return the final SELECT's result.

        Every statement served here is traced (when tracing is on) and
        appended to the durable ``QueryLog`` table — the paper's query
        log, self-hosted.
        """
        return self.telemetry.run_query(
            lambda: self.session.query(sql), sql, session=self.session)

    def submit(self, sql: str, output_format: str = "csv") -> str | bytes:
        """Run a query and render it in one of the public output formats."""
        return render(self.query(sql), output_format)

    def explain(self, sql: str) -> str:
        """The query plan, as the engine's EXPLAIN rendering."""
        return self.session.explain(sql)

    def plan_cache_statistics(self) -> dict[str, int]:
        """Hit/miss/invalidation counters of the session's plan cache."""
        return self.session.plan_cache.statistics()

    # -- concurrent serving ------------------------------------------------------

    def start_pool(self, *, workers: int = 8, service_classes=None,
                   result_cache_size: int = 256,
                   # Accepted and ignored: benchmarks/e2e/workloads.py:216
                   # still passes it (ROADMAP item 0 drops that argument).
                   parallelism: int = 1):
        """Start (and attach) a concurrent serving pool over this database.

        Returns the :class:`~repro.skyserver.pool.SkyServerPool`; its
        admission/queue/cache/lock counters appear in
        ``site_statistics()["serving"]`` from then on.  A previously
        attached pool is shut down first.
        """
        from .pool import SkyServerPool

        if self._pool is not None:
            self._pool.shutdown()
        return SkyServerPool(self, workers=workers,
                             service_classes=service_classes,
                             result_cache_size=result_cache_size)

    def attach_pool(self, pool) -> None:
        """Register ``pool`` as this server's serving pool (pool calls this)."""
        self._pool = pool

    @property
    def pool(self):
        return self._pool

    def serving_statistics(self) -> dict[str, Any]:
        """Pool/queue/cache counters plus table-lock contention and epoch."""
        return {
            "pool": self._pool.statistics() if self._pool is not None else None,
            "locks": self.database.concurrency_statistics(),
        }

    # -- the data-mining suite ----------------------------------------------------

    def run_data_mining_query(self, query_id: str) -> QueryExecution:
        """Run one of the 20 benchmark queries (or an SX extra) by id.

        ``cpu_seconds`` is the calling thread's CPU time
        (:func:`time.thread_time`), not the process's, so other threads'
        work is not charged to the query.  Cluster fragments run on the
        calling thread too, so this clock sees them."""
        query = query_by_id(query_id)
        sql = self._resolve_placeholders(query)
        started_wall = time.perf_counter()
        started_cpu = time.thread_time()
        result = self.query(sql)
        return QueryExecution(
            query=query,
            result=result,
            elapsed_seconds=time.perf_counter() - started_wall,
            cpu_seconds=time.thread_time() - started_cpu,
        )

    def run_all_data_mining_queries(self, query_ids: Optional[Sequence[str]] = None, *,
                                    include_additional: bool = False) -> list[QueryExecution]:
        """Run the whole suite (Figure 13's measurement loop)."""
        if query_ids is None:
            queries = list(DATA_MINING_QUERIES)
            if include_additional:
                queries += ADDITIONAL_SIMPLE_QUERIES
            query_ids = [query.query_id for query in queries]
        return [self.run_data_mining_query(query_id) for query_id in query_ids]

    def _resolve_placeholders(self, query: DataMiningQuery) -> str:
        objid = None
        specobjid = None
        if "{objid}" in query.sql:
            row = self._first_row("PhotoObj")
            objid = row["objid"] if row is not None else None
        if "{specobjid}" in query.sql:
            row = self._first_row("SpecObj")
            specobjid = row["specobjid"] if row is not None else None
        return fill_placeholders(query, objid=objid, specobjid=specobjid)

    def _first_row(self, table_name: str) -> Optional[dict]:
        """The first loaded row of a table (the cluster's sequence 0)."""
        if self.cluster is not None:
            return self.cluster.first_row(table_name)
        for _row_id, row in self.database.table(table_name).iter_rows():
            return row
        return None

    # -- the point-and-click interfaces ---------------------------------------------

    def cone_search(self, ra: float, dec: float, radius_arcmin: float) -> list[dict]:
        """The radial search form: objects within a radius, nearest first.

        On a sharded server the HTM cover prunes the scatter to the
        shards whose trixel/declination ranges the cone touches; each
        surviving shard answers through its own htmID index.
        """
        if self.cluster is not None:
            from ..htm import cover_circle
            from .spatial import nearby_from_candidates

            candidates = self.cluster.executor.cone_candidate_rows(
                cover_circle(ra, dec, radius_arcmin))
            return nearby_from_candidates(candidates, ra, dec, radius_arcmin)
        return get_nearby_objects(self.database, ra, dec, radius_arcmin)

    def rectangle_search(self, ra_min: float, dec_min: float,
                         ra_max: float, dec_max: float) -> list[dict]:
        """The rectangular search form (shard-pruned when clustered)."""
        if self.cluster is not None:
            from ..htm import RectangleEq, cover
            from .spatial import rect_from_candidates

            region = RectangleEq(ra_min, ra_max, dec_min, dec_max)
            candidates = self.cluster.executor.cone_candidate_rows(
                cover(region, cover_depth=8))
            return rect_from_candidates(candidates, region)
        return get_objects_in_rect(self.database, ra_min, dec_min, ra_max, dec_max)

    def explore_object(self, obj_id: int) -> dict[str, Any]:
        """The Object Explorer page: the whole record plus everything linked to it."""
        if self.cluster is not None:
            # The explorer reads point lookups across the whole snowflake
            # from the (cached) coordinator copies, locked against a
            # re-gather or release flip between the lookups below.
            names = ["PhotoObj", "Neighbors", "SpecObj", "SpecLine",
                     "USNO", "ROSAT", "FIRST"]
            with self.cluster.gathered(names):
                return self._explore_object_locked(obj_id)
        return self._explore_object_locked(obj_id)

    def _explore_object_locked(self, obj_id: int) -> dict[str, Any]:
        photo = self.database.table("PhotoObj")
        record: Optional[dict] = None
        index = photo.find_index_on(["objID"])
        if index is not None:
            for row_id in index.seek((obj_id,)):
                record = photo.get_row(row_id)
                break
        if record is None:
            for _row_id, row in photo.iter_rows():
                if row["objid"] == obj_id:
                    record = row
                    break
        if record is None:
            raise KeyError(f"no PhotoObj with objID {obj_id}")
        neighbors = [row for _rid, row in self.database.table("Neighbors").iter_rows()
                     if row["objid"] == obj_id] if self.database.has_table("Neighbors") else []
        spectrum = None
        lines: list[dict] = []
        if record["specobjid"]:
            spec = self.database.table("SpecObj")
            for _row_id, row in spec.iter_rows():
                if row["specobjid"] == record["specobjid"]:
                    spectrum = row
                    break
            line_table = self.database.table("SpecLine")
            line_index = line_table.find_index_on(["specObjID"])
            if line_index is not None:
                lines = [line_table.get_row(rid) for rid in line_index.seek((record["specobjid"],))]
            else:
                lines = [row for _rid, row in line_table.iter_rows()
                         if row["specobjid"] == record["specobjid"]]
        crossmatches = {}
        for survey in ("USNO", "ROSAT", "FIRST"):
            matches = [row for _rid, row in self.database.table(survey).iter_rows()
                       if row["objid"] == obj_id]
            if matches:
                crossmatches[survey] = matches[0]
        return {
            "photo": record,
            "neighbors": neighbors,
            "spectrum": spectrum,
            "spectral_lines": [line for line in lines if line is not None],
            "crossmatches": crossmatches,
            "explorer_url": url_for_object(obj_id),
            "navigation_url": url_for_navigation(record["ra"], record["dec"]),
        }

    def famous_places(self, count: int = 10) -> list[dict]:
        """The 'coffee-table atlas': the most photogenic (brightest large) galaxies."""
        result = self.query(f"""
            select top {int(count)} objID, ra, dec, modelMag_r, petroRad_r,
                   dbo.fGetUrlExpId(objID) as url
            from Galaxy
            where petroRad_r > 2
            order by modelMag_r
        """)
        return result.rows

    # -- metadata -------------------------------------------------------------------

    def storage_statistics(self) -> dict[str, Any]:
        """The segment/compression report behind ``site_statistics()["storage"]``.

        Per-table encoded vs. logical bytes and compression ratio from
        the column stores' sealed segments (summed across the shards
        when clustered), plus how many segments this server's queries
        actually scanned vs. let the zone maps skip.
        """
        databases = ([node.database for node in self.cluster.shards]
                     if self.cluster is not None else [self.database])
        tables: dict[str, dict[str, Any]] = {}
        for database in databases:
            for name in database.table_names():
                table = database.table(name)
                report = getattr(table.storage, "storage_statistics", None)
                if report is None:
                    continue
                stats = report()
                entry = tables.get(table.name)
                if entry is None:
                    tables[table.name] = dict(stats)
                    continue
                for key in ("segments", "segments_sealed", "sealed_rows",
                            "tail_rows", "encoded_bytes", "logical_bytes"):
                    entry[key] += stats[key]
                for encoding, count in stats["encodings"].items():
                    entry["encodings"][encoding] = (
                        entry["encodings"].get(encoding, 0) + count)
                entry["compression_ratio"] = (
                    entry["logical_bytes"] / entry["encoded_bytes"]
                    if entry["encoded_bytes"] else 1.0)
        encoded = sum(entry["encoded_bytes"] for entry in tables.values())
        logical = sum(entry["logical_bytes"] for entry in tables.values())
        modes = self.session.execution_mode_statistics()
        return {
            "tables": tables,
            "encoded_bytes": encoded,
            "logical_bytes": logical,
            "compression_ratio": (logical / encoded) if encoded else 1.0,
            "segments_scanned": modes.get("segments_scanned", 0),
            "segments_skipped": modes.get("segments_skipped", 0),
            "durability": self.durability_statistics(),
        }

    def durability_statistics(self) -> Optional[dict[str, Any]]:
        """On-disk bytes, WAL size and checkpoint freshness (None when
        the server is memory-only).  Summed across the coordinator and
        every shard for a durable cluster."""
        managers = self._durability_managers()
        if not managers:
            return None
        reports = [manager.statistics() for manager in managers]
        return {
            "path": (self.cluster.durability["path"]
                     if self.cluster is not None else reports[0]["path"]),
            "on_disk_bytes": sum(r["on_disk_bytes"] for r in reports),
            "wal_bytes": sum(r["wal_bytes"] for r in reports),
            "wal_records_since_checkpoint": sum(
                r["wal_records_since_checkpoint"] for r in reports),
            "checkpoints_written": sum(r["checkpoints_written"]
                                       for r in reports),
            "last_checkpoint_age_seconds": max(
                (r["last_checkpoint_age_seconds"] for r in reports
                 if r["last_checkpoint_age_seconds"] is not None),
                default=None),
            "fsync": any(r["fsync"] for r in reports),
        }

    def site_statistics(self) -> dict[str, Any]:
        """Row counts, sizes and execution counters: the 'about the data' page."""
        if self.cluster is not None:
            tables = self.cluster.size_report()
            total_bytes = sum(entry["total_bytes"] for entry in tables)
        else:
            tables = self.database.size_report()
            total_bytes = self.database.total_bytes()
        return {
            "site": self.site_name,
            "limits": self.limits.describe(),
            "tables": tables,
            "total_bytes": total_bytes,
            "plan_cache": self.plan_cache_statistics(),
            "execution_modes": self.session.execution_mode_statistics(),
            "optimizer": {
                "plans": self.session.optimizer_statistics(),
                "statistics_freshness": self.database.statistics_freshness(),
            },
            "serving": self.serving_statistics(),
            "storage": self.storage_statistics(),
            "cluster": (self.cluster.statistics()
                        if self.cluster is not None else None),
        }

    # -- telemetry ------------------------------------------------------------------

    def telemetry_report(self) -> dict[str, Any]:
        """One structured snapshot unifying the scattered statistics.

        The ``telemetry`` section carries the server-level latency
        histogram (p50/p95/p99), tracer and metrics-registry snapshots,
        query-log counters and the recent slow queries; ``pool`` adds
        the serving pool's queue-wait/execution percentiles; ``site``
        embeds the familiar ``site_statistics()`` payload; ``traffic``
        is the Figure-5-style analysis of our own query log.
        """
        report: dict[str, Any] = {
            "telemetry": self.telemetry.snapshot(),
            "pool": (self._pool.statistics()
                     if self._pool is not None else None),
            "site": self.site_statistics(),
        }
        traffic = self.traffic_report()
        report["traffic"] = (traffic.summary_rows()
                             if traffic is not None else None)
        return report

    def query_log_rows(self, *, limit: Optional[int] = None) -> list[dict]:
        """The ``QueryLog`` table's rows, read back through plain SQL
        (dogfooding: the log is data, exactly as the paper used it).
        The direct path flushes the log's pending rows first, so every
        statement served before this call is there."""
        if self.telemetry.logger is None:
            return []
        sql = "select * from QueryLog order by logID"
        rows = self.query(sql).rows
        return rows[-limit:] if limit is not None else rows

    def traffic_report(self):
        """Figure-5-style analysis over our own query log (or ``None``
        when the query log is disabled or still empty)."""
        from ..traffic import analyze_query_log

        rows = self.query_log_rows()
        if not rows:
            return None
        return analyze_query_log(rows)
