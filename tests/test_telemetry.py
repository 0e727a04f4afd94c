"""Observability tests: metrics, traces, the query log and invariance.

The layer's one hard ground rule — tracing off produces byte-identical
plans and results, tracing on changes only counters — is attacked with
hypothesis over random queries under both storage layouts and shard
counts 1 and 4.  Unit tests cover histogram
percentile math, span parenting (including explicit cross-thread
parents), the durable query log's recovery round-trip, and the
acceptance path: one pooled query on a four-shard server produces a
single trace holding admission, plan, per-shard fragment and merge
spans that all share the query id.
"""

from __future__ import annotations

import shutil
import sys
import threading
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine import (Database, Planner, PrimaryKey, bigint, floating,
                          integer)
from repro.engine.catalog import View
from repro.engine.explain import plan_operators
from repro.engine.sql import parse_expression, parse_select
from repro.skyserver import (ClusterConfig, QueryLimits, ServerConfig, SkyServer,
                             TelemetryConfig)
from repro.skyserver.pool import SkyServerPool
from repro.telemetry import (LatencyHistogram, MetricsRegistry, Telemetry,
                             Tracer, TRACER, render_trace)
from repro.telemetry.querylog import GROUP_COMMIT_ROWS
from repro.traffic import analyze_query_log

INVARIANCE_SETTINGS = settings(deadline=None, max_examples=15)


@pytest.fixture(autouse=True)
def _restore_tracer():
    """Constructing servers flips the global tracer; put it back."""
    enabled = TRACER.enabled
    capacity = TRACER.capacity
    yield
    TRACER.enabled = enabled
    TRACER.capacity = capacity
    TRACER.reset()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("c") is counter
        gauge = registry.gauge("g")
        gauge.set(2.5)
        gauge.add(-0.5)
        assert gauge.value == 2.0

    def test_histogram_percentiles_are_ordered_and_bounded(self):
        histogram = LatencyHistogram("t")
        values = [0.0005 * i for i in range(1, 201)]   # 0.5ms .. 100ms
        for value in values:
            histogram.observe(value)
        p50 = histogram.percentile(50.0)
        p95 = histogram.percentile(95.0)
        p99 = histogram.percentile(99.0)
        assert 0.0 < p50 <= p95 <= p99 <= max(values)
        # The bucket bounds double, so the estimate is within 2x of the
        # exact rank statistic.
        assert p50 == pytest.approx(0.050, rel=1.0)
        assert p99 == pytest.approx(0.099, rel=1.0)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 200
        assert snapshot["p50_ms"] <= snapshot["p95_ms"] <= snapshot["p99_ms"]
        assert snapshot["max_ms"] == pytest.approx(100.0, rel=0.01)

    def test_histogram_single_value_is_exactish(self):
        histogram = LatencyHistogram("one")
        histogram.observe(0.010)
        # Interpolation is clamped into [min, max] of what was observed.
        for q in (50.0, 95.0, 99.0):
            assert histogram.percentile(q) == pytest.approx(0.010)

    def test_registry_reset_keeps_handles_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("kept")
        counter.inc(7)
        gauge = registry.gauge("level")
        gauge.set(3.0)
        histogram = registry.histogram("latency")
        histogram.observe(0.25)
        registry.reset()
        assert counter.value == 0 and gauge.value == 0.0
        assert histogram.count == 0 and histogram.percentile(50.0) == 0.0
        counter.inc()
        histogram.observe(0.002)
        assert registry.counter("kept").value == 1
        assert registry.histogram("latency").snapshot()["max_ms"] == 2.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("h").observe(0.001)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 1}
        assert snapshot["histograms"]["h"]["count"] == 1


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("query", sql="select 1") as span:
            span.attributes["rows"] = 1   # dead store by design
        assert tracer.query_ids() == []
        assert tracer.statistics()["spans_recorded"] == 0

    def test_nested_spans_parent_by_stack(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("query") as root:
            with tracer.span("plan"):
                pass
            with tracer.span("execute") as execute:
                assert tracer.current() is execute
        spans = tracer.trace(root.query_id)
        names = {span.name: span for span in spans}
        assert names["plan"].parent_id == root.span_id
        assert names["execute"].parent_id == root.span_id
        assert {span.query_id for span in spans} == {root.query_id}

    def test_explicit_parent_crosses_threads(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("query") as root:
            def fragment():
                # The worker thread has an empty span stack; the dispatch
                # site's captured parent is the only link.
                with tracer.span("fragment", parent=root):
                    pass
            thread = threading.Thread(target=fragment)
            thread.start()
            thread.join()
        spans = tracer.trace(root.query_id)
        fragment_span = next(s for s in spans if s.name == "fragment")
        assert fragment_span.parent_id == root.span_id
        assert fragment_span.query_id == root.query_id

    def test_retroactive_record_backdates(self):
        tracer = Tracer()
        tracer.enabled = True
        base = time.perf_counter()
        span = tracer.record("pool.admission", started=base,
                             ended=base + 0.25, queue_wait_ms=250.0)
        assert span is not None
        assert span.duration_seconds == pytest.approx(0.25)

    def test_capacity_evicts_oldest_trace(self):
        tracer = Tracer(capacity=2)
        tracer.enabled = True
        ids = []
        for _ in range(3):
            with tracer.span("query") as span:
                ids.append(span.query_id)
        assert tracer.query_ids() == ids[1:]
        assert tracer.trace(ids[0]) == []
        assert tracer.statistics()["traces_evicted"] == 1

    def test_render_trace_indents_children(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("query") as root:
            with tracer.span("execute"):
                pass
        text = render_trace(tracer.trace(root.query_id))
        lines = text.splitlines()
        assert lines[0].startswith("query ")
        assert lines[1].startswith("  execute ")


# ---------------------------------------------------------------------------
# Invariance: tracing must never change plans or results
# ---------------------------------------------------------------------------

INVARIANCE_QUERIES = [
    "select objid, mag, run from obj where mag < 21 and run % 3 = 0",
    "select top 7 objid, mag from obj where mag > 15 order by objid",
    "select distinct run from obj where mag < 22",
    "select run, count(*) as n, sum(mag) as s, avg(mag) as a "
    "from obj group by run",
]


def _build_obj(storage: str, rows) -> Database:
    database = Database(f"telemetry-{storage}")
    table = database.create_table("obj", [
        bigint("objid"), floating("mag"), integer("run"),
    ], primary_key=PrimaryKey(["objid"]), storage=storage)
    table.insert_many({"objid": index, "mag": mag, "run": run}
                      for index, (mag, run) in enumerate(rows))
    database.analyze()
    return database


def _plan_and_run(database: Database, sql: str):
    planner = Planner(database)
    plan = planner.plan(parse_select(sql))
    return plan_operators(plan), plan.execute()


@INVARIANCE_SETTINGS
@given(rows=st.lists(
        st.tuples(st.floats(min_value=14.0, max_value=24.0, allow_nan=False),
                  st.integers(min_value=0, max_value=9)),
        min_size=0, max_size=80),
       query_index=st.integers(min_value=0, max_value=63),
       storage=st.sampled_from(["row", "column"]))
def test_tracing_is_invisible_to_single_node_queries(rows, query_index,
                                                     storage):
    database = _build_obj(storage, rows)
    sql = INVARIANCE_QUERIES[query_index % len(INVARIANCE_QUERIES)]
    enabled_before = TRACER.enabled
    try:
        TRACER.enabled = False
        off_ops, off = _plan_and_run(database, sql)
        TRACER.enabled = True
        on_ops, on = _plan_and_run(database, sql)
    finally:
        TRACER.enabled = enabled_before
    assert on_ops == off_ops
    assert repr(on.rows) == repr(off.rows)
    assert on.columns == off.columns


@pytest.mark.parametrize("shards", [1, 4])
def test_tracing_is_invisible_to_cluster_queries(shards):
    from repro.cluster import ClusterSession, ShardCluster

    def build() -> Database:
        import random

        database = Database("telemetry-cluster")
        obj = database.create_table(
            "Obj", [bigint("objID"), floating("mag"), integer("run")],
            primary_key=PrimaryKey(["objID"]))
        rng = random.Random(20020603)
        obj.insert_many({"objID": i * 7 + 1, "mag": rng.uniform(14.0, 24.0),
                         "run": rng.randint(0, 5)} for i in range(300))
        database.analyze()
        return database

    queries = [
        "select objID, mag from Obj where mag < 18 order by objID",
        "select run, count(*) as n from Obj group by run order by run",
    ]
    cluster = ShardCluster.from_database(build(), shards=shards,
                                         partition="hash")
    session = ClusterSession(cluster)
    enabled_before = TRACER.enabled
    try:
        for sql in queries:
            TRACER.enabled = False
            off = session.query(sql)
            TRACER.enabled = True
            on = session.query(sql)
            assert repr(on.rows) == repr(off.rows), sql
            assert on.columns == off.columns, sql
    finally:
        TRACER.enabled = enabled_before


# ---------------------------------------------------------------------------
# The durable query log
# ---------------------------------------------------------------------------

def _toy_server(tracing: bool = True) -> SkyServer:
    database = Database("telemetry-server")
    table = database.create_table("Obj", [bigint("objID"), floating("mag")],
                                  primary_key=PrimaryKey(["objID"]))
    table.insert_many({"objID": i, "mag": 14.0 + i * 0.01}
                      for i in range(50))
    return SkyServer(database, limits=QueryLimits.private(),
                     telemetry=TelemetryConfig(tracing=tracing))


class TestQueryLog:
    def test_queries_are_logged_and_queryable_via_sql(self):
        server = _toy_server()
        server.query("select count(*) as n from Obj where mag < 14.2")
        result = server.query(
            "select sqlText, status, rowCount from QueryLog order by logID")
        assert len(result.rows) >= 1
        assert "count(*)" in result.column("sqlText")[0]
        assert result.column("status")[0] == "done"
        assert result.column("rowCount")[0] == 1

    def test_failed_queries_are_logged_with_error(self):
        server = _toy_server()
        with pytest.raises(Exception):
            server.query("select nope from Obj")
        rows = server.query_log_rows()
        failed = [row for row in rows if row["status"] == "failed"]
        assert failed and "nope" in failed[-1]["error"].lower()

    def test_log_survives_close_and_open(self, tmp_path):
        server = _toy_server()
        server.query("select count(*) as n from Obj")
        durable = server.make_durable(tmp_path / "db")
        durable.query("select top 3 objID from Obj order by objID")
        logged = len(durable.query_log_rows())
        durable.close()

        reopened = SkyServer.open(tmp_path / "db")
        try:
            rows = reopened.query_log_rows()
            # Everything logged before close() is back (close checkpoints;
            # the read itself appends to the reopened log afterwards).
            assert len(rows) >= logged
            reopened.query("select count(*) as n from Obj")
            ids = [row["logid"] for row in reopened.query_log_rows()]
            assert ids == sorted(ids)
            assert len(ids) == len(set(ids))
        finally:
            reopened.close()

    def test_slow_query_flagging(self):
        database = Database("slow")
        database.create_table("T", [bigint("a")])
        server = SkyServer(database, limits=QueryLimits.private(),
                           telemetry=TelemetryConfig(slow_query_seconds=0.0))
        server.query("select count(*) as n from T")
        rows = server.query_log_rows()
        assert rows and rows[0]["slow"] is True
        assert server.telemetry.logger.slow_queries()

    def test_disabled_query_log(self):
        database = Database("nolog")
        database.create_table("T", [bigint("a")])
        server = SkyServer(database, limits=QueryLimits.private(),
                           telemetry=TelemetryConfig(query_log=False))
        server.query("select count(*) as n from T")
        assert not database.has_table("QueryLog")
        assert server.query_log_rows() == []
        assert server.traffic_report() is None


# ---------------------------------------------------------------------------
# Group commit: the log's contract
# ---------------------------------------------------------------------------

_COUNT_LOG = "select count(*) as n from QueryLog"


def _await_recorded(logger, count: int) -> None:
    """Wait until ``count`` statements are recorded: a pooled miss is
    recorded on its worker just after its client is woken."""
    deadline = time.monotonic() + 10.0
    while logger.recorded < count:
        assert time.monotonic() < deadline, (logger.recorded, count)
        time.sleep(0.001)


def _log_rows(server: SkyServer) -> list[dict]:
    return [row for _row_id, row in
            server.database.table("QueryLog").iter_rows()]


class TestGroupCommit:
    def test_pooled_reader_sees_every_row_logged_before_it(self):
        server = _toy_server()
        pool = server.start_pool(workers=2)
        logger = server.telemetry.logger
        try:
            for mag in (14.1, 14.2, 14.1, 14.1, 14.3):   # misses and hits
                pool.execute(f"select count(*) as n from Obj where mag < {mag}")
            for expected in (5, 6):
                _await_recorded(logger, expected)
                assert len(logger._pending) > 0
                # Never served from the result cache: the second read
                # sees the first one's own row.
                assert pool.execute(_COUNT_LOG).rows[0]["n"] == expected
        finally:
            server.close()

    def test_direct_reader_sees_every_row_logged_before_it(self):
        server = _toy_server()
        for mag in (14.1, 14.2, 14.1):
            server.query(f"select count(*) as n from Obj where mag < {mag}")
        assert server.query(_COUNT_LOG).rows[0]["n"] == 3
        assert server.query(_COUNT_LOG).rows[0]["n"] == 4

    def test_reader_through_a_view_flushes_too(self):
        server = _toy_server()
        server.database.create_view(
            View("DoneLog", "QueryLog", parse_expression("status = 'done'")))
        pool = server.start_pool(workers=2)
        try:
            for _ in range(4):
                pool.execute("select count(*) as n from Obj")
            _await_recorded(server.telemetry.logger, 4)
            assert pool.execute(
                "select count(*) as n from DoneLog").rows[0]["n"] == 4
        finally:
            server.close()

    def test_log_ids_unique_and_appended_in_record_order(self):
        """Four clients on four workers (more threads than cores, short
        switch interval): every statement gets its own id, ids run
        1..N without a gap, and batches reach the table in id order."""
        server = _toy_server()
        pool = server.start_pool(workers=4)
        statements = [f"select count(*) as n from Obj where mag < {14 + i % 37 / 100}"
                      for i in range(200)]

        def client(part):
            for sql in part:
                pool.execute(sql, timeout=10.0)

        threads = [threading.Thread(target=client, args=(statements[i::4],))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        server.close()
        ids = [row["logid"] for row in _log_rows(server)]
        # Table order is append order.
        assert ids == list(range(1, len(statements) + 1))

    def test_a_coalesced_ticket_is_logged_once(self):
        """A ticket parked behind a leader running the same query is
        logged on the leader's thread alone, even when the leader
        resolves it before the parked ticket's worker returns."""
        server = _toy_server()
        pool = server.start_pool(workers=2)
        execute, run_inner = pool._execute, pool._run_ticket_inner

        def slow_execute(*args):
            time.sleep(0.2)        # the twin parks behind this leader
            return execute(*args)

        def late_return(ticket, sessions):
            parked = run_inner(ticket, sessions)
            ticket.result(5.0)     # the leader resolved it: now return
            return parked

        pool._execute, pool._run_ticket_inner = slow_execute, late_return
        sql = "select count(*) as n from Obj where mag < 14.25"
        tickets = [pool.submit(sql), pool.submit(sql)]
        assert [ticket.result(5.0).rows for ticket in tickets] == [[{"n": 25}]] * 2
        assert pool.coalesced == 1
        server.close()
        assert [row["sqltext"] for row in _log_rows(server)] == [sql, sql]

    def test_pending_rows_count_in_statistics(self):
        server = _toy_server()
        pool = server.start_pool(workers=2)
        try:
            for _ in range(10):
                pool.execute("select count(*) as n from Obj")
            _await_recorded(server.telemetry.logger, 10)
            statistics = server.telemetry.logger.statistics()
            assert statistics["entries"] == statistics["recorded"] == 10
            assert server.database.table("QueryLog").row_count < 10
        finally:
            server.close()

    @pytest.mark.parametrize("finish", ["close", "checkpoint"])
    def test_close_and_checkpoint_write_pending_rows(self, tmp_path, finish):
        server = _toy_server().make_durable(tmp_path / "db")
        pool = server.start_pool(workers=2)
        for _ in range(10):
            pool.execute("select count(*) as n from Obj")
        _await_recorded(server.telemetry.logger, 10)
        if finish == "close":
            server.close()
            directory = tmp_path / "db"
        else:
            server.checkpoint()
            # A crash right after the checkpoint: copy without close().
            directory = tmp_path / "copy"
            shutil.copytree(tmp_path / "db", directory)
            server.close()
        reopened = SkyServer.open(directory)
        try:
            assert len(_log_rows(reopened)) == 10
        finally:
            reopened.close()

    def test_abandoned_server_loses_only_pending_log_rows(self, tmp_path):
        server = _toy_server().make_durable(tmp_path / "db")
        pool = server.start_pool(workers=2)
        table = server.database.table("Obj")
        served = 150
        for index in range(served):
            table.insert({"objID": 1000 + index, "mag": 20.0})
            pool.execute(f"select count(*) as n from Obj where mag < {14 + index}")
        logger = server.telemetry.logger
        _await_recorded(logger, served)
        with logger._flush_lock:        # no batch half-written
            pending = len(logger._pending)
            shutil.copytree(tmp_path / "db", tmp_path / "crash")
        assert 0 < pending < GROUP_COMMIT_ROWS
        server.close()
        reopened = SkyServer.open(tmp_path / "crash")
        try:
            assert reopened.database.table("Obj").row_count == 50 + served
            logged = _log_rows(reopened)
            assert len(logged) == served - pending
            assert served - len(logged) <= GROUP_COMMIT_ROWS - 1
        finally:
            reopened.close()

    def test_cache_hits_append_one_wal_record_per_batch(self, tmp_path):
        """1,000 result-cache hits on a durable server write at most
        ceil(1000 / 64) + 1 WAL records, not one per hit."""
        server = _toy_server().make_durable(tmp_path / "db")
        pool = server.start_pool(workers=2)
        try:
            sql = "select count(*) as n from Obj where mag < 14.3"
            pool.execute(sql)
            server.checkpoint()
            hits = 1000
            for _ in range(hits):
                assert pool.submit(sql).cache_hit
            records = server.durability_statistics()[
                "wal_records_since_checkpoint"]
            assert records <= -(-hits // GROUP_COMMIT_ROWS) + 1
            assert records == hits // GROUP_COMMIT_ROWS
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Traffic analysis over the log
# ---------------------------------------------------------------------------

class TestQueryTraffic:
    def test_analyze_query_log_aggregates(self):
        rows = [
            {"sqltext": "select a from t", "userclass": "public",
             "status": "done", "rowcount": 10, "elapsedms": 5.0,
             "cachehit": False, "plancached": False, "slow": False},
            {"sqltext": "select a from t", "userclass": "public",
             "status": "done", "rowcount": 10, "elapsedms": 1.0,
             "cachehit": True, "plancached": True, "slow": False},
            {"sqltext": "select b from u", "userclass": "power",
             "status": "failed", "rowcount": 0, "elapsedms": 100.0,
             "cachehit": False, "plancached": False, "slow": True},
        ]
        report = analyze_query_log(rows)
        assert report.total_queries == 3
        assert report.completed == 2 and report.failed == 1
        assert report.cache_hits == 1 and report.slow_queries == 1
        assert report.cache_hit_fraction == pytest.approx(1 / 3)
        assert report.p50_elapsed_ms == 5.0
        assert report.max_elapsed_ms == 100.0
        assert report.by_class == {"public": 2, "power": 1}
        assert report.top_statements[0] == ("select a from t", 2)
        summary = dict(report.summary_rows())
        assert summary["queries logged"] == "3"

    def test_analyze_empty_log_raises(self):
        with pytest.raises(ValueError):
            analyze_query_log([])

    def test_traffic_report_over_live_server(self):
        server = _toy_server()
        for _ in range(3):
            server.query("select count(*) as n from Obj")
        report = server.traffic_report()
        assert report is not None
        assert report.total_queries >= 3
        # The direct (unpooled) path has no result cache, but the plan
        # cache serves the repeats — the log records that flag.
        assert report.plan_cache_hits >= 1
        assert any(label == "result-cache hit rate"
                   for label, _ in report.summary_rows())


# ---------------------------------------------------------------------------
# Server + pool integration (the acceptance path)
# ---------------------------------------------------------------------------

class TestServerIntegration:
    def test_explain_analyze_prints_operator_times(self):
        server = _toy_server()
        text = server.session.explain(
            "select top 3 objID from Obj where mag > 14.1 order by objID",
            analyze=True)
        assert "actual rows=" in text
        assert "time=" in text
        # The next untimed execution of the same (cached) plan clears the
        # timings: plain EXPLAIN then shows actual rows but no times.
        server.query(
            "select top 3 objID from Obj where mag > 14.1 order by objID")
        plain = server.session.explain(
            "select top 3 objID from Obj where mag > 14.1 order by objID")
        assert "actual rows=" in plain
        assert "time=" not in plain

    def test_single_node_query_produces_a_trace(self):
        server = _toy_server()
        server.query("select count(*) as n from Obj where mag < 20")
        spans = TRACER.last_trace()
        names = [span.name for span in spans]
        assert "query" in names and "plan" in names and "execute" in names
        root = next(span for span in spans if span.name == "query")
        assert all(span.query_id == root.query_id for span in spans)

    def test_pooled_sharded_query_traces_end_to_end(self):
        server = SkyServer.create(ServerConfig(cluster=ClusterConfig(shards=4)))
        pool = SkyServerPool(server, workers=2)
        try:
            ticket = pool.submit(
                "select count(*) from PhotoObj where ra > 100")
            ticket.result()
            spans = TRACER.trace(ticket.query_id)
            names = [span.name for span in spans]
            for expected in ("query", "pool.admission", "plan",
                             "execute", "fragment", "merge"):
                assert expected in names, (expected, names)
            assert len([n for n in names if n == "fragment"]) == 4
            root = next(span for span in spans if span.name == "query")
            assert all(span.query_id == root.query_id for span in spans)
            # Fragments parent into the execute span that dispatched them.
            execute = next(span for span in spans if span.name == "execute")
            for span in spans:
                if span.name == "fragment":
                    assert span.parent_id == execute.span_id

            statistics = pool.statistics()
            assert statistics["latency"]["queue_wait"]["count"] >= 1
            assert statistics["latency"]["execution"]["p95_ms"] > 0.0

            report = server.telemetry_report()
            latency = report["telemetry"]["latency"]
            assert latency["count"] >= 1
            assert latency["p50_ms"] > 0.0
            assert latency["p95_ms"] >= latency["p50_ms"]
            assert latency["p99_ms"] >= latency["p95_ms"]
            assert report["pool"] is not None
        finally:
            pool.shutdown()

    def test_telemetry_report_shape(self):
        server = _toy_server()
        server.query("select count(*) as n from Obj")
        report = server.telemetry_report()
        telemetry = report["telemetry"]
        assert telemetry["queries"] >= 1
        assert telemetry["latency"]["count"] >= 1
        assert "metrics" in telemetry
        assert report["traffic"] is not None

    def test_telemetry_disabled_still_serves(self):
        database = Database("dark")
        database.create_table("T", [bigint("a")])
        server = SkyServer(database, limits=QueryLimits.private(),
                           telemetry=TelemetryConfig(tracing=False,
                                                     query_log=False))
        TRACER.reset()
        result = server.query("select count(*) as n from T")
        assert result.rows[0]["n"] == 0
        assert TRACER.query_ids() == []


def test_server_config_carries_telemetry():
    config = ServerConfig()
    assert config.telemetry.tracing is True
    assert config.telemetry.query_log is True


def test_telemetry_runtime_snapshot_counts_failures():
    database = Database("failures")
    database.create_table("T", [bigint("a")])
    telemetry = Telemetry(database, query_log=False)
    with pytest.raises(ValueError):
        telemetry.run_query(lambda: (_ for _ in ()).throw(ValueError("x")),
                            "select 1")
    snapshot = telemetry.snapshot()
    assert snapshot["failures"] == 1
