"""Per-layer numbers of a traced run.

Each layer is measured from outside: self time of the spans
``harness.instrument`` put around its entry points, its public counters
(``QueryResult.statistics``, ``QueryTicket`` fields, ``pool.statistics()``,
``cluster.statistics()``, ``durability_statistics()``,
``concurrency_statistics()``), or a direct call timed on its own.
Times are reference time, like the end-to-end metrics.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Optional

from repro.engine import Planner, SqlSession
from repro.htm import cover_circle
from repro.skyserver import SkyServer, get_nearby_objects, render
from repro.skyserver.queries import CATEGORY_SCAN, DATA_MINING_QUERIES

from harness import Span, median, percentile, self_seconds
from workloads import (HEAVY_FIVE, Interval, Reads, Run, TrickleWriter, Writes,
                       class_medians, suite_seconds)


def per_layer_metrics(run: Run, server: SkyServer, report, reads: Reads,
                      writes: Writes, opens: list[Interval],
                      trickle: Optional[TrickleWriter], before: dict, after: dict,
                      disk_after_setup: Optional[int]) -> None:
    """Everything a traced run reports; times in reference units."""
    layer = run.per_layer
    spans = run.recorder.spans

    def self_by_name(chosen: list[Span]) -> dict[str, float]:
        return self_seconds(chosen, lambda span: run.meter.factor(span.start, span.end))

    # Set-up: self time by layer; the load's own remainder is unattributed.
    setup = self_by_name(spans[:reads.first_span])
    for name in ("pipeline.generate", "loader.steps", "schema.indices", "schema.neighbors",
                 "loader.validate", "engine.storage.convert", "engine.stats.analyze",
                 "cluster.shard.split"):
        layer[f"{name}_s"] = setup.get(name, 0.0)
    load = next(span for span in spans[:reads.first_span] if span.name == "loader.load")
    layer["loader.unattributed_fraction"] = load.self_time / load.duration
    layer["loader.load_rows_per_s"] = report.rows_loaded / run.reference((load.start, load.end))

    # The statement path: self time by layer over the traced read requests.
    read_self = self_by_name(spans[reads.first_span:writes.first_span])
    traced = max(1, reads.traced_requests)
    for name, metric in (("engine.sql.parse", "engine.sql.parse_ms"),
                         ("engine.planner.plan", "engine.planner.plan_ms"),
                         ("engine.operators.execute", "engine.operators.execute_ms"),
                         ("telemetry", "telemetry.overhead_ms_per_query"),
                         ("cluster.planner.plan", "cluster.planner.plan_ms"),
                         ("cluster.executor.execute", "cluster.executor.execute_ms"),
                         ("skyserver.pool.handoff", "skyserver.pool.handoff_ms")):
        layer[metric] = read_self.get(name, 0.0) / traced * 1000.0
    request_total = sum(run.reference((span.start, span.end))
                        for span in spans[reads.first_span:writes.first_span]
                        if span.name == "request")
    if request_total > 0:
        layer["harness.unattributed_fraction"] = read_self.get("request", 0.0) / request_total
    if reads.traced and reads.untraced:
        # Class medians weighted by how often the class occurs: a plain
        # mean over requests is set by which blocks drew the few 30 ms
        # rectangle scans.  (On fig13 every class occurs equally often,
        # so this is traced suite_s / untraced suite_s.)
        with_spans = class_medians(run, reads.traced)
        without = class_medians(run, reads.untraced)
        shared = [label for label in with_spans if label in without]
        layer["harness.trace_overhead_ratio"] = (
            sum(len(reads.by_class[label]) * with_spans[label] for label in shared)
            / sum(len(reads.by_class[label]) * without[label] for label in shared))
    layer["harness.machine_speed"] = run.meter.speed()

    # Counters.
    executed = max(1, reads.executed)
    layer["engine.plan_cache.hit_rate"] = reads.plan_cache_hits / executed
    layer["engine.operators.rows_scanned_per_row_returned"] = (
        reads.rows_scanned / max(1, reads.rows_returned))
    layer["engine.operators.batch_fraction"] = reads.batch_executions / executed
    segments = reads.segments_scanned + reads.segments_skipped
    layer["engine.segments.skipped_fraction"] = (
        reads.segments_skipped / segments if segments else 0.0)
    storage = server.storage_statistics()
    layer["engine.segments.compression_ratio"] = (
        storage["compression_ratio"] if storage["encoded_bytes"] else 0.0)
    results = list(reads.last_result.values())
    layer["skyserver.formats.render_csv_ms"] = timed(run, lambda: [
        render(result, "csv") for result in results]) / max(1, len(results)) * 1000.0

    kind_medians = class_medians(run, reads.by_kind)
    if reads.fixed_suite:
        layer["fig13.suite_s"] = suite_seconds(kind_medians)
        layer["fig13.light_s"] = suite_seconds(kind_medians, skip=HEAVY_FIVE)
        for qid, value in kind_medians.items():
            layer[f"fig13.{qid}_ms"] = value * 1000.0

    if server.pool is not None:
        layer["skyserver.pool.queue_wait_p50_ms"] = median(
            [run.reference(i) for i in reads.queue_waits]) * 1000.0
        layer["skyserver.pool.service_p50_ms"] = median(
            [run.reference(i) for i in reads.services]) * 1000.0
        layer["skyserver.pool.cached_hit_ms"] = median(
            [run.reference(i) for i in reads.by_class.get("hit", [])]) * 1000.0
        layer["skyserver.pool.result_cache_hit_rate"] = reads.cache_hits / max(1, reads.requests)
        layer["skyserver.pool.result_cache_evictions"] = (
            after["pool"]["result_cache"]["evictions"]
            - before["pool"]["result_cache"]["evictions"])
        layer["skyserver.pool.coalesced"] = (
            after["pool"]["coalesced"] - before["pool"]["coalesced"])
        for kind in ("cone", "explore", "colour", "topn", "rect"):
            layer[f"skyserver.pool.kind.{kind}_p50_ms"] = kind_medians.get(kind, 0.0) * 1000.0

    if server.cluster is not None:
        cluster = server.cluster.statistics()
        queries = cluster["queries"]
        layer["cluster.fallback_fraction"] = queries["fallback"] / max(1, sum(queries.values()))
        fragments = cluster["fragments"]
        layer["cluster.fragments_pruned_fraction"] = (
            fragments["pruned"] / max(1, fragments["pruned"] + fragments["executed"]))
        layer["cluster.gather_s"] = max(0.0, run.reference(reads.warmup_pass) - median(
            [run.reference(block) for block in reads.blocks]))
        layer["cluster.rows_gathered"] = cluster["gather"]["rows_gathered"]
        layer["cluster.merge.rows_merged"] = cluster["merge"]["rows_merged"]

    # The write path: spans around the burst's own calls.
    write_spans = spans[writes.first_span:]
    write_self = self_by_name(write_spans)
    calls: dict[str, int] = {}
    for span in write_spans:
        calls[span.name] = calls.get(span.name, 0) + 1

    def per_call(name: str, scale: float, count: Optional[int] = None) -> float:
        count = count or calls.get(name, 0)
        return write_self.get(name, 0.0) / count * scale if count else 0.0
    layer["engine.table.insert_us"] = per_call("engine.table.insert", 1e6)
    layer["engine.table.insert_p50_ms"] = median(
        [run.reference(i) for i in writes.inserts]) * 1000.0
    layer["engine.table.insert_many_us_per_row"] = per_call(
        "engine.table.insert_many", 1e6, writes.rows - len(writes.inserts))
    layer["engine.table.delete_where_ms"] = per_call("engine.table.delete_where", 1e3)
    layer["storage.format.encode_us"] = per_call("storage.format.encode", 1e6)
    layer["storage.wal.append_us"] = per_call("storage.wal.append", 1e6)
    layer["storage.wal.bytes_per_row"] = writes.wal_bytes / max(1, writes.rows)
    durability = server.durability_statistics()
    if durability is not None:
        layer["engine.durable.checkpoint_s"] = (
            sum(run.reference(i) for i in writes.checkpoints) / max(1, len(writes.checkpoints)))
        layer["engine.durable.open_s"] = median([run.reference(i) for i in opens])
        layer["engine.durable.on_disk_mb"] = durability["on_disk_bytes"] / 1e6
        layer["engine.durable.disk_bytes_per_user_byte"] = (
            disk_after_setup / report.bytes_loaded)

    for side in ("read", "write"):
        layer[f"engine.concurrency.{side}_contentions"] = (
            after["locks"][f"{side}_contentions"] - before["locks"][f"{side}_contentions"])
    if trickle is not None:
        layer["harness.writer_late_p99_ms"] = percentile(trickle.lateness, 99.0) * 1000.0


def timed(run: Run, work: Callable[[], Any]) -> float:
    """Reference seconds of one call, speed sampled on both sides."""
    run.meter.sample()
    begun = time.perf_counter()
    work()
    ended = time.perf_counter()
    run.meter.sample()
    return run.meter.reference_seconds(begun, ended)


def micro_probes(run: Run, server: SkyServer, output, parallel_probe: bool) -> None:
    """Layer calls timed on their own, on the single-node layouts (a
    cluster's coordinator holds no rows until a statement gathers them)."""
    layer = run.per_layer
    database = server.database
    photo = database.table("PhotoObj")
    rng = random.Random(run.seed)
    sample = rng.sample(output.tables["PhotoObj"], min(200, len(output.tables["PhotoObj"])))
    scale = 0.1 if run.smoke else 1.0

    rows = photo.row_count
    layer["engine.storage.scan_mrows_per_s"] = rows / timed(
        run, lambda: sum(1 for _ in photo.iter_rows())) / 1e6

    index = photo.find_index_on(["objID"])
    seeks = int(2000 * scale)
    layer["engine.index.seek_us"] = timed(run, lambda: [
        list(index.seek((sample[number % len(sample)]["objID"],)))
        for number in range(seeks)]) / seeks * 1e6

    probes = sample[:int(200 * scale)]
    layer["htm.cover_circle_us"] = timed(run, lambda: [
        cover_circle(row["ra"], row["dec"], 1.0) for row in probes]) / len(probes) * 1e6
    layer["skyserver.spatial.cone_ms"] = timed(run, lambda: [
        get_nearby_objects(database, row["ra"], row["dec"], 1.0)
        for row in probes]) / len(probes) * 1e3

    if parallel_probe:
        # Does morsel parallelism buy anything CPU-bound under the GIL?
        # The scan-category statements, forced parallel, no simulated I/O.
        scans = [query.sql for query in DATA_MINING_QUERIES
                 if query.category == CATEGORY_SCAN and " into " not in query.sql.lower()]
        totals = {}
        for degree in (1, 2):
            session = SqlSession(database, planner=Planner(
                database, parallelism=degree, parallel_row_threshold=0))
            for sql in scans:
                session.query(sql)
            totals[degree] = sum(
                median([timed(run, lambda: session.query(sql)) for _ in range(3)])
                for sql in scans)
        layer["engine.parallel.scan_speedup_p2"] = totals[1] / totals[2]
