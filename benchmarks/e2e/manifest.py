"""The benchmark's contract: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repository root is this module rendered to
JSON (``python3 benchmarks/e2e/manifest.py`` prints it; the harness
self-test requires the two to agree).  Definitions live here, next to
the names, so the README table, the driver's contract and what
``run.py`` prints cannot drift apart.
"""

from __future__ import annotations

import json
from typing import NamedTuple

#: How long the read phase of one run is sized to measure on the
#: commit the benchmark was defined on (see ``workloads.py``: work is
#: sized by count, in proportion to ``--seconds``).
RUN_SECONDS = 6

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    definition: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before it counts as a regression (None for per-layer).
    bound: float | None = None


WORKLOADS = (
    Workload("fig13_default",
             "the 22 Figure-13 statements on ServerConfig() as shipped: row-mode "
             "operators do the work, so a default flip shows here and nowhere else"),
    Workload("fig13_columnar",
             "same statements on columnar storage: the only workload that enters the "
             "batch engine, sealed segments, zone maps and runtime filters"),
    Workload("fig13_shards4",
             "same statements on 4 hash shards: the only workload that enters the "
             "cluster planner and executor, a second engine"),
    Workload("web_mix",
             "Figure-5 public traffic through the 2-worker pool: Zipf cone/explore/"
             "cut/top-n/rect mix larger than the caches, so parse, plan, evictions count"),
    Workload("ingest_durable",
             "reads beside a paced writer on a durable columnar server, then a write "
             "burst, checkpoints and a crash reopen: WAL, locks and storage used the other way"),
)

#: Every time below is *reference* time: wall time divided by how slow a
#: fixed pure-Python loop ran beside the timed interval
#: (``harness.SpeedMeter``), which takes the host's speed drift out.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "process start to first timed read: generate + load + durable attach + "
           "pool start + warm-up", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "ru_maxrss of the process at exit", 0.10),
    Metric("throughput_qps", "1/s", "higher",
           "read phase: fig13_* 22 / sum of per-statement median elapsed (= 22 / suite_s); "
           "pool workloads requests completed / wall", 0.20),
    Metric("latency_geomean_ms", "ms", "lower",
           "read phase: geometric mean over statement classes of each class's median "
           "latency (fig13_*: the 22 statements; pool workloads: each request kind when "
           "executed, plus one class for result-cache hits), so every class weighs the "
           "same however cheap", 0.20),
    Metric("latency_tail_ms", "ms", "lower",
           "read phase: the highest percentile over all requests with >=10 samples beyond "
           "it on the pool workloads (p99 web_mix, p95 ingest_durable); the mean of the "
           "three slowest statements' medians on fig13_* (22 fixed statements)", 0.25),
    Metric("write_rows_per_s", "rows/s", "higher",
           "write burst: rows acknowledged / time, median of 3 rounds, each a checkpoint "
           "(no-op unless durable), 200 single inserts, 2 bulk inserts of 50 and a "
           "delete of 50", 0.25),
)

_FIG13_IDS = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q10A",
              "Q11", "Q12", "Q13", "Q14", "Q15A", "Q15B", "Q16", "Q17", "Q18",
              "Q19", "Q20")

PER_LAYER = (
    # set-up, redone under spans
    Metric("pipeline.generate_s", "s", "lower", "SyntheticSurvey.run()"),
    Metric("loader.steps_s", "s", "lower", "sum of SkyServerLoader.run_step calls"),
    Metric("schema.indices_s", "s", "lower", "create_indices"),
    Metric("schema.neighbors_s", "s", "lower", "compute_neighbors"),
    Metric("loader.validate_s", "s", "lower", "validate_database"),
    Metric("engine.storage.convert_s", "s", "lower", "sum of Table.convert_storage calls"),
    Metric("engine.stats.analyze_s", "s", "lower", "sum of Database.analyze_table calls"),
    Metric("cluster.shard.split_s", "s", "lower", "ShardCluster.from_database"),
    Metric("loader.unattributed_fraction", "ratio", "lower",
           "share of load_release_database outside the spans above"),
    Metric("loader.load_rows_per_s", "rows/s", "higher",
           "LoadReport.rows_loaded / the load_release_database call"),
    # the statement path: mean self time per read request
    Metric("engine.sql.parse_ms", "ms", "lower", "parse_batch self time per request"),
    Metric("engine.planner.plan_ms", "ms", "lower", "Planner.plan self time per request"),
    Metric("engine.operators.execute_ms", "ms", "lower",
           "PhysicalPlan.execute self time per request"),
    Metric("telemetry.overhead_ms_per_query", "ms", "lower",
           "Telemetry.run_query self time per request (span, histogram, QueryLog row)"),
    Metric("skyserver.formats.render_csv_ms", "ms", "lower",
           "render(result, 'csv') per statement kind, mean"),
    Metric("cluster.planner.plan_ms", "ms", "lower",
           "ClusterPlanner.plan self time per request"),
    Metric("cluster.executor.execute_ms", "ms", "lower",
           "ClusterExecutor.execute_plan self time per request"),
    # counters read where the work happens
    Metric("engine.plan_cache.hit_rate", "ratio", "higher",
           "executed statements whose plan came from the plan cache"),
    Metric("engine.operators.rows_scanned_per_row_returned", "ratio", "lower",
           "sum rows_scanned / sum rows returned over the read phase"),
    Metric("engine.operators.batch_fraction", "ratio", "higher",
           "executed statements that went through the batch pipeline"),
    Metric("engine.segments.skipped_fraction", "ratio", "higher",
           "segments_skipped / (scanned + skipped) over the read phase"),
    Metric("engine.segments.compression_ratio", "ratio", "higher",
           "storage_statistics() logical / encoded bytes"),
    Metric("engine.storage.scan_mrows_per_s", "Mrows/s", "higher",
           "one Table.iter_rows() pass over PhotoObj"),
    Metric("engine.parallel.scan_speedup_p2", "ratio", "higher",
           "scan-category statements, Planner(parallelism=1) time / parallelism=2 time, "
           "no simulated I/O"),
    Metric("engine.index.seek_us", "us", "lower", "BTreeIndex.seek((objID,)), mean of 2000"),
    Metric("htm.cover_circle_us", "us", "lower", "cover_circle(ra, dec, 1.0), mean of 200"),
    Metric("skyserver.spatial.cone_ms", "ms", "lower",
           "get_nearby_objects(db, ra, dec, 1.0), mean of 200"),
    # the serving pool, from ticket timestamps and pool.statistics()
    Metric("skyserver.pool.queue_wait_p50_ms", "ms", "lower", "started_at - submitted_at"),
    Metric("skyserver.pool.service_p50_ms", "ms", "lower", "finished_at - started_at"),
    Metric("skyserver.pool.cached_hit_ms", "ms", "lower", "p50 latency of result-cache hits"),
    Metric("skyserver.pool.result_cache_hit_rate", "ratio", "higher",
           "read requests served from the result cache"),
    Metric("skyserver.pool.result_cache_evictions", "count", "lower",
           "result_cache evictions over the read phase"),
    Metric("skyserver.pool.coalesced", "count", "higher",
           "duplicates parked on an in-flight twin"),
    Metric("skyserver.pool.handoff_ms", "ms", "lower",
           "ticket finished to the client holding the result, mean per request "
           "(query-log append on cache hits, thread wake-up)"),
    Metric("skyserver.pool.kind.cone_p50_ms", "ms", "lower", "p50 of cone requests"),
    Metric("skyserver.pool.kind.explore_p50_ms", "ms", "lower", "p50 of explore requests"),
    Metric("skyserver.pool.kind.colour_p50_ms", "ms", "lower", "p50 of colour-cut counts"),
    Metric("skyserver.pool.kind.topn_p50_ms", "ms", "lower", "p50 of top-n sorts"),
    Metric("skyserver.pool.kind.rect_p50_ms", "ms", "lower", "p50 of rectangle counts"),
    # the cluster
    Metric("cluster.fallback_fraction", "ratio", "lower",
           "statements answered by data-shipping gather, not scatter-gather"),
    Metric("cluster.fragments_pruned_fraction", "ratio", "higher",
           "fragments pruned / (executed + pruned)"),
    Metric("cluster.gather_s", "s", "lower",
           "warm-up pass minus the median measured pass: the first-pass gather"),
    Metric("cluster.rows_gathered", "count", "lower", "rows shipped to the coordinator"),
    Metric("cluster.merge.rows_merged", "count", "lower", "rows through the merge"),
    # the write path, from spans around the burst's own calls
    Metric("engine.table.insert_us", "us", "lower",
           "single insert self time: the table's share, WAL and encode excluded"),
    Metric("engine.table.insert_p50_ms", "ms", "lower",
           "p50 of one whole single-row insert, WAL included (an end-to-end metric at "
           "first; demoted: on the durable server its spread over ten runs was 0.28)"),
    Metric("engine.table.insert_many_us_per_row", "us", "lower",
           "insert_many(50) self time per row"),
    Metric("engine.table.delete_where_ms", "ms", "lower", "delete_where of 50 rows"),
    Metric("storage.format.encode_us", "us", "lower", "encode_value per WAL record"),
    Metric("storage.wal.append_us", "us", "lower", "WriteAheadLog.append per record"),
    Metric("storage.wal.bytes_per_row", "B", "lower", "WAL bytes / rows inserted"),
    Metric("engine.durable.checkpoint_s", "s", "lower", "server.checkpoint(), mean of 3"),
    Metric("engine.durable.open_s", "s", "lower",
           "SkyServer.open() of a crash copy, median of 3 (the reopen time)"),
    Metric("engine.durable.replayed_records", "count", "lower",
           "WAL records replayed by that open"),
    Metric("engine.durable.on_disk_mb", "MB", "lower", "durability_statistics() on_disk_bytes"),
    Metric("engine.durable.disk_bytes_per_user_byte", "ratio", "lower",
           "on_disk_bytes after the set-up checkpoint / LoadReport.bytes_loaded"),
    Metric("engine.concurrency.read_contentions", "count", "lower",
           "table read locks that had to wait, over the read phase"),
    Metric("engine.concurrency.write_contentions", "count", "lower",
           "table write locks that had to wait, over the read phase"),
    Metric("harness.writer_late_p99_ms", "ms", "lower",
           "how late the open-loop writer started its writes"),
    # fig13 per statement
    Metric("fig13.suite_s", "s", "lower", "sum of the 22 per-statement medians"),
    Metric("fig13.light_s", "s", "lower",
           "the same sum without Q10A, Q13, Q15B, Q18, Q20"),
    *(Metric(f"fig13.{qid}_ms", "ms", "lower", f"median elapsed of {qid}")
      for qid in _FIG13_IDS),
    # the harness itself
    Metric("harness.trace_overhead_ratio", "ratio", "lower",
           "traced / untraced blocks of the same read phase (must stay <= 1.10)"),
    Metric("harness.unattributed_fraction", "ratio", "lower",
           "request time outside every layer span (must stay <= 0.15)"),
    Metric("harness.machine_speed", "ratio", "higher",
           "reference kernel time / this run's median kernel time: wall time = "
           "reference time / this"),
)


def benchmark_manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_manifest(), indent=2))
