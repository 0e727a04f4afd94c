"""Serve a Zipf-weighted query mix and print the telemetry report.

Boots a pooled SkyServer with tracing and the durable query log on,
replays a skewed mix of the paper's data-mining queries through the
serving pool (popularity ~ 1/rank, the shape real SkyServer traffic
had), then prints what the observability layer saw: latency
percentiles, pool queue-wait, the slow-query log, the full trace of
the last query, and the Figure-5-style traffic analysis computed by
SQL over our own ``QueryLog`` table.

Run with::

    python examples/telemetry_traffic.py [scale] [queries]

``scale`` defaults to 0.001 of the Early Data Release; ``queries`` to
60 pool submissions.
"""

from __future__ import annotations

import random
import sys

from repro.pipeline import SurveyConfig
from repro.skyserver import (ServerConfig, SkyServer, all_query_ids,
                             query_by_id)
from repro.telemetry import TRACER, render_trace


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.001
    total = int(sys.argv[2]) if len(sys.argv) > 2 else 60

    print(f"Building a synthetic SkyServer at scale {scale}...")
    server = SkyServer.create(ServerConfig(survey=SurveyConfig(scale=scale, seed=2002)))
    pool = server.start_pool(workers=4)

    # A Zipf mix over the queries that need no placeholder substitution:
    # rank r is submitted with weight 1/r, so a handful of hot queries
    # dominate — exactly the regime the result cache and the slow-query
    # log are for.
    queries = [query_by_id(query_id) for query_id in all_query_ids()]
    queries = [query for query in queries if "{" not in query.sql]
    weights = [1.0 / rank for rank in range(1, len(queries) + 1)]
    rng = random.Random(2002)

    print(f"Replaying {total} Zipf-weighted submissions through the pool...")
    tickets = [pool.submit(rng.choices(queries, weights)[0].sql)
               for _ in range(total)]
    done = failed = 0
    for ticket in tickets:
        try:
            ticket.result()
            done += 1
        except Exception:
            failed += 1
    print(f"  completed={done} failed={failed}")

    report = server.telemetry_report()
    telemetry = report["telemetry"]
    print("\n-- server latency ----------------------------------------")
    for key, value in telemetry["latency"].items():
        print(f"  {key:<10} {value}")
    print("\n-- pool ---------------------------------------------------")
    pool_stats = report["pool"]
    print(f"  submitted={pool_stats['submitted']} "
          f"completed={pool_stats['completed']} "
          f"cache={pool_stats['result_cache']['hits']} hits")
    for section, snapshot in pool_stats["latency"].items():
        print(f"  {section:<12} p50={snapshot['p50_ms']}ms "
              f"p95={snapshot['p95_ms']}ms p99={snapshot['p99_ms']}ms")
    slow = telemetry.get("slow_queries") or []
    print(f"\n-- slow queries ({len(slow)}) ------------------------------")
    for entry in slow[-5:]:
        print(f"  {entry['elapsedMs']:.1f}ms  {entry['sql'][:70]}")

    print("\n-- last trace ---------------------------------------------")
    print(render_trace(TRACER.last_trace()))

    print("\n-- traffic analysis over QueryLog (via SQL) ---------------")
    for label, value in report["traffic"]:
        print(f"  {label:<28} {value}")

    pool.shutdown()


if __name__ == "__main__":
    main()
