"""Run the 20 astronomy data-mining queries and print the Figure 13 timing table.

Run with::

    python examples/data_mining_queries.py [scale]

``scale`` is the fraction of the Early Data Release to synthesise
(default 0.001, about 17 000 catalog rows).
"""

from __future__ import annotations

import sys

from repro.bench import QueryTimingTable, Timing, ascii_series
from repro.pipeline import SurveyConfig
from repro.skyserver import ServerConfig, SkyServer


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.001
    print(f"Building a synthetic SkyServer at scale {scale} of the Early Data Release...")
    server = SkyServer.create(ServerConfig(survey=SurveyConfig(scale=scale, seed=2002)))

    print("Running the 20 data-mining queries (plus the Q10A/Q15A/Q15B variants)...\n")
    executions = server.run_all_data_mining_queries()

    timing_table = QueryTimingTable()
    for execution in executions:
        timing_table.add(execution.query_id,
                         Timing(execution.elapsed_seconds, execution.cpu_seconds),
                         execution.row_count)
        print(f"{execution.query_id:>5s}  {execution.query.category:<16s} "
              f"rows={execution.row_count:<7d} elapsed={execution.elapsed_seconds:8.3f}s   "
              f"{execution.query.title[:60]}")

    print("\nFigure 13 (reproduction): per-query CPU and elapsed time, fastest first")
    print(timing_table.render())

    print("\nElapsed-time series (log bars):")
    print(ascii_series([execution.query_id for execution in executions],
                       [execution.elapsed_seconds for execution in executions]))

    print("\nThe three queries the paper works through in detail:")
    for query_id in ("Q1", "Q15A", "Q15B"):
        execution = next(e for e in executions if e.query_id == query_id)
        print(f"\n--- {query_id}: {execution.query.title} ---")
        print(execution.plan_text())


if __name__ == "__main__":
    main()
