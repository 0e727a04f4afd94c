"""Figure 11 and §11: Query 15A — find all (slow-moving) asteroids.

"SQL Server selects a parallel sequential scan of the PhotoObj table
(there is no covering index).  The query uses 72 seconds of CPU time in
162 seconds of elapsed time to evaluate the predicate on each of the
14M objects.  It finds 1,303 candidates."
"""

from __future__ import annotations


from conftest import print_report
from repro.bench import ExperimentReport
from repro.engine.explain import plan_strategies

PAPER_CANDIDATES = 1303
PAPER_TABLE_ROWS = 14_000_000
PAPER_CPU_SECONDS = 72.0
PAPER_ELAPSED_SECONDS = 162.0


def test_figure11_query15a(benchmark, bench_server, bench_database):
    execution = benchmark.pedantic(
        bench_server.run_data_mining_query, args=("Q15A",), rounds=3, iterations=1)

    labels = plan_strategies(execution.result.plan)
    photo_rows = bench_database.table("PhotoObj").row_count
    statistics = execution.result.statistics

    report = ExperimentReport(
        "Figure 11 / §11 — Query 15A (find all asteroids by velocity)",
        "A sequential scan computing rowv^2 + colv^2 on every PhotoObj row.")
    report.add("candidates found", PAPER_CANDIDATES, execution.row_count,
               note="asteroids are over-represented at reproduction scale (DESIGN.md)")
    report.add("candidate fraction of table", PAPER_CANDIDATES / PAPER_TABLE_ROWS,
               execution.row_count / photo_rows)
    report.add("rows scanned", PAPER_TABLE_ROWS, statistics.rows_scanned)
    report.add("plan is a full table scan", "yes",
               "yes" if "Table Scan" in labels else "no")
    report.add("CPU seconds", PAPER_CPU_SECONDS, round(execution.cpu_seconds, 3), unit="s")
    report.add("elapsed seconds", PAPER_ELAPSED_SECONDS, round(execution.elapsed_seconds, 3),
               unit="s")
    report.add_note("plan:\n" + execution.plan_text())
    print_report(report)

    assert "Table Scan" in labels
    assert statistics.rows_scanned == photo_rows
    assert execution.row_count > 0
    # Every returned candidate satisfies the velocity window.
    for row in execution.result.rows:
        assert 50.0 <= row["velocity"] ** 2 <= 1000.0 + 1e-9


def test_figure11_url_column_is_usable(bench_server):
    execution = bench_server.run_data_mining_query("Q15A")
    assert all(row["Url"].startswith("http://") for row in execution.result.rows)
