"""Query-log analysis: Figure-5-style traffic numbers over our own log.

The paper's traffic section was computed from SkyServer's logs — every
statement the site ran was itself stored as data and analyzed with
SQL.  This module closes that loop for the reproduction: it consumes
rows of the durable ``QueryLog`` table (as returned by
:meth:`repro.skyserver.SkyServer.query_log_rows`, i.e. plain dict rows
from a ``SELECT``) and produces the same flavour of aggregate report
that :class:`~repro.traffic.analyze.TrafficReport` produces for the
synthesized web log.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = ["QueryTrafficReport", "analyze_query_log"]


def _get(row: Mapping[str, Any], name: str, default: Any = None) -> Any:
    """Fetch a column case-insensitively (the engine lowercases names)."""
    if name in row:
        return row[name]
    return row.get(name.lower(), default)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, round((q / 100.0) * len(sorted_values)))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


def _template(sql: str) -> str:
    """A crude statement template: collapse whitespace, cut at 60 chars.

    Good enough to group the repeated data-mining queries of the Zipf
    mix without a real parameter-stripping normalizer.
    """
    collapsed = " ".join(str(sql).split())
    return collapsed[:60]


@dataclass
class QueryTrafficReport:
    """Aggregate statistics over a served query log."""

    total_queries: int
    completed: int
    failed: int
    cache_hits: int
    plan_cache_hits: int
    slow_queries: int
    total_rows: int
    mean_elapsed_ms: float
    p50_elapsed_ms: float
    p95_elapsed_ms: float
    p99_elapsed_ms: float
    max_elapsed_ms: float
    by_class: dict[str, int] = field(default_factory=dict)
    top_statements: list[tuple[str, int]] = field(default_factory=list)

    @property
    def cache_hit_fraction(self) -> float:
        return self.cache_hits / self.total_queries if self.total_queries else 0.0

    def summary_rows(self) -> list[tuple[str, str]]:
        """Human-readable (metric, value) pairs for reports."""
        rows = [
            ("queries logged", f"{self.total_queries:,}"),
            ("completed", f"{self.completed:,}"),
            ("failed", f"{self.failed:,}"),
            ("result-cache hit rate", f"{self.cache_hit_fraction:.1%}"),
            ("plan-cache hit rate",
             (f"{self.plan_cache_hits / self.total_queries:.1%}"
              if self.total_queries else "0.0%")),
            ("slow queries", f"{self.slow_queries:,}"),
            ("rows returned", f"{self.total_rows:,}"),
            ("mean elapsed", f"{self.mean_elapsed_ms:.2f}ms"),
            ("p50 elapsed", f"{self.p50_elapsed_ms:.2f}ms"),
            ("p95 elapsed", f"{self.p95_elapsed_ms:.2f}ms"),
            ("p99 elapsed", f"{self.p99_elapsed_ms:.2f}ms"),
            ("max elapsed", f"{self.max_elapsed_ms:.2f}ms"),
        ]
        for user_class, count in sorted(self.by_class.items()):
            rows.append((f"class {user_class}", f"{count:,}"))
        for statement, count in self.top_statements:
            rows.append((f"x{count}", statement))
        return rows


def analyze_query_log(rows: Sequence[Mapping[str, Any]],
                      *, top: int = 5) -> QueryTrafficReport:
    """Compute the traffic report from ``QueryLog`` rows.

    ``rows`` is whatever ``SELECT * FROM QueryLog`` returned — the
    analysis layer never touches storage directly, so it works equally
    on a live server's log or one read back after recovery.
    """
    if not rows:
        raise ValueError("cannot analyze an empty query log")

    completed = failed = cache_hits = plan_hits = slow = 0
    total_rows = 0
    elapsed: list[float] = []
    by_class: Counter[str] = Counter()
    statements: Counter[str] = Counter()
    for row in rows:
        status = str(_get(row, "status", "") or "")
        if status == "failed":
            failed += 1
        else:
            completed += 1
        if _get(row, "cacheHit"):
            cache_hits += 1
        if _get(row, "planCached"):
            plan_hits += 1
        if _get(row, "slow"):
            slow += 1
        total_rows += int(_get(row, "rowCount", 0) or 0)
        elapsed.append(float(_get(row, "elapsedMs", 0.0) or 0.0))
        by_class[str(_get(row, "userClass", "") or "unknown")] += 1
        statements[_template(_get(row, "sqlText", "") or "")] += 1

    elapsed.sort()
    total = len(rows)
    return QueryTrafficReport(
        total_queries=total,
        completed=completed,
        failed=failed,
        cache_hits=cache_hits,
        plan_cache_hits=plan_hits,
        slow_queries=slow,
        total_rows=total_rows,
        mean_elapsed_ms=sum(elapsed) / total,
        p50_elapsed_ms=_percentile(elapsed, 50.0),
        p95_elapsed_ms=_percentile(elapsed, 95.0),
        p99_elapsed_ms=_percentile(elapsed, 99.0),
        max_elapsed_ms=elapsed[-1],
        by_class=dict(by_class),
        top_statements=statements.most_common(top),
    )
