"""The per-server telemetry bundle.

One :class:`Telemetry` object per :class:`~repro.skyserver.server.SkyServer`
ties the three tentpole pieces together: it flips the process-wide
tracer on/off from the server's config, owns the server-level latency
histogram, and hosts the durable :class:`~repro.telemetry.querylog.QueryLogger`
on the serving database.  The pool and the direct ``SkyServer.query``
path both report finished statements here.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Dict, Optional

from .metrics import METRICS, LatencyHistogram, MetricsRegistry
from .querylog import QueryLogger
from .trace import TRACER, Tracer, clip as _clip

__all__ = ["Telemetry"]


class Telemetry:
    """Tracing + metrics + query log for one server."""

    def __init__(self, database: Any, *,
                 tracing: bool = True,
                 query_log: bool = True,
                 slow_query_seconds: float = 1.0,
                 trace_capacity: int = 128) -> None:
        self.database = database
        self.tracing = bool(tracing)
        self.tracer: Tracer = TRACER
        self.metrics: MetricsRegistry = METRICS
        # The tracer is process-wide; the most recently configured
        # server decides (a single-process reproduction serves one
        # site at a time — last writer wins, deterministically).
        self.tracer.enabled = self.tracing
        if trace_capacity > 0:
            self.tracer.capacity = trace_capacity
        #: Wall-clock latency of every statement served through this
        #: server (pool and direct path alike); always on.
        self.query_latency = LatencyHistogram("server.query_seconds")
        self.logger: Optional[QueryLogger] = (
            QueryLogger(database, slow_query_seconds=slow_query_seconds)
            if query_log else None)
        self._fallback_ids = itertools.count(1)
        self.queries = 0
        self.failures = 0

    # -- the direct (non-pooled) query path --------------------------------

    def run_query(self, fn: Callable[[], Any], sql: str, *,
                  user_class: str = "session",
                  session: Any = None) -> Any:
        """Run ``fn`` under a root span; observe + log the outcome."""
        tracer = self.tracer
        started = time.perf_counter()
        if tracer.enabled:
            with tracer.span("query", sql=_clip(sql),
                             user_class=user_class) as root:
                query_id = root.query_id
                try:
                    result = fn()
                except Exception as error:
                    root.attributes["status"] = "failed"
                    self._observe(sql, user_class, "failed", 0,
                                  time.perf_counter() - started,
                                  query_id=query_id, session=session,
                                  error=f"{type(error).__name__}: {error}")
                    raise
                rows = len(getattr(result, "rows", ()))
                root.attributes["status"] = "done"
                root.attributes["rows"] = rows
        else:
            query_id = next(self._fallback_ids)
            try:
                result = fn()
            except Exception as error:
                self._observe(sql, user_class, "failed", 0,
                              time.perf_counter() - started,
                              query_id=query_id, session=session,
                              error=f"{type(error).__name__}: {error}")
                raise
            rows = len(getattr(result, "rows", ()))
        self._observe(sql, user_class, "done", rows,
                      time.perf_counter() - started,
                      query_id=query_id, session=session)
        return result

    def _observe(self, sql: str, user_class: str, status: str, rows: int,
                 elapsed: float, *, query_id: int, session: Any = None,
                 error: Optional[str] = None,
                 cache_hit: bool = False) -> None:
        self.query_latency.observe(elapsed)
        self.queries += 1
        if status != "done":
            self.failures += 1
        if self.logger is not None:
            source = getattr(session, "last_plan_source", "") if session \
                else ""
            self.logger.record(
                sql=sql, user_class=user_class, status=status, rows=rows,
                elapsed_seconds=elapsed, cache_hit=cache_hit,
                plan_cached=source == "cache",
                query_id=query_id, error=error)

    # -- the pooled path ---------------------------------------------------

    def record_pool_query(self, ticket: Any, *,
                          plan_source: str = "") -> None:
        """Observe + log one finished :class:`QueryTicket`."""
        if ticket.finished_at is None:
            return
        reference = (ticket.started_at if ticket.started_at is not None
                     else ticket.submitted_at)
        elapsed = max(0.0, ticket.finished_at - reference)
        self.query_latency.observe(elapsed)
        self.queries += 1
        if ticket.status != "done":
            self.failures += 1
        if self.logger is None:
            return
        result = getattr(ticket, "_result", None)
        error = getattr(ticket, "_error", None)
        self.logger.record(
            sql=ticket.sql, user_class=ticket.user_class,
            status=ticket.status,
            rows=len(result.rows) if result is not None else 0,
            elapsed_seconds=elapsed, cache_hit=ticket.cache_hit,
            plan_cached=plan_source == "cache",
            query_id=getattr(ticket, "query_id", 0) or 0,
            error=f"{type(error).__name__}: {error}" if error is not None
            else None)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "queries": self.queries,
            "failures": self.failures,
            "latency": self.query_latency.snapshot(),
            "tracing": self.tracer.statistics(),
            "metrics": self.metrics.snapshot(),
            "query_log": (self.logger.statistics()
                          if self.logger is not None else None),
            "slow_queries": (self.logger.slow_queries()
                             if self.logger is not None else []),
        }
