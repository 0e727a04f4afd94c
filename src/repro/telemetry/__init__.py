"""Observability for the SkyServer reproduction.

Three always-available pieces (ISSUE 10):

* :mod:`repro.telemetry.metrics` — counters, gauges and fixed-bucket
  latency histograms with p50/p95/p99, behind one process-wide
  :data:`METRICS` registry.  Cheap enough to stay on.
* :mod:`repro.telemetry.trace` — per-query spans (query id + parent id,
  ``perf_counter`` timings) collected by the process-wide
  :data:`TRACER`.  Tracing **off ⇒ byte-identical plans and results**;
  tracing on changes only counters — spans observe, never steer.
* :mod:`repro.telemetry.querylog` — the durable ``QueryLog`` table:
  every served statement appended through the ordinary engine/storage
  write path, queryable with SQL and analyzable by
  :func:`repro.traffic.analyze_query_log` (the paper's Figure 5, run
  over our own log).

:class:`Telemetry` bundles the three per server, driven by the
``ServerConfig.telemetry`` section.
"""

from .metrics import Counter, Gauge, LatencyHistogram, METRICS, MetricsRegistry
from .querylog import QUERY_LOG_TABLE, QueryLogger
from .runtime import Telemetry
from .trace import Span, TRACER, Tracer, render_trace

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "METRICS",
    "Span",
    "Tracer",
    "TRACER",
    "render_trace",
    "QueryLogger",
    "QUERY_LOG_TABLE",
    "Telemetry",
]
