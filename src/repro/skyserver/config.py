"""Server configuration: one declarative object instead of kwarg soup.

:class:`ServerConfig` groups the server's knobs by the subsystem
they steer — storage layout and durability, cluster partitioning,
planner behaviour, the serving pool — and is what
:meth:`SkyServer.create` consumes.  All sections are frozen
dataclasses with sensible defaults, so ``ServerConfig()`` is the plain
single-node in-memory row-store server the tests start from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..pipeline import SurveyConfig
from .limits import QueryLimits


@dataclass(frozen=True)
class StorageConfig:
    """Physical layout and durability of the loaded tables.

    ``columnar`` selects compressed columnar segments (sealed every
    4096 rows, zone maps, dictionary/RLE/delta encodings) over the row
    store.  ``path`` makes the server durable: segments checkpoint to
    an on-disk tree there and every DML statement is WAL-logged so a
    crash recovers to the last committed write.  ``fsync`` additionally
    forces each WAL append to stable storage (slow; most tests leave it off
    and rely on OS-crash-excluded torn-write semantics).
    """

    columnar: bool = False
    path: Optional[str] = None
    fsync: bool = False


@dataclass(frozen=True)
class ClusterConfig:
    """Horizontal partitioning: ``shards > 1`` builds an in-process
    shard cluster with ``partition`` placement (``hash``, ``zone``
    declination bands, or ``htm`` trixel ranges)."""

    shards: int = 1
    partition: str = "hash"


@dataclass(frozen=True)
class PlannerConfig:
    """Optimizer inputs: collect ANALYZE statistics at load time."""

    analyze: bool = True
    # Accepted and ignored: benchmarks/e2e/workloads.py:216 still reads
    # it (ROADMAP item 0 drops that argument).
    parallelism: int = 1


@dataclass(frozen=True)
class PoolConfig:
    """The concurrent serving pool.  ``workers = 0`` (the default)
    starts no pool; :meth:`SkyServer.start_pool` can attach one later."""

    workers: int = 0
    result_cache_size: int = 256


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability (ISSUE 10): tracing, the query log, slow queries.

    ``tracing`` turns per-query spans on (the default — they are cheap
    and change only counters, never plans or results).  ``query_log``
    appends one row per served statement to the durable ``QueryLog``
    table, queryable with SQL and analyzable by
    :func:`repro.traffic.analyze_query_log`.  Statements slower than
    ``slow_query_seconds`` additionally land in the in-memory slow-query
    log surfaced by ``SkyServer.telemetry_report()``.
    ``trace_capacity`` bounds how many recent query traces are retained.
    """

    tracing: bool = True
    query_log: bool = True
    slow_query_seconds: float = 1.0
    trace_capacity: int = 128


@dataclass(frozen=True)
class ServerConfig:
    """Everything :meth:`SkyServer.create` needs to stand up a server."""

    survey: Optional[SurveyConfig] = None
    storage: StorageConfig = field(default_factory=StorageConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    limits: Optional[QueryLimits] = None
    site_name: str = "SkyServer (reproduction)"
    build_neighbors: bool = True
