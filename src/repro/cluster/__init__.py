"""The sharded cluster subsystem: partitioned storage, distributed
planning and scatter-gather execution.

A :class:`ShardCluster` partitions one loaded engine database across N
in-process :class:`ShardNode`\\ s (hash, declination-zone or HTM-range
placement), a :class:`ClusterPlanner` rewrites distributable queries
into per-shard fragments plus a merge stage, and a
:class:`ClusterExecutor` runs the fragments shard by shard on the
calling thread and merges the streams back into single-node-identical
results.  The
:class:`ClusterSession` — a :class:`~repro.engine.sql.SqlSession` that
plans each SELECT for the cluster and analyzes every shard — is the SQL
entry point the SkyServer facade and the serving pool use when a
cluster is attached.

See ``src/repro/cluster/README.md`` for the architecture.
"""

from .executor import ClusterExecutor, ClusterSession
from .partition import (DerivedPlacement, HashPlacement, HtmPlacement,
                        Placement, RangePlacement, ZonePlacement, colocated,
                        quantile_boundaries, stable_hash)
from .planner import (ClusterPlan, ClusterPlanner, CoPartitionedJoinPlan,
                      FallbackPlan, SingleTablePlan, candidate_shards)
from .shard import ShardCluster, ShardNode, prune_with_statistics

__all__ = [
    "ShardCluster",
    "ShardNode",
    "Placement",
    "HashPlacement",
    "RangePlacement",
    "ZonePlacement",
    "HtmPlacement",
    "DerivedPlacement",
    "colocated",
    "stable_hash",
    "quantile_boundaries",
    "ClusterPlanner",
    "ClusterPlan",
    "SingleTablePlan",
    "CoPartitionedJoinPlan",
    "FallbackPlan",
    "candidate_shards",
    "prune_with_statistics",
    "ClusterExecutor",
    "ClusterSession",
]
