"""The one place a serving layer picks its session backend.

Both backends are :class:`~repro.engine.sql.SqlSession`\\ s: a plain
one over a single node's database, or a
:class:`~repro.cluster.ClusterSession` — the subclass that plans each
SELECT for a shard cluster and analyzes every shard — over a cluster's
coordinator.  They share the batch loop, DECLARE/SET, the plan cache
and every statistics method, so callers never ask which one they hold.
:func:`make_session` is where the choice happens: give it a database
and optionally a cluster, get back the right session.  The SkyServer
facade (``server.py``) and the serving pool (``pool.py``) go through it.
"""

from __future__ import annotations

from typing import Optional

from .sql.session import SqlSession


def make_session(database, *, cluster=None,
                 row_limit: Optional[int] = None,
                 time_limit_seconds: Optional[float] = None) -> SqlSession:
    """Build the right session for the backend at hand.

    With ``cluster`` the session is the cluster's distributed-planning
    :class:`~repro.cluster.ClusterSession` over its coordinator;
    otherwise a plain single-node session over ``database``.
    """
    if cluster is not None:
        from ..cluster import ClusterSession

        return ClusterSession(cluster, row_limit=row_limit,
                              time_limit_seconds=time_limit_seconds)
    return SqlSession(database, row_limit=row_limit,
                      time_limit_seconds=time_limit_seconds)
