"""The shared session surface: one protocol, one factory.

Both :class:`~repro.engine.sql.SqlSession` (single node) and
:class:`~repro.cluster.ClusterSession` (coordinator of a shard cluster)
expose the same query surface; historically every call site re-decided
which one to build (``if cluster is not None: ...``) and type-sniffed
which one it held.  :class:`Session` writes the contract down as a
:class:`typing.Protocol` — callers annotate against it — and
:func:`make_session` is the single place the backend choice happens:
give it a database and optionally a cluster, get back the right
session.  ``pool.py``, ``server.py``, ``query_tool.py`` and
``personal.py`` all go through it.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

from .sql.session import SqlSession


@runtime_checkable
class Session(Protocol):
    """What the serving layer may assume about any query session.

    Attributes: ``database`` (the catalog queries resolve against —
    the coordinator's, for a cluster session).
    """

    database: Any

    def execute(self, sql: str):
        """Run one statement, returning its :class:`QueryResult`."""
        ...

    def query(self, sql: str) -> list[dict[str, Any]]:
        """Run one SELECT and return its rows."""
        ...

    def explain(self, sql: str, *, analyze: bool = False) -> str:
        """The plan (optionally executed, with observed cardinalities)."""
        ...

    def optimizer_statistics(self) -> dict[str, Any]:
        """Planner counters: cost-based choices, cache hits, rewrites."""
        ...

    def execution_mode_statistics(self) -> dict[str, Any]:
        """How many statements ran vectorized / row-mode."""
        ...

    def feedback_statistics(self) -> dict[str, Any]:
        """Cardinality-feedback counters (q-errors, re-plans)."""
        ...


def make_session(database, *, cluster=None,
                 row_limit: Optional[int] = None,
                 time_limit_seconds: Optional[float] = None) -> Session:
    """Build the right session for the backend at hand.

    With ``cluster`` the session is the cluster's distributed-planning
    coordinator session; otherwise a plain single-node session over
    ``database``.  Either way the return value satisfies
    :class:`Session`.
    """
    if cluster is not None:
        from ..cluster import ClusterSession

        return ClusterSession(cluster, row_limit=row_limit,
                              time_limit_seconds=time_limit_seconds)
    return SqlSession(database, row_limit=row_limit,
                      time_limit_seconds=time_limit_seconds)
