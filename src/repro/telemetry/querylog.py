"""The durable query log: every statement, as data.

The real SkyServer logged every SQL query, and the logs *became* the
dataset behind the paper's Figure 5 traffic analysis and the follow-up
"Data Mining the SDSS SkyServer Database" study.  We do the same,
dogfooding the engine: the log is an ordinary ``QueryLog`` table on the
serving database, appended through ``Table.insert_many`` so the
existing ``repro.storage`` machinery (WAL on single-node durable
servers, checkpoints everywhere) makes it survive restarts — and so it
is queryable with plain SQL.

**Group commit.**  Recording a statement costs no table write: the row
gets its ``logID`` and joins an in-memory batch in one critical
section, so ids increase in recording order.  The batch becomes table
rows through one ``insert_many`` — one WAL frame on a durable server —
when it reaches :data:`GROUP_COMMIT_ROWS` rows, or when :meth:`flush`
is called.  The server flushes before anything reads the log: before
every statement of the direct ``SkyServer.query`` path, before a pooled
statement that reads ``QueryLog`` (through a view too) takes its read
locks, and in ``checkpoint()``, ``close()`` and pool shutdown.  A
statement therefore sees every row logged before it was submitted.  A
pooled statement over the log is never result-cached: the log grows
with every request, so a cached answer would be stale at once.

**Crash window.**  Pending rows live only in memory: a process that
dies without ``close()`` loses at most ``GROUP_COMMIT_ROWS - 1`` (63)
log rows.  Data rows are not affected: every data write is its own WAL
frame.

Engine imports happen lazily inside functions: engine modules import
``repro.telemetry`` for metrics/tracing, and importing the engine at
module scope here would be circular.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Dict, List, Optional

from .trace import clip

__all__ = ["QueryLogger", "QUERY_LOG_TABLE", "GROUP_COMMIT_ROWS"]

#: Name of the log table created on the serving database.
QUERY_LOG_TABLE = "QueryLog"

#: Pending log rows that trigger a flush: one ``insert_many`` (one WAL
#: frame) per this many statements, and the most a crash can lose + 1.
GROUP_COMMIT_ROWS = 64


def _query_log_columns():
    from ..engine import bigint, boolean, floating, text, timestamp

    return [
        bigint("logID"),
        bigint("queryID"),
        timestamp("loggedAt"),
        text("userClass"),
        text("status"),
        text("sqlText"),
        bigint("rowCount"),
        floating("elapsedMs"),
        boolean("cacheHit"),
        boolean("planCached"),
        boolean("slow"),
        text("error", nullable=True),
    ]


class QueryLogger:
    """Appends one ``QueryLog`` row per finished statement, in batches."""

    def __init__(self, database: Any, *,
                 slow_query_seconds: float = 1.0,
                 slow_log_capacity: int = 64) -> None:
        self.database = database
        self.slow_query_seconds = slow_query_seconds
        #: Guards the id counter, the pending batch and the counters.
        self._lock = threading.Lock()
        #: Held from taking a batch until it is in the table, so a flush
        #: returns only once every row recorded before it is readable.
        self._flush_lock = threading.Lock()
        self._table = self._ensure_table()
        self._next_id = itertools.count(self._seed_log_id())
        self._pending: List[Dict[str, Any]] = []
        self._slow: deque = deque(maxlen=slow_log_capacity)
        self.recorded = 0
        self.slow_count = 0
        self.failed_count = 0
        self.dropped = 0

    # -- setup -------------------------------------------------------------

    def _ensure_table(self):
        from ..engine import PrimaryKey

        if self.database.has_table(QUERY_LOG_TABLE):
            return self.database.table(QUERY_LOG_TABLE)
        return self.database.create_table(
            QUERY_LOG_TABLE, _query_log_columns(),
            primary_key=PrimaryKey(("logID",)),
            description="Telemetry: one row per statement served "
                        "(the paper's query log, self-hosted).",
        )

    def _seed_log_id(self) -> int:
        """Continue log ids past whatever a reopened log already holds."""
        high = 0
        for _slot, row in self._table.storage.iter_rows():
            log_id = row.get("logID")
            if isinstance(log_id, int) and log_id > high:
                high = log_id
        return high + 1

    # -- recording ---------------------------------------------------------

    def record(self, *, sql: str, user_class: str, status: str,
               rows: int, elapsed_seconds: float,
               cache_hit: bool = False, plan_cached: bool = False,
               query_id: int = 0, error: Optional[str] = None) -> None:
        slow = (status == "done"
                and elapsed_seconds >= self.slow_query_seconds)
        row = {
            "queryID": int(query_id),
            "loggedAt": self.database.now(),
            "userClass": user_class,
            "status": status,
            "sqlText": sql,
            "rowCount": int(rows),
            "elapsedMs": elapsed_seconds * 1000.0,
            "cacheHit": bool(cache_hit),
            "planCached": bool(plan_cached),
            "slow": slow,
            "error": error,
        }
        with self._lock:
            row["logID"] = next(self._next_id)
            self._pending.append(row)
            full = len(self._pending) >= GROUP_COMMIT_ROWS
            self.recorded += 1
            self.failed_count += status != "done"
            if slow:
                self.slow_count += 1
                self._slow.append({
                    "queryID": row["queryID"],
                    "sql": clip(sql),
                    "userClass": user_class,
                    "elapsedMs": round(row["elapsedMs"], 3),
                    "rows": row["rowCount"],
                })
        if full:
            self.flush()

    def flush(self) -> None:
        """Append every pending row to the table: one ``insert_many``.

        Call with no table lock held (the append takes ``QueryLog``'s
        write lock).  Returns once every row recorded before the call
        is in the table, even when another thread's flush took them.
        """
        with self._flush_lock:
            with self._lock:
                batch, self._pending = self._pending, []
            if not batch:
                return
            try:
                self._table.insert_many(batch)
            except Exception:
                # The log must never take a query down with it (e.g. a
                # server shutting down mid-flight).  Count and move on.
                with self._lock:
                    self.dropped += len(batch)
                    self.recorded -= len(batch)

    # -- reading back ------------------------------------------------------

    def slow_queries(self) -> List[Dict[str, Any]]:
        """The most recent slow statements (in-memory, newest last)."""
        with self._lock:
            return list(self._slow)

    def statistics(self) -> Dict[str, Any]:
        return {
            "table": QUERY_LOG_TABLE,
            "entries": self._table.row_count + len(self._pending),
            "recorded": self.recorded,
            "slow": self.slow_count,
            "failed": self.failed_count,
            "dropped": self.dropped,
            "slow_query_seconds": self.slow_query_seconds,
        }
