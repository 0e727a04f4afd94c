"""The concurrent serving pool: worker sessions, admission control and
a shared result cache.

The paper's SkyServer is not a single query loop — it is a public web
service absorbing millions of hits with hard per-user limits (§4, §7).
:class:`SkyServerPool` is that serving tier in library form:

* a fixed pool of **worker threads**, each owning one
  :class:`~repro.engine.sql.SqlSession` per service class (built by
  :func:`~repro.engine.make_session`: a
  :class:`~repro.cluster.ClusterSession` when the server fronts a shard
  cluster; sessions keep variables and a plan cache, so they are
  deliberately not shared across threads);
* **admission control** in front of the workers: every submission names
  a :class:`~repro.skyserver.limits.ServiceClass` (public / power /
  admin by default) with its own concurrency quota, queue depth and
  queue timeout.  A full queue rejects immediately — the web tier tells
  the user to retry rather than buffering unbounded work;
* a shared **result cache**: the public workload is dominated by the
  same template queries over and over (the paper's §7 traffic mix), so
  finished SELECT results are cached under their normalised SQL text
  and served without re-execution while still valid.  An entry is valid
  while the catalog's ``schema_version`` and the ``table_versions`` of
  every table the query read are unchanged — the same invalidation
  discipline as the session plan cache, extended to DML.  One version
  source answers both: the database, or on a sharded server the
  :class:`~repro.cluster.ShardCluster`, whose per-shard counters see
  writes the coordinator does not.  On one node an entry may also
  outlive a write: when its statement reads one relation — a table, a
  view, or a table-valued function that declares what it reads — and
  its bytes depend only on that relation's *qualifying* rows (the
  relation's WHERE and view conjuncts, or the function's declared
  qualifier), the tables' change logs
  (:class:`~repro.engine.table.ChangeLog`) show whether any row written
  since qualifies; if none does the entry stays.  Functions declared
  with ``reads=`` are cached like tables (``spHTM_Cover`` reads none,
  the cone and rectangle searches PhotoObj); undeclared ones are never
  cached.  Identical cacheable queries in flight are **coalesced**
  (dogpile protection): one worker executes, the duplicates wait for
  its cache fill instead of burning more workers on the same answer;
* **snapshot reads**: a worker acquires the read locks of every table
  its query references, a declared function's tables included (an
  undeclared function's query locks every table), in one global order, via
  :func:`repro.engine.concurrency.read_locks`, for the duration of the
  execution, so VACUUM, bulk loads and storage conversions can run
  concurrently without ever being observed mid-flight.  The database
  epoch recorded under those locks identifies the snapshot the query
  saw.  On a cluster the session locks the shards and the gathered
  copies itself, so the worker takes no locks; there a result is cached
  only if its tables' versions read before and after the run agree.

Batches that depend on session state (``DECLARE``/``SET``/``@var``
references), perform DDL (``SELECT INTO``) or mutate statistics
(``ANALYZE``) execute normally but are never result-cached, and neither
are statements that read the server's ``QueryLog`` (every request
appends to it).  Such a statement flushes the log's pending rows before
it takes its read locks, so it sees every statement logged before it
was submitted (:mod:`repro.telemetry.querylog`).

Each statement is parsed once: the pool memoises the parse with its
batch metadata (:class:`_BatchInfo`) and hands it to the worker's
session, whose plan cache plans it instead of parsing the text again.
Workers of one pool may plan the same parsed statements at once —
planning only reads them.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, replace as _dataclass_replace
from typing import Any, Callable, Mapping, Optional

from ..engine import (ColumnRef, DataType, FunctionRef, Planner,
                      QueryResult, Table, compile_expression, contains_variables,
                      make_session, read_locks, referenced_tables)
from ..engine.catalog import Database
from ..engine.compile import table_layout
from ..engine.errors import CatalogError
from ..engine.expressions import RowScope
from ..engine.functions import TableValuedFunction
from ..engine.logical import LogicalQuery, RelationRef
from ..engine.operators import SortOp
from ..engine.planner import collect_aggregates
from ..engine.sql import PlanCache, SqlSession, parse_batch
from ..engine.sql.ast import SelectStatement, Statement
from ..telemetry import LatencyHistogram, QUERY_LOG_TABLE, TRACER
from ..telemetry.trace import clip as _clip_sql
from .limits import ServiceClass, default_service_classes


class AdmissionRejected(RuntimeError):
    """A submission refused at the door (unknown class or full queue)."""

    def __init__(self, message: str, *, reason: str):
        super().__init__(message)
        self.reason = reason


class QueueTimeout(RuntimeError):
    """A submission that waited longer than its class's queue timeout."""


class PoolShutdown(RuntimeError):
    """The pool was shut down before the submission could run."""


class QueryTicket:
    """Handle for one submitted query; resolves to a :class:`QueryResult`."""

    __slots__ = ("sql", "user_class", "status", "submitted_at", "started_at",
                 "finished_at", "cache_hit", "epoch", "deadline",
                 "query_id", "plan_source", "_result", "_error", "_done")

    def __init__(self, sql: str, user_class: str):
        self.sql = sql
        self.user_class = user_class
        self.status = "queued"
        self.submitted_at = time.perf_counter()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cache_hit = False
        #: Telemetry trace id, once a tracing worker picks the ticket up.
        self.query_id = 0
        #: How the executing session obtained its plan ("cache",
        #: "planned", "feedback" or "fallback"; "" if it did not run).
        self.plan_source = ""
        #: Database epoch the execution observed under its read locks.
        self.epoch: Optional[int] = None
        self.deadline: Optional[float] = None
        self._result: Optional[QueryResult] = None
        self._error: Optional[BaseException] = None
        self._done = threading.Event()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block until the query finishes; re-raises its failure, if any."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query did not finish within {timeout} seconds")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _complete(self, result: QueryResult, *, status: str = "done",
                  cache_hit: bool = False) -> None:
        self._result = result
        self.cache_hit = cache_hit
        self.status = status
        self.finished_at = time.perf_counter()
        self._done.set()

    def _fail(self, error: BaseException, *, status: str = "failed") -> None:
        self._error = error
        self.status = status
        self.finished_at = time.perf_counter()
        self._done.set()


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

Qualifier = Callable[[Mapping[str, Any]], Any]


class ReadSet:
    """What a cached result read, for keeping it across writes: one
    base table, and a test of that table's row images (the qualifier)
    that is TRUE for any row whose insertion or deletion could change
    the result.  ``build`` makes the qualifier on first use: most
    entries never see a write, and compiling costs more than a hit.
    ``total``: the relation is a declared function, whose output is its
    qualifying rows' alone, in a total order."""

    __slots__ = ("table", "total", "_qualifier", "_build")

    def __init__(self, table: Table, build: Callable[[], Qualifier], *,
                 total: bool = False):
        self.table = table
        self.total = total
        self._build = build
        self._qualifier: Optional[Qualifier] = None

    def missed_by(self, since: int, until: int) -> Optional[bool]:
        """Whether every row written while the table's counter moved
        from ``since`` to ``until`` fails the qualifier (NULL fails; a
        qualifier that raises does not); None when the table's change
        log cannot say which rows those were."""
        log = self.table.changes
        rows = None if log is None else log.changes(since, until)
        if rows is None:
            return None
        try:
            if self._qualifier is None:
                self._qualifier = self._build()
            qualifier = self._qualifier
            return not any(qualifier(row) is True for row in rows)
        except Exception:
            return False


@dataclass
class CacheEntry:
    """One cached result and the versions it is valid against."""

    schema_version: int
    #: Lower-cased base-table name -> its ``table_versions`` at execution
    #: time, for every table the query read: the table's
    #: ``(modification_counter,)`` on one node, every shard's counter on
    #: a cluster (whose coordinator cannot see shard-local writes).
    table_versions: dict[str, tuple[int, ...]]
    result: QueryResult
    #: Set when the result's bytes depend on its one relation's
    #: qualifying rows alone: it then outlives writes that miss them.
    read_set: Optional[ReadSet] = None


def _copy_result(result: QueryResult) -> QueryResult:
    """A caller-owned copy: shared cache entries must never be mutated."""
    return QueryResult(
        columns=list(result.columns),
        rows=[dict(row) for row in result.rows],
        statistics=_dataclass_replace(result.statistics),
        plan=result.plan,
    )


class ResultCache:
    """Thread-safe LRU of finished query results.

    Keys are whitespace-normalised SQL (the plan cache's normalisation);
    validity is re-checked on every lookup against the version source's
    ``schema_version`` and ``table_versions(name)`` — the
    :class:`~repro.engine.catalog.Database`, or on a sharded server its
    :class:`~repro.cluster.ShardCluster`.  Any DDL or ANALYZE, and any
    DML against a dependency, invalidates an entry — except that an
    entry with a :class:`ReadSet` survives writes whose rows all fail
    its qualifier, and then adopts the new versions, so each change is
    checked once.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._mutex = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        #: Entries kept across a write that missed their rows.
        self.revalidated = 0
        #: Entries dropped because the change log did not cover the
        #: writes since they were filled (a barrier or an overflow).
        self.stale_by_log = 0

    def lookup(self, key: str, versions: Any, *,
               record_miss: bool = True) -> Optional[QueryResult]:
        """The cached result for ``key`` if still valid against the
        ``versions`` source, else None.

        ``record_miss=False`` keeps a second probe for the same
        submission (the worker's pre-execution re-check) from counting
        one logical miss twice.
        """
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += record_miss
                return None
            if not self._valid(entry, versions):
                del self._entries[key]
                self.invalidations += 1
                self.misses += record_miss
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            result = entry.result
        return _copy_result(result)

    def _valid(self, entry: CacheEntry, versions: Any) -> bool:
        """Whether ``entry`` still answers; caller holds the mutex."""
        if entry.schema_version != versions.schema_version:
            return False
        try:
            current = {name: versions.table_versions(name)
                       for name in entry.table_versions}
        except CatalogError:
            return False
        if current == entry.table_versions:
            return True
        read_set = entry.read_set
        if read_set is None:
            return False
        name = read_set.table.name.lower()
        (since,), (until,) = entry.table_versions[name], current[name]
        missed = read_set.missed_by(since, until)
        if not missed:
            self.stale_by_log += missed is None
            return False
        entry.table_versions = current
        self.revalidated += 1
        return True

    def put(self, key: str, entry: CacheEntry) -> None:
        entry = CacheEntry(entry.schema_version, dict(entry.table_versions),
                           _copy_result(entry.result), entry.read_set)
        with self._mutex:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def statistics(self) -> dict[str, Any]:
        with self._mutex:
            size = len(self._entries)
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "revalidated": self.revalidated,
            "stale_by_log": self.stale_by_log,
            "size": size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate(), 4),
        }


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

#: The query log's lower-cased name, as :class:`_BatchInfo` lists tables.
_QUERY_LOG = QUERY_LOG_TABLE.lower()


@dataclass
class _BatchInfo:
    """Memoised per-SQL metadata: the parsed batch (handed to the
    executing session), which tables to lock, cacheability, and the
    read set its results may carry (:meth:`SkyServerPool._read_set`)."""

    schema_version: int
    statements: list[Statement]
    table_names: tuple[str, ...]     # lower-cased base tables
    cacheable: bool
    read_set: Optional[ReadSet] = None


#: Aggregates whose value is a function of the set of rows aggregated.
#: A float SUM or AVG is not: its last bits follow the order rows arrive
#: in, which a plan costed on a grown table may change.
_SET_AGGREGATES = frozenset({"count", "count_big"})

#: Column types whose equal values are the same value, so MIN, MAX,
#: GROUP BY and DISTINCT over them do not depend on the order rows
#: arrive in.  Over floats they do: 0.0 and -0.0 are equal and the
#: first seen is kept, and a NaN compares false with everything.
_ORDERED_TYPES = frozenset({DataType.INTEGER, DataType.BIGINT,
                            DataType.TEXT, DataType.BOOLEAN})


def _ordered_column(expression: Any, table: Table) -> bool:
    """Whether ``expression`` is a column of ``table`` whose type is in
    :data:`_ORDERED_TYPES`."""
    column = (table.column(expression.name)
              if isinstance(expression, ColumnRef) else None)
    return column is not None and column.dtype in _ORDERED_TYPES


def _set_function(query: LogicalQuery, table: Table) -> bool:
    """Whether ``query``'s output over ``table`` is a function of the
    set of rows it reads, whatever order they arrive in: its aggregates
    are COUNTs or MIN/MAX of ordered columns, and its GROUP BY keys and
    DISTINCT items are ordered columns."""
    expressions = [item.expression for item in query.select]
    expressions += [order.expression for order in query.order_by]
    if query.having is not None:
        expressions.append(query.having)
    for aggregate in (aggregate for expression in expressions
                      for aggregate in collect_aggregates(expression)):
        if aggregate.func in _SET_AGGREGATES:
            continue
        if aggregate.func not in ("min", "max") or not _ordered_column(
                aggregate.argument, table):
            return False
    keys = list(query.group_by)
    if query.distinct:
        keys += [item.expression for item in query.select]
    return all(_ordered_column(key, table) for key in keys)


def _conjunction(parts: list[Callable[[Any], Any]], binding_name: str
                 ) -> Callable[[Mapping[str, Any]], bool]:
    """A row test TRUE when every compiled conjunct is.  Each conjunct
    is evaluated (no short circuit), so a row on which any of them
    raises — in whatever order a plan would meet them — raises here."""

    def qualifier(row: Mapping[str, Any]) -> bool:
        binding = {binding_name: row}
        values = [part(binding) for part in parts]
        return all(value is True for value in values)
    return qualifier


class SkyServerPool:
    """A thread pool of worker sessions with admission control.

    ``server`` may be a :class:`~repro.skyserver.server.SkyServer` (the
    pool attaches itself, surfacing its counters through
    ``site_statistics()["serving"]``) or a bare
    :class:`~repro.engine.catalog.Database`.
    """

    def __init__(self, server: Any, *, workers: int = 8,
                 service_classes: Optional[dict[str, ServiceClass]] = None,
                 result_cache_size: int = 256):
        self.database: Database = getattr(server, "database", server)
        #: The server's shard cluster, when it is a cluster coordinator:
        #: worker sessions route through the distributed planner.
        self.cluster = getattr(server, "cluster", None)
        #: The result cache's version source (``schema_version`` and
        #: ``table_versions(name)``): the cluster, whose shards see
        #: writes the coordinator does not, else the database.
        self.versions = self.cluster if self.cluster is not None else self.database
        if self.cluster is None:
            # Entries with a read set are kept across writes that miss
            # them; the tables' change logs say which rows a write hit.
            # A cluster's entries keep exact version validation.
            self.database.track_changes()
        self.service_classes = dict(service_classes or default_service_classes())
        self.result_cache = ResultCache(result_cache_size)
        self._cond = threading.Condition()
        self._queue: "deque[QueryTicket]" = deque()
        self._running = {name: 0 for name in self.service_classes}
        self._queued = {name: 0 for name in self.service_classes}
        self._shutdown = False
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.queue_timeouts = 0
        self.queue_depth_peak = 0
        self._per_class: dict[str, dict[str, int]] = {
            name: {"submitted": 0, "completed": 0, "failed": 0,
                   "rejected": 0, "queue_timeouts": 0}
            for name in self.service_classes}
        #: Memoised per-SQL lock/cacheability metadata; bounded LRU so
        #: an endless stream of distinct ad-hoc queries cannot grow it
        #: without limit (the plan/result caches are bounded too).
        self._batch_info: "OrderedDict[str, _BatchInfo]" = OrderedDict()
        self._batch_info_capacity = 1024
        self._batch_info_lock = threading.Lock()
        #: Cacheable queries currently executing, for dogpile coalescing:
        #: cache key -> tickets parked on the leader's completion.  A
        #: parked follower consumes no worker thread.
        self._inflight: dict[str, list[QueryTicket]] = {}
        self._inflight_lock = threading.Lock()
        self.coalesced = 0
        #: The server's telemetry bundle when fronting a SkyServer (the
        #: query log + server-level latency); None over a bare Database.
        self.telemetry = getattr(server, "telemetry", None)
        #: Queue-wait and execution latency histograms, computed from
        #: the ticket timestamps every completion already records.
        self.queue_wait = LatencyHistogram("pool.queue_wait_seconds")
        self.execution_latency = LatencyHistogram("pool.execution_seconds")
        #: Tickets expired by the deadline watchdog while _cond was
        #: held; observed (histograms + query log) outside the lock —
        #: the log append takes a table write lock and must never be
        #: attempted while holding the pool condition.
        self._expired_pending: "deque[QueryTicket]" = deque()
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"skyserver-worker-{index}")
            for index in range(workers)]
        for thread in self._threads:
            thread.start()
        # One watchdog enforces queue deadlines even while every worker
        # is busy (no per-ticket timer threads).
        self._reaper: Optional[threading.Thread] = None
        if any(service.queue_timeout_seconds is not None
               for service in self.service_classes.values()):
            self._reaper = threading.Thread(target=self._reap_loop, daemon=True,
                                            name="skyserver-reaper")
            self._reaper.start()
        attach = getattr(server, "attach_pool", None)
        if callable(attach):
            attach(self)

    # -- submission --------------------------------------------------------

    def submit(self, sql: str, user_class: str = "public") -> QueryTicket:
        """Admit one query; returns a ticket resolving to its result.

        Raises :class:`AdmissionRejected` when the class is unknown or
        its queue is full.  A result-cache hit completes the ticket
        immediately, without consuming a worker.
        """
        service = self.service_classes.get(user_class)
        if service is None:
            with self._cond:
                self.rejected += 1
            raise AdmissionRejected(
                f"unknown service class {user_class!r} "
                f"(have {sorted(self.service_classes)})", reason="unknown-class")
        ticket = QueryTicket(sql, user_class)
        cached = self.result_cache.lookup(self._cache_key(sql, user_class),
                                          self.versions)
        if cached is not None:
            with self._cond:
                self.submitted += 1
                self.completed += 1
                self._per_class[user_class]["submitted"] += 1
                self._per_class[user_class]["completed"] += 1
            ticket._complete(cached, cache_hit=True)
            self._observe_ticket(ticket)
            return ticket
        with self._cond:
            if self._shutdown:
                raise PoolShutdown("the serving pool has been shut down")
            if self._queued[user_class] >= service.max_queue_depth:
                self.rejected += 1
                self._per_class[user_class]["rejected"] += 1
                raise AdmissionRejected(
                    f"{user_class} queue is full "
                    f"({service.max_queue_depth} waiting)", reason="queue-full")
            if service.queue_timeout_seconds is not None:
                ticket.deadline = ticket.submitted_at + service.queue_timeout_seconds
            self.submitted += 1
            self._per_class[user_class]["submitted"] += 1
            self._queued[user_class] += 1
            self._queue.append(ticket)
            self.queue_depth_peak = max(self.queue_depth_peak, len(self._queue))
            # notify_all: both an idle worker and the deadline reaper
            # listen on this condition.
            self._cond.notify_all()
        return ticket

    def _reap_loop(self) -> None:
        """Watchdog: expire overdue queued tickets on schedule.

        Without it a deadline would only be noticed the next time a
        worker looks at the queue — potentially the full runtime of
        whatever long queries keep every worker busy.
        """
        while True:
            with self._cond:
                if self._shutdown:
                    return
                self._expire_overdue()
                if not self._expired_pending:
                    deadlines = [ticket.deadline for ticket in self._queue
                                 if ticket.deadline is not None]
                    if deadlines:
                        delay = max(0.0, min(deadlines) - time.perf_counter())
                        self._cond.wait(delay + 0.001)
                    else:
                        self._cond.wait()
            # Expired tickets are observed with _cond released (the
            # query-log append takes a table lock); loop back around to
            # recompute deadlines afterwards.
            self._drain_expired()

    def _expire_overdue(self) -> None:
        """Fail every queued ticket past its deadline; caller holds _cond."""
        now = time.perf_counter()
        keep: "deque[QueryTicket]" = deque()
        while self._queue:
            ticket = self._queue.popleft()
            if ticket.deadline is not None and now > ticket.deadline:
                self._queued[ticket.user_class] -= 1
                self.queue_timeouts += 1
                self._per_class[ticket.user_class]["queue_timeouts"] += 1
                service = self.service_classes[ticket.user_class]
                ticket._fail(QueueTimeout(
                    f"waited longer than the {ticket.user_class} queue timeout "
                    f"of {service.queue_timeout_seconds:g}s"), status="timeout")
                self._expired_pending.append(ticket)
            else:
                keep.append(ticket)
        self._queue.extend(keep)

    def execute(self, sql: str, user_class: str = "public", *,
                timeout: Optional[float] = None) -> QueryResult:
        """Submit and wait: the synchronous convenience path."""
        return self.submit(sql, user_class).result(timeout)

    # -- worker loop -------------------------------------------------------

    def _worker(self) -> None:
        sessions: dict[str, SqlSession] = {}
        while True:
            with self._cond:
                ticket = self._pop_eligible()
                while ticket is None:
                    if self._shutdown:
                        return
                    self._cond.wait()
                    ticket = self._pop_eligible()
            self._drain_expired()
            try:
                self._run_ticket(ticket, sessions)
            finally:
                with self._cond:
                    self._running[ticket.user_class] -= 1
                    self._cond.notify_all()

    def _pop_eligible(self) -> Optional[QueryTicket]:
        """Next runnable ticket (expiring stale ones); caller holds _cond."""
        self._expire_overdue()
        survivors: list[QueryTicket] = []
        chosen: Optional[QueryTicket] = None
        while self._queue:
            ticket = self._queue.popleft()
            service = self.service_classes[ticket.user_class]
            if chosen is None and self._running[ticket.user_class] < service.max_concurrent:
                chosen = ticket
                self._queued[ticket.user_class] -= 1
                self._running[ticket.user_class] += 1
            else:
                survivors.append(ticket)
        self._queue.extend(survivors)
        return chosen

    def _run_ticket(self, ticket: QueryTicket, sessions: dict[str, SqlSession]) -> None:
        """Telemetry shell around :meth:`_run_ticket_inner`.

        Opens the root ``query`` span (backdated to submission so it
        covers the queue wait), records the admission wait as a child
        span, and — whether tracing is on or not — feeds the latency
        histograms and the query log once the ticket resolves.  A
        coalesced ticket resolves later, on its leader's thread, and is
        observed there instead.
        """
        ticket.started_at = time.perf_counter()
        ticket.status = "running"
        tracer = TRACER
        if not tracer.enabled:
            self._run_ticket_inner(ticket, sessions)
            self._observe_ticket(ticket)
            return
        with tracer.span("query", started=ticket.submitted_at,
                         sql=_clip_sql(ticket.sql),
                         user_class=ticket.user_class, via="pool") as root:
            ticket.query_id = root.query_id
            tracer.record("pool.admission", started=ticket.submitted_at,
                          ended=ticket.started_at, parent=root,
                          queue_wait_ms=round(
                              (ticket.started_at - ticket.submitted_at)
                              * 1000.0, 3))
            self._run_ticket_inner(ticket, sessions)
            root.attributes["status"] = ticket.status
            root.attributes["cache_hit"] = ticket.cache_hit
        self._observe_ticket(ticket)

    def _run_ticket_inner(self, ticket: QueryTicket,
                          sessions: dict[str, SqlSession]) -> None:
        key = self._cache_key(ticket.sql, ticket.user_class)
        # A duplicate submitted while its twin was still queued may be
        # servable by now; re-probe before paying for execution.
        tracer = TRACER
        if tracer.enabled:
            with tracer.span("result_cache") as span:
                cached = self.result_cache.lookup(key, self.versions,
                                                  record_miss=False)
                span.attributes["hit"] = cached is not None
        else:
            cached = self.result_cache.lookup(key, self.versions,
                                              record_miss=False)
        if cached is not None:
            with self._cond:
                self.completed += 1
                self._per_class[ticket.user_class]["completed"] += 1
            ticket._complete(cached, cache_hit=True)
            return
        session = sessions.get(ticket.user_class)
        if session is None:
            limits = self.service_classes[ticket.user_class].limits
            session = make_session(self.database, cluster=self.cluster,
                                   row_limit=limits.max_rows,
                                   time_limit_seconds=limits.max_seconds)
            sessions[ticket.user_class] = session
        try:
            info = self._analyze_batch(ticket.sql, key)
        except Exception as error:
            self._finish_failed(ticket, error)
            return
        if not info.cacheable:
            self._execute(ticket, session, info, key)
            return
        # Dogpile coalescing: the first worker on a cacheable query
        # becomes its leader and executes; a duplicate is *parked* on
        # the leader's completion — the worker that picked it up returns
        # to the pool immediately instead of blocking on the same answer.
        with self._inflight_lock:
            followers = self._inflight.get(key)
            if followers is not None:
                followers.append(ticket)
                ticket.status = "coalesced"
                return
            self._inflight[key] = []
        try:
            self._execute(ticket, session, info, key)
        finally:
            with self._inflight_lock:
                followers = self._inflight.pop(key, [])
            self._resolve_followers(followers, key)

    def _resolve_followers(self, followers: list[QueryTicket], key: str) -> None:
        """Serve tickets parked behind a finished leader.

        On a successful leader the cache fill satisfies them all; if the
        leader failed (or the entry was invalidated immediately), the
        followers go back into the admission queue to execute on their
        own.
        """
        for ticket in followers:
            cached = self.result_cache.lookup(key, self.versions,
                                              record_miss=False)
            if cached is not None:
                with self._cond:
                    self.coalesced += 1
                    self.completed += 1
                    self._per_class[ticket.user_class]["completed"] += 1
                ticket._complete(cached, cache_hit=True)
                self._observe_ticket(ticket)
                continue
            with self._cond:
                if self._shutdown:
                    shut_down = True
                else:
                    shut_down = False
                    ticket.status = "queued"
                    self._queued[ticket.user_class] += 1
                    self._queue.append(ticket)
                    self._cond.notify_all()
            if shut_down:
                ticket._fail(PoolShutdown("the serving pool was shut down"),
                             status="rejected")
                self._observe_ticket(ticket)

    def _execute(self, ticket: QueryTicket, session: SqlSession,
                 info: "_BatchInfo", key: str) -> None:
        """Run the batch; fill the result cache if nothing moved under it.

        On one node the worker holds the read locks of every table the
        batch reads.  On a cluster it takes none: the session locks the
        shards (or the gathered coordinator copies) itself, and a
        data-shipping fallback needs the coordinator's write lock to
        re-gather, a forbidden upgrade from a read lock.  Either way the
        result is cached only when every table's versions read before
        the run (and the schema version) equal those read after it.
        """
        if self.telemetry is not None and _QUERY_LOG in info.table_names:
            # Before the read locks: the flush write-locks QueryLog.
            self.telemetry.flush_query_log()
        names = [name for name in info.table_names
                 if self.database.has_table(name)]
        locked = ([] if self.cluster is not None
                  else [self.database.table(name) for name in names])
        try:
            with read_locks(locked):
                before = self._versions(names)
                ticket.epoch = self.database.epoch + (
                    self.cluster.epoch if self.cluster is not None else 0)
                result = session.query(ticket.sql, statements=info.statements)
                ticket.plan_source = session.last_plan_source
                after = self._versions(names)
            if info.cacheable and before == after:
                self.result_cache.put(key, CacheEntry(
                    *after, result, self._read_set(info, result)))
        except Exception as error:
            self._finish_failed(ticket, error)
            return
        with self._cond:
            self.completed += 1
            self._per_class[ticket.user_class]["completed"] += 1
        ticket._complete(result)

    def _versions(self, names: list[str]
                  ) -> tuple[int, dict[str, tuple[int, ...]]]:
        """The schema version and ``names``' table versions, as a
        :class:`CacheEntry` records them."""
        return (self.versions.schema_version,
                {name: self.versions.table_versions(name) for name in names})

    def _finish_failed(self, ticket: QueryTicket, error: BaseException) -> None:
        with self._cond:
            self.failed += 1
            self._per_class[ticket.user_class]["failed"] += 1
        ticket._fail(error)

    # -- telemetry ---------------------------------------------------------

    def _observe_ticket(self, ticket: QueryTicket) -> None:
        """Feed a resolved ticket's timestamps to the latency histograms
        and the server's query log.  Never called with ``_cond`` held —
        the log append takes a table write lock.  A ticket that is not
        finished yet (a parked coalesced follower) is skipped; it is
        observed when its leader resolves it.
        """
        if ticket.finished_at is None:
            return
        if ticket.started_at is not None:
            self.queue_wait.observe(ticket.started_at - ticket.submitted_at)
            self.execution_latency.observe(
                ticket.finished_at - ticket.started_at)
        else:
            # Completed at the door (result-cache hit in submit): no
            # queue time, and the whole life of the ticket is "execution".
            self.queue_wait.observe(0.0)
            self.execution_latency.observe(
                ticket.finished_at - ticket.submitted_at)
        if self.telemetry is not None:
            self.telemetry.record_pool_query(
                ticket, plan_source=ticket.plan_source)

    def _drain_expired(self) -> None:
        """Observe tickets the watchdog expired while holding ``_cond``."""
        while True:
            try:
                ticket = self._expired_pending.popleft()
            except IndexError:
                return
            self._observe_ticket(ticket)

    # -- batch metadata ----------------------------------------------------

    @staticmethod
    def _cache_key(sql: str, user_class: str) -> str:
        """Normalised SQL, scoped per service class.

        Classes run under different row/time budgets: sharing one entry
        across classes would hand a public user a power/admin result
        that the public limits would have rejected.
        """
        return user_class + "\x00" + PlanCache.normalize(sql)

    @staticmethod
    def _read_set(info: _BatchInfo, result: QueryResult) -> Optional[ReadSet]:
        """``info``'s read set when ``result``'s bytes are a function of
        its relation's qualifying rows alone, else None.

        A fresh execution after a write may run another plan (plans are
        costed on live row counts), so rows that tie in the order, or
        that a TOP picks among equals, may come out otherwise.  Safe
        are: a declared function's output (ordered totally); at most one
        row that no TOP cut; and an ORDER BY whose sort emitted strictly
        increasing keys — with a TOP, the row it pulled and cut sorts
        after the last it kept.
        """
        read_set = info.read_set
        if read_set is None or read_set.total:
            return read_set
        query = info.statements[0].query
        rows = len(result.rows)
        if rows <= 1 and (query.top is None or rows < query.top):
            return read_set
        if query.order_by:
            sort = result.plan.root
            while not isinstance(sort, SortOp):
                children = sort.children()
                if len(children) != 1:
                    return None
                sort = children[0]
            if not sort.tied:
                return read_set
        return None

    def _table_function(self, relation: RelationRef
                        ) -> Optional[TableValuedFunction]:
        """The table-valued function ``relation`` calls, as the planner
        resolves it (a bare name is a call without arguments)."""
        functions = self.database.functions
        if functions.has_table_valued(relation.name):
            return functions.table_valued(relation.name)
        return None

    def _candidate_read_set(self, query: LogicalQuery, tables: tuple[str, ...]
                            ) -> Optional[ReadSet]:
        """The read set a cacheable statement reading the base ``tables``
        may give its results, or None when its entries must keep exact
        version validation: a sharded server, a join, an output that
        follows the order rows arrive in (:func:`_set_function`), or an
        undeclared (or unqualified) function."""
        relations = query.all_relations()
        if self.cluster is not None or len(relations) != 1 or len(tables) != 1:
            return None
        relation = relations[0]
        table = self.database.table(tables[0])
        function = self._table_function(relation)
        if function is not None:
            if function.qualifier is None:
                return None
            evaluation = self.database.evaluation_context()
            arguments = relation.args if isinstance(relation, FunctionRef) else ()
            try:
                values = [argument.evaluate(RowScope(), evaluation)
                          for argument in arguments]
            except Exception:
                return None
            return ReadSet(table, lambda: function.qualifier(*values), total=True)
        if not _set_function(query, table):
            return None
        return ReadSet(table, lambda: self._qualifier(query))

    def _qualifier(self, query: LogicalQuery) -> Qualifier:
        """The one relation's filter as the planner pools it — the WHERE
        conjuncts bound to it, its views' predicates and the constant
        conjuncts — compiled as a row test (:func:`_conjunction`)."""
        planner = Planner(self.database)
        info = planner._resolve_relation(query.all_relations()[0])
        pool = planner._build_predicate_pool(query, [info])
        planner._assign_local_conjuncts(pool, [info])
        evaluation = self.database.evaluation_context()
        layout = table_layout(info.table, info.binding_name)
        return _conjunction(
            [compile_expression(part, evaluation, layout)
             for part in info.local_conjuncts + pool.remaining],
            info.binding_name)

    def _analyze_batch(self, sql: str, key: str) -> _BatchInfo:
        """Which base tables the batch reads, whether to cache it, and
        how its cached results may outlive writes."""
        version = self.database.schema_version
        with self._batch_info_lock:
            info = self._batch_info.get(key)
            if info is not None and info.schema_version == version:
                self._batch_info.move_to_end(key)
                return info
        names: set[str] = set()
        cacheable = True
        lock_all = False
        statements = parse_batch(sql)
        for statement in statements:
            if isinstance(statement, SelectStatement) and statement.query is not None:
                names |= referenced_tables(statement.query)
                if statement.query.into or contains_variables(statement.query):
                    cacheable = False
                for relation in statement.query.all_relations():
                    function = self._table_function(relation)
                    if function is not None and function.reads is not None:
                        names.update(function.reads)
                    elif function is not None or isinstance(relation, FunctionRef):
                        # An undeclared function reads tables we cannot
                        # see: its results cannot be keyed to
                        # modification counters (so never cached), and
                        # the execution read-locks *every* table.
                        cacheable = False
                        lock_all = True
            else:
                # DECLARE / SET / ANALYZE: session state or statistics
                # mutation — execute fine, but never serve across users.
                cacheable = False
        if lock_all:
            resolved = {name.lower() for name in self.database.table_names()}
        else:
            resolved = set()
            for name in names:
                if self.database.has_view(name):
                    resolved.add(self.database.resolve_relation(name).table_name.lower())
                elif self.database.has_table(name):
                    resolved.add(self.database.table(name).name.lower())
        table_names = tuple(sorted(resolved))
        if _QUERY_LOG in table_names:
            # Every request appends to the log: a cached answer over it
            # would be stale by the next request.
            cacheable = False
        read_set = None
        if cacheable and len(statements) == 1:
            read_set = self._candidate_read_set(statements[0].query, table_names)
        info = _BatchInfo(version, statements, table_names, cacheable, read_set)
        with self._batch_info_lock:
            self._batch_info[key] = info
            self._batch_info.move_to_end(key)
            while len(self._batch_info) > self._batch_info_capacity:
                self._batch_info.popitem(last=False)
        return info

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; queued-but-unstarted tickets fail."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            if self.cluster is None:
                self.database.track_changes(False)
            leftovers = list(self._queue)
            self._queue.clear()
            for ticket in leftovers:
                self._queued[ticket.user_class] -= 1
            self._cond.notify_all()
        for ticket in leftovers:
            ticket._fail(PoolShutdown("the serving pool was shut down"),
                         status="rejected")
            self._observe_ticket(ticket)
        self._drain_expired()
        if wait:
            for thread in self._threads:
                thread.join()
            if self._reaper is not None:
                self._reaper.join()
        if self.telemetry is not None:
            self.telemetry.flush_query_log()

    def __enter__(self) -> "SkyServerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- introspection -----------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """The ``site_statistics()["serving"]["pool"]`` payload."""
        with self._cond:
            return {
                "workers": len(self._threads),
                "queue_depth": len(self._queue),
                "queue_depth_peak": self.queue_depth_peak,
                "running": dict(self._running),
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "queue_timeouts": self.queue_timeouts,
                "coalesced": self.coalesced,
                "latency": {
                    "queue_wait": self.queue_wait.snapshot(),
                    "execution": self.execution_latency.snapshot(),
                },
                "result_cache": self.result_cache.statistics(),
                "classes": {
                    name: {**counters,
                           "limits": self.service_classes[name].describe()}
                    for name, counters in self._per_class.items()},
                "epoch": self.database.epoch,
            }
