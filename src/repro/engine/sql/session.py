"""SQL session: executes multi-statement batches against a database.

A session owns the variable environment created by ``DECLARE``/``SET``
statements (the paper's Query 1 batch declares ``@saturated`` and sets
it from ``dbo.fPhotoFlags('saturated')`` before using it in the WHERE
clause) and runs SELECT statements through the planner.  The session
can also enforce the public SkyServer limits (1 000 rows / 30 seconds,
§4) when asked to.

Sessions keep an LRU **plan cache** keyed by whitespace-normalised SQL
text.  The SkyServer workload is dominated by hot template queries (the
same cone searches and colour cuts over and over, §4/§7), so the second
execution of an identical batch skips the lexer, parser and planner
entirely and re-executes the cached physical plan.  Cache entries
record the catalog's schema version at planning time and are dropped
when DDL (CREATE/DROP of tables, views, indexes or functions) bumps it;
batches that themselves change the schema (``SELECT ... INTO``) are
never cached, because their plans capture catalog objects the next
execution would replace.

A caller that has already parsed the batch passes its statements
(``query(sql, statements=...)``): a plan-cache miss then plans them
instead of parsing the text again.  Planning only reads the AST, so one
parse may be planned by several sessions at once (the serving pool's
workers share its memoised parse).

:class:`~repro.cluster.ClusterSession` is this session over a shard
cluster's coordinator.  It overrides how ANALYZE runs (:meth:`_analyze`),
how a SELECT gets its plan (:meth:`_plan_select`), when a cached batch
is stale (:meth:`_stale`) and records no cardinality feedback;
everything else is this class.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..catalog import Database
from ..errors import SQLSyntaxError
from ..expressions import RowScope
from ..logical import referenced_tables
from ..operators import PhysicalOperator, PhysicalPlan, QueryResult, TableScan
from ..planner import Planner
from ..stats import FEEDBACK_QERROR_THRESHOLD, q_error
from ...telemetry.trace import TRACER
from .ast import (AnalyzeStatement, DeclareStatement, SelectStatement,
                  SetStatement, Statement)
from .parser import parse_batch


@dataclass
class StatementResult:
    """The outcome of one statement within a batch."""

    statement: Statement
    kind: str                      # "declare", "set", "select" or "analyze"
    result: Optional[QueryResult] = None
    variable: Optional[str] = None
    value: Any = None


@dataclass
class CachedBatch:
    """One plan-cache entry: a parsed batch and its per-statement plans."""

    schema_version: int
    statements: list[Statement]
    #: Lower-cased base tables the batch reads (views resolved): the
    #: entry survives DDL that touches none of them.
    tables: frozenset[str] = frozenset()
    #: Plans keyed by statement position, filled lazily as statements run
    #: (a SELECT later in a batch must be planned after the statements
    #: before it have executed).  Whatever :meth:`SqlSession._plan_select`
    #: returns: a :class:`PhysicalPlan` here, a cluster statement plan in
    #: :class:`~repro.cluster.ClusterSession`.
    plans: dict[int, PhysicalPlan] = field(default_factory=dict)


class PlanCache:
    """A small LRU of parsed/planned batches, invalidated by DDL on their tables."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedBatch]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    @staticmethod
    def normalize(sql_text: str) -> str:
        """Whitespace-collapsed cache key.

        Case is preserved and quoted string literals are copied verbatim
        (including their whitespace and ``''`` escapes): ``'a  b'`` and
        ``'a b'`` are different queries and must not share an entry.
        Text without a quote takes one C-level pass: ``str.split()``
        splits on exactly the characters ``str.isspace()`` accepts.
        """
        if "'" not in sql_text:
            return " ".join(sql_text.split())
        out: list[str] = []
        pending_space = False
        i, n = 0, len(sql_text)
        while i < n:
            ch = sql_text[i]
            if ch == "'":
                end = i + 1
                while end < n:
                    if sql_text[end] == "'":
                        if end + 1 < n and sql_text[end + 1] == "'":
                            end += 2
                            continue
                        break
                    end += 1
                end = min(end, n - 1)
                if pending_space and out:
                    out.append(" ")
                pending_space = False
                out.append(sql_text[i:end + 1])
                i = end + 1
            elif ch.isspace():
                pending_space = True
                i += 1
            else:
                if pending_space and out:
                    out.append(" ")
                pending_space = False
                out.append(ch)
                i += 1
        return "".join(out)

    def get(self, sql_text: str,
            stale: Callable[[CachedBatch], bool]) -> Optional[CachedBatch]:
        """The entry for ``sql_text``, unless ``stale`` says it no longer holds."""
        key = self.normalize(sql_text)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if stale(entry):
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, sql_text: str, entry: CachedBatch) -> None:
        key = self.normalize(sql_text)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql_text: str) -> bool:
        return self.normalize(sql_text) in self._entries

    def statistics(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "size": len(self._entries),
            "capacity": self.capacity,
        }


class SqlSession:
    """Executes SQL batches, keeping variable state between statements."""

    def __init__(self, database: Database, *,
                 row_limit: Optional[int] = None,
                 time_limit_seconds: Optional[float] = None,
                 planner: Optional[Planner] = None,
                 plan_cache_size: int = 128):
        self.database = database
        self.planner = planner or Planner(database)
        self.variables: dict[str, Any] = {}
        self.row_limit = row_limit
        self.time_limit_seconds = time_limit_seconds
        self.plan_cache = PlanCache(plan_cache_size)
        #: SELECT executions that ran (at least partly) through the
        #: vectorized batch pipeline vs purely row-at-a-time.
        self.batch_executions = 0
        self.row_executions = 0
        self.batches_processed = 0
        #: Sealed segments scanned vs skipped-or-answered by zone maps
        #: across this session's SELECTs.
        self.segments_scanned = 0
        self.segments_skipped = 0
        #: Cardinality feedback, keyed like the plan cache plus statement
        #: position: observed per-relation row counts (with the schema
        #: version they were observed under) from executions whose worst
        #: per-operator q-error reached ``FEEDBACK_QERROR_THRESHOLD``.
        #: The misestimated cached plan is invalidated; the next
        #: execution re-plans with these counts as cardinality overrides.
        self.feedback_cache: dict[tuple[str, int],
                                  tuple[int, dict[str, int]]] = {}
        self.feedback_invalidations = 0
        self.feedback_replans = 0
        #: How the most recent SELECT obtained its plan: "cache" (plan
        #: cache hit), "planned" (fresh plan), "feedback" (re-planned
        #: with observed cardinalities) or, on a cluster, "fallback"
        #: (fresh data-shipping plan).  Pure telemetry — read by spans
        #: and the query log, never by the engine itself.
        self.last_plan_source = ""
        #: When True, executions install per-operator wall-clock timers
        #: (EXPLAIN ANALYZE turns this on around its execution).
        self._time_operators = False

    # -- variables ----------------------------------------------------------

    def declare(self, name: str, type_name: str = "bigint") -> None:
        self.variables.setdefault(name.lower(), None)

    def set_variable(self, name: str, value: Any) -> None:
        self.variables[name.lower()] = value

    # -- execution -------------------------------------------------------------

    def execute(self, sql_text: str, *,
                statements: Optional[list[Statement]] = None
                ) -> list[StatementResult]:
        """Execute every statement of ``sql_text``; returns per-statement
        results.  ``statements``: ``parse_batch(sql_text)``, when the
        caller has it (a plan-cache miss plans it instead of parsing)."""
        entry, from_cache = self._lookup_or_parse(sql_text, statements)
        if not entry.statements:
            raise SQLSyntaxError("empty SQL batch")
        results: list[StatementResult] = []
        cache_key = PlanCache.normalize(sql_text)
        for position, statement in enumerate(entry.statements):
            results.append(self._execute_statement(statement, entry, position,
                                                   from_cache, cache_key))
        if (not from_cache and self._cacheable(entry.statements)
                and self.database.schema_version == entry.schema_version):
            # Batches that perform DDL (SELECT INTO) are not cacheable:
            # their plans reference catalog objects they just replaced.
            self.plan_cache.put(sql_text, entry)
        return results

    def query(self, sql_text: str, *,
              statements: Optional[list[Statement]] = None) -> QueryResult:
        """Execute a batch and return the result of its final SELECT
        (``statements`` as for :meth:`execute`)."""
        results = self.execute(sql_text, statements=statements)
        for outcome in reversed(results):
            if outcome.kind == "select" and outcome.result is not None:
                return outcome.result
        raise SQLSyntaxError("batch contained no SELECT statement")

    def plan(self, sql_text: str) -> PhysicalPlan:
        """Plan (without executing) the first SELECT in ``sql_text``."""
        entry, from_cache = self._lookup_or_parse(sql_text)
        for position, statement in enumerate(entry.statements):
            if isinstance(statement, SelectStatement) and statement.query is not None:
                plan = self._acquire_plan(statement, entry, position,
                                          PlanCache.normalize(sql_text))
                if (not from_cache and self._cacheable(entry.statements)
                        and self.database.schema_version == entry.schema_version):
                    self.plan_cache.put(sql_text, entry)
                return plan
        raise SQLSyntaxError("batch contained no SELECT statement")

    def explain(self, sql_text: str, *, analyze: bool = False) -> str:
        """The plan of the batch's SELECT; EXPLAIN ANALYZE executes it first.

        With ``analyze=True`` the whole batch is executed — including
        its DECLARE/SET statements, honouring the session's limits —
        and, exactly like plain ``explain``, the *first* SELECT's plan
        is rendered, now with actual row counts next to the
        optimizer's estimates.
        """
        if analyze:
            # Per-operator wall-clock timers are installed only for this
            # execution: always-on tracing stays statement-level, so the
            # regular path never pays the per-row timing overhead.
            self._time_operators = True
            try:
                for outcome in self.execute(sql_text):
                    if outcome.kind == "select" and outcome.result is not None:
                        return outcome.result.plan.explain()
            finally:
                self._time_operators = False
            raise SQLSyntaxError("batch contained no SELECT statement")
        return self.plan(sql_text).explain()

    def optimizer_statistics(self) -> dict[str, int]:
        """CBO vs fallback plan counts from this session's planner."""
        return {
            "cbo_plans": self.planner.cbo_plans,
            "fallback_plans": self.planner.fallback_plans,
        }

    def execution_mode_statistics(self) -> dict[str, int]:
        """Batch vs row execution counters across this session's SELECTs."""
        return {
            "batch_executions": self.batch_executions,
            "row_executions": self.row_executions,
            "batches_processed": self.batches_processed,
            "segments_scanned": self.segments_scanned,
            "segments_skipped": self.segments_skipped,
        }

    # -- plan cache -------------------------------------------------------------

    def _lookup_or_parse(self, sql_text: str,
                         statements: Optional[list[Statement]] = None
                         ) -> tuple[CachedBatch, bool]:
        entry = self.plan_cache.get(sql_text, self._stale)
        if entry is not None:
            return entry, True
        version = self.database.schema_version
        if statements is None:
            statements = parse_batch(sql_text)
        return CachedBatch(version, statements, self._batch_tables(statements)), False

    def _stale(self, entry: CachedBatch) -> bool:
        """Whether DDL since ``entry`` was planned could affect its plans."""
        version = self.database.schema_version
        if entry.schema_version != version:
            if self.database.changed_since(entry.schema_version, entry.tables):
                return True
            entry.schema_version = version      # the DDL since was elsewhere
        return False

    def _batch_tables(self, statements: list[Statement]) -> frozenset[str]:
        """Lower-cased names of the tables a batch reads, views resolved."""
        names: set[str] = set()
        for statement in statements:
            if isinstance(statement, SelectStatement) and statement.query is not None:
                for name in referenced_tables(statement.query):
                    names.add(name.lower())
                    if self.database.has_view(name):
                        names.add(self.database.resolve_relation(name)
                                  .table_name.lower())
        return frozenset(names)

    @staticmethod
    def _cacheable(statements: list[Statement]) -> bool:
        """False for batches whose execution performs DDL (SELECT ... INTO)
        or mutates optimizer statistics (ANALYZE)."""
        for statement in statements:
            if isinstance(statement, AnalyzeStatement):
                return False
            if (isinstance(statement, SelectStatement)
                    and statement.query is not None and statement.query.into):
                return False
        return True

    # -- statement dispatch -------------------------------------------------------

    def _execute_statement(self, statement: Statement, entry: CachedBatch,
                           position: int, from_cache: bool,
                           cache_key: str) -> StatementResult:
        if isinstance(statement, DeclareStatement):
            for name in statement.names:
                self.declare(name)
            return StatementResult(statement, "declare")
        if isinstance(statement, SetStatement):
            assert statement.expression is not None
            context = self.database.evaluation_context(self.variables)
            value = statement.expression.evaluate(RowScope(), context)
            self.set_variable(statement.name, value)
            return StatementResult(statement, "set", variable=statement.name, value=value)
        if isinstance(statement, AnalyzeStatement):
            return self._analyze(statement)
        if isinstance(statement, SelectStatement):
            assert statement.query is not None
            tracer = TRACER
            if tracer.enabled:
                with tracer.span("plan") as span:
                    plan = self._acquire_plan(statement, entry, position,
                                              cache_key)
                    span.attributes["source"] = self.last_plan_source
                with tracer.span("execute") as span:
                    result = plan.execute(
                        self.variables, row_limit=self.row_limit,
                        time_limit_seconds=self.time_limit_seconds,
                        time_operators=self._time_operators)
                    stats = result.statistics
                    span.attributes.update(
                        rows=len(result.rows),
                        batches=stats.batches_processed,
                        segments_scanned=stats.segments_scanned,
                        segments_skipped=stats.segments_skipped,
                        runtime_filter_rows_pruned=(
                            stats.runtime_filter_rows_pruned))
            else:
                plan = self._acquire_plan(statement, entry, position,
                                          cache_key)
                result = plan.execute(
                    self.variables, row_limit=self.row_limit,
                    time_limit_seconds=self.time_limit_seconds,
                    time_operators=self._time_operators)
            result.statistics.plan_cache_hits = 1 if from_cache else 0
            result.statistics.plan_cache_misses = 0 if from_cache else 1
            if result.statistics.batches_processed:
                self.batch_executions += 1
                self.batches_processed += result.statistics.batches_processed
            else:
                self.row_executions += 1
            self.segments_scanned += result.statistics.segments_scanned
            self.segments_skipped += result.statistics.segments_skipped
            self._record_feedback(cache_key, position, entry, plan)
            return StatementResult(statement, "select", result=result)
        raise SQLSyntaxError(f"unsupported statement type {type(statement).__name__}")

    def _analyze(self, statement: AnalyzeStatement) -> StatementResult:
        names = ([statement.table] if statement.table
                 else self.database.table_names())
        analyzed = [self.database.analyze_table(name).table for name in names]
        return StatementResult(statement, "analyze", value=analyzed)

    def _acquire_plan(self, statement: SelectStatement, entry: CachedBatch,
                      position: int, cache_key: str) -> PhysicalPlan:
        """The statement's plan — cached, fresh, or feedback re-planned —
        recording which on :attr:`last_plan_source`."""
        plan = entry.plans.get(position)
        if plan is not None:
            self.last_plan_source = "cache"
            return plan
        overrides = self._feedback_overrides(cache_key, position, entry)
        if overrides:
            self.feedback_replans += 1
            self.last_plan_source = "feedback"
        else:
            self.last_plan_source = "planned"
        plan = self._plan_select(statement.query, overrides)
        entry.plans[position] = plan
        return plan

    def _plan_select(self, query, overrides: Optional[dict[str, int]]
                     ) -> PhysicalPlan:
        """A fresh plan for one SELECT: anything with ``execute`` and
        ``explain`` as :class:`PhysicalPlan` has them."""
        return self.planner.plan(query, cardinality_overrides=overrides)

    # -- cardinality feedback -----------------------------------------------------

    def _feedback_overrides(self, cache_key: str, position: int,
                            entry: CachedBatch) -> Optional[dict[str, int]]:
        """Observed per-relation row counts for a statement, if still valid."""
        observation = self.feedback_cache.get((cache_key, position))
        if observation is None:
            return None
        version, overrides = observation
        if self.database.changed_since(version, entry.tables):
            # DDL changed the catalog under the observation; drop it
            # rather than steer the planner with counts from tables that
            # may no longer mean the same thing.
            del self.feedback_cache[(cache_key, position)]
            return None
        return overrides

    def _record_feedback(self, cache_key: str, position: int,
                         entry: CachedBatch, plan: PhysicalPlan) -> None:
        """Compare the plan's estimates against its actual row counts.

        When the worst per-operator q-error reaches
        ``FEEDBACK_QERROR_THRESHOLD``, the observed base-relation
        cardinalities are stored in the feedback cache and the cached
        plan for this statement is invalidated, so the next execution
        re-plans with the observations as selectivity overrides.  Table
        scans narrowed by a sibling's runtime join filter are *not*
        observed: their counts reflect the build side's keys, not the
        relation's own predicate selectivity.
        """
        if not getattr(self.planner, "enable_cbo", False):
            return
        observed: dict[str, int] = {}
        worst = 1.0

        def walk(operator: PhysicalOperator) -> None:
            nonlocal worst
            if operator.planner_rows is not None:
                pruned_scan = isinstance(operator, TableScan) and (
                    operator.actual_runtime_segments_pruned
                    or operator.actual_runtime_rows_pruned)
                if not pruned_scan:
                    worst = max(worst, q_error(operator.planner_rows,
                                               operator.actual_rows))
                    if isinstance(operator, TableScan):
                        observed[operator.binding_name.lower()] = \
                            operator.actual_rows
            for child in operator.children():
                walk(child)

        walk(plan.root)
        if worst < FEEDBACK_QERROR_THRESHOLD:
            return
        key = (cache_key, position)
        previous = self.feedback_cache.get(key)
        if (previous is not None and previous[1] == observed
                and not self.database.changed_since(previous[0], entry.tables)):
            # Already re-planned from exactly these observations; the
            # residual misestimate is not something base-relation
            # overrides can fix, so keep the current plan.
            return
        self.feedback_cache[key] = (self.database.schema_version, observed)
        if entry.plans.pop(position, None) is not None:
            self.feedback_invalidations += 1

    def feedback_statistics(self) -> dict[str, int]:
        """Cardinality-feedback counters for this session."""
        return {
            "entries": len(self.feedback_cache),
            "invalidations": self.feedback_invalidations,
            "replans": self.feedback_replans,
        }
