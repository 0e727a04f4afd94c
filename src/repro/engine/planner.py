"""The query planner: from a :class:`LogicalQuery` to a physical operator tree.

The planner is a **cost-based optimizer** that mirrors the behaviour the
paper relies on from SQL Server:

* view references are folded down to the base table with their
  additional qualifiers (§9.1.3);
* cardinalities come from the catalog's ``ANALYZE`` statistics
  (histograms, MCVs, distinct counts — see :mod:`repro.engine.stats`),
  with fixed selectivity constants for tables without them;
* each relation's access path is the cheapest of a sequential table
  scan with the predicate evaluated per row (the "complex colour cut"
  queries of §11), a narrow covering-index scan (the "tag table"
  replacement) and an index seek on a sargable key prefix;
* joins are enumerated greedily in cost order
  (:meth:`Planner._plan_joins`, the only join enumerator; the cluster
  planner reads its choices off the plan).  Small relations — in
  particular the spatial table-valued functions — start the order and
  sit on the outer side of an index nested-loop join that probes the
  big table's index (Figure 10's Query 1 plan);
* a join on ``inner.col BETWEEN outer.a AND outer.b`` (or the
  ``>=``/``<=`` pair) over an indexed inner column can become an index
  nested-loop join whose probe is a *range* seek — §9.1.4's
  ``spHTM_Cover`` join against the ``htmID`` index;
* an equality join that no index probe undercuts becomes a hash join
  with the smaller estimated input as the build side, and anything
  else becomes a nested-loop join (the
  "without the index ... nested loops join of two table scans" case of
  §11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .catalog import Database
from .errors import BindError, PlanError
from .expressions import (AggregateCall, Between, BinaryOp, CaseWhen,
                          ColumnRef, Expression, FunctionCall, InList, Like,
                          Literal, SargablePredicate, Star, UnaryOp,
                          combine_conjuncts, conjuncts, extract_sargable)
from .index import NUMERIC_KEY_TYPES, BTreeIndex
from .logical import FunctionRef, LogicalQuery, RelationRef
from .operators import (CoveringIndexScan, DistinctOp, FilterOp, FunctionScan,
                        GroupAggregate, HashJoin, IndexNestedLoopJoin,
                        IndexRangeScan, InsertIntoOp, NestedLoopJoin,
                        PhysicalOperator, PhysicalPlan, ProjectOp, SortOp,
                        TableScan, TopOp, batch_shape)
from .stats import TableStatistics
from .table import Table
from .types import NULL, DataType

#: Integer-valued column types whose float-accumulated SUM/AVG partials
#: merge bit-exactly while the total stays below 2**53: the rule for
#: shard partials (:meth:`Planner._partial_aggregate_mode`) and for
#: zone-map integer sums.
EXACT_SUM_TYPES = (DataType.INTEGER, DataType.BIGINT, DataType.BOOLEAN)

#: Sentinel for "this bound does not fold to a plan-time constant".
_UNKNOWN = object()


def index_key_prefix(index: BTreeIndex,
                     sargables: dict[str, SargablePredicate]
                     ) -> list[SargablePredicate]:
    """The sargables bounding a key prefix of ``index``: equalities on its
    leading columns, then at most one range.

    The one place this rule lives — the index-seek choice and the
    bounded covering scan both call it.
    """
    prefix: list[SargablePredicate] = []
    for column in index.columns:
        sargable = sargables.get(column)
        if sargable is None:
            break
        prefix.append(sargable)
        if not sargable.is_equality:
            break
    return prefix


def prefix_bounds(prefix: Sequence[SargablePredicate]
                  ) -> tuple[Optional[list[Expression]], Optional[list[Expression]]]:
    """``(low, high)`` key bound expressions of an :func:`index_key_prefix`
    (None where that side is open)."""
    low = [s.low for s in prefix if s.low is not None]
    high = [s.high for s in prefix if s.high is not None]
    return low or None, high or None


def covering_scan_bounds(index: BTreeIndex, table: Table,
                         sargables: dict[str, SargablePredicate],
                         local_conjuncts: Sequence[Expression]
                         ) -> tuple[Optional[list[Expression]], Optional[list[Expression]]]:
    """The key range a covering scan of ``index`` may walk instead of
    the whole index, as :func:`prefix_bounds` (both None: the whole index).

    Only when every local conjunct compares a numeric column with
    numeric (or NULL) literals: those evaluate on every row without
    error, so skipping the rows outside the range cannot turn an error
    the full scan raises — ``sqrt(ra - 3) > 0`` on a row it skips —
    into an answer.
    """
    if not all(_cannot_raise(conjunct, table) for conjunct in local_conjuncts):
        return None, None
    return prefix_bounds(index_key_prefix(index, sargables))


_COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})


def _cannot_raise(conjunct: Expression, table: Table) -> bool:
    """True for ``column op literal`` / ``column BETWEEN literal AND
    literal`` over a numeric column of ``table`` (either side, NOT too)."""
    if isinstance(conjunct, Between):
        column, operands = conjunct.operand, (conjunct.low, conjunct.high)
    elif isinstance(conjunct, BinaryOp) and conjunct.op in _COMPARISONS:
        column, operands = conjunct.left, (conjunct.right,)
        if not isinstance(column, ColumnRef):
            column, operands = conjunct.right, (conjunct.left,)
    else:
        return False
    if not isinstance(column, ColumnRef):
        return False
    definition = table.column(column.name)
    return (definition is not None and definition.dtype in NUMERIC_KEY_TYPES
            and all(_numeric_literal(operand) for operand in operands))


def range_implied(prefix: Sequence[SargablePredicate], table: Table
                  ) -> list[Expression]:
    """The conjuncts of a seek's key ``prefix`` that its walk, when a
    range (not the whole-index fallback), makes TRUE on every row: each
    ``key = number`` on a numeric leading key column, which bounds the
    range at that number inclusively at both ends and cannot raise."""
    implied = []
    for sargable in prefix:
        if not sargable.is_equality:
            break
        conjunct, bound = sargable.source, sargable.low
        while isinstance(bound, UnaryOp):
            bound = bound.operand
        if (isinstance(conjunct, BinaryOp) and conjunct.op == "="
                and _cannot_raise(conjunct, table)
                and isinstance(bound, Literal) and bound.value is not NULL):
            implied.append(conjunct)
    return implied


def _numeric_literal(expression: Expression) -> bool:
    """A number or NULL literal, possibly signed (``-0.5`` parses as
    unary minus of ``0.5``)."""
    while isinstance(expression, UnaryOp) and expression.op in ("-", "+"):
        expression = expression.operand
    return isinstance(expression, Literal) and (
        expression.value is NULL or isinstance(expression.value, (int, float)))


# ---------------------------------------------------------------------------
# Expression utilities
# ---------------------------------------------------------------------------

def transform_expression(expression: Expression, visit) -> Expression:
    """Rebuild an expression bottom-up, applying ``visit`` to every node."""
    if isinstance(expression, BinaryOp):
        rebuilt: Expression = BinaryOp(expression.op,
                                       transform_expression(expression.left, visit),
                                       transform_expression(expression.right, visit))
    elif isinstance(expression, UnaryOp):
        rebuilt = UnaryOp(expression.op, transform_expression(expression.operand, visit))
    elif isinstance(expression, Between):
        rebuilt = Between(transform_expression(expression.operand, visit),
                          transform_expression(expression.low, visit),
                          transform_expression(expression.high, visit),
                          expression.negated)
    elif isinstance(expression, InList):
        rebuilt = InList(transform_expression(expression.operand, visit),
                         [transform_expression(item, visit) for item in expression.items],
                         expression.negated)
    elif isinstance(expression, Like):
        rebuilt = Like(transform_expression(expression.operand, visit),
                       transform_expression(expression.pattern, visit),
                       expression.negated)
    elif isinstance(expression, FunctionCall):
        rebuilt = FunctionCall(expression.name,
                               [transform_expression(arg, visit) for arg in expression.args])
    elif isinstance(expression, CaseWhen):
        rebuilt = CaseWhen(
            [(transform_expression(cond, visit), transform_expression(value, visit))
             for cond, value in expression.branches],
            transform_expression(expression.default, visit)
            if expression.default is not None else None)
    elif isinstance(expression, AggregateCall):
        rebuilt = AggregateCall(
            expression.func,
            transform_expression(expression.argument, visit)
            if expression.argument is not None else None,
            expression.distinct)
    else:
        rebuilt = expression
    return visit(rebuilt)


def qualify_columns(expression: Expression, binding_name: str, table: Table) -> Expression:
    """Qualify unqualified column references that belong to ``table``."""

    def visit(node: Expression) -> Expression:
        if isinstance(node, ColumnRef) and node.qualifier is None and table.has_column(node.name):
            return ColumnRef(node.name, binding_name)
        return node

    return transform_expression(expression, visit)


def collect_aggregates(expression: Expression) -> list[AggregateCall]:
    found: list[AggregateCall] = []

    def walk(node: Expression) -> None:
        if isinstance(node, AggregateCall):
            found.append(node)
            return
        for child in node.children():
            walk(child)

    walk(expression)
    return found


# ---------------------------------------------------------------------------
# Planner internals
# ---------------------------------------------------------------------------

@dataclass
class _RelationInfo:
    """Everything the planner knows about one FROM-clause relation."""

    ref: RelationRef
    binding_name: str
    kind: str                       # "table" or "function"
    table: Optional[Table] = None
    view_chain: list[str] = field(default_factory=list)
    function_name: str = ""
    function_args: Sequence[Expression] = ()
    local_conjuncts: list[Expression] = field(default_factory=list)
    #: A table-valued function's declared row estimate.
    estimated_rows: int = 0


@dataclass
class _PlannedAccessPath:
    operator: PhysicalOperator
    estimated_rows: int
    cost: float


class Planner:
    """Builds physical plans for one database."""

    #: Selectivity guesses used for cardinality estimation.  Without column
    #: histograms these are deliberately conservative: an equality predicate
    #: on a non-unique column (e.g. ``type = 'galaxy'``) keeps a sizeable
    #: fraction of the table, so small relations such as the spatial
    #: table-valued functions still win the outer position of a nested-loop
    #: join (the Figure 10 plan).
    EQUALITY_SELECTIVITY = 0.05
    RANGE_SELECTIVITY = 0.25
    RESIDUAL_SELECTIVITY = 0.5

    #: Cost-model constants (arbitrary units; one sequentially scanned
    #: row costs 1).  A random lookup through an index pays for the
    #: bookmark fetch; hash joins pay per build row (table insert) and
    #: per probe row; covering structures are discounted by their
    #: entry-to-row width ratio.
    SEQ_ROW_COST = 1.0
    RANDOM_LOOKUP_COST = 4.0
    INDEX_ENTRY_COST = 1.0
    HASH_BUILD_COST = 2.0
    HASH_PROBE_COST = 1.0

    def __init__(self, database: Database, *, enable_hash_join: bool = True,
                 enable_vectorized: bool = True,
                 enable_index_join: bool = True,
                 enable_zone_maps: bool = True,
                 enable_runtime_filters: bool = True,
                 # Accepted and ignored: benchmarks/e2e/layers.py:208 still
                 # passes them (ROADMAP item 0 drops that probe).
                 parallelism: int = 1,
                 parallel_row_threshold: Optional[int] = None):
        self.database = database
        #: When False, equality joins without a usable index fall back to a
        #: nested-loop join of the two inputs — the plan SQL Server 2000 chose
        #: for the paper's NEO query once its covering index was removed
        #: (Figure 12's "about 10 minutes" case).  The ablation benchmark uses
        #: this to reproduce that comparison.
        self.enable_hash_join = enable_hash_join
        #: When False, plans over column-backed tables stay row-at-a-time
        #: (the columnar benchmark's ablation switch).
        self.enable_vectorized = enable_vectorized
        #: When False, index nested-loop joins are never considered —
        #: together with ``enable_hash_join`` this pins the join strategy
        #: (the join-equivalence property tests force all three).
        self.enable_index_join = enable_index_join
        #: When False, batch scans never consult per-segment zone maps
        #: (every sealed segment is scanned) and scalar aggregates never
        #: answer segments from them — the segment benchmark's ablation
        #: baseline.  Results are byte-identical either way; only the
        #: amount of data touched changes.
        self.enable_zone_maps = enable_zone_maps
        #: When False, batch hash joins never derive a runtime filter
        #: from a finished build (the benchmark's ablation baseline).
        #: Runtime filters only ever drop probe work the join's exact
        #: hash lookup would drop, so results are byte-identical either
        #: way; only the data touched changes.
        self.enable_runtime_filters = enable_runtime_filters
        #: Number of plans built; the plan-cache tests assert a cache hit
        #: leaves this untouched.
        self.plans_built = 0
        #: Relational plans costed with ANALYZE statistics vs planned on
        #: fallback constants (no table in the plan has statistics).
        self.cbo_plans = 0
        self.fallback_plans = 0
        #: Per-plan cardinality-feedback overrides (binding -> observed
        #: rows), set for the duration of one ``plan()`` call.
        self._overrides: dict[str, int] = {}

    # -- public API ---------------------------------------------------------

    def plan(self, query: LogicalQuery, *,
             cardinality_overrides: Optional[dict[str, int]] = None
             ) -> PhysicalPlan:
        self.plans_built += 1
        if not query.select:
            raise PlanError("query has an empty select list")
        if not query.all_relations():
            return self._plan_relationless(query)

        relations = [self._resolve_relation(ref) for ref in query.all_relations()]
        by_name = {info.binding_name: info for info in relations}
        if len(by_name) != len(relations):
            raise BindError("duplicate relation alias in FROM clause")
        self._check_qualifiers(query, by_name)

        #: Cardinality feedback: observed per-binding row counts from a
        #: previous execution replace the selectivity-model estimate in
        #: ``_estimate_relation`` for the duration of this plan.
        self._overrides = {name.lower(): max(1, int(rows))
                           for name, rows in (cardinality_overrides or {}).items()}
        try:
            predicate_pool = self._build_predicate_pool(query, relations)
            self._assign_local_conjuncts(predicate_pool, relations)
            has_statistics = any(
                info.kind == "table"
                and self.database.table_statistics(info.table.name) is not None
                for info in relations)
            if has_statistics:
                self.cbo_plans += 1
            else:
                self.fallback_plans += 1
            root, planned = self._plan_joins(relations, predicate_pool, query)
        finally:
            self._overrides = {}

        residual = [conjunct for conjunct in predicate_pool.remaining
                    if self._conjunct_aliases(conjunct, by_name) <= planned]
        leftover = [c for c in predicate_pool.remaining if c not in residual]
        if leftover:
            raise PlanError(
                "unplaced predicate(s): " + "; ".join(c.sql() for c in leftover))
        combined = combine_conjuncts(residual)
        if combined is not None:
            root = FilterOp(root, combined)

        return self._finish_plan(root, query, relations)

    # -- table sizes ------------------------------------------------------------
    #
    # Every size fact a plan depends on is read through these three
    # methods.  The cluster planner's subclass answers them with the
    # whole cluster's numbers: its coordinator tables hold no rows.

    def _row_count(self, table: Table) -> int:
        return table.row_count

    def _row_bytes(self, table: Table) -> float:
        return table.average_row_bytes()

    def _storage_kind(self, table: Table) -> str:
        return table.storage.kind

    # -- relation resolution --------------------------------------------------

    def _resolve_relation(self, ref: RelationRef) -> _RelationInfo:
        if isinstance(ref, FunctionRef):
            function = self.database.functions.table_valued(ref.name)
            return _RelationInfo(ref=ref, binding_name=ref.binding_name, kind="function",
                                 function_name=function.name, function_args=list(ref.args),
                                 estimated_rows=function.row_estimate)
        if self.database.functions.has_table_valued(ref.name):
            # A table-valued function referenced without arguments.
            function = self.database.functions.table_valued(ref.name)
            return _RelationInfo(ref=FunctionRef(ref.name, [], ref.alias),
                                 binding_name=ref.binding_name, kind="function",
                                 function_name=function.name, function_args=[],
                                 estimated_rows=function.row_estimate)
        resolved = self.database.resolve_relation(ref.name)
        table = self.database.table(resolved.table_name)
        info = _RelationInfo(ref=ref, binding_name=ref.binding_name, kind="table",
                             table=table, view_chain=resolved.view_chain)
        if resolved.predicate is not None:
            qualified = qualify_columns(resolved.predicate, info.binding_name, table)
            info.local_conjuncts.extend(conjuncts(qualified))
        return info

    # -- predicate management ---------------------------------------------------

    @dataclass
    class _PredicatePool:
        remaining: list[Expression] = field(default_factory=list)

    def _build_predicate_pool(self, query: LogicalQuery,
                              relations: Sequence[_RelationInfo]) -> "_PredicatePool":
        pool = Planner._PredicatePool()
        pool.remaining.extend(conjuncts(query.where))
        for join in query.joins:
            pool.remaining.extend(conjuncts(join.condition))
        return pool

    def _assign_local_conjuncts(self, pool: "_PredicatePool",
                                relations: Sequence[_RelationInfo]) -> None:
        by_name = {info.binding_name: info for info in relations}
        still_remaining: list[Expression] = []
        for conjunct in pool.remaining:
            aliases = self._conjunct_aliases(conjunct, by_name)
            if len(aliases) == 1:
                by_name[next(iter(aliases))].local_conjuncts.append(conjunct)
            elif len(aliases) == 0:
                # Constant predicate: keep it as a residual filter.
                still_remaining.append(conjunct)
            else:
                still_remaining.append(conjunct)
        pool.remaining = still_remaining

    @staticmethod
    def _check_qualifiers(query: LogicalQuery,
                          by_name: dict[str, _RelationInfo]) -> None:
        """Every qualifier in the select list, GROUP BY, HAVING and ORDER
        BY names a FROM relation, as :meth:`_conjunct_aliases` demands of
        WHERE and ON: a reference to no relation would otherwise read
        whatever its access path happened to fetch, or fail only once a
        row reached it."""
        expressions = [item.expression for item in query.select]
        expressions.extend(order.expression for order in query.order_by)
        expressions.extend(query.group_by)
        if query.having is not None:
            expressions.append(query.having)
        for expression in expressions:
            if isinstance(expression, Star):
                qualifiers = ({expression.qualifier.lower()}
                              if expression.qualifier else set())
            else:
                qualifiers = {qualifier for qualifier, _column
                              in expression.referenced_columns()
                              if qualifier is not None}
            unknown = sorted(qualifiers - by_name.keys())
            if unknown:
                raise BindError(
                    f"unknown alias {unknown[0]!r} in {expression.sql()}")

    def _conjunct_aliases(self, conjunct: Expression,
                          by_name: dict[str, _RelationInfo]) -> set[str]:
        aliases: set[str] = set()
        for qualifier, column in conjunct.referenced_columns():
            if qualifier is not None:
                if qualifier in by_name:
                    aliases.add(qualifier)
                else:
                    raise BindError(f"unknown alias {qualifier!r} in {conjunct.sql()}")
                continue
            owners = [info.binding_name for info in by_name.values()
                      if self._relation_has_column(info, column)]
            if len(owners) == 1:
                aliases.add(owners[0])
            elif len(owners) > 1:
                # Ambiguous unqualified reference: involve every candidate so the
                # predicate stays above the join where all rows are in scope.
                aliases.update(owners)
        return aliases

    def _relation_has_column(self, info: _RelationInfo, column: str) -> bool:
        if info.kind == "table":
            assert info.table is not None
            return info.table.has_column(column)
        function = self.database.functions.table_valued(info.function_name)
        return column.lower() in {name.lower() for name in function.column_names()}

    # -- cardinality estimation ---------------------------------------------------

    @staticmethod
    def _combine_selectivities(selectivities: Sequence[float]) -> float:
        """Compound per-conjunct selectivities with exponential backoff.

        Naive multiplication assumes full independence, so a query with
        many predicates (the NEO pair query has a dozen per side) drives
        the estimate to an absurd near-zero.  Following SQL Server's
        newer cardinality estimator, the most selective predicate counts
        fully and each additional one only with the square root of its
        predecessor's weight: ``s0 * s1^(1/2) * s2^(1/4) * ...``.
        """
        if not selectivities:
            return 1.0
        combined = 1.0
        exponent = 1.0
        for selectivity in sorted(selectivities):
            clamped = min(1.0, max(selectivity, 1e-6))
            combined *= clamped ** exponent
            exponent /= 2.0
        return combined

    # -- access paths ------------------------------------------------------------

    def _needed_columns(self, query: LogicalQuery,
                        info: _RelationInfo) -> Optional[set[str]]:
        """Columns of ``info`` referenced anywhere in the query.

        Returns None when a bare ``*`` (or ``alias.*``) forces the full row.
        """
        needed: set[str] = set()
        expressions: list[Expression] = [item.expression for item in query.select]
        if query.where is not None:
            expressions.append(query.where)
        for join in query.joins:
            if join.condition is not None:
                expressions.append(join.condition)
        expressions.extend(order.expression for order in query.order_by)
        expressions.extend(query.group_by)
        if query.having is not None:
            expressions.append(query.having)
        expressions.extend(info.local_conjuncts)
        for expression in expressions:
            if isinstance(expression, Star):
                if expression.qualifier is None or expression.qualifier.lower() == info.binding_name:
                    return None
                continue
            for qualifier, column in expression.referenced_columns():
                if qualifier == info.binding_name or (
                        qualifier is None and self._relation_has_column(info, column)):
                    needed.add(column)
        return needed

    @staticmethod
    def _read_columns(info: _RelationInfo,
                      needed: Optional[set[str]]) -> Optional[tuple[str, ...]]:
        """The ``columns`` of an access operator on table relation ``info``.

        ``needed`` is :meth:`_needed_columns`' answer for ``info``; the
        result keeps the names that are row keys of its table (sorted),
        or None when a ``*`` needs whole rows.  A reference the table
        lacks is left out, so it still raises ``UnknownColumnError``
        when a row reaches it.  Every access operator the planner builds
        takes its ``columns`` from here, so a new consumer of row keys
        must be visible to :meth:`_needed_columns`.
        """
        if needed is None:
            return None
        assert info.table is not None
        row_keys = info.table.row_keys
        return tuple(sorted(name for name in needed if name in row_keys))

    def _sargables(self, info: _RelationInfo) -> dict[str, SargablePredicate]:
        """The local conjuncts' sargable predicates, one per column."""
        sargables: dict[str, SargablePredicate] = {}
        for conjunct in info.local_conjuncts:
            sargable = extract_sargable(conjunct)
            if sargable is not None and (sargable.qualifier is None
                                         or sargable.qualifier == info.binding_name):
                # Keep the most selective predicate per column (equality wins).
                existing = sargables.get(sargable.column)
                if existing is None or (sargable.is_equality and not existing.is_equality):
                    sargables[sargable.column] = sargable
        return sargables

    @staticmethod
    def _best_seek_index(table: Table, sargables: dict[str, SargablePredicate]
                         ) -> tuple[Optional[BTreeIndex], list[SargablePredicate]]:
        """The index whose key prefix matches the most sargable predicates."""
        best_index: Optional[BTreeIndex] = None
        best_prefix: list[SargablePredicate] = []
        for index in table.indexes.values():
            prefix = index_key_prefix(index, sargables)
            if prefix and len(prefix) > len(best_prefix):
                best_index, best_prefix = index, prefix
        return best_index, best_prefix

    def _build_index_seek(self, info: _RelationInfo, table: Table,
                          best_index: BTreeIndex,
                          best_prefix: Sequence[SargablePredicate],
                          parts: Sequence[Expression],
                          needed: Optional[set[str]],
                          columns: Optional[tuple[str, ...]]) -> IndexRangeScan:
        """Assemble the seek operator of an index-seek access path.

        ``parts`` are ``info.local_conjuncts`` qualified, in order
        (:meth:`_qualified_conjuncts`).  The filter is every local
        conjunct, the key-prefix ones included — the covering scan's
        rule: the key range is inclusive (``x > 20`` walks from 20), and
        a bound that does not rank (NULL, NaN, a string against a
        numeric key) or an index holding a NaN key reads the whole
        index, so the prefix conjuncts must still reject, or raise on,
        exactly the rows a table scan would.
        """
        predicate = combine_conjuncts(parts)
        implied = range_implied(best_prefix, table)
        range_predicate = predicate
        if implied:
            range_predicate = combine_conjuncts(
                [qualified for part, qualified in zip(info.local_conjuncts, parts)
                 if not any(part is conjunct for conjunct in implied)])
        low, high = prefix_bounds(best_prefix)
        covering = needed is not None and best_index.covers(needed)
        return IndexRangeScan(best_index, info.binding_name, low, high,
                              predicate=predicate, covering=covering, columns=columns,
                              range_predicate=range_predicate)

    @staticmethod
    def _qualified_conjuncts(info: _RelationInfo) -> list[Expression]:
        """``info.local_conjuncts`` with their bare columns of the
        relation's table qualified by its binding name, in order."""
        assert info.table is not None
        return [qualify_columns(part, info.binding_name, info.table)
                for part in info.local_conjuncts]

    # -- the cost-based optimizer -------------------------------------------------

    def _constant_value(self, expression: Optional[Expression]) -> Any:
        """Fold a bound expression to a plan-time constant, or ``_UNKNOWN``.

        Session variables are not bound at plan time and impure
        functions may raise; any failure simply means the histogram
        cannot be consulted and the fixed constants apply.
        """
        if expression is None:
            return None
        if isinstance(expression, Literal):
            value = expression.value
            return _UNKNOWN if value is NULL else value
        try:
            from .expressions import RowScope
            value = expression.evaluate(RowScope(), self.database.evaluation_context())
        except Exception:
            return _UNKNOWN
        return _UNKNOWN if value is NULL else value

    def _sargable_selectivity(self, statistics: Optional[TableStatistics],
                              sargable: SargablePredicate) -> float:
        column_stats = (statistics.column(sargable.column)
                        if statistics is not None else None)
        if sargable.is_equality:
            value = self._constant_value(sargable.low)
            if column_stats is not None and value is not _UNKNOWN:
                selectivity = column_stats.equality_selectivity(value)
                if selectivity is not None:
                    return selectivity
            return self.EQUALITY_SELECTIVITY
        low = self._constant_value(sargable.low)
        high = self._constant_value(sargable.high)
        if column_stats is not None and low is not _UNKNOWN and high is not _UNKNOWN:
            selectivity = column_stats.range_selectivity(low, high)
            if selectivity is not None:
                return selectivity
        return self.RANGE_SELECTIVITY

    def _conjunct_selectivity(self, statistics: Optional[TableStatistics],
                              conjunct: Expression) -> float:
        sargable = extract_sargable(conjunct)
        if sargable is None:
            return self.RESIDUAL_SELECTIVITY
        return self._sargable_selectivity(statistics, sargable)

    def _estimate_relation(self, info: _RelationInfo) -> int:
        """Statistics-backed output cardinality of one FROM-clause relation.

        A cardinality-feedback override (the row count actually observed
        for this binding on a previous execution of the same statement)
        wins over the selectivity model outright.
        """
        override = self._overrides.get(info.binding_name.lower())
        if override is not None:
            return override
        assert info.table is not None
        statistics = self.database.table_statistics(info.table.name)
        selectivities = [self._conjunct_selectivity(statistics, conjunct)
                         for conjunct in info.local_conjuncts]
        estimate = (float(max(1, self._row_count(info.table)))
                    * self._combine_selectivities(selectivities))
        return max(1, int(estimate))

    def _access_path(self, info: _RelationInfo,
                     query: LogicalQuery) -> _PlannedAccessPath:
        """Cheapest access path among table scan, covering scan and index seek."""
        if info.kind == "function":
            function = self.database.functions.table_valued(info.function_name)
            operator = FunctionScan(function, list(info.function_args),
                                    info.binding_name)
            rows = max(1, function.row_estimate)
            operator.set_estimates(rows, float(rows))
            return _PlannedAccessPath(operator, rows, float(rows))
        assert info.table is not None
        table = info.table
        statistics = self.database.table_statistics(table.name)
        total = max(1, self._row_count(table))
        estimated_out = self._estimate_relation(info)
        sargables = self._sargables(info)
        needed = self._needed_columns(query, info)
        columns = self._read_columns(info, needed)

        # (cost, tie-break priority, operator, output rows)
        candidates: list[tuple[float, int, PhysicalOperator, int]] = []

        parts = self._qualified_conjuncts(info)
        best_index, best_prefix = self._best_seek_index(table, sargables)
        if best_index is not None and best_prefix:
            full_unique = (best_index.unique
                           and len(best_prefix) == len(best_index.columns)
                           and all(s.is_equality for s in best_prefix))
            if full_unique:
                fetched = 1
            else:
                prefix_selectivity = self._combine_selectivities(
                    [self._sargable_selectivity(statistics, s) for s in best_prefix])
                fetched = max(1, int(total * prefix_selectivity))
            rows = min(estimated_out, fetched)
            seek = self._build_index_seek(info, table, best_index, best_prefix,
                                          parts, needed, columns)
            per_row = (self.INDEX_ENTRY_COST if seek.covering
                       else self.RANDOM_LOOKUP_COST)
            cost = math.log2(total + 1) + fetched * per_row
            candidates.append((cost, 0, seek, rows))

        predicate = combine_conjuncts(parts)
        # A covering index's only scan advantage is reading narrow
        # entries instead of wide rows.  A column store's TableScan
        # already touches only the referenced columns — the batch
        # pipeline reads just their buffers, and row mode decodes just
        # the scan's ``columns`` — and keeps the vectorized pipeline
        # applicable, so the covering candidate only exists for
        # row-backed tables.  When the local conjuncts bound a key
        # prefix of the index, the scan walks only that key range; it
        # keeps the full scan's cost and estimate, so no plan choice
        # moves (README: "Bounded covering scans").
        if needed is not None and self._storage_kind(table) != "column":
            covering_indexes = [index for index in table.indexes.values()
                                if index.covers(needed)]
            if covering_indexes:
                narrow = min(covering_indexes,
                             key=lambda index: index.entry_byte_width())
                low, high = covering_scan_bounds(narrow, table, sargables,
                                                 info.local_conjuncts)
                scan = CoveringIndexScan(narrow, info.binding_name, predicate,
                                         low=low, high=high, columns=columns)
                candidates.append((total * self._entry_cost(table, narrow), 1,
                                   scan, estimated_out))
        candidates.append((total * self.SEQ_ROW_COST, 2,
                           TableScan(table, info.binding_name, predicate,
                                     columns=columns),
                           estimated_out))

        cost, _priority, operator, rows = min(candidates,
                                              key=lambda item: (item[0], item[1]))
        operator.set_estimates(rows, cost)
        return _PlannedAccessPath(operator, rows, cost)

    def _entry_cost(self, table: Table, index: BTreeIndex) -> float:
        """Cost of reading one entry of a covering index sequentially:
        a row's, discounted by the entry-to-row width ratio."""
        row_bytes = max(1.0, self._row_bytes(table))
        return self.SEQ_ROW_COST * min(
            1.0, max(0.05, index.entry_byte_width() / row_bytes))

    def _index_join_candidate(self, info: _RelationInfo,
                              equalities: Sequence[tuple[Expression, Expression,
                                                         Expression]]
                              ) -> Optional[tuple[BTreeIndex, list[str],
                                                  dict[str, tuple[Expression,
                                                                  Expression,
                                                                  Expression]]]]:
        """The index/prefix an index nested-loop join would probe, if any.

        Shared by the cost-based enumeration (for costing) and
        :meth:`_index_join` (for construction), so the plan that is
        costed is exactly the plan that is built.
        """
        assert info.table is not None
        by_column: dict[str, tuple[Expression, Expression, Expression]] = {}
        for conjunct, new_side, old_side in equalities:
            if isinstance(new_side, ColumnRef):
                by_column[new_side.name.lower()] = (conjunct, new_side, old_side)
        best_index: Optional[BTreeIndex] = None
        best_prefix: list[str] = []
        for index in info.table.indexes.values():
            prefix = []
            for column in index.columns:
                if column in by_column:
                    prefix.append(column)
                else:
                    break
            if prefix and len(prefix) > len(best_prefix):
                best_index, best_prefix = index, prefix
        if best_index is None:
            return None
        return best_index, best_prefix, by_column

    def _index_probe_matches(self, table: Table, index: BTreeIndex,
                             prefix_columns: Sequence[str]) -> float:
        """Expected inner rows fetched per outer probe of an index join."""
        if index.unique and len(prefix_columns) == len(index.columns):
            return 1.0
        statistics = self.database.table_statistics(table.name)
        selectivities = []
        for column in prefix_columns:
            distinct = 0
            if statistics is not None:
                column_stats = statistics.column(column)
                if column_stats is not None:
                    distinct = column_stats.distinct_count
            selectivities.append(1.0 / distinct if distinct > 0
                                 else self.EQUALITY_SELECTIVITY)
        matches = (max(1, self._row_count(table))
                   * self._combine_selectivities(selectivities))
        return max(1.0, matches)

    def _range_join_candidate(self, info: _RelationInfo,
                              join_conjuncts: Sequence[Expression],
                              by_name: dict[str, _RelationInfo]
                              ) -> Optional[tuple[BTreeIndex, Expression,
                                                  Expression]]:
        """``(index, low, high)`` of a range-probe join into ``info``, if any.

        Recognises ``info.col BETWEEN low AND high`` and the
        ``info.col >= low`` / ``info.col <= high`` pair among the join
        conjuncts, where neither bound references ``info`` itself and
        ``col`` is the numeric leading column of one of its indices.
        """
        name = info.binding_name
        lows: dict[str, Expression] = {}
        highs: dict[str, Expression] = {}

        def note(column: Expression, bound: Expression,
                 bounds: dict[str, Expression]) -> None:
            if (isinstance(column, ColumnRef)
                    and self._conjunct_aliases(column, by_name) == {name}
                    and name not in self._conjunct_aliases(bound, by_name)):
                bounds.setdefault(column.name.lower(), bound)

        for conjunct in join_conjuncts:
            if isinstance(conjunct, Between) and not conjunct.negated:
                note(conjunct.operand, conjunct.low, lows)
                note(conjunct.operand, conjunct.high, highs)
            elif isinstance(conjunct, BinaryOp) and conjunct.op in (">=", "<="):
                above, below = ((lows, highs) if conjunct.op == ">="
                                else (highs, lows))
                note(conjunct.left, conjunct.right, above)   # col >= e | col <= e
                note(conjunct.right, conjunct.left, below)   # e >= col | e <= col
        assert info.table is not None
        for index in info.table.indexes.values():
            column = index.columns[0]
            if (column in lows and column in highs
                    and info.table.column(column).dtype in NUMERIC_KEY_TYPES):
                return index, lows[column], highs[column]
        return None

    def _range_join_option(self, info: _RelationInfo,
                           join_conjuncts: Sequence[Expression],
                           by_name: dict[str, _RelationInfo],
                           query: LogicalQuery,
                           outer_rows: int, outer_cost: float
                           ) -> Optional[tuple[float, int, tuple, int]]:
        """The enumerator's option entry for range-probing ``info``, if any.

        Each probe is a seek plus a read of the share of the index that
        two range bounds (a low and a high one) are guessed to keep:
        sequential narrow entries when the index covers the query's
        columns, a bookmark lookup per row otherwise — the per-entry
        rates of the covering-scan and index-seek access paths.
        """
        if not self.enable_index_join or info.kind != "table":
            return None
        candidate = self._range_join_candidate(info, join_conjuncts, by_name)
        if candidate is None:
            return None
        table, index = info.table, candidate[0]
        assert table is not None
        needed = self._needed_columns(query, info)
        covering = needed is not None and index.covers(needed)
        total = max(1, self._row_count(table))
        fetched = max(1.0, total * self._combine_selectivities(
            [self.RANGE_SELECTIVITY, self.RANGE_SELECTIVITY]))
        per_entry = (self._entry_cost(table, index) if covering
                     else self.RANDOM_LOOKUP_COST)
        statistics = self.database.table_statistics(table.name)
        local_selectivity = self._combine_selectivities(
            [self._conjunct_selectivity(statistics, conjunct)
             for conjunct in info.local_conjuncts])
        cost = outer_cost + outer_rows * (math.log2(max(2, total))
                                          + fetched * per_entry)
        rows = max(1, int(outer_rows * fetched * local_selectivity))
        return cost, 0, ("range", (candidate, covering)), rows

    def _range_join(self, outer: PhysicalOperator, info: _RelationInfo,
                    candidate: tuple[BTreeIndex, Expression, Expression],
                    join_conjuncts: Sequence[Expression],
                    covering: bool, query: LogicalQuery) -> IndexNestedLoopJoin:
        """Build the range-probe join.  Every join conjunct — the range
        ones included — stays in the residual, so the probe only narrows
        which index entries the residual sees."""
        assert info.table is not None
        index, low, high = candidate
        residual = combine_conjuncts(
            list(join_conjuncts)
            + [qualify_columns(part, info.binding_name, info.table)
               for part in info.local_conjuncts])
        return IndexNestedLoopJoin(
            outer, info.table, info.binding_name, index, [low], residual,
            outer_high=high, covering=covering,
            inner_columns=self._read_columns(
                info, self._needed_columns(query, info)))

    def _expression_distinct(self, expression: Expression,
                             by_name: dict[str, _RelationInfo]) -> int:
        """Distinct-count estimate of a join-key expression (0 = unknown)."""
        if not isinstance(expression, ColumnRef):
            return 0
        if expression.qualifier is not None:
            owner = by_name.get(expression.qualifier)
        else:
            owners = [info for info in by_name.values()
                      if self._relation_has_column(info, expression.name)]
            owner = owners[0] if len(owners) == 1 else None
        if owner is None or owner.kind != "table" or owner.table is None:
            return 0
        statistics = self.database.table_statistics(owner.table.name)
        if statistics is None:
            return 0
        column_stats = statistics.column(expression.name)
        return column_stats.distinct_count if column_stats is not None else 0

    def _join_output_estimate(self, left_rows: int, right_rows: int,
                              equalities: Sequence[tuple[Expression, Expression,
                                                         Expression]],
                              by_name: dict[str, _RelationInfo]) -> int:
        """Equi-join cardinality: |L| * |R| / max(distinct) per key pair."""
        selectivities: list[Optional[float]] = []
        for _conjunct, new_side, old_side in equalities:
            distinct_new = self._expression_distinct(new_side, by_name)
            distinct_old = self._expression_distinct(old_side, by_name)
            distinct = max(distinct_new, distinct_old)
            selectivities.append(1.0 / distinct if distinct > 0 else None)
        if any(selectivity is None for selectivity in selectivities):
            # No distinct statistics: the larger input.
            return max(1, left_rows, right_rows)
        estimate = float(left_rows) * float(right_rows)
        for selectivity in selectivities:
            estimate *= selectivity
        return max(1, int(estimate))

    def _plan_joins(self, relations: list[_RelationInfo],
                    pool: "_PredicatePool", query: LogicalQuery
                    ) -> tuple[PhysicalOperator, set[str]]:
        """Greedy cost-ordered join enumeration.

        Starts from the relation with the smallest estimated
        cardinality (for Query 1 this keeps the spatial TVF on the
        outer side, as in Figure 10), then repeatedly attaches the
        (relation, strategy) pair with the lowest total cost among
        index nested-loop, hash (smaller side builds) and nested-loop
        joins, preferring connected relations over cross products.
        """
        by_name = {info.binding_name: info for info in relations}
        paths = {info.binding_name: self._access_path(info, query)
                 for info in relations}
        start = min(relations,
                    key=lambda info: (paths[info.binding_name].estimated_rows,
                                      paths[info.binding_name].cost,
                                      info.binding_name))
        path = paths[start.binding_name]
        root: PhysicalOperator = path.operator
        root_rows = path.estimated_rows
        root_cost = path.cost
        planned = {start.binding_name}
        unplanned = {info.binding_name for info in relations} - planned

        while unplanned:
            best: Optional[tuple] = None
            for name in sorted(unplanned):
                info = by_name[name]
                inner_path = paths[name]
                join_conjuncts = self._join_conjuncts(name, planned, by_name, pool)
                equalities = [self._join_equality(conjunct, name, by_name)
                              for conjunct in join_conjuncts]
                equalities = [pair for pair in equalities if pair is not None]
                connected = 0 if join_conjuncts else 1
                statistics = (self.database.table_statistics(info.table.name)
                              if info.kind == "table" else None)

                options: list[tuple[float, int, tuple, int]] = []
                if self.enable_index_join and info.kind == "table" and equalities:
                    candidate = self._index_join_candidate(info, equalities)
                    if candidate is not None:
                        index, prefix_columns, _by_column = candidate
                        matches = self._index_probe_matches(info.table, index,
                                                            prefix_columns)
                        local_selectivity = self._combine_selectivities(
                            [self._conjunct_selectivity(statistics, conjunct)
                             for conjunct in info.local_conjuncts])
                        cost = root_cost + root_rows * (
                            math.log2(max(2, self._row_count(info.table)))
                            + matches * self.RANDOM_LOOKUP_COST)
                        rows = max(1, int(root_rows * matches * local_selectivity))
                        options.append((cost, 0, ("index", candidate), rows))
                range_option = self._range_join_option(
                    info, join_conjuncts, by_name, query,
                    root_rows, root_cost)
                if range_option is not None:
                    options.append(range_option)
                if equalities and self.enable_hash_join:
                    rows = self._join_output_estimate(root_rows,
                                                      inner_path.estimated_rows,
                                                      equalities, by_name)
                    build_new = inner_path.estimated_rows <= root_rows
                    build_rows = (inner_path.estimated_rows if build_new
                                  else root_rows)
                    probe_rows = (root_rows if build_new
                                  else inner_path.estimated_rows)
                    cost = (root_cost + inner_path.cost
                            + build_rows * self.HASH_BUILD_COST
                            + probe_rows * self.HASH_PROBE_COST)
                    options.append((cost, 2, ("hash", build_new), rows))
                nested_cost = (root_cost
                               + max(1, root_rows) * max(1.0, inner_path.cost))
                nested_rows = max(1, int(
                    root_rows * inner_path.estimated_rows
                    * self._combine_selectivities(
                        [self.RESIDUAL_SELECTIVITY] * len(join_conjuncts))))
                options.append((nested_cost, 3, ("nested", None), nested_rows))

                for cost, priority, choice, rows in options:
                    key = (connected, cost, priority, name)
                    if best is None or key < best[0]:
                        best = (key, name, choice, rows, cost,
                                join_conjuncts, equalities)

            assert best is not None
            _key, name, choice, rows, cost, join_conjuncts, equalities = best
            info = by_name[name]
            inner_path = paths[name]
            kind, extra = choice
            if kind == "index":
                root, used_conjuncts = self._index_join(root, info, join_conjuncts,
                                                        query, extra)
                pool.remaining = [c for c in pool.remaining
                                  if c not in used_conjuncts]
            elif kind == "range":
                root = self._range_join(root, info, extra[0], join_conjuncts,
                                        extra[1], query)
                pool.remaining = [c for c in pool.remaining
                                  if c not in join_conjuncts]
            elif kind == "hash":
                root = self._build_hash_join(root, inner_path.operator,
                                             equalities, join_conjuncts,
                                             build_new=extra)
                pool.remaining = [c for c in pool.remaining
                                  if c not in join_conjuncts]
            else:
                residual = combine_conjuncts(join_conjuncts)
                root = NestedLoopJoin(root, inner_path.operator, residual)
                pool.remaining = [c for c in pool.remaining
                                  if c not in join_conjuncts]
            root.set_estimates(rows, cost)
            root_rows = max(1, rows)
            root_cost = cost
            planned.add(name)
            unplanned.discard(name)
        return root, planned

    # -- join planning ---------------------------------------------------------------

    def _join_conjuncts(self, name: str, planned: set[str],
                        by_name: dict[str, _RelationInfo],
                        pool: "_PredicatePool") -> list[Expression]:
        found = []
        for conjunct in pool.remaining:
            aliases = self._conjunct_aliases(conjunct, by_name)
            if name in aliases and aliases <= planned | {name}:
                found.append(conjunct)
        return found

    def _join_equality(self, conjunct: Expression, new_name: str,
                       by_name: dict[str, _RelationInfo]
                       ) -> Optional[tuple[Expression, Expression, Expression]]:
        """Recognise ``new.col = old_expr``; returns (conjunct, new_side, old_side)."""
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            return None
        left_aliases = self._conjunct_aliases(conjunct.left, by_name)
        right_aliases = self._conjunct_aliases(conjunct.right, by_name)
        if left_aliases == {new_name} and new_name not in right_aliases:
            return (conjunct, conjunct.left, conjunct.right)
        if right_aliases == {new_name} and new_name not in left_aliases:
            return (conjunct, conjunct.right, conjunct.left)
        return None

    def _build_hash_join(self, root: PhysicalOperator,
                         inner_operator: PhysicalOperator,
                         equalities: Sequence[tuple[Expression, Expression,
                                                    Expression]],
                         join_conjuncts: Sequence[Expression],
                         build_new: bool) -> HashJoin:
        """Construct the hash join the enumerator chose: ``build_new``
        builds on the newly attached relation, False on the
        already-joined pipeline (whichever input is estimated smaller).
        """
        new_keys = [new for (_conjunct, new, _old) in equalities]
        old_keys = [old for (_conjunct, _new, old) in equalities]
        equality_conjuncts = [conjunct for conjunct, _new, _old in equalities]
        residual = combine_conjuncts([conjunct for conjunct in join_conjuncts
                                      if conjunct not in equality_conjuncts])
        if build_new:
            return HashJoin(inner_operator, root, new_keys, old_keys, residual)
        return HashJoin(root, inner_operator, old_keys, new_keys, residual)

    def _index_join(self, outer: PhysicalOperator, info: _RelationInfo,
                    join_conjuncts: Sequence[Expression],
                    query: LogicalQuery, candidate: tuple
                    ) -> tuple[PhysicalOperator, list[Expression]]:
        """The index nested-loop join probing ``info`` through
        ``candidate``, the :meth:`_index_join_candidate` result the
        enumerator costed."""
        assert info.table is not None
        table = info.table
        best_index, best_prefix, by_column = candidate
        outer_key = [by_column[column][2] for column in best_prefix]
        used = [by_column[column][0] for column in best_prefix]
        residual_parts = [conjunct for conjunct in join_conjuncts if conjunct not in used]
        residual_parts.extend(qualify_columns(part, info.binding_name, table)
                              for part in info.local_conjuncts)
        residual = combine_conjuncts(residual_parts)
        operator = IndexNestedLoopJoin(outer, table, info.binding_name, best_index,
                                       outer_key, residual,
                                       inner_columns=self._read_columns(
                                           info, self._needed_columns(query, info)))
        return operator, list(join_conjuncts)

    # -- finishing touches ----------------------------------------------------------

    def _finish_plan(self, root: PhysicalOperator, query: LogicalQuery,
                     relations: Sequence[_RelationInfo]) -> PhysicalPlan:
        aggregates: list[AggregateCall] = []
        for item in query.select:
            aggregates.extend(collect_aggregates(item.expression))
        if query.having is not None:
            aggregates.extend(collect_aggregates(query.having))
        if aggregates or query.group_by:
            root = GroupAggregate(root, list(query.group_by), aggregates)
            if query.having is not None:
                root = FilterOp(root, query.having)

        if query.order_by:
            keys = [(self._rewrite_order_key(order.expression, query), order.descending)
                    for order in query.order_by]
            root = SortOp(root, keys)

        root = ProjectOp(root, query.select, self.database)
        if query.distinct:
            root = DistinctOp(root)
        if query.top is not None:
            root = TopOp(root, query.top)
        if query.into:
            root = InsertIntoOp(root, query.into, self.database)

        if self.enable_vectorized:
            self._mark_vectorized_pipeline(root)
        self._mark_zone_maps(root, relations)
        self._propagate_costs(root)
        return PhysicalPlan(root=root, output_names=query.output_names(),
                            database=self.database)

    # -- zone-map marking ----------------------------------------------------------

    def _mark_zone_maps(self, root: PhysicalOperator,
                        relations: Sequence[_RelationInfo]) -> None:
        """Stamp the plan's zone-map flags.

        Every base-table scan gets this planner's :attr:`enable_zone_maps`
        toggle (skipping is always safe — zone maps are conservative).
        Scalar aggregates additionally get :attr:`GroupAggregate.
        zone_exact_sums` when the planner's exact-integer proof
        (:meth:`_sum_stays_exact` — the same machinery that picks the
        shard partial-merge mode) covers every SUM/AVG argument, which
        lets execution answer fully-matched segments from zone integer
        sums without changing a single bit of the result.
        """

        def walk(operator: PhysicalOperator) -> None:
            if isinstance(operator, TableScan):
                operator.use_zone_maps = self.enable_zone_maps
            if isinstance(operator, HashJoin):
                operator.runtime_filter_enabled = self.enable_runtime_filters
            if (self.enable_zone_maps and isinstance(operator, GroupAggregate)
                    and not operator.group_by):
                sums = [aggregate.argument for aggregate in operator.aggregates
                        if aggregate.func in ("sum", "avg")
                        and aggregate.argument is not None
                        and not aggregate.distinct]
                if all(isinstance(argument, ColumnRef)
                       and self._sum_stays_exact(argument, relations)
                       for argument in sums):
                    operator.zone_exact_sums = True
            for child in operator.children():
                walk(child)

        walk(root)

    def _partial_aggregate_mode(self, aggregate: GroupAggregate,
                                relations: Sequence[_RelationInfo]) -> str:
        """``"partial"`` when per-shard partials merge bit-exactly.

        The cluster planner asks this rule for shard partials.
        COUNT/MIN/MAX are always safe (shard partials merge in shard
        order, not scan order, so the cluster executor re-runs a merge
        whose MIN/MAX partials tie or hold NaN); SUM/AVG only over an
        integer-typed column whose ANALYZE-bounded total provably stays
        below 2**53 (the running total is a float, so integer addition
        is associative only while exactly representable); DISTINCT
        needs the merged value stream.
        ``"ordered"`` gathers the inputs and folds them on the
        coordinator in merged order — bit-identical by construction.
        """
        for call in aggregate.aggregates:
            if call.distinct:
                return "ordered"
            if call.func not in ("sum", "avg"):
                continue
            argument = call.argument
            if argument is None:
                continue
            if not isinstance(argument, ColumnRef):
                return "ordered"
            if not self._sum_stays_exact(argument, relations):
                return "ordered"
        return "partial"

    def _sum_stays_exact(self, argument: ColumnRef,
                         relations: Sequence[_RelationInfo]) -> bool:
        """True when |sum(column)| is provably < 2**53 (exact as a float)."""
        qualifier = (argument.qualifier or "").lower()
        owner: Optional[_RelationInfo] = None
        for info in relations:
            if info.kind != "table" or info.table is None:
                continue
            if qualifier and qualifier != info.binding_name.lower():
                continue
            if info.table.has_column(argument.name):
                if owner is not None:
                    return False
                owner = info
        if owner is None or owner.table is None:
            return False
        column = owner.table.column(argument.name)
        if column is None or column.dtype not in EXACT_SUM_TYPES:
            return False
        statistics = self.database.table_statistics(owner.table.name)
        column_stats = (statistics.column(argument.name)
                        if statistics is not None else None)
        if (column_stats is None or column_stats.minimum is None
                or column_stats.maximum is None):
            return False
        try:
            bound = max(abs(column_stats.minimum), abs(column_stats.maximum), 1)
        except TypeError:
            return False
        rows = max(1, self._row_count(owner.table))
        for info in relations:
            if info is owner:
                continue
            # A join can multiply occurrences of each value.
            other_rows = (self._row_count(info.table)
                          if info.kind == "table" and info.table is not None
                          else info.estimated_rows)
            rows *= max(1, other_rows)
        return rows * bound < 2 ** 53

    def _propagate_costs(self, root: PhysicalOperator) -> None:
        """Fill in estimates for operators join/access planning did not cost.

        Every leaf and join carries ``planner_rows`` already.  Upper
        operators (filters, sorts, projection, aggregation) carry their
        child's cardinality (scaled by :meth:`~repro.engine.operators.
        PhysicalOperator.scale_rows`) and add a small per-row charge on
        top of their children's cost, so EXPLAIN shows consistent row
        estimates and a monotonically growing cumulative cost up the
        tree.
        """

        def walk(operator: PhysicalOperator) -> None:
            child_cost = 0.0
            for child in operator.children():
                walk(child)
                child_cost += child.planner_cost
            if operator.planner_rows is None:
                (child,) = operator.children()
                operator.planner_rows = max(1, operator.scale_rows(child.planner_rows))
            if not operator.planner_cost:
                operator.planner_cost = child_cost + 0.01 * operator.planner_rows

        walk(root)

    def _mark_vectorized_pipeline(self, root: PhysicalOperator) -> None:
        """Flag batch execution wherever a batch shape feeds an operator.

        A projection or an aggregation batches when it reads a
        :func:`~repro.engine.operators.batch_shape`: filtered scans and
        index walks of column stores, and of row stores read for named
        columns, and joins of such inputs (TOP/DISTINCT/INTO above the
        projection just consume its rows; a Sort between projection and
        source keeps the projection row-mode but not an aggregation
        below it).  Every other chain —
        ``[filter…]`` over such a scan or walk — that a row-mode
        operator reads once through
        :meth:`~repro.engine.operators.PhysicalOperator.row_inputs` (a
        Sort, a join's outer, build or probe side, a row-mode
        aggregation) is marked too: it runs as a batch scan whose
        passing rows alone become dicts
        (:func:`~repro.engine.operators.input_rows`).  A hash-join shape
        under a row consumer stays a row join over batch chains.  The
        executor runs exactly the shapes marked here, re-derived from
        the same walk at run time, and falls back to the row path only
        when the storage layout changed since planning.
        """
        node = root
        passthrough: list[PhysicalOperator] = []
        while isinstance(node, (InsertIntoOp, TopOp, DistinctOp)):
            passthrough.append(node)
            node = node.child
        if isinstance(node, ProjectOp):
            self._mark_projection(node, passthrough)
        self._mark_row_inputs(root)

    def _mark_projection(self, project: ProjectOp,
                         passthrough: Sequence[PhysicalOperator]) -> None:
        inner: PhysicalOperator = project.child
        crossed_sort = False
        while isinstance(inner, (FilterOp, SortOp)):
            crossed_sort = crossed_sort or isinstance(inner, SortOp)
            inner = inner.child
        if isinstance(inner, GroupAggregate):
            # Filters above the aggregate are HAVING residuals and a Sort
            # is an ORDER BY over the group rows: both run row-at-a-time
            # over the (few) groups while the aggregation itself batches.
            shape = batch_shape(inner.child, self._storage_kind)
            if shape is not None:
                inner.mark_batch_mode()
                for operator in shape.operators():
                    operator.mark_batch_mode()
        elif not crossed_sort:
            # A Sort between projection and source consumes its bindings
            # row-at-a-time, so the projection cannot batch.
            shape = batch_shape(project.child, self._storage_kind)
            if shape is not None and project.batches_over(shape):
                project.mark_batch_mode()
                for operator in shape.operators():
                    operator.mark_batch_mode()
                for op in passthrough:
                    if isinstance(op, TopOp):
                        op.mark_batch_mode()

    def _mark_row_inputs(self, operator: PhysicalOperator) -> None:
        """Mark the chains row-mode operators read (batch subtrees are
        marked whole already)."""
        if operator.vectorized:
            return
        for child in operator.row_inputs():
            shape = batch_shape(child, self._storage_kind)
            if shape is not None and shape.is_chain:
                for chained in shape.operators():
                    chained.mark_batch_mode()
        for child in operator.children():
            self._mark_row_inputs(child)

    def _rewrite_order_key(self, expression: Expression, query: LogicalQuery) -> Expression:
        """ORDER BY may reference select-list aliases; rewrite to the underlying expression."""
        if isinstance(expression, ColumnRef) and expression.qualifier is None:
            for item in query.select:
                if item.alias and item.alias.lower() == expression.name.lower():
                    return item.expression
        return expression

    def _plan_relationless(self, query: LogicalQuery) -> PhysicalPlan:
        """SELECT without FROM (e.g. ``select dbo.fPhotoFlags('saturated')``)."""
        from .operators import RowSource

        rows: list[dict] = [{}]
        source = RowSource(rows, "#dual")
        source.set_estimates(len(rows))
        root: PhysicalOperator = source
        if query.where is not None:
            root = FilterOp(root, query.where)
        root = ProjectOp(root, query.select, self.database)
        if query.top is not None:
            root = TopOp(root, query.top)
        if query.into:
            root = InsertIntoOp(root, query.into, self.database)
        self._propagate_costs(root)
        return PhysicalPlan(root=root, output_names=query.output_names(),
                            database=self.database)
