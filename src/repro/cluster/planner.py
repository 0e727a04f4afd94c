"""The distributed planner: logical queries → cluster plans.

The planner classifies every SELECT into one of three shapes:

* **single-table fragments** — scan→filter→project(→aggregate/top)
  chains over one base table (views folded down exactly as the engine's
  planner folds them).  The chain is shipped to every surviving shard
  and the coordinator merges the streams;
* **co-partitioned joins** — two-table equi-joins whose join key is
  co-located by the placement map (hash-on-key both sides, or a
  snowflake arm joined to its parent), executed shard-locally with a
  merge at the coordinator;
* **fallback** — everything else (table-valued functions, non-colocated
  or 3+-way joins).  The executor *gathers* the referenced tables into
  the coordinator in global order and runs the unmodified single-node
  engine there (data shipping instead of query shipping).

**Order parity.** The cluster's contract is byte-identical results, and
the single-node engine's row order is a function of the access path the
cost-based optimizer picks (a table scan emits in load order, an index
seek in key order) and of the join order/strategy (rows stream in the
drive side's order, with matches in build order).  So the engine's own
:class:`~repro.engine.planner.Planner` makes those choices: a subclass
over the coordinator's catalog (its schema, indexes and ANALYZE
snapshots) that reads table sizes from the shards.  The cluster planner
reads the access paths, the join's drive side and strategy, and the
aggregate mode off that plan; a join shape the fragment executor does
not run (the range-probe join) falls back.  The chosen access path
also fixes the **merge key** each fragment row carries: ``(sequence,)``
for scans, ``(index key rank…, sequence)`` for index paths, plus the
match ordinal for joins.

**Partition pruning** combines two sources, both applied per shard at
execution time: the placement metadata (hash owner for key equalities,
boundary intersection for range placements — including HTM cover ranges
from the spatial layer) and the per-shard ANALYZE statistics (a shard
whose observed min/max for a predicate column is disjoint from the
predicate's constant range cannot contribute rows — applied only when
no local conjunct can raise, since a pruned shard evaluates nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence

from ..engine.catalog import Database
from ..engine.compile import Layout, compile_expression
from ..engine.errors import BindError, PlanError
from ..engine.expressions import (BinaryOp, ColumnRef, Expression, Literal,
                                  combine_conjuncts, extract_sargable)
from ..engine.logical import FunctionRef, LogicalQuery
from ..engine.operators import (Binding, ExecutionContext, GroupAggregate,
                                HashJoin, IndexNestedLoopJoin, IndexRangeScan,
                                NestedLoopJoin, PhysicalOperator, PhysicalPlan,
                                ProjectOp, TableScan, key_range_text)
from ..engine.planner import (Planner, _cannot_raise, _RelationInfo,
                              qualify_columns)
from ..engine.table import Table
from ..engine.types import NULL
from .partition import colocated
from .shard import ShardCluster, ShardRelease, prune_with_statistics

#: Sentinel matching the engine planner's "not a plan-time constant".
_UNKNOWN = object()

_JOINS = (HashJoin, IndexNestedLoopJoin, NestedLoopJoin)


@dataclass
class AccessChoice:
    """The engine planner's access path for one fragment relation."""

    kind: str                                  # "scan" | "seek" | "probe"
    predicate: Optional[Expression]            # the full local predicate
    index_name: Optional[str] = None
    low: Optional[list[Expression]] = None     # key-prefix bounds (plan-time expressions)
    high: Optional[list[Expression]] = None

    @property
    def ordered_by_index(self) -> bool:
        return self.kind == "seek"

    def describe(self) -> str:
        if self.kind == "scan":
            return "Shard Scan"
        label = "Index Probe" if self.kind == "probe" else "Index Seek"
        bounds = (f" {key_range_text(self.low, self.high)}"
                  if self.low or self.high else "")
        return f"Shard {label} {self.index_name}{bounds}"


@dataclass
class FragmentRelation:
    """One base relation of a distributed fragment."""

    table_name: str
    binding: str
    local_conjuncts: list[Expression]
    access: AccessChoice
    #: The lower-cased row keys a shard reads per row (None: whole rows,
    #: for ``*``): the engine access operator's ``columns`` plus an
    #: index path's key columns, which rank each row for the merge.
    columns: Optional[tuple[str, ...]]


@dataclass
class ClusterPlan:
    """Base class of the three plan shapes."""

    query: LogicalQuery

    kind = "fallback"


class MergedRows(PhysicalOperator):
    """The leaf of a fragment plan's tail: the bindings the coordinator
    merged from the shards, as the operator below the cut would have
    emitted them (and laid out as its :meth:`layout`)."""

    label = "Merged Rows"

    def __init__(self, layout: Layout):
        super().__init__()
        self._layout = layout
        #: One execution's bindings (the executor sets and clears them).
        self.merged: Iterable[Binding] = ()

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        return map(self._emit, self.merged)

    def layout(self) -> Layout:
        return self._layout


@dataclass
class _FragmentShape(ClusterPlan):
    """What both fragment plans share: the engine planner's plan of the
    statement, cut above its aggregate or else above its projection.
    Shards run what lies below the cut, reading their aggregates, select
    list, sort keys and TOP off its operators; the coordinator merges
    their streams into ``cut`` and runs ``tail``, the engine's HAVING,
    ORDER BY, projection, DISTINCT, TOP and INTO above the cut."""

    #: The uncut plan's operators, root first (:func:`_spine`).
    spine: list[PhysicalOperator] = field(default_factory=list)
    tail: Optional[PhysicalPlan] = None
    cut: Optional[MergedRows] = None
    #: ``"partial"`` when shard partial aggregates merge bit-exactly,
    #: else ``"ordered"`` (``Planner._partial_aggregate_mode``).
    aggregate_mode: str = "ordered"

    def __post_init__(self) -> None:
        self._operators = {type(operator): operator for operator in self.spine}

    def operator(self, kind: type) -> Optional[Any]:
        """The plan's operator of class ``kind`` (a spine has at most one
        aggregate, sort, projection, DISTINCT and TOP), or None."""
        return self._operators.get(kind)

    @property
    def aggregate(self) -> Optional[GroupAggregate]:
        return self.operator(GroupAggregate)

    @property
    def is_aggregate(self) -> bool:
        return self.aggregate is not None


@dataclass
class SingleTablePlan(_FragmentShape):
    """A distributable single-table chain."""

    relation: FragmentRelation = None  # type: ignore[assignment]

    kind = "single"

    @property
    def relations(self) -> tuple[FragmentRelation, ...]:
        return (self.relation,)


@dataclass
class CoPartitionedJoinPlan(_FragmentShape):
    """A two-table equi-join that executes shard-locally."""

    drive: FragmentRelation = None      # type: ignore[assignment]
    inner: FragmentRelation = None      # type: ignore[assignment]
    drive_keys: list[Expression] = field(default_factory=list)
    inner_keys: list[Expression] = field(default_factory=list)
    residual: Optional[Expression] = None
    #: ``"hash"`` or ``"nested"``: shards hash the inner side and the
    #: drive side probes it; ``"index"``: each drive row probes the
    #: inner side's index (``inner.access.index_name``) with
    #: ``drive_keys``, in the index's column order, and ``residual`` is
    #: the engine join's, the inner's local conjuncts included.
    strategy: str = "hash"
    #: The engine planner's ``enable_runtime_filters`` (which it also
    #: stamps on every ``HashJoin``): shards that hash the inner side
    #: push its keys into the drive scan.
    runtime_filter_enabled: bool = False

    kind = "join"

    @property
    def relations(self) -> tuple[FragmentRelation, ...]:
        """The drive side first: its access path orders the merge."""
        return (self.drive, self.inner)


@dataclass
class FallbackPlan(ClusterPlan):
    """Gather the referenced tables to the coordinator and run there."""

    tables: Optional[list[str]] = None     # None = every partitioned table
    reason: str = ""

    kind = "fallback"


class _ClusterSizedPlanner(Planner):
    """The engine planner over the coordinator's catalog, sized by the
    cluster: the coordinator keeps every table's schema, indexes and
    ANALYZE snapshot, but the rows live on the shards."""

    def __init__(self, cluster: ShardCluster):
        super().__init__(cluster.coordinator)
        self.cluster = cluster

    def _row_count(self, table: Table) -> int:
        return self.cluster.total_rows(table.name)

    def _row_bytes(self, table: Table) -> float:
        return self.cluster.average_row_bytes(table.name)

    def _storage_kind(self, table: Table) -> str:
        # Shards are column stores: no covering scans, every relation a
        # batch source.
        return "column"


class ClusterPlanner:
    """Builds :class:`ClusterPlan`\\ s for one cluster."""

    def __init__(self, cluster: ShardCluster):
        self.cluster = cluster
        #: Decides access paths, joins and aggregate modes.
        self.engine = _ClusterSizedPlanner(cluster)

    @property
    def coordinator(self) -> Database:
        return self.cluster.coordinator

    def plan_tables(self, plan: ClusterPlan) -> list[str]:
        """Base tables a plan reads: a fragment plan's relations, or the
        tables a fallback gathers.

        The session's plan cache validates a cached plan against the
        per-shard modification counters of exactly these tables (see :meth:`ShardCluster.table_versions`), so a write
        re-plans the fragments — or re-gathers and re-plans a fallback.
        """
        if not isinstance(plan, FallbackPlan):
            return [relation.table_name for relation in plan.relations]
        return (list(plan.tables) if plan.tables is not None
                else self.cluster.table_keys())

    # -- entry point -------------------------------------------------------

    def plan(self, query: LogicalQuery) -> ClusterPlan:
        relations = query.all_relations()
        if not relations:
            return FallbackPlan(query, tables=[], reason="no relations")
        if any(isinstance(ref, FunctionRef) for ref in relations):
            return FallbackPlan(query, tables=None,
                                reason="table-valued function")
        for ref in relations:
            if self.coordinator.functions.has_table_valued(ref.name):
                return FallbackPlan(query, tables=None,
                                    reason="table-valued function")
        try:
            infos = [self.engine._resolve_relation(ref) for ref in relations]
        except Exception:
            return FallbackPlan(query, tables=None, reason="unresolvable relation")
        base_tables = [info.table.name for info in infos]
        unplaced = [name for name in base_tables
                    if self.cluster.placement(name) is None]
        if unplaced:
            return FallbackPlan(query, tables=base_tables,
                                reason=f"unpartitioned table {unplaced[0]}")
        by_name = {info.binding_name: info for info in infos}
        if len(by_name) != len(infos):
            return FallbackPlan(query, tables=base_tables,
                                reason="duplicate alias")
        if len(infos) > 2:
            return FallbackPlan(query, tables=base_tables,
                                reason=f"{len(infos)}-way join")
        # A bind error needs no data: raise it here, not after a gather.
        self.engine._check_qualifiers(query, by_name)
        try:
            pool = self.engine._build_predicate_pool(query, infos)
            self.engine._assign_local_conjuncts(pool, infos)
            if len(infos) == 1:
                return self._plan_single(query, infos[0], pool.remaining)
            return self._plan_join(query, infos, by_name, pool.remaining)
        except (BindError, PlanError) as error:
            # The coordinator's planner raises it again after the gather,
            # exactly as the single node would.
            return FallbackPlan(query, tables=base_tables,
                                reason=f"planner error: {error}")

    # -- shared shape extraction ------------------------------------------

    def _shape(self, physical: PhysicalPlan, spine: list[PhysicalOperator],
               infos: Sequence[_RelationInfo]) -> dict[str, Any]:
        """The fragment plan fields of ``physical``, whose operator above
        the cut is made to read a :class:`MergedRows` leaf."""
        aggregate = next((operator for operator in spine
                          if isinstance(operator, GroupAggregate)), None)
        # Above a projection only DISTINCT, TOP and INTO run: they bind
        # no expression.
        below = aggregate or next(operator for operator in spine
                                  if isinstance(operator, ProjectOp))
        cut = MergedRows(aggregate.layout() if aggregate else ())
        position = spine.index(below)
        if position:
            spine[position - 1].child = cut
        else:
            physical.root = cut
        return {
            "spine": spine, "tail": physical, "cut": cut,
            "aggregate_mode": (
                self.engine._partial_aggregate_mode(aggregate, infos)
                if aggregate is not None else "ordered"),
        }

    @staticmethod
    def _relation(info: _RelationInfo, operator: PhysicalOperator,
                  extra_conjuncts: Sequence[Expression] = ()
                  ) -> FragmentRelation:
        """``info`` as a fragment relation read off its engine access
        operator (or the index join that probes it), filtered by its
        local conjuncts plus ``extra_conjuncts``."""
        table = info.table
        conjuncts = list(info.local_conjuncts) + list(extra_conjuncts)
        predicate = combine_conjuncts(
            [qualify_columns(part, info.binding_name, table)
             for part in conjuncts])
        if isinstance(operator, IndexNestedLoopJoin):
            return FragmentRelation(
                table.name, info.binding_name, conjuncts,
                AccessChoice("probe", predicate, index_name=operator.index.name),
                operator.inner_columns)
        columns = operator.columns
        if isinstance(operator, TableScan):
            access = AccessChoice("scan", predicate)
        else:
            assert isinstance(operator, IndexRangeScan)
            access = AccessChoice("seek", predicate, index_name=operator.index.name,
                                  low=operator.low, high=operator.high)
            if columns is not None:
                # The merge ranks a seek's rows by their key
                # (ClusterExecutor._leaf_tags reads it off the batch).
                columns = tuple(sorted(set(columns)
                                       | set(operator.index.columns)))
        return FragmentRelation(table.name, info.binding_name, conjuncts,
                                access, columns)

    # -- the single-table path --------------------------------------------

    def _plan_single(self, query: LogicalQuery, info: _RelationInfo,
                     leftover: Sequence[Expression]) -> ClusterPlan:
        physical = self.engine.plan(query)
        spine = _spine(physical.root)
        # Constant (relationless) conjuncts ride along as extra local
        # filters: same rows, same order as the single-node residual.
        relation = self._relation(info, spine[-1], leftover)
        return SingleTablePlan(query, relation=relation,
                               **self._shape(physical, spine, [info]))

    # -- the co-partitioned join path --------------------------------------

    def _plan_join(self, query: LogicalQuery, infos: list[_RelationInfo],
                   by_name: dict[str, _RelationInfo],
                   remaining: Sequence[Expression]) -> ClusterPlan:
        base_tables = [info.table.name for info in infos]
        join_conjuncts = [conjunct for conjunct in remaining
                          if self.engine._conjunct_aliases(conjunct, by_name)]
        equalities: list[tuple[Expression, dict[str, Expression]]] = []
        residual_parts: list[Expression] = []
        for conjunct in join_conjuncts:
            sides = self._equality_sides(conjunct, by_name)
            if sides is None:
                residual_parts.append(conjunct)
            else:
                equalities.append((conjunct, sides))
        # A constant conjunct is rare and order-neutral, but the
        # single-node residual sits above the join; keep the fallback
        # path authoritative.
        if (len(join_conjuncts) != len(remaining) or not equalities
                or not self._is_colocated(equalities, by_name)):
            return FallbackPlan(query, tables=base_tables,
                                reason="join is not co-partitioned")

        physical = self.engine.plan(query)
        spine = _spine(physical.root)
        join = spine[-1]
        if isinstance(join, HashJoin):
            # The probe side streams; matches come in build order.
            drive_op, inner_op, strategy = join.probe, join.build, "hash"
        elif isinstance(join, NestedLoopJoin):
            drive_op, inner_op, strategy = join.outer, join.inner, "nested"
        elif isinstance(join, IndexNestedLoopJoin) and join.outer_high is None:
            drive_op, inner_op, strategy = join.outer, join, "index"
        else:
            return FallbackPlan(query, tables=base_tables,
                                reason="range-probe join")
        drive = by_name[drive_op.binding_name]
        inner = next(info for info in infos if info is not drive)
        if strategy == "index":
            # The shards probe as the join does: its key, in the index's
            # column order, and its residual, which holds the inner's
            # local conjuncts too.
            drive_keys = list(join.outer_key)
            inner_keys: list[Expression] = [
                ColumnRef(column, inner.binding_name)
                for column in join.index.columns[:len(drive_keys)]]
            residual = join.residual
        else:
            drive_keys = [sides[drive.binding_name] for _c, sides in equalities]
            inner_keys = [sides[inner.binding_name] for _c, sides in equalities]
            residual = combine_conjuncts(residual_parts)
        return CoPartitionedJoinPlan(
            query, drive=self._relation(drive, drive_op),
            inner=self._relation(inner, inner_op),
            drive_keys=drive_keys, inner_keys=inner_keys, residual=residual,
            strategy=strategy,
            runtime_filter_enabled=self.engine.enable_runtime_filters,
            **self._shape(physical, spine, infos))

    def _equality_sides(self, conjunct: Expression,
                        by_name: dict[str, _RelationInfo]
                        ) -> Optional[dict[str, Expression]]:
        """``{binding: expression}`` when the conjunct is a two-sided equality."""
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            return None
        left = self.engine._conjunct_aliases(conjunct.left, by_name)
        right = self.engine._conjunct_aliases(conjunct.right, by_name)
        if len(left) != 1 or len(right) != 1 or left == right:
            return None
        return {next(iter(left)): conjunct.left,
                next(iter(right)): conjunct.right}

    def _is_colocated(self, equalities: Sequence[tuple[Expression,
                                                       dict[str, Expression]]],
                      by_name: dict[str, _RelationInfo]) -> bool:
        """True when some equality pair keys both sides' placements."""
        for _conjunct, sides in equalities:
            (binding_a, expr_a), (binding_b, expr_b) = sorted(sides.items())
            if not isinstance(expr_a, ColumnRef) or not isinstance(expr_b, ColumnRef):
                continue
            place_a = self.cluster.placement(by_name[binding_a].table.name)
            place_b = self.cluster.placement(by_name[binding_b].table.name)
            if place_a is None or place_b is None:
                continue
            if colocated(place_a, expr_a.name, place_b, expr_b.name):
                return True
        return False


def _spine(root: PhysicalOperator) -> list[PhysicalOperator]:
    """A plan's single-child chain (insert/top/distinct/project/sort/
    filter/aggregate) down to, and ending with, its join or access
    operator."""
    spine = [root]
    while not isinstance(spine[-1], _JOINS) and spine[-1].children():
        (child,) = spine[-1].children()
        spine.append(child)
    return spine


# ---------------------------------------------------------------------------
# Partition pruning (evaluated at execution/explain time)
# ---------------------------------------------------------------------------

def constant_bound(expression: Optional[Expression], evaluation) -> Any:
    """Fold a bound to a constant under ``evaluation`` (or ``_UNKNOWN``)."""
    if expression is None:
        return None
    if isinstance(expression, Literal):
        value = expression.value
    else:
        try:
            value = compile_expression(expression, evaluation)({})
        except Exception:
            return _UNKNOWN
    return _UNKNOWN if value is NULL else value


def candidate_shards(cluster: ShardCluster | ShardRelease,
                     relation: FragmentRelation, evaluation) -> set[int]:
    """Shards that can contribute rows to ``relation``'s fragment."""
    placement = cluster.placement(relation.table_name)
    candidates = set(range(cluster.shard_count))
    if placement is None:
        return candidates
    # The ANALYZE half may drop a shard only when no local conjunct can
    # raise: a dropped shard evaluates nothing, so a bound such as
    # sqrt(-1) would go unraised (covering_scan_bounds' rule).
    table = cluster.coordinator.table(relation.table_name)
    by_statistics = all(_cannot_raise(conjunct, table)
                        for conjunct in relation.local_conjuncts)
    for conjunct in relation.local_conjuncts:
        sargable = extract_sargable(conjunct)
        if sargable is None:
            continue
        low = constant_bound(sargable.low, evaluation)
        high = constant_bound(sargable.high, evaluation)
        if sargable.is_equality:
            high = low
        if low is _UNKNOWN and high is _UNKNOWN:
            continue
        folded_low = None if low is _UNKNOWN else low
        folded_high = None if high is _UNKNOWN else high
        if sargable.column == placement.column:
            if sargable.is_equality and folded_low is not None:
                candidates &= placement.prune_equal(folded_low)
            else:
                candidates &= placement.prune_range(folded_low, folded_high)
        if by_statistics:
            candidates &= prune_with_statistics(cluster, relation.table_name,
                                                sargable.column, folded_low,
                                                folded_high)
        if not candidates:
            break
    return candidates
