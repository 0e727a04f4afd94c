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
drive side's order, with matches in build order).  The distributed
planner therefore *mirrors* the single-node optimizer's decisions: the
same cost formulas (:class:`repro.engine.planner.Planner` constants and
helper methods) evaluated against the same ANALYZE snapshots — the
coordinator keeps them — with the cluster-wide row counts standing in
for the (detached) coordinator tables' own.  The chosen access path
also fixes the **merge key** each fragment row carries: ``(sequence,)``
for scans, ``(index key rank…, sequence)`` for index paths, plus the
inner sequence for joins.

**Partition pruning** combines two sources, both applied per shard at
execution time: the placement metadata (hash owner for key equalities,
boundary intersection for range placements — including HTM cover ranges
from the spatial layer) and the per-shard ANALYZE statistics (a shard
whose observed min/max for a predicate column is disjoint from the
predicate's constant range cannot contribute rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..engine.catalog import Database
from ..engine.expressions import (AggregateCall, BinaryOp, ColumnRef,
                                  Expression, combine_conjuncts,
                                  extract_sargable)
from ..engine.index import BTreeIndex
from ..engine.logical import FunctionRef, LogicalQuery, SelectItem
from ..engine.operators import key_range_text
from ..engine.planner import (Planner, _RelationInfo, collect_aggregates,
                              covering_scan_bounds, prefix_bounds,
                              qualify_columns)
from .partition import colocated
from .shard import ShardCluster, prune_with_statistics

#: Sentinel matching the engine planner's "not a plan-time constant".
_UNKNOWN = object()


@dataclass
class AccessChoice:
    """The mirrored single-node access path for one fragment relation."""

    kind: str                                  # "scan" | "seek" | "covering"
    predicate: Optional[Expression]            # the full local predicate
    index_name: Optional[str] = None
    low: Optional[list[Expression]] = None     # key-prefix bounds (plan-time expressions)
    high: Optional[list[Expression]] = None
    estimated_rows: int = 1
    cost: float = 0.0

    @property
    def ordered_by_index(self) -> bool:
        return self.kind in ("seek", "covering")

    def describe(self) -> str:
        if self.kind == "scan":
            return "Shard Scan"
        label = "Covering Index Scan" if self.kind == "covering" else "Index Seek"
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
    #: for ``*``): ``Planner._read_columns`` over what the query
    #: references, plus an index path's key columns, which rank each
    #: row for the merge.
    columns: Optional[tuple[str, ...]]


@dataclass
class ClusterPlan:
    """Base class of the three plan shapes."""

    query: LogicalQuery

    kind = "fallback"


@dataclass
class _FragmentShape(ClusterPlan):
    """Shared projection/aggregation/ordering metadata of both fragment plans."""

    select: list[SelectItem] = field(default_factory=list)
    aggregates: list[AggregateCall] = field(default_factory=list)
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: list[tuple[Expression, bool]] = field(default_factory=list)
    top: Optional[int] = None
    distinct: bool = False
    into: Optional[str] = None

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates or self.group_by)


@dataclass
class SingleTablePlan(_FragmentShape):
    """A distributable single-table chain."""

    relation: FragmentRelation = None  # type: ignore[assignment]

    kind = "single"


@dataclass
class CoPartitionedJoinPlan(_FragmentShape):
    """A two-table equi-join that executes shard-locally."""

    drive: FragmentRelation = None      # type: ignore[assignment]
    inner: FragmentRelation = None      # type: ignore[assignment]
    drive_keys: list[Expression] = field(default_factory=list)
    inner_keys: list[Expression] = field(default_factory=list)
    residual: Optional[Expression] = None
    strategy: str = "hash"

    kind = "join"


@dataclass
class FallbackPlan(ClusterPlan):
    """Gather the referenced tables to the coordinator and run there."""

    tables: Optional[list[str]] = None     # None = every partitioned table
    reason: str = ""

    kind = "fallback"


class ClusterPlanner:
    """Builds :class:`ClusterPlan`\\ s for one cluster."""

    def __init__(self, cluster: ShardCluster):
        self.cluster = cluster
        #: The single-node planner whose constants, selectivity helpers
        #: and index-selection logic the mirrored cost decisions reuse —
        #: instantiated over the coordinator so statistics lookups hit
        #: the preserved ANALYZE snapshots.
        self.mirror = Planner(cluster.coordinator)

    @property
    def coordinator(self) -> Database:
        return self.cluster.coordinator

    def plan_tables(self, plan: ClusterPlan) -> list[str]:
        """Base tables a plan reads: a fragment plan's relations, or the
        tables a fallback gathers.

        The session's fragment-plan cache validates a cached plan
        against the per-shard modification counters of exactly these
        tables (see :meth:`ShardCluster.table_versions`), so a write
        re-plans the fragments — or re-gathers and re-plans a fallback.
        """
        if isinstance(plan, SingleTablePlan):
            return [plan.relation.table_name]
        if isinstance(plan, CoPartitionedJoinPlan):
            return [plan.drive.table_name, plan.inner.table_name]
        assert isinstance(plan, FallbackPlan)
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
            infos = [self.mirror._resolve_relation(ref) for ref in relations]
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
        pool = self.mirror._build_predicate_pool(query, infos)
        self.mirror._assign_local_conjuncts(pool, infos)
        if len(infos) == 1:
            return self._plan_single(query, infos[0], pool.remaining)
        if len(infos) == 2:
            plan = self._plan_join(query, infos, by_name, pool.remaining)
            if plan is not None:
                return plan
            return FallbackPlan(query, tables=base_tables,
                                reason="join is not co-partitioned")
        return FallbackPlan(query, tables=base_tables,
                            reason=f"{len(infos)}-way join")

    # -- shared shape extraction ------------------------------------------

    def _shape(self, query: LogicalQuery) -> dict[str, Any]:
        aggregates: list[AggregateCall] = []
        for item in query.select:
            aggregates.extend(collect_aggregates(item.expression))
        if query.having is not None:
            aggregates.extend(collect_aggregates(query.having))
        deduplicated: dict[str, AggregateCall] = {}
        for aggregate in aggregates:
            deduplicated.setdefault(aggregate.result_key(), aggregate)
        order_by = [(self.mirror._rewrite_order_key(order.expression, query),
                     order.descending) for order in query.order_by]
        return {
            "select": list(query.select),
            "aggregates": list(deduplicated.values()),
            "group_by": list(query.group_by),
            "having": query.having,
            "order_by": order_by,
            "top": query.top,
            "distinct": query.distinct,
            "into": query.into,
        }

    # -- the single-table path --------------------------------------------

    def _plan_single(self, query: LogicalQuery, info: _RelationInfo,
                     leftover: Sequence[Expression]) -> ClusterPlan:
        # Constant (relationless) conjuncts ride along as extra local
        # filters: same rows, same order as the single-node residual.
        conjuncts = list(info.local_conjuncts) + list(leftover)
        shaped = _RelationInfo(ref=info.ref, binding_name=info.binding_name,
                               kind="table", table=info.table,
                               local_conjuncts=conjuncts)
        return SingleTablePlan(query, relation=self._relation(shaped, query),
                               **self._shape(query))

    # -- the co-partitioned join path --------------------------------------

    def _plan_join(self, query: LogicalQuery, infos: list[_RelationInfo],
                   by_name: dict[str, _RelationInfo],
                   remaining: Sequence[Expression]
                   ) -> Optional[CoPartitionedJoinPlan]:
        join_conjuncts = [conjunct for conjunct in remaining
                          if self.mirror._conjunct_aliases(conjunct, by_name)]
        constant = [conjunct for conjunct in remaining
                    if not self.mirror._conjunct_aliases(conjunct, by_name)]
        if constant:
            # Rare and order-neutral, but the single-node residual sits
            # above the join; keep the fallback path authoritative.
            return None
        if not join_conjuncts:
            return None

        equalities: list[tuple[Expression, dict[str, Expression]]] = []
        residual_parts: list[Expression] = []
        for conjunct in join_conjuncts:
            sides = self._equality_sides(conjunct, by_name)
            if sides is None:
                residual_parts.append(conjunct)
            else:
                equalities.append((conjunct, sides))
        if not equalities:
            return None
        if not self._is_colocated(equalities, by_name):
            return None

        choice = self._choose_join(query, infos, equalities)
        if choice is None:
            return None
        drive, inner, strategy = choice
        drive_keys = [sides[drive.binding] for _c, sides in equalities]
        inner_keys = [sides[inner.binding] for _c, sides in equalities]
        return CoPartitionedJoinPlan(
            query, drive=drive, inner=inner, drive_keys=drive_keys,
            inner_keys=inner_keys, residual=combine_conjuncts(residual_parts),
            strategy=strategy, **self._shape(query))

    def _equality_sides(self, conjunct: Expression,
                        by_name: dict[str, _RelationInfo]
                        ) -> Optional[dict[str, Expression]]:
        """``{binding: expression}`` when the conjunct is a two-sided equality."""
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            return None
        left = self.mirror._conjunct_aliases(conjunct.left, by_name)
        right = self.mirror._conjunct_aliases(conjunct.right, by_name)
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

    # -- mirrored cost decisions -------------------------------------------
    #
    # The formulas below must track Planner._access_path_cbo and the
    # option block of Planner._plan_joins_cbo: the cluster substitutes
    # its own total row counts (the coordinator's tables are detached)
    # but everything else — selectivities, cost constants, tie-breaks —
    # comes from the same code so the cluster picks the access path and
    # join shape the single-node optimizer would, and with it the
    # single-node row order.

    def _estimate_relation(self, info: _RelationInfo, total: int) -> int:
        statistics = self.coordinator.table_statistics(info.table.name)
        selectivities = [self.mirror._conjunct_selectivity(statistics, conjunct)
                         for conjunct in info.local_conjuncts]
        estimate = float(max(1, total)) * self.mirror._combine_selectivities(
            selectivities)
        return max(1, int(estimate))

    def _relation(self, info: _RelationInfo,
                  query: LogicalQuery) -> FragmentRelation:
        """``info`` as a fragment relation: its access path and the
        columns a shard reads for it."""
        mirror = self.mirror
        table = info.table
        key = table.name.lower()
        total = max(1, self.cluster.total_rows(key))
        row_bytes = max(1.0, self.cluster.average_row_bytes(key))
        statistics = self.coordinator.table_statistics(key)
        estimated_out = self._estimate_relation(info, total)
        sargables = mirror._sargables(info)
        needed = mirror._needed_columns(query, info)
        predicate = combine_conjuncts(
            [qualify_columns(part, info.binding_name, table)
             for part in info.local_conjuncts])

        # (cost, tie-break priority, access path, its index)
        candidates: list[tuple[float, int, AccessChoice,
                               Optional[BTreeIndex]]] = []
        best_index, best_prefix = mirror._best_seek_index(table, sargables)
        if best_index is not None and best_prefix:
            full_unique = (best_index.unique
                           and len(best_prefix) == len(best_index.columns)
                           and all(s.is_equality for s in best_prefix))
            if full_unique:
                fetched = 1
            else:
                prefix_selectivity = mirror._combine_selectivities(
                    [mirror._sargable_selectivity(statistics, s)
                     for s in best_prefix])
                fetched = max(1, int(total * prefix_selectivity))
            rows = min(estimated_out, fetched)
            low, high = prefix_bounds(best_prefix)
            covering = needed is not None and best_index.covers(needed)
            per_row = (mirror.INDEX_ENTRY_COST if covering
                       else mirror.RANDOM_LOOKUP_COST)
            cost = math.log2(total + 1) + fetched * per_row
            candidates.append((cost, 0, AccessChoice(
                "seek", predicate, index_name=best_index.name,
                low=low, high=high,
                estimated_rows=rows, cost=cost), best_index))

        if needed is not None and self.cluster.storage_kind(key) != "column":
            covering_indexes = [index for index in table.indexes.values()
                                if index.covers(needed)]
            if covering_indexes:
                narrow = min(covering_indexes,
                             key=lambda index: index.entry_byte_width())
                ratio = min(1.0, max(0.05, narrow.entry_byte_width() / row_bytes))
                cost = total * mirror.SEQ_ROW_COST * ratio
                low, high = covering_scan_bounds(narrow, table, sargables,
                                                 info.local_conjuncts)
                candidates.append((cost, 1, AccessChoice(
                    "covering", predicate, index_name=narrow.name,
                    low=low, high=high,
                    estimated_rows=estimated_out, cost=cost), narrow))
        scan_cost = total * mirror.SEQ_ROW_COST
        candidates.append((scan_cost, 2, AccessChoice(
            "scan", predicate, estimated_rows=estimated_out, cost=scan_cost),
            None))
        _cost, _priority, access, index = min(
            candidates, key=lambda item: (item[0], item[1]))
        if index is not None and needed is not None:
            # The merge ranks an index path's rows by their key
            # (ClusterExecutor._iter_index reads it off the row).
            needed = needed | set(index.columns)
        return FragmentRelation(table.name, info.binding_name,
                                list(info.local_conjuncts), access,
                                mirror._read_columns(info, needed))

    def _choose_join(self, query: LogicalQuery, infos: list[_RelationInfo],
                     equalities: Sequence[tuple[Expression,
                                                dict[str, Expression]]]
                     ) -> Optional[tuple[FragmentRelation, FragmentRelation, str]]:
        """The (drive side, inner side, strategy) the single-node CBO implies."""
        mirror = self.mirror
        relations = {info.binding_name: self._relation(info, query)
                     for info in infos}
        paths = {binding: relation.access
                 for binding, relation in relations.items()}
        start = min(infos, key=lambda info: (paths[info.binding_name].estimated_rows,
                                             paths[info.binding_name].cost,
                                             info.binding_name))
        other = next(info for info in infos
                     if info.binding_name != start.binding_name)
        root_rows = paths[start.binding_name].estimated_rows
        root_cost = paths[start.binding_name].cost
        inner_path = paths[other.binding_name]
        # Equalities in the engine planner's (conjunct, new, old) frame,
        # "new" being the not-yet-planned relation (= `other`).
        framed = []
        for conjunct, sides in equalities:
            if other.binding_name not in sides or start.binding_name not in sides:
                return None
            framed.append((conjunct, sides[other.binding_name],
                           sides[start.binding_name]))

        options: list[tuple[float, int, tuple[str, Any]]] = []
        if mirror.enable_index_join:
            candidate = mirror._index_join_candidate(other, framed)
            if candidate is not None:
                index, prefix_columns, _by_column = candidate
                matches = self._index_probe_matches(other.table, index,
                                                    prefix_columns)
                cost = root_cost + root_rows * (
                    math.log2(max(2, self.cluster.total_rows(other.table.name)))
                    + matches * mirror.RANDOM_LOOKUP_COST)
                options.append((cost, 0, ("index", None)))
        if mirror.enable_hash_join:
            build_new = inner_path.estimated_rows <= root_rows
            build_rows = inner_path.estimated_rows if build_new else root_rows
            probe_rows = root_rows if build_new else inner_path.estimated_rows
            cost = (root_cost + inner_path.cost
                    + build_rows * mirror.HASH_BUILD_COST
                    + probe_rows * mirror.HASH_PROBE_COST)
            options.append((cost, 1, ("hash", build_new)))
        nested_cost = root_cost + max(1, root_rows) * max(1.0, inner_path.cost)
        options.append((nested_cost, 2, ("nested", None)))

        _cost, _priority, (strategy, extra) = min(
            options, key=lambda item: (item[0], item[1]))
        start_relation = relations[start.binding_name]
        other_relation = relations[other.binding_name]
        if strategy == "hash" and extra is False:
            # HashJoin(build=root, probe=new): rows stream in the NEW
            # relation's order, with matches in root order.
            return other_relation, start_relation, "hash"
        return start_relation, other_relation, strategy

    def _index_probe_matches(self, table, index: BTreeIndex,
                             prefix_columns: Sequence[str]) -> float:
        """Planner._index_probe_matches with the cluster-wide row count."""
        if index.unique and len(prefix_columns) == len(index.columns):
            return 1.0
        statistics = self.coordinator.table_statistics(table.name)
        selectivities = []
        for column in prefix_columns:
            distinct = 0
            if statistics is not None:
                column_stats = statistics.column(column)
                if column_stats is not None:
                    distinct = column_stats.distinct_count
            selectivities.append(1.0 / distinct if distinct > 0
                                 else self.mirror.EQUALITY_SELECTIVITY)
        matches = (max(1, self.cluster.total_rows(table.name))
                   * self.mirror._combine_selectivities(selectivities))
        return max(1.0, matches)


# ---------------------------------------------------------------------------
# Partition pruning (evaluated at execution/explain time)
# ---------------------------------------------------------------------------

def constant_bound(expression: Optional[Expression], evaluation) -> Any:
    """Fold a bound to a constant under ``evaluation`` (or ``_UNKNOWN``)."""
    if expression is None:
        return None
    try:
        from ..engine.compile import compile_expression

        value = compile_expression(expression, evaluation)({})
    except Exception:
        return _UNKNOWN
    from ..engine.types import NULL

    return _UNKNOWN if value is NULL else value


def candidate_shards(cluster: ShardCluster, relation: FragmentRelation,
                     evaluation) -> set[int]:
    """Shards that can contribute rows to ``relation``'s fragment."""
    placement = cluster.placement(relation.table_name)
    candidates = set(range(cluster.shard_count))
    if placement is None:
        return candidates
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
        candidates &= prune_with_statistics(cluster, relation.table_name,
                                            sargable.column, folded_low,
                                            folded_high)
        if not candidates:
            break
    return candidates
