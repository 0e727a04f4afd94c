"""Scatter-gather execution of cluster plans.

One fragment runs per surviving shard, each under the shard tables'
read locks (the same :mod:`repro.engine.concurrency` discipline the
serving pool uses) and its own
:class:`~repro.engine.operators.ExecutionContext`, whose statistics are
the fragment's counters.  Fragments are CPU work under the GIL, so they
run one after another on the calling thread.

Shards are column stores, and a fragment runs the engine's batch
inputs: a scan or seek chain, a hash join built on the inner side and
probed by the drive side (which pushes its
:class:`~repro.engine.operators.RuntimeJoinFilter` into the drive
scan), or the batch form of the engine's index nested-loop join
(:class:`~repro.engine.operators._IndexJoinInput`), which seeks the
inner index once per drive row.  Select items, sort keys, group keys
and aggregate arguments are vector projections over those batches; the
fragments of one scatter share their vector compiles where the columns
they read hold NULLs alike.

A fragment emits rows tagged with a **merge key** — the global
sequence for scans (a batch's ``base`` maps positions back to
sequences), ``(index key rank…, sequence)`` for index access paths,
plus the match ordinal for joins — and the coordinator k-way merges
the shard streams by that key, which reproduces the single-node
engine's emission order exactly.  Aggregates ship as partial states
(COUNT/SUM/MIN/MAX merge directly; AVG merges as sum+count pairs) with
per-group first-seen tags so merged groups surface in single-node
first-seen order; aggregates whose result is order-sensitive (floating
SUM/AVG, DISTINCT) fall back to gathering the tagged aggregate
*inputs* and folding them in merged order, trading transfer for
bit-identical results; so does a MIN/MAX merge whose shard partials
hold NaN or tie in value but not in representation (``0.0``/``-0.0``),
re-run once its partials show it.  The merged groups come out of the
plan's own GroupAggregate (its fold and its first-seen emission).

The coordinator finishes a fragment plan with the engine's operators:
the planner cuts the engine plan above its GroupAggregate (or, without
one, above its ProjectOp), and the merged bindings feed the operators
above the cut — HAVING, ORDER BY, the select list, DISTINCT, TOP and
INTO — through :meth:`~repro.engine.operators.PhysicalPlan.execute`.
A row plan's ORDER BY sits below its projection, so the merge itself
re-sorts, stably, on the sort keys the shards computed.  Anything a
fragment cannot express falls back to the row-path gather executed by
the unmodified single-node engine.

``simulated_scan_mbps`` models the per-shard disk bandwidth of the
paper's scan-bound hardware (Figure 15): every shard streams off its
own disks at once, so after a scatter's fragments have run it sleeps
once, for the time the largest fragment's bytes would take to stream
off one shard's disks.  The scatter-gather overlap — the reason to
shard at all — then shows up in wall clock even on a single-CPU host.
It is off (None) by default.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import Counter
from contextlib import contextmanager
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..engine.batch import JoinBatch, column_values, row_dicts
from ..engine.compile import Layout, batch_key
from ..engine.errors import QueryLimitExceeded
from ..engine.expressions import AggregateCall, EvaluationContext, Star
from ..engine.index import key_rank
from ..engine.operators import (OUTPUT_BINDING, Binding, DistinctOp,
                                ExecutionContext, ExecutionStatistics,
                                HashJoin, IndexRangeScan, PhysicalOperator,
                                PhysicalPlan, ProjectOp, QueryResult, SortOp,
                                TableScan, TopOp, _AggState, _BatchInput,
                                _IndexJoinInput, _SortKey, _batch_input,
                                batch_shape, count_groups, fold_scalar)
from ..engine.concurrency import read_locks
from ..engine.sql import SqlSession
# Bound here, though unused, for the benchmark harness's wrap point
# (ROADMAP item 8 retires those wrap points).
from ..engine.sql import parse_batch  # noqa: F401
from ..engine.sql.ast import AnalyzeStatement
from ..engine.sql.session import StatementResult
from ..telemetry.trace import TRACER
from .planner import (ClusterPlan, ClusterPlanner,
                      FallbackPlan, FragmentRelation, SingleTablePlan,
                      candidate_shards)
from .shard import ShardCluster, ShardNode

#: The scan counters a fragment's statistics add to the query's.
_FRAGMENT_COUNTERS = (
    "rows_scanned", "bytes_scanned", "index_entries_read", "random_lookups",
    "batches_processed", "batch_rows", "exprs_compiled", "segments_scanned",
    "segments_skipped", "runtime_filter_segments_pruned",
    "runtime_filter_rows_pruned", "vector_fallbacks")

#: A scalar fragment's row count, folded as a COUNT(*) state.
_COUNT_STAR = AggregateCall("count")

#: ``tags(batch, positions)``: the merge keys of a batch's positions.
_Tags = Callable[..., list]


class ClusterPlanHandle:
    """Duck-typed stand-in for a PhysicalPlan on cluster results.

    The EXPLAIN text is rendered lazily: almost no caller reads
    ``result.plan``, and rendering re-runs partition pruning.
    """

    def __init__(self, render):
        self._render = render
        self._text: Optional[str] = None

    def explain(self) -> str:
        if self._text is None:
            self._text = self._render()
        return self._text


class _Fragment:
    """One shard's contribution to a distributed query."""

    __slots__ = ("rows", "groups", "statistics")

    def __init__(self) -> None:
        #: Tagged output: list of (merge key, sort values|None, row dict)
        #: for row fragments, or (merge key, group key, argument values)
        #: for ordered-aggregate input fragments.
        self.rows: list[tuple] = []
        #: Partial aggregation: group key -> [its first row's merge key,
        #: the key as that row shows it, its row count, then one
        #: _AggState per stateful aggregate] (the merge adopts these
        #: lists).
        self.groups: dict[Any, list] = {}
        self.statistics = ExecutionStatistics()


def _extremes_tie(plan, fragments: Sequence[_Fragment]) -> bool:
    """True when merging the fragments' partial MIN/MAX states in shard
    order could pick another value than the single node's scan-order
    fold: a partial extreme is NaN (nothing compares below it, so the
    fold keeps whichever NaN or number the scan met first), or two equal
    extremes of one group differ in representation (``0.0``/``-0.0``,
    ``1``/``1.0``: the fold keeps the first the scan met)."""
    positions = [(position, aggregate.func == "min")
                 for position, aggregate in enumerate(plan.aggregate._stateful)
                 if aggregate.func in ("min", "max")]
    if not positions or len(fragments) < 2:
        return False
    seen: dict[tuple, Any] = {}
    for fragment in fragments:
        for key, entry in fragment.groups.items():
            for position, is_min in positions:
                state = entry[3 + position]
                value = state.minimum if is_min else state.maximum
                if value is None:
                    continue
                if value != value:
                    return True
                first = seen.setdefault((key, position, value), value)
                if repr(first) != repr(value):
                    return True
    return False


class ClusterExecutor:
    """Runs cluster plans over the shard pool and merges the streams."""

    def __init__(self, cluster: ShardCluster):
        self.cluster = cluster
        #: Per-shard simulated sequential-scan bandwidth (MB/s); None = off.
        self.simulated_scan_mbps: Optional[float] = None
        self._mutex = threading.Lock()
        self.distributed_queries = 0
        self.copartitioned_queries = 0
        self.fallback_queries = 0
        self.fragments_executed = 0
        self.fragments_pruned = 0
        self.rows_merged = 0
        self.groups_merged = 0
        self.partial_merges = 0
        self.ordered_aggregate_gathers = 0
        self.topn_resorts = 0
        self.simulated_io_seconds = 0.0

    def _count(self, **deltas: float) -> None:
        with self._mutex:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    # -- entry point -------------------------------------------------------

    def execute_plan(self, plan: ClusterPlan, variables: dict[str, Any], *,
                     row_limit: Optional[int] = None,
                     time_limit_seconds: Optional[float] = None) -> QueryResult:
        assert not isinstance(plan, FallbackPlan)
        # One release for the whole scatter: a flip while fragments run
        # must not hand the later shards the next release's data.
        release = self.cluster.release
        evaluation = self.cluster.coordinator.evaluation_context(variables)
        if isinstance(plan, SingleTablePlan):
            self._count(distributed_queries=1)
        else:
            self._count(copartitioned_queries=1)
        survivors = set(range(release.shard_count))
        for relation in plan.relations:
            survivors &= candidate_shards(release, relation, evaluation)
        pruned = release.shard_count - len(survivors)
        self._count(fragments_pruned=pruned, fragments_executed=len(survivors))
        nodes = [release.shards[shard_id] for shard_id in sorted(survivors)]

        started = time.perf_counter()
        started_cpu = time.thread_time()
        # The fragments share the evaluation context, and their vector
        # compiles where their NULL signatures match (_null_signature).
        memos: dict[tuple, dict] = {}

        fragments = self._scatter(plan, evaluation, memos, nodes)
        if (plan.is_aggregate and plan.aggregate_mode == "partial"
                and _extremes_tie(plan, fragments)):
            # Partials merge in shard order; the first row's value
            # needs the inputs folded in merged (scan) order.
            plan = dataclasses.replace(plan, aggregate_mode="ordered")
            fragments = self._scatter(plan, evaluation, memos, nodes)

        counters = attrgetter(*_FRAGMENT_COUNTERS)
        statistics = ExecutionStatistics(**dict(zip(
            _FRAGMENT_COUNTERS,
            map(sum, zip(*[counters(fragment.statistics)
                           for fragment in fragments])))))

        tracer = TRACER
        if tracer.enabled:
            with tracer.span("merge", fragments=len(fragments)) as span:
                finished = self._finish(plan, fragments, variables, row_limit)
                span.attributes["rows"] = len(finished.rows)
        else:
            finished = self._finish(plan, fragments, variables, row_limit)
        rows = finished.rows
        self._count(rows_merged=len(rows))

        # Both clocks, and the time limit, count the scatter too.
        cpu_seconds = time.thread_time() - started_cpu
        elapsed = time.perf_counter() - started
        if time_limit_seconds is not None and elapsed > time_limit_seconds:
            raise QueryLimitExceeded(
                f"query exceeded the public time limit of {time_limit_seconds} s",
                limit_kind="time")
        # The work counters stay the fragments' sums: the tail's compiles
        # are the coordinator's.
        statistics.rows_returned = len(rows)
        statistics.elapsed_seconds = elapsed
        statistics.cpu_seconds = cpu_seconds
        frozen_variables = dict(variables) if variables else {}
        handle = ClusterPlanHandle(
            lambda: self.explain_plan(plan, frozen_variables))
        return QueryResult(columns=finished.columns, rows=rows,
                           statistics=statistics, plan=handle)

    def _scatter(self, plan: ClusterPlan, evaluation: EvaluationContext,
                 memos: dict, nodes: Sequence[ShardNode]) -> list[_Fragment]:
        """One fragment per node, in order, on the calling thread; then
        the modelled disks' one wait (:meth:`_simulate_io`)."""
        fragments = [self._run_fragment(node, plan, evaluation, memos)
                     for node in nodes]
        self._simulate_io(max((fragment.statistics.bytes_scanned
                               for fragment in fragments), default=0))
        return fragments

    # -- fragment execution (one call per shard) ---------------------------

    def _run_fragment(self, shard: ShardNode, plan: ClusterPlan,
                      evaluation: EvaluationContext, memos: dict) -> _Fragment:
        tracer = TRACER
        if tracer.enabled:
            with tracer.span("fragment", shard=shard.shard_id) as span:
                fragment = self._run_fragment_inner(shard, plan, evaluation,
                                                    memos)
                span.attributes["rows_scanned"] = (
                    fragment.statistics.rows_scanned)
                return fragment
        return self._run_fragment_inner(shard, plan, evaluation, memos)

    def _run_fragment_inner(self, shard: ShardNode, plan: ClusterPlan,
                            evaluation: EvaluationContext,
                            memos: dict) -> _Fragment:
        fragment = _Fragment()
        # The engine's scans account into this context's statistics; the
        # cluster's own per-shard disk model is _simulate_io.
        context = ExecutionContext(shard.database, evaluation,
                                   statistics=fragment.statistics)
        relations = plan.relations
        with read_locks([shard.table(relation.table_name)
                         for relation in relations]):
            context.vector_memo = memos.setdefault(
                _null_signature(shard, relations), {})
            source, tags = self._batch_source(shard, plan, context)
            if plan.is_aggregate:
                run = self._batch_aggregate(plan, context, fragment, source,
                                            tags)
            else:
                run = self._batch_rows(plan, context, fragment, source, tags)
            context.statistics.exprs_compiled += source.compiled_count()
            run()
        return fragment

    def _simulate_io(self, bytes_scanned: int) -> None:
        """Sleep while the largest fragment's ``bytes_scanned`` stream
        off its shard's disks; the other shards' disks stream alongside."""
        if not self.simulated_scan_mbps or bytes_scanned <= 0:
            return
        seconds = bytes_scanned / (self.simulated_scan_mbps * 1.0e6)
        self._count(simulated_io_seconds=seconds)
        time.sleep(seconds)

    # -- batch fragments -----------------------------------------------------

    def _batch_source(self, shard, plan, context: ExecutionContext
                      ) -> tuple[_BatchInput, _Tags]:
        """The fragment's batch input and the merge keys of its batch
        positions."""
        if isinstance(plan, SingleTablePlan):
            access = self._access(shard, plan.relation)
            return (_compiled(context, access),
                    self._leaf_tags(shard, access))
        drive = self._access(shard, plan.drive)
        if plan.strategy == "index":
            source = _IndexJoinInput(context, _compiled(context, drive),
                                     self._index(shard, plan.inner),
                                     plan.inner.binding, plan.drive_keys,
                                     plan.residual)
        else:
            # Build on the inner side, probe with the drive side: the
            # drive rows stream, their matches in the inner's order.
            join = HashJoin(self._access(shard, plan.inner), drive,
                            plan.inner_keys, plan.drive_keys, plan.residual)
            join.runtime_filter_enabled = plan.runtime_filter_enabled
            source = _compiled(context, join)
        return source, _join_tags(self._leaf_tags(shard, drive))

    def _access(self, shard, relation: FragmentRelation) -> PhysicalOperator:
        """The engine's scan or seek of ``relation`` on this shard."""
        access = relation.access
        if access.kind == "scan":
            return TableScan(shard.table(relation.table_name),
                             relation.binding, access.predicate,
                             columns=relation.columns)
        return IndexRangeScan(self._index(shard, relation), relation.binding,
                              access.low, access.high, access.predicate,
                              columns=relation.columns,
                              range_predicate=access.predicate)

    def _index(self, shard, relation: FragmentRelation):
        """The shard's index of ``relation``'s access path."""
        # Shards copy the coordinator's indexes under the same names.
        index = shard.table(relation.table_name).indexes.get(
            relation.access.index_name)
        if index is None:
            # The shard lost the index (dropped after planning).  A scan
            # could not produce the index-rank merge keys the other
            # shards emit, so fail loudly instead of degrading.
            raise RuntimeError(
                f"shard {shard.shard_id} is missing index "
                f"{relation.access.index_name!r} on {relation.table_name}")
        return index

    @staticmethod
    def _leaf_tags(shard, leaf: PhysicalOperator) -> _Tags:
        """Merge keys of a scan's batch positions, ``(sequence,)``, or of
        a seek's, ``(index key rank, sequence)``; with ``ordinals``, one
        per position, each key ends with its ordinal."""
        sequences = shard.sequence_list(leaf.table.name)
        if isinstance(leaf, TableScan):
            def scan_tags(batch, positions: Sequence[int],
                          ordinals: Optional[Sequence[int]] = None) -> list[tuple]:
                base = batch.base
                if ordinals is None:
                    return [(sequences[base + position],) for position in positions]
                return [(sequences[base + position], ordinal)
                        for position, ordinal in zip(positions, ordinals)]
            return scan_tags
        key_columns = leaf.index.columns

        def seek_tags(batch, positions: Sequence[int],
                      ordinals: Optional[Sequence[int]] = None) -> list[tuple]:
            keys = [batch.columns[column] for column in key_columns]
            row_ids = batch.row_ids
            ranks = [key_rank([key[position] for key in keys])
                     for position in positions]
            if ordinals is None:
                return [(rank, sequences[row_ids[position]])
                        for rank, position in zip(ranks, positions)]
            return [(rank, sequences[row_ids[position]], ordinal)
                    for rank, position, ordinal in zip(ranks, positions, ordinals)]
        return seek_tags

    def _batch_rows(self, plan, context: ExecutionContext,
                    fragment: _Fragment, source: _BatchInput, tags: _Tags
                    ) -> Callable[[], None]:
        """Compile a row fragment (the plan's projection, its sort keys
        and a local TOP) over ``source``; returns the loop that runs it."""
        # (output name, fn) per item; a ``*`` is (None, its columns'
        # (row key, batch key) pairs).
        items: list[tuple[Optional[str], Any]] = []
        for position, item in enumerate(plan.operator(ProjectOp).items):
            expression = item.expression
            if isinstance(expression, Star):
                # The single node's join (or access) operator lays the
                # relations out in the order ``*`` expands them in.
                items.append((None, _star_keys(expression, source,
                                               plan.spine[-1].layout())))
            else:
                items.append((item.output_name(position), source.projection(
                    context, expression, projected=True)[0]))
        sort, top = plan.operator(SortOp), plan.operator(TopOp)
        sort_fns = ([] if sort is None else
                    [(source.projection(context, expression, projected=True)[0],
                      descending) for expression, descending in sort.keys])
        # Without ORDER BY or DISTINCT a shard's first rows are the only
        # ones a TOP can keep.
        local_top = (top.count if top is not None and sort is None
                     and plan.operator(DistinctOp) is None else None)
        stars = any(name is None for name, _fn in items)
        needed = [key for name, keys in items if name is None
                  for _column, key in keys]
        names = [name for name, _fn in items]

        def run() -> None:
            produced = 0
            batches = source.batches(context, needed)
            try:
                for batch in batches:
                    if local_top is not None:
                        batch.selection = batch.selection[:local_top - produced]
                    selection = batch.selection
                    values = [_star_rows(batch, fn) if name is None
                              else fn(batch, selection) for name, fn in items]
                    if stars:
                        outputs = _star_outputs(names, values)
                    else:
                        outputs = list(row_dicts(names, zip(*values)))
                    if sort_fns:
                        sort_values = [list(keys) for keys in zip(*[
                            [_SortKey(value, descending)
                             for value in fn(batch, selection)]
                            for fn, descending in sort_fns])]
                    else:
                        sort_values = [None] * len(outputs)
                    fragment.rows.extend(zip(tags(batch, selection),
                                             sort_values, outputs))
                    produced += len(selection)
                    if local_top is not None and produced >= local_top:
                        break
            finally:
                batches.close()
        return run

    def _batch_aggregate(self, plan, context: ExecutionContext,
                         fragment: _Fragment, source: _BatchInput,
                         tags: _Tags) -> Callable[[], None]:
        """Compile an aggregate fragment (the plan's GroupAggregate) over
        ``source``; returns the fold that runs it.  As GroupAggregate
        folds, COUNT(*) is its group's row count and every other
        aggregate keeps a state."""
        aggregate = plan.aggregate
        group_fns = [source.projection(context, expression)[0]
                     for expression in aggregate.group_by]
        arguments = [source.projection(context, call.argument)
                     for call in aggregate._stateful]
        argument_fns = [fn for fn, _tag in arguments]
        if plan.aggregate_mode == "ordered":
            return lambda: _gather_inputs(fragment.rows,
                                          source.batches(context), group_fns,
                                          argument_fns, tags)
        if group_fns:
            return lambda: _fold_groups(fragment.groups, aggregate._stateful,
                                        source.batches(context), group_fns,
                                        argument_fns, tags)

        def fold() -> None:
            # The first state counts the rows.
            states = [_AggState(call)
                      for call in [_COUNT_STAR, *aggregate._stateful]]
            fold_scalar(source.batches(context), states,
                        [(None, None), *arguments])
            if states[0].count:
                fragment.groups[()] = [(0,), (), states[0].count, *states[1:]]
        return fold

    # -- coordinator merges -------------------------------------------------

    def _finish(self, plan, fragments: Sequence[_Fragment],
                variables: dict[str, Any],
                row_limit: Optional[int]) -> QueryResult:
        """Merge the fragments' streams into the plan's cut, then run the
        engine's operators above it over the merged rows."""
        if plan.operator(SortOp) and plan.operator(TopOp):
            self._count(topn_resorts=1)
        cut = plan.cut
        cut.merged = (self._merge_aggregate(plan, fragments)
                      if plan.is_aggregate else self._merge_rows(plan, fragments))
        try:
            return plan.tail.execute(variables, row_limit=row_limit)
        finally:
            cut.merged = ()

    def _merge_rows(self, plan, fragments: Sequence[_Fragment]
                    ) -> list[Binding]:
        """The plan's ProjectOp's output in single-node order: merged by
        merge key, then sorted (stably) on the shards' sort keys."""
        # Each fragment's rows are a run in merge-key order: the sort
        # finds and merges the runs.
        entries = sorted(chain.from_iterable(fragment.rows
                                             for fragment in fragments),
                         key=itemgetter(0))
        if plan.operator(SortOp) is not None:
            # Stable: equal keys keep the merged (single-node) order.
            entries.sort(key=itemgetter(1))
        return [{OUTPUT_BINDING: entry[2]} for entry in entries]

    def _merge_aggregate(self, plan, fragments: Sequence[_Fragment]
                         ) -> Iterator[Binding]:
        """The plan's GroupAggregate's output over the merged groups: it
        folds merged inputs, or takes merged partials, and emits them in
        first-seen order."""
        aggregate = plan.aggregate
        # GroupAggregate's fold: group key -> row count, and -> the
        # stateful aggregates' states.
        counts: Counter = Counter()
        states: dict[Any, list] = {}
        if any(fragment.rows for fragment in fragments):
            self._count(ordered_aggregate_gathers=1)
            merged = sorted(chain.from_iterable(fragment.rows
                                                for fragment in fragments),
                            key=itemgetter(0))
            aggregate._fold(counts, states, map(itemgetter(1), merged),
                            map(itemgetter(2), merged)
                            if aggregate._stateful else None)
        else:
            # group key -> [first merge key, the key as shown, row count,
            # states].  Equal keys can differ in what they show (-0.0 and
            # 0.0): the group shows its first row's, as on the single node.
            groups: dict[Any, list] = {}
            partial_merges = 0
            for fragment in fragments:
                for key, theirs in fragment.groups.items():
                    entry = groups.get(key)
                    if entry is None:
                        groups[key] = theirs
                        continue
                    if theirs[0] < entry[0]:
                        entry[0], entry[1] = theirs[0], theirs[1]
                    entry[2] += theirs[2]
                    for mine, state in zip(islice(entry, 3, None),
                                           islice(theirs, 3, None)):
                        mine.merge_partial(state.partial_state())
                    partial_merges += len(aggregate.aggregates)
            self._count(partial_merges=partial_merges)
            for entry in sorted(groups.values(), key=itemgetter(0)):
                counts[entry[1]] = entry[2]
                states[entry[1]] = entry[3:]
        self._count(groups_merged=len(counts))
        return aggregate._emit_groups(counts, states)

    # -- spatial scatter (the cone-search path) -----------------------------

    def cone_candidate_rows(self, ranges) -> list[dict[str, Any]]:
        """PhotoObj rows in any HTM cover range, pruned to covering shards.

        The placement metadata (HTM ranges directly; declination zones
        via per-shard statistics) prunes the scatter; each surviving
        shard answers through its own htmID index.
        """
        from ..skyserver.spatial import _candidate_rows
        from .shard import prune_with_statistics

        release = self.cluster.release
        placement = release.placement("PhotoObj")
        candidates = set(range(release.shard_count))
        spans = [(r.low, r.high) for r in ranges]
        if placement is not None and placement.column == "htmid":
            candidates &= placement.prune_ranges(spans)
        # A shard survives when ANY cover span intersects its (fresh)
        # htmID statistics; prune_with_statistics keeps shards with
        # stale or missing statistics conservatively.
        stats_survivors: set[int] = set()
        for low, high in spans:
            stats_survivors |= prune_with_statistics(
                release, "PhotoObj", "htmid", low, high)
            if candidates <= stats_survivors:
                break
        surviving = candidates & stats_survivors
        self._count(fragments_executed=len(surviving),
                    fragments_pruned=release.shard_count - len(surviving))
        rows: list[dict[str, Any]] = []
        for shard_id in sorted(surviving):
            shard = release.shards[shard_id]
            with shard.table("PhotoObj").lock.read():
                rows.extend(_candidate_rows(shard.database, ranges))
        return rows

    # -- explain -----------------------------------------------------------

    def explain_plan(self, plan: ClusterPlan,
                     variables: Optional[dict[str, Any]] = None) -> str:
        evaluation = self.cluster.coordinator.evaluation_context(variables or {})
        lines: list[str] = []
        if isinstance(plan, FallbackPlan):
            return f"Gather (fallback: {plan.reason})"
        relations = plan.relations
        survivors = set(range(self.cluster.shard_count))
        for relation in relations:
            survivors &= candidate_shards(self.cluster, relation, evaluation)
        pruned = self.cluster.shard_count - len(survivors)
        order = ("index" if relations[0].access.ordered_by_index
                 else "sequence")
        lines.append(f"Merge [order={order}] "
                     f"(shards={self.cluster.shard_count}, "
                     f"fragments={len(survivors)}, pruned={pruned})")
        if plan.is_aggregate:
            aggregates = ", ".join(a.sql() for a in plan.aggregate.aggregates)
            mode = "Partial" if plan.aggregate_mode == "partial" else "Ordered"
            lines.append(f"  {mode} Aggregate {aggregates}")
        top = plan.operator(TopOp)
        if top is not None:
            lines.append(f"  Top {top.count} (re-sorted at coordinator)"
                         if plan.operator(SortOp) else f"  Top {top.count}")
        for shard_id in range(self.cluster.shard_count):
            mark = "" if shard_id in survivors else "  (pruned)"
            if isinstance(plan, SingleTablePlan):
                relation = plan.relation
                where = (f" WHERE {relation.access.predicate.sql()}"
                         if relation.access.predicate is not None else "")
                lines.append(f"  Shard[{shard_id}] {relation.access.describe()} "
                             f"{relation.table_name} AS {relation.binding}"
                             f"{where}{mark}")
            else:
                keys = ", ".join(
                    f"{d.sql()} = {i.sql()}"
                    for d, i in zip(plan.drive_keys, plan.inner_keys))
                lines.append(
                    f"  Shard[{shard_id}] Co-partitioned {plan.strategy} join "
                    f"{plan.drive.table_name} AS {plan.drive.binding} "
                    f"[{plan.drive.access.describe()}] ⋈ "
                    f"{plan.inner.table_name} AS {plan.inner.binding} "
                    f"ON {keys}{mark}")
        return "\n".join(lines)

    # -- introspection ------------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        with self._mutex:
            return {
                "queries": {
                    "distributed": self.distributed_queries,
                    "copartitioned_joins": self.copartitioned_queries,
                    "fallback": self.fallback_queries,
                },
                "fragments": {
                    "executed": self.fragments_executed,
                    "pruned": self.fragments_pruned,
                },
                "merge": {
                    "rows_merged": self.rows_merged,
                    "groups_merged": self.groups_merged,
                    "partial_merges": self.partial_merges,
                    "ordered_aggregate_gathers": self.ordered_aggregate_gathers,
                    "topn_resorts": self.topn_resorts,
                },
                "simulated_io_seconds": round(self.simulated_io_seconds, 6),
            }


# ---------------------------------------------------------------------------
# Batch fragment helpers
# ---------------------------------------------------------------------------

def _compiled(context: ExecutionContext, node: PhysicalOperator) -> _BatchInput:
    """``node`` compiled as a batch input.  A shard's tables are column
    stores, so every scan, seek and join over them is a batch shape."""
    return _batch_input(context, batch_shape(node))


def _join_tags(drive_tags: _Tags) -> _Tags:
    """Merge keys of join output positions: the drive row's merge key
    plus the match's ordinal among that drive row's matches.  A drive
    row's matches are all on its shard, so the ordinal totally orders
    them across the cluster."""

    def tags(batch: JoinBatch, positions: Sequence[int]) -> list[tuple]:
        probe_positions = batch.probe_positions
        ordinals = _match_ordinals(probe_positions)
        return drive_tags(batch.probe,
                          [probe_positions[position] for position in positions],
                          [ordinals[position] for position in positions])
    return tags


def _match_ordinals(probe_positions: Sequence[int]) -> list[int]:
    """Each join output position's ordinal among its probe row's matches
    (a probe row's matches are adjacent)."""
    ordinals = []
    previous, ordinal = None, 0
    for position in probe_positions:
        ordinal = ordinal + 1 if position == previous else 0
        previous = position
        ordinals.append(ordinal)
    return ordinals


def _null_signature(shard, relations: Sequence[FragmentRelation]) -> tuple:
    """Which of the columns the fragment reads hold NULLs on this shard:
    the one fact of a shard's data its vector compiles depend on, so
    fragments with equal signatures share them."""
    flags: list[bool] = []
    for relation in relations:
        table = shard.table(relation.table_name)
        columns = relation.columns
        if columns is None:
            columns = table.row_keys
        null_count = table.storage.column_null_count
        flags.extend([null_count(column) > 0 for column in columns])
    return tuple(flags)


def _star_keys(star: Star, source: _BatchInput,
               layout: Layout) -> list[tuple[str, str]]:
    """(row key, batch key) of each column ``star`` expands to, as the
    single node's projection expands it: the relations' rows in
    ``layout`` order, each in its column order, a row key met twice
    keeping its first."""
    qualifier = (star.qualifier or "").lower()
    keys: dict[str, str] = {}
    for binding, columns in layout:
        if qualifier and qualifier != binding.lower():
            continue
        for column in columns:
            keys.setdefault(column, batch_key(source.schema, binding, column))
    return list(keys.items())


def _star_rows(batch, keys: Sequence[tuple[str, str]]) -> list[dict[str, Any]]:
    """The rows a ``*`` expands to at a batch's selected positions."""
    names = [name for name, _key in keys]
    if all(name == key for name, key in keys):
        return list(batch.rows(names))
    selection = batch.selection
    masks = batch.masks
    return list(row_dicts(names, zip(*[
        column_values(batch.columns[key], masks.get(key), selection,
                      len(selection))
        for _name, key in keys])))


def _star_outputs(names: Sequence[Optional[str]],
                  values: Sequence[list]) -> list[dict[str, Any]]:
    """Output rows of a select list with ``*``, as the single node's
    projection builds them: ``*`` (a None name) adds the columns not yet
    named, an item sets its name."""
    outputs = []
    for row in zip(*values):
        output: dict[str, Any] = {}
        for name, value in zip(names, row):
            if name is None:
                for key, column_value in value.items():
                    output.setdefault(key, column_value)
            else:
                output[name] = value
        outputs.append(output)
    return outputs


def _gather_inputs(rows: list, batches: Iterable, group_fns, argument_fns,
                   tags: _Tags) -> None:
    """An ordered aggregate's shard side: ``(merge key, group key,
    argument values)`` per row, folded at the coordinator in merged
    order.  A group key is :func:`~repro.engine.operators.row_key`'s:
    one grouping column's bare value, else the tuple of the values."""
    for batch in batches:
        selection = batch.selection
        count = len(selection)
        columns = [fn(batch, selection) for fn in group_fns]
        keys = (columns[0] if len(columns) == 1
                else zip(*columns) if columns else repeat((), count))
        values = (zip(*[fn(batch, selection) for fn in argument_fns])
                  if argument_fns else repeat((), count))
        rows.extend(zip(tags(batch, selection), keys, values))


def _fold_groups(groups: dict, stateful, batches: Iterable, group_fns,
                 argument_fns, tags: _Tags) -> None:
    """A grouped partial aggregate's shard side: fold each batch's rows
    into ``groups`` (group key → [its first row's merge key, the key,
    the row count, one state per ``stateful`` aggregate]), keys and
    arguments read column-wise.  A group key is
    :func:`~repro.engine.operators.row_key`'s."""
    single = len(group_fns) == 1
    counts: Counter = Counter()
    states: dict[Any, list[_AggState]] = {}
    first_tags: dict[Any, tuple] = {}
    for batch in batches:
        selection = batch.selection
        key_columns = [fn(batch, selection) for fn in group_fns]
        keys = key_columns[0] if single else zip(*key_columns)
        get = counts.get
        firsts: list[int] = []
        first_keys: list[Any] = []
        if argument_fns:
            values = zip(*[fn(batch, selection) for fn in argument_fns])
            for position, key, row in zip(selection, keys, values):
                count = get(key)
                if count is None:
                    counts[key] = 1
                    firsts.append(position)
                    first_keys.append(key)
                    group = states[key] = [_AggState(aggregate)
                                           for aggregate in stateful]
                else:
                    counts[key] = count + 1
                    group = states[key]
                for state, value in zip(group, row):
                    state.update(value)
        else:
            # Only row counts: count in C, then find each new key's
            # first row (a dict over the reversed rows keeps it).
            first_keys = count_groups(counts, keys)
            if first_keys:
                reverse = (reversed(key_columns[0]) if single else
                           zip(*[column[::-1] for column in key_columns]))
                first = dict(zip(reverse, reversed(selection)))
                firsts = [first[key] for key in first_keys]
        if firsts:
            first_tags.update(zip(first_keys, tags(batch, firsts)))
    for key, count in counts.items():
        groups[key] = [first_tags[key], key, count, *states.get(key, ())]


# ---------------------------------------------------------------------------
# The cluster-aware SQL session
# ---------------------------------------------------------------------------

class _StatementPlan:
    """One SELECT's plan as a :class:`ClusterSession` caches it.

    Either a distributed plan, which :meth:`ClusterExecutor.execute_plan`
    runs, or a fallback: gather the plan's tables into the coordinator,
    then run the coordinator plan (made after the first gather of each
    release) under the read locks of the coordinator's copies.
    """

    __slots__ = ("session", "plan", "versions", "physical", "planned_on")

    def __init__(self, session: "ClusterSession", plan: ClusterPlan):
        self.session = session
        self.plan = plan
        #: Every shard's modification counters of the plan's placed
        #: tables at planning time: the cached plan holds only while
        #: they do.
        self.versions = session._table_versions(plan)
        #: A fallback's coordinator plan, and the release it was made on
        #: (its operators hold that release's index objects).
        self.physical: Optional[PhysicalPlan] = None
        self.planned_on = None

    @contextmanager
    def _gathered(self) -> Iterator[PhysicalPlan]:
        """Gather the fallback's tables and hold their coordinator copies'
        read locks (:meth:`ShardCluster.gathered`); yields the coordinator
        plan, made for the release the copies hold."""
        session = self.session
        names = session.cluster_planner.plan_tables(self.plan)
        with session.cluster.gathered(names) as release:
            if self.physical is None or self.planned_on is not release:
                self.physical = session.planner.plan(self.plan.query)
                self.planned_on = release
            yield self.physical

    def explain(self) -> str:
        plan = self.plan
        if not isinstance(plan, FallbackPlan):
            return self.session.cluster.executor.explain_plan(
                plan, self.session.variables)
        with self._gathered() as physical:
            return (f"Gather (fallback: {plan.reason}) -> coordinator plan:\n"
                    + physical.explain())

    def execute(self, variables: dict[str, Any], *,
                row_limit: Optional[int] = None,
                time_limit_seconds: Optional[float] = None,
                time_operators: bool = False) -> QueryResult:
        executor = self.session.cluster.executor
        if not isinstance(self.plan, FallbackPlan):
            return executor.execute_plan(
                self.plan, variables, row_limit=row_limit,
                time_limit_seconds=time_limit_seconds)
        executor._count(fallback_queries=1)
        with self._gathered() as physical:
            return physical.execute(
                variables, row_limit=row_limit,
                time_limit_seconds=time_limit_seconds,
                time_operators=time_operators)


class ClusterSession(SqlSession):
    """A :class:`~repro.engine.sql.SqlSession` over a cluster.

    The coordinator's session with two differences.  A SELECT's plan is
    a :class:`_StatementPlan`: distributable statements scatter to the
    shards, everything else gathers its tables into the coordinator and
    runs on the unmodified single-node engine.  A cached plan is reused
    only while the coordinator's DDL check and every per-shard version
    of its tables are unchanged, so shard-local DML re-plans it.
    ANALYZE refreshes every shard's statistics (the coordinator's
    snapshots are refreshed only for tables it actually holds, so the
    planner keeps costing against full-data statistics) and clears the
    plan cache.
    """

    def __init__(self, cluster: ShardCluster, *,
                 row_limit: Optional[int] = None,
                 time_limit_seconds: Optional[float] = None):
        super().__init__(cluster.coordinator, row_limit=row_limit,
                         time_limit_seconds=time_limit_seconds)
        self.cluster = cluster
        self.cluster_planner = ClusterPlanner(cluster)

    def _analyze(self, statement: AnalyzeStatement) -> StatementResult:
        names = ([statement.table] if statement.table
                 else sorted(self.cluster.table_keys()))
        analyzed: list[str] = []
        for name in names:
            for node in self.cluster.shards:
                if node.database.has_table(name):
                    node.database.analyze_table(name)
            if (self.database.has_table(name)
                    and (self.cluster.placement(name) is None
                         or self.database.table(name).row_count)):
                self.database.analyze_table(name)
            analyzed.append(name)
        # Fresh statistics can change access-path choices everywhere.
        self.plan_cache.clear()
        return StatementResult(statement, "analyze", value=analyzed)

    def _plan_select(self, query, overrides) -> _StatementPlan:
        plan = self.cluster_planner.plan(query)
        if isinstance(plan, FallbackPlan):
            self.last_plan_source = "fallback"
        return _StatementPlan(self, plan)

    def _table_versions(self, plan: ClusterPlan) -> dict[str, tuple]:
        # A table only the coordinator holds is read in place, so as on
        # one node its plans outlive DML on it.
        return {name: self.cluster.table_versions(name)
                for name in self.cluster_planner.plan_tables(plan)
                if self.cluster.placement(name) is not None}

    def _stale(self, entry) -> bool:
        return super()._stale(entry) or any(
            plan.versions != self._table_versions(plan.plan)
            for plan in entry.plans.values())

    def _record_feedback(self, cache_key, position, entry, plan) -> None:
        """Cluster plans are not observed: a distributed plan has no
        single-node operator tree to compare estimates against."""
