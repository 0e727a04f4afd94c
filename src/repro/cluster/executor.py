"""Scatter-gather execution of cluster plans.

Fragments run on a shared thread pool, one per surviving shard, each
under the shard table's read lock (the same
:mod:`repro.engine.concurrency` discipline the serving pool uses) and
its own :class:`~repro.engine.operators.ExecutionContext`, whose
statistics are the fragment's counters.  A columnar shard scan is the
engine's own batch loop (:meth:`TableScan.batches`; each batch's
``base`` maps its positions back to global sequences), and a
co-partitioned join pushes the engine's
:class:`~repro.engine.operators.RuntimeJoinFilter` over the shard's
build keys into that scan.  A fragment emits rows tagged with a
**merge key** — the global sequence for scans, ``(index key rank…,
sequence)`` for index access paths, plus the inner match ordinal for
joins — and the coordinator k-way merges the shard streams by that
key, which reproduces the single-node engine's emission order
exactly.  Aggregates ship as partial states (COUNT/SUM/MIN/MAX merge
directly; AVG merges as sum+count pairs) with per-group first-seen
tags so merged groups surface in single-node first-seen order;
aggregates whose result is order-sensitive (floating SUM/AVG,
DISTINCT) fall back to gathering the tagged aggregate *inputs* and
folding them in merged order, trading transfer for bit-identical
results; so does a MIN/MAX merge whose shard partials hold NaN or tie
in value but not in representation (``0.0``/``-0.0``), re-run once
its partials show it.  TOP-N re-sorts at the coordinator, DISTINCT
unions in merged order, and anything a fragment cannot express falls
back to the row-path gather executed by the unmodified single-node
engine.

``simulated_scan_mbps`` models the per-shard disk bandwidth of the
paper's scan-bound hardware (Figure 15): each fragment sleeps for the
time its bytes would take to stream off one shard's disks, so the
scatter-gather overlap — the reason to shard at all — shows up in wall
clock even on a single-CPU host.  It is off (None) by default.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

from ..engine.compile import (Layout, VectorCompileError, VectorExpression,
                              compile_expression, merge_layouts, row_keys,
                              table_layout)
from ..engine.errors import QueryLimitExceeded
from ..engine.expressions import Expression, Star
from ..engine.index import key_rank
from ..engine.operators import (OUTPUT_BINDING, ExecutionContext,
                                ExecutionStatistics, PhysicalPlan, QueryResult,
                                RuntimeJoinFilter, TableScan, _AggState,
                                _SortKey, _create_table_for_rows,
                                _group_key_name, _hashable, join_key,
                                key_range_row_ids)
from ..engine.concurrency import read_locks
from ..engine.sql import SqlSession
# Bound here, though unused, for the benchmark harness's wrap point
# (ROADMAP item 8 retires those wrap points).
from ..engine.sql import parse_batch  # noqa: F401
from ..engine.sql.ast import AnalyzeStatement
from ..engine.sql.session import StatementResult
from ..engine.types import NULL
from ..telemetry.trace import TRACER
from .planner import (ClusterPlan, ClusterPlanner, CoPartitionedJoinPlan,
                      FallbackPlan, FragmentRelation, SingleTablePlan,
                      candidate_shards)
from .shard import ShardCluster, ShardNode

#: The scan counters a fragment's statistics add to the query's.
_FRAGMENT_COUNTERS = (
    "rows_scanned", "bytes_scanned", "batches_processed", "batch_rows",
    "exprs_compiled", "segments_scanned", "segments_skipped",
    "runtime_filter_segments_pruned", "runtime_filter_rows_pruned",
    "vector_fallbacks")

#: The most pool workers one scatter leases (one per shard below it).
MAX_FRAGMENT_WORKERS = 8


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
        #: Partial aggregation: group key -> [min merge key, [_AggState, ...]].
        self.groups: dict[tuple, list] = {}
        self.statistics = ExecutionStatistics()


def _extremes_tie(plan, fragments: Sequence[_Fragment]) -> bool:
    """True when merging the fragments' partial MIN/MAX states in shard
    order could pick another value than the single node's scan-order
    fold: a partial extreme is NaN (nothing compares below it, so the
    fold keeps whichever NaN or number the scan met first), or two equal
    extremes of one group differ in representation (``0.0``/``-0.0``,
    ``1``/``1.0``: the fold keeps the first the scan met)."""
    positions = [(position, aggregate.func == "min")
                 for position, aggregate in enumerate(plan.aggregates)
                 if aggregate.func in ("min", "max")]
    if not positions or len(fragments) < 2:
        return False
    seen: dict[tuple, Any] = {}
    for fragment in fragments:
        for key, (_tag, states) in fragment.groups.items():
            for position, is_min in positions:
                state = states[position]
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
        #: Shard fragments run on the process-wide shared worker pool,
        #: which every cluster leases from, so several clusters under a
        #: concurrent serving workload cannot oversubscribe the
        #: machine.  The lease asks for one worker per shard, at most
        #: ``MAX_FRAGMENT_WORKERS``.  The engine itself executes each
        #: fragment serially.
        from ..engine.parallel import get_worker_pool

        self._pool = get_worker_pool()
        self._fragment_workers = max(
            1, min(cluster.shard_count, MAX_FRAGMENT_WORKERS))
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
            relations = [plan.relation]
            self._count(distributed_queries=1)
        else:
            assert isinstance(plan, CoPartitionedJoinPlan)
            relations = [plan.drive, plan.inner]
            self._count(copartitioned_queries=1)
        survivors = set(range(release.shard_count))
        for relation in relations:
            survivors &= candidate_shards(release, relation, evaluation)
        pruned = release.shard_count - len(survivors)
        self._count(fragments_pruned=pruned, fragments_executed=len(survivors))
        nodes = [release.shards[shard_id] for shard_id in sorted(survivors)]

        started = time.perf_counter()
        # Fragments run on pool threads where this thread's span stack
        # is invisible — capture the parent span here and pass it
        # across explicitly so per-shard spans join the query's trace.
        tracer = TRACER
        parent_span = tracer.current() if tracer.enabled else None
        with self._pool.lease(self._fragment_workers) as grant:
            fragments = list(grant.ordered_map(
                lambda shard: self._run_fragment(shard, plan, variables,
                                                 parent_span=parent_span),
                nodes))
            if (plan.is_aggregate and plan.aggregate_mode == "partial"
                    and _extremes_tie(plan, fragments)):
                # Partials merge in shard order; the first row's value
                # needs the inputs folded in merged (scan) order.
                plan = dataclasses.replace(plan, aggregate_mode="ordered")
                fragments = list(grant.ordered_map(
                    lambda shard: self._run_fragment(
                        shard, plan, variables, parent_span=parent_span),
                    nodes))

        statistics = ExecutionStatistics()
        for fragment in fragments:
            for name in _FRAGMENT_COUNTERS:
                setattr(statistics, name, getattr(statistics, name)
                        + getattr(fragment.statistics, name))

        if tracer.enabled:
            with tracer.span("merge", parent=parent_span,
                             fragments=len(fragments)) as span:
                if plan.is_aggregate:
                    rows = self._merge_aggregate(plan, fragments, evaluation)
                else:
                    rows = self._merge_rows(plan, fragments)
                span.attributes["rows"] = len(rows)
        elif plan.is_aggregate:
            rows = self._merge_aggregate(plan, fragments, evaluation)
        else:
            rows = self._merge_rows(plan, fragments)
        self._count(rows_merged=len(rows))

        if plan.into:
            table = _create_table_for_rows(self.cluster.coordinator, plan.into,
                                           rows)
            for row in rows:
                table.insert(row, defer_index_sort=True)
            table.rebuild_indexes()
        if row_limit is not None and len(rows) > row_limit:
            raise QueryLimitExceeded(
                f"query exceeded the public row limit of {row_limit} rows",
                limit_kind="rows")
        elapsed = time.perf_counter() - started
        if time_limit_seconds is not None and elapsed > time_limit_seconds:
            raise QueryLimitExceeded(
                f"query exceeded the public time limit of {time_limit_seconds} s",
                limit_kind="time")
        statistics.rows_returned = len(rows)
        statistics.elapsed_seconds = elapsed
        columns = plan.query.output_names() or (
            list(rows[0].keys()) if rows else [])
        frozen_variables = dict(variables) if variables else {}
        handle = ClusterPlanHandle(
            lambda: self.explain_plan(plan, frozen_variables))
        return QueryResult(columns=columns, rows=rows, statistics=statistics,
                           plan=handle)

    # -- fragment execution (runs on the pool, one call per shard) ---------

    def _run_fragment(self, shard: ShardNode, plan: ClusterPlan,
                      variables: dict[str, Any],
                      parent_span=None) -> _Fragment:
        tracer = TRACER
        if tracer.enabled:
            with tracer.span("fragment", parent=parent_span,
                             shard=shard.shard_id) as span:
                fragment = self._run_fragment_inner(shard, plan, variables)
                span.attributes["rows_scanned"] = (
                    fragment.statistics.rows_scanned)
                return fragment
        return self._run_fragment_inner(shard, plan, variables)

    def _run_fragment_inner(self, shard: ShardNode, plan: ClusterPlan,
                            variables: dict[str, Any]) -> _Fragment:
        fragment = _Fragment()
        # The engine's scans account into this context's statistics; the
        # cluster's own per-shard disk model is _simulate_io below.
        context = ExecutionContext(
            shard.database,
            self.cluster.coordinator.evaluation_context(variables),
            statistics=fragment.statistics)
        if isinstance(plan, SingleTablePlan):
            table = shard.table(plan.relation.table_name)
            with table.lock.read():
                self._run_single(shard, plan, context, fragment)
        else:
            assert isinstance(plan, CoPartitionedJoinPlan)
            drive = shard.table(plan.drive.table_name)
            inner = shard.table(plan.inner.table_name)
            with read_locks([drive, inner]):
                self._run_join(shard, plan, context, fragment)
        self._simulate_io(fragment.statistics.bytes_scanned)
        return fragment

    def _simulate_io(self, bytes_scanned: int) -> None:
        if not self.simulated_scan_mbps or bytes_scanned <= 0:
            return
        seconds = bytes_scanned / (self.simulated_scan_mbps * 1.0e6)
        self._count(simulated_io_seconds=seconds)
        time.sleep(seconds)

    # -- single-table fragments -------------------------------------------

    def _run_single(self, shard, plan: SingleTablePlan,
                    context: ExecutionContext, fragment: _Fragment) -> None:
        layout = self._relation_layout(shard, plan.relation)
        if plan.is_aggregate:
            if plan.aggregate_mode == "partial" and self._scalar_vector_aggregate(
                    shard, plan, context, fragment):
                return
            stream = self._iter_single(shard, plan.relation, context)
            self._aggregate_fragment(plan, context, fragment, stream, layout)
            return
        stream = self._iter_single(shard, plan.relation, context)
        self._row_fragment(plan, context, fragment, stream, layout)

    @staticmethod
    def _relation_layout(shard, relation: FragmentRelation) -> Layout:
        return table_layout(shard.table(relation.table_name), relation.binding)

    def _iter_single(self, shard, relation: FragmentRelation,
                     context: ExecutionContext,
                     runtime_filter: Optional[RuntimeJoinFilter] = None
                     ) -> Iterator[tuple[tuple, dict[str, dict[str, Any]]]]:
        """(merge key, binding) pairs in this shard's access-path order.

        A binding is ``{relation.binding: row}`` — the one-alias shape
        of :meth:`_relation_layout`, which every fragment expression is
        compiled against.  Each row holds ``relation.columns``.
        """
        if relation.access.kind == "scan":
            return self._iter_scan(shard, relation, context, runtime_filter)
        return self._iter_index(shard, relation, context)

    def _iter_index(self, shard, relation: FragmentRelation,
                    context: ExecutionContext
                    ) -> Iterator[tuple[tuple, dict[str, dict[str, Any]]]]:
        """An index seek or covering scan, merge-keyed by index key rank."""
        table = shard.table(relation.table_name)
        sequences = shard.sequence_list(relation.table_name)
        access = relation.access
        index = self._find_index(table, access.index_name)
        if index is None:
            # The shard lost the index (dropped after planning).  A scan
            # could not produce the index-rank merge keys the other
            # shards emit, so fail loudly instead of degrading.
            raise RuntimeError(
                f"shard {shard.shard_id} is missing index {access.index_name!r} "
                f"on {relation.table_name}")
        evaluation = context.evaluation
        predicate = (compile_expression(access.predicate, evaluation,
                                        self._relation_layout(shard, relation))
                     if access.predicate is not None else None)
        alias = relation.binding
        columns = relation.columns
        row_bytes = int(table.average_row_bytes())
        row_ids = key_range_row_ids(
            index, access.low, access.high,
            lambda expression: compile_expression(expression, evaluation)({}))
        scanned = 0
        try:
            for row_id in row_ids:
                row = table.get_row(row_id, columns)
                if row is None:
                    continue
                scanned += 1
                binding = {alias: row}
                if predicate is not None and predicate(binding) is not True:
                    continue
                rank = key_rank(index.key_for_row(row))
                yield (rank, sequences[row_id]), binding
        finally:
            # Runs on close() too (a consumer's TOP break), so abandoned
            # scans still account their rows/bytes (and simulated I/O).
            context.statistics.merge_scan(scanned, row_bytes)

    def _iter_scan(self, shard, relation: FragmentRelation,
                   context: ExecutionContext,
                   runtime_filter: Optional[RuntimeJoinFilter] = None
                   ) -> Iterator[tuple[tuple, dict[str, Any]]]:
        """A column store's scan runs the engine's batch loop; a row
        store, or a predicate the vector compiler cannot take, runs
        row-mode, without a runtime filter (as the engine's row-mode
        hash join does)."""
        table = shard.table(relation.table_name)
        sequences = shard.sequence_list(relation.table_name)
        if table.storage.kind == "column":
            compiled = self._batch_scan(table, relation, context)
            if compiled is not None:
                return self._iter_batches(*compiled, sequences, relation,
                                          context, runtime_filter)
        return self._iter_scan_rows(shard, table, sequences, relation, context)

    @staticmethod
    def _batch_scan(table, relation: FragmentRelation,
                    context: ExecutionContext
                    ) -> Optional[tuple[TableScan, Optional[VectorExpression]]]:
        """The engine scan of ``relation`` and its vector predicate, or
        None when the predicate does not vector-compile."""
        scan = TableScan(table, relation.binding, relation.access.predicate,
                         columns=relation.columns)
        if scan.predicate is None:
            return scan, None
        try:
            return scan, context.compile_vector_predicate(
                scan.predicate, table, relation.binding)
        except VectorCompileError:
            return None

    @staticmethod
    def _iter_batches(scan: TableScan,
                      predicate_fn: Optional[VectorExpression],
                      sequences: Sequence[int], relation: FragmentRelation,
                      context: ExecutionContext,
                      runtime_filter: Optional[RuntimeJoinFilter]
                      ) -> Iterator[tuple[tuple, dict[str, Any]]]:
        """Survivor bindings of the engine's batch scan, keyed by sequence."""
        names = (list(scan.table.row_keys) if relation.columns is None
                 else relation.columns)
        alias = relation.binding
        for batch in scan.batches(context, predicate_fn,
                                  runtime_filter=runtime_filter):
            base = batch.base
            for position, row in zip(batch.selection, batch.rows(names)):
                yield (sequences[base + position],), {alias: row}

    def _iter_scan_rows(self, shard, table, sequences: Sequence[int],
                        relation: FragmentRelation, context: ExecutionContext
                        ) -> Iterator[tuple[tuple, dict[str, Any]]]:
        predicate_expr = relation.access.predicate
        row_bytes = int(table.average_row_bytes())
        scanned = 0
        predicate = (compile_expression(predicate_expr, context.evaluation,
                                        self._relation_layout(shard, relation))
                     if predicate_expr is not None else None)
        alias = relation.binding
        try:
            for row_id, row in table.storage.iter_rows(relation.columns):
                scanned += 1
                binding = {alias: row}
                if predicate is not None and predicate(binding) is not True:
                    continue
                yield (sequences[row_id],), binding
        finally:
            context.statistics.merge_scan(scanned, row_bytes)

    # -- join fragments ----------------------------------------------------

    def _run_join(self, shard, plan: CoPartitionedJoinPlan,
                  context: ExecutionContext, fragment: _Fragment) -> None:
        layout = merge_layouts(self._relation_layout(shard, plan.drive),
                               self._relation_layout(shard, plan.inner))
        stream = self._iter_join(shard, plan, context, layout)
        if plan.is_aggregate:
            self._aggregate_fragment(plan, context, fragment, stream, layout)
        else:
            self._row_fragment(plan, context, fragment, stream, layout)

    def _iter_join(self, shard, plan: CoPartitionedJoinPlan,
                   context: ExecutionContext,
                   layout: Layout) -> Iterator[tuple[tuple, dict]]:
        """(merge key, drive+inner binding) in single-node join order.

        The inner side is hashed (bucket lists in the inner access-path
        order, matching the single-node build order); the drive side
        streams in its access order, and each drive row's matches append
        the match ordinal to the merge key — matches for one drive row
        are always shard-local under co-partitioning, so the ordinal
        totally orders them across the cluster.
        """
        evaluation = context.evaluation
        inner_layout = self._relation_layout(shard, plan.inner)
        inner_key = join_key([compile_expression(expression, evaluation, inner_layout)
                              for expression in plan.inner_keys])
        hash_table: dict[Any, list[dict[str, dict[str, Any]]]] = {}
        for _tag, binding in self._iter_single(shard, plan.inner, context):
            key = inner_key(binding)
            if key is NULL:
                continue
            bucket = hash_table.get(key)
            if bucket is None:
                hash_table[key] = [binding]
            else:
                bucket.append(binding)
        drive_layout = self._relation_layout(shard, plan.drive)
        drive_key = join_key([compile_expression(expression, evaluation, drive_layout)
                              for expression in plan.drive_keys])
        residual = (compile_expression(plan.residual, evaluation, layout)
                    if plan.residual is not None else None)
        runtime_filter = self._shard_join_filter(shard, plan, context,
                                                 hash_table)
        drive_stream = self._iter_single(shard, plan.drive, context,
                                         runtime_filter)
        try:
            for drive_tag, drive_binding in drive_stream:
                key = drive_key(drive_binding)
                if key is NULL:
                    continue
                bucket = hash_table.get(key)
                if bucket is None:
                    continue
                for ordinal, inner_binding in enumerate(bucket):
                    merged = {**drive_binding, **inner_binding}
                    if residual is not None and residual(merged) is not True:
                        continue
                    yield drive_tag + (ordinal,), merged
        finally:
            drive_stream.close()

    @staticmethod
    def _shard_join_filter(shard, plan: CoPartitionedJoinPlan,
                           context: ExecutionContext, hash_table: dict
                           ) -> Optional[RuntimeJoinFilter]:
        """The engine's runtime filter over the shard's finished build.

        Co-partitioning makes the shard's own build keys the whole truth
        for its drive rows.  Pushed when the engine planner enables
        runtime filters (``plan.runtime_filter_enabled``) and the drive
        side is a columnar scan with a single key that vector-compiles.
        """
        table = shard.table(plan.drive.table_name)
        if (not plan.runtime_filter_enabled or len(plan.drive_keys) != 1
                or plan.drive.access.kind != "scan"
                or table.storage.kind != "column"):
            return None
        try:
            key_fn, _tag = context.compile_vector_projection(
                plan.drive_keys[0], table, plan.drive.binding)
        except VectorCompileError:
            return None
        return RuntimeJoinFilter(hash_table.keys(), key_fn, plan.drive_keys[0])

    # -- row fragments (project / sort keys / local TOP) -------------------

    def _row_fragment(self, plan, context: ExecutionContext,
                      fragment: _Fragment,
                      stream: Iterator[tuple[tuple, dict]],
                      layout: Layout) -> None:
        evaluation = context.evaluation
        try:
            items: list[tuple[Optional[str], Optional[Any], Optional[Star]]] = []
            for position, item in enumerate(plan.select):
                if isinstance(item.expression, Star):
                    items.append((None, None, item.expression))
                else:
                    items.append((item.output_name(position),
                                  compile_expression(item.expression, evaluation,
                                                     layout),
                                  None))
            sort_fns = [(compile_expression(expression, evaluation, layout),
                         descending)
                        for expression, descending in plan.order_by]
            local_top = (plan.top if not plan.order_by and not plan.distinct
                         else None)
            produced = 0
            for tag, binding in stream:
                output: dict[str, Any] = {}
                for name, fn, star in items:
                    if star is not None:
                        self._expand_star(star, binding, output)
                    else:
                        output[name] = fn(binding)
                sort_values = ([_SortKey(fn(binding), descending)
                                for fn, descending in sort_fns]
                               if sort_fns else None)
                fragment.rows.append((tag, sort_values, output))
                produced += 1
                if local_top is not None and produced >= local_top:
                    break
        finally:
            # A TOP break above abandons the scan generators mid-flight;
            # closing runs their finally blocks, which flush the
            # row-mode scans' rows/bytes scanned.
            stream.close()

    @staticmethod
    def _expand_star(star: Star, binding: dict[str, dict[str, Any]],
                     output: dict[str, Any]) -> None:
        qualifier = (star.qualifier or "").lower()
        for alias, row in binding.items():
            if qualifier and qualifier != alias:
                continue
            for column, value in row.items():
                output.setdefault(column, value)

    # -- aggregate fragments ----------------------------------------------

    def _aggregate_fragment(self, plan, context: ExecutionContext,
                            fragment: _Fragment,
                            stream: Iterator[tuple[tuple, dict]],
                            layout: Layout) -> None:
        evaluation = context.evaluation
        try:
            group_fns = [compile_expression(expression, evaluation, layout)
                         for expression in plan.group_by]
            argument_fns = [compile_expression(aggregate.argument, evaluation,
                                               layout)
                            if aggregate.argument is not None else None
                            for aggregate in plan.aggregates]
            if plan.aggregate_mode == "ordered":
                for tag, binding in stream:
                    key = tuple([fn(binding) for fn in group_fns])
                    values = tuple([fn(binding) if fn is not None else 1
                                    for fn in argument_fns])
                    fragment.rows.append((tag, key, values))
                return
            groups = fragment.groups
            for tag, binding in stream:
                key = tuple([fn(binding) for fn in group_fns])
                entry = groups.get(key)
                if entry is None:
                    entry = [tag, [_AggState(aggregate)
                                   for aggregate in plan.aggregates]]
                    groups[key] = entry
                for state, fn in zip(entry[1], argument_fns):
                    state.update(fn(binding) if fn is not None else 1)
        finally:
            stream.close()

    def _scalar_vector_aggregate(self, shard, plan: SingleTablePlan,
                                 context: ExecutionContext,
                                 fragment: _Fragment) -> bool:
        """Batch fast path: scalar aggregates over a columnar scan."""
        relation = plan.relation
        table = shard.table(relation.table_name)
        if (plan.group_by or relation.access.kind != "scan"
                or table.storage.kind != "column"
                or any(aggregate.distinct for aggregate in plan.aggregates)):
            return False
        compiled = self._batch_scan(table, relation, context)
        if compiled is None:
            return False
        try:
            argument_fns = [
                context.compile_vector_projection(aggregate.argument, table,
                                                  relation.binding)
                if aggregate.argument is not None else (None, None)
                for aggregate in plan.aggregates]
        except VectorCompileError:
            return False
        states = [_AggState(aggregate) for aggregate in plan.aggregates]
        scan, predicate_fn = compiled
        for batch in scan.batches(context, predicate_fn):
            selection = batch.selection
            if not selection:
                continue
            for state, (fn, tag) in zip(states, argument_fns):
                if fn is None:
                    state.update_count(len(selection))
                else:
                    state.update_batch(fn(batch, selection), tag)
        if any(state.count for state in states):
            fragment.groups[()] = [(0,), states]
        return True

    # -- coordinator merges -------------------------------------------------

    def _merge_rows(self, plan, fragments: Sequence[_Fragment]
                    ) -> list[dict[str, Any]]:
        merged = heapq.merge(*[fragment.rows for fragment in fragments],
                             key=lambda entry: entry[0])
        entries = list(merged)
        if plan.order_by:
            # Stable: equal keys keep the merged (single-node) order.
            entries.sort(key=lambda entry: entry[1])
            self._count(topn_resorts=1 if plan.top is not None else 0)
        rows = [entry[2] for entry in entries]
        if plan.distinct:
            rows = _distinct_rows(rows)
        if plan.top is not None:
            rows = rows[:plan.top]
        return rows

    def _merge_aggregate(self, plan, fragments: Sequence[_Fragment],
                         evaluation) -> list[dict[str, Any]]:
        ordered_inputs = any(fragment.rows for fragment in fragments)
        # group key -> [first merge key, the group's key as shown, states].
        # Equal keys can differ in what they show (-0.0 and 0.0): the
        # group shows its first row's, as on the single node.
        groups: dict[tuple, list] = {}
        if ordered_inputs:
            self._count(ordered_aggregate_gathers=1)
            merged = heapq.merge(*[fragment.rows for fragment in fragments],
                                 key=lambda entry: entry[0])
            for tag, key, values in merged:
                entry = groups.get(key)
                if entry is None:
                    entry = [tag, key, [_AggState(aggregate)
                                        for aggregate in plan.aggregates]]
                    groups[key] = entry
                for state, value in zip(entry[2], values):
                    state.update(value)
        else:
            for fragment in fragments:
                for key, (tag, states) in fragment.groups.items():
                    entry = groups.get(key)
                    if entry is None:
                        groups[key] = [tag, key, states]
                        continue
                    if tag < entry[0]:
                        entry[0], entry[1] = tag, key
                    for mine, theirs in zip(entry[2], states):
                        mine.merge_partial(theirs.partial_state())
                        self._count(partial_merges=1)
        if not groups and not plan.group_by:
            # Aggregates over an empty input still produce one row.
            groups[()] = [(0,), (), [_AggState(aggregate)
                                     for aggregate in plan.aggregates]]
        ordered_groups = sorted(groups.values(), key=lambda entry: entry[0])
        self._count(groups_merged=len(ordered_groups))

        # Group rows are bound as the single-node GroupAggregate binds
        # them, so HAVING / ORDER BY / the select list compile against
        # the same one-alias layout (with the projected fallback).
        group_names = [_group_key_name(expression)
                       for expression in plan.group_by]
        result_keys = [aggregate.result_key() for aggregate in plan.aggregates]
        layout = ((OUTPUT_BINDING, row_keys(group_names + result_keys)),)
        groups_out: list[dict[str, dict[str, Any]]] = []
        for _tag, key, states in ordered_groups:
            row: dict[str, Any] = dict(zip(group_names, key))
            for result_key, state in zip(result_keys, states):
                row[result_key] = state.result()
            groups_out.append({OUTPUT_BINDING: row})

        def projected(expression: Expression):
            return compile_expression(expression, evaluation, layout,
                                      projected=True)

        if plan.having is not None:
            having = projected(plan.having)
            groups_out = [group for group in groups_out
                          if having(group) is True]
        if plan.order_by:
            sort_fns = [(projected(expression), descending)
                        for expression, descending in plan.order_by]
            decorated = [([_SortKey(fn(group), descending)
                           for fn, descending in sort_fns], group)
                         for group in groups_out]
            decorated.sort(key=lambda pair: pair[0])
            groups_out = [group for _keys, group in decorated]
            self._count(topn_resorts=1 if plan.top is not None else 0)
        item_fns = [(item.output_name(position), projected(item.expression))
                    for position, item in enumerate(plan.select)]
        outputs = [{name: fn(group) for name, fn in item_fns}
                   for group in groups_out]
        if plan.distinct:
            outputs = _distinct_rows(outputs)
        if plan.top is not None:
            outputs = outputs[:plan.top]
        return outputs

    # -- spatial scatter (the cone-search path) -----------------------------

    def cone_candidate_rows(self, ranges) -> list[dict[str, Any]]:
        """PhotoObj rows in any HTM cover range, pruned to covering shards.

        The placement metadata (HTM ranges directly; declination zones
        via per-shard statistics) prunes the scatter; each surviving
        shard answers through its own htmID index.
        """
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
        with self._pool.lease(self._fragment_workers) as grant:
            for shard_rows in grant.ordered_map(
                    lambda shard: self._shard_candidates(shard, ranges),
                    [release.shards[shard_id] for shard_id in sorted(surviving)]):
                rows.extend(shard_rows)
        return rows

    @staticmethod
    def _shard_candidates(shard: ShardNode, ranges) -> list[dict[str, Any]]:
        from ..skyserver.spatial import _candidate_rows

        table = shard.table("PhotoObj")
        with table.lock.read():
            return list(_candidate_rows(shard.database, ranges))

    # -- explain -----------------------------------------------------------

    def explain_plan(self, plan: ClusterPlan,
                     variables: Optional[dict[str, Any]] = None) -> str:
        evaluation = self.cluster.coordinator.evaluation_context(variables or {})
        lines: list[str] = []
        if isinstance(plan, SingleTablePlan):
            relations = [plan.relation]
        elif isinstance(plan, CoPartitionedJoinPlan):
            relations = [plan.drive, plan.inner]
        else:
            return f"Gather (fallback: {plan.reason})"
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
            aggregates = ", ".join(a.sql() for a in plan.aggregates)
            mode = "Partial" if plan.aggregate_mode == "partial" else "Ordered"
            lines.append(f"  {mode} Aggregate {aggregates}")
        if plan.top is not None:
            lines.append(f"  Top {plan.top} (re-sorted at coordinator)"
                         if plan.order_by else f"  Top {plan.top}")
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

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _find_index(table, name: Optional[str]):
        if name is None:
            return None
        for index_name, index in table.indexes.items():
            if index_name.lower() == name.lower():
                return index
        return None


def _distinct_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """First occurrence wins, in the (merged) input order — DistinctOp's keying."""
    seen: set = set()
    deduplicated: list[dict[str, Any]] = []
    for row in rows:
        key = tuple(sorted((name, _hashable(value))
                           for name, value in row.items()))
        if key in seen:
            continue
        seen.add(key)
        deduplicated.append(row)
    return deduplicated


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
