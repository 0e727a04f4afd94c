"""Physical operators and execution statistics.

Operators follow the iterator (Volcano) model: each operator's
:meth:`PhysicalOperator.rows` yields *bindings* — dictionaries that map
a relation's binding name (its alias) to the current row from that
relation — and :meth:`PhysicalOperator.layout` declares their shape.
Expressions are compiled once per execution against that layout, which
is how qualified references like ``r.fiberMag_r`` and ``g.fiberMag_g``
in the paper's NEO query resolve to the right side of a self-join: the
generated function reads ``b['r']['fibermag_r']`` and never sees a name
again.  (The interpreter, ``execute(compiled=False)``, still resolves
names per row through a :class:`RowScope`; it is the oracle.)

Each operator keeps actual-row counters so EXPLAIN output can show both
the plan shape (Figures 10-12 of the paper) and the observed
cardinalities, and the shared :class:`ExecutionStatistics` accumulates
the logical bytes scanned, which the I/O model converts into
paper-scale elapsed-time estimates.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import ne
from typing import (Any, Callable, ClassVar, Iterable, Iterator, Optional,
                    Sequence)

from .batch import (BATCH_ROWS, ColumnBatch, GatheredBatch, JoinBatch,
                    column_values)
from .catalog import Database
from .compile import (CompiledExpression, Layout, RowCompileError, Schema,
                      VectorCompileError, VectorExpression, batch_key,
                      compile_expression, compile_row_expression,
                      compile_vector_predicate, compile_vector_projection,
                      conjunct_hazards, merge_layouts, row_keys, table_layout)
from .errors import PlanError, UnknownColumnError
from .expressions import (AggregateCall, ColumnRef, EvaluationContext,
                          Expression, RowScope, Star, conjuncts)
from .functions import TableValuedFunction
from .index import BTreeIndex
from .logical import SelectItem
from .segments import compile_zone_predicate, runtime_range_zone
from .table import Table
from .types import NULL, Column, DataType

Binding = dict[str, dict[str, Any]]

#: Binding name under which projected output rows are re-bound for
#: operators that run above the projection (DISTINCT, INTO).
OUTPUT_BINDING = "#output"


@dataclass
class ExecutionStatistics:
    """Counters accumulated across one query execution."""

    rows_scanned: int = 0
    rows_returned: int = 0
    bytes_scanned: int = 0
    index_entries_read: int = 0
    random_lookups: int = 0
    elapsed_seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: Expression trees compiled to functions during this execution.
    exprs_compiled: int = 0
    #: 1 when this execution reused a cached plan / 1 when it had to plan.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Column batches pushed through the vectorized pipeline, and the
    #: rows they carried (zero on row-at-a-time executions).
    batches_processed: int = 0
    batch_rows: int = 0
    #: Sealed segments whose data a batch scan actually touched, and
    #: segments the zone maps let it skip — or answer — without
    #: decoding a single value.
    segments_scanned: int = 0
    segments_skipped: int = 0
    #: Probe-side pruning by runtime join filters (sideways information
    #: passing): sealed segments never read because the build side's
    #: key range proved them matchless, and probe rows whose key the
    #: build does not hold, dropped before materialization.  Both are also
    #: counted in ``segments_skipped`` / reflected in narrower batches;
    #: these attribute the win to the runtime filter specifically.
    runtime_filter_segments_pruned: int = 0
    runtime_filter_rows_pruned: int = 0
    #: Batch predicates and projections compiled to the row-view loop
    #: (one row-mode call per position) instead of a generated loop.
    vector_fallbacks: int = 0

    def merge_scan(self, rows: int, row_bytes: float) -> None:
        self.rows_scanned += rows
        self.bytes_scanned += int(rows * row_bytes)


@dataclass
class ExecutionContext:
    """Everything an operator needs at run time."""

    database: Database
    evaluation: EvaluationContext
    statistics: ExecutionStatistics = field(default_factory=ExecutionStatistics)
    #: When False, operators evaluate expressions through the interpreted
    #: ``Expression.evaluate`` path (the pre-compilation behaviour; kept for
    #: the ablation benchmark and as a safety hatch).
    compile_enabled: bool = True
    #: Vector compiles shared by executions under one evaluation context
    #: over same-schema tables whose read columns hold NULLs alike (the
    #: fragments of one cluster scatter), or None.  A compile depends on
    #: its tables' data only through which of the columns it reads hold
    #: NULLs.  Keyed by ``(id(expression), kind, bindings)``: the caller
    #: keeps the expressions alive while the memo lives.
    vector_memo: ClassVar[Optional[dict]] = None

    def compile(self, expression: Optional[Expression], layout: Layout, *,
                projected: bool = False) -> Optional[CompiledExpression]:
        """Bind an expression to ``layout`` once for this execution.

        The function takes a binding of that layout.  ``projected`` adds
        the select-list / order-key rule (see :func:`evaluate_projected`).
        With compilation off the function wraps the interpreter, which
        resolves names per row through a fresh :class:`RowScope`.
        """
        if expression is None:
            return None
        if not self.compile_enabled:
            evaluation = self.evaluation
            if projected:
                return lambda binding: evaluate_projected(
                    expression, RowScope.from_binding(binding), evaluation)
            return lambda binding: expression.evaluate(
                RowScope.from_binding(binding), evaluation)
        self.statistics.exprs_compiled += 1
        return compile_expression(expression, self.evaluation, layout,
                                  projected=projected)

    def read_columns(self, columns: Optional[Sequence[str]]
                     ) -> Optional[Sequence[str]]:
        """The row keys an access operator fetches: its planned
        ``columns`` on the compiled path, whole rows for the interpreter
        (the oracle the narrowed reads are checked against)."""
        return columns if self.compile_enabled else None

    def compile_row(self, expression: Expression, table: "Table",
                    binding_name: str) -> CompiledExpression:
        """Row-mode compile for the fused scan path (raises RowCompileError).

        Does not touch the ``exprs_compiled`` counter: the caller counts
        once per expression only after the whole fused compilation
        succeeds (a partial attempt falls back and recompiles).
        """
        return compile_row_expression(expression, self.evaluation,
                                      table, binding_name)

    def compile_vector_predicate(self, expression: Expression,
                                 schema: Schema) -> VectorExpression:
        """Vector compile (raises VectorCompileError); counters as compile_row.

        Over one binding the compiled function also carries the
        predicate's *zone form* (``fn.zone_predicate``, None unless the
        expression is analyzable over per-segment zone maps) — scans
        consult it to skip sealed segments before touching their data —
        and ``fn.may_raise``, whether the row path's evaluation of it
        could raise (then no segment may be skipped on a later
        predicate's account).
        """
        memo = self.vector_memo
        key = (id(expression), "predicate", tuple(schema))
        fn = None if memo is None else memo.get(key)
        if fn is None:
            fn = compile_vector_predicate(expression, self.evaluation, schema)
            if len(schema) == 1:
                ((binding_name, table),) = schema.items()
                hazards = [conjunct_hazards(conjunct, self.evaluation, schema)
                           for conjunct in conjuncts(expression)]
                fn.may_raise = any(may_raise for may_raise, _null in hazards)
                fn.zone_predicate = compile_zone_predicate(
                    expression, self.evaluation, table, binding_name, hazards)
            if memo is not None:
                memo[key] = fn
        return self.counted(fn)

    def compile_vector_projection(self, expression: Expression, schema: Schema
                                  ) -> tuple[VectorExpression, Optional[str]]:
        memo = self.vector_memo
        key = (id(expression), "projection", tuple(schema))
        compiled = None if memo is None else memo.get(key)
        if compiled is None:
            compiled = compile_vector_projection(expression, self.evaluation,
                                                 schema)
            if memo is not None:
                memo[key] = compiled
        fn, tag = compiled
        return self.counted(fn), tag

    def counted(self, fn: VectorExpression) -> VectorExpression:
        """``fn``, counted in ``vector_fallbacks`` when it is a row-view loop."""
        if getattr(fn, "row_fallback", False):
            self.statistics.vector_fallbacks += 1
        return fn


class PhysicalOperator:
    """Base class for all physical operators."""

    label = "Operator"

    #: Set by the planner on operators it placed in a vectorized
    #: (batch-at-a-time) pipeline; execution re-verifies at run time and
    #: silently falls back to the row path when the chain no longer
    #: qualifies (e.g. the table's storage layout changed).
    vectorized = False

    #: Cardinality/cost estimates assigned by the cost-based optimizer
    #: (None/0.0 when the planner ran without the cost model).  EXPLAIN
    #: prefers ``planner_rows`` over the operator's own heuristic.
    planner_rows: Optional[int] = None
    planner_cost: float = 0.0

    def __init__(self) -> None:
        self.actual_rows = 0
        #: Inclusive wall-clock seconds spent producing this operator's
        #: rows, populated only when the plan executed with
        #: ``time_operators=True`` (EXPLAIN ANALYZE).
        self.actual_seconds = 0.0

    def set_estimates(self, rows: Optional[int] = None,
                      cost: Optional[float] = None) -> None:
        """Record the optimizer's cardinality and cost estimates."""
        if rows is not None:
            self.planner_rows = max(1, int(rows))
        if cost is not None:
            self.planner_cost = float(cost)

    def scale_rows(self, child_rows: int) -> int:
        """This operator's output cardinality given its child's.

        The single source of each operator's row-scaling heuristic:
        ``estimated_rows`` applies it to the child's own estimate and
        the cost propagation applies it to the optimizer-corrected
        child estimate.
        """
        return child_rows

    def mark_batch_mode(self) -> None:
        """Planner hook: flag this operator vectorized and label it for EXPLAIN."""
        self.vectorized = True
        if not self.label.startswith("Batch "):
            self.label = f"Batch {self.label}"

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        raise NotImplementedError

    def layout(self) -> Layout:
        """The shape of the bindings :meth:`rows` yields (alias → row keys).

        Consumers bind their expressions to it once per execution.  The
        default suits every operator that passes its only child's
        bindings through (filter, sort, top, distinct, insert).
        """
        (child,) = self.children()
        return child.layout()

    def children(self) -> Sequence["PhysicalOperator"]:
        return ()

    def row_inputs(self) -> Sequence["PhysicalOperator"]:
        """The children this operator's row path reads through
        :func:`input_rows` — each consumed once, start to end, so a
        batch chain can feed it."""
        return ()

    def details(self) -> str:
        return ""

    def estimated_rows(self) -> int:
        """The heuristic cardinality EXPLAIN shows where the planner set
        no ``planner_rows`` (``enable_cbo=False``): an operator with one
        child scales the child's; leaves and joins override it."""
        (child,) = self.children()
        return self.scale_rows(child.estimated_rows())

    def _emit(self, binding: Binding) -> Binding:
        self.actual_rows += 1
        return binding


# ---------------------------------------------------------------------------
# Leaf operators: scans
# ---------------------------------------------------------------------------

class TableScan(PhysicalOperator):
    """Full sequential scan of a base table, with an optional pushed-down filter.

    ``columns`` — on this and every other access operator — are the
    lower-cased row keys the plan references on the relation (None: a
    ``*`` needs whole rows).  Row-mode reads fetch only those
    (:meth:`~repro.engine.storage.TableStorage.get`), so a column store
    builds four-key dicts for a query that touches four columns.
    """

    label = "Table Scan"

    #: Planner toggle: consult per-segment zone maps so compiled
    #: predicates can skip sealed segments they prove empty
    #: (``Planner(enable_zone_maps=False)`` clears it for the ablation
    #: benchmark).  Zone maps are conservative — a segment is only
    #: skipped when no live row in it could possibly match.
    use_zone_maps = True

    def __init__(self, table: Table, binding_name: str,
                 predicate: Optional[Expression] = None, *,
                 columns: Optional[Sequence[str]] = None):
        super().__init__()
        self.table = table
        self.binding_name = binding_name
        self.predicate = predicate
        self.columns = columns
        #: Per-run segment counters for EXPLAIN ANALYZE
        #: (``segments=<scanned>/<total> skipped=<n>``).
        self.actual_segments_scanned = 0
        self.actual_segments_skipped = 0
        #: How much of the above a *runtime* join filter contributed
        #: (also in the totals; kept apart so cardinality feedback can
        #: ignore scans whose observed rows a sibling's build pruned).
        self.actual_runtime_segments_pruned = 0
        self.actual_runtime_rows_pruned = 0

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        row_bytes = int(self.table.average_row_bytes())
        statistics = context.statistics
        binding_name = self.binding_name
        predicate = context.compile(self.predicate, self.layout())
        # Counters accumulate in locals and flush once, also when a TOP
        # above stops pulling and closes this generator.
        scanned = emitted = 0
        try:
            for row in self.table.storage.iter_dicts(context.read_columns(self.columns)):
                scanned += 1
                binding = {binding_name: row}
                if predicate is not None and predicate(binding) is not True:
                    continue
                emitted += 1
                yield binding
        finally:
            statistics.rows_scanned += scanned
            statistics.bytes_scanned += scanned * row_bytes
            self.actual_rows += emitted

    def layout(self) -> Layout:
        return table_layout(self.table, self.binding_name)

    def batches(self, context: ExecutionContext,
                predicate_fn: Optional[VectorExpression] = None,
                filter_fns: Sequence[VectorExpression] = (),
                runtime_filter: Optional["RuntimeJoinFilter"] = None,
                answer: Optional[Callable[[Any], bool]] = None
                ) -> Iterator[ColumnBatch]:
        """Columnar scan: yield :class:`ColumnBatch` chunks of live rows.

        ``predicate_fn`` is the pre-compiled vector form of
        :attr:`predicate` (the pipeline driver compiles the whole chain
        before pulling the first batch).  The scan walks the storage's
        scan units — one per sealed segment plus the append tail — so
        sealed segments whose zone maps prove the predicate can never
        match are skipped before any column is decoded, and equality
        predicates over a dictionary-encoded column filter by code.
        ``filter_fns`` are the vector predicates of the filters stacked
        above the scan (scan-upward); their zone forms extend the skip
        test (see :func:`_zone_predicates`).  ``runtime_filter`` is a
        finished hash-join build's :class:`RuntimeJoinFilter`: segments
        its key range disproves are skipped like zone misses and,
        after the scan predicate, surviving rows keep only probe keys
        the build holds.  The join looks keys up after every predicate,
        so each step runs early only past predicates that cannot raise
        (:func:`_may_raise`).  Statistics account exactly as the row
        path for every unit actually scanned, pass or fail; skipped
        segments contribute no rows.  Each batch carries its unit's
        ``base`` row id.

        ``answer`` lets a consumer take a sealed segment from its zone
        maps instead of its rows: it is asked about each segment
        without tombstones whose every predicate's zone form proves
        *all* its rows match, and returns True when it took the
        segment (which then counts as skipped, its rows as the scan's
        output).  No raise rule applies there: a row that matches
        every predicate raised on none of them.
        """
        storage = self.table.storage
        statistics = context.statistics
        row_bytes = int(self.table.average_row_bytes())
        binding_name = self.binding_name
        zone_fns = _zone_predicates(self.use_zone_maps, predicate_fn, *filter_fns)
        if runtime_filter is not None and _may_raise(*filter_fns):
            runtime_filter = None       # its row test runs before the filters
        prune_segments = runtime_filter is not None and not _may_raise(predicate_fn)
        if not self.use_zone_maps:
            answer = None
        match_fns = [getattr(fn, "zone_predicate", None)
                     for fn in (predicate_fn, *filter_fns) if fn is not None]
        for unit in storage.scan_units():
            segment = unit.segment
            if segment is not None and zone_fns and _zone_skips(zone_fns,
                                                                segment):
                statistics.segments_skipped += 1
                self.actual_segments_skipped += 1
                continue
            if (segment is not None and answer is not None
                    and segment.tombstones == 0
                    and all(zone_fn is not None and zone_fn(segment)[1]
                            for zone_fn in match_fns)
                    and answer(segment)):
                statistics.segments_skipped += 1
                self.actual_segments_skipped += 1
                self.actual_rows += segment.rows
                continue
            if (segment is not None and prune_segments
                    and runtime_filter.prunes_segment(segment)):
                runtime_filter.note_segment(statistics, self)
                continue
            selection = unit.selection()
            if not selection:
                continue
            if segment is not None:
                statistics.segments_scanned += 1
                self.actual_segments_scanned += 1
            statistics.rows_scanned += len(selection)
            statistics.bytes_scanned += len(selection) * row_bytes
            statistics.batches_processed += 1
            statistics.batch_rows += len(selection)
            batch = ColumnBatch(unit.columns(), unit.masks(), selection,
                                binding_name, unit.base)
            if predicate_fn is not None:
                batch.selection = _apply_scan_predicate(predicate_fn, batch,
                                                        selection, segment)
            self.actual_rows += len(batch.selection)
            if runtime_filter is not None and batch.selection:
                kept = runtime_filter.filter_rows(batch, batch.selection)
                runtime_filter.note_rows(statistics, self,
                                         len(batch.selection) - len(kept))
                batch.selection = kept
            yield batch

    def details(self) -> str:
        where = f" WHERE {self.predicate.sql()}" if self.predicate is not None else ""
        return f"{self.table.name} AS {self.binding_name}{where}"

    def estimated_rows(self) -> int:
        return self.table.row_count


class CoveringIndexScan(PhysicalOperator):
    """Scan of an index whose columns cover the query (the paper's tag-table substitute).

    Index entries hold only a key and a row id, so every row is still
    fetched with ``get_row`` (just its ``columns``); what is narrow is
    the accounting —
    ``bytes_scanned`` charges the entry width rather than the ~2 KB
    PhotoObj row, §9.1.3's byte model for its ten-to-one-hundred-fold
    sequential-scan speedup.

    ``low``/``high`` (key-prefix bound expressions, as on
    :class:`IndexRangeScan`) are §9.1.3's other half: the index's
    clustering limits the walk "to just one part of the object space".
    The predicate keeps every local conjunct, the bounding ones
    included, so the output is the full scan's — entries inside the
    range in key order, every one outside it failing the predicate —
    and only the scan counters shrink (see :func:`key_range_row_ids`).
    The planner bounds a scan only when no conjunct can raise
    (:func:`repro.engine.planner.covering_scan_bounds`), so a skipped
    row cannot hide an error the full scan would meet.
    """

    label = "Covering Index Scan"

    def __init__(self, index: BTreeIndex, binding_name: str,
                 predicate: Optional[Expression] = None, *,
                 low: Optional[Sequence[Expression]] = None,
                 high: Optional[Sequence[Expression]] = None,
                 columns: Optional[Sequence[str]] = None):
        super().__init__()
        self.index = index
        self.binding_name = binding_name
        self.predicate = predicate
        self.low = low
        self.high = high
        self.columns = columns

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        statistics = context.statistics
        entry_bytes = self.index.entry_byte_width()
        table = self.index.table
        binding_name = self.binding_name
        columns = context.read_columns(self.columns)
        predicate = context.compile(self.predicate, self.layout())
        row_ids = key_range_row_ids(
            self.index, self.low, self.high,
            lambda expression: context.compile(expression, ())({}))
        scanned = emitted = 0
        try:
            for row_id in row_ids:
                row = table.get_row(row_id, columns)
                if row is None:
                    continue
                scanned += 1
                binding = {binding_name: row}
                if predicate is not None and predicate(binding) is not True:
                    continue
                emitted += 1
                yield binding
        finally:
            statistics.rows_scanned += scanned
            statistics.bytes_scanned += scanned * entry_bytes
            statistics.index_entries_read += scanned
            self.actual_rows += emitted

    def layout(self) -> Layout:
        return table_layout(self.index.table, self.binding_name)

    def details(self) -> str:
        where = f" WHERE {self.predicate.sql()}" if self.predicate is not None else ""
        bounds = (f" {key_range_text(self.low, self.high)}"
                  if self.low or self.high else "")
        return (f"{self.index.table.name}.{self.index.name} "
                f"({', '.join(self.index.columns)}){bounds} "
                f"AS {self.binding_name}{where}")

    def estimated_rows(self) -> int:
        return self.index.table.row_count


def key_range_row_ids(index: BTreeIndex,
                      low: Optional[Sequence[Expression]],
                      high: Optional[Sequence[Expression]],
                      evaluate: Callable[[Expression], Any]) -> Iterable[int]:
    """Row ids an index seek or a bounded covering scan reads, in key order.

    The bounds are evaluated once with ``evaluate`` and the walk goes
    through :meth:`BTreeIndex.range_or_scan`, which reads the whole
    index for a bound that does not rank (NULL, NaN, a string against
    a numeric key) or an index holding a NaN key — so the caller's
    filter must keep the conjuncts the bounds came from.
    """
    bounds = key_range_bounds(index, low, high, evaluate)
    return index.scan() if bounds is None else index.range(*bounds)


def key_range_bounds(index: BTreeIndex,
                     low: Optional[Sequence[Expression]],
                     high: Optional[Sequence[Expression]],
                     evaluate: Callable[[Expression], Any]
                     ) -> Optional[tuple[Optional[list], Optional[list]]]:
    """The evaluated ``(low, high)`` that :func:`key_range_row_ids` walks
    as a key range, or None when it walks the whole index.  Walks
    nothing, so no index counter moves."""
    if low is None and high is None:
        return None
    low_values = [evaluate(expression) for expression in low or ()] or None
    high_values = [evaluate(expression) for expression in high or ()] or None
    if index.ranks(low_values, high_values):
        return low_values, high_values
    return None


def key_range_text(low: Optional[Sequence[Expression]],
                   high: Optional[Sequence[Expression]]) -> str:
    """EXPLAIN's ``range [low]..[high]`` for key-prefix bound expressions."""
    low_text = "[" + ", ".join(e.sql() for e in low) + "]" if low else "-inf"
    high_text = "[" + ", ".join(e.sql() for e in high) + "]" if high else "+inf"
    return f"range {low_text}..{high_text}"


class IndexRangeScan(PhysicalOperator):
    """Range (or equality) seek on an index, filtered by every local
    conjunct (the bounding ones too: see :func:`key_range_row_ids`) —
    except, when the walk is the key range itself, those the range
    implies (``range_predicate``: the planner's
    :func:`~repro.engine.planner.range_implied`)."""

    label = "Index Seek"

    def __init__(self, index: BTreeIndex, binding_name: str,
                 low: Optional[Sequence[Expression]], high: Optional[Sequence[Expression]],
                 predicate: Optional[Expression] = None,
                 estimated: int = 0, covering: bool = False,
                 columns: Optional[Sequence[str]] = None, *,
                 range_predicate: Optional[Expression]):
        super().__init__()
        self.index = index
        self.binding_name = binding_name
        self.low = list(low) if low is not None else None
        self.high = list(high) if high is not None else None
        self.predicate = predicate
        self.range_predicate = range_predicate
        self._estimated = estimated
        self.covering = covering
        self.columns = columns

    def seek_bounds(self, context: ExecutionContext
                    ) -> tuple[Optional[tuple], Optional[Expression]]:
        """This execution's evaluated key range (:func:`key_range_bounds`;
        None: the whole index) and the filter the rows it walks need."""
        bounds = key_range_bounds(
            self.index, self.low, self.high,
            lambda expression: context.compile(expression, ())({}))
        return bounds, self.predicate if bounds is None else self.range_predicate

    def walk(self, bounds: Optional[tuple]) -> Iterable[int]:
        """The row ids of a :meth:`seek_bounds` range, in index order."""
        return self.index.scan() if bounds is None else self.index.range(*bounds)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        statistics = context.statistics
        table = self.index.table
        row_bytes = int(self.index.entry_byte_width() if self.covering
                        else table.average_row_bytes())
        covering = self.covering
        binding_name = self.binding_name
        columns = context.read_columns(self.columns)
        bounds, filter_expression = self.seek_bounds(context)
        predicate = context.compile(filter_expression, self.layout())
        scanned = emitted = 0
        try:
            for row_id in self.walk(bounds):
                row = table.get_row(row_id, columns)
                if row is None:
                    continue
                scanned += 1
                binding = {binding_name: row}
                if predicate is not None and predicate(binding) is not True:
                    continue
                emitted += 1
                yield binding
        finally:
            statistics.rows_scanned += scanned
            statistics.bytes_scanned += scanned * row_bytes
            statistics.index_entries_read += scanned
            if not covering:
                statistics.random_lookups += scanned
            self.actual_rows += emitted

    @property
    def table(self) -> Table:
        return self.index.table

    def batches(self, context: ExecutionContext, bounds: Optional[tuple],
                predicate_fn: Optional[VectorExpression] = None
                ) -> Iterator[ColumnBatch]:
        """Columnar seek: the live rows of the :meth:`seek_bounds` range
        ``bounds`` as column batches.

        Rows are in index order, as :meth:`rows` yields them, so a hash
        build over the batches numbers its rows as the row path does.
        Each batch holds up to :data:`~repro.engine.batch.BATCH_ROWS`
        index entries (an empty range is one empty batch), and its
        columns are gathered per row id on first access
        (:meth:`~repro.engine.storage.ColumnStore.gather`), so only the
        columns the pipeline reads are fetched and a point lookup
        decodes no segment.  ``predicate_fn`` is the vector form of the
        walk's filter; statistics account exactly as :meth:`rows`.
        """
        statistics = context.statistics
        table = self.index.table
        covering = self.covering
        row_bytes = int(self.index.entry_byte_width() if covering
                        else table.average_row_bytes())
        entries = iter(self.walk(bounds))
        chunk = list(islice(entries, BATCH_ROWS))
        while True:
            row_ids, columns = table.storage.gather(chunk)
            scanned = len(row_ids)
            statistics.rows_scanned += scanned
            statistics.bytes_scanned += scanned * row_bytes
            statistics.index_entries_read += scanned
            if not covering:
                statistics.random_lookups += scanned
            statistics.batches_processed += 1
            statistics.batch_rows += scanned
            batch = GatheredBatch(columns, {}, list(range(scanned)),
                                  self.binding_name)
            if predicate_fn is not None and scanned:
                batch.selection = predicate_fn(batch, batch.selection)
            self.actual_rows += len(batch.selection)
            yield batch
            chunk = list(islice(entries, BATCH_ROWS))
            if not chunk:
                return

    def layout(self) -> Layout:
        return table_layout(self.index.table, self.binding_name)

    def details(self) -> str:
        where = f" WHERE {self.predicate.sql()}" if self.predicate is not None else ""
        return (f"{self.index.table.name}.{self.index.name} "
                f"{key_range_text(self.low, self.high)} "
                f"AS {self.binding_name}{where}")

    def estimated_rows(self) -> int:
        return self._estimated


class FunctionScan(PhysicalOperator):
    """Scan of a table-valued function's result (Figure 10's outer input)."""

    label = "Table-valued Function"

    def __init__(self, function: TableValuedFunction, args: Sequence[Expression],
                 binding_name: str):
        super().__init__()
        self.function = function
        self.args = list(args)
        self.binding_name = binding_name

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        scope = RowScope()
        values = [argument.evaluate(scope, context.evaluation) for argument in self.args]
        for row in self.function(*values):
            context.statistics.rows_scanned += 1
            yield self._emit({self.binding_name: row})

    def layout(self) -> Layout:
        return ((self.binding_name, self.function.row_keys()),)

    def details(self) -> str:
        args = ", ".join(argument.sql() for argument in self.args)
        return f"{self.function.name}({args}) AS {self.binding_name}"

    def estimated_rows(self) -> int:
        return self.function.row_estimate


class RowSource(PhysicalOperator):
    """An operator over pre-materialised rows (used for subqueries and tests)."""

    label = "Row Source"

    def __init__(self, rows: Iterable[dict[str, Any]], binding_name: str):
        super().__init__()
        self._rows = list(rows)
        self.binding_name = binding_name

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        for row in self._rows:
            yield self._emit({self.binding_name: row})

    def layout(self) -> Layout:
        return ((self.binding_name,
                 row_keys(key for row in self._rows for key in row)),)

    def details(self) -> str:
        return f"{len(self._rows)} rows AS {self.binding_name}"

    def estimated_rows(self) -> int:
        return len(self._rows)


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

class NestedLoopJoin(PhysicalOperator):
    """Naive nested-loop join: re-evaluates the inner operator per outer binding."""

    label = "Nested Loop Join"

    def __init__(self, outer: PhysicalOperator, inner: PhysicalOperator,
                 condition: Optional[Expression] = None):
        super().__init__()
        self.outer = outer
        self.inner = inner
        self.condition = condition

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.outer, self.inner)

    def row_inputs(self) -> Sequence[PhysicalOperator]:
        return (self.outer,)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        condition = context.compile(self.condition, self.layout())
        for outer_binding in input_rows(context, self.outer):
            for inner_binding in self.inner.rows(context):
                merged = {**outer_binding, **inner_binding}
                if condition is not None and condition(merged) is not True:
                    continue
                yield self._emit(merged)

    def layout(self) -> Layout:
        return merge_layouts(self.outer.layout(), self.inner.layout())

    def details(self) -> str:
        return f"ON {self.condition.sql()}" if self.condition is not None else "cross join"

    def estimated_rows(self) -> int:
        return max(self.outer.estimated_rows(), self.inner.estimated_rows())


class IndexNestedLoopJoin(PhysicalOperator):
    """Nested-loop join that probes an index of the inner table per outer row.

    This is the plan of Figure 10: each row from the spatial
    table-valued function probes the PhotoObj primary key.

    With ``outer_high`` the probe is a *range*: ``outer_key[0]`` and
    ``outer_high`` give the inclusive bounds of the index's leading
    column for each outer row (§9.1.4's ``htmID BETWEEN htmIDstart AND
    htmIDend`` against the HTM cover table) and the join reads
    ``index.range(low, high)`` instead of ``index.seek(key)``.  The
    planner keeps the range conjunct in ``residual``, so the probe only
    has to deliver a superset of the matches in index order — which
    makes the output exactly the nested-loop join's over a full scan of
    the same index: outer order × index order within the range.
    ``covering`` (as on :class:`IndexRangeScan`) accounts the narrow
    index entries instead of a bookmark lookup per row.
    ``inner_columns`` are the inner rows' planned ``columns`` (see
    :class:`TableScan`).
    """

    label = "Index Nested Loop Join"

    def __init__(self, outer: PhysicalOperator, inner_table: Table, inner_binding: str,
                 index: BTreeIndex, outer_key: Sequence[Expression],
                 residual: Optional[Expression] = None, *,
                 outer_high: Optional[Expression] = None,
                 covering: bool = False,
                 inner_columns: Optional[Sequence[str]] = None):
        super().__init__()
        self.outer = outer
        self.inner_table = inner_table
        self.inner_binding = inner_binding
        self.index = index
        self.outer_key = list(outer_key)
        self.outer_high = outer_high
        self.covering = covering
        self.residual = residual
        self.inner_columns = inner_columns

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.outer,)

    def row_inputs(self) -> Sequence[PhysicalOperator]:
        return (self.outer,)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        statistics = context.statistics
        covering = self.covering
        row_bytes = int(self.index.entry_byte_width() if covering
                        else self.inner_table.average_row_bytes())
        inner_binding = self.inner_binding
        inner_table = self.inner_table
        inner_columns = context.read_columns(self.inner_columns)
        index = self.index
        outer_layout = self.outer.layout()
        key_fns = [context.compile(expression, outer_layout)
                   for expression in self.outer_key]
        single = len(key_fns) == 1
        high_fn = context.compile(self.outer_high, outer_layout)
        residual = context.compile(self.residual, self.layout())
        scanned = emitted = 0
        try:
            for outer_binding in input_rows(context, self.outer):
                if high_fn is not None:
                    row_ids = _range_probe(index, key_fns[0](outer_binding),
                                           high_fn(outer_binding))
                elif single:
                    key = key_fns[0](outer_binding)
                    if key is NULL:
                        continue        # NULL equals nothing, NULL included
                    row_ids = index.seek((key,))
                else:
                    key = [key_fn(outer_binding) for key_fn in key_fns]
                    if NULL in key:
                        continue
                    row_ids = index.seek(key)
                for row_id in row_ids:
                    row = inner_table.get_row(row_id, inner_columns)
                    if row is None:
                        continue
                    scanned += 1
                    merged = {**outer_binding, inner_binding: row}
                    if residual is not None and residual(merged) is not True:
                        continue
                    emitted += 1
                    yield merged
        finally:
            statistics.rows_scanned += scanned
            statistics.bytes_scanned += scanned * row_bytes
            if covering:
                statistics.index_entries_read += scanned
            else:
                statistics.random_lookups += scanned
            self.actual_rows += emitted

    def layout(self) -> Layout:
        return merge_layouts(self.outer.layout(),
                             table_layout(self.inner_table, self.inner_binding))

    def details(self) -> str:
        key = ", ".join(expression.sql() for expression in self.outer_key)
        residual = f" WHERE {self.residual.sql()}" if self.residual is not None else ""
        target = (f"{self.inner_table.name}.{self.index.name} "
                  f"({', '.join(self.index.columns)})")
        if self.outer_high is not None:
            return (f"range probe {target} BETWEEN ({key}) AND "
                    f"({self.outer_high.sql()}) AS {self.inner_binding}{residual}")
        return f"probe {target} = ({key}) AS {self.inner_binding}{residual}"

    def estimated_rows(self) -> int:
        return self.outer.estimated_rows()


def _range_probe(index: BTreeIndex, low: Any, high: Any) -> Iterable[int]:
    """Row ids a range-probe join considers for one outer row.

    The join's residual re-checks the range conjunct, so this only has
    to be a superset of the matches in index order.  A NULL bound makes
    the conjunct NULL for every row: nothing.  Bounds that do not rank
    like the (numeric) index key cannot seek, so every entry goes to
    the residual (:meth:`BTreeIndex.range_or_scan`) — which then fails
    exactly as a nested-loop join would.
    """
    if low is NULL or high is NULL:
        return ()
    return index.range_or_scan((low,), (high,))


def row_key(key_fns: Sequence[CompiledExpression]) -> CompiledExpression:
    """The hash key of a binding: a single key expression's value itself,
    else the tuple of the values.

    A bare value hashes and compares exactly as its 1-tuple does (dict
    lookups and tuple equality both try identity first), so NULL is one
    group, ``1``/``1.0``/``True`` and ``0.0``/``-0.0`` collide and a NaN
    matches only itself — the single-key path just skips the tuple.
    """
    if len(key_fns) == 1:
        return key_fns[0]
    return lambda binding: tuple([key_fn(binding) for key_fn in key_fns])


def join_key(key_fns: Sequence[CompiledExpression]) -> CompiledExpression:
    """:func:`row_key` for an equi-join: NULL when any part is NULL
    (NULL keys never join)."""
    key = row_key(key_fns)
    if len(key_fns) == 1:
        return key

    def tuple_key(binding: Binding) -> Any:
        parts = key(binding)
        return NULL if any(part is NULL for part in parts) else parts

    return tuple_key


class HashJoin(PhysicalOperator):
    """Equality hash join; builds on the smaller (build) side."""

    label = "Hash Join"

    #: Planner toggle (``Planner(enable_runtime_filters=...)``): once the
    #: batch path's build finishes, push a :class:`RuntimeJoinFilter`
    #: over its keys (a min/max range plus the key set itself) into the
    #: probe-side scan.  It only drops rows the probe's hash lookup
    #: would drop anyway, so results are identical with it on or off.
    runtime_filter_enabled = False

    def __init__(self, build: PhysicalOperator, probe: PhysicalOperator,
                 build_keys: Sequence[Expression], probe_keys: Sequence[Expression],
                 residual: Optional[Expression] = None):
        super().__init__()
        self.build = build
        self.probe = probe
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)
        self.residual = residual
        #: Per-run runtime-filter effect for EXPLAIN ANALYZE
        #: (``runtime_filter: range+keys, pruned=<segments>/<rows>``).
        self.runtime_filter_kind: Optional[str] = None
        self.runtime_segments_pruned = 0
        self.runtime_rows_pruned = 0

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.build, self.probe)

    def row_inputs(self) -> Sequence[PhysicalOperator]:
        return (self.build, self.probe)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        build_layout = self.build.layout()
        probe_layout = self.probe.layout()
        build_key = join_key([context.compile(expression, build_layout)
                              for expression in self.build_keys])
        probe_key = join_key([context.compile(expression, probe_layout)
                              for expression in self.probe_keys])
        residual = context.compile(self.residual,
                                   merge_layouts(build_layout, probe_layout))
        hash_table: dict[Any, list[Binding]] = {}
        for binding in input_rows(context, self.build):
            key = build_key(binding)
            if key is NULL:
                continue
            bucket = hash_table.get(key)
            if bucket is None:
                hash_table[key] = [binding]
            else:
                bucket.append(binding)
        emitted = 0
        try:
            for probe_binding in input_rows(context, self.probe):
                key = probe_key(probe_binding)
                if key is NULL:
                    continue
                bucket = hash_table.get(key)
                if bucket is None:
                    continue
                for build_binding in bucket:
                    merged = {**build_binding, **probe_binding}
                    if residual is not None and residual(merged) is not True:
                        continue
                    emitted += 1
                    yield merged
        finally:
            self.actual_rows += emitted

    def layout(self) -> Layout:
        return merge_layouts(self.build.layout(), self.probe.layout())

    def details(self) -> str:
        build = ", ".join(expression.sql() for expression in self.build_keys)
        probe = ", ".join(expression.sql() for expression in self.probe_keys)
        return f"build({build}) = probe({probe})"

    def estimated_rows(self) -> int:
        return max(self.build.estimated_rows(), self.probe.estimated_rows())


# ---------------------------------------------------------------------------
# Row-stream transforms
# ---------------------------------------------------------------------------

class FilterOp(PhysicalOperator):
    """Residual predicate evaluation."""

    label = "Filter"

    def __init__(self, child: PhysicalOperator, predicate: Expression):
        super().__init__()
        self.child = child
        self.predicate = predicate

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        predicate = context.compile(self.predicate, self.layout())
        emitted = 0
        try:
            for binding in self.child.rows(context):
                if predicate(binding) is True:
                    emitted += 1
                    yield binding
        finally:
            self.actual_rows += emitted

    def apply_batch(self, batch: ColumnBatch,
                    predicate_fn: VectorExpression) -> ColumnBatch:
        """Narrow a batch's selection vector with this filter's predicate."""
        batch.selection = predicate_fn(batch, batch.selection)
        self.actual_rows += len(batch.selection)
        return batch

    def details(self) -> str:
        return self.predicate.sql()

    def scale_rows(self, child_rows: int) -> int:
        return max(1, child_rows // 3)

# -- batch sources: scans, seeks and their filters ----------------------------

def _zone_predicates(enabled: bool, *fns) -> list:
    """Collect the compiled zone-map forms riding on vector predicates.

    Each entry maps a sealed segment to an ``(any_possible, all_match)``
    verdict; a predicate outside the zone-analyzable subset simply
    carries no zone form and contributes nothing (conservative: the
    segment is scanned).  ``fns`` come in evaluation order — the scan
    predicate, then the filters above it — and a row reaches a
    predicate only when every earlier one held, so once a predicate may
    raise, none after it may skip a segment whose rows would meet the
    error first.
    """
    if not enabled:
        return []
    zones = []
    for fn in fns:
        if fn is None:
            continue
        zone = getattr(fn, "zone_predicate", None)
        if zone is not None:
            zones.append(zone)
        if _may_raise(fn):
            break
    return zones


def _may_raise(*fns) -> bool:
    """Whether the row path's evaluation of any of these vector
    predicates could raise (unknown — not compiled through
    :meth:`ExecutionContext.compile_vector_predicate` — counts as yes)."""
    return any(getattr(fn, "may_raise", True) for fn in fns if fn is not None)


def _zone_skips(zone_fns, segment) -> bool:
    """True when any predicate's zone verdict proves the segment empty."""
    return any(not zone_fn(segment)[0] for zone_fn in zone_fns)


def _apply_scan_predicate(predicate_fn, batch: ColumnBatch, selection: list,
                          segment) -> list:
    """Narrow ``selection`` by the compiled scan predicate.

    On a sealed segment, a predicate whose generated loop reads exactly
    one column runs over that column's *dictionary* when it is
    dict/RLE-encoded — one evaluation per distinct value instead of per
    row — and rows are then filtered by code, which is exactly
    equivalent to decode-then-filter.
    """
    if segment is not None:
        columns = getattr(predicate_fn, "vector_columns", None)
        if columns is not None and len(columns) == 1:
            filtered = segment.code_filter(columns[0], predicate_fn, selection,
                                           batch.binding_name)
            if filtered is not None:
                return filtered
    return predicate_fn(batch, selection)


def _column_store(table: Table) -> bool:
    return table.storage.kind == "column"


@dataclass
class BatchShape:
    """An operator subtree the batch engine executes as one input.

    Either a *chain* — ``[FilterOp…]`` over a :class:`TableScan` or an
    :class:`IndexRangeScan` of a column store — or ``[FilterOp…]`` over
    a join: a :class:`HashJoin` whose build and probe are batch shapes
    with disjoint bindings, or an equality :class:`IndexNestedLoopJoin`
    into a column store whose outer side is a chain (its ``probe``: the
    outer rows probe the index).  The planner labels exactly these
    operators ``Batch`` (:meth:`operators`) and the executor runs
    exactly these (:func:`_batch_input`), from the one walk
    :func:`batch_shape`.
    """

    #: Filters above ``source``, outermost first.
    filters: list["FilterOp"]
    source: PhysicalOperator
    #: Lower-cased binding names of every relation below.
    bindings: frozenset
    build: Optional["BatchShape"] = None
    probe: Optional["BatchShape"] = None

    @property
    def is_chain(self) -> bool:
        return self.probe is None

    def operators(self) -> Iterator[PhysicalOperator]:
        yield from self.filters
        yield self.source
        for side in (self.build, self.probe):
            if side is not None:
                yield from side.operators()


def batch_shape(node: PhysicalOperator,
                column_backed: Callable[[Table], bool] = _column_store
                ) -> Optional[BatchShape]:
    """``node`` as a :class:`BatchShape`, or None.

    ``column_backed`` tells whether a table is column-stored: execution
    reads the storage itself, the planner asks its storage-kind hook.
    """
    filters: list[FilterOp] = []
    while isinstance(node, FilterOp):
        filters.append(node)
        node = node.child
    if isinstance(node, (TableScan, IndexRangeScan)):
        if not column_backed(node.table):
            return None
        return BatchShape(filters, node, frozenset((node.binding_name.lower(),)))
    if isinstance(node, HashJoin):
        build = batch_shape(node.build, column_backed)
        probe = batch_shape(node.probe, column_backed)
        if build is None or probe is None or build.bindings & probe.bindings:
            return None
        return BatchShape(filters, node, build.bindings | probe.bindings,
                          build, probe)
    if (isinstance(node, IndexNestedLoopJoin) and node.outer_high is None
            and column_backed(node.inner_table)):
        outer = batch_shape(node.outer, column_backed)
        inner = node.inner_binding.lower()
        if outer is None or not outer.is_chain or inner in outer.bindings:
            return None
        return BatchShape(filters, node, outer.bindings | {inner}, probe=outer)
    return None


class _BatchInput:
    """What both batch inputs share: the expressions of a consumer (or
    of the input itself) compile under the input's :attr:`schema`, and
    the batch columns they read accumulate in :attr:`needed`.
    ``compiled`` counts them; the consumer adds them to
    ``exprs_compiled`` only once its whole pipeline compiled, as the
    fused path does."""

    #: Binding → table of the relations below, in the row path's
    #: layout order; its size decides how batch columns are keyed
    #: (:func:`~repro.engine.compile.batch_key`).
    schema: dict[str, Table]

    def __init__(self) -> None:
        self.needed: set[str] = set()
        self.compiled = 0

    def predicate(self, context: ExecutionContext,
                  expression: Expression) -> VectorExpression:
        fn = context.compile_vector_predicate(expression, self.schema)
        self.needed.update(fn.reads)
        self.compiled += 1
        return fn

    def projection(self, context: ExecutionContext, expression: Expression
                   ) -> tuple[VectorExpression, Optional[str]]:
        """``(fn, tag)`` of a scalar over this input's batches."""
        fn, tag = context.compile_vector_projection(expression, self.schema)
        self.needed.update(fn.reads)
        self.compiled += 1
        return fn, tag

    def compiled_count(self) -> int:
        return self.compiled

    def compile_filters(self, context: ExecutionContext,
                        filters: Sequence["FilterOp"]
                        ) -> list[tuple["FilterOp", VectorExpression]]:
        """``filters`` (as a shape lists them, outermost first) compiled
        under this input's schema, in the order batches meet them."""
        return [(filter_op, self.predicate(context, filter_op.predicate))
                for filter_op in reversed(filters)]

    def column(self, key: str) -> str:
        """The batch column of a qualified ``"binding.column"`` key."""
        binding, name = key.split(".", 1)
        return batch_key(self.schema, binding, name)


class _ChainInput(_BatchInput):
    """A chain :class:`BatchShape`, vector-compiled for one execution:
    the one-binding batch input.  Its batches are the scan's or seek's,
    narrowed by the filters."""

    def __init__(self, context: ExecutionContext, shape: BatchShape):
        super().__init__()
        leaf = shape.source
        assert isinstance(leaf, (TableScan, IndexRangeScan))
        self.leaf = leaf
        self.table: Table = leaf.table
        self.binding_name = leaf.binding_name
        self.schema = {leaf.binding_name: leaf.table}
        predicate = leaf.predicate
        #: A seek's evaluated key range, which decides its filter; the
        #: walk itself waits for :meth:`batches`.
        self.bounds: Optional[tuple] = None
        if isinstance(leaf, IndexRangeScan):
            self.bounds, predicate = leaf.seek_bounds(context)
        self.predicate_fn = (self.predicate(context, predicate)
                             if predicate is not None else None)
        self.filter_fns = self.compile_filters(context, shape.filters)

    def batches(self, context: ExecutionContext, needed: Iterable[str] = (),
                runtime_filter: Optional["RuntimeJoinFilter"] = None,
                answer: Optional[Callable[[Any], bool]] = None
                ) -> Iterator[ColumnBatch]:
        """The chain's non-empty batches (columns load on first read, so
        ``needed`` asks nothing of a chain).  ``runtime_filter`` and
        ``answer`` go to a table scan (:meth:`TableScan.batches`)."""
        leaf = self.leaf
        if isinstance(leaf, TableScan):
            batches = leaf.batches(context, self.predicate_fn,
                                   [fn for _op, fn in self.filter_fns],
                                   runtime_filter, answer)
        else:
            batches = leaf.batches(context, self.bounds, self.predicate_fn)
        for batch in batches:
            _apply_filters(batch, self.filter_fns)
            if batch.selection:
                yield batch

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        """The row adapter: ``{binding: row}`` for each row that passes
        the chain, built from its batches and narrowed to the leaf's
        ``columns``, in the order the row path yields them."""
        names = self.leaf.columns
        if names is None:
            names = list(self.table.row_keys)
        binding_name = self.binding_name
        for batch in self.batches(context):
            for row in batch.rows(names):
                yield {binding_name: row}


def _apply_filters(batch: ColumnBatch,
                   filter_fns: Sequence[tuple["FilterOp", VectorExpression]]
                   ) -> None:
    """Narrow ``batch``'s selection by each compiled filter in turn."""
    for filter_op, predicate_fn in filter_fns:
        if not batch.selection:
            return
        filter_op.apply_batch(batch, predicate_fn)


def _batch_input(context: ExecutionContext, shape: BatchShape) -> _BatchInput:
    """``shape`` compiled for this execution (raises VectorCompileError)."""
    source = shape.source
    if isinstance(source, HashJoin):
        return _BatchJoinSource(context, shape)
    if isinstance(source, IndexNestedLoopJoin):
        return _IndexJoinInput(
            context, _ChainInput(context, shape.probe), source.index,
            source.inner_binding, source.outer_key, source.residual,
            covering=source.covering, join=source, filters=shape.filters)
    return _ChainInput(context, shape)


def input_rows(context: ExecutionContext, node: PhysicalOperator
               ) -> Iterator[Binding]:
    """``node``'s bindings for a row-mode consumer (its
    :meth:`~PhysicalOperator.row_inputs`).

    A chain the planner marked batch runs through the batch scan, so
    only the rows that pass its vector-filtered batches become dicts
    (:meth:`_ChainInput.rows`); anything else — and the interpreter —
    is ``node.rows``.
    """
    if node.vectorized and context.compile_enabled:
        source = chain_input(context, node)
        if source is not None:
            context.statistics.exprs_compiled += source.compiled_count()
            return source.rows(context)
    return node.rows(context)


def chain_input(context: ExecutionContext, node: PhysicalOperator
                ) -> Optional[_ChainInput]:
    """``node`` as a batch chain compiled for this execution, or None:
    not a chain over a column store, or an expression that does not
    vector-compile."""
    shape = batch_shape(node)
    if shape is None or not shape.is_chain:
        return None
    return _compiled_input(context, shape)


def batch_input(context: ExecutionContext, node: PhysicalOperator
                ) -> Optional[_BatchInput]:
    """:func:`chain_input`, batch joins included."""
    shape = batch_shape(node)
    return None if shape is None else _compiled_input(context, shape)


def _compiled_input(context: ExecutionContext, shape: BatchShape
                    ) -> Optional[_BatchInput]:
    try:
        return _batch_input(context, shape)
    except VectorCompileError:
        return None


# -- the vectorized hash-join pipeline ---------------------------------------

#: Binding name of gathered join-output batches (their columns are keyed
#: by the qualified ``"binding.column"`` name instead).
JOIN_BATCH_BINDING = "#join"

#: Build-key types a runtime filter's min/max range orders as SQL does
#: (bools are excluded: they are ints to Python, not to a zone map).
_REAL_TYPES = frozenset((int, float))


class RuntimeJoinFilter:
    """Sideways information passing: a finished hash build pruning its probe.

    Built the moment a hash-join build side completes — by the batch
    join pipeline and by a shard's co-partitioned join — and handed to
    the probe-side scan (:meth:`TableScan.batches`).  It tests probe
    keys against the build's own hash table, which is exactly the
    lookup the probe makes next, so it drops only rows the probe would
    drop anyway and results are byte-identical with the filter on or
    off.  Two layers:

    * **range** — when the (single) probe key is a bare column, zone
      maps are on and every build key is a real number, the keys'
      min/max disproves whole sealed segments before they are read.
      Tombstones keep this sound: zone bounds cover a superset of the
      live rows.  An empty build prunes every sealed segment outright
      — nothing can join.
    * **keys** — each surviving batch keeps only the rows whose probe
      key is in the hash table, right after the scan predicate and
      before the join gathers any columns.  NULL never is: NULL build
      keys are not hashed.

    Counters change only through ``note_*``, which the scan calls.
    """

    __slots__ = ("keys", "key_fn", "zone_fn", "join")

    def __init__(self, keys, key_fn, probe_key: Expression, *,
                 zone_maps: bool = True,
                 join: Optional["HashJoin"] = None):
        #: The build's hash table; ``key_fn(batch, selection)`` yields
        #: the probe keys it is tested against.
        self.keys = keys
        self.key_fn = key_fn
        #: The operator whose EXPLAIN ANALYZE counters the filter feeds
        #: (None on a shard, whose join is not a plan operator).
        self.join = join
        self.zone_fn = None
        if (keys and zone_maps and isinstance(probe_key, ColumnRef)
                and set(map(type, keys)) <= _REAL_TYPES
                and not any(map(ne, keys, keys))):
            # NaN build keys (the ones unequal to themselves) disable
            # the range: NaN poisons min/max.
            self.zone_fn = runtime_range_zone(probe_key.name.lower(),
                                              min(keys), max(keys))

    @property
    def kind(self) -> str:
        """EXPLAIN label: ``range+keys`` when segments can be pruned."""
        return ("range+keys" if not self.keys or self.zone_fn is not None
                else "keys")

    def prunes_segment(self, segment) -> bool:
        if not self.keys:
            return True
        zone_fn = self.zone_fn
        return zone_fn is not None and not zone_fn(segment)[0]

    def filter_rows(self, batch: ColumnBatch, selection: list[int]) -> list[int]:
        keys = self.keys
        if not keys:
            return []
        return list(compress(selection, map(keys.__contains__,
                                            self.key_fn(batch, selection))))

    def note_segment(self, statistics: ExecutionStatistics,
                     scan: "TableScan") -> None:
        statistics.segments_skipped += 1
        statistics.runtime_filter_segments_pruned += 1
        scan.actual_segments_skipped += 1
        scan.actual_runtime_segments_pruned += 1
        if self.join is not None:
            self.join.runtime_segments_pruned += 1

    def note_rows(self, statistics: ExecutionStatistics, scan: "TableScan",
                  pruned: int) -> None:
        if not pruned:
            return
        statistics.runtime_filter_rows_pruned += pruned
        scan.actual_runtime_rows_pruned += pruned
        if self.join is not None:
            self.join.runtime_rows_pruned += pruned


def _runtime_join_filter(join: "HashJoin", hash_table: dict,
                         probe: _BatchInput,
                         probe_key_fns: Sequence[tuple[VectorExpression,
                                                       Optional[str]]]
                         ) -> Optional["RuntimeJoinFilter"]:
    """The probe-side filter of a finished batch build, or None.

    Only single-key joins probed by a table scan are filtered (a
    compound key's per-component test would still be sound but is not
    worth the bookkeeping; a seek or a join has no segments to skip).
    """
    if not join.runtime_filter_enabled:
        return None
    if not (isinstance(probe, _ChainInput) and isinstance(probe.leaf, TableScan)):
        return None
    if len(probe_key_fns) != 1 or len(join.probe_keys) != 1:
        return None
    runtime_filter = RuntimeJoinFilter(
        hash_table, probe_key_fns[0][0], join.probe_keys[0],
        zone_maps=probe.leaf.use_zone_maps, join=join)
    join.runtime_filter_kind = runtime_filter.kind
    return runtime_filter


class _JoinColumns(dict):
    """A batch hash join's output columns, each gathered on first read.

    ``sources`` tells where a column's values are: ``(probe batch,
    column)`` for the probe side, read at the output's ``positions`` in
    that batch, or ``(None, store)`` for a build column, read at
    ``ordinals``.  A join probed by this output gathers its own columns
    straight from those sources (:meth:`take` composes the positions),
    so a column an outer join carries for its own output is gathered
    once, at the outer join's matches, not first at this join's.
    """

    __slots__ = ("sources", "positions", "ordinals")

    def __init__(self, sources: dict[str, tuple[Optional[ColumnBatch], Any]],
                 positions: list[int], ordinals: list[int]):
        super().__init__()
        self.sources = sources
        self.positions = positions
        self.ordinals = ordinals

    def take(self, key: str, at: Sequence[int]) -> list:
        """Column ``key`` at output positions ``at`` (not kept)."""
        values = dict.get(self, key)
        if values is not None:
            return [values[i] for i in at]
        batch, source = self.sources[key]
        if batch is None:
            ordinals = self.ordinals
            return [source[ordinals[i]] for i in at]
        positions = self.positions
        return _take(batch, source, [positions[i] for i in at])

    def __missing__(self, key: str) -> list:
        batch, source = self.sources[key]
        if batch is None:
            values = [source[i] for i in self.ordinals]
        else:
            values = _take(batch, source, self.positions)
        self[key] = values
        return values


def _take(batch: ColumnBatch, column: str, positions: Sequence[int]) -> list:
    """``batch``'s column at ``positions``, NULL where masked."""
    columns = batch.columns
    if isinstance(columns, _JoinColumns):
        return columns.take(column, positions)
    return column_values(columns[column], batch.masks.get(column), positions, 0)


class _BatchJoinSource(_BatchInput):
    """Drives a :class:`HashJoin` batch-at-a-time over two batch inputs.

    Each side is a chain (:class:`_ChainInput`) or another batch join
    (:class:`_BatchJoinSource`, :class:`_IndexJoinInput`), so left-deep,
    right-deep and bushy join trees all stay on the batch path.  The join keys compile against
    their own side; the residual, the filters above the join and the
    consumer's expressions compile under the join schema (build
    bindings, then probe — ``HashJoin.layout``'s order), so they read
    qualified ``"binding.column"`` keys, and record them in ``needed``.

    The build side's batches are consumed once: join-key columns feed a
    hash table of build-row ordinals while every needed build column
    is gathered into one growing list.  The probe side then streams;
    each probe batch's matches form a :class:`JoinBatch` keyed
    ``"binding.column"`` whose columns are gathered on first read
    (:class:`_JoinColumns`).  Gathers apply the null masks, so a
    gathered column holds NULL where the row does.

    Once the build finishes, its key set is summarized into a
    :class:`RuntimeJoinFilter` (when the planner enabled them) and
    pushed into a probe-side scan, so segments and rows that cannot
    match any build key are never read, charged or gathered.
    """

    def __init__(self, context: ExecutionContext, shape: BatchShape):
        super().__init__()
        join = shape.source
        assert isinstance(join, HashJoin) and shape.build and shape.probe
        self.join = join
        self.build = _batch_input(context, shape.build)
        self.probe = _batch_input(context, shape.probe)
        self.probe_bindings = shape.probe.bindings
        self.schema = {**self.build.schema, **self.probe.schema}
        self.build_key_fns = [self.build.projection(context, expression)
                              for expression in join.build_keys]
        self.probe_key_fns = [self.probe.projection(context, expression)
                              for expression in join.probe_keys]
        self.residual_fn = (self.predicate(context, join.residual)
                            if join.residual is not None else None)
        self.filter_fns = self.compile_filters(context, shape.filters)

    def compiled_count(self) -> int:
        return (self.compiled + self.build.compiled_count()
                + self.probe.compiled_count())

    def batches(self, context: ExecutionContext,
                needed: Iterable[str] = ()) -> Iterator[ColumnBatch]:
        """The join's output batches, carrying :attr:`needed` and ``needed``."""
        wanted = self.needed.union(needed)
        probe_bindings = self.probe_bindings
        needed_probe = sorted(key for key in wanted
                              if key.split(".", 1)[0] in probe_bindings)
        needed_build = sorted(key for key in wanted
                              if key.split(".", 1)[0] not in probe_bindings)
        hash_table, unique, build_store = self._build(context, needed_build)
        runtime_filter = _runtime_join_filter(self.join, hash_table, self.probe,
                                              self.probe_key_fns)
        join = self.join
        probe_fns = [fn for fn, _tag in self.probe_key_fns]
        single_key = len(probe_fns) == 1
        residual_fn = self.residual_fn
        probe = self.probe
        probe_columns = [(key, probe.column(key)) for key in needed_probe]
        build_sources = [(key, (None, build_store[key])) for key in needed_build]
        if runtime_filter is not None:
            probe_batches = probe.batches(context, needed_probe, runtime_filter)
        else:
            probe_batches = probe.batches(context, needed_probe)
        get = hash_table.get
        for batch in probe_batches:
            selection = batch.selection
            key_columns = [fn(batch, selection) for fn in probe_fns]
            keys = key_columns[0] if single_key else zip(*key_columns)
            # The table holds no key with a NULL part, so a NULL probe
            # key — a row-view fallback's — misses like any other.
            build_ordinals = list(map(get, keys))
            if None in build_ordinals:
                probe_positions = [position for position, ordinal
                                   in zip(selection, build_ordinals)
                                   if ordinal is not None]
                build_ordinals = [ordinal for ordinal in build_ordinals
                                  if ordinal is not None]
            else:
                probe_positions = list(selection)
            if not probe_positions:
                continue
            if not unique:
                probe_positions = list(chain.from_iterable(map(
                    repeat, probe_positions, map(len, build_ordinals))))
                build_ordinals = list(chain.from_iterable(build_ordinals))
            sources = {key: (batch, column) for key, column in probe_columns}
            sources.update(build_sources)
            out = JoinBatch(_JoinColumns(sources, probe_positions, build_ordinals),
                            list(range(len(probe_positions))),
                            JOIN_BATCH_BINDING, batch, probe_positions)
            if residual_fn is not None:
                out.selection = residual_fn(out, out.selection)
            join.actual_rows += len(out.selection)
            _apply_filters(out, self.filter_fns)
            if out.selection:
                yield out

    def _build(self, context: ExecutionContext, needed_build: Sequence[str]
               ) -> tuple[dict, bool, dict[str, list]]:
        """Hash the build side's keys to ordinals and gather its columns:
        ``(hash table, unique, build store)``.

        Every build row — a NULL-keyed one too — has an ordinal, its
        index into each gathered column of the store.  A key with a NULL
        part is not hashed (NULL joins nothing).  When the hashed keys
        are distinct (``unique``), each maps to its bare ordinal; else
        each maps to the list of its ordinals, in build order.  Either
        way the table's key equality is the row join's: ``1``/``1.0``/
        ``True`` and ``0.0``/``-0.0`` collide and a NaN matches only
        itself.
        """
        build = self.build
        build_fns = [fn for fn, _tag in self.build_key_fns]
        null_possible = any(tag is None for _fn, tag in self.build_key_fns)
        single_key = len(build_fns) == 1
        build_store: dict[str, list] = {key: [] for key in needed_build}
        gathered = [(build_store[key], build.column(key)) for key in needed_build]
        keys: list = []
        for batch in build.batches(context, needed_build):
            selection = batch.selection
            key_columns = [fn(batch, selection) for fn in build_fns]
            masks = batch.masks
            for store, column in gathered:
                store.extend(column_values(batch.columns[column],
                                           masks.get(column), selection, 0))
            keys.extend(key_columns[0] if single_key else zip(*key_columns))
        ordinals: Iterable[int] = range(len(keys))
        if null_possible:
            hashed = ([key is not NULL for key in keys] if single_key
                      else [NULL not in key for key in keys])
            keys = list(compress(keys, hashed))
            ordinals = list(compress(ordinals, hashed))
        hash_table = dict(zip(keys, ordinals))
        if len(hash_table) == len(keys):
            return hash_table, True, build_store
        hash_table = {}
        for key, ordinal in zip(keys, ordinals):
            bucket = hash_table.get(key)
            if bucket is None:
                hash_table[key] = [ordinal]
            else:
                bucket.append(ordinal)
        return hash_table, False, build_store


class _IndexJoinInput(_BatchInput):
    """Drives an equality :class:`IndexNestedLoopJoin` batch-at-a-time.

    The outer (drive) side is a chain and the inner table a column
    store.  Each drive row that passes the chain seeks the inner index
    once with its key (a NULL key part seeks nothing); one drive
    batch's matches, each drive row's in index order, are gathered
    together (:meth:`~repro.engine.storage.ColumnStore.gather`) into a
    :class:`~repro.engine.batch.JoinBatch` keyed ``"binding.column"``,
    which the join's residual and the filters above it narrow.  Each
    fetched live inner row counts as the row join counts it: scanned,
    and a random lookup — or, when the index covers the inner columns
    (``covering``), an index entry.  ``join`` is the plan operator whose
    actual rows it keeps (None on a cluster shard, whose fragments run
    this class over their drive chain too).
    """

    def __init__(self, context: ExecutionContext, drive: _ChainInput,
                 index: BTreeIndex, binding: str, keys: Sequence[Expression],
                 residual: Optional[Expression], *, covering: bool = False,
                 join: Optional[IndexNestedLoopJoin] = None,
                 filters: Sequence[FilterOp] = ()):
        super().__init__()
        self.drive = drive
        self.index = index
        self.inner_binding = binding.lower()
        self.covering = covering
        self.join = join
        self.schema = {drive.binding_name: drive.table, binding: index.table}
        self.key_fns = [drive.projection(context, key)[0] for key in keys]
        self.residual_fn = (self.predicate(context, residual)
                            if residual is not None else None)
        self.filter_fns = self.compile_filters(context, filters)

    def compiled_count(self) -> int:
        return self.compiled + self.drive.compiled_count()

    def batches(self, context: ExecutionContext,
                needed: Iterable[str] = ()) -> Iterator[JoinBatch]:
        """The join's output batches, carrying :attr:`needed` and ``needed``."""
        drive_columns: list[tuple[str, str]] = []
        inner_columns: list[tuple[str, str]] = []
        for key in sorted(self.needed.union(needed)):
            binding, column = key.split(".", 1)
            side = inner_columns if binding == self.inner_binding else drive_columns
            side.append((key, column))
        statistics = context.statistics
        table = self.index.table
        covering = self.covering
        row_bytes = int(self.index.entry_byte_width() if covering
                        else table.average_row_bytes())
        seek = self.index.seek
        key_fns = self.key_fns
        residual_fn = self.residual_fn
        join = self.join
        for batch in self.drive.batches(context):
            selection = batch.selection
            matches = [() if NULL in key else tuple(seek(key))
                       for key in zip(*[fn(batch, selection) for fn in key_fns])]
            row_ids = list(chain.from_iterable(matches))
            if not row_ids:
                continue
            probe_positions = list(chain.from_iterable(
                map(repeat, selection, map(len, matches))))
            live, gathered = table.storage.gather(row_ids)
            if len(live) != len(row_ids):
                probe_positions = list(compress(
                    probe_positions, map(set(live).__contains__, row_ids)))
            scanned = len(live)
            statistics.rows_scanned += scanned
            statistics.bytes_scanned += scanned * row_bytes
            if covering:
                statistics.index_entries_read += scanned
            else:
                statistics.random_lookups += scanned
            if not scanned:
                continue
            masks = batch.masks
            columns = {key: column_values(batch.columns[column],
                                          masks.get(column), probe_positions, 0)
                       for key, column in drive_columns}
            columns.update((key, gathered[column])
                           for key, column in inner_columns)
            out = JoinBatch(columns, list(range(scanned)), JOIN_BATCH_BINDING,
                            batch, probe_positions)
            if residual_fn is not None:
                out.selection = residual_fn(out, out.selection)
            if join is not None:
                join.actual_rows += len(out.selection)
            _apply_filters(out, self.filter_fns)
            if out.selection:
                yield out


class SortOp(PhysicalOperator):
    """Full sort of the binding stream on a list of key expressions."""

    label = "Sort"

    def __init__(self, child: PhysicalOperator,
                 keys: Sequence[tuple[Expression, bool]]):
        super().__init__()
        self.child = child
        self.keys = list(keys)
        #: Whether the last run emitted a row whose key did not sort
        #: strictly after its predecessor's (an equal key, or a NaN,
        #: which orders against nothing): False means the order of what
        #: it emitted (the row a TOP pulls and cuts included) is the
        #: only one its input's row set allows.
        self.tied = False

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def row_inputs(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        self.tied = False
        layout = self.layout()
        key_fns = [(context.compile(expression, layout, projected=True), descending)
                   for expression, descending in self.keys]
        materialised: list[tuple[list, Binding]] = []
        for binding in input_rows(context, self.child):
            key = [_SortKey(key_fn(binding), descending)
                   for key_fn, descending in key_fns]
            materialised.append((key, binding))
        materialised.sort(key=lambda pair: pair[0])
        emitted = 0
        previous = None
        try:
            for key, binding in materialised:
                if previous is not None and not previous < key:
                    self.tied = True
                previous = key
                emitted += 1
                yield binding
        finally:
            self.actual_rows += emitted

    def details(self) -> str:
        return ", ".join(
            f"{expression.sql()}{' DESC' if descending else ''}"
            for expression, descending in self.keys)


class _SortKey:
    """Orders values with NULLs first and mixed types safely; supports DESC.

    The rank is computed once per key, not on every comparison."""

    __slots__ = ("rank", "descending")

    def __init__(self, value: Any, descending: bool):
        if value is NULL:
            rank = (0, 0, "")
        elif isinstance(value, bool):
            rank = (1, int(value), "")
        elif isinstance(value, (int, float)):
            rank = (1, value, "")
        elif isinstance(value, str):
            rank = (2, 0, value.lower())
        else:
            rank = (3, 0, str(value))
        self.rank = rank
        self.descending = descending

    def __lt__(self, other: "_SortKey") -> bool:
        if self.descending:
            return other.rank < self.rank
        return self.rank < other.rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.rank == other.rank


class TopOp(PhysicalOperator):
    """TOP n / the public server's row limit."""

    label = "Top"

    def __init__(self, child: PhysicalOperator, count: int):
        super().__init__()
        self.child = child
        self.count = count

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        produced = 0
        for binding in self.child.rows(context):
            if produced >= self.count:
                break
            produced += 1
            yield self._emit(binding)

    def details(self) -> str:
        return f"TOP {self.count}"

    def scale_rows(self, child_rows: int) -> int:
        return min(self.count, child_rows)


class GroupAggregate(PhysicalOperator):
    """Hash aggregation over grouping expressions.

    Produces bindings with a single synthetic relation whose row maps
    each group-by expression's SQL text and each aggregate's result key
    to its value, so the select list and HAVING clause evaluate against
    it transparently.
    """

    label = "Aggregate"

    #: Planner proof (the CBO's ``_sum_stays_exact``) that every SUM/AVG
    #: argument is an exact-integer column bounded below 2**53, letting
    #: the scalar fold answer sums from zone-map integer totals on
    #: fully-matched segments without changing a single bit.
    zone_exact_sums = False

    def __init__(self, child: PhysicalOperator, group_by: Sequence[Expression],
                 aggregates: Sequence[AggregateCall], binding_name: str = OUTPUT_BINDING):
        super().__init__()
        self.child = child
        self.group_by = list(group_by)
        # The same aggregate may appear in both the select list and HAVING;
        # keep one state per distinct result key so it is not updated twice.
        deduplicated: dict[str, AggregateCall] = {}
        for aggregate in aggregates:
            deduplicated.setdefault(aggregate.result_key(), aggregate)
        self.aggregates = list(deduplicated.values())
        self.binding_name = binding_name
        self._names = [_group_key_name(expression) for expression in self.group_by]
        self._result_keys = [aggregate.result_key() for aggregate in self.aggregates]
        # COUNT(*) is its group's row count; every other aggregate keeps
        # a running state.
        self._counting = [_counts_rows(aggregate) for aggregate in self.aggregates]
        self._stateful = [aggregate for aggregate, counts
                          in zip(self.aggregates, self._counting) if not counts]

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def row_inputs(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        if self.vectorized and context.compile_enabled:
            vectorized = self._vectorized_rows(context)
            if vectorized is not None:
                yield from vectorized
                return
        child_layout = self.child.layout()
        group_key = row_key([context.compile(expression, child_layout)
                             for expression in self.group_by])
        argument_fns = [context.compile(aggregate.argument, child_layout)
                        for aggregate in self._stateful]
        counts: Counter = Counter()
        states: dict[Any, list[_AggState]] = {}
        bindings = input_rows(context, self.child)
        if not argument_fns:
            self._fold(counts, states, map(group_key, bindings), None)
        else:
            # Chunks let one fold read keys and arguments column-wise,
            # as it reads a batch; each row still evaluates its key,
            # then its arguments, in order.
            while True:
                chunk = list(islice(bindings, BATCH_ROWS))
                if not chunk:
                    break
                self._fold(counts, states, map(group_key, chunk),
                           zip(*[map(fn, chunk) for fn in argument_fns]))
        yield from self._emit_groups(counts, states)

    def _fold(self, counts: dict[Any, int], states: dict[Any, list["_AggState"]],
              keys: Iterable[Any], values: Optional[Iterable[tuple]]) -> None:
        """Fold rows into their groups: ``keys`` holds one group key per
        row and ``values`` (None when every aggregate is COUNT(*)) the
        stateful aggregates' arguments per row.

        A single grouping key is the bare value, which groups exactly as
        its 1-tuple would (see :func:`row_key`).  ``counts`` keeps
        first-seen group order.
        """
        if values is None:
            count_groups(counts, keys)
            return
        get = counts.get
        stateful = self._stateful
        for key, row in zip(keys, values):
            counts[key] = get(key, 0) + 1
            group = states.get(key)
            if group is None:
                group = states[key] = [_AggState(aggregate) for aggregate in stateful]
            for state, value in zip(group, row):
                state.update(value)

    def _emit_groups(self, counts: dict[Any, int],
                     states: dict[Any, list["_AggState"]]) -> Iterator[Binding]:
        """One output row per group, in first-seen order."""
        if not counts and not self.group_by:
            # Aggregates over an empty input still produce one row (count=0, others NULL).
            row = {aggregate.result_key(): _AggState(aggregate).result()
                   for aggregate in self.aggregates}
            yield self._emit({self.binding_name: row})
            return
        names = self._names
        single = len(names) == 1
        columns = list(zip(self._result_keys, self._counting))
        for key, count in counts.items():
            row: dict[str, Any] = dict(zip(names, (key,) if single else key))
            results = iter(states[key]) if states else iter(())
            for result_key, counts_rows in columns:
                row[result_key] = count if counts_rows else next(results).result()
            yield self._emit({self.binding_name: row})

    def layout(self) -> Layout:
        return ((self.binding_name, row_keys([*self._names, *self._result_keys])),)

    # -- the vectorized aggregation path -----------------------------------

    def _vectorized_rows(self, context: ExecutionContext) -> Optional[Iterator[Binding]]:
        """Batch aggregation over a batch input (:func:`batch_shape`), or None."""
        shape = batch_shape(self.child)
        if shape is None:
            return None
        try:
            source = _batch_input(context, shape)
            group_fns = [source.projection(context, expression)[0]
                         for expression in self.group_by]
            argument_fns = [(None, None) if aggregate.argument is None
                            else source.projection(context, aggregate.argument)
                            for aggregate in self.aggregates]
        except VectorCompileError:
            return None
        context.statistics.exprs_compiled += source.compiled_count()
        if self.group_by:
            return self._run_grouped(source.batches(context), group_fns,
                                     argument_fns)
        return self._run_scalar(context, source, argument_fns)

    def _run_scalar(self, context: ExecutionContext,
                    source: _BatchInput,
                    argument_fns: Sequence[tuple[Optional[VectorExpression],
                                                 Optional[str]]]
                    ) -> Iterator[Binding]:
        states = [_AggState(aggregate) for aggregate in self.aggregates]
        if isinstance(source, _ChainInput):
            answer = self._zone_answer(source, states,
                                       [tag for _fn, tag in argument_fns])
            batches = source.batches(context, answer=answer)
        else:
            batches = source.batches(context)
        fold_scalar(batches, states, argument_fns)
        row = {result_key: state.result()
               for result_key, state in zip(self._result_keys, states)}
        yield self._emit({self.binding_name: row})

    def _run_grouped(self, batches: Iterator[ColumnBatch],
                     group_fns: Sequence[VectorExpression],
                     argument_fns: Sequence[tuple[Optional[VectorExpression],
                                                  Optional[str]]]
                     ) -> Iterator[Binding]:
        stateful_fns = [argument_fn for (argument_fn, _tag), counts
                        in zip(argument_fns, self._counting) if not counts]
        single = len(group_fns) == 1
        counts: Counter = Counter()
        states: dict[Any, list[_AggState]] = {}
        for batch in batches:
            selection = batch.selection
            key_columns = [group_fn(batch, selection) for group_fn in group_fns]
            keys = key_columns[0] if single else zip(*key_columns)
            values = None
            if stateful_fns:
                values = zip(*[argument_fn(batch, selection)
                               for argument_fn in stateful_fns])
            self._fold(counts, states, keys, values)
        yield from self._emit_groups(counts, states)

    def _zone_answer(self, source: "_ChainInput", states: Sequence["_AggState"],
                     tags: Sequence[Optional[str]]
                     ) -> Optional[Callable[[Any], bool]]:
        """The scan hook that folds a fully-matched segment from its zone
        maps (:meth:`TableScan.batches`' ``answer``), or None.

        Such a segment contributes COUNT/MIN/MAX (and, when the planner
        proved the sum exact via :attr:`zone_exact_sums`, SUM/AVG)
        straight from its zone map, without decoding a single value.
        Zone minima/maxima use the same first-wins comparisons and zone
        integer sums the same exact arithmetic as :class:`_AggState`,
        so the merged fold is bit-identical to scanning.  A segment the
        zones cannot answer is scanned and folded as usual.
        """
        specs: list[tuple[Optional[str], str]] = []
        binding = source.binding_name.lower()
        for aggregate, tag in zip(self.aggregates, tags):
            if aggregate.distinct:
                return None
            if aggregate.argument is None:
                specs.append((None, "count_star"))
                continue
            func = aggregate.func
            if func not in ("count", "min", "max", "sum", "avg"):
                return None
            argument = aggregate.argument
            if not isinstance(argument, ColumnRef):
                return None
            qualifier = (argument.qualifier or "").lower()
            if qualifier and qualifier != binding:
                return None
            column = argument.name.lower()
            if not source.table.has_column(column):
                return None
            if func in ("sum", "avg") and (not self.zone_exact_sums
                                           or tag != "int"):
                # Only planner-proved exact-integer columns whose
                # codegen tag guarantees non-NULL, non-bool ints may be
                # answered from zone integer sums.
                return None
            specs.append((column, func))

        def answer(segment) -> bool:
            partials = _zone_contributions(segment, specs)
            if partials is None:
                return False
            # The operators' actual rows match the scan they replaced.
            for filter_op, _fn in source.filter_fns:
                filter_op.actual_rows += segment.rows
            for state, partial in zip(states, partials):
                state.merge_partial(partial)
            return True

        return answer

    def details(self) -> str:
        groups = ", ".join(expression.sql() for expression in self.group_by) or "(scalar)"
        aggregates = ", ".join(aggregate.sql() for aggregate in self.aggregates)
        return f"GROUP BY {groups} COMPUTE {aggregates}"

    def scale_rows(self, child_rows: int) -> int:
        return max(1, child_rows // 10) if self.group_by else 1


def _zone_contributions(segment, specs) -> Optional[list]:
    """Per-aggregate ``partial_state`` tuples read off a segment's zone maps.

    ``specs`` holds one ``(column, func)`` per aggregate.  Returns the
    ``(count, total, minimum, maximum)`` fragments
    :meth:`_AggState.merge_partial` consumes, in order — or None when
    any aggregate needs the real values (e.g. a MIN over a segment
    whose zone could not rank its values, or a SUM whose zone lost
    integer exactness).
    """
    contributions = []
    for column, func in specs:
        if func == "count_star":
            contributions.append((segment.rows, 0.0, None, None))
            continue
        zone = segment.zone(column)
        if zone is None:
            return None
        nonnull = zone.nonnull
        if func == "count":
            contributions.append((nonnull, 0.0, None, None))
        elif func in ("min", "max"):
            if nonnull and zone.kind is None:
                # Mixed types or NaN: the zone could not rank the
                # values, so the segment must be scanned.
                return None
            contributions.append((nonnull, 0.0, zone.minimum, zone.maximum))
        else:  # sum / avg over planner-proved exact-integer columns
            if zone.int_sum is None or (nonnull and zone.kind != "num"):
                return None
            contributions.append((nonnull, zone.int_sum, None, None))
    return contributions


def count_groups(counts: Counter, keys: Iterable[Any]) -> list:
    """Count each row's group (``keys`` holds one group key per row) into
    ``counts``, in C (:meth:`collections.Counter.update`); returns the
    groups new to ``counts``.

    ``counts`` keeps first-seen group order and each group's first-seen
    key, as counting row by row would, so its new groups are its tail.
    """
    seen = len(counts)
    counts.update(keys)
    return list(islice(counts, seen, None))


def fold_scalar(batches: Iterable[ColumnBatch], states: Sequence["_AggState"],
                argument_fns: Sequence[tuple[Optional[VectorExpression],
                                             Optional[str]]]) -> None:
    """Fold each batch's selected rows into ungrouped aggregate states,
    one ``(fn, tag)`` per state (``fn`` None for COUNT(*))."""
    folds = [(state, fn, tag) for state, (fn, tag) in zip(states, argument_fns)]
    for batch in batches:
        selection = batch.selection
        for state, fn, tag in folds:
            if fn is None:
                state.update_count(len(selection))
            else:
                state.update_batch(fn(batch, selection), tag)


def _group_key_name(expression: Expression) -> str:
    if isinstance(expression, ColumnRef):
        return expression.name.lower()
    return expression.sql()


def _counts_rows(aggregate: AggregateCall) -> bool:
    """COUNT(*), the one aggregate without an argument: its group's row
    count."""
    return aggregate.argument is None


class _AggState:
    """Running state of one aggregate within one group."""

    __slots__ = ("func", "distinct", "count", "total", "minimum", "maximum",
                 "seen")

    def __init__(self, aggregate: AggregateCall):
        self.func = aggregate.func
        self.distinct = aggregate.distinct
        self.count = 0
        self.total = 0.0
        self.minimum: Any = None
        self.maximum: Any = None
        #: A DISTINCT aggregate's values so far.
        self.seen: Optional[set] = set() if self.distinct else None

    def update(self, value: Any) -> None:
        if value is NULL:
            return
        if self.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def update_count(self, rows: int) -> None:
        """COUNT(*) over a whole batch (arguments are never NULL)."""
        self.count += rows

    def update_batch(self, values: list, tag: Optional[str]) -> None:
        """Fold one batch of argument values into the running state.

        A numeric codegen ``tag`` guarantees the values are non-NULL
        ints/floats (never bools), so the reductions run as C-level
        builtins (floats accumulate one by one to keep the total
        bit-identical to the row path).  Everything else — DISTINCT,
        row-view fallbacks that may contain NULLs, strings — goes
        through the exact per-value :meth:`update`.
        """
        if self.distinct or tag not in ("int", "float"):
            for value in values:
                self.update(value)
            return
        if not values:
            return
        self.count += len(values)
        func = self.func
        if func in ("sum", "avg"):
            # Accumulate one by one from the running float total so the
            # result is bit-identical to the row path: a per-batch sum()
            # would round differently — floats in the last ulp, ints
            # beyond 2**53.
            total = self.total
            for value in values:
                total += value
            self.total = total
        elif func == "min":
            low = min(values)
            if self.minimum is None or low < self.minimum:
                self.minimum = low
        elif func == "max":
            high = max(values)
            if self.maximum is None or high > self.maximum:
                self.maximum = high

    # -- partial aggregation (the cluster's shard-side states) ----------

    def partial_state(self) -> tuple[int, float, Any, Any]:
        """The mergeable partial: ``(count, total, minimum, maximum)``.

        COUNT/MIN/MAX merge directly and AVG merges as a sum+count pair
        (``total``/``count``), so a scatter-gather execution can combine
        per-shard states without re-reading any rows.  DISTINCT states
        are not mergeable (their value sets would have to travel) and
        raise — callers gather the value stream instead.
        """
        if self.distinct:
            raise PlanError(
                f"DISTINCT {self.func} has no mergeable partial state")
        return (self.count, self.total, self.minimum, self.maximum)

    def merge_partial(self, state: tuple[int, float, Any, Any]) -> None:
        """Fold another state's :meth:`partial_state` into this one."""
        if self.distinct:
            raise PlanError(
                f"DISTINCT {self.func} has no mergeable partial state")
        count, total, minimum, maximum = state
        self.count += count
        self.total += total
        if minimum is not None and (self.minimum is None or minimum < self.minimum):
            self.minimum = minimum
        if maximum is not None and (self.maximum is None or maximum > self.maximum):
            self.maximum = maximum

    def result(self) -> Any:
        if self.func == "count":
            return self.count
        if self.count == 0:
            return NULL
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.count
        if self.func == "min":
            return self.minimum
        if self.func == "max":
            return self.maximum
        raise PlanError(f"unsupported aggregate function {self.func!r}")


#: Public name of the aggregate running-state machinery: the cluster's
#: partial-aggregate merge builds on the same states the row and batch
#: execution paths use.
AggregateState = _AggState


class ProjectOp(PhysicalOperator):
    """Evaluates the select list, producing output-row bindings.

    When the input is a single ``TableScan`` (possibly under residual
    ``FilterOp``s) and every expression compiles in direct-row mode, the
    scan, filters and projection fuse into one tight loop over the
    table's row dicts — no per-row RowScope or binding-dict churn.
    The operators above a projection (top, distinct, insert) bind no
    expressions, so it declares no :meth:`layout` of its own.
    """

    label = "Compute Scalar"

    def __init__(self, child: PhysicalOperator, items: Sequence[SelectItem],
                 database: Database):
        super().__init__()
        self.child = child
        self.items = list(items)
        self.database = database

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        if self.vectorized and context.compile_enabled:
            vectorized = self._vectorized_rows(context)
            if vectorized is not None:
                yield from vectorized
                return
        if context.compile_enabled:
            fused = self._fused_rows(context)
            if fused is not None:
                yield from fused
                return
        child_layout = self.child.layout()
        compiled_items: list[tuple[Any, Optional[str], Optional[CompiledExpression]]] = []
        for position, item in enumerate(self.items):
            if isinstance(item.expression, Star):
                compiled_items.append((item.expression, None, None))
            else:
                compiled_items.append((item.expression, item.output_name(position),
                                       context.compile(item.expression, child_layout,
                                                       projected=True)))
        for binding in self.child.rows(context):
            output: dict[str, Any] = {}
            for expression, name, value_fn in compiled_items:
                if value_fn is None:
                    self._expand_star(expression, binding, output)
                else:
                    output[name] = value_fn(binding)
            yield self._emit({**binding, OUTPUT_BINDING: output})

    def batches_over(self, shape: BatchShape) -> bool:
        """Whether every select item runs over ``shape``'s batches: a
        ``*`` expands through a chain's row adapter, so it needs a chain
        over the binding it names (star over a join stays row-mode)."""
        for item in self.items:
            if isinstance(item.expression, Star):
                if not shape.is_chain:
                    return False
                qualifier = (item.expression.qualifier or "").lower()
                if qualifier and qualifier not in shape.bindings:
                    return False
        return True

    # -- the vectorized path -----------------------------------------------

    def _vectorized_rows(self, context: ExecutionContext) -> Optional[Iterator[Binding]]:
        """A batch source→filter→project pipeline, or None when not applicable."""
        shape = batch_shape(self.child)
        if shape is None or not self.batches_over(shape):
            return None
        # (output name, vector fn); a Star is (None, None) and expands to
        # every table column through the batch's row-dict adapter.
        compiled_items: list[tuple[Optional[str], Optional[VectorExpression]]] = []
        try:
            source = _batch_input(context, shape)
            for position, item in enumerate(self.items):
                if isinstance(item.expression, Star):
                    compiled_items.append((None, None))
                else:
                    fn, _tag = source.projection(context, item.expression)
                    compiled_items.append((item.output_name(position), fn))
        except VectorCompileError:
            return None
        context.statistics.exprs_compiled += source.compiled_count()
        star_columns = (list(source.table.row_keys)
                        if any(fn is None for _name, fn in compiled_items) else None)
        return self._run_vectorized(context, source.batches(context),
                                    compiled_items, star_columns)

    def _run_vectorized(self, context: ExecutionContext,
                        batches: Iterator[ColumnBatch],
                        compiled_items: Sequence[tuple[Optional[str],
                                                       Optional[VectorExpression]]],
                        star_columns: Optional[list[str]]
                        ) -> Iterator[Binding]:
        has_star = any(fn is None for _name, fn in compiled_items)
        names = [name for name, _fn in compiled_items]
        for batch in batches:
            selection = batch.selection
            value_lists = [None if fn is None else fn(batch, selection)
                           for _name, fn in compiled_items]
            if has_star:
                star_rows = batch.rows(star_columns)
                for position, star_row in enumerate(star_rows):
                    output: dict[str, Any] = {}
                    for name, values in zip(names, value_lists):
                        if values is None:
                            for column, value in star_row.items():
                                output.setdefault(column, value)
                        else:
                            output[name] = values[position]
                    yield self._emit({OUTPUT_BINDING: output})
            else:
                for values_row in zip(*value_lists):
                    yield self._emit({OUTPUT_BINDING: dict(zip(names, values_row))})

    # -- the fused single-table fast path ---------------------------------

    def _fused_rows(self, context: ExecutionContext) -> Optional[Iterator[Binding]]:
        """A fused scan→filter→project generator, or None when not applicable."""
        filters: list[FilterOp] = []
        node: PhysicalOperator = self.child
        while isinstance(node, FilterOp):
            filters.append(node)
            node = node.child
        if not isinstance(node, TableScan):
            return None
        scan = node
        table = scan.table
        binding_name = scan.binding_name
        compiled_count = 0
        try:
            scan_predicate = None
            if scan.predicate is not None:
                scan_predicate = context.compile_row(scan.predicate, table, binding_name)
                compiled_count += 1
            # Filters stack project-downward; rows meet them scan-upward.
            filter_fns = []
            for filter_op in reversed(filters):
                filter_fns.append(
                    (filter_op,
                     context.compile_row(filter_op.predicate, table, binding_name)))
                compiled_count += 1
            compiled_items: list[tuple[Optional[str], Optional[CompiledExpression]]] = []
            for position, item in enumerate(self.items):
                if isinstance(item.expression, Star):
                    qualifier = (item.expression.qualifier or "").lower()
                    if qualifier and qualifier != binding_name.lower():
                        return None
                    compiled_items.append((None, None))
                else:
                    compiled_items.append(
                        (item.output_name(position),
                         context.compile_row(item.expression, table, binding_name)))
                    compiled_count += 1
        except RowCompileError:
            return None
        context.statistics.exprs_compiled += compiled_count
        return self._run_fused(context, scan, table, binding_name,
                               scan_predicate, filter_fns, compiled_items)

    def _run_fused(self, context: ExecutionContext, scan: "TableScan", table: Table,
                   binding_name: str, scan_predicate: Optional[CompiledExpression],
                   filter_fns: Sequence[tuple["FilterOp", CompiledExpression]],
                   compiled_items: Sequence[tuple[Optional[str], Optional[CompiledExpression]]]
                   ) -> Iterator[Binding]:
        statistics = context.statistics
        row_bytes = int(table.average_row_bytes())
        has_star = any(value_fn is None for _name, value_fn in compiled_items)
        predicates = [fn for _op, fn in filter_fns]
        # Counters accumulate in locals and flush once (also on early close,
        # e.g. under a TOP that stops pulling).
        scanned = 0
        scan_passed = 0
        filter_passed = [0] * len(predicates)
        emitted = 0
        try:
            for row in table.storage.iter_dicts(scan.columns):
                scanned += 1
                if scan_predicate is not None and scan_predicate(row) is not True:
                    continue
                scan_passed += 1
                rejected = False
                for position, predicate in enumerate(predicates):
                    if predicate(row) is not True:
                        rejected = True
                        break
                    filter_passed[position] += 1
                if rejected:
                    continue
                if has_star:
                    output: dict[str, Any] = {}
                    for name, value_fn in compiled_items:
                        if value_fn is None:
                            for column, value in row.items():
                                output.setdefault(column, value)
                        else:
                            output[name] = value_fn(row)
                else:
                    output = {name: value_fn(row) for name, value_fn in compiled_items}
                emitted += 1
                yield {binding_name: row, OUTPUT_BINDING: output}
        finally:
            statistics.rows_scanned += scanned
            statistics.bytes_scanned += scanned * row_bytes
            scan.actual_rows += scan_passed
            for (filter_op, _fn), passed in zip(filter_fns, filter_passed):
                filter_op.actual_rows += passed
            self.actual_rows += emitted

    def _expand_star(self, star: Star, binding: Binding, output: dict[str, Any]) -> None:
        names = ([star.qualifier.lower()] if star.qualifier
                 else [name for name in binding if name != OUTPUT_BINDING])
        for name in names:
            row = binding.get(name)
            if row is None:
                continue
            for column, value in row.items():
                output.setdefault(column, value)

    def details(self) -> str:
        return ", ".join(item.expression.sql() for item in self.items)


class DistinctOp(PhysicalOperator):
    """Duplicate elimination on the projected output row."""

    label = "Distinct"

    def __init__(self, child: PhysicalOperator):
        super().__init__()
        self.child = child

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        seen: set[tuple] = set()
        for binding in self.child.rows(context):
            output = binding.get(OUTPUT_BINDING, {})
            key = tuple(sorted((name, _hashable(value)) for name, value in output.items()))
            if key in seen:
                continue
            seen.add(key)
            yield self._emit(binding)


def _hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class InsertIntoOp(PhysicalOperator):
    """SELECT ... INTO ##results: materialise the output rows into a new table."""

    label = "Table Insert"

    def __init__(self, child: PhysicalOperator, target: str, database: Database):
        super().__init__()
        self.child = child
        self.target = target
        self.database = database

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def rows(self, context: ExecutionContext) -> Iterator[Binding]:
        collected: list[dict[str, Any]] = []
        for binding in self.child.rows(context):
            collected.append(dict(binding.get(OUTPUT_BINDING, {})))
        table = _create_table_for_rows(self.database, self.target, collected)
        for row in collected:
            table.insert(row, defer_index_sort=True)
        table.rebuild_indexes()
        for row in collected:
            yield self._emit({OUTPUT_BINDING: row})

    def details(self) -> str:
        return f"INTO {self.target}"


def _create_table_for_rows(database: Database, name: str,
                           rows: Sequence[dict[str, Any]]) -> Table:
    """Infer a column layout from result rows and (re)create the target table.

    A target that already has exactly this layout (the usual case: the
    same ``SELECT … INTO ##results`` run again) is emptied in place, so
    the catalog's schema version — and with it every cached plan — is
    untouched.  Any other existing table is dropped and replaced.
    """
    columns: list[Column] = []
    names: list[str] = []
    for row in rows:
        for key in row:
            if key not in names:
                names.append(key)
    if not names:
        names = ["value"]
    for key in names:
        sample = next((row[key] for row in rows if row.get(key) is not NULL), NULL)
        if isinstance(sample, bool):
            dtype = DataType.BOOLEAN
        elif isinstance(sample, int):
            dtype = DataType.BIGINT
        elif isinstance(sample, float):
            dtype = DataType.FLOAT
        elif isinstance(sample, (bytes, bytearray)):
            dtype = DataType.BLOB
        else:
            dtype = DataType.TEXT
        columns.append(Column(key, dtype, nullable=True))
    if database.has_table(name):
        existing = database.table(name)
        if (existing.columns == columns and not existing.indexes
                and not existing.checks and not existing.foreign_keys):
            existing.truncate()
            return existing
    return database.create_table(name, columns, replace=True,
                                 description=f"materialised results ({name})")


def evaluate_projected(expression: Expression, scope: RowScope,
                       evaluation: EvaluationContext) -> Any:
    """Evaluate a select-list / order-key expression, tolerating aggregation.

    Above a GroupAggregate the base columns are gone and the grouped
    values live in the synthetic output row keyed by column name or by
    the group expression's SQL text; if ordinary evaluation cannot
    resolve a column, the value is looked up there instead.  (This is
    the interpreter's form; ``compile_expression(projected=True)`` is
    the same rule decided once at compile time.)
    """
    try:
        return expression.evaluate(scope, evaluation)
    except UnknownColumnError:
        if isinstance(expression, ColumnRef):
            return scope.lookup(expression.name)
        return scope.lookup(expression.sql())


# ---------------------------------------------------------------------------
# Plan wrapper and result
# ---------------------------------------------------------------------------

@dataclass
class QueryResult:
    """The rows, column names, statistics and plan of one executed query."""

    columns: list[str]
    rows: list[dict[str, Any]]
    statistics: ExecutionStatistics
    plan: "PhysicalPlan"

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def column(self, name: str) -> list[Any]:
        key = name.lower()
        return [row.get(key, row.get(name)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        if not self.rows:
            return NULL
        first = self.rows[0]
        return next(iter(first.values())) if first else NULL


@dataclass
class PhysicalPlan:
    """A root operator plus the projection metadata needed to run it.

    Plans are reusable: the session's plan cache executes the same plan
    object for every repetition of a hot query, so per-run state (the
    operators' actual-row counters) is reset at the start of each
    execution and the statistics of the most recent run are kept on
    :attr:`last_statistics` for EXPLAIN output.
    """

    root: PhysicalOperator
    output_names: list[str]
    database: Database
    description: str = ""
    last_statistics: Optional[ExecutionStatistics] = None
    #: Whether the most recent execution ran with per-operator timers
    #: (EXPLAIN prints ``time=…ms`` only for timed runs).
    last_timed: bool = False

    def reset_actuals(self) -> None:
        """Zero the per-run actual-row counters before a (re-)execution."""

        def walk(operator: PhysicalOperator) -> None:
            operator.actual_rows = 0
            operator.actual_seconds = 0.0
            if isinstance(operator, TableScan):
                operator.actual_segments_scanned = 0
                operator.actual_segments_skipped = 0
                operator.actual_runtime_segments_pruned = 0
                operator.actual_runtime_rows_pruned = 0
            elif isinstance(operator, HashJoin):
                operator.runtime_filter_kind = None
                operator.runtime_segments_pruned = 0
                operator.runtime_rows_pruned = 0
            for child in operator.children():
                walk(child)

        walk(self.root)

    def execute(self, variables: Optional[dict[str, Any]] = None, *,
                row_limit: Optional[int] = None,
                time_limit_seconds: Optional[float] = None,
                compiled: bool = True,
                time_operators: bool = False) -> QueryResult:
        """Run the plan.  ``time_operators`` additionally accumulates
        per-operator inclusive wall time on ``actual_seconds`` (EXPLAIN
        ANALYZE's ``time=…ms``); it wraps every reached generator and so
        is *not* free — the regular path leaves it off.

        ``statistics.cpu_seconds`` is the CPU time of the calling thread
        (:func:`time.thread_time`), so a query running beside others in
        a serving pool is not charged theirs.  Cluster fragments run on
        the calling thread too, except under simulated per-shard I/O,
        which runs them on pool threads whose CPU it does not count."""
        from .errors import QueryLimitExceeded

        self.reset_actuals()
        context = ExecutionContext(
            database=self.database,
            evaluation=self.database.evaluation_context(variables),
            compile_enabled=compiled,
        )
        self.last_statistics = context.statistics
        self.last_timed = bool(time_operators)
        timed = self._install_operator_timers() if time_operators else None
        started_wall = time.perf_counter()
        started_cpu = time.thread_time()
        rows: list[dict[str, Any]] = []
        try:
            for binding in self.root.rows(context):
                output = binding.get(OUTPUT_BINDING, {})
                rows.append(dict(output))
                context.statistics.rows_returned += 1
                if row_limit is not None and len(rows) > row_limit:
                    raise QueryLimitExceeded(
                        f"query exceeded the public row limit of {row_limit} rows",
                        limit_kind="rows")
                if time_limit_seconds is not None and (
                        time.perf_counter() - started_wall) > time_limit_seconds:
                    raise QueryLimitExceeded(
                        f"query exceeded the public time limit of {time_limit_seconds} s",
                        limit_kind="time")
        finally:
            if timed is not None:
                self._remove_operator_timers(timed)
        context.statistics.elapsed_seconds = time.perf_counter() - started_wall
        context.statistics.cpu_seconds = time.thread_time() - started_cpu
        columns = self.output_names or (list(rows[0].keys()) if rows else [])
        return QueryResult(columns=columns, rows=rows,
                           statistics=context.statistics, plan=self)

    # -- per-operator timing (EXPLAIN ANALYZE) ------------------------------

    def _install_operator_timers(self) -> list[PhysicalOperator]:
        """Shadow each operator's ``rows`` with a timing wrapper.

        The wrapper is an *instance* attribute so plan shape, operator
        classes and cached-plan reuse are untouched; removal is just
        deleting the shadow.  Timing is inclusive (a parent's time
        contains its children's), matching EXPLAIN conventions.
        """
        wrapped: list[PhysicalOperator] = []
        seen: set[int] = set()

        def walk(operator: PhysicalOperator) -> None:
            if id(operator) in seen:
                return
            seen.add(id(operator))
            original = operator.rows

            def rows(context: ExecutionContext, *,
                     _op: PhysicalOperator = operator,
                     _original: Any = original) -> Iterator[Binding]:
                generator = _original(context)
                while True:
                    begin = time.perf_counter()
                    try:
                        item = next(generator)
                    except StopIteration:
                        _op.actual_seconds += time.perf_counter() - begin
                        return
                    _op.actual_seconds += time.perf_counter() - begin
                    yield item

            operator.rows = rows  # type: ignore[method-assign]
            wrapped.append(operator)
            for child in operator.children():
                walk(child)

        walk(self.root)
        return wrapped

    @staticmethod
    def _remove_operator_timers(wrapped: list[PhysicalOperator]) -> None:
        for operator in wrapped:
            operator.__dict__.pop("rows", None)

    def explain(self) -> str:
        from .explain import render_plan

        return render_plan(self)
