"""Query-plan rendering.

The paper shows graphical plans for Query 1 (Figure 10: a table-valued
function nested-loop-joined against PhotoObj, sorted, inserted into a
results table), Query 15A (Figure 11: a parallel table scan) and the
NEO pair query (Figure 12: a nested-loop join of two index scans).
:func:`render_plan` produces an indented text rendering of the same
information: operator, target object, predicate, the planner's
estimated rows and cumulative cost (``planner_rows``/``planner_cost``,
which the planner sets on every operator of a plan) and — after
execution — actual rows, segment counts and runtime-filter pruning.
The engine executes serially, so no plan carries a worker count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .operators import PhysicalOperator
from .stats import q_error

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .operators import PhysicalPlan


def render_operator(operator: PhysicalOperator, depth: int = 0,
                    executed: bool = False, timed: bool = False) -> list[str]:
    indent = "  " * depth
    details = operator.details()
    line = f"{indent}-> {operator.label}"
    if details:
        line += f" [{details}]"
    line += f" (estimated rows={operator.planner_rows}"
    if operator.planner_cost:
        line += f" cost={operator.planner_cost:.1f}"
    if executed or operator.actual_rows:
        # After EXPLAIN ANALYZE, every operator reports its actual row
        # count — zero included: "produced nothing" is an actual, not a
        # missing estimate.  The estimate is repeated as ``est=`` with
        # its q-error so misestimates (the cardinality-feedback trigger)
        # are visible right next to the observed count.
        line += f", actual rows={operator.actual_rows}"
        if timed and operator.actual_seconds > 0.0:
            # Inclusive wall time from the span clocks installed by
            # ``execute(time_operators=True)``; operators the execution
            # never drove row-at-a-time (the children of a batch
            # pipeline) carry no time of their own and print none.
            line += f" time={operator.actual_seconds * 1000.0:.3f}ms"
        if operator.planner_rows is not None:
            error = q_error(operator.planner_rows, operator.actual_rows)
            line += f" est={operator.planner_rows} q-err={error:.1f}"
        scanned = getattr(operator, "actual_segments_scanned", 0)
        skipped = getattr(operator, "actual_segments_skipped", 0)
        if scanned or skipped:
            line += (f" segments={scanned}/{scanned + skipped}"
                     f" skipped={skipped}")
        kind = getattr(operator, "runtime_filter_kind", None)
        if kind is not None:
            line += (f" runtime_filter: {kind},"
                     f" pruned={operator.runtime_segments_pruned}"
                     f"/{operator.runtime_rows_pruned}")
    line += ")"
    lines = [line]
    for child in operator.children():
        lines.extend(render_operator(child, depth + 1, executed, timed))
    return lines


def render_plan(plan: "PhysicalPlan") -> str:
    header = []
    if plan.description:
        header.append(plan.description)
    statistics = plan.last_statistics
    lines = header + render_operator(plan.root, executed=statistics is not None,
                                     timed=getattr(plan, "last_timed", False))
    if statistics is not None:
        footer = (f"[compiled exprs={statistics.exprs_compiled}; "
                  f"plan cache hits={statistics.plan_cache_hits} "
                  f"misses={statistics.plan_cache_misses}")
        if statistics.batches_processed:
            footer += (f"; batches={statistics.batches_processed} "
                       f"({statistics.batch_rows} rows); "
                       f"vector fallbacks={statistics.vector_fallbacks}")
        lines.append(footer + "]")
    return "\n".join(lines)


def plan_operators(plan: "PhysicalPlan") -> list[str]:
    """The operator labels of a plan in pre-order (handy for tests)."""
    labels: list[str] = []

    def walk(operator: PhysicalOperator) -> None:
        labels.append(operator.label)
        for child in operator.children():
            walk(child)

    walk(plan.root)
    return labels


def plan_strategies(plan: "PhysicalPlan") -> list[str]:
    """:func:`plan_operators` without the ``Batch`` prefix: the access
    paths and join strategies the planner chose, however they run."""
    return [label.removeprefix("Batch ") for label in plan_operators(plan)]
