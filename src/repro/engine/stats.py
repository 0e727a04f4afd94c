"""Table and column statistics: the optimizer's view of the data.

SQL Server's optimizer (the substrate the paper's plans come from —
Figures 10-12 all show *chosen* plans) estimates predicate selectivity
from per-column statistics collected by ``UPDATE STATISTICS`` /
auto-stats.  This module reproduces that subsystem for the engine:

* :func:`collect_table_statistics` scans one table and builds a
  :class:`TableStatistics` — the live row count plus, per column, a
  :class:`ColumnStatistics` carrying a distinct-count estimate, the
  min/max, the null fraction, an **equi-depth histogram** and the
  **most-common values** (MCVs) with their frequencies.
* The SQL statement ``ANALYZE [table]`` (and the loader, automatically,
  after a load) stores the result in the catalog
  (:meth:`repro.engine.catalog.Database.analyze_table`).
* The planner's cost-based optimizer asks :class:`ColumnStatistics`
  for equality and range selectivities; when a column (or the whole
  table) has no statistics the planner falls back to its fixed
  selectivity constants, exactly as before.

Statistics are **staleness-tracked**: each snapshot records the owning
table's modification counter (bumped by every INSERT/DELETE/TRUNCATE),
so ``SkyServer.site_statistics()`` can report how far out of date each
table's statistics have drifted.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, TYPE_CHECKING

from .types import NULL, DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import Table

#: Equi-depth histogram resolution (buckets per column).
HISTOGRAM_BUCKETS = 64

#: Most-common values kept per column.
MCV_COUNT = 8

#: Selectivities never collapse below this (protects against a histogram
#: claiming literally zero rows for a bound just outside the data).
MIN_SELECTIVITY = 1e-6

#: A cardinality estimate whose q-error reaches this bound is considered
#: a misestimate: the session feedback cache invalidates the cached plan
#: and re-plans with the observed row counts as overrides.
FEEDBACK_QERROR_THRESHOLD = 4.0


def q_error(estimated: int, actual: int) -> float:
    """The symmetric ratio error ``max(est/actual, actual/est)``.

    Both sides are clamped to one row first, so a zero on either side
    (a filter that matched nothing, or an estimate rounded down) yields
    a finite ratio instead of a division error.  1.0 means the estimate
    was exact; the value is always >= 1.0.
    """
    est = max(1, int(estimated))
    act = max(1, int(actual))
    return est / act if est >= act else act / est


@dataclass
class ColumnStatistics:
    """One column's statistics snapshot.

    ``histogram_bounds`` is a sorted list of ``bucket_count + 1``
    boundary values taken at equi-depth quantiles of the non-NULL
    values (so each bucket holds roughly the same number of rows);
    it is empty when the column's values do not sort (mixed types) or
    the column was empty.  ``mcvs`` maps the most common values to
    their occurrence counts (only values occurring more than once).
    """

    column: str
    dtype: DataType
    row_count: int
    null_count: int
    distinct_count: int
    minimum: Any = None
    maximum: Any = None
    histogram_bounds: list = field(default_factory=list)
    mcvs: dict = field(default_factory=dict)

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    # -- selectivity estimation ------------------------------------------

    def equality_selectivity(self, value: Any) -> Optional[float]:
        """Estimated fraction of the table's rows with ``column = value``.

        MCVs answer exactly; other values get the uniform share of the
        non-MCV remainder.  Returns None when the column has no usable
        statistics (the planner then falls back to its constant).
        """
        if self.row_count == 0:
            return MIN_SELECTIVITY
        try:
            hit = self.mcvs.get(value)
        except TypeError:
            return None
        if hit is not None:
            return max(hit / self.row_count, MIN_SELECTIVITY)
        if self.distinct_count <= 0:
            return None
        rest_rows = max(0, self.non_null_count - sum(self.mcvs.values()))
        rest_distinct = max(1, self.distinct_count - len(self.mcvs))
        return max(rest_rows / rest_distinct / self.row_count, MIN_SELECTIVITY)

    def range_selectivity(self, low: Any = None, high: Any = None) -> Optional[float]:
        """Estimated fraction of rows with ``low <= column <= high``.

        Open bounds are passed as None.  Uses the equi-depth histogram
        with linear interpolation inside numeric buckets.  Returns None
        without a histogram or when the bounds do not compare to the
        boundary values.
        """
        if self.row_count == 0:
            return MIN_SELECTIVITY
        if not self.histogram_bounds:
            return None
        try:
            fraction_high = (1.0 if high is None
                             else self._fraction_at_most(high))
            fraction_low = (0.0 if low is None
                            else self._fraction_at_most(low, before=True))
        except TypeError:
            return None
        inside = max(0.0, min(1.0, fraction_high - fraction_low))
        rows = inside * self.non_null_count
        # Point or narrow ranges interpolate to near-zero bucket width
        # even when they bracket a heavy duplicate; the MCV frequencies
        # inside the range are an exact lower bound.
        try:
            mcv_rows = sum(count for value, count in self.mcvs.items()
                           if (low is None or value >= low)
                           and (high is None or value <= high))
        except TypeError:
            mcv_rows = 0
        selectivity = max(rows, mcv_rows) / self.row_count
        return max(selectivity, MIN_SELECTIVITY)

    def _fraction_at_most(self, value: Any, *, before: bool = False) -> float:
        """Fraction of non-NULL values ``<= value`` (``< value`` with before).

        Duplicate-heavy columns repeat a value across several boundary
        entries; bisecting to the last (``<=``) or first (``<``)
        occurrence counts every bucket the value spans, so a point
        range over a frequent value keeps its real mass.
        """
        bounds = self.histogram_bounds
        buckets = len(bounds) - 1
        if buckets <= 0:
            # Single-value histogram: everything equals bounds[0].
            if value > bounds[0] or (not before and value == bounds[0]):
                return 1.0
            return 0.0
        position = (bisect.bisect_left(bounds, value) if before
                    else bisect.bisect_right(bounds, value))
        if position == 0:
            return 0.0
        if position > buckets:
            return 1.0
        lower, upper = bounds[position - 1], bounds[position]
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and isinstance(lower, (int, float)) and isinstance(upper, (int, float)) \
                and upper > lower:
            within = (value - lower) / (upper - lower)
        else:
            within = 0.5
        return (position - 1 + max(0.0, min(1.0, within))) / buckets


@dataclass
class TableStatistics:
    """One table's statistics snapshot, as stored in the catalog."""

    table: str
    row_count: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)
    #: The table's modification counter at collection time; comparing it
    #: against the live counter measures staleness.
    modification_counter: int = 0

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name.lower())

    def modifications_since(self, table: "Table") -> int:
        return max(0, table.modification_counter - self.modification_counter)

    def is_stale(self, table: "Table") -> bool:
        return table.modification_counter != self.modification_counter


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------

def collect_table_statistics(table: "Table", *,
                             bucket_count: int = HISTOGRAM_BUCKETS,
                             mcv_count: int = MCV_COUNT) -> TableStatistics:
    """One-pass ANALYZE of ``table``: statistics for every column."""
    values_by_column = _column_values(table)
    row_count = table.row_count
    columns: dict[str, ColumnStatistics] = {}
    for column in table.columns:
        name = column.name.lower()
        values = values_by_column.get(name, [])
        columns[name] = _column_statistics(name, column.dtype, values, row_count,
                                           bucket_count=bucket_count,
                                           mcv_count=mcv_count)
    return TableStatistics(table=table.name, row_count=row_count, columns=columns,
                           modification_counter=table.modification_counter)


def _column_values(table: "Table") -> dict[str, list]:
    """Non-NULL values per column, reading column buffers directly when possible."""
    storage = table.storage
    collected: dict[str, list] = {column.name.lower(): [] for column in table.columns}
    if storage.kind == "column":
        buffers, masks = storage.batch_columns()
        live = storage.live_positions(0, len(storage))
        for name, values in collected.items():
            buffer = buffers[name]
            mask = masks.get(name)
            if mask is None:
                values.extend(buffer[i] for i in live)
            else:
                values.extend(buffer[i] for i in live if not mask[i])
        return collected
    for row in storage.iter_dicts():
        for name, values in collected.items():
            value = row.get(name, NULL)
            if value is not NULL and value is not None:
                values.append(value)
    return collected


def _column_statistics(name: str, dtype: DataType, values: list, row_count: int, *,
                       bucket_count: int, mcv_count: int) -> ColumnStatistics:
    null_count = row_count - len(values)
    distinct = 0
    mcvs: dict = {}
    try:
        counter = Counter(values)
        distinct = len(counter)
        mcvs = {value: count for value, count
                in counter.most_common(mcv_count) if count > 1}
    except TypeError:
        # Unhashable values: no distinct estimate, no MCVs.
        pass
    minimum = maximum = None
    bounds: list = []
    if values:
        try:
            ordered = sorted(values)
        except TypeError:
            ordered = None
        if ordered is not None:
            minimum, maximum = ordered[0], ordered[-1]
            bounds = _equi_depth_bounds(ordered, bucket_count)
    return ColumnStatistics(column=name, dtype=dtype, row_count=row_count,
                            null_count=null_count, distinct_count=distinct,
                            minimum=minimum, maximum=maximum,
                            histogram_bounds=bounds, mcvs=mcvs)


def _equi_depth_bounds(ordered: Sequence, bucket_count: int) -> list:
    """Boundary values at equi-depth quantiles of an already-sorted sample."""
    n = len(ordered)
    buckets = max(1, min(bucket_count, n - 1)) if n > 1 else 0
    if buckets == 0:
        return [ordered[0]]
    bounds = [ordered[round(i * (n - 1) / buckets)] for i in range(buckets + 1)]
    return bounds
