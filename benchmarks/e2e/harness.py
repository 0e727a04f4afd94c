"""Measuring tools of the end-to-end benchmark: statistics, seeded request
streams' building blocks, and the benchmark-side span recorder.

Nothing here knows about a particular workload.  Spans are recorded
from *outside* the program: :func:`instrument` wraps the public entry
points of each layer (``parse_batch``, ``Planner.plan``,
``PhysicalPlan.execute``, ...) so a traced run times what the real
``server.query()`` / ``pool.execute()`` path calls, without changing a
line under ``src/``.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import itertools
import json
import math
import random
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

#: Percentiles a report may quote, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is only quoted when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(sample_count: int) -> float:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it (the median when none)."""
    best = PERCENTILES[0]
    for pct in PERCENTILES:
        if sample_count * (100.0 - pct) / 100.0 >= MIN_SAMPLES_BEYOND:
            best = pct
    return best


def geometric_mean(values: Iterable[float]) -> float:
    logs = [math.log(value) for value in values if value > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fingerprint(rows: Any) -> str:
    """The answer check's identity of a result: the repo's invariant is
    byte-identical ``repr`` across layouts, workers and shard counts."""
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

#: Rows the reference kernel scans and copies, and the time one kernel
#: run takes at the speed every reported time is normalised to (about
#: what the defining 2-core sandbox does when its host is quiet).
KERNEL_ROWS = 40_000
KERNEL_COPIES = 8_000
REFERENCE_KERNEL_S = 0.0065
#: Speed samples this close to a timed interval count toward its speed.
SPEED_WINDOW_S = 0.25


class SpeedMeter:
    """Cancels the host's speed drift out of the timings.

    On a shared sandbox the same Python code takes anything from 1x to
    2x as long from one ten-second stretch to the next, and every timing
    of the program moves with it.  The meter runs a fixed kernel between
    timed operations; :meth:`factor` turns a wall interval into
    *reference* time: what it would have taken had the kernel run in
    :data:`REFERENCE_KERNEL_S`.  The kernel does what the engine does
    -- scans a list of dict rows with a predicate, copies and sorts some
    -- because memory-bound code slows more than arithmetic when the
    host is busy (measured over 160 fig13 passes: suite spread 7.3 % as
    timed, 5.1 % divided by an arithmetic loop, 2.4 % by this kernel).
    Samples are taken by one thread, while the program under test is idle.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._rows = [{"a": rng.random(), "b": rng.random(), "c": number, "d": str(number)}
                      for number in range(KERNEL_ROWS)]
        self.ended: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        matches = 0
        for row in self._rows:
            if row["a"] * row["b"] > 0.5 and row["c"] % 3:
                matches += 1
        copies = [{"a": row["a"], "c": row["c"] + 1} for row in self._rows[:KERNEL_COPIES]]
        copies.sort(key=lambda row: row["a"])
        ended = time.perf_counter()
        self.ended.append(ended)
        self.seconds.append(ended - started)

    def sample_if_stale(self, gap: float = 0.1) -> None:
        if not self.ended or time.perf_counter() - self.ended[-1] > gap:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``: from
        the median of the samples taken within :data:`SPEED_WINDOW_S` of
        the interval (one sample is as jittery as what it corrects), and
        at least the nearest sample on each side."""
        first = bisect.bisect_left(self.ended, start - SPEED_WINDOW_S)
        last = bisect.bisect_right(self.ended, end + SPEED_WINDOW_S)
        first = min(first, max(0, bisect.bisect_right(self.ended, start) - 1))
        last = max(last, min(len(self.ended), bisect.bisect_left(self.ended, end) + 1))
        return REFERENCE_KERNEL_S / median(self.seconds[first:last])

    def reference_seconds(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)

    def speed(self) -> float:
        """This run's median speed relative to the reference (1.0 = reference)."""
        return REFERENCE_KERNEL_S / median(self.seconds)


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------

class Zipf:
    """Zipf(s) ranks over ``n`` items: rank ``k`` is drawn with weight
    ``1 / k**s`` (rank 0 is the most popular)."""

    def __init__(self, n: int, s: float = 1.1):
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        self._cumulative = list(itertools.accumulate(weights))

    def draw(self, rng) -> int:
        point = rng.random() * self._cumulative[-1]
        return min(bisect.bisect_left(self._cumulative, point),
                   len(self._cumulative) - 1)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Span:
    """One timed interval: ``{name, start, end, parent, request}``."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "request",
                 "covered")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional["Span"], request: Optional[int]):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        #: Seconds of this interval covered by direct child spans.
        self.covered = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part child spans cover."""
        return max(0.0, self.duration - self.covered)

    def as_dict(self) -> dict[str, Any]:
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end,
                "parent": self.parent.span_id if self.parent else None,
                "request": self.request}


class SpanRecorder:
    """Keeps spans in memory; one stack of open spans per thread.

    A span opened while another is open on the same thread becomes its
    child and inherits its request id.  Work the program hands to its
    own threads (pool workers, shard fragments) starts new roots there:
    those spans still count toward their layer's busy time, but are not
    subtracted from a parent on another thread.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(next(self._ids), name, time.perf_counter(), parent, request)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.covered += span.duration
            self.spans.append(span)

    def add(self, name: str, start: float, end: float,
            parent: Optional[Span]) -> Span:
        """Record an interval measured elsewhere on the same clock (a
        pool ticket's queue wait and service time) under ``parent``."""
        span = Span(next(self._ids), name, start, parent,
                    parent.request if parent else None)
        span.end = end
        if parent is not None:
            parent.covered += span.duration
        self.spans.append(span)
        return span

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def self_seconds(spans: Iterable[Span],
                 factor: Callable[[Span], float] = lambda span: 1.0) -> dict[str, float]:
    """Total self time per span name, each span's scaled by ``factor``
    (a traced run passes the speed meter's, to get reference time)."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.self_time * factor(span)
    return totals


#: Layer entry points a traced run wraps: (module, class or None,
#: attribute, span name).  The span name is the layer's module name.
WRAP_POINTS: tuple[tuple[str, Optional[str], str, str], ...] = (
    ("repro.pipeline.survey", "SyntheticSurvey", "run", "pipeline.generate"),
    ("repro.loader.loader", "SkyServerLoader", "run_step", "loader.steps"),
    ("repro.loader.loader", None, "create_indices", "schema.indices"),
    ("repro.loader.loader", None, "compute_neighbors", "schema.neighbors"),
    ("repro.loader.loader", None, "validate_database", "loader.validate"),
    ("repro.engine.table", "Table", "convert_storage", "engine.storage.convert"),
    ("repro.engine.catalog", "Database", "analyze_table", "engine.stats.analyze"),
    ("repro.cluster.shard", "ShardCluster", "from_database", "cluster.shard.split"),
    ("repro.engine.sql.session", None, "parse_batch", "engine.sql.parse"),
    ("repro.skyserver.pool", None, "parse_batch", "engine.sql.parse"),
    ("repro.cluster.executor", None, "parse_batch", "engine.sql.parse"),
    ("repro.engine.planner", "Planner", "plan", "engine.planner.plan"),
    ("repro.engine.operators", "PhysicalPlan", "execute", "engine.operators.execute"),
    ("repro.cluster.planner", "ClusterPlanner", "plan", "cluster.planner.plan"),
    ("repro.cluster.executor", "ClusterExecutor", "execute_plan", "cluster.executor.execute"),
    ("repro.telemetry.runtime", "Telemetry", "run_query", "telemetry"),
    ("repro.engine.durable", None, "encode_value", "storage.format.encode"),
    ("repro.storage.wal", "WriteAheadLog", "append", "storage.wal.append"),
    ("repro.engine.durable", "DurabilityManager", "checkpoint", "engine.durable.checkpoint"),
)


def instrument(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every :data:`WRAP_POINTS` entry in a span; returns the
    function that restores the originals.  With ``recorder.enabled``
    false a wrapper only forwards the call."""
    restores: list[tuple[Any, str, Any]] = []

    def wrap(original: Callable, name: str) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return original(*args, **kwargs)
            with recorder.span(name):
                return original(*args, **kwargs)
        return traced

    for module_name, class_name, attribute, span_name in WRAP_POINTS:
        owner: Any = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        # A classmethod is re-bound the way it was declared.
        declared = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
        if isinstance(declared, classmethod):
            replacement: Any = classmethod(wrap(declared.__func__, span_name))
        else:
            replacement = wrap(declared, span_name)
        restores.append((owner, attribute, declared))
        setattr(owner, attribute, replacement)

    def restore() -> None:
        for owner, attribute, declared in reversed(restores):
            setattr(owner, attribute, declared)

    return restore
