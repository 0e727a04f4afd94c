"""Always-on metrics: counters, gauges and fixed-bucket latency histograms.

The registry is deliberately tiny — a dict of named instruments behind
one lock — so every subsystem can afford to record into it on the hot
path.  The histogram uses fixed log-spaced bucket bounds (16us .. 64s)
and estimates p50/p95/p99 by linear interpolation inside the winning
bucket, which keeps ``observe()`` at one bisect + two adds and makes
the percentile error bounded by the bucket ratio (2x).

This module must not import anything from ``repro.engine`` — engine
modules import it.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "METRICS",
]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (queue depth, cache size, ...)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> float:
        return self._value


def _default_bounds() -> Tuple[float, ...]:
    # 16us doubling up to ~64s: 23 finite bounds + implicit overflow.
    bounds = []
    edge = 16e-6
    while edge <= 64.0:
        bounds.append(edge)
        edge *= 2.0
    return tuple(bounds)


#: Shared bucket bounds (seconds) for every latency histogram.
DEFAULT_BOUNDS: Tuple[float, ...] = _default_bounds()


class LatencyHistogram:
    """Fixed-bucket histogram of durations in seconds.

    ``observe`` is O(log buckets); percentiles are estimated by linear
    interpolation within the bucket that crosses the requested rank.
    """

    __slots__ = ("name", "bounds", "_lock", "_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, name: str = "",
                 bounds: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.bounds = tuple(bounds) if bounds is not None else DEFAULT_BOUNDS
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        if seconds < 0.0:
            seconds = 0.0
        index = bisect.bisect_left(self.bounds, seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += seconds
            if seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (q in [0, 100]) in seconds."""
        with self._lock:
            count = self._count
            if count == 0:
                return 0.0
            rank = max(1.0, (q / 100.0) * count)
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if seen + bucket_count >= rank:
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    upper = (self.bounds[index]
                             if index < len(self.bounds) else self._max)
                    if upper < lower:
                        upper = lower
                    fraction = (rank - seen) / bucket_count
                    value = lower + (upper - lower) * fraction
                    return min(max(value, self._min), self._max)
                seen += bucket_count
            return self._max

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = 0.0

    def snapshot(self) -> Dict[str, float]:
        """Count, mean and the headline percentiles, in milliseconds."""
        count = self._count
        if count == 0:
            return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                    "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
        return {
            "count": count,
            "mean_ms": round(self.mean() * 1000.0, 3),
            "p50_ms": round(self.percentile(50.0) * 1000.0, 3),
            "p95_ms": round(self.percentile(95.0) * 1000.0, 3),
            "p99_ms": round(self.percentile(99.0) * 1000.0, 3),
            "max_ms": round(self._max * 1000.0, 3),
        }


class MetricsRegistry:
    """Named instruments, created on first use and stable thereafter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = LatencyHistogram(name)
            return instrument

    def snapshot(self) -> Dict[str, object]:
        """All instruments as plain values, sorted by name."""
        with self._lock:
            counters = sorted(self._counters.values(), key=lambda c: c.name)
            gauges = sorted(self._gauges.values(), key=lambda g: g.name)
            histograms = sorted(self._histograms.values(),
                                key=lambda h: h.name)
        return {
            "counters": {c.name: c.snapshot() for c in counters},
            "gauges": {g.name: g.snapshot() for g in gauges},
            "histograms": {h.name: h.snapshot() for h in histograms},
        }

    def reset(self) -> None:
        """Zero every instrument in place (handles to them stay valid)."""
        with self._lock:
            instruments: List[object] = [*self._counters.values(),
                                         *self._gauges.values(),
                                         *self._histograms.values()]
        for instrument in instruments:
            instrument.reset()  # type: ignore[attr-defined]


#: Process-wide registry; subsystems cache instrument handles from it.
METRICS = MetricsRegistry()
