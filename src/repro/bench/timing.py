"""Timing helpers: wall-clock plus CPU, as Figure 13 plots both.

CPU is the measuring thread's (:func:`time.thread_time`), so a region
measured while other threads work is not charged their CPU.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Timing:
    """Elapsed and CPU seconds of one measured region."""

    elapsed_seconds: float = 0.0
    cpu_seconds: float = 0.0

    def __str__(self) -> str:
        return f"{self.elapsed_seconds:.3f}s elapsed / {self.cpu_seconds:.3f}s cpu"


@contextmanager
def measure() -> Iterator[Timing]:
    """Context manager measuring elapsed and thread-CPU time of its body."""
    timing = Timing()
    started_wall = time.perf_counter()
    started_cpu = time.thread_time()
    try:
        yield timing
    finally:
        timing.elapsed_seconds = time.perf_counter() - started_wall
        timing.cpu_seconds = time.thread_time() - started_cpu


@dataclass
class QueryTimingTable:
    """Accumulates per-query timings and renders the Figure 13 series."""

    entries: list[tuple[str, Timing, int]] = field(default_factory=list)

    def add(self, label: str, timing: Timing, rows: int = 0) -> None:
        self.entries.append((label, timing, rows))

    def sorted_by_elapsed(self) -> list[tuple[str, Timing, int]]:
        return sorted(self.entries, key=lambda entry: entry[1].elapsed_seconds)

    def render(self) -> str:
        lines = [f"{'query':>8s} {'rows':>8s} {'cpu (s)':>10s} {'elapsed (s)':>12s}"]
        for label, timing, rows in self.sorted_by_elapsed():
            lines.append(f"{label:>8s} {rows:8d} {timing.cpu_seconds:10.3f} "
                         f"{timing.elapsed_seconds:12.3f}")
        return "\n".join(lines)
