"""Paper-vs-measured reporting helpers shared by the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class ComparisonRow:
    """One metric compared between the paper and the reproduction."""

    metric: str
    paper_value: Any
    measured_value: Any
    unit: str = ""
    note: str = ""


@dataclass
class ExperimentReport:
    """A named experiment (one table or figure) and its comparison rows."""

    experiment: str
    description: str = ""
    rows: list[ComparisonRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, metric: str, paper_value: Any, measured_value: Any, *,
            unit: str = "", note: str = "") -> None:
        self.rows.append(ComparisonRow(metric, paper_value, measured_value, unit, note))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        lines = [f"== {self.experiment} =="]
        if self.description:
            lines.append(self.description)
        header = f"{'metric':<42s} {'paper':>16s} {'measured':>16s} {'unit':<12s} note"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(f"{row.metric:<42s} {_fmt(row.paper_value):>16s} "
                         f"{_fmt(row.measured_value):>16s} {row.unit:<12s} {row.note}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def ascii_series(labels: Sequence[str], values: Sequence[float], *, width: int = 50,
                 log_scale: bool = True, title: str = "") -> str:
    """A simple horizontal-bar rendering of a figure's series."""
    lines = [title] if title else []
    positive = [value for value in values if value > 0]
    peak = max(positive, default=1.0)
    floor = min(positive, default=0.1)
    for label, value in zip(labels, values):
        if value <= 0:
            bar = 0
        elif log_scale and peak > floor:
            bar = int(width * (math.log10(value / floor) + 1)
                      / (math.log10(peak / floor) + 1))
        else:
            bar = int(width * value / peak)
        lines.append(f"{label:>14s} {value:12.3f}  " + "#" * max(0, bar))
    return "\n".join(lines)


def same_order_of_magnitude(paper: float, measured: float, *, tolerance: float = 10.0) -> bool:
    """True when the two values agree to within a factor of ``tolerance``."""
    if paper <= 0 or measured <= 0:
        return False
    ratio = measured / paper
    return 1.0 / tolerance <= ratio <= tolerance
