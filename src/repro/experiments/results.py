"""Result containers and table formatting for experiment sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

Number = Union[int, float]


@dataclass
class FigureResult:
    """One reproduced table/figure: series of values per method.

    ``series`` maps a method label to ``{parameter value: measurement}``;
    ``unit`` names the measurement (e.g. ``"ms/doc"``).
    """

    figure: str
    title: str
    param_name: str
    param_values: List[Number]
    series: Dict[str, Dict[Number, float]]
    unit: str = "ms/doc"
    notes: str = ""
    #: Machine-independent companion tables (work counters) rendered
    #: alongside the wall-clock series — pure-Python wall time is noisy
    #: at benchmark scale, counters are deterministic.
    companions: List["FigureResult"] = field(default_factory=list)

    def format_table(self) -> str:
        """Render the paper-style rows (methods × parameter values)."""
        header_cells = [f"{self.param_name:>14s}"] + [
            f"{value!s:>10s}" for value in self.param_values
        ]
        lines = [
            f"== {self.figure}: {self.title} [{self.unit}] ==",
            " ".join(header_cells),
        ]
        for method, values in self.series.items():
            cells = [f"{method:>14s}"]
            for param in self.param_values:
                value = values.get(param)
                cells.append("         -" if value is None else f"{value:10.3f}")
            lines.append(" ".join(cells))
        if self.notes:
            lines.append(f"   note: {self.notes}")
        for companion in self.companions:
            lines.append("")
            lines.append(companion.format_table())
        return "\n".join(lines)

    def ratio(self, method_a: str, method_b: str) -> Dict[Number, float]:
        """Per-parameter ratio ``method_a / method_b`` (shape checks)."""
        out = {}
        for param in self.param_values:
            a = self.series[method_a].get(param)
            b = self.series[method_b].get(param)
            if a is not None and b not in (None, 0):
                out[param] = a / b
        return out


@dataclass
class UserStudyResult:
    """Table 6: method -> aspect -> 1-5 rating."""

    table: Dict[str, Dict[str, float]]
    raw: Dict[str, Dict[str, float]] = field(default_factory=dict)

    figure = "Table 6"
    ASPECTS = ("Relevance", "Recency", "Range of Int.", "Overall")

    def format_table(self) -> str:
        lines = [
            f"== {self.figure}: User Study (automatic proxies, 1-5 rescaled) ==",
            f"{'Method':>18s} " + " ".join(f"{a:>14s}" for a in self.ASPECTS),
        ]
        for method, row in self.table.items():
            cells = " ".join(f"{row[a]:14.1f}" for a in self.ASPECTS)
            lines.append(f"{method:>18s} {cells}")
        if self.raw:
            lines.append("-- raw aspect values --")
            aspects = ("Relevance", "Recency", "Range of Int.")
            lines.append(
                f"{'Method':>18s} " + " ".join(f"{a:>14s}" for a in aspects)
            )
            for method, row in self.raw.items():
                cells = " ".join(f"{row[a]:14.4f}" for a in aspects)
                lines.append(f"{method:>18s} {cells}")
        return "\n".join(lines)
