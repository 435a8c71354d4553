"""Fixed-width experiment tables (used by every benchmark).

Benchmarks print paper-claim vs. measured rows; this keeps the format
uniform across them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Table"]


@dataclass
class Table:
    """A fixed-width text table with a title and optional footnote."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    note: str = ""

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [f"== {self.title} =="]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render() + "\n")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.2f}"
    return str(v)
