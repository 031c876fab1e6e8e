"""ASCII result tables of the regenerated paper figures.

Whatever regenerates a paper table/figure prints one
:class:`ResultTable` whose rows mirror the paper's series, plus the
paper's reported range where the paper gives one, so a reader can
eyeball paper-vs-measured without opening the PDF.

:func:`sweep_table` builds the tables from *persisted* sweep results
(:class:`repro.sim.CellResult` records out of a
:class:`repro.sim.ResultStore`), so ``scout-repro sweep`` renders --
and shape-checks, see :mod:`repro.workload.figures` -- a figure from a
store file without re-simulating a single cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = ["ResultTable", "format_row", "paper_reference", "sweep_table"]

#: Shape expectations lifted from the paper's text, keyed by figure id.
#: Values are prose, not numbers to assert on -- the harness reproduces
#: *shapes*, not testbed-specific absolutes; the checkable form of each
#: note is the ``shape`` of its ``Figure`` entry (see DESIGN.md §4).
_PAPER_NOTES: dict[str, str] = {
    "fig3": "Best baseline (EWMA 0.3) <= 44%; accuracy drops as query volume grows.",
    "fig10sweep": "SCOUT across the Fig-10 registry: visualization rows highest, ad-hoc lowest.",
    "fig11a": "SCOUT wins every no-gap microbenchmark, exceeding 90% on some; ad-hoc lowest.",
    "fig11b": "Speedups correlate with accuracy; SCOUT up to ~15x.",
    "fig12": "With gaps SCOUT only slightly beats trajectory methods; SCOUT-OPT is clearly best.",
    "fig13a": "Accuracy decreases gradually with query volume (speedup 9 -> 4.5).",
    "fig13b": "Accuracy roughly flat (~80%) as density grows; speedup constant.",
    "fig13c": "Longer sequences improve accuracy, reaching ~93% at 55 queries.",
    "fig13d": "Accuracy rises from ~29% (ratio 0.1) to ~88% (ratio 2.5).",
    "fig13e": "Good accuracy down to 512 grid cells, then a substantial drop.",
    "fig13f": "Accuracy falls with gap distance; SCOUT-OPT well above SCOUT.",
    "fig14": "Graph building ~15% of response time, prediction <= 6%, rest residual I/O.",
    "fig15": "Graph building linear in result size; SCOUT-OPT scales better than SCOUT.",
    "fig16": "Prediction time per result element decreases along the sequence.",
    "fig17a": "Small queries: SCOUT best on lung/roads; EWMA (96%) beats SCOUT (90%) on arterial.",
    "fig17b": "Large queries: SCOUT best on all three datasets (up to ~73%).",
    "mem": "Prediction structures ~24% of result footprint for SCOUT, ~6% for SCOUT-OPT.",
    "clients": "Extension beyond the paper: per-client accuracy should hold while the "
    "shared cache has headroom, then degrade as client count x working set outgrows it.",
}


def paper_reference(figure_id: str) -> str:
    """The paper's reported shape for a figure (empty if unlisted)."""
    return _PAPER_NOTES.get(figure_id, "")


def format_row(label: str, values, width: int = 9, precision: int = 1) -> str:
    """One fixed-width table row: a label column plus numeric cells."""
    cells = []
    for value in values:
        if value is None:
            cells.append(" " * width)
        elif isinstance(value, str):
            cells.append(value.rjust(width))
        else:
            cells.append(f"{value:{width}.{precision}f}")
    return f"{label:<28s}" + "".join(cells)


@dataclass
class ResultTable:
    """A labelled grid of results with column headers."""

    title: str
    columns: list[str]
    figure_id: str = ""
    rows: list[tuple[str, list]] = field(default_factory=list)
    precision: int = 1

    def add_row(self, label: str, values) -> None:
        values = list(values)
        if len(values) != len(self.columns):
            raise ValueError(
                f"row {label!r} has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append((label, values))

    def render(self) -> str:
        width = max(9, max((len(c) for c in self.columns), default=9) + 1)
        lines = [f"== {self.title} =="]
        note = paper_reference(self.figure_id)
        if note:
            lines.append(f"paper: {note}")
        lines.append(format_row("", self.columns, width=width))
        for label, values in self.rows:
            lines.append(format_row(label, values, width=width, precision=self.precision))
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())

    def row_values(self, row_label: str) -> list:
        """All cells of one row, in column order."""
        for label, values in self.rows:
            if label == row_label:
                return list(values)
        raise KeyError(f"no row {row_label!r} in table {self.title!r}")


def sweep_table(
    title: str,
    results: Iterable,
    column_of: Callable[[Any], Any],
    row_of: Callable[[Any], str],
    value_of: Callable[[Any], Any],
    figure_id: str = "",
    precision: int = 1,
) -> ResultTable:
    """Pivot stored sweep results into a :class:`ResultTable`.

    ``results`` is any iterable of result records (typically
    :class:`repro.sim.CellResult` objects loaded from a store).
    ``column_of`` extracts the x-axis value, ``row_of`` the series label
    and ``value_of`` the plotted number.  Columns and rows keep first-
    appearance order so a matrix's axis ordering survives the round trip
    through the store; cells absent from ``results`` render blank.
    """
    results = list(results)
    columns: list[Any] = []
    row_labels: list[str] = []
    grid: dict[tuple[str, Any], Any] = {}
    for result in results:
        column = column_of(result)
        row = row_of(result)
        if column not in columns:
            columns.append(column)
        if row not in row_labels:
            row_labels.append(row)
        grid[(row, column)] = value_of(result)

    table = ResultTable(
        title,
        [c if isinstance(c, str) else f"{c:g}" for c in columns],
        figure_id=figure_id,
        precision=precision,
    )
    for row in row_labels:
        table.add_row(row, [grid.get((row, column)) for column in columns])
    return table
