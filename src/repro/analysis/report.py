"""Plain-text table rendering for the CLI, ``benchmarks/bench_*.py`` and ``examples/``.

The original paper's evaluation artefacts are figures of admissible
histories, a hierarchy diagram and one classification table; this
reproduction regenerates them as text.  The helpers here keep all of that
formatting in one place so the benches print uniform, diff-able output.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

__all__ = ["render_table", "render_classification_table"]


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a simple aligned text table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt(list(headers)))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def render_classification_table(results: Mapping[str, object]) -> str:
    """Render Table 1 (system → refinement) from classification results.

    ``results`` maps system name to
    :class:`repro.protocols.classification.ClassificationResult`.
    """
    rows = []
    for name in sorted(results):
        result = results[name]
        refinement = getattr(result, "refinement", None)
        expected = getattr(result, "expected", None)
        matches = getattr(result, "matches_paper", None)
        rows.append(
            [
                name,
                refinement.label() if refinement is not None else "(none)",
                expected.label() if expected is not None else "-",
                {True: "yes", False: "NO", None: "-"}[matches],
            ]
        )
    return render_table(
        ["system", "measured refinement", "paper (Table 1)", "match"],
        rows,
        title="Table 1 — mapping of existing systems",
    )
