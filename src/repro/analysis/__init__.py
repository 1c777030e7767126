"""Analysis utilities: fork statistics, convergence metrics, report rendering.

These are the measurement tools the benchmark harness uses to turn raw
runs (histories + replica trees) into the numbers and tables printed by
the CLI (README "CLI") and the reproduction scripts
(``benchmarks/bench_*.py``):

* :mod:`repro.analysis.forks` — per-run fork statistics (fork points,
  maximal fork degree, wasted blocks), the quantities the k-fork-coherence
  and fork-rate ablations sweep;
* :mod:`repro.analysis.convergence` — common-prefix / divergence metrics
  over replica views and over read histories (the quantitative face of
  the Eventual Prefix property);
* :mod:`repro.analysis.report` — plain-text table rendering used by the
  benches and examples so every "figure" and "table" of the paper has a
  textual counterpart in this reproduction.
"""

from repro.analysis.forks import ForkStatistics, fork_statistics, wasted_block_ratio
from repro.analysis.convergence import (
    ConvergenceSummary,
    common_prefix_depth,
    divergence_by_pair,
    convergence_summary,
)
from repro.analysis.fairness import FairnessReport, creator_shares, fairness_report
from repro.analysis.report import render_table, render_classification_table

__all__ = [
    "ForkStatistics",
    "fork_statistics",
    "wasted_block_ratio",
    "ConvergenceSummary",
    "common_prefix_depth",
    "divergence_by_pair",
    "convergence_summary",
    "FairnessReport",
    "creator_shares",
    "fairness_report",
    "render_table",
    "render_classification_table",
]
