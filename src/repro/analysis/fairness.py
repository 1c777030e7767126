"""Fairness / chain-quality analysis over the merit parameter.

The paper deliberately stops short of formalizing fairness ("we only offer
a generic merit parameter that can be used to define fairness", Related
Work) — this module provides the natural instantiation so the hook can be
exercised:

* the **representation share** of a process is the fraction of the blocks
  on the selected chain (or in the whole tree) that it created;
* a run is **α-fair** (chain-quality style) when every process's share is
  at least ``α`` times its merit;
* :func:`fairness_report` compares shares against merits and reports the
  worst-case ratio, which the fairness ablation bench sweeps against merit
  skew.

This is an *extension* relative to the paper (no figure or theorem
script reads it; ``benchmarks/bench_ablation_fairness.py`` and the
``classify`` report do): the definitions follow the chain-quality
notion of Garay et al.'s Bitcoin backbone analysis, which the paper cites
for Bitcoin's eventual-consistency result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.block import Blockchain
from repro.core.blocktree import BlockTree
from repro.workload.merit import MeritDistribution

__all__ = ["FairnessReport", "creator_shares", "fairness_report"]


@dataclass(frozen=True)
class FairnessReport:
    """Merit-vs-representation comparison for one run."""

    shares: Dict[str, float]
    merits: Dict[str, float]
    ratios: Dict[str, float]
    worst_ratio: float
    blocks_counted: int

    def is_alpha_fair(self, alpha: float) -> bool:
        """``True`` iff every positive-merit process has share ≥ α · merit."""
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        return self.worst_ratio >= alpha

    def describe(self) -> str:
        lines = ["fairness (share / merit per process):"]
        for process in sorted(self.ratios):
            lines.append(
                f"  {process}: share={self.shares.get(process, 0.0):.3f} "
                f"merit={self.merits.get(process, 0.0):.3f} "
                f"ratio={self.ratios[process]:.2f}"
            )
        lines.append(f"  worst ratio: {self.worst_ratio:.2f} over {self.blocks_counted} blocks")
        return "\n".join(lines)


def creator_shares(chain_or_tree: Blockchain | BlockTree) -> Dict[str, float]:
    """Fraction of non-genesis blocks created by each process."""
    if isinstance(chain_or_tree, Blockchain):
        blocks = [b for b in chain_or_tree if not b.is_genesis]
    else:
        blocks = [b for b in chain_or_tree if not b.is_genesis]
    if not blocks:
        return {}
    counts: Dict[str, int] = {}
    for block in blocks:
        creator = block.creator or "?"
        counts[creator] = counts.get(creator, 0) + 1
    total = len(blocks)
    return {creator: count / total for creator, count in counts.items()}


def fairness_report(
    chain_or_tree: Blockchain | BlockTree,
    merit: MeritDistribution,
    processes: Optional[Tuple[str, ...]] = None,
) -> FairnessReport:
    """Compare each process's representation against its merit.

    ``processes`` restricts the report (default: every process with
    positive merit).  Zero-merit processes are excluded from the worst-case
    ratio — they are not entitled to any share.
    """
    shares = creator_shares(chain_or_tree)
    candidates = (
        tuple(processes)
        if processes is not None
        else tuple(p for p in merit.processes if merit.merit_of(p) > 0)
    )
    merits = {p: merit.merit_of(p) for p in candidates}
    ratios: Dict[str, float] = {}
    for process in candidates:
        entitled = merits[process]
        if entitled <= 0:
            continue
        ratios[process] = shares.get(process, 0.0) / entitled
    worst = min(ratios.values()) if ratios else 1.0
    blocks_counted = sum(
        1 for b in chain_or_tree if not getattr(b, "is_genesis", False)
    )
    return FairnessReport(
        shares=shares,
        merits=merits,
        ratios=ratios,
        worst_ratio=worst,
        blocks_counted=blocks_counted,
    )
