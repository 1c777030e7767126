"""Fork statistics over BlockTrees and protocol runs.

The paper's oracles differ precisely in how many forks they allow per
block, so the quantitative companion to the k-Fork-Coherence theorem is a
set of fork statistics: how many fork points a run produced, the maximal
fork degree, and how many blocks ended up off the selected chain ("wasted"
work).  The fork-rate ablation bench sweeps the oracle bound and the
network delay against these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.blocktree import BlockTree
from repro.core.selection import LongestChain, SelectionFunction

__all__ = ["ForkStatistics", "fork_statistics", "merge_statistics"]


@dataclass(frozen=True)
class ForkStatistics:
    """Summary of the branching structure of one BlockTree."""

    total_blocks: int
    height: int
    leaves: int
    fork_points: int
    max_fork_degree: int
    blocks_on_selected_chain: int

    @property
    def wasted_blocks(self) -> int:
        """Blocks that are in the tree but not on the selected chain."""
        return self.total_blocks - self.blocks_on_selected_chain

    @property
    def wasted_ratio(self) -> float:
        """Fraction of non-genesis blocks not on the selected chain."""
        non_genesis = max(self.total_blocks - 1, 1)
        wasted_non_genesis = max(self.wasted_blocks - 0, 0)
        return wasted_non_genesis / non_genesis


_LONGEST = LongestChain()


def fork_statistics(
    tree: BlockTree, selection: Optional[SelectionFunction] = None
) -> ForkStatistics:
    """Compute :class:`ForkStatistics` for one tree.

    The selected-chain length is recovered from the tree's cached heights
    (``height_of(tip) + 1``) rather than by measuring a rematerialized
    chain, and the selection itself is index-backed and memoized, so this
    is cheap even on large fork-heavy trees.
    """
    chain = (selection if selection is not None else _LONGEST)(tree)
    return ForkStatistics(
        total_blocks=len(tree),
        height=tree.height,
        leaves=len(tree.leaves()),
        fork_points=len(tree.fork_points()),
        max_fork_degree=tree.max_fork_degree(),
        blocks_on_selected_chain=tree.height_of(chain.tip.block_id) + 1,
    )


def merge_statistics(per_replica: Mapping[str, ForkStatistics]) -> Dict[str, float]:
    """Aggregate per-replica statistics into run-level averages."""
    if not per_replica:
        return {
            "replicas": 0.0,
            "mean_blocks": 0.0,
            "mean_forks": 0.0,
            "max_fork_degree": 0.0,
            "mean_wasted_ratio": 0.0,
        }
    stats = list(per_replica.values())
    return {
        "replicas": float(len(stats)),
        "mean_blocks": sum(s.total_blocks for s in stats) / len(stats),
        "mean_forks": sum(s.fork_points for s in stats) / len(stats),
        "max_fork_degree": float(max(s.max_fork_degree for s in stats)),
        "mean_wasted_ratio": sum(s.wasted_ratio for s in stats) / len(stats),
    }
