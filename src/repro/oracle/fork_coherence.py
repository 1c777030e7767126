"""k-Fork Coherence (Definition 3.9, Theorem 3.2).

A concurrent history of the BT-ADT composed with Θ_F satisfies k-Fork
Coherence if at most ``k`` ``append()`` operations return ``⊤`` for the
same token.  Theorem 3.2 shows the composition satisfies it *by
construction*; :func:`check_fork_coherence_from_oracle` confirms that on
every generated execution by inspecting the oracle's ``K`` sets (and
demonstrates, conversely, that prodigal runs exceed any finite bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.oracle.theta import TokenOracle

__all__ = [
    "ForkCoherenceResult",
    "check_fork_coherence_from_oracle",
]


@dataclass(frozen=True)
class ForkCoherenceResult:
    """Outcome of a k-Fork-Coherence check."""

    k: float
    holds: bool
    per_token: Dict[str, int] = field(default_factory=dict)
    violations: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.holds

    @property
    def max_forks(self) -> int:
        """The largest number of successful appends observed for one token."""
        return max(self.per_token.values(), default=0)


def check_fork_coherence_from_oracle(oracle: TokenOracle, k: Optional[float] = None) -> ForkCoherenceResult:
    """Verify ``|K[h]| ≤ k`` for every parent block ``h``.

    ``k`` defaults to the oracle's own bound; passing a smaller value lets
    benches ask "would this prodigal run have satisfied k-fork coherence?"
    """
    bound = oracle.k if k is None else k
    counts = oracle.consumed_counts()
    violations = tuple(
        f"token for parent {parent!r} consumed {count} times (bound {bound})"
        for parent, count in sorted(counts.items())
        if count > bound
    )
    return ForkCoherenceResult(
        k=bound, holds=not violations, per_token=counts, violations=violations
    )
