"""Algorand model (Section 5.4).

Algorand's cryptographic sortition selects, per round and weighted by
stake, a highest-priority block proposer (the ``getToken`` realization);
the BA* Byzantine-agreement variant then commits that proposer's block —
the ``consumeToken`` realization — so that, with overwhelming probability,
a single block extends each parent.  The paper classifies Algorand as
``R(BT-ADT_SC, Θ_{F,k=1})`` *with high probability* (Table 1 annotates the
entry "SC w.h.p"): in unfavourable conditions BA* may fork with
probability below 1e-7.

Mapping onto the committee engine:

* proposer selection = stake-weighted per-round lottery (the sortition);
* commit = the committee vote (BA*), with the whole process set acting as
  the committee (every account participates, weighted by stake);
* oracle = Θ_{F,k=1}; the vanishing fork probability is not simulated by
  default (``fork_probability=0``) but can be enabled to observe the
  "w.h.p." caveat empirically.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.engine.registry import register_protocol
from repro.protocols.base import System, system_runner
from repro.protocols.committee import run_committee_protocol, weighted_lottery_proposer
from repro.workload.merit import MeritDistribution, proportional_merit

__all__ = ["run_algorand", "default_stake"]


def default_stake(n: int) -> MeritDistribution:
    """A mildly skewed stake distribution (account ``i`` holds ``i + 1`` coins)."""
    return proportional_merit([float(i + 1) for i in range(n)])


@register_protocol(
    "algorand",
    description="Stake-weighted sortition + BA*-style commit (Algorand model)",
)
@system_runner
def run_algorand(
    n: int = 7,
    *,
    stake: Optional[MeritDistribution] = None,
    round_interval: float = 5.0,
    read_interval: float = 5.0,
    seed: int = 0,
) -> System:
    """The Algorand model (stake-weighted sortition + BA*-style commit)."""
    stake_distribution = stake if stake is not None else default_stake(n)

    def strategy_factory(committee: Tuple[str, ...], merits: MeritDistribution):
        return weighted_lottery_proposer(merits, seed=seed + 17, committee=committee)

    return run_committee_protocol.declaration(
        "algorand",
        n,
        merit=stake_distribution,
        proposer_strategy_factory=strategy_factory,
        round_interval=round_interval,
        read_interval=read_interval,
        seed=seed,
    )
