"""ByzCoin model (Section 5.3).

ByzCoin separates block creation from transaction validation: key blocks
are produced by a Bitcoin-style proof-of-work lottery (the ``getToken``
realization), but only a *single* key block per parent is ever committed,
because a PBFT-variant run by the recent miners picks one winner among the
concurrent candidates (the ``consumeToken`` realization).  Under the
semi-synchronous assumption this makes ByzCoin "an implementation of a
strongly consistent BlockTree composed with a Frugal Oracle, with k = 1"
(the paper's words).

In the committee engine this maps to:

* proposer selection = merit-weighted lottery (merit = hashing power), the
  abstraction of "the first miner to find a key block";
* the commit phase = the committee vote with a 2/3 quorum (the PBFT
  variant);
* the shared oracle = Θ_{F,k=1}.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.engine.registry import register_protocol
from repro.protocols.base import System, system_runner
from repro.protocols.committee import run_committee_protocol, weighted_lottery_proposer
from repro.workload.merit import MeritDistribution, zipf_merit

__all__ = ["run_byzcoin"]


@register_protocol(
    "byzcoin",
    fairness_merit="zipf",
    description="PoW-elected committee with PBFT-style commit (ByzCoin model)",
)
@system_runner
def run_byzcoin(
    n: int = 7,
    *,
    merit: Optional[MeritDistribution] = None,
    round_interval: float = 5.0,
    read_interval: float = 5.0,
    seed: int = 0,
) -> System:
    """The ByzCoin model; hashing power defaults to a Zipf distribution."""
    hashing_power = merit if merit is not None else zipf_merit(n, exponent=1.0)

    def strategy_factory(committee: Tuple[str, ...], merits: MeritDistribution):
        return weighted_lottery_proposer(merits, seed=seed, committee=committee)

    return run_committee_protocol.declaration(
        "byzcoin",
        n,
        merit=hashing_power,
        proposer_strategy_factory=strategy_factory,
        round_interval=round_interval,
        read_interval=read_interval,
        seed=seed,
    )
