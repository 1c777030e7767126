"""PeerCensus model (Section 5.5).

PeerCensus decouples "Bitcoin the data structure" from "Bitcoin the
timestamping service": key blocks are still created through proof-of-work
(the ``getToken`` realization), but a dynamic Byzantine-fault-tolerant
consensus — whose committee is defined by the miners of the chained key
blocks — commits exactly one of the concurrent candidates
(``consumeToken`` returning true for a single token).  As long as fewer
than one third of the committee is Byzantine, the paper classifies
PeerCensus as ``R(BT-ADT_SC, Θ_{F,k=1})``.

Mapping onto the committee engine: identical skeleton to ByzCoin (PoW
lottery for the proposer, 2/3-quorum vote for the commit); the module
exists separately so the committee membership rule (miners of the last
``w`` key blocks) and the secure-state caveat discussed in the paper have
a dedicated, documented home, and so Table 1 is reproduced system by
system rather than by aliasing.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.engine.registry import register_protocol
from repro.protocols.base import System, system_runner
from repro.protocols.committee import run_committee_protocol, weighted_lottery_proposer
from repro.workload.merit import MeritDistribution, zipf_merit

__all__ = ["run_peercensus"]


@register_protocol(
    "peercensus",
    fairness_merit="zipf",
    description="PoW identity issuance + BFT commit (PeerCensus model)",
)
@system_runner
def run_peercensus(
    n: int = 7,
    *,
    merit: Optional[MeritDistribution] = None,
    round_interval: float = 5.0,
    read_interval: float = 5.0,
    seed: int = 0,
) -> System:
    """The PeerCensus model (PoW proposer + BFT commit, k = 1)."""
    hashing_power = merit if merit is not None else zipf_merit(n, exponent=0.8)

    def strategy_factory(committee: Tuple[str, ...], merits: MeritDistribution):
        return weighted_lottery_proposer(merits, seed=seed + 29, committee=committee)

    return run_committee_protocol.declaration(
        "peercensus",
        n,
        merit=hashing_power,
        proposer_strategy_factory=strategy_factory,
        round_interval=round_interval,
        read_interval=read_interval,
        seed=seed,
    )
