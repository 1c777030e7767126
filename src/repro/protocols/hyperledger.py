"""Hyperledger Fabric model (Section 5.7).

Hyperledger Fabric is a permissioned system: any process may read, a
subset ``M`` may append; executed transactions are ordered by an atomic
broadcast (the ordering service) into blocks, cut when a size or timeout
condition triggers.  "By construction, HyperLedger Fabric ensures that a
unique token (k = 1) is consumed, thus [it] implements a strongly
consistent BlockTree": ``R(BT-ADT_SC, Θ_{F,k=1})``.

Mapping onto the committee engine:

* the proposer is the *fixed* ordering-service leader (endorsement is not
  modelled — it does not affect the ADT-level classification);
* the committee (the peers that ack/commit blocks) is the writer set;
* block contents come from a client transaction workload, with blocks cut
  every ``round_interval`` (the timeout flavour of Fabric's stop
  condition) holding at most ``transactions_per_block`` transactions (the
  size flavour);
* oracle = Θ_{F,k=1}.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.engine.registry import register_protocol
from repro.protocols.base import System, system_runner
from repro.protocols.committee import fixed_proposer, run_committee_protocol
from repro.workload.merit import MeritDistribution, permissioned_merit

__all__ = ["run_hyperledger"]


@register_protocol(
    "hyperledger",
    description="Fixed orderer, permissioned writers (Hyperledger Fabric model)",
)
@system_runner
def run_hyperledger(
    n: int = 8,
    *,
    writers: Optional[Sequence[str]] = None,
    orderer: str = "p0",
    round_interval: float = 5.0,
    read_interval: float = 5.0,
    transactions_per_block: int = 6,
    seed: int = 0,
) -> System:
    """The Hyperledger Fabric model (fixed orderer, permissioned writers)."""
    all_pids = [f"p{i}" for i in range(n)]
    writer_set = tuple(writers) if writers is not None else tuple(all_pids[: max(3, n // 2)])
    if orderer not in writer_set:
        writer_set = (orderer, *writer_set)
    merit: MeritDistribution = permissioned_merit(writer_set, readers=all_pids)

    return run_committee_protocol.declaration(
        "hyperledger",
        n,
        merit=merit,
        committee=writer_set,
        proposer_strategy_factory=lambda committee, merits: fixed_proposer(orderer),  # noqa: ARG005
        round_interval=round_interval,
        read_interval=read_interval,
        transactions_per_block=transactions_per_block,
        seed=seed,
    )
