"""Red Belly model (Section 5.6).

Red Belly is a *consortium* blockchain: every process may read, but only a
predefined subset ``M ⊆ V`` may append; each member of ``M`` has merit
``1/|M|`` and everyone else merit 0.  Proposals go through a
(leader/randomization/signature)-free Byzantine consensus run by all
processes, which decides a unique block — ``consumeToken`` returns true
for exactly one token, so the BlockTree "contains a unique blockchain" and
the selection function is the trivial projection.  Classification:
``R(BT-ADT_SC, Θ_{F,k=1})``.

Mapping onto the committee engine:

* the committee is the writer set ``M`` (a strict subset of the replicas);
* proposer selection is round-robin over ``M`` (the consensus itself is
  leaderless, but which member's block gets decided in a given round is
  immaterial to the classification — what matters is that exactly one
  block per parent is decided and everybody applies it);
* oracle = Θ_{F,k=1}.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.engine.registry import register_protocol
from repro.protocols.base import System, system_runner
from repro.protocols.committee import round_robin_proposer, run_committee_protocol
from repro.workload.merit import MeritDistribution, permissioned_merit

__all__ = ["run_redbelly"]


@register_protocol(
    "redbelly",
    description="Consortium writers, consensus-decided chain (Red Belly model)",
)
@system_runner
def run_redbelly(
    n: int = 8,
    *,
    writers: Optional[Sequence[str]] = None,
    round_interval: float = 5.0,
    read_interval: float = 5.0,
    seed: int = 0,
) -> System:
    """The Red Belly model: consortium writers, consensus-decided chain."""
    all_pids = [f"p{i}" for i in range(n)]
    writer_set = tuple(writers) if writers is not None else tuple(all_pids[: max(2, n // 2)])
    merit: MeritDistribution = permissioned_merit(writer_set, readers=all_pids)

    return run_committee_protocol.declaration(
        "redbelly",
        n,
        merit=merit,
        committee=writer_set,
        proposer_strategy_factory=lambda committee, merits: round_robin_proposer(committee),  # noqa: ARG005
        round_interval=round_interval,
        read_interval=read_interval,
        seed=seed,
    )
