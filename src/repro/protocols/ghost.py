"""Ethereum-style model: proof-of-work plus GHOST selection (Section 5.2).

Per the paper, Ethereum differs from Bitcoin — for classification
purposes — only in two respects:

* the merit parameter reflects memory bandwidth rather than raw hashing
  power (irrelevant to the abstract model: it is still a merit-weighted
  lottery on the prodigal oracle);
* the selection function is implemented by the GHOST algorithm, which
  descends the BlockTree greedily by *subtree* weight rather than taking
  the single heaviest path.

The system therefore also implements ``R(BT-ADT_EC, Θ_P)``.  Modelling the
selection difference is still worthwhile: the selection-function ablation
(`benchmarks/bench_ablation_selection.py`) shows GHOST converging faster
than longest-chain in high-fork regimes, the behaviour the original GHOST
paper reports.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.selection import GHOSTSelection
from repro.engine.registry import register_protocol
from repro.oracle.theta import TokenOracle
from repro.protocols.base import System, system_runner
from repro.protocols.nakamoto import NakamotoReplica, run_bitcoin
from repro.workload.merit import MeritDistribution

__all__ = ["EthereumReplica", "run_ethereum"]


class EthereumReplica(NakamotoReplica):
    """A GHOST-following proof-of-work replica.

    Identical to :class:`~repro.protocols.nakamoto.NakamotoReplica`; the
    class exists so that runs, logs and tests can distinguish the two
    models and so Ethereum-specific behaviour (e.g. uncle accounting in a
    future extension) has a home.
    """


@register_protocol(
    "ethereum",
    table1={
        "params": {"token_rate": 0.5},
        "channel": {"kind": "synchronous", "params": {"delta": 3.0, "min_delay": 0.5}},
    },
    fork_prone={
        "params": {"token_rate": 0.4},
        "channel": {"kind": "synchronous", "params": {"delta": 3.0, "min_delay": 0.5}},
    },
    description="GHOST selection over the prodigal oracle (Ethereum model)",
)
@system_runner
def run_ethereum(
    n: int = 8,
    *,
    mining_interval: float = 1.0,
    token_rate: float = 0.1,
    merit: Optional[MeritDistribution] = None,
    read_interval: float = 5.0,
    use_lrc: bool = True,
    seed: int = 0,
    oracle: Optional[TokenOracle] = None,
) -> System:
    """The Ethereum model: Bitcoin's declaration with GHOST selection.

    The default ``token_rate`` is higher than Bitcoin's to reflect the much
    shorter block interval, which is also what makes the GHOST-vs-longest
    comparison interesting (more simultaneous blocks, more forks).
    """
    bitcoin = run_bitcoin.declaration(
        n,
        mining_interval=mining_interval,
        token_rate=token_rate,
        merit=merit,
        selection=GHOSTSelection(),
        read_interval=read_interval,
        use_lrc=use_lrc,
        seed=seed,
        oracle=oracle,
        replica_cls=EthereumReplica,
    )
    return replace(bitcoin, name="ethereum")
