"""Bitcoin / Nakamoto-style proof-of-work model (Section 5.1).

The paper's classification of Bitcoin:

* any process may read and append;
* the ``getToken`` operation is realized by proof-of-work — here, the
  merit-weighted oracle lottery (the merit ``α_p`` is the normalized
  hashing power);
* ``consumeToken`` "returns true for all valid blocks, thus there is no
  bound on the number of consumed tokens" — the **prodigal** oracle;
* the selection function returns the chain with the most accumulated work
  (we expose both the heaviest-chain and longest-chain variants);
* valid blocks are flooded through the network;
* the resulting system implements ``R(BT-ADT_EC, Θ_P)``: Eventual — not
  Strong — consistency.

Each replica "mines" by attempting one ``getToken`` per mining step.  The
merit tape decides first: the attempt pops its cell, and only a ``tkn``
asks for the tip of the locally selected chain and builds the block on
it, so a lost lottery never consults the tree.  On success the replica
consumes the token, applies the block locally (``update`` + ``send``)
and floods it.  Forks arise exactly as in the real system: two replicas
may both win a token for the same parent before hearing of each other's
block.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

from repro.core.block import Block
from repro.core.selection import HeaviestChain, SelectionFunction
from repro.engine.registry import register_protocol
from repro.network.simulator import Network
from repro.oracle.tape import TapeFamily
from repro.oracle.theta import ProdigalOracle, TokenOracle
from repro.protocols.base import BlockchainReplica, ReplicaConfig, System, system_runner
from repro.workload.merit import MeritDistribution, uniform_merit

__all__ = ["NakamotoReplica", "run_bitcoin"]


class NakamotoReplica(BlockchainReplica):
    """A proof-of-work miner/full-node replica."""

    def __init__(
        self,
        pid: str,
        oracle: TokenOracle,
        config: Optional[ReplicaConfig] = None,
        mining_interval: float = 1.0,
        transactions_per_block: int = 4,
    ) -> None:
        super().__init__(pid, oracle, config)
        if mining_interval <= 0:
            raise ValueError("mining_interval must be positive")
        self.mining_interval = mining_interval
        self.transactions_per_block = transactions_per_block
        self._tx_counter = 0

    # -- mining loop -----------------------------------------------------------------

    def on_start(self) -> None:
        super().on_start()
        self.schedule(self.mining_interval, self._mining_step)

    def _mining_step(self) -> None:
        if not self.producing:
            return
        self.try_mine()
        self.schedule(self.mining_interval, self._mining_step)

    def try_mine(self) -> bool:
        """One proof-of-work attempt: ``getToken`` on the local tip.

        Returns ``True`` iff a block was produced and committed.  Θ
        answers ⊥ far more often than ``tkn``, so with the stock hooks
        and an unrecorded oracle the tip and the candidate are handed
        over as callables: the tape is popped first and a ⊥ resolves
        neither.  A lost attempt then burns what its candidate would have
        consumed — one block id and one payload's worth of transaction
        names or mempool operations — so ids and payloads are those of
        the eager attempt, which every other case still makes.
        """
        oracle = self.oracle
        if oracle._recorder is None and _tape_first(type(self), type(oracle)):
            validated = oracle.get_token(self.current_tip, self._candidate, process=self.pid)
            if validated is None:
                self.ids.burn()
                if self.mempool:
                    self.mempool.take(self.transactions_per_block)
                else:
                    self._tx_counter += self.transactions_per_block
                return False
        else:
            candidate = self._candidate()
            validated = oracle.get_token(self.current_tip(), candidate, process=self.pid)
            if validated is None:
                return False
        consumed = oracle.consume_token(validated, process=self.pid)
        if not any(v.block_id == validated.block_id for v in consumed):
            # Unreachable with the prodigal oracle, but a frugal-oracle
            # variant (used by ablations) can reject the k+1-th fork.
            return False
        return self.commit_local_block(validated)

    def _candidate(self) -> Block:
        return self.make_candidate(payload=self._next_payload())

    def _next_payload(self) -> Tuple[str, ...]:
        if self.mempool:
            # Population workload attached: blocks carry real client
            # operations (first-come-first-served from the mempool).
            return self.drain_mempool(self.transactions_per_block)
        start = self._tx_counter
        self._tx_counter += self.transactions_per_block
        return tuple(
            f"tx_{self.pid}_{i}" for i in range(start, self._tx_counter)
        )


@functools.lru_cache(maxsize=None)
def _tape_first(replica_kind: type, oracle_kind: type) -> bool:
    """Whether an attempt may leave tip and candidate to the tape.

    Only when every hook the attempt runs is the stock one: a subclass
    overriding one of them may count or log each call, and an oracle
    overriding ``get_token`` may want blocks, not callables.
    """
    return (
        replica_kind.current_tip is BlockchainReplica.current_tip
        and replica_kind.make_candidate is BlockchainReplica.make_candidate
        and replica_kind._next_payload is NakamotoReplica._next_payload
        and oracle_kind.get_token is TokenOracle.get_token
    )


_FORK_PRONE_CHANNEL = {"kind": "synchronous", "params": {"delta": 3.0, "min_delay": 0.5}}


@register_protocol(
    "bitcoin",
    table1={"params": {"token_rate": 0.4}, "channel": _FORK_PRONE_CHANNEL},
    fork_prone={"params": {"token_rate": 0.4}, "channel": _FORK_PRONE_CHANNEL},
    description="Nakamoto proof-of-work, heaviest chain, prodigal oracle",
)
@system_runner
def run_bitcoin(
    n: int = 8,
    *,
    mining_interval: float = 1.0,
    token_rate: float = 0.05,
    merit: Optional[MeritDistribution] = None,
    selection: Optional[SelectionFunction] = None,
    read_interval: float = 5.0,
    use_lrc: bool = True,
    seed: int = 0,
    oracle: Optional[TokenOracle] = None,
    replica_cls: type = NakamotoReplica,
) -> System:
    """The Bitcoin model: merit-weighted lottery on Θ_P, heaviest chain.

    ``token_rate`` scales merits into per-attempt success probabilities:
    with uniform merit ``1/n`` and rate ``r`` each miner finds a block with
    probability ``r/n`` per attempt, i.e. the network-wide block interval
    is roughly ``mining_interval / r`` — the knob the convergence ablation
    sweeps.
    """
    merit_distribution = merit if merit is not None else uniform_merit(n)
    tapes = TapeFamily(seed=seed, probability_scale=token_rate)
    chain_rule = selection if selection is not None else HeaviestChain()

    def factory(pid: str, orc: TokenOracle, network: Network) -> NakamotoReplica:  # noqa: ARG001
        config = ReplicaConfig(
            selection=chain_rule,
            read_interval=read_interval,
            use_lrc=use_lrc,
            merit=merit_distribution.merit_of(pid),
        )
        return replica_cls(
            pid,
            orc,
            config,
            mining_interval=mining_interval,
        )

    return System(
        "bitcoin",
        oracle if oracle is not None else ProdigalOracle(tapes=tapes),
        factory,
    )
