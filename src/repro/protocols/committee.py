"""Generic committee/consensus engine used by the strongly consistent systems.

ByzCoin, Algorand, PeerCensus, Red Belly and Hyperledger Fabric all share
the same abstract structure once viewed through the paper's framework:

1. in each round, some mechanism designates a *proposer* (proof-of-work
   lottery, stake-weighted sortition, round-robin over a consortium, or a
   fixed ordering service);
2. the proposer obtains and consumes a token from the **frugal oracle with
   k = 1**, so at most one block can extend a given parent;
3. a vote phase (the PBFT / BA* / total-order-broadcast part) makes every
   replica commit the same block, after which every replica's local
   BlockTree remains a single chain.

:class:`CommitteeReplica` implements that skeleton over the message-
passing substrate: ``PROPOSAL`` and ``VOTE`` messages, a quorum rule, and
the replication events (``send``/``receive``/``update``) the paper's
Section 4 analyses expect.  The individual system modules configure the
proposer-selection strategy, the merit distribution and the workload, and
document how the real system maps onto this skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.block import Block
from repro.core.selection import FixedTipSelection, LongestChain
from repro.engine.registry import register_protocol
from repro.network.channels import SynchronousChannel
from repro.network.simulator import Message, Network
from repro.network.topology import Committee
from repro.oracle.tape import TapeFamily
from repro.oracle.theta import FrugalOracle, TokenOracle, ValidatedBlock
from repro.protocols.base import BlockchainReplica, ReplicaConfig, System, system_runner
from repro.workload.merit import MeritDistribution, uniform_merit
from repro.workload.transactions import TransactionGenerator

__all__ = [
    "ProposerStrategy",
    "CommitteeConfig",
    "CommitteeReplica",
    "run_committee_protocol",
    "run_committee",
]

PROPOSAL = "proposal"
VOTE = "vote"

#: A proposer strategy maps a round number to the proposing process id.
ProposerStrategy = Callable[[int], str]


# The strategy factories return picklable callable objects (not nested
# closures): a strategy is stored on every replica's ``CommitteeConfig``
# and therefore rides checkpoint snapshots.  Each strategy is stateless —
# its draw is a pure function of the round number — so a pickle
# round-trip cannot perturb proposer selection.


class _RoundRobinProposer:
    """Rotate the proposer role through the committee."""

    __slots__ = ("members",)

    def __init__(self, members: Tuple[str, ...]) -> None:
        self.members = members

    def __call__(self, round_number: int) -> str:
        return self.members[round_number % len(self.members)]


class _FixedProposer:
    """A single, fixed proposer."""

    __slots__ = ("leader",)

    def __init__(self, leader: str) -> None:
        self.leader = leader

    def __call__(self, round_number: int) -> str:  # noqa: ARG002
        return self.leader


class _WeightedLotteryProposer:
    """Merit-weighted per-round lottery; fresh seeded rng per draw."""

    __slots__ = ("members", "weights", "seed")

    def __init__(self, members: Tuple[str, ...], weights: np.ndarray, seed: int) -> None:
        self.members = members
        self.weights = weights
        self.seed = seed

    def __call__(self, round_number: int) -> str:
        rng = np.random.default_rng((self.seed, round_number))
        return str(rng.choice(self.members, p=self.weights))


def round_robin_proposer(committee: Sequence[str]) -> ProposerStrategy:
    """Rotate the proposer role through the committee (Red Belly, PBFT-style)."""
    members = tuple(committee)
    if not members:
        raise ValueError("committee must be non-empty")
    return _RoundRobinProposer(members)


def fixed_proposer(leader: str) -> ProposerStrategy:
    """A single, fixed proposer (Hyperledger Fabric's ordering service)."""
    return _FixedProposer(leader)


def weighted_lottery_proposer(
    merit: MeritDistribution, seed: int = 0, committee: Optional[Sequence[str]] = None
) -> ProposerStrategy:
    """Merit-weighted per-round lottery (PoW leader election, stake sortition).

    The draw for round ``r`` is a deterministic function of ``(seed, r)``
    so every replica computes the same proposer without communication —
    the abstraction of "highest-priority committee member" in Algorand and
    of "first miner to find the key block" in ByzCoin/PeerCensus.
    """
    members = tuple(committee) if committee is not None else merit.writers()
    if not members:
        raise ValueError("no eligible proposers")
    weights = np.array([merit.merit_of(pid) for pid in members], dtype=float)
    if weights.sum() <= 0:
        weights = np.ones(len(members))
    weights = weights / weights.sum()
    return _WeightedLotteryProposer(members, weights, seed)


@dataclass(frozen=True)
class CommitteeConfig:
    """Configuration of the committee engine."""

    committee: Tuple[str, ...]
    proposer_strategy: ProposerStrategy
    round_interval: float = 5.0
    quorum_fraction: float = 2.0 / 3.0
    transactions_per_block: int = 4
    max_token_attempts: int = 200

    def quorum(self) -> int:
        """Number of votes needed to commit (strict majority of the fraction)."""
        return int(np.floor(self.quorum_fraction * len(self.committee))) + 1


class CommitteeReplica(BlockchainReplica):
    """A replica of a committee/consensus-based blockchain."""

    def __init__(
        self,
        pid: str,
        oracle: TokenOracle,
        config: ReplicaConfig,
        committee_config: CommitteeConfig,
        tx_generator: Optional[TransactionGenerator] = None,
    ) -> None:
        if oracle.k != 1:
            raise ValueError("committee protocols require the frugal oracle with k = 1")
        super().__init__(pid, oracle, config)
        self.committee_config = committee_config
        self.tx_generator = tx_generator if tx_generator is not None else TransactionGenerator()
        self.round = 0
        self.blocks_committed = 0
        self._pending_blocks: Dict[str, Block] = {}
        self._received_blocks: Set[str] = set()
        self._votes: Dict[str, Set[str]] = {}
        self._committed: Set[str] = set()
        self._pending_validated: Dict[str, ValidatedBlock] = {}
        self._append_tokens: Dict[str, object] = {}

    # -- round machinery ---------------------------------------------------------------

    def on_start(self) -> None:
        super().on_start()
        self.schedule(self.committee_config.round_interval, self._round_tick)

    def _round_tick(self) -> None:
        if not self.producing:
            return
        self.round += 1
        if self._is_proposer(self.round) and self.pid in self.committee_config.committee:
            self._propose()
        self.schedule(self.committee_config.round_interval, self._round_tick)

    def _is_proposer(self, round_number: int) -> bool:
        return self.committee_config.proposer_strategy(round_number) == self.pid

    # -- proposal ------------------------------------------------------------------------

    def _propose(self) -> None:
        if self.mempool:
            # Population workload attached: propose real client operations.
            payload = self.drain_mempool(self.committee_config.transactions_per_block)
        else:
            payload = self.tx_generator.payload(
                self.pid, self.committee_config.transactions_per_block
            )
        candidate = self.make_candidate(payload=payload)
        parent = self.current_tip()
        validated: Optional[ValidatedBlock] = None
        for _ in range(self.committee_config.max_token_attempts):
            validated = self.oracle.get_token(parent, candidate, process=self.pid)
            if validated is not None:
                break
        if validated is None:
            return
        consumed = self.oracle.consume_token(validated, process=self.pid)
        if not any(v.block_id == validated.block_id for v in consumed):
            # Another proposer already consumed the single token for this
            # parent (possible when rounds overlap): abandon the proposal.
            return
        block = validated.block
        self._pending_validated[block.block_id] = validated
        # The append operation starts now (its response is recorded at commit
        # time), so that every read returning the block is preceded by the
        # append invocation, as Block Validity requires.
        self._append_tokens[block.block_id] = self.recorder.invoke(self.pid, "append", block)
        # The proposal broadcast *is* the dissemination of the block.
        self.recorder.send(self.pid, block.parent_id or "b0", block.block_id)
        self.broadcast(PROPOSAL, block, include_self=True)

    # -- message handling ------------------------------------------------------------------

    def on_protocol_message(self, message: Message) -> None:
        if message.kind == PROPOSAL:
            self._handle_proposal(message.payload)
        elif message.kind == VOTE:
            block_id, voter = message.payload
            self._handle_vote(block_id, voter)

    def _handle_proposal(self, block: Block) -> None:
        if block.block_id in self._received_blocks:
            return
        self._received_blocks.add(block.block_id)
        self._pending_blocks[block.block_id] = block
        self.recorder.receive(self.pid, block.parent_id or "b0", block.block_id)
        if self.pid in self.committee_config.committee:
            self.broadcast(VOTE, (block.block_id, self.pid), include_self=True)
        self._maybe_commit(block.block_id)

    def _handle_vote(self, block_id: str, voter: str) -> None:
        if voter not in self.committee_config.committee:
            return
        self._votes.setdefault(block_id, set()).add(voter)
        self._maybe_commit(block_id)

    # -- commit ---------------------------------------------------------------------------

    def _maybe_commit(self, block_id: str) -> None:
        if block_id in self._committed:
            return
        votes = self._votes.get(block_id, set())
        if len(votes) < self.committee_config.quorum():
            return
        block = self._pending_blocks.get(block_id)
        if block is None:
            return
        if block.parent_id is not None and block.parent_id not in self.tree:
            # Parent not committed locally yet; retry once it arrives.
            return
        self._committed.add(block_id)
        created_here = block.creator == self.pid
        if created_here:
            applied = self._insert(block)
            token = self._append_tokens.pop(block_id, None)
            if token is not None:
                self.recorder.respond(token, applied)
            if applied:
                self.blocks_created += 1
        else:
            applied = self._insert(block)
            if applied:
                self.blocks_adopted += 1
        if applied:
            self.blocks_committed += 1
            self.recorder.update(self.pid, block.parent_id or "b0", block.block_id)
            # Pin the selection to the committed chain tip: the replica's
            # view is the single decided chain (the trivial projection of
            # the paper's Section 5 strongly consistent systems).
            self.config = ReplicaConfig(
                selection=FixedTipSelection(tip_id=self._chain_tip()),
                read_interval=self.config.read_interval,
                use_lrc=self.config.use_lrc,
                merit=self.config.merit,
            )
            # A commit may unblock a child proposal that arrived early.
            for other_id, other in list(self._pending_blocks.items()):
                if other_id not in self._committed and other.parent_id == block_id:
                    self._maybe_commit(other_id)

    def _chain_tip(self) -> str:
        return LongestChain()(self.tree).tip.block_id


@system_runner
def run_committee_protocol(
    name: str,
    n: int = 7,
    *,
    merit: Optional[MeritDistribution] = None,
    committee: Optional[Sequence[str]] = None,
    proposer_strategy_factory: Optional[
        Callable[[Tuple[str, ...], MeritDistribution], ProposerStrategy]
    ] = None,
    round_interval: float = 5.0,
    read_interval: float = 5.0,
    transactions_per_block: int = 4,
    seed: int = 0,
) -> System:
    """A committee-based protocol named ``name``, over Θ_F,k=1.

    ``proposer_strategy_factory`` receives the committee and the merit
    distribution and returns the proposer strategy; the default is
    round-robin (the Red Belly / generic BFT pattern).

    The committee is expressed structurally through the network's
    :class:`~repro.network.topology.Committee` topology (members fan out
    to everyone so observers learn decided blocks; observers address the
    committee only) rather than ad-hoc per-message filtering — for member
    senders its receiver lists coincide with full mesh.  It is the
    system's default only: pass ``topology=`` to override (e.g.
    ``Committee(members, include_observers=False)`` for committee-only
    dissemination, or a :class:`~repro.network.topology.Sharded` overlay).
    """
    merit_distribution = merit if merit is not None else uniform_merit(n)
    all_pids = tuple(f"p{i}" for i in range(n))
    committee_ids = tuple(committee) if committee is not None else all_pids
    strategy = (
        proposer_strategy_factory(committee_ids, merit_distribution)
        if proposer_strategy_factory is not None
        else round_robin_proposer(committee_ids)
    )
    committee_config = CommitteeConfig(
        committee=committee_ids,
        proposer_strategy=strategy,
        round_interval=round_interval,
        transactions_per_block=transactions_per_block,
    )
    # The frugal oracle with k = 1; committee members draw from their tape
    # until a token is granted, so the scale just bounds the retry count.
    tapes = TapeFamily(seed=seed, probability_scale=float(len(committee_ids)))
    tx_seed = seed + 1

    def factory(pid: str, orc: TokenOracle, network: Network) -> CommitteeReplica:  # noqa: ARG001
        config = ReplicaConfig(
            selection=FixedTipSelection(),
            read_interval=read_interval,
            use_lrc=True,
            merit=max(merit_distribution.merit_of(pid), 1e-3),
        )
        return CommitteeReplica(
            pid,
            orc,
            config,
            committee_config,
            tx_generator=TransactionGenerator(seed=tx_seed + sum(ord(c) for c in pid)),
        )

    return System(
        name,
        FrugalOracle(k=1, tapes=tapes),
        factory,
        channel=SynchronousChannel(delta=0.5, seed=seed),
        topology=Committee(members=committee_ids),
    )


@register_protocol(
    "committee",
    description="Generic round-robin committee (BFT quorum commit, k = 1)",
)
@system_runner
def run_committee(
    n: int = 7,
    *,
    round_interval: float = 5.0,
    read_interval: float = 5.0,
    transactions_per_block: int = 4,
    seed: int = 0,
) -> System:
    """The generic committee: every replica a member, round-robin proposer.

    With ``f`` silent members (``fault=SilentFault(...)``) the commit
    quorum (⌊2n/3⌋ + 1 votes) is still reachable as long as
    ``f ≤ n - quorum`` — the classical ``f < n/3`` resilience.  Rounds led
    by a silent proposer simply produce no block.
    """
    return run_committee_protocol.declaration(
        "committee",
        n,
        round_interval=round_interval,
        read_interval=read_interval,
        transactions_per_block=transactions_per_block,
        seed=seed,
    )
