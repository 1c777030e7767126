"""The fork-, drop- and fault-heavy protocol run the same-history suites replay.

``test_core_equivalence.py`` (array vs heap core, live vs reference plane),
``test_simulation_equivalence.py`` (live vs scalar message plane) and
``test_checkpoint_equivalence.py`` (restored vs uninterrupted) all assert
that two ways of executing *this* run record identical histories: five
heaviest-chain miners under LRC, a mining interval short enough against
the channel delay to fork constantly, one vocabulary of channel models,
topologies and registered fault kinds.  (``test_topology.py`` runs its
own topologies over the same channels.)  One of those channels,
:class:`TargetedLossChannel`, lives here: the channel tests and the
broadcast and theorem tests import it from this module.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, List, Optional, Sequence

from repro.core.selection import HeaviestChain
from repro.network.channels import (
    AsynchronousChannel,
    ChannelModel,
    LossyChannel,
    PartiallySynchronousChannel,
    SynchronousChannel,
    _scatter_inner_batch,
)
from repro.network.faults import FAULTS
from repro.network.topology import GossipFanout, Sharded
from repro.oracle.tape import TapeFamily
from repro.oracle.theta import ProdigalOracle
from repro.protocols.base import ReplicaConfig, run_protocol
from repro.protocols.nakamoto import NakamotoReplica
from tests.network.reference_plane import ReferenceHeaviestChain, reference_plane


class TargetedLossChannel:
    """Drop exactly the messages selected by a predicate.

    Realises the paper's proof constructions where *one specific* update
    never reaches *one specific* process (Lemma 4.5): pass
    ``lambda sender, receiver, now: receiver == "k"`` style predicates.
    """

    def __init__(
        self,
        inner: ChannelModel,
        drop_if: Callable[[str, str, float], bool],
    ) -> None:
        self.inner = inner
        self.drop_if = drop_if
        self.dropped = 0

    def delay_for(self, sender: str, receiver: str, now: float) -> Optional[float]:
        if sender != receiver and self.drop_if(sender, receiver, now):
            self.dropped += 1
            return None
        return self.inner.delay_for(sender, receiver, now)

    def delays_for(
        self, sender: str, receivers: Sequence[str], now: float
    ) -> List[Optional[float]]:
        """Predicate filter (no randomness), then one inner batch.

        The predicate consumes no generator state, so stream-identity only
        requires forwarding the surviving receivers to the inner model in
        receiver order — which is what the scalar path does.
        """
        drop_if = self.drop_if
        keep_flags = [
            receiver == sender or not drop_if(sender, receiver, now)
            for receiver in receivers
        ]
        self.dropped += len(receivers) - sum(keep_flags)
        return _scatter_inner_batch(self.inner, sender, receivers, now, keep_flags)


class CrashingMiner(NakamotoReplica):
    """A miner that crash-faults at a pre-programmed virtual time."""

    def __init__(self, *args, crash_at: float = 25.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.crash_at = crash_at

    def on_start(self) -> None:
        super().on_start()
        self.schedule(self.crash_at, self.crash)


class _DropP2Early:
    """Picklable targeted-loss predicate (snapshots carry the channel)."""

    def __call__(self, sender: str, receiver: str, now: float) -> bool:
        return receiver == "p2" and now < 30.0


def channel_of(kind: str, seed: int):
    if kind == "synchronous":
        # Fork-prone: large delta relative to the mining interval.
        return SynchronousChannel(delta=3.0, min_delay=0.5, seed=seed)
    if kind == "asynchronous":
        return AsynchronousChannel(mean_delay=2.0, tail_probability=0.2, seed=seed)
    if kind == "partial":
        return PartiallySynchronousChannel(gst=25.0, delta=1.0, pre_gst_mean=4.0, seed=seed)
    if kind == "lossy":
        return LossyChannel(
            SynchronousChannel(delta=2.0, min_delay=0.3, seed=seed), 0.25, seed=seed + 1
        )
    if kind == "targeted":
        return TargetedLossChannel(
            SynchronousChannel(delta=2.0, min_delay=0.3, seed=seed),
            drop_if=_DropP2Early(),
        )
    raise AssertionError(kind)


def topology_of(kind: str, seed: int):
    if kind == "full":
        return None  # run_protocol's default FullMesh
    if kind == "gossip":
        return GossipFanout(fanout=2, seed=seed)
    if kind == "sharded":
        return Sharded(shards=2, cross_links=1)
    raise AssertionError(kind)


def fault_of(kind: str):
    """One representative instance per registered fault kind."""
    params = {
        "crash": {"at": {"p1": 20.0}},
        "silent": {"members": ("p3",)},
        "churn": {"leave": {"p4": 15.0}, "join": {"p4": 35.0}},
        "partition": {"groups": [["p0", "p1"], ["p2", "p3", "p4"]], "at": 10.0, "heal_at": 35.0},
        "eclipse": {"victim": "p2", "at": 5.0, "until": 30.0},
    }
    return FAULTS.build(kind, params[kind])


def run(
    kind: str,
    seed: int,
    *,
    core: str = "array",
    n: int = 5,
    faulty: bool = False,
    topology: str = "full",
    fault=None,
    scalar_network: bool = False,
    reference: bool = False,
    tapes: TapeFamily | None = None,
    **run_kwargs,
):
    """One run of ``n`` miners (16 or more make every relay a fan-out
    *block*); ``reference`` builds it from the whole oracle plane
    (``tests/network/reference_plane.py``), ``scalar_network`` from its
    network alone; ``tapes`` replaces the seeded merit tapes.
    ``run_kwargs`` go to ``run_protocol`` as they are."""
    if tapes is None:
        tapes = TapeFamily(seed=seed, probability_scale=0.5)
    oracle = ProdigalOracle(tapes=tapes)
    # Dict-indexed trees answer no indexed selection: the oracle leg
    # selects by brute force.
    selection = ReferenceHeaviestChain() if reference else HeaviestChain()

    def factory(pid, orc, network):  # noqa: ARG001
        config = ReplicaConfig(
            selection=selection, read_interval=4.0, use_lrc=True, merit=0.2
        )
        if faulty and pid == "p1":
            return CrashingMiner(pid, orc, config, mining_interval=1.0, crash_at=20.0)
        return NakamotoReplica(pid, orc, config, mining_interval=1.0)

    if reference or scalar_network:
        plane = reference_plane(recorder=reference, tree=reference)
    else:
        plane = nullcontext()
    with plane:
        return run_protocol(
            f"equiv-{kind}",
            factory,
            oracle,
            n=n,
            duration=50.0,
            channel=channel_of(kind, seed),
            topology=topology_of(topology, seed),
            core=core,
            fault=fault,
            **run_kwargs,
        )
