"""Dissemination topologies: semantics, determinism, caching, equivalence.

The PR-level acceptance bars pinned here:

* the default :class:`FullMesh` produces event-for-event identical
  ``History.events`` to the pre-topology broadcast path, on randomized
  protocol runs over all five channel models;
* seeded topologies are deterministic — the same seed yields identical
  receiver sequences across two independent instances (and identical
  recorded histories across two identically-seeded gossip runs);
* :meth:`Network.register` invalidates both the full-mesh ``_others``
  exclusion cache and the static-topology receiver cache.
"""

from __future__ import annotations

import pytest

from repro.core.selection import HeaviestChain
from repro.network.channels import SynchronousChannel
from repro.network.process import Process
from repro.network.simulator import Network, Simulator
from repro.network.topology import (
    Committee,
    FullMesh,
    GossipFanout,
    RandomRegular,
    Ring,
    Sharded,
    TOPOLOGIES,
    Topology,
)
from repro.oracle.tape import TapeFamily
from repro.oracle.theta import ProdigalOracle
from repro.protocols.base import ReplicaConfig, run_protocol
from repro.protocols.nakamoto import NakamotoReplica
from tests.network.fork_heavy_run import channel_of
from tests.network.reference_plane import ReferenceNetwork

PIDS = tuple(f"p{i}" for i in range(6))


# ---------------------------------------------------------------------------
# pure topology semantics
# ---------------------------------------------------------------------------


class TestFullMesh:
    def test_neighbors_are_everyone_else_in_registration_order(self):
        assert FullMesh().neighbors("p2", PIDS) == ("p0", "p1", "p3", "p4", "p5")

    def test_include_self_returns_the_registered_tuple_itself(self):
        # Identity, not just equality: the broadcast fast path relies on
        # reusing the network's pid tuple.
        assert FullMesh().receivers("p2", PIDS, include_self=True) is PIDS


class TestGossipFanout:
    def test_sample_size_and_sender_exclusion(self):
        topo = GossipFanout(fanout=3, seed=5)
        for _ in range(20):
            sample = topo.neighbors("p1", PIDS)
            assert len(sample) == 3
            assert "p1" not in sample
            assert len(set(sample)) == 3
            assert set(sample) <= set(PIDS)

    def test_fanout_clamped_to_population(self):
        topo = GossipFanout(fanout=50, seed=0)
        assert set(topo.neighbors("p0", PIDS)) == set(PIDS[1:])

    def test_same_seed_identical_receiver_sequences(self):
        a = GossipFanout(fanout=2, seed=9)
        b = GossipFanout(fanout=2, seed=9)
        sequence_a = [a.receivers(pid, PIDS, include_self=(i % 2 == 0)) for i, pid in
                      enumerate(PIDS * 10)]
        sequence_b = [b.receivers(pid, PIDS, include_self=(i % 2 == 0)) for i, pid in
                      enumerate(PIDS * 10)]
        assert sequence_a == sequence_b

    def test_different_seeds_diverge(self):
        a = GossipFanout(fanout=2, seed=1)
        b = GossipFanout(fanout=2, seed=2)
        assert [a.neighbors("p0", PIDS) for _ in range(10)] != [
            b.neighbors("p0", PIDS) for _ in range(10)
        ]

    def test_fanout_must_be_positive(self):
        with pytest.raises(ValueError, match="fanout"):
            GossipFanout(fanout=0)

    def test_is_dynamic(self):
        assert GossipFanout().static is False


class TestCommittee:
    def test_member_broadcast_matches_full_mesh_exactly(self):
        topo = Committee(members=PIDS)
        full = FullMesh()
        for pid in PIDS:
            for include_self in (True, False):
                assert topo.receivers(pid, PIDS, include_self) == full.receivers(
                    pid, PIDS, include_self
                )

    def test_observer_reaches_the_committee_only(self):
        topo = Committee(members=("p0", "p2"))
        assert topo.neighbors("p4", PIDS) == ("p0", "p2")
        assert topo.receivers("p4", PIDS, include_self=True) == ("p4", "p0", "p2")

    def test_closed_committee_excludes_observers(self):
        topo = Committee(members=("p0", "p1", "p2"), include_observers=False)
        assert topo.neighbors("p0", PIDS) == ("p1", "p2")
        assert topo.receivers("p0", PIDS, include_self=True) == ("p0", "p1", "p2")

    def test_fraction_takes_a_registration_order_prefix(self):
        topo = Committee(fraction=0.5)
        assert topo.members_of(PIDS) == ("p0", "p1", "p2")

    def test_unknown_members_raise(self):
        with pytest.raises(KeyError, match="not registered"):
            Committee(members=("p0", "ghost")).members_of(PIDS)


class TestSharded:
    def test_contiguous_partition_and_gateways(self):
        topo = Sharded(shards=3, cross_links=1)
        assert topo.shards_of(PIDS) == (("p0", "p1"), ("p2", "p3"), ("p4", "p5"))
        # Gateway p0 reaches its shard plus the other gateways.
        assert topo.neighbors("p0", PIDS) == ("p1", "p2", "p4")
        # Non-gateway p1 stays within its shard.
        assert topo.neighbors("p1", PIDS) == ("p0",)

    def test_explicit_groups(self):
        topo = Sharded(groups=[["p0", "p1", "p2"], ["p3", "p4", "p5"]], cross_links=2)
        assert topo.neighbors("p4", PIDS) == ("p3", "p5", "p0", "p1")

    def test_unassigned_and_unknown_processes_raise(self):
        with pytest.raises(KeyError, match="unassigned"):
            Sharded(groups=[["p0", "p1"]]).shards_of(PIDS)
        with pytest.raises(KeyError, match="unregistered"):
            Sharded(groups=[["p0", "ghost"], list(PIDS[1:])]).shards_of(PIDS)
        with pytest.raises(ValueError, match="overlap"):
            Sharded(groups=[["p0", "p1"], ["p1", *PIDS[2:]]]).shards_of(PIDS)

    def test_gateway_clique_keeps_the_graph_connected(self):
        topo = Sharded(shards=3, cross_links=1)
        reached, frontier = {"p5"}, ["p5"]
        while frontier:
            for peer in topo.neighbors(frontier.pop(), PIDS):
                if peer not in reached:
                    reached.add(peer)
                    frontier.append(peer)
        assert reached == set(PIDS)


class TestRing:
    def test_single_hop_neighbors_wrap_around(self):
        assert Ring().neighbors("p0", PIDS) == ("p1", "p5")
        assert Ring().neighbors("p3", PIDS) == ("p2", "p4")

    def test_two_hops(self):
        assert Ring(hops=2).neighbors("p0", PIDS) == ("p1", "p2", "p4", "p5")

    def test_degenerate_population(self):
        assert Ring().neighbors("p0", ("p0",)) == ()


class TestRandomRegular:
    def test_deterministic_for_seed_and_membership(self):
        assert RandomRegular(degree=4, seed=3).adjacency(PIDS) == RandomRegular(
            degree=4, seed=3
        ).adjacency(PIDS)
        assert RandomRegular(degree=4, seed=3).adjacency(PIDS) != RandomRegular(
            degree=4, seed=4
        ).adjacency(PIDS)

    def test_adjacency_is_symmetric_with_bounded_degree(self):
        adjacency = RandomRegular(degree=4, seed=7).adjacency(PIDS)
        for pid, peers in adjacency.items():
            assert pid not in peers
            assert 2 <= len(peers) <= 4
            for peer in peers:
                assert pid in adjacency[peer]


class TestRegistry:
    def test_builtin_vocabulary(self):
        assert set(TOPOLOGIES.names()) == {
            "full",
            "gossip",
            "committee",
            "sharded",
            "ring",
            "random-regular",
        }

    def test_lookup_resolves(self):
        assert TOPOLOGIES["gossip"] is GossipFanout

    def test_unknown_topology_uniform_error(self):
        with pytest.raises((KeyError, ValueError), match="unknown topology 'mesh2'"):
            TOPOLOGIES["mesh2"]
        with pytest.raises(KeyError, match="registered: 'committee', 'full'"):
            TOPOLOGIES["mesh2"]

    def test_collision_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            TOPOLOGIES.register("full")(FullMesh)

    def test_build_forwards_seed_only_where_accepted(self):
        gossip = TOPOLOGIES.build("gossip", {"fanout": 2}, seed=42)
        assert (gossip.fanout, gossip.seed) == (2, 42)
        assert isinstance(TOPOLOGIES.build("full", seed=42), FullMesh)
        # An explicit params seed wins over the spec-level default.
        assert TOPOLOGIES.build("gossip", {"seed": 5}, seed=42).seed == 5


# ---------------------------------------------------------------------------
# network integration
# ---------------------------------------------------------------------------


class Recorder(Process):
    """Counts deliveries per message kind."""

    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.got = []

    def on_message(self, message) -> None:
        self.got.append((message.sender, message.payload))


def _network(topology: Topology = None, n: int = 6, batched: bool = True) -> Network:
    network = (Network if batched else ReferenceNetwork)(
        Simulator(),
        SynchronousChannel(delta=1.0, seed=1),
        topology=topology,
    )
    for i in range(n):
        network.register(Recorder(f"p{i}"))
    return network


class TestNetworkRouting:
    @pytest.mark.parametrize("batched", (True, False))
    def test_broadcast_reaches_topology_neighbors_only(self, batched: bool):
        network = _network(Ring(), batched=batched)
        network.broadcast("p0", "ping", 1, include_self=False)
        network.run()
        heard = {pid for pid in network.process_ids if network.process(pid).got}
        assert heard == {"p1", "p5"}
        assert network.messages_sent == 2

    def test_dynamic_topology_sampled_per_broadcast(self):
        network = _network(GossipFanout(fanout=2, seed=3))
        for _ in range(12):
            network.broadcast("p0", "ping", 1, include_self=False)
        network.run()
        assert network.messages_sent == 24
        # Across 12 draws of 2-of-5 the union should exceed a single sample.
        heard = {pid for pid in network.process_ids if network.process(pid).got}
        assert len(heard) > 2

    def test_static_topology_receiver_cache_is_populated_and_reused(self):
        network = _network(Ring())
        network.broadcast("p0", "ping", 1, include_self=False)
        assert network._topology_receivers == {("p0", False): ("p1", "p5")}
        network.broadcast("p0", "ping", 2, include_self=False)
        network.run()
        assert len(network.process("p1").got) == 2

    def test_register_invalidates_others_and_topology_caches(self):
        """Satellite regression: membership changes flush both caches."""
        # Full mesh: the `_others` exclusion cache must be rebuilt.
        network = _network(None, n=3)
        network.broadcast("p0", "ping", 1, include_self=False)
        assert network._others  # populated by the broadcast
        network.register(Recorder("p3"))
        assert not network._others
        network.broadcast("p0", "ping", 2, include_self=False)
        network.run()
        assert [payload for _, payload in network.process("p3").got] == [2]

        # Static topology: the receiver cache must be rebuilt too.  With a
        # ring, the late joiner becomes p0's new counter-clockwise
        # neighbor, displacing the old cached list.
        network = _network(Ring(), n=3)
        network.broadcast("p0", "ping", 1, include_self=False)
        assert network._topology_receivers
        network.register(Recorder("p3"))
        assert not network._topology_receivers
        network.broadcast("p0", "ping", 2, include_self=False)
        network.run()
        assert [payload for _, payload in network.process("p3").got] == [2]
        # p2 heard the first broadcast (ring of 3) but not the second
        # (ring of 4 puts p1/p3 next to p0).
        assert [payload for _, payload in network.process("p2").got] == [1]

    def test_topology_naming_unknown_receiver_fails_loudly(self):
        network = _network(Committee(members=("p0", "ghost")), n=3)
        with pytest.raises(KeyError, match="not registered"):
            network.broadcast("p0", "ping", 1)


# ---------------------------------------------------------------------------
# protocol-run equivalence and determinism
# ---------------------------------------------------------------------------


def _run(kind: str, seed: int, topology: Topology = None):
    tapes = TapeFamily(seed=seed, probability_scale=0.5)
    oracle = ProdigalOracle(tapes=tapes)

    def factory(pid, orc, network):  # noqa: ARG001
        config = ReplicaConfig(
            selection=HeaviestChain(), read_interval=4.0, use_lrc=True, merit=0.2
        )
        return NakamotoReplica(pid, orc, config, mining_interval=1.0)

    return run_protocol(
        f"topo-{kind}",
        factory,
        oracle,
        n=5,
        duration=50.0,
        channel=channel_of(kind, seed),
        topology=topology,
    )


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
@pytest.mark.parametrize("seed", (3, 17))
def test_fullmesh_histories_identical_to_pre_topology_path(kind: str, seed: int):
    """The PR acceptance bar: FullMesh is byte-identical to no topology."""
    default = _run(kind, seed, topology=None)
    fullmesh = _run(kind, seed, topology=FullMesh())
    assert default.history.events == fullmesh.history.events
    assert default.network.messages_sent == fullmesh.network.messages_sent
    assert default.network.messages_dropped == fullmesh.network.messages_dropped
    assert len(default.history.read_responses()) > 0


@pytest.mark.parametrize("kind", ("synchronous", "lossy"))
def test_gossip_runs_are_seed_deterministic(kind: str):
    """Same topology seed ⇒ identical histories; LRC carries the epidemic."""
    first = _run(kind, seed=7, topology=GossipFanout(fanout=3, seed=7))
    second = _run(kind, seed=7, topology=GossipFanout(fanout=3, seed=7))
    assert first.history.events == second.history.events
    assert first.network.messages_sent == second.network.messages_sent
    # And the fan-out genuinely restricted the flood.
    flood = _run(kind, seed=7)
    assert first.network.messages_sent < flood.network.messages_sent


def test_sharded_run_still_disseminates_through_gateways():
    """LRC relays bridge the shards: every replica converges on real blocks."""
    result = _run("synchronous", seed=3, topology=Sharded(shards=2, cross_links=1))
    assert all(len(replica.tree) > 1 for replica in result.replicas.values())
