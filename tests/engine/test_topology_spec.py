"""TopologySpec: JSON round-trips, digest stability, grids, uniform errors.

The engine-side acceptance bars of the topology PR:

* ``ExperimentSpec(topology=...)`` round-trips through JSON and executes
  through the registered vocabulary;
* a spec *without* a topology serializes without the key, so result-cache
  digests of every pre-topology spec are unchanged;
* unknown protocol / channel / topology / selection / score names all
  raise the same :class:`~repro.core.errors.UnknownVocabularyError`
  listing the registered names (satellite: the messages themselves are
  unit-tested here).
"""

from __future__ import annotations

import pytest

from repro.core.errors import UnknownVocabularyError
from repro.engine import ExperimentSpec, TopologySpec, expand_grid, spec_digest
from repro.engine.spec import ChannelSpec, WorkloadSpec
from repro.network.topology import Committee, GossipFanout, Sharded


class TestRoundTrip:
    def test_topology_spec_json_round_trip(self):
        spec = ExperimentSpec(
            protocol="bitcoin",
            replicas=4,
            topology=TopologySpec(
                kind="gossip", params={"fanout": 4}, seed=11
            ),
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.topology.kind == "gossip"
        assert restored.topology.params == {"fanout": 4}
        assert restored.topology.seed == 11

    def test_bare_kind_shorthand(self):
        assert TopologySpec.from_dict("ring") == TopologySpec(kind="ring")

    def test_complex_params_survive(self):
        spec = ExperimentSpec(
            protocol="redbelly",
            topology=TopologySpec(
                kind="committee",
                params={"members": ["p0", "p1"], "include_observers": False},
            ),
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        topology = restored.topology.build(restored.seed)
        assert isinstance(topology, Committee)
        assert topology.members == ("p0", "p1")
        assert topology.include_observers is False


class TestDigestStability:
    def test_unset_topology_is_not_serialized(self):
        spec = ExperimentSpec(protocol="bitcoin")
        assert "topology" not in spec.to_dict()
        assert "topology" not in spec.to_json()

    def test_digest_unchanged_for_pre_topology_specs(self):
        """Existing cache entries must keep their keys byte-for-byte."""
        spec = ExperimentSpec(
            protocol="bitcoin",
            replicas=5,
            duration=60.0,
            seed=7,
            channel=ChannelSpec(kind="synchronous", params={"delta": 3.0}),
            workload=WorkloadSpec(read_interval=4.0),
        )
        expected = (
            '{"channel": {"drop_probability": 0.0, "kind": "synchronous", '
            '"params": {"delta": 3.0}, "seed": null}, "duration": 60.0, '
            '"fault": null, '
            '"label": null, "oracle_k": null, "params": {}, "protocol": "bitcoin", '
            '"replicas": 5, "score": "length", "seed": 7, '
            '"workload": {"merit": null, "merit_exponent": 1.0, '
            '"read_interval": 4.0, "use_lrc": null}}'
        )
        assert spec.to_json() == expected

    def test_digest_participates_only_when_set(self):
        bare = ExperimentSpec(protocol="bitcoin")
        with_topology = bare.with_updates(topology=TopologySpec("gossip"))
        assert spec_digest(bare) != spec_digest(with_topology)
        assert spec_digest(bare) == spec_digest(
            ExperimentSpec.from_json(bare.to_json())
        )


class TestBuild:
    def test_seed_defaults_to_spec_seed(self):
        spec = ExperimentSpec(
            protocol="bitcoin", seed=23, topology=TopologySpec("gossip")
        )
        topology = spec.topology.build(spec.seed)
        assert isinstance(topology, GossipFanout)
        assert topology.seed == 23

    def test_build_kwargs_threads_the_topology(self):
        spec = ExperimentSpec(
            protocol="bitcoin",
            topology=TopologySpec("sharded", params={"shards": 2}),
        )
        kwargs = spec.build_kwargs()
        assert isinstance(kwargs["topology"], Sharded)

    @pytest.mark.parametrize(
        "base, topology",
        [
            pytest.param(
                dict(protocol="bitcoin", replicas=5, duration=20.0, seed=2,
                     params={"token_rate": 0.4}),
                TopologySpec("gossip", params={"fanout": 2}),
                id="gossip",
            ),
            # LRC relays bridge the shard gateways, so the sharded run
            # still disseminates real blocks everywhere.
            pytest.param(
                dict(protocol="bitcoin", replicas=10, duration=40.0, seed=7,
                     channel=ChannelSpec(
                         kind="synchronous", params={"delta": 3.0, "min_delay": 0.5}
                     ),
                     params={"token_rate": 0.4}),
                TopologySpec("sharded", params={"shards": 3, "cross_links": 1}),
                id="sharded",
            ),
            # Committee-only dissemination against the default (open)
            # committee, which also serves the observers.
            pytest.param(
                dict(protocol="redbelly", replicas=9, duration=60.0, seed=7),
                TopologySpec(
                    "committee",
                    params={
                        "members": [f"p{i}" for i in range(4)],
                        "include_observers": False,
                    },
                ),
                id="committee-only",
            ),
        ],
    )
    def test_execute_with_topology(self, base, topology):
        """A restricted topology sends strictly fewer messages than the
        unrestricted run of the same spec (which converges), and still
        disseminates real blocks."""
        unrestricted = ExperimentSpec(**base).execute()
        restricted = ExperimentSpec(**base, topology=topology).execute()
        assert 0 < restricted.network["messages_sent"] < unrestricted.network["messages_sent"]
        assert unrestricted.convergence["agreement_ratio"] == 1.0
        assert restricted.forks["mean_blocks"] > 1.0


class TestGrid:
    def test_topology_kind_axis(self):
        base = ExperimentSpec(protocol="bitcoin", replicas=3, duration=10.0)
        cells = expand_grid(base, {"topology": ["full", "gossip", "ring"]})
        assert [c.topology.kind for c in cells] == ["full", "gossip", "ring"]
        assert [c.label for c in cells] == [
            "bitcoin topology=full",
            "bitcoin topology=gossip",
            "bitcoin topology=ring",
        ]

    def test_topology_param_axis(self):
        base = ExperimentSpec(
            protocol="bitcoin", topology=TopologySpec("gossip", params={"fanout": 2})
        )
        cells = expand_grid(base, {"topology.fanout": [2, 4, 8]})
        assert [c.topology.params["fanout"] for c in cells] == [2, 4, 8]
        assert all(c.topology.kind == "gossip" for c in cells)

    def test_topology_param_axis_starts_from_the_default(self):
        base = ExperimentSpec(protocol="bitcoin")
        cells = expand_grid(base, {"topology.kind": ["full", "sharded"]})
        assert [c.topology.kind for c in cells] == ["full", "sharded"]


class TestUniformVocabularyErrors:
    """Satellite: unknown names fail with one error shape, messages pinned."""

    def test_unknown_protocol(self):
        with pytest.raises(UnknownVocabularyError) as excinfo:
            ExperimentSpec(protocol="bitconnect").execute()
        message = str(excinfo.value)
        assert message.startswith("unknown protocol 'bitconnect'; registered: ")
        assert "'bitcoin'" in message and "'ethereum'" in message

    def test_unknown_channel_kind(self):
        with pytest.raises(UnknownVocabularyError) as excinfo:
            ChannelSpec(kind="quantum").build(0)
        assert str(excinfo.value) == (
            "unknown channel kind 'quantum'; registered: "
            "'asynchronous', 'partial', 'synchronous'"
        )

    def test_unknown_topology_kind(self):
        spec = ExperimentSpec(protocol="bitcoin", topology=TopologySpec("mesh2"))
        with pytest.raises(UnknownVocabularyError) as excinfo:
            spec.build_kwargs()
        assert str(excinfo.value) == (
            "unknown topology 'mesh2'; registered: 'committee', 'full', "
            "'gossip', 'random-regular', 'ring', 'sharded'"
        )

    def test_unknown_selection_and_score(self):
        spec = ExperimentSpec(protocol="bitcoin", params={"selection": "shortest"})
        with pytest.raises(UnknownVocabularyError, match="unknown selection function"):
            spec.build_kwargs()
        with pytest.raises(UnknownVocabularyError) as excinfo:
            ExperimentSpec(protocol="bitcoin", score="mass").build_score()
        assert str(excinfo.value) == (
            "unknown score function 'mass'; registered: 'length', 'weight'"
        )

    def test_unknown_merit(self):
        with pytest.raises(UnknownVocabularyError, match="unknown merit distribution"):
            WorkloadSpec(merit="pareto").build_merit(4)

    def test_error_is_both_key_and_value_error(self):
        """Historical catch sites used either type; both must keep working."""
        error = UnknownVocabularyError("protocol", "x", ("a", "b"))
        assert isinstance(error, KeyError)
        assert isinstance(error, ValueError)
        assert error.registered == ("a", "b")

    def test_empty_vocabulary_reads_none(self):
        assert str(UnknownVocabularyError("thing", "x", ())) == (
            "unknown thing 'x'; registered: (none)"
        )
