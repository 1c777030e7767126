"""Unit tests for the declarative experiment specifications."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.engine import (
    ChannelSpec,
    ExperimentSpec,
    FaultSpec,
    RunResult,
    TopologySpec,
    WorkloadSpec,
    table1_spec,
)
from repro.network.channels import (
    LossyChannel,
    PartiallySynchronousChannel,
    SynchronousChannel,
)


class TestChannelSpec:
    def test_builds_synchronous_channel_with_spec_seed(self):
        spec = ChannelSpec(kind="synchronous", params={"delta": 2.0, "min_delay": 0.5})
        channel = spec.build(default_seed=11)
        assert isinstance(channel, SynchronousChannel)
        assert channel.delta == 2.0 and channel.min_delay == 0.5

    def test_drop_probability_wraps_in_lossy(self):
        channel = ChannelSpec(kind="synchronous", drop_probability=0.4).build(default_seed=1)
        assert isinstance(channel, LossyChannel)
        assert channel.drop_probability == 0.4
        assert isinstance(channel.inner, SynchronousChannel)

    def test_partial_synchrony_kind(self):
        channel = ChannelSpec(kind="partial", params={"gst": 20.0}).build(default_seed=0)
        assert isinstance(channel, PartiallySynchronousChannel)
        assert channel.gst == 20.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            ChannelSpec(kind="pigeon").build(default_seed=0)

    def test_round_trip(self):
        spec = ChannelSpec(kind="partial", params={"gst": 20.0}, drop_probability=0.1, seed=3)
        assert ChannelSpec.from_dict(spec.to_dict()) == spec


class TestSerialization:
    def test_full_round_trip_through_json(self):
        spec = ExperimentSpec(
            protocol="bitcoin",
            replicas=4,
            duration=80.0,
            seed=13,
            channel=ChannelSpec(kind="synchronous", params={"delta": 3.0}, drop_probability=0.2),
            workload=WorkloadSpec(use_lrc=False, merit="zipf", merit_exponent=1.5),
            fault=FaultSpec(kind="crash", params={"at": {"p1": 30.0}}),
            oracle_k=2,
            params={"token_rate": 0.4},
            label="round-trip",
            topology=TopologySpec(kind="gossip", params={"fanout": 2}, seed=5),
            monitor=True,
            checkpoint_every=500,
            checkpoint_path="run.ckpt",
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        # Every field is set, so this is every key ``from_dict`` must accept.
        assert set(spec.to_dict()) == {f.name for f in dataclasses.fields(ExperimentSpec)}

    def test_unknown_top_level_keys_are_refused_by_name(self):
        data = {**ExperimentSpec(protocol="bitcoin").to_dict(), "bogus": 1, "durration": 5}
        with pytest.raises(ValueError, match=r"'bogus', 'durration'.*accepted: protocol, "):
            ExperimentSpec.from_dict(data)

    def test_unknown_channel_keys_are_refused_by_name(self):
        data = {"kind": "synchronous", "parms": {"delta": 3.0}}
        with pytest.raises(
            ValueError,
            match=r"unknown channel key\(s\) 'parms'; accepted: kind, params, "
            r"drop_probability, seed",
        ):
            ExperimentSpec.from_dict({"protocol": "bitcoin", "channel": data})

    def test_unknown_topology_keys_are_refused_by_name(self):
        with pytest.raises(
            ValueError, match=r"unknown topology key\(s\) 'fanout'; accepted: kind, params, seed"
        ):
            TopologySpec.from_dict({"kind": "gossip", "fanout": 2})
        assert TopologySpec.from_dict("gossip") == TopologySpec(kind="gossip")

    def test_unknown_workload_keys_are_refused_by_name(self):
        with pytest.raises(
            ValueError, match=r"unknown workload key\(s\) 'client'; accepted: read_interval, "
        ):
            ExperimentSpec.from_dict({"protocol": "bitcoin", "workload": {"client": 10}})

    def test_unknown_fault_keys_are_refused_by_name_but_legacy_spellings_load(self):
        with pytest.raises(
            ValueError,
            match=r"unknown fault key\(s\) 'heal_at'; accepted: kind, params, seed, "
            r"byzantine, crash_at",
        ):
            FaultSpec.from_dict({"kind": "partition", "heal_at": 40})
        assert FaultSpec.from_dict({"kind": "crash", "crash_at": {"p1": 3.0}}) == FaultSpec(
            kind="crash", params={"at": {"p1": 3.0}}
        )
        assert FaultSpec.from_dict({"kind": "byzantine", "byzantine": ["p2"]}) == FaultSpec(
            kind="silent", params={"members": ["p2"]}
        )

    def test_negative_duration_is_refused(self):
        with pytest.raises(ValueError, match="duration must be >= 0"):
            ExperimentSpec(protocol="bitcoin", duration=-5)
        with pytest.raises(ValueError, match="duration must be >= 0"):
            ExperimentSpec.from_dict({"protocol": "bitcoin", "duration": -5})

    def test_infinite_oracle_bound_survives_json(self):
        spec = ExperimentSpec(protocol="bitcoin", oracle_k=math.inf)
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.oracle_k == math.inf
        assert "Infinity" not in spec.to_json()  # strict JSON payload

    def test_with_updates_returns_modified_copy(self):
        spec = ExperimentSpec(protocol="bitcoin", seed=1)
        other = spec.with_updates(seed=9)
        assert other.seed == 9 and spec.seed == 1 and other.protocol == "bitcoin"


class TestBuildKwargs:
    def test_minimal_spec_passes_only_core_kwargs(self):
        kwargs = ExperimentSpec(protocol="hyperledger", replicas=4, duration=50.0, seed=3).build_kwargs()
        assert kwargs == {"n": 4, "duration": 50.0, "seed": 3}

    def test_unknown_param_fails_loudly(self):
        spec = ExperimentSpec(protocol="hyperledger", params={"token_rate": 0.4})
        with pytest.raises(ValueError, match="does not accept parameter 'token_rate'"):
            spec.build_kwargs()

    def test_removed_plane_switch_fails_loudly(self):
        """``batched`` used to reach ``Network(batched=False)`` — the oracle
        plane — from any spec or sweep axis without saying so; the plane is
        test code now, so the parameter is refused like any unknown one."""
        from repro.engine.sweep import expand_grid

        message = "protocol 'bitcoin' does not accept parameter 'batched'"
        spec = ExperimentSpec(protocol="bitcoin", params={"batched": False})
        with pytest.raises(ValueError, match=message):
            spec.build_kwargs()
        (cell,) = expand_grid(
            ExperimentSpec(protocol="bitcoin"), {"params.batched": [False]}
        )
        with pytest.raises(ValueError, match=message):
            cell.build_kwargs()
        # The event-core switch is no spec parameter either: it names the
        # run harness, so it is refused with the reason, not as a typo.
        heap = ExperimentSpec(protocol="bitcoin", params={"core": "heap"})
        with pytest.raises(ValueError, match=r"params\['core'\] names a run-harness option"):
            heap.build_kwargs()

    @pytest.mark.parametrize(
        "key, hint",
        [
            ("core", "no spec field sets it"),
            ("max_events", "no spec field sets it"),
            ("n", "set the spec's 'replicas' field"),
            ("channel", "set the spec's 'channel' field"),
            ("monitor", "set the spec's 'monitor' field"),
            ("topology", "set the spec's 'topology' field"),
            ("fault", "set the spec's 'fault' field"),
            ("clients", "set the spec's 'workload.clients' field"),
        ],
    )
    @pytest.mark.parametrize("protocol", ["bitcoin", "hyperledger"])
    def test_params_cannot_address_the_harness(self, protocol, key, hint):
        spec = ExperimentSpec(protocol=protocol, params={key: None})
        with pytest.raises(ValueError, match=hint) as excinfo:
            spec.build_kwargs()
        assert f"params[{key!r}]" in str(excinfo.value)

    def test_selection_string_is_materialized(self):
        from repro.core.selection import LongestChain

        kwargs = ExperimentSpec(
            protocol="bitcoin", params={"selection": "longest"}
        ).build_kwargs()
        assert isinstance(kwargs["selection"], LongestChain)

    def test_unknown_selection_rejected(self):
        spec = ExperimentSpec(protocol="bitcoin", params={"selection": "coin-flip"})
        with pytest.raises(ValueError, match="unknown selection function"):
            spec.build_kwargs()

    def test_oracle_bound_builds_frugal_oracle(self):
        from repro.oracle.theta import FrugalOracle

        kwargs = ExperimentSpec(
            protocol="bitcoin", oracle_k=2, params={"token_rate": 0.4}
        ).build_kwargs()
        assert isinstance(kwargs["oracle"], FrugalOracle)
        assert kwargs["oracle"].k == 2

    def test_fault_spec_routes_kwargs(self):
        from repro.network.faults import CrashFault

        kwargs = ExperimentSpec(
            protocol="bitcoin",
            fault=FaultSpec(kind="crash", params={"at": {"p0": 10.0}}),
        ).build_kwargs()
        assert isinstance(kwargs["fault"], CrashFault)
        assert kwargs["fault"].at == {"p0": 10.0} and "crash_at" not in kwargs

    def test_model_fault_spec_builds_fault_model(self):
        from repro.network.faults import PartitionFault

        kwargs = ExperimentSpec(
            protocol="bitcoin",
            fault=FaultSpec(
                kind="partition",
                params={"groups": [["p0"], ["p1"]], "at": 5.0, "heal_at": 20.0},
            ),
        ).build_kwargs()
        assert isinstance(kwargs["fault"], PartitionFault)
        assert kwargs["fault"].heal_at == 20.0
        assert "crash_at" not in kwargs and "byzantine" not in kwargs


class TestFaultSpec:
    def test_legacy_kinds_use_their_runners(self):
        """The system's own runner, that is: the pre-registry spelling
        reads as the registry kind that rides its ``fault=`` keyword."""
        crash = FaultSpec.from_dict({"kind": "crash", "crash_at": {"p0": 5.0}, "byzantine": []})
        assert crash == FaultSpec(kind="crash", params={"at": {"p0": 5.0}})
        silent = FaultSpec.from_dict({"kind": "byzantine", "crash_at": {}, "byzantine": ["p1"]})
        assert silent == FaultSpec(kind="silent", params={"members": ["p1"]})
        # A bare legacy kind harmed nobody, and still does not.
        assert FaultSpec.from_dict("crash") == FaultSpec("crash", params={"at": {}})
        assert FaultSpec.from_dict("byzantine") == FaultSpec("silent", params={"members": []})
        # The empty legacy keys old artifacts carry beside ``params`` are ignored.
        old = {"kind": "eclipse", "crash_at": {}, "byzantine": [], "params": {"victim": "p0", "until": 9.0}}
        assert FaultSpec.from_dict(old) == FaultSpec("eclipse", params=old["params"])

    def test_params_route_legacy_kind_through_the_registry(self):
        from repro.network.faults import CrashFault, SilentFault

        spec = FaultSpec(kind="crash", params={"at": {"p0": 5.0}})
        assert isinstance(spec.build(default_seed=3), CrashFault)
        assert isinstance(FaultSpec.from_dict("byzantine").build(default_seed=3), SilentFault)

    def test_model_kind_builds_with_spec_seed_default(self):
        spec = FaultSpec(kind="eclipse", params={"victim": "p0", "until": 9.0})
        fault = spec.build(default_seed=42)
        assert fault.victim == "p0"

    def test_unknown_kind_raises_uniform_vocabulary_error(self):
        from repro.core.errors import UnknownVocabularyError

        spec = FaultSpec(kind="gremlins")
        with pytest.raises(UnknownVocabularyError) as excinfo:
            spec.build(default_seed=0)
        message = str(excinfo.value)
        assert message.startswith("unknown fault 'gremlins'; registered:")
        assert "'churn'" in message and "'partition'" in message
        # The uniform error still matches historic except clauses.
        assert isinstance(excinfo.value, (KeyError, ValueError))

    def test_digest_rule_old_keys_read_canonical_form_written(self, tmp_path):
        """Old keys are read, the canonical form is written, and a cache
        entry stored under the old digest is a miss — never a hit."""
        import hashlib
        import json

        from repro.engine import ResultCache, spec_digest

        canonical = ExperimentSpec(
            protocol="bitcoin", fault=FaultSpec("crash", params={"at": {"p1": 30.0}})
        )
        legacy = json.loads(canonical.to_json())
        legacy["fault"] = {"kind": "crash", "crash_at": {"p1": 30.0}, "byzantine": []}
        legacy_text = json.dumps(legacy, sort_keys=True)
        legacy_digest = hashlib.sha256(legacy_text.encode("utf-8")).hexdigest()

        read = ExperimentSpec.from_json(legacy_text)
        assert read == canonical
        assert read.fault.to_dict() == {"kind": "crash", "params": {"at": {"p1": 30.0}}}
        assert ExperimentSpec.from_json(read.to_json()) == read
        assert spec_digest(read) == spec_digest(canonical) != legacy_digest

        # What an old cache directory holds: the legacy-spelled payload
        # under the legacy digest.
        cache = ResultCache(tmp_path)
        (tmp_path / f"{legacy_digest}.json").write_text(
            json.dumps({"spec": legacy, "protocol_name": "bitcoin-crash"})
        )
        assert cache.get(read) is None and cache.get(canonical) is None
        assert (cache.hits, cache.misses) == (0, 2)

    def test_params_and_seed_round_trip(self):
        spec = FaultSpec(kind="churn", params={"leave": {"p2": 10.0}}, seed=5)
        data = spec.to_dict()
        assert data["params"] == {"leave": {"p2": 10.0}} and data["seed"] == 5
        assert FaultSpec.from_dict(data) == spec

    def test_bare_string_is_kind_shorthand(self):
        assert FaultSpec.from_dict("partition") == FaultSpec(kind="partition")

    def test_unknown_score_rejected(self):
        with pytest.raises(ValueError, match="unknown score"):
            ExperimentSpec(protocol="bitcoin", score="entropy").build_score()


class TestExecution:
    def test_execute_matches_direct_run(self):
        from repro.protocols.classification import classify_run
        from repro.protocols.hyperledger import run_hyperledger

        record = ExperimentSpec(protocol="hyperledger", replicas=3, duration=40.0, seed=5).execute()
        direct = classify_run(run_hyperledger(n=3, duration=40.0, seed=5))
        assert record.classification["describe"] == direct.describe()
        assert record.classification["matches_paper"] is True
        assert record.run is not None and record.classification_result is not None

    def test_result_round_trips_through_json(self):
        import json

        record = ExperimentSpec(protocol="hyperledger", replicas=3, duration=40.0, seed=5).execute()
        from repro.engine import RunResult

        restored = RunResult.from_dict(json.loads(record.to_json()))
        assert restored.classification == record.classification
        assert restored.forks == record.forks
        assert restored.run is None  # live objects do not survive serialization

    def test_network_counters_are_recorded(self):
        record = ExperimentSpec(protocol="hyperledger", replicas=3, duration=40.0, seed=5).execute()
        net = record.network
        assert net["messages_sent"] == net["messages_delivered"] + net["messages_dropped"]
        assert net["events_processed"] > 0
        assert record.timings["run_seconds"] > 0
        # Fault-free artifacts never grow the churn-only keys.
        assert "messages_quarantined" not in net
        assert "degradation" not in record.to_dict()

    def test_model_fault_records_degradation_summary(self):
        import json

        record = ExperimentSpec(
            protocol="bitcoin",
            replicas=4,
            duration=60.0,
            seed=5,
            params={"token_rate": 0.4},
            fault=FaultSpec(
                kind="partition",
                params={"groups": [["p0", "p1"], ["p2", "p3"]], "at": 10.0, "heal_at": 40.0},
            ),
        ).execute()
        assert record.degradation is not None
        assert record.degradation["heal_at"] == 40.0
        assert record.degradation["final_divergence_depth"] == 0
        restored = RunResult.from_dict(json.loads(record.to_json()))
        assert restored.degradation == record.degradation


class TestTable1Spec:
    def test_pow_rows_are_fork_prone(self):
        spec = table1_spec("bitcoin", n=5, duration=100.0, seed=7)
        assert spec.params["token_rate"] == 0.4
        assert spec.channel is not None and spec.channel.params["delta"] == 3.0

    def test_consensus_rows_use_defaults(self):
        spec = table1_spec("hyperledger", n=5, duration=100.0, seed=7)
        assert spec.channel is None and spec.params == {}


class TestOracleBoundValidation:
    def test_fractional_bound_rejected(self):
        spec = ExperimentSpec(protocol="bitcoin", oracle_k=1.5, params={"token_rate": 0.4})
        with pytest.raises(ValueError, match="positive integer or inf"):
            spec.build_kwargs()

    def test_nonpositive_bound_rejected(self):
        spec = ExperimentSpec(protocol="bitcoin", oracle_k=0, params={"token_rate": 0.4})
        with pytest.raises(ValueError, match="positive integer or inf"):
            spec.build_kwargs()


class TestMonitorOptIn:
    def test_monitor_field_round_trips(self):
        spec = ExperimentSpec(protocol="bitcoin", monitor=True, params={"token_rate": 0.4})
        assert spec.to_dict()["monitor"] is True
        assert ExperimentSpec.from_json(spec.to_json()).monitor is True

    def test_monitor_absent_from_default_serialization(self):
        # Keeps spec digests (and therefore cache keys) of pre-existing
        # specs unchanged.
        spec = ExperimentSpec(protocol="bitcoin", params={"token_rate": 0.4})
        assert "monitor" not in spec.to_dict()
        assert ExperimentSpec.from_json(spec.to_json()).monitor is False

    def test_build_kwargs_materializes_a_monitor(self):
        from repro.core.consistency_index import ConsistencyMonitor

        spec = ExperimentSpec(protocol="bitcoin", monitor=True, params={"token_rate": 0.4})
        kwargs = spec.build_kwargs()
        assert isinstance(kwargs["monitor"], ConsistencyMonitor)
        plain = ExperimentSpec(protocol="bitcoin", params={"token_rate": 0.4})
        assert "monitor" not in plain.build_kwargs()

    def test_execute_attaches_verdicts(self):
        spec = ExperimentSpec(
            protocol="hyperledger", replicas=3, duration=20.0, seed=1, monitor=True
        )
        record = spec.execute()
        assert record.consistency is not None
        assert set(record.consistency["properties"]) == {
            "block-validity",
            "local-monotonic-read",
            "strong-prefix",
            "ever-growing-tree",
            "eventual-prefix",
        }
        payload = record.to_dict()
        assert payload["consistency"]["strong"] == record.consistency["strong"]
        restored = RunResult.from_dict(payload)
        assert restored.consistency == record.consistency

    def test_plain_execute_has_no_consistency_key(self):
        spec = ExperimentSpec(protocol="hyperledger", replicas=3, duration=20.0, seed=1)
        record = spec.execute()
        assert record.consistency is None
        assert "consistency" not in record.to_dict()
