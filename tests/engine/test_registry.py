"""Unit tests for the protocol registry."""

from __future__ import annotations

import inspect

import pytest

from repro.engine import ExperimentSpec, FaultSpec
from repro.engine.registry import (
    ProtocolEntry,
    ProtocolRegistry,
    available_protocols,
    get_protocol,
    register_protocol,
)
from repro.engine.spec import _HARNESS_FIELDS
from repro.network.faults import build_fault
from repro.protocols.base import run_protocol, system_runner


def _dummy_runner(*, n: int = 3, duration: float = 10.0, seed: int = 0, extra: float = 1.0):
    return (n, duration, seed, extra)


class TestRegistration:
    def test_builtins_are_registered(self):
        names = available_protocols()
        for system in (
            "bitcoin", "ethereum", "byzcoin", "algorand",
            "peercensus", "redbelly", "hyperledger",
        ):
            assert system in names

    def test_unknown_protocol_raises_with_candidates(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            get_protocol("dogecoin")

    def test_decorator_registers_into_given_registry(self):
        registry = ProtocolRegistry()
        decorated = register_protocol("dummy", registry=registry)(_dummy_runner)
        assert decorated is _dummy_runner  # the runner is returned unchanged
        entry = registry.get("dummy")
        assert entry.runner is _dummy_runner
        assert "dummy" in registry and len(registry) == 1

    def test_duplicate_add_rejected_without_replace(self):
        registry = ProtocolRegistry()
        registry.add(ProtocolEntry(name="dummy", runner=_dummy_runner))
        with pytest.raises(ValueError, match="already registered"):
            registry.add(ProtocolEntry(name="dummy", runner=_dummy_runner))

    def test_accepts_reflects_runner_signature(self):
        entry = ProtocolEntry(name="dummy", runner=_dummy_runner)
        assert entry.accepts("extra")
        assert entry.accepts("n")
        assert not entry.accepts("token_rate")


class TestFaultRunners:
    """Faults ride the one ``fault=`` keyword of the system's own runner."""

    def test_bitcoin_has_a_crash_runner(self):
        from repro.protocols.nakamoto import run_bitcoin

        entry = get_protocol("bitcoin")
        assert entry.runner is run_bitcoin
        assert entry.accepts("fault") and not entry.accepts("crash_at")
        run = entry.runner(
            n=3, duration=20.0, seed=1, fault=build_fault("crash", {"at": {"p2": 5.0}})
        )
        assert not run.replicas["p2"].alive and run.name == "bitcoin"

    def test_committee_has_a_byzantine_runner(self):
        entry = get_protocol("committee")
        assert entry.accepts("fault") and not entry.accepts("byzantine")
        spec = ExperimentSpec(
            protocol="committee", replicas=4, duration=20.0,
            fault=FaultSpec("silent", params={"members": ["p3"]}),
        )
        record = spec.execute()
        assert record.run.replicas["p3"].byzantine
        assert record.protocol_name == "committee"

    def test_unknown_fault_kind_raises(self):
        # Every system takes every registered fault; only the kind can be unknown.
        assert all(get_protocol(name).accepts("fault") for name in available_protocols())
        spec = ExperimentSpec(protocol="hyperledger", fault=FaultSpec("gremlins"))
        with pytest.raises(KeyError, match="unknown fault 'gremlins'"):
            spec.build_kwargs()

    def test_none_fault_kind_is_the_base_runner(self):
        # The alias the frozen ledger calls.
        entry = get_protocol("bitcoin")
        assert entry.runner_for(None) is entry.runner


class TestDeclarations:
    @pytest.mark.parametrize("name", available_protocols())
    def test_declaration_and_harness_partition_the_runner_signature(self, name):
        """Pass-through cannot grow back: a system's declaration names no
        ``run_protocol`` option, and the two together are its runner."""
        runner = get_protocol(name).runner
        kinds = (inspect.Parameter.KEYWORD_ONLY,)
        declared = {
            key
            for key, p in inspect.signature(runner.declaration).parameters.items()
            if p.kind in kinds
        }
        harness = {
            key
            for key, p in inspect.signature(run_protocol).parameters.items()
            if p.kind in kinds
        } - {"client_seed"}  # bound to the run's seed by the adapter
        assert declared.isdisjoint(harness)
        assert declared | harness == set(inspect.signature(runner).parameters)
        # ... and a spec can address every harness option it has a field
        # for, none through ``params``.
        assert harness | {"client_seed"} == set(_HARNESS_FIELDS)

    def test_a_declaration_naming_a_harness_option_is_refused(self):
        def run_leaky(n: int = 3, *, seed: int = 0, monitor=None):
            raise AssertionError("never declared")

        with pytest.raises(ValueError, match="duplicate parameter name: 'monitor'"):
            system_runner(run_leaky)


class TestRegimeMetadata:
    def test_pow_systems_carry_a_fork_prone_regime(self):
        for name in ("bitcoin", "ethereum"):
            entry = get_protocol(name)
            assert entry.fork_prone, name
            assert entry.table1, name

    def test_consensus_systems_have_no_table1_overrides(self):
        assert get_protocol("hyperledger").table1 == {}

    def test_fairness_merit_defaults(self):
        assert get_protocol("byzcoin").fairness_merit == "zipf"
        assert get_protocol("bitcoin").fairness_merit == "uniform"


class TestDecoratorCollisions:
    def test_same_name_twice_raises_without_replace(self):
        registry = ProtocolRegistry()
        register_protocol("dup", registry=registry)(_dummy_runner)
        with pytest.raises(ValueError, match="already registered"):
            register_protocol("dup", registry=registry)(_dummy_runner)

    def test_explicit_replace_shadows_loudly_opted_in(self):
        registry = ProtocolRegistry()
        register_protocol("dup", registry=registry)(_dummy_runner)

        def other(*, n=1, duration=1.0, seed=0):
            return None

        register_protocol("dup", registry=registry, replace=True)(other)
        assert registry.get("dup").runner is other
