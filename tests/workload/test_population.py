"""Population-scale client workloads: generation, scheduling, spec wiring.

Exercises :class:`~repro.workload.population.ClientPopulation` standalone
(determinism, validation, conflict column), its integration with the
protocol runners (streams → mempool → block payloads, identical under
both event cores), and the declarative plumbing — ``WorkloadSpec``'s
population axis must round-trip, sweep through ``expand_grid``, and
leave pre-existing spec digests untouched.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.engine.cache import spec_digest
from repro.engine.registry import available_protocols
from repro.engine.spec import ExperimentSpec, WorkloadSpec
from repro.engine.sweep import expand_grid
from repro.protocols.committee import CommitteeReplica
from repro.workload.population import ClientPopulation


def _population(**overrides):
    params = dict(
        clients=200,
        rate=0.5,
        duration=40.0,
        processes=("p0", "p1", "p2", "p3"),
        seed=7,
    )
    params.update(overrides)
    return ClientPopulation(**params)


# -- generation --------------------------------------------------------------


def test_same_seed_identical_streams():
    a = _population()
    b = _population()
    assert a.total_ops == b.total_ops
    for pid in a.processes:
        np.testing.assert_array_equal(a.streams[pid][0], b.streams[pid][0])
        np.testing.assert_array_equal(a.streams[pid][1], b.streams[pid][1])


def test_different_seeds_differ():
    a = _population(seed=7)
    b = _population(seed=8)
    assert any(
        len(a.streams[pid][0]) != len(b.streams[pid][0])
        or not np.array_equal(a.streams[pid][0], b.streams[pid][0])
        for pid in a.processes
    )


def test_streams_cover_every_process_sorted_in_window():
    population = _population()
    assert set(population.streams) == set(population.processes)
    total = 0
    for times, ops in population.streams.values():
        assert len(times) == len(ops)
        total += len(ops)
        if len(times):
            assert float(times.min()) >= 0.0
            assert float(times.max()) < population.duration
            assert np.all(np.diff(times) >= 0)  # sorted arrivals
    assert total == population.total_ops
    assert population.total_ops > 0
    assert population.generation_seconds >= 0.0


def test_fresh_coins_are_unique_across_processes():
    population = _population(conflict_rate=0.0)
    all_ops = np.concatenate([ops for _, ops in population.streams.values()])
    assert len(np.unique(all_ops)) == len(all_ops)


def test_conflict_rate_respends_earlier_coins():
    population = _population(clients=500, conflict_rate=0.5)
    all_ops = np.concatenate([ops for _, ops in population.streams.values()])
    # Respends reuse an earlier coin id, so duplicates appear…
    assert len(np.unique(all_ops)) < len(all_ops)
    # …but ids never leave the issued range and are never negative.
    assert int(all_ops.min()) >= 0
    assert int(all_ops.max()) < population.total_ops


@pytest.mark.parametrize(
    "overrides",
    (
        {"clients": 0},
        {"rate": -0.1},
        {"duration": 0.0},
        {"processes": ()},
        {"conflict_rate": 1.5},
    ),
)
def test_invalid_parameters_rejected(overrides):
    with pytest.raises(ValueError):
        _population(**overrides)


def test_stats_shape():
    population = _population()
    stats = population.stats()
    assert stats["clients"] == 200
    assert stats["total_ops"] == population.total_ops
    assert stats["generation_seconds"] == population.generation_seconds


# -- protocol integration ----------------------------------------------------


def _run_bitcoin(core: str, clients, duration: float = 40.0, n: int = 4):
    from repro.protocols.nakamoto import run_bitcoin

    return run_bitcoin(
        n=n,
        duration=duration,
        seed=11,
        token_rate=0.5,
        core=core,
        clients=clients,
    )


def test_population_histories_identical_across_cores():
    array = _run_bitcoin("array", clients=300)
    heap = _run_bitcoin("heap", clients=300)
    assert array.history.events == heap.history.events
    assert array.network.simulator.events_processed == heap.network.simulator.events_processed
    assert array.population.total_ops == heap.population.total_ops
    assert array.population.scheduled_ops == array.population.total_ops


def test_client_ops_flow_into_block_payloads():
    """End to end: streams → mempool → mined block payloads carry coins."""
    result = _run_bitcoin("array", clients=300)
    payloads = [
        block.payload
        for replica in result.replicas.values()
        for block in replica.tree
        if block.payload
    ]
    assert payloads, "no block carried a payload"
    coins = {item for payload in payloads for item in payload}
    assert any(str(item).startswith("coin") for item in coins)
    # Mempools were actually drained, not just filled.
    assert any(len(replica.mempool) < 100_000 for replica in result.replicas.values())


def test_runs_without_population_have_no_population_attached():
    result = _run_bitcoin("array", clients=None)
    assert result.population is None


# -- declarative spec plumbing -----------------------------------------------


def test_workload_spec_round_trip():
    spec = WorkloadSpec(clients=1000, client_rate=0.25)
    data = spec.to_dict()
    assert data["clients"] == 1000
    assert data["client_rate"] == 0.25
    assert WorkloadSpec.from_dict(data) == spec


def test_bare_workload_spec_digest_unchanged():
    """The population keys are omitted when unset, so specs (and cache
    digests) from before the axis existed serialize byte-identically."""
    bare = WorkloadSpec().to_dict()
    assert set(bare) == {"read_interval", "use_lrc", "merit", "merit_exponent"}
    with_population = ExperimentSpec(
        protocol="bitcoin", workload=WorkloadSpec(clients=100)
    )
    without = ExperimentSpec(protocol="bitcoin")
    assert spec_digest(with_population) != spec_digest(without)
    assert "clients" not in without.to_dict()["workload"]


def test_population_spec_executes_end_to_end():
    spec = ExperimentSpec(
        protocol="bitcoin",
        replicas=4,
        duration=40.0,
        seed=3,
        workload=WorkloadSpec(clients=500, client_rate=0.5),
        params={"token_rate": 0.4},
    )
    result = spec.execute()
    assert result.network["client_ops"] > 0
    assert "workload_generation_seconds" in result.timings
    # Round-trips keep the population fields.
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("protocol", available_protocols())
def test_every_system_takes_a_population(protocol):
    """The harness owns the population, so all eight systems accept it —
    and the committee family proposes the client operations it received."""
    spec = ExperimentSpec(
        protocol=protocol, replicas=4, duration=40.0, seed=3,
        workload=WorkloadSpec(clients=200),
    )
    result = spec.execute()
    network = result.network
    assert network["client_ops"] > 0
    assert network["messages_sent"] == (
        network["messages_delivered"]
        + network["messages_dropped"]
        + network.get("messages_quarantined", 0)
    )
    replicas = result.run.replicas.values()
    if all(isinstance(replica, CommitteeReplica) for replica in replicas):
        # ``_propose`` took its mempool branch: operations left the
        # mempools and sit, as ``coin<n>`` ids, in committed blocks.
        drained = network["client_ops"] - sum(len(r.mempool) for r in replicas)
        committed = {item for r in replicas for block in r.tree for item in block.payload}
        assert 0 < len(committed) <= drained
        assert all(re.fullmatch(r"coin\d+", item) for item in committed)


def test_ten_thousand_clients_through_declarative_spec():
    """The ISSUE acceptance shape: a 10k-client population runs end to
    end through one declarative spec, and generating it stays a small
    fraction of the run it feeds."""
    spec = ExperimentSpec(
        protocol="bitcoin",
        replicas=4,
        duration=30.0,
        seed=5,
        workload=WorkloadSpec(clients=10_000, client_rate=0.5),
        params={"token_rate": 0.4},
    )
    result = spec.execute()
    assert result.network["client_ops"] > 100_000
    generation = result.timings["workload_generation_seconds"]
    assert generation < 0.15 * result.timings["run_seconds"]


def test_clients_is_a_sweep_axis():
    base = ExperimentSpec(
        protocol="bitcoin", replicas=3, duration=20.0, workload=WorkloadSpec(client_rate=0.3)
    )
    cells = expand_grid(base, {"workload.clients": [100, 1000, 10_000]})
    assert [cell.workload.clients for cell in cells] == [100, 1000, 10_000]
    assert all(cell.workload.client_rate == 0.3 for cell in cells)
    assert "workload.clients=1000" in cells[1].label


def test_unknown_workload_axis_rejected():
    base = ExperimentSpec(protocol="bitcoin")
    with pytest.raises(KeyError, match="unknown workload field"):
        expand_grid(base, {"workload.velocity": [1, 2]})
