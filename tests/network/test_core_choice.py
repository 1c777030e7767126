"""Which event store a run drains on: ``run_protocol`` picks it from the run's size.

A run of at most :data:`~repro.network.simulator.BLOCK_FANOUT` processes
without a client population drains on the heap core; a larger run, or
one with column events, keeps the array core
(:func:`~repro.network.simulator.core_for_run`).  ``core=`` overrides
the rule either way, and since both cores record the same history, the
analysed payload cannot tell which one ran.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    ChannelSpec,
    ExperimentSpec,
    FaultSpec,
    WorkloadSpec,
    get_protocol,
    load_checkpoint,
    resume_spec_from_checkpoint,
)
from repro.engine.result import analyse_run
from repro.network.simulator import BLOCK_FANOUT, core_for_run
from repro.cli import main


def _run(spec: ExperimentSpec, **options):
    """The raw protocol run of ``spec`` (its network knows the core)."""
    return get_protocol(spec.protocol).runner(**spec.build_kwargs(), **options)


def _core(spec: ExperimentSpec, **options) -> str:
    return _run(spec, **options).network.simulator.core


def _stable(spec: ExperimentSpec, **options) -> str:
    run = _run(spec, **options)
    return analyse_run(spec, get_protocol(spec.protocol), run, 0.0).stable_json()


def _spec(n: int, **changes) -> ExperimentSpec:
    return ExperimentSpec(protocol="bitcoin", replicas=n, duration=20.0, seed=3, **changes)


def test_the_threshold_is_the_block_fanout():
    assert BLOCK_FANOUT == 16
    assert core_for_run(BLOCK_FANOUT) == "heap"
    assert core_for_run(BLOCK_FANOUT + 1) == "array"
    assert core_for_run(1, clients=1) == "array"
    assert core_for_run(5, clients=0) == "heap"


@pytest.mark.parametrize("n", (1, 5, 16))
def test_small_runs_without_clients_drain_on_the_heap(n: int):
    assert _core(_spec(n)) == "heap"


def test_a_run_of_seventeen_keeps_the_array_core():
    assert _core(_spec(17)) == "array"


def test_a_client_population_keeps_the_array_core():
    # population_stream's shape: 8 replicas and a client population.
    spec = _spec(8, workload=WorkloadSpec(clients=200, client_rate=0.5))
    assert _core(spec) == "array"


@pytest.mark.parametrize("n, forced", ((5, "array"), (17, "heap")))
def test_core_overrides_the_rule_both_ways(n: int, forced: str):
    assert _core(_spec(n), core=forced) == forced


def test_the_ledger_cells_keep_the_array_core():
    """``flood_storm`` (48 replicas) and ``population_stream`` (10 000
    clients on 8 replicas), shortened: both stay on the array core."""
    flood = ExperimentSpec(
        protocol="bitcoin",
        replicas=48,
        duration=5.0,
        seed=2,
        channel=ChannelSpec(kind="synchronous", params={"delta": 1.5, "min_delay": 0.5}, seed=2),
        workload=WorkloadSpec(read_interval=20.0),
        params={"token_rate": 0.8, "selection": "longest"},
    )
    population = ExperimentSpec(
        protocol="bitcoin",
        replicas=8,
        duration=2.0,
        seed=1,
        workload=WorkloadSpec(clients=10_000, client_rate=0.5),
        params={"token_rate": 0.4},
    )
    assert _core(flood) == "array"
    assert _core(population) == "array"


_FAULTS = {
    16: FaultSpec(kind="crash", params={"at": {"p3": 8.0}}),
    17: FaultSpec(
        kind="partition",
        params={"groups": [["p0", "p1", "p2"], ["p3", "p4"]], "at": 4.0, "heal_at": 12.0},
    ),
}


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "fault"))
@pytest.mark.parametrize("n", (BLOCK_FANOUT, BLOCK_FANOUT + 1))
def test_the_payload_is_the_forced_other_cores(n: int, faulted: bool):
    """Either side of the threshold, the payload of the core the rule
    picks equals the payload of the other core, clean and under a fault."""
    spec = _spec(n, fault=_FAULTS[n] if faulted else None)
    other = "array" if core_for_run(n) == "heap" else "heap"
    assert spec.execute().stable_json() == _stable(spec, core=other)


def test_an_auto_heap_checkpoint_resumes_to_the_uninterrupted_payload(capsys, tmp_path):
    argv = ["classify", "bitcoin", "--replicas", "5", "--duration", "60", "--seed", "3"]
    assert main(argv) == 0
    clean_out = capsys.readouterr().out
    assert main(argv + ["--checkpoint-every", "200", "--checkpoint-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == clean_out
    (path,) = [p for p in tmp_path.glob("*.ckpt") if not p.name.endswith(".prev.ckpt")]
    snapshot = load_checkpoint(str(path))
    assert snapshot.restore().simulator.core == "heap"
    spec = ExperimentSpec.from_dict(snapshot.spec)
    uninterrupted = _run(spec.with_updates(checkpoint_every=None, checkpoint_path=None))
    payload = analyse_run(spec, get_protocol(spec.protocol), uninterrupted, 0.0).stable_json()
    assert resume_spec_from_checkpoint(spec, snapshot).stable_json() == payload
    assert main(["resume-run", str(path)]) == 0
    resumed_out = capsys.readouterr().out
    assert resumed_out.startswith("resumed")
    assert resumed_out.endswith(clean_out)
