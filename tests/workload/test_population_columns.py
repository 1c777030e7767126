"""The population workload as column events: guards, bounds, checkpoints.

``ClientPopulation.schedule_on`` hands a stock replica's ``(times, ops)``
arrays to ``Simulator.schedule_column`` with the replica's mempool as the
sink; everything here pins what that may *not* change: a replica that
overrides ``on_client_op`` still sees every operation at its own
timestamp, a bare ``Process`` is still a valid target, the runaway bound
does not count the harness's own workload, ``timed_callbacks()`` still
splits the drain, and a checkpoint taken in the middle of a column
segment restores to the same history — while one written before the
mempool was a column sink is refused with the reason.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
import pytest

from repro.engine.checkpoint import CheckpointCorruptionError, SimulationCheckpoint
from repro.engine.registry import get_protocol
from repro.engine.result import analyse_run
from repro.engine.spec import ExperimentSpec, WorkloadSpec
from repro.network import event_core
from repro.network.channels import SynchronousChannel
from repro.network.process import Process
from repro.network.simulator import Network, Simulator, timed_callbacks
from repro.protocols.base import Mempool
from repro.protocols.nakamoto import NakamotoReplica, run_bitcoin
from repro.workload.population import ClientPopulation

CORES = ("array", "heap")


# -- stock-hook guard ----------------------------------------------------------


class LoggingReplica(NakamotoReplica):
    """Overrides ``on_client_op``: the column route must not be taken."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen = []

    def on_client_op(self, op: int) -> None:
        self.seen.append((float(self.now), op))
        super().on_client_op(op)


def _run(core: str, **overrides):
    options = dict(n=3, duration=20.0, seed=11, token_rate=0.5, core=core, clients=60)
    options.update(overrides)
    return run_bitcoin(**options)


def test_overriding_replica_sees_every_op_at_its_own_timestamp():
    runs = {core: _run(core, replica_cls=LoggingReplica) for core in CORES}
    population = runs["array"].population
    for pid, (times, ops) in population.streams.items():
        expected = list(zip(times.tolist(), ops.tolist()))
        assert len(expected) > 100
        for core in CORES:
            assert runs[core].replicas[pid].seen == expected
    assert runs["array"].history.events == runs["heap"].history.events
    # ...and the log does not change what the run does.
    assert runs["array"].history.events == _run("array").history.events


def test_stock_replica_names_its_mempool_and_an_override_does_not():
    stock = _run("array").replicas["p0"]
    assert stock.client_op_sink() is stock.mempool
    assert isinstance(stock.mempool, Mempool)
    logging = _run("array", replica_cls=LoggingReplica).replicas["p0"]
    assert logging.client_op_sink() is None


@pytest.mark.parametrize("core", CORES)
def test_bare_process_with_only_on_client_op_is_a_valid_target(core: str):
    """The shape ``benchmarks/ledger/probes.py::probe_population`` uses."""

    class Sink(Process):
        def __init__(self, pid: str) -> None:
            super().__init__(pid)
            self.ops = []

        def on_client_op(self, op: int) -> None:
            self.ops.append(op)

    network = Network(Simulator(core=core), SynchronousChannel(delta=1.0, seed=7))
    pids = ["p0", "p1"]
    for pid in pids:
        network.register(Sink(pid))
    population = ClientPopulation(50, 0.5, 10.0, pids, seed=3)
    assert population.schedule_on(network) == population.total_ops > 0
    network.run()
    for pid in pids:
        received = network.process(pid).ops
        assert received == population.streams[pid][1].tolist()
        assert all(type(op) is int for op in received)


# -- the runaway bound ---------------------------------------------------------


class SpinningReplica(NakamotoReplica):
    """A genuinely runaway protocol: a timer that re-arms itself densely."""

    def on_start(self) -> None:
        super().on_start()
        self._spin()

    def _spin(self) -> None:
        self.schedule(0.001, self._spin)


def test_runaway_bound_does_not_count_the_scheduled_client_ops():
    quiet = _run("array", n=3, duration=10.0, clients=None, max_events=400)
    protocol_events = quiet.network.simulator.events_processed
    assert protocol_events < 400
    loaded = _run("array", n=3, duration=10.0, clients=200, max_events=400)
    # More events than the bound, all of the excess the harness's own.
    assert loaded.population.scheduled_ops > 800
    assert loaded.network.simulator.events_processed > loaded.population.scheduled_ops > 400


def test_runaway_protocol_still_trips_the_bound():
    with pytest.raises(RuntimeError, match="did not quiesce within 1[0-9]{3} events"):
        _run(
            "array", n=3, duration=10.0, clients=200, max_events=400,
            replica_cls=SpinningReplica,
        )


# -- instrumentation stays a partition -------------------------------------------


def test_timed_population_run_splits_the_drain():
    with timed_callbacks():
        result = _run("array", clients=400)
    simulator = result.network.simulator
    assert 0 < simulator.callback_seconds <= simulator.drain_seconds


# -- population x checkpoint identity --------------------------------------------

#: Prime, so chunk boundaries fall inside column segments, not on them.
EVERY = 173

SPEC = ExperimentSpec(
    protocol="bitcoin",
    replicas=4,
    duration=30.0,
    seed=5,
    workload=WorkloadSpec(clients=300, client_rate=0.5),
    params={"token_rate": 0.4},
)


def _execute(core: str, **checkpointing):
    entry = get_protocol(SPEC.protocol)
    return entry.runner(**SPEC.build_kwargs(), core=core, **checkpointing)


def _stable(run) -> dict:
    return analyse_run(SPEC, get_protocol(SPEC.protocol), run, 0.0).stable_dict()


def _snapshots(core: str):
    snapshots = []
    run = _execute(
        core,
        checkpoint_every=EVERY,
        checkpoint_sink=lambda live: snapshots.append(SimulationCheckpoint.capture(live)),
    )
    return run, snapshots


@pytest.mark.parametrize("core", CORES)
def test_population_run_restores_identically_mid_main_and_mid_drain(core: str):
    clean = _execute(core)
    chunked, snapshots = _snapshots(core)
    assert chunked.history.events == clean.history.events
    by_phase = {"main": [], "drain": []}
    for snapshot in snapshots:
        by_phase[snapshot.phase].append(snapshot)
    assert len(by_phase["main"]) > 10 and by_phase["drain"]
    expected = _stable(clean)
    picks = [
        by_phase["main"][len(by_phase["main"]) // 3],
        by_phase["main"][-1],
        by_phase["drain"][len(by_phase["drain"]) // 2],
    ]
    for snapshot in picks:
        finished = snapshot.restore().finish()
        assert finished.history.events == clean.history.events
        assert _stable(finished) == expected
        assert finished.population.scheduled_ops == clean.population.scheduled_ops


def test_population_histories_and_payloads_identical_across_cores():
    array, heap = _execute("array"), _execute("heap")
    assert array.history.events == heap.history.events
    assert _stable(array) == _stable(heap)


def test_snapshots_do_split_column_segments():
    """The identity above is only interesting if some snapshot really was
    taken with a column run partly consumed."""
    _, snapshots = _snapshots("array")
    partial = 0
    for snapshot in snapshots:
        columns = snapshot.restore().simulator._array_core._columns
        if columns is not None and 0 < columns.pos < len(columns.times):
            partial += 1
    assert partial > 5


# -- checkpoints from before column events ---------------------------------------


def test_checkpoint_with_a_list_mempool_is_refused_with_the_reason():
    _, snapshots = _snapshots("heap")
    live = snapshots[3].restore()
    for replica in live.replicas.values():
        replica.mempool = [1, 2, 3]  # what a replica's state held before this format
    stale = SimulationCheckpoint.capture(live)
    with pytest.raises(CheckpointCorruptionError, match="mempool was a Python list.*re-run"):
        stale.restore()


@pytest.mark.parametrize(
    "tag, reason",
    [("bucket-table/1", "column events"), ("bucket-table/2", "structured-array store")],
)
def test_checkpoint_with_an_older_bucket_table_is_refused_with_the_reason(tag, reason):
    with mock.patch.object(event_core, "_BUCKET_TABLE_TAG", tag):
        _, snapshots = _snapshots("array")
    with pytest.raises(CheckpointCorruptionError, match=f"{tag}.*{reason}.*re-run"):
        snapshots[3].restore()


def test_mempool_pickles_as_one_buffer_inside_a_snapshot():
    _, snapshots = _snapshots("array")
    live = snapshots[len(snapshots) // 2].restore()
    pools = [replica.mempool for replica in live.replicas.values()]
    assert sum(len(pool) for pool in pools) > 0
    for pool in pools:
        (column,) = pool.__getstate__()
        assert column.dtype == np.int64 and len(column) == len(pool)
        assert pickle.loads(pickle.dumps(pool)).take(len(pool)) == column.tolist()
