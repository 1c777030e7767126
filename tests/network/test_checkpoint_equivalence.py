"""Checkpoint/restore equivalence oracle: continued runs are byte-identical.

The PR 9 acceptance bar, one directory over from the array/heap core
oracle: snapshot a live run at every chunk boundary, restore at several
seeded-random points, finish each restored run, and the continued
``History.events`` must equal the uninterrupted run's — event for
event, timestamp for timestamp — across both event cores, every channel
model, several dissemination topologies and every registered fault
kind.  Anything less would mean pickling the run perturbed the
simulated execution rather than merely pausing it.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.checkpoint import SimulationCheckpoint
from repro.network.faults import available_faults
from repro.oracle.tape import MeritTape, TapeFamily
from tests.network.fork_heavy_run import fault_of as _fault, run as _run

#: Chunk size small enough that every scenario crosses several snapshot
#: boundaries in both the main and drain phases.
EVERY = 120

#: Restore points sampled per scenario.
K = 3


def _assert_restores_identical(
    kind: str, seed: int, core: str, topology: str = "full", fault_kind=None
):
    fault = _fault(fault_kind) if fault_kind else None
    clean = _run(kind, seed, core=core, topology=topology, fault=fault)

    snapshots = []
    capture = _run(
        kind,
        seed,
        core=core,
        topology=topology,
        fault=_fault(fault_kind) if fault_kind else None,
        checkpoint_every=EVERY,
        checkpoint_sink=lambda live: snapshots.append(
            SimulationCheckpoint.capture(live)
        ),
    )
    # Chunked draining alone must not perturb the execution.
    assert capture.history.events == clean.history.events
    assert len(snapshots) >= K, "scenario too small to exercise restore points"

    rng = random.Random(f"{kind}:{seed}:{core}:{topology}:{fault_kind}")
    points = rng.sample(range(len(snapshots)), K)
    for index in sorted(points):
        restored = snapshots[index].restore()
        result = restored.finish()
        assert result.history.events == clean.history.events, (
            f"restore at snapshot {index}/{len(snapshots)} "
            f"(clock {snapshots[index].clock:.2f}, phase "
            f"{snapshots[index].phase!r}) diverged from the clean run"
        )
        assert (
            result.network.messages_sent == clean.network.messages_sent
        )
        assert (
            result.network.simulator.events_processed
            == clean.network.simulator.events_processed
        )


@pytest.mark.parametrize("core", ("array", "heap"))
@pytest.mark.parametrize(
    "kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted")
)
def test_restores_identical_across_channel_models(kind: str, core: str):
    _assert_restores_identical(kind, seed=3, core=core)


@pytest.mark.parametrize("core", ("array", "heap"))
@pytest.mark.parametrize("topology", ("full", "gossip", "sharded"))
def test_restores_identical_across_topologies(topology: str, core: str):
    _assert_restores_identical("synchronous", seed=5, core=core, topology=topology)


@pytest.mark.parametrize("core", ("array", "heap"))
@pytest.mark.parametrize("fault_kind", sorted(available_faults()))
def test_restores_identical_for_every_fault_kind(fault_kind: str, core: str):
    _assert_restores_identical("lossy", seed=13, core=core, fault_kind=fault_kind)


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous"))
def test_restores_identical_with_relays_still_in_the_fanout_log(kind: str):
    """Eighteen miners: every relay is a 17-entry fan-out block, which
    the array core logs and only buckets when the next run starts — or
    when a snapshot is taken.  Restore at seeded-random boundaries where
    relays were logged but not yet bucketed; the asynchronous channel
    also sends part of some blocks through the overflow heap."""
    clean = _run(kind, 3, n=18)
    snapshots = []

    def sink(live) -> None:
        waiting = bool(live.simulator._array_core._fanout_log)
        snapshot = SimulationCheckpoint.capture(live)
        # Taking the snapshot bucketed the log; it never holds one.
        assert not live.simulator._array_core._fanout_log
        if waiting:
            snapshots.append(snapshot)

    capture = _run(kind, 3, n=18, checkpoint_every=7 * EVERY + 1, checkpoint_sink=sink)
    assert capture.history.events == clean.history.events
    assert len(snapshots) >= 2 * K
    for snapshot in random.Random(f"fanout-log:{kind}").sample(snapshots, K):
        live = snapshot.restore()
        assert not live.simulator._array_core._fanout_log
        result = live.finish()
        assert result.history.events == clean.history.events
        assert result.network.messages_sent == clean.network.messages_sent
        assert result.network.messages_delivered == clean.network.messages_delivered
        assert (
            result.network.simulator.events_processed
            == clean.network.simulator.events_processed
        )
        assert result.network.simulator.pending == 0


#: Cells per merit-tape block in the cursor scenarios: small, so a run
#: of fifty draws per miner crosses a dozen refills.
BLOCK = 4


def _short_block_tapes() -> TapeFamily:
    tapes = TapeFamily(seed=3)
    for i in range(5):
        tapes.set_tape(f"p{i}", MeritTape(0.1, seed=i, block_size=BLOCK))
    return tapes


@pytest.mark.parametrize("where", ("block start", "mid-block", "block end"))
def test_restores_identical_wherever_the_tape_cursor_stands(where: str):
    """A merit tape pickles its block and a cursor into it.  Restore at
    snapshots where ``p0``'s cursor is 0 on a fresh block, inside the
    block, or at ``block_size`` (the next pop refills): each continues
    as the uninterrupted run does.  A fresh block is made by peeking the
    head of a spent one — the refill the next pop would have done."""
    clean = _run("synchronous", 3, tapes=_short_block_tapes())
    snapshots = []

    def sink(live) -> None:
        tape = live.oracle.tapes.tape_of("p0")
        cursor, filled = tape._cursor, len(tape._buffer) == BLOCK
        if where == "block start" and filled and cursor == BLOCK:
            tape.head()
            cursor = tape._cursor
        wanted = {"block start": cursor == 0, "mid-block": 0 < cursor < BLOCK,
                  "block end": cursor == BLOCK}[where]
        if filled and wanted:
            snapshots.append(SimulationCheckpoint.capture(live))

    capture = _run("synchronous", 3, tapes=_short_block_tapes(),
                   checkpoint_every=10, checkpoint_sink=sink)
    assert capture.history.events == clean.history.events
    assert len(snapshots) >= K
    consumed = {pid: clean.oracle.tapes.tape_of(pid).cells_consumed for pid in clean.replicas}
    for snapshot in random.Random(f"tape-cursor:{where}").sample(snapshots, K):
        result = snapshot.restore().finish()
        assert result.history.events == clean.history.events
        assert {
            pid: result.oracle.tapes.tape_of(pid).cells_consumed for pid in result.replicas
        } == consumed


def test_snapshots_span_both_event_phases():
    """Sanity: the oracle scenarios snapshot in main *and* drain phases."""
    snapshots = []
    _run(
        "synchronous",
        seed=3,
        core="array",
        checkpoint_every=EVERY,
        checkpoint_sink=lambda live: snapshots.append(
            SimulationCheckpoint.capture(live)
        ),
    )
    phases = {snap.phase for snap in snapshots}
    assert "main" in phases
    assert "drain" in phases
