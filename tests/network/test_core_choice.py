"""Which event store a run drains on, and at what bucket width.

A run of at most :data:`~repro.network.simulator.BLOCK_FANOUT` processes
without a client population drains on the heap core; a larger run, or
one with column events, keeps the array core
(:func:`~repro.network.simulator.core_for_run`).  ``core=`` overrides
the rule either way, and since both cores record the same history, the
analysed payload cannot tell which one ran.  The array core's bucket
width comes from the channel's delay floor
(:func:`~repro.network.simulator.slot_width_for`); no width changes the
payload either.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import nullcontext
from unittest import mock

import pytest

import repro.network.event_core as event_core
from repro.engine import (
    ChannelSpec,
    ExperimentSpec,
    FaultSpec,
    WorkloadSpec,
    get_protocol,
    load_checkpoint,
    resume_spec_from_checkpoint,
)
from repro.engine.checkpoint import SimulationCheckpoint
from repro.engine.result import analyse_run
from repro.network.channels import (
    AsynchronousChannel,
    LossyChannel,
    PartiallySynchronousChannel,
    SynchronousChannel,
)
from repro.network.event_core import ArrayEventCore
from repro.network.simulator import BLOCK_FANOUT, Network, core_for_run, slot_width_for
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


# -- the bucket width ------------------------------------------------------------


class _Promise:
    """A third-party channel whose delay floor is whatever it is given."""

    def __init__(self, floor) -> None:
        self.floor = floor

    def delay_for(self, sender: str, receiver: str, now: float) -> float:
        return 1.0

    def delay_floor(self, now: float):
        return self.floor


def _post_gst_floor(floor: float) -> PartiallySynchronousChannel:
    channel = PartiallySynchronousChannel(gst=0.0, delta=1.0, seed=1)
    channel._post.min_delay = floor
    return channel


#: Synchronous delay floors and the widths the rule gives them.
_FLOORS = ((0.1, 0.25), (0.3, 0.25), (0.5, 0.5), (0.75, 0.5), (1.0, 1.0), (3.0, 2.0))

_WIDTHS = [
    *(
        pytest.param(SynchronousChannel(delta=4.0, min_delay=floor), width, id=f"floor_{floor}")
        for floor, width in _FLOORS
    ),
    pytest.param(AsynchronousChannel(), 0.25, id="asynchronous"),
    pytest.param(LossyChannel(SynchronousChannel(delta=1.5, min_delay=0.5), 0.2), 0.25, id="lossy"),
    pytest.param(PartiallySynchronousChannel(gst=1.0), 0.25, id="before_gst"),
    pytest.param(PartiallySynchronousChannel(gst=0.0), 0.25, id="gst_0_floor_0.1"),
    pytest.param(_post_gst_floor(1.0), 1.0, id="gst_0_floor_1.0"),
    pytest.param(_Promise(None), 0.25, id="no_promise"),
    pytest.param(_Promise(math.inf), 0.25, id="infinite_floor"),
    pytest.param(_Promise(math.nan), 0.25, id="nan_floor"),
    pytest.param(_Promise(-1.0), 0.25, id="negative_floor"),
    pytest.param(_Promise(1e308), 2.0**1023, id="huge_floor"),
]


@pytest.mark.parametrize("channel, width", _WIDTHS)
def test_the_slot_width_is_the_largest_dyadic_width_under_the_floor(channel, width: float):
    assert slot_width_for(channel) == width
    assert ArrayEventCore(slot_width=slot_width_for(channel)).slot_width == width


def _flood_cell(floor: float, replicas: int = 48, duration: float = 10.0) -> ExperimentSpec:
    """``flood_storm``'s cell over a channel whose delay floor is ``floor``."""
    return ExperimentSpec(
        protocol="bitcoin",
        replicas=replicas,
        duration=duration,
        seed=0,
        channel=ChannelSpec(kind="synchronous", params={"delta": 1.5, "min_delay": floor}, seed=1),
        workload=WorkloadSpec(read_interval=20.0),
        params={"token_rate": 0.8, "selection": "longest"},
    )


def _spied_flood(floor: float):
    """Run the flood cell; count the multicast deliveries scheduled onto the
    overflow heap (all, and a sender's copies to itself), the block-sized
    relays made inside a span and the relays parked."""
    seen = Counter()
    heappush = event_core.heappush
    multicast, park = Network._multicast_trusted, Network._park

    def heappush_spy(heap, entry):
        method = entry[2] if type(entry) is tuple else None
        if getattr(method, "__func__", None) is Network._deliver_multicast:
            network = method.__self__
            code = entry[3]
            seen["overflowed"] += 1
            seen["own copies"] += (
                network._envelopes[code >> 16].sender == network._receiver_pids[code & 0xFFFF]
            )
        return heappush(heap, entry)

    def multicast_spy(network, sender, receivers, *args):
        in_span = network._park_limit is not None and len(receivers) >= BLOCK_FANOUT
        seen["relays in a span"] += in_span
        return multicast(network, sender, receivers, *args)

    def park_spy(network, *args):
        seen["parked"] += 1
        return park(network, *args)

    with mock.patch.object(event_core, "heappush", heappush_spy), mock.patch.object(
        Network, "_multicast_trusted", multicast_spy
    ), mock.patch.object(Network, "_park", park_spy):
        run = _run(_flood_cell(floor))
    return run.network.simulator._array_core.slot_width, seen


def test_at_the_floor_no_delivery_to_another_overflows_and_every_relay_parks():
    """At a floor of 0.5 the bucket is 0.5 wide: a delivery to another
    process lands at least one bucket on, so only a broadcaster's copy to
    itself (delay 0) meets the bucket being drained, and every relay a
    span makes clears its limit and parks."""
    width, seen = _spied_flood(0.5)
    assert width == 0.5
    assert seen["overflowed"] == seen["own copies"] > 0, seen
    assert seen["parked"] == seen["relays in a span"] > 100, seen


def test_below_half_a_unit_the_base_width_is_kept():
    """At a floor of 0.1 the bucket stays 0.25 wide, so deliveries to others
    do meet the bucket being drained and some relays do not park."""
    width, seen = _spied_flood(0.1)
    assert width == 0.25
    assert seen["overflowed"] > seen["own copies"], seen
    assert 0 < seen["parked"] < seen["relays in a span"], seen


@pytest.mark.parametrize("width", (None, 0.25), ids=("rule_width", "base_width"))
def test_a_snapshot_at_either_width_finishes_to_the_plain_payload(width):
    """A floor-0.5 cell on the array core, snapshotted mid-run at the rule's
    width or at the base width (a snapshot written before the rule): the
    restored run keeps its pickled width and finishes to the plain payload."""
    spec = _flood_cell(0.5, replicas=24, duration=20.0)
    plain = _stable(spec)
    snapshots = []

    def sink(live) -> None:
        snapshots.append(SimulationCheckpoint.capture(live, spec=spec.to_dict()))

    base = mock.patch("repro.protocols.base.slot_width_for", return_value=0.25)
    with nullcontext() if width is None else base:
        assert spec.execute(checkpoint_every=1500, checkpoint_sink=sink).stable_json() == plain
    snapshot = snapshots[len(snapshots) // 2]
    live = snapshot.restore()
    assert live.simulator.core == "array"
    assert live.simulator._array_core.slot_width == (0.5 if width is None else 0.25)
    assert 0 < live.simulator.now < spec.duration
    assert resume_spec_from_checkpoint(spec, snapshot).stable_json() == plain
