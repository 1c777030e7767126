"""The network's envelope table: multicast deliveries are int codes.

A multicast parks its one shared envelope in a slot of
``Network._envelopes`` and schedules each delivery as the int
``slot << 16 | receiver index``.  A slot is recycled once its last
delivery time is behind the clock, so the table holds the multicasts in
flight — not the run's history — and a snapshot carries only those.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np

from repro.network.channels import SynchronousChannel
from repro.network.event_core import ArrayEventCore
from repro.network.simulator import Network
from tests.network.flood_script import BlockFlood, Flood

#: Three rumors, each relayed by all 18 processes (17-entry fan-outs).
_RUMORS = [(0.0, "p0", "a"), (0.125, "p7", "b"), (1.25, "p3", "c")]


def test_a_relay_buckets_ints_not_tuples():
    flood = Flood("array", SynchronousChannel(delta=1.5, min_delay=0.5, seed=4)).start(_RUMORS)
    flood.sim.run(until=0.6)
    network = flood.network
    core = flood.sim._array_core
    waiting = [block for bucket in core._buckets.values() for block in bucket.blocks]
    blocks = [
        block for block in waiting + core._pending if block[2] == network._deliver_multicast
    ]
    # The relays a multicast span parks are scheduled as one int64 array, and a
    # bucket's multicast share is int64; a pending unparked fan-out keeps an int list.
    assert any(type(args) is np.ndarray for _times, _seqs, _method, args in blocks)
    codes = []
    for _times, _seqs, _method, args in blocks:
        if type(args) is np.ndarray:
            assert args.dtype == np.int64
            args = args.tolist()
        codes.extend(args)
    assert len(codes) >= 17 and all(type(code) is int for code in codes)
    assert len(set(codes)) == len(codes)  # one delivery per (envelope, receiver)
    assert {network._envelopes[code >> 16].payload for code in codes} <= {"a", "b"}
    assert {network._receiver_pids[code & 0xFFFF] for code in codes} <= set(network.process_ids)


def test_receiver_indexes_survive_deregister_and_register():
    flood = Flood("array", SynchronousChannel(seed=1), processes=4)
    network = flood.network
    before = dict(network._receiver_index)
    process = network.deregister("p1")
    network.register(process)
    assert network._receiver_index == before
    assert network.process_ids == ("p0", "p2", "p3", "p1")


def _stationary_flood() -> BlockFlood:
    """48 replicas, one new block every 2 time units up to t = 110."""
    origins = [(2.0 * i, f"p{(7 * i) % 48}", f"k{i}", None) for i in range(56)]
    channel = SynchronousChannel(delta=1.5, min_delay=0.5, seed=9)
    return BlockFlood("array", channel, processes=48).start(origins)


def _table_snapshot(network: Network) -> bytes:
    """The envelope table as a snapshot of the network pickles it."""
    state = network.__getstate__()
    names = ("_envelopes", "_envelope_blocks", "_in_flight", "_free_slots")
    return pickle.dumps({name: state[name] for name in names})


def test_the_envelope_table_holds_the_multicasts_in_flight():
    sends = []  # (send time, last delivery time) of every scheduled fan-out
    flood = _stationary_flood()
    network = flood.network
    schedule_block = ArrayEventCore.schedule_block

    def spy(core, times, method, args, *rest, **kwargs):
        # Every fan-out here is a block (48 processes), scheduled alone or
        # with the other relays parked in its span.
        scheduled = schedule_block(core, times, method, args, *rest, **kwargs)
        last = {}
        codes = np.asarray(args, dtype=np.int64).tolist()
        for code, time in zip(codes, np.asarray(times).tolist()):
            slot = code >> 16
            last[slot] = max(time, last.get(slot, time))
        for slot, time in last.items():
            sends.append((network._envelopes[slot].sent_at, time))
        return scheduled

    readings = []
    with mock.patch.object(ArrayEventCore, "schedule_block", spy):
        for until in (50.0, 100.0):
            flood.sim.run(until=until)
            size = len(_table_snapshot(network))
            live = [entry for entry in zip(network._envelopes, network._envelope_blocks)
                    if entry[0] is not None]
            # Live slots are exactly the multicasts not yet behind the clock.
            assert 0 < len(live) == sum(last >= until for _sent, last in sends)
            largest = max(len(pickle.dumps(entry)) for entry in live)
            readings.append((size, len(live), len(network._envelopes), largest))
        flood.sim.run()
    # The table never outgrew the peak of multicasts in flight at a claim.
    peak = max(
        sum(sent_j <= sent and last_j >= sent for sent_j, last_j in sends)
        for sent, _last in sends
    )
    assert len(network._envelopes) <= peak < len(sends) // 20
    # The snapshot at t=100 is no larger than at t=50 plus what the
    # difference in live slots (and in table length) can account for.
    (size50, live50, length50, _), (size100, live100, length100, largest) = readings
    assert size100 <= size50 + max(0, live100 - live50) * largest + 4 * (length100 - length50)
