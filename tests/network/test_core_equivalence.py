"""Array vs. heap event core: recorded histories are identical.

The PR 6 acceptance bar, mirroring the PR 4 message-plane oracle one
directory over: on randomized fork-, drop- and fault-heavy protocol
runs, ``run_protocol(core="array")`` (the calendar-queue of numpy
buckets with interned method dispatch) and ``run_protocol(core="heap")``
(the classical heapq of tuples, kept verbatim) must record *identical*
histories — every event, every timestamp, every read result — for all
channel models and across dissemination topologies.  Anything less would
mean the new core changed the simulated executions, not just their
speed.

PR 10 widened the oracle axis from the event *store* to the whole
callback plane: the live leg (array core, batch dispatch, hot-path
recorder, columnar block index, indexed selection) is additionally
checked against the pure/scalar plane — heap core, per-receiver sends and
per-message dispatch, the generic recorder body, the per-block dict index
and the brute-force selection rule.  That plane is test code
(``tests/network/reference_plane.py``); ``_run(reference=True)`` asks for
all of it, ``_run(scalar_network=True)`` for its network alone.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import pytest

import repro.core.blocktree as blocktree_module
import repro.core.history as history_module
from repro.network import _hotpath
from repro.network.faults import available_faults
from repro.network.process import Process
from repro.protocols.base import BlockchainReplica
from tests.network.fork_heavy_run import fault_of as _fault, run as _run


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
@pytest.mark.parametrize("seed", (3, 17))
def test_histories_identical_across_channel_models(kind: str, seed: int):
    array = _run(kind, seed, core="array", faulty=False)
    heap = _run(kind, seed, core="heap", faulty=False)
    assert array.history.events == heap.history.events
    assert array.network.messages_sent == heap.network.messages_sent
    assert array.network.messages_delivered == heap.network.messages_delivered
    assert array.network.messages_dropped == heap.network.messages_dropped
    assert array.network.simulator.events_processed == heap.network.simulator.events_processed
    # The runs are meant to be interesting: blocks were produced and read.
    assert len(array.history.read_responses()) > 0
    assert len(array.history.append_invocations()) > 0


@pytest.mark.parametrize("topology", ("full", "gossip", "sharded"))
@pytest.mark.parametrize("kind", ("synchronous", "lossy"))
def test_histories_identical_across_topologies(topology: str, kind: str):
    array = _run(kind, seed=5, core="array", faulty=False, topology=topology)
    heap = _run(kind, seed=5, core="heap", faulty=False, topology=topology)
    assert array.history.events == heap.history.events
    assert array.network.messages_sent == heap.network.messages_sent
    assert array.network.messages_dropped == heap.network.messages_dropped


@pytest.mark.parametrize("kind", ("lossy", "partial"))
def test_histories_identical_with_crash_faults_and_drops(kind: str):
    """Fault-heavy: a replica crashes mid-run while messages are dropped."""
    array = _run(kind, seed=11, core="array", faulty=True)
    heap = _run(kind, seed=11, core="heap", faulty=True)
    assert array.history.events == heap.history.events
    assert not array.replicas["p1"].alive
    assert array.network.messages_dropped == heap.network.messages_dropped


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
@pytest.mark.parametrize("fault_kind", sorted(available_faults()))
def test_histories_identical_for_every_fault_kind(fault_kind: str, kind: str):
    """Every registered adversary × every channel model × both cores."""
    array = _run(kind, seed=13, core="array", faulty=False, fault=_fault(fault_kind))
    heap = _run(kind, seed=13, core="heap", faulty=False, fault=_fault(fault_kind))
    assert array.history.events == heap.history.events
    assert array.network.messages_sent == heap.network.messages_sent
    assert array.network.messages_delivered == heap.network.messages_delivered
    assert array.network.messages_dropped == heap.network.messages_dropped
    assert array.network.messages_quarantined == heap.network.messages_quarantined
    assert array.network.simulator.events_processed == heap.network.simulator.events_processed


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
def test_histories_identical_live_vs_reference_plane(kind: str):
    """The full callback-plane oracle: live vs pure/scalar, per channel.

    Live = array core + batch dispatch + hot-path recorder + columnar
    index + indexed selection.  Oracle = heap core + per-message dispatch
    + generic recorder + dict index + brute-force selection — every fast
    path swapped out at once.
    """
    live = _run(kind, seed=9, core="array", faulty=False)
    oracle = _run(kind, seed=9, core="heap", faulty=False, reference=True)
    assert live.history.events == oracle.history.events
    assert live.network.messages_sent == oracle.network.messages_sent
    assert live.network.messages_delivered == oracle.network.messages_delivered
    assert live.network.messages_dropped == oracle.network.messages_dropped
    assert live.network.messages_quarantined == oracle.network.messages_quarantined
    assert live.network.simulator.events_processed == oracle.network.simulator.events_processed


@pytest.mark.parametrize("topology", ("full", "gossip", "sharded"))
def test_live_vs_reference_plane_across_topologies(topology: str):
    live = _run("synchronous", seed=5, core="array", faulty=False, topology=topology)
    oracle = _run(
        "synchronous", seed=5, core="heap", faulty=False,
        topology=topology, reference=True,
    )
    assert live.history.events == oracle.history.events
    assert live.network.messages_sent == oracle.network.messages_sent
    assert live.network.messages_delivered == oracle.network.messages_delivered


@pytest.mark.parametrize("fault_kind", sorted(available_faults()))
def test_live_vs_reference_plane_for_every_fault_kind(fault_kind: str):
    """Membership churn and partitions exercise the dup-skip guards."""
    live = _run("lossy", seed=13, core="array", faulty=False, fault=_fault(fault_kind))
    oracle = _run(
        "lossy", seed=13, core="heap", faulty=False,
        fault=_fault(fault_kind), reference=True,
    )
    assert live.history.events == oracle.history.events
    assert live.network.messages_delivered == oracle.network.messages_delivered
    assert live.network.messages_quarantined == oracle.network.messages_quarantined


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
def test_batch_dispatch_matches_scalar_dispatch(kind: str):
    """Isolate batch dispatch: same array core, spans on vs off."""
    batched = _run(kind, seed=17, core="array", faulty=True)
    scalar = _run(kind, seed=17, core="array", faulty=True, scalar_network=True)
    assert batched.history.events == scalar.history.events
    assert batched.network.messages_delivered == scalar.network.messages_delivered
    assert batched.network.simulator.events_processed == scalar.network.simulator.events_processed


class _Tripped(Exception):
    """A fast path ran."""


def _trip(*args, **kwargs):
    raise _Tripped


#: The fast paths the reference plane is the oracle *for*, each patched
#: where its name is looked up at call time (``on_message_batch`` on the
#: override these replicas dispatch through).
_FAST_PATHS = {
    "deliver_span": (_hotpath, "deliver_span"),
    "record_replication": (history_module, "record_replication"),
    "tree_append_index": (blocktree_module, "tree_append_index"),
    "on_message_batch": (BlockchainReplica, "on_message_batch"),
}


def test_reference_plane_runs_none_of_the_fast_paths():
    """The oracle is independent of what it checks: with every fast path
    (and the base ``on_message_batch``) raising, the oracle leg still runs
    to completion and records the history it records without the patches."""
    expected = _run("lossy", seed=9, core="heap", faulty=False, reference=True)
    with ExitStack() as stack:
        for target, name in (*_FAST_PATHS.values(), (Process, "on_message_batch")):
            stack.enter_context(mock.patch.object(target, name, _trip))
        oracle = _run("lossy", seed=9, core="heap", faulty=False, reference=True)
    assert oracle.history.events == expected.history.events
    assert len(oracle.history.append_invocations()) > 0


@pytest.mark.parametrize("fast_path", sorted(_FAST_PATHS))
def test_live_plane_runs_every_fast_path(fast_path: str):
    """...and the patches are live wires: the same scenario on the live
    plane reaches each of them."""
    target, name = _FAST_PATHS[fast_path]
    with mock.patch.object(target, name, _trip), pytest.raises(_Tripped):
        _run("lossy", seed=9, core="array", faulty=False)


def test_fork_heavy_run_actually_forks():
    """Sanity: the equivalence scenarios exercise the fork-heavy shape."""
    result = _run("synchronous", seed=3, core="array", faulty=False)
    trees = [replica.tree for replica in result.replicas.values()]
    assert any(len(tree.leaves()) > 1 for tree in trees)
