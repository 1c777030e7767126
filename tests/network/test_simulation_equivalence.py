"""Batched vs. reference message plane: recorded histories are identical.

The PR 4 acceptance bar: on randomized fork-, drop- and fault-heavy
protocol runs, the live message plane (vectorized channel sampling +
shared-envelope multicast + bulk queue inserts + span dispatch) and the
pre-batching scalar fan-out — ``ReferenceNetwork`` of
``tests/network/reference_plane.py``, everything else live — must record
*identical* histories — every event, every timestamp, every read result —
for all channel models.  Anything less would mean the overhaul changed
the simulated executions, not just their speed.
"""

from __future__ import annotations

import pytest

from tests.network.fork_heavy_run import run


def _run(kind: str, seed: int, batched: bool, faulty: bool):
    return run(kind, seed, faulty=faulty, scalar_network=not batched)


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
@pytest.mark.parametrize("seed", (3, 17))
def test_histories_identical_across_channel_models(kind: str, seed: int):
    batched = _run(kind, seed, batched=True, faulty=False)
    reference = _run(kind, seed, batched=False, faulty=False)
    assert batched.history.events == reference.history.events
    assert batched.network.messages_sent == reference.network.messages_sent
    assert batched.network.messages_delivered == reference.network.messages_delivered
    assert batched.network.messages_dropped == reference.network.messages_dropped
    # The runs are meant to be interesting: blocks were produced and read.
    assert len(batched.history.read_responses()) > 0
    assert len(batched.history.append_invocations()) > 0


@pytest.mark.parametrize("kind", ("lossy", "partial"))
def test_histories_identical_with_crash_faults_and_drops(kind: str):
    """Fault-heavy: a replica crashes mid-run while messages are dropped."""
    batched = _run(kind, seed=11, batched=True, faulty=True)
    reference = _run(kind, seed=11, batched=False, faulty=True)
    assert batched.history.events == reference.history.events
    assert not batched.replicas["p1"].alive
    assert batched.network.messages_dropped == reference.network.messages_dropped


def test_fork_heavy_run_actually_forks():
    """Sanity: the equivalence scenarios exercise the fork-heavy shape."""
    result = _run("synchronous", seed=3, batched=True, faulty=False)
    trees = [replica.tree for replica in result.replicas.values()]
    assert any(len(tree.leaves()) > 1 for tree in trees)
