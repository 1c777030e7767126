"""A rejoining process runs each of its timer chains once.

``ChurnFault`` rejoins a process through ``revive()`` + ``on_start()``,
which starts a fresh mining chain and a fresh periodic-read chain.  A
timer scheduled before the crash that fires after the revival belongs
to the old incarnation and is dropped, so a leave and rejoin inside one
timer interval no longer leaves two chains running side by side.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.network.channels import SynchronousChannel
from repro.network.faults import ChurnFault
from repro.network.process import Process, _AliveGuard
from repro.network.simulator import Network, Simulator
from repro.protocols.nakamoto import run_bitcoin

LEAVE = 10.3
DURATION = 50.0


def _churn_run(join: float):
    return run_bitcoin(
        n=4, duration=DURATION, seed=1, token_rate=0.4,
        fault=ChurnFault({"p0": LEAVE}, {"p0": join}),
    )


# A rejoin 0.4 after the leave is inside both the mining interval (1.0)
# and the read interval (5.0); one 2.4 after it is inside the read
# interval only.
@pytest.mark.parametrize("join", (10.7, 12.7))
def test_a_rejoin_inside_a_timer_interval_runs_one_chain_of_each(join):
    result = _churn_run(join)
    draws = {pid: result.oracle.tapes.tape_of(pid).cells_consumed for pid in result.replicas}
    reads = {pid: len(result.history.read_invocations(pid)) for pid in result.replicas}
    # One attempt per mining interval while alive: before the leave, and
    # from one interval after the rejoin up to the end of the run.
    before = math.floor(LEAVE)
    after = math.floor(DURATION - join)
    assert draws == {"p0": before + after, "p1": 50, "p2": 50, "p3": 50}
    # Reads every 5.0 on the same rule, plus each replica's final read.
    assert reads["p0"] == math.floor(LEAVE / 5) + math.floor((DURATION - join) / 5) + 1
    assert reads["p1"] == reads["p2"] == reads["p3"] == 11


def test_a_rejoin_after_the_old_timers_fired_changes_nothing():
    """With a gap longer than every interval the old timers fire while
    the process is down — dropped then as before."""
    result = _churn_run(16.0)
    assert result.oracle.tapes.tape_of("p0").cells_consumed == 10 + 34


class _Ticker(Process):
    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.ticks = []

    def on_start(self) -> None:
        self.schedule(1.0, self.tick)

    def tick(self) -> None:
        self.ticks.append(self.now)
        self.schedule(1.0, self.tick)


def test_revive_drops_timers_of_the_earlier_incarnation():
    network = Network(Simulator(), SynchronousChannel(delta=1.0, seed=0))
    ticker = _Ticker("t")
    network.register(ticker)
    network.start()
    network.simulator.schedule_at(2.5, ticker.crash)
    network.simulator.schedule_at(2.7, ticker.revive)
    network.simulator.schedule_at(2.7, ticker.on_start)
    network.run(until=6.0)
    assert ticker.incarnation == 1
    assert ticker.ticks == [1.0, 2.0, 3.7, 4.7, 5.7]


def test_a_guard_pickled_without_an_incarnation_restores_as_the_first():
    ticker = _Ticker("t")
    # What unpickling a guard of the old, two-slot shape does.
    restored = _AliveGuard.__new__(_AliveGuard)
    restored.__setstate__((None, {"process": ticker, "action": ticker.on_start}))
    assert restored.incarnation == 0
    ticker.incarnation = 3
    guard = pickle.loads(pickle.dumps(_AliveGuard(ticker, ticker.on_start)))
    assert guard.incarnation == 3
