"""Ablation A1 — fork rate versus oracle bound k and network delay.

A design-choice study (the CLI's ``fork-sweep``, README "CLI"): the
paper's oracles differ only in the per-parent fork bound, so we measure
how many forks (and how
much wasted work) actually materialize as a function of (i) the frugal
bound k used by the validation oracle and (ii) the network delay, in an
otherwise identical proof-of-work-style run.

Each cell is a declarative :class:`ExperimentSpec` executed through the
engine's :class:`SweepRunner`, so the grid here is the same artifact a
``python -m repro sweep`` invocation would produce.

Expected shape: fork count grows with delay and with k, and k = 1
eliminates forks entirely regardless of the delay.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.report import render_table
from repro.engine import ChannelSpec, ExperimentSpec, SweepRunner

DELAYS = (1.0, 4.0)
BOUNDS = (1, 2, None)  # None = prodigal


def _spec_for(bound, delay, seed=91):
    return ExperimentSpec(
        protocol="bitcoin",
        replicas=4,
        duration=150.0,
        seed=seed,
        channel=ChannelSpec(
            kind="synchronous", params={"delta": delay, "min_delay": delay / 4}
        ),
        oracle_k=math.inf if bound is None else bound,
        params={"token_rate": 0.4},
        label=f"k={'inf' if bound is None else bound} delta={delay}",
    )


def _forks_for(bound, delay, seed=91):
    return _spec_for(bound, delay, seed).execute().forks


def test_fork_rate_sweep(once):
    cells = [(bound, delay) for bound in BOUNDS for delay in DELAYS]

    def sweep():
        specs = [_spec_for(bound, delay) for bound, delay in cells]
        records = SweepRunner(jobs=1).run(specs)
        return {cell: record.forks for cell, record in zip(cells, records)}

    table = once(sweep)
    rows = [
        ["∞" if bound is None else bound, delay,
         round(stats["mean_forks"], 2), round(stats["mean_wasted_ratio"], 3)]
        for (bound, delay), stats in table.items()
    ]
    print()
    print(render_table(
        ["k", "delay", "mean fork points / replica", "wasted block ratio"],
        rows,
        title="Ablation A1 — fork rate vs oracle bound and delay",
    ))
    # k = 1 never forks, whatever the delay.
    for delay in DELAYS:
        assert table[(1, delay)]["mean_forks"] == 0.0
        assert table[(1, delay)]["max_fork_degree"] <= 1.0
    # The unbounded oracle forks at least as much as any bounded one.
    for delay in DELAYS:
        assert table[(None, delay)]["mean_forks"] >= table[(2, delay)]["mean_forks"]
        assert table[(None, delay)]["mean_forks"] >= table[(1, delay)]["mean_forks"]


@pytest.mark.parametrize("bound", BOUNDS)
def test_single_configuration(once, bound):
    stats = once(_forks_for, bound, 2.0, 92)
    if bound == 1:
        assert stats["mean_forks"] == 0.0
    assert stats["replicas"] == 4.0
