"""Ablation A4 — resilience to process faults (extension).

Fault-injection companion to the Section 4.2 failure model: sweeps the
number of silent Byzantine members in a 7-member committee system and the
number of crashed miners in a proof-of-work system, and records whether
the *correct* replicas keep their consistency guarantee and keep making
progress.  Faults are part of the declarative :class:`ExperimentSpec`
(``FaultSpec``): the registered ``silent`` / ``crash`` fault models,
injected into the system's own runner.

Expected shape: the committee system keeps Strong Consistency and keeps
committing while f ≤ 2 (below the 2/3-quorum slack of n = 7) and halts —
but never becomes inconsistent — at f ≥ 3; the proof-of-work system keeps
Eventual Consistency among correct replicas regardless of miner crashes,
merely producing fewer blocks.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import render_table
from repro.core.consistency import check_eventual_consistency, check_strong_consistency
from repro.engine import ExperimentSpec, FaultSpec

BYZANTINE_COUNTS = (0, 1, 2, 3)


def _committee_with_f(f: int, seed: int = 121):
    byzantine = [f"p{6 - i}" for i in range(f)]
    spec = ExperimentSpec(
        protocol="committee",
        replicas=7,
        duration=120.0,
        seed=seed,
        fault=FaultSpec(kind="silent", params={"members": byzantine}),
        label=f"byzantine={f}",
    )
    run = spec.execute().run
    history = run.history.correct_restriction(run.correct_replicas).without_failed_appends()
    committed = sum(run.replicas[p].blocks_committed for p in run.correct_replicas)
    return check_strong_consistency(history).holds, committed


def test_byzantine_sweep_committee(once):
    def sweep():
        return {f: _committee_with_f(f) for f in BYZANTINE_COUNTS}

    results = once(sweep)
    rows = [[f, sc, committed] for f, (sc, committed) in results.items()]
    print()
    print(render_table(
        ["silent byzantine members (of 7)", "strong consistency (correct replicas)", "blocks committed"],
        rows,
        title="Ablation A4 — committee resilience to silent Byzantine members",
    ))
    # Safety is never lost, whatever f.
    assert all(sc for sc, _ in results.values())
    # Liveness holds below the quorum slack and is lost beyond it.
    assert results[0][1] > 0 and results[2][1] > 0
    assert results[3][1] == 0


def test_crash_sweep_bitcoin(once):
    def sweep():
        outcomes = {}
        for crashed in (0, 1, 2):
            crash_at = {f"p{4 - i}": 30.0 for i in range(crashed)}
            spec = ExperimentSpec(
                protocol="bitcoin",
                replicas=5,
                duration=120.0,
                seed=122,
                fault=FaultSpec(kind="crash", params={"at": crash_at}),
                params={"token_rate": 0.3},
                label=f"crashed={crashed}",
            )
            run = spec.execute().run
            history = run.history.correct_restriction(run.correct_replicas)
            ec = check_eventual_consistency(history.without_failed_appends()).holds
            blocks = sum(run.replicas[p].blocks_created for p in run.correct_replicas)
            outcomes[crashed] = (ec, blocks)
        return outcomes

    outcomes = once(sweep)
    rows = [[crashed, ec, blocks] for crashed, (ec, blocks) in outcomes.items()]
    print()
    print(render_table(
        ["crashed miners (of 5)", "eventual consistency (correct replicas)", "blocks by correct miners"],
        rows,
        title="Ablation A4 — proof-of-work resilience to crashes",
    ))
    assert all(ec for ec, _ in outcomes.values())
    assert all(blocks > 0 for _, blocks in outcomes.values())


@pytest.mark.parametrize("f", [0, 2])
def test_single_byzantine_configuration(once, f):
    sc, committed = once(_committee_with_f, f, 123)
    assert sc
    assert committed > 0
