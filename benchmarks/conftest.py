"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` module in this directory regenerates one artefact
of the paper — the file names are the index (``bench_fig*``,
``bench_thm*``, ``bench_table1_*``, ``bench_ablation_*``) and each
module's docstring states the outcome it expects.  Each benchmark both
*times* the relevant operation (via pytest-benchmark) and *asserts* the
paper-level expectation, so a passing
``pytest benchmarks/bench_*.py --benchmark-disable`` run (the "Paper
reproduction" step of ``.github/workflows/ci.yml``) is itself the
reproduction.
"""

from __future__ import annotations

import pytest


@pytest.fixture()
def once(benchmark):
    """Benchmark a heavyweight simulation with a single round.

    Whole-protocol sweeps (Table 1, the loss and fork-pressure ablations)
    take hundreds of milliseconds each; timing them with pytest-benchmark's
    default calibration would repeat them dozens of times for no extra
    information.  ``once(fn, *args)`` runs ``fn`` exactly once under the
    benchmark timer and returns its result.
    """

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
