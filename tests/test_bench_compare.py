"""The pure parts of ``tools/bench_compare.py`` on canned ledger outputs.

The tool itself drives ``benchmarks/ledger/run.py`` in two exported trees;
these tests run none of that.  They pin the pair order, the bound and
spread rules that decide whether a metric moved, and the count check that
refuses a run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
_SPEC = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def _document(workload: str, wall: float, counts: dict, failed: int = 0) -> dict:
    """The part of a ``run.py --out`` document the tool reads."""
    stats = {"median": wall, "q1": wall, "q3": wall, "n": 3}
    return {
        "schema": "repro.ledger/1",
        "workloads": {
            workload: {
                "end_to_end": {"wall_s": stats, "events_per_s": dict(stats, median=1 / wall)},
                "counts": counts,
                "failed": failed,
                "failures": ["round 1: verdict: wrong"] if failed else [],
            }
        },
    }


def _runs(parent_counts: dict, change_counts: dict, pairs: int = 2) -> dict:
    return {
        "parent": [{"counts": dict(parent_counts), "failed": 0} for _ in range(pairs)],
        "change": [{"counts": dict(change_counts), "failed": 0} for _ in range(pairs)],
    }


def test_the_sides_alternate_which_runs_first():
    orders = [bench_compare.pair_order(pair) for pair in range(10)]
    assert orders[:2] == [("parent", "change"), ("change", "parent")]
    assert sum(first == "parent" for first, _ in orders) == 5
    assert all(set(order) == {"parent", "change"} for order in orders)
    # The two trees are exported under names of equal length.
    assert len({len(side) for side in bench_compare.SIDES}) == 1


def test_spread_is_the_ledgers_interquartile_range():
    assert bench_compare.spread([1.0]) == 0.0
    assert bench_compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(4.5 - 1.5)


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR 0.035


def _compare(parent, change, better="lower", bound=0.25):
    return bench_compare.compare_metric(parent, change, better, bound)


class TestSpreadRule:
    def test_a_run_against_itself_is_the_same(self):
        row = _compare(PARENT, list(PARENT))
        assert (row["wins"], row["losses"], row["verdict"]) == (0, 0, "same")

    def test_ten_wins_beyond_the_spread_are_better(self):
        row = _compare(PARENT, [value - 0.1 for value in PARENT])
        assert (row["wins"], row["verdict"]) == (10, "better")
        assert row["relative"] == pytest.approx(-0.1, abs=0.001)

    def test_nine_of_ten_is_enough(self):
        change = [value - 0.1 for value in PARENT]
        change[3] = PARENT[3] + 0.01
        row = _compare(PARENT, change)
        assert (row["wins"], row["verdict"]) == (9, "better")

    def test_ten_wins_inside_the_spread_are_the_same(self):
        row = _compare(PARENT, [value - 0.01 for value in PARENT])
        assert row["wins"] == 10 and row["parent_iqr"] > 0.01
        assert row["verdict"] == "same"

    def test_a_median_beyond_the_spread_on_seven_wins_is_the_same(self):
        """A drop of about 8 % in the median that wins only 7 of 10 pairs
        (as on a noisy subprocess workload) is not called a gain."""
        parent = [2.40, 2.41, 2.39, 2.40, 2.42, 2.38, 2.41, 2.40, 2.39, 2.40]
        change = [2.19, 2.45, 2.20, 2.18, 2.46, 2.21, 2.19, 2.44, 2.20, 2.18]
        row = _compare(parent, change)
        assert abs(row["change_median"] - row["parent_median"]) > row["parent_iqr"]
        assert row["wins"] == 7 and row["verdict"] == "same"

    def test_a_median_worse_by_more_than_the_bound_is_worse(self):
        """The bound decides a regression, not the share of lost pairs: a
        median 30 % worse on 8 of 10 lost pairs is worse."""
        change = [value * 1.3 for value in PARENT]
        change[1], change[5] = PARENT[1] * 0.9, PARENT[5] * 0.9
        row = _compare(PARENT, change)
        assert row["losses"] == 8 and row["relative"] > 0.25
        assert row["verdict"] == "worse"

    def test_a_loss_inside_the_bound_is_the_same(self):
        row = _compare(PARENT, [value * 1.2 for value in PARENT])
        assert row["losses"] == 10 and row["verdict"] == "same"

    def test_each_metric_has_its_own_bound(self):
        """A 6 % rise in peak RSS is inside ``wall_s``'s 25 % bound but
        outside ``peak_rss_mb``'s 5 %."""
        parent = [100.0, 100.1, 99.9, 100.0, 100.2, 99.8, 100.0, 100.1, 99.9, 100.0]
        change = [value * 1.06 for value in parent]
        assert _compare(parent, change, bound=0.25)["verdict"] == "same"
        assert _compare(parent, change, bound=0.05)["verdict"] == "worse"

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 1.3, 0.7, 1.0, 1.4, 0.6, 1.0, 1.3, 0.7, 1.0]  # IQR 0.6
        row = _compare(parent, list(parent))
        assert row["parent_iqr"] > 0.25 * row["parent_median"]
        assert row["verdict"] == "unresolved"

    def test_higher_is_better_flips_the_direction(self):
        faster = [value * 1.3 for value in PARENT]
        assert _compare(PARENT, faster, "higher")["verdict"] == "better"
        assert _compare(PARENT, faster, "lower")["verdict"] == "worse"
        assert _compare(PARENT, [value * 0.7 for value in PARENT], "higher")["verdict"] == "worse"

    def test_under_ten_pairs_no_gain_is_called(self):
        row = _compare(PARENT[:3], [value - 0.2 for value in PARENT[:3]])
        assert (row["wins"], row["verdict"]) == (3, "same")
        row = _compare(PARENT[:3], [value + 0.3 for value in PARENT[:3]])
        assert (row["losses"], row["verdict"]) == (3, "worse")

    def test_a_pair_needs_both_sides(self):
        with pytest.raises(ValueError):
            _compare([1.0, 2.0], [1.0])


def test_run_length_bounds_and_directions_come_from_the_benchmark():
    benchmark = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    workloads, metrics, seconds = bench_compare.declared()
    assert seconds == benchmark["run_seconds"]
    assert workloads == [workload["name"] for workload in benchmark["workloads"]]
    assert metrics["peak_rss_mb"] == ("lower", 0.05)
    assert metrics["events_per_s"][0] == "higher"
    with pytest.raises(SystemExit):
        bench_compare.parse_args(["--parent", "HEAD", "--seconds", "5"], workloads)


class TestCountCheck:
    def test_equal_counts_pass(self):
        counts = {"events": 690_000, "messages_sent": 1200}
        assert bench_compare.check_runs(_runs(counts, counts), []) == []

    def test_a_changed_count_is_refused_unless_expected(self):
        parent = {"events": 690_000, "messages_sent": 1200}
        change = {"events": 690_000, "messages_sent": 1201}
        (problem,) = bench_compare.check_runs(_runs(parent, change), [])
        assert problem.startswith("count messages_sent changed: 1200 -> 1201")
        assert bench_compare.check_runs(_runs(parent, change), ["messages_sent"]) == []

    def test_a_count_that_does_not_repeat_on_one_side_is_refused(self):
        counts = {"events": 10}
        runs = _runs(counts, counts)
        runs["change"][1]["counts"] = {"events": 11}
        problems = bench_compare.check_runs(runs, ["events"])
        assert problems == ["change: counts differ between runs in events"]

    def test_a_failed_operation_is_refused(self):
        counts = {"events": 10}
        runs = _runs(counts, counts)
        runs["parent"][0].update(failed=1, failures=["round 2: child: exit 1"])
        (problem,) = bench_compare.check_runs(runs, [])
        assert problem == "parent run 0: 1 failed (round 2: child: exit 1)"


def test_canned_ledger_documents_summarise_per_metric():
    counts = {"events": 4800, "messages_sent": 900}
    runs = {
        "parent": [
            bench_compare.read_run(_document("read_audit", wall, counts), "read_audit")
            for wall in PARENT
        ],
        "change": [
            bench_compare.read_run(_document("read_audit", wall * 0.8, counts), "read_audit")
            for wall in PARENT
        ],
    }
    metrics = {
        "wall_s": ("lower", 0.25),
        "events_per_s": ("higher", 0.25),
        "peak_rss_mb": ("lower", 0.05),
    }
    summary = bench_compare.summarise(runs, metrics, [])
    assert summary["problems"] == []
    assert set(summary["metrics"]) == {"wall_s", "events_per_s"}  # no reading, no row
    assert summary["metrics"]["wall_s"]["verdict"] == "better"
    assert summary["metrics"]["events_per_s"]["verdict"] == "better"


def test_a_run_that_wrote_no_document_counts_as_failed():
    run = bench_compare.read_run(None, "flood_storm", "exit 2: no program")
    assert run["failed"] == 1 and run["failures"] == ["no result: exit 2: no program"]
