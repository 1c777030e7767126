"""Unit tests for fork statistics."""

from __future__ import annotations

import pytest

from repro.analysis.forks import fork_statistics, merge_statistics
from repro.core.selection import LongestChain


class TestForkStatistics:
    def test_linear_tree_has_no_forks(self, linear_tree):
        stats = fork_statistics(linear_tree)
        assert stats.fork_points == 0
        assert stats.max_fork_degree == 1
        assert stats.wasted_blocks == 0
        assert stats.wasted_ratio == 0.0

    def test_forked_tree_counts_branches(self, forked_tree):
        stats = fork_statistics(forked_tree, LongestChain())
        assert stats.total_blocks == 6
        assert stats.leaves == 2
        assert stats.fork_points == 1
        assert stats.max_fork_degree == 2
        assert stats.blocks_on_selected_chain == 4  # genesis + a1..a3
        assert stats.wasted_blocks == 2
        assert stats.wasted_ratio == pytest.approx(2 / 5)


class TestMergeStatistics:
    def test_empty_input(self):
        merged = merge_statistics({})
        assert merged["replicas"] == 0.0

    def test_aggregation_over_replicas(self, linear_tree, forked_tree):
        merged = merge_statistics(
            {
                "a": fork_statistics(linear_tree),
                "b": fork_statistics(forked_tree),
            }
        )
        assert merged["replicas"] == 2.0
        assert merged["mean_forks"] == pytest.approx(0.5)
        assert merged["max_fork_degree"] == 2.0
        assert merged["mean_blocks"] == pytest.approx((4 + 6) / 2)
