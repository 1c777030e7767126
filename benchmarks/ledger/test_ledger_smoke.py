"""Tier-1 smoke test of the ledger benchmark (shrunken units, no timing claims).

Runs ``run.py --smoke`` the way a user would and checks the contract
between the program, BENCHMARK.json and the span file: every declared
name is emitted with its declared unit, counts repeat between launches, a
wrong verdict is a failed operation, and the spans nest.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def launch(*arguments: str) -> "subprocess.Popen[str]":
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run, a second launch for the counts, one injected failure."""
    out = tmp_path_factory.mktemp("ledger")
    traced = launch("--trace", "--out", str(out / "a.json"), "--trace-out", str(out / "trace.jsonl"))
    again = launch("--out", str(out / "b.json"))
    injected = launch("--workload", "read_audit", "--inject-wrong-verdict")
    traced_output = traced.communicate(timeout=120)[0]
    again_output = again.communicate(timeout=120)[0]
    injected_output = injected.communicate(timeout=120)[0]
    assert traced.returncode == 0, traced_output
    assert again.returncode == 0, again_output
    return {
        "first": json.loads((out / "a.json").read_text()),
        "second": json.loads((out / "b.json").read_text()),
        "spans": [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()],
        "traced_output": traced_output,
        "injected": (injected.returncode, injected_output),
    }


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_declared_name_is_emitted_with_its_unit(smoke, declared):
    workloads = smoke["first"]["workloads"]
    assert set(workloads) == {w["name"] for w in declared["workloads"]}
    output = smoke["traced_output"]
    for summary in workloads.values():
        assert summary["failed"] == 0, summary["failures"]
        assert set(summary["end_to_end"]) == {m["name"] for m in declared["end_to_end"]}
        assert set(summary["per_layer"]) == {m["name"] for m in declared["per_layer"]}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        printed = re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+\s+(\S+)", output, re.MULTILINE)
        assert printed and printed.group(1) == metric["unit"], metric
    for workload in declared["workloads"]:
        assert NAME.match(workload["name"])


def test_every_layer_is_reached_by_some_workload_or_probe(smoke, declared):
    """A declared layer row that is 0 everywhere would be measuring nothing."""
    always_zero_here = {
        "engine.executors.failed_cells",
        "engine.executors.retried_cells",
        "network.simulator.messages_dropped",
        "harness.disturbed_rounds",
    }
    for metric in declared["per_layer"]:
        values = [w["per_layer"][metric["name"]] for w in smoke["first"]["workloads"].values()]
        if metric["name"] not in always_zero_here:
            assert any(values), metric["name"]


def test_counts_repeat_between_launches(smoke):
    for name, first in smoke["first"]["workloads"].items():
        assert first["counts"] == smoke["second"]["workloads"][name]["counts"], name
        assert first["counts"]["events"] > 0


def test_wrong_verdict_is_a_failed_operation(smoke):
    returncode, output = smoke["injected"]
    assert returncode == 1, output
    result = json.loads(output.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert "audit_fork#1: fork history classified EC, not SC" in output


def test_span_parents_resolve_and_children_nest(smoke):
    by_child: dict = {}
    for span in smoke["spans"]:
        by_child.setdefault(span["workload"], {})[span["id"]] = span
    assert set(by_child) == {*smoke["first"]["workloads"], "probes"}
    for spans in by_child.values():
        for span in spans.values():
            assert span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
