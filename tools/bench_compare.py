#!/usr/bin/env python3
"""Compare the ledger benchmark of a parent commit and the working tree.

    python tools/bench_compare.py --parent REV [--workload W ...] [--pairs 10]
        [--expect-change ROW[,ROW]] [--out FILE] [--scratch DIR]

Both sides are exported into one fresh directory as ``parent/`` and
``change/``, two paths of equal length with no ``__pycache__``: the parent
with ``git archive REV``, the change as the working tree's tracked and
untracked, not ignored files.  For every workload, pair ``i`` runs the
unchanged ``benchmarks/ledger/run.py --workload W --seconds S --out FILE``,
``S`` being the benchmark's ``run_seconds``, once in each tree: the parent
first when ``i`` is even and the change first when it is odd.  Every run
starts with ``PYTHONDONTWRITEBYTECODE=1``, so both sides compile everything
they import, as the first run of a fresh checkout does.

Per end-to-end metric it prints both medians over the pairs, the parent's
interquartile range and the pairs the change won.  A metric is ``worse``
when the change's median is worse than the parent's by more than the
metric's ``bound``, and ``unresolved`` when it is not but the parent's IQR
is wider than that bound, so no regression can be ruled out.  It is
``better`` only over at least 10 pairs, when the change wins 9 in 10 of them
*and* the medians differ by more than the parent's IQR; everything else is
``same``.  Every run's counts must repeat exactly, on each side and between
the sides, except the rows ``--expect-change`` names (which must still
repeat on each side), and every run must report ``failed`` = 0.  The summary
is written as one JSON document (``--out``).

The script imports nothing from ``src/`` or ``benchmarks/``; it reads the
workloads, the run length and each metric's direction and bound from
``BENCHMARK.json``.  Exit status: 0 when no run is refused and no metric is
worse or unresolved, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path("benchmarks") / "ledger" / "run.py"
SIDES = ("parent", "change")  # equal lengths: the two trees' paths are too
#: A gain is called only when the change wins this share of the pairs, and
#: only over at least this many pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10


# -- pure parts ----------------------------------------------------------------


def pair_order(pair: int) -> Tuple[str, str]:
    """The side that runs first in ``pair``, then the other."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def spread(values: Sequence[float]) -> float:
    """Interquartile range, with the quartiles ``statistics.quantiles(n=4)``
    gives (the ledger's own method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare_metric(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """Pairwise wins, the bound and the spread rule for one metric.

    ``parent[i]`` and ``change[i]`` are pair ``i``'s readings; ``better`` is
    ``"lower"`` or ``"higher"``, and ``bound`` is the share of the parent's
    median by which the change's median may be worse.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("one reading per side and pair is needed")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    iqr = spread(parent)
    allowed = bound * abs(parent_median)
    if sign * (change_median - parent_median) > allowed:
        verdict = "worse"
    elif iqr > allowed:
        verdict = "unresolved"
    elif (
        len(parent) >= MIN_PAIRS
        and wins >= math.ceil(WIN_SHARE * len(parent))
        and sign * (parent_median - change_median) > iqr
    ):
        verdict = "better"
    else:
        verdict = "same"
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": iqr,
        "bound": bound,
        "relative": (change_median - parent_median) / parent_median if parent_median else 0.0,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "verdict": verdict,
    }


def check_runs(
    runs: Mapping[str, Sequence[Mapping[str, Any]]], expect_change: Iterable[str]
) -> List[str]:
    """What refuses a workload's runs: ``failed`` > 0, counts that differ
    between runs of one side, or between the sides in a row not expected to
    change.  Empty when nothing does."""
    expected = set(expect_change)
    problems: List[str] = []
    for side in SIDES:
        for number, run in enumerate(runs[side]):
            if run["failed"]:
                reasons = "; ".join(run.get("failures", ())[:3])
                problems.append(f"{side} run {number}: {run['failed']} failed ({reasons})")
        counts = [run["counts"] for run in runs[side]]
        rows = {row for other in counts for row in other if other.get(row) != counts[0].get(row)}
        if rows:
            problems.append(f"{side}: counts differ between runs in {', '.join(sorted(rows))}")
    if runs["parent"] and runs["change"]:
        parent, change = runs["parent"][0]["counts"], runs["change"][0]["counts"]
        for row in sorted(set(parent) | set(change)):
            if parent.get(row) != change.get(row) and row not in expected:
                problems.append(
                    f"count {row} changed: {parent.get(row)} -> {change.get(row)} "
                    "(name it in --expect-change if the change means to move it)"
                )
    return problems


def read_run(
    document: Optional[Mapping[str, Any]], workload: str, crash: str = ""
) -> Dict[str, Any]:
    """One run's medians, counts and failures from its ``run.py --out``
    document (``None`` when the run wrote none)."""
    if document is None:
        return {"metrics": {}, "counts": {}, "failed": 1, "failures": [f"no result: {crash}"]}
    summary = document["workloads"][workload]
    return {
        "metrics": {name: stats["median"] for name, stats in summary["end_to_end"].items()},
        "counts": summary["counts"],
        "failed": summary["failed"],
        "failures": summary["failures"],
    }


def summarise(
    runs: Mapping[str, Sequence[Mapping[str, Any]]],
    declared_metrics: Mapping[str, Tuple[str, float]],
    expect_change: Iterable[str],
) -> Dict[str, Any]:
    """Per-metric comparison and the refusals of one workload's pairs;
    ``declared_metrics`` maps each metric to its direction and bound."""
    problems = check_runs(runs, expect_change)
    metrics = {}
    for name, (better, bound) in declared_metrics.items():
        parent = [run["metrics"].get(name) for run in runs["parent"]]
        change = [run["metrics"].get(name) for run in runs["change"]]
        if parent and None not in parent + change:
            metrics[name] = compare_metric(parent, change, better, bound)
    return {"metrics": metrics, "problems": problems}


# -- driving the ledger ----------------------------------------------------------


def export_trees(parent: str, scratch: Path) -> Dict[str, Path]:
    """``git archive`` of ``parent`` and a copy of the working tree's files."""
    trees = {side: scratch / side for side in SIDES}
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", parent],
        capture_output=True,
        check=True,
    ).stdout
    extract = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(trees["parent"], **extract)
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True,
        check=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is left out
            target = trees["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    for tree in trees.values():
        for cache in list(tree.rglob("__pycache__")):
            shutil.rmtree(cache)
    assert len({len(str(tree)) for tree in trees.values()}) == 1
    return trees


def run_ledger(tree: Path, workload: str, seconds: float, out: Path) -> Dict[str, Any]:
    """One ``run.py`` session of ``workload`` in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [
        sys.executable, str(LEDGER), "--workload", workload,
        "--seconds", str(seconds), "--out", str(out),
    ]  # fmt: skip
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True, timeout=60 * seconds + 600
        )
        crash = f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
    except subprocess.TimeoutExpired as error:
        crash = f"timeout: {error}"
    document = json.loads(out.read_text()) if out.is_file() else None
    return read_run(document, workload, crash)


def declared() -> Tuple[List[str], Dict[str, Tuple[str, float]], float]:
    """The benchmark's workloads, each end-to-end metric's direction
    (``"lower"`` or ``"higher"`` is better) and bound, and its run length."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    metrics = {
        metric["name"]: (metric["better"], metric["bound"]) for metric in benchmark["end_to_end"]
    }
    return workloads, metrics, benchmark["run_seconds"]


def resolve_commit(revision: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{revision}^{{commit}}"],
        capture_output=True,
        text=True,
    )
    if done.returncode:
        raise SystemExit(f"bench_compare: error: no commit {revision!r}")
    return done.stdout.strip()


def print_workload(name: str, summary: Mapping[str, Any]) -> None:
    print(f"{name}:")
    head = f"{'metric':<14} {'parent':>12} {'change':>12} {'parent IQR':>11} {'diff':>8}"
    print(f"  {head}  bound  wins  verdict")
    for metric, row in summary["metrics"].items():
        print(
            f"  {metric:<14} {row['parent_median']:>12.5g} {row['change_median']:>12.5g}"
            f" {row['parent_iqr']:>11.3g} {row['relative']:>+8.1%} {row['bound']:>6.0%}"
            f"  {row['wins']:>2}/{row['pairs']:<2} {row['verdict']}"
        )
    for problem in summary["problems"]:
        print(f"  REFUSED {problem}")


def parse_args(argv: Optional[Sequence[str]], workloads: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--expect-change", default="", help="count rows the change may move")
    parser.add_argument("--out", default="bench_compare.json", help="the JSON summary")
    parser.add_argument("--scratch", default=None, help="where the two trees are exported")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    args.workload = list(dict.fromkeys(args.workload or workloads))
    args.expect_change = [row for row in args.expect_change.split(",") if row]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    workloads, metrics, seconds = declared()
    args = parse_args(argv, workloads)
    parent = resolve_commit(args.parent)
    scratch = Path(tempfile.mkdtemp(prefix="bench_compare-", dir=args.scratch))
    try:
        trees = export_trees(parent, scratch)
        results: Dict[str, Any] = {}
        for workload in args.workload:
            runs: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in pair_order(pair):
                    out = scratch / f"{workload}-{pair}-{side}.json"
                    runs[side].append(run_ledger(trees[side], workload, seconds, out))
            summary = summarise(runs, metrics, args.expect_change)
            summary["order"] = [pair_order(pair)[0] for pair in range(args.pairs)]
            summary["runs"] = runs
            results[workload] = summary
            print_workload(workload, summary)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    refused = any(summary["problems"] for summary in results.values())
    called = {
        verdict: sorted(
            f"{workload}.{metric}"
            for workload, summary in results.items()
            for metric, row in summary["metrics"].items()
            if row["verdict"] == verdict
        )
        for verdict in ("worse", "unresolved")
    }
    document = {
        "schema": "bench_compare/1",
        "parent": parent,
        "change": "working tree of " + resolve_commit("HEAD"),
        "pairs": args.pairs,
        "seconds": seconds,
        "expect_change": args.expect_change,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        },
        "rule": "worse: the median is worse by more than the bound; unresolved: "
        "the parent's IQR is wider than the bound; better: the change wins "
        f"{WIN_SHARE:.0%} of at least {MIN_PAIRS} pairs and the medians differ by "
        "more than the parent's IQR",
        **called,
        "refused": refused,
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    verdict = "refused" if refused else "no refusal"
    print(
        f"wrote {args.out}: {len(called['worse'])} metric(s) worse, "
        f"{len(called['unresolved'])} unresolved, {verdict}"
    )
    return 1 if refused or called["worse"] or called["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
