#!/usr/bin/env python3
"""The repository's reference benchmark: five workloads, fresh children, medians.

    PYTHONPATH=src python benchmarks/ledger/run.py [--seed N] [--workload NAME ...]
        [--seconds S] [--trace] [--out FILE] [--trace-out FILE]

Every round of every workload runs in a fresh child process started with
``PYTHONHASHSEED=0``; rounds are interleaved round-robin (w1 r1, w2 r1, …,
w1 r2, …) so every workload samples the same machine drift; the number
reported for a metric is the median over the rounds.  There are 7 rounds,
or with ``--seconds S`` as many as start before S seconds per workload have
gone by.  ``--trace`` adds one traced round of every workload and the
per-layer probes, again in fresh children; ``--trace-out`` writes their
spans as JSON lines.

With exactly one ``--workload`` the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics.

Exit status: 0 when every operation succeeded, 1 otherwise, 2 when the
program under test is not there.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOAD_NAMES = ("flood_storm", "population_stream", "read_audit", "cli_session", "sweep_pool")
DEFAULT_ROUNDS = 7
SCRATCH_PREFIX = ".ledger_scratch-"  # .gitignore names it

#: End-to-end metrics, the same five for every workload: name → unit.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Per-layer metrics of the traced pass: name → unit.  ``<span>_s`` rows
#: are summed leaf spans of that name.  BENCHMARK.json repeats this table.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.table1_s": "s",
    "cli.sweep_cold_s": "s",
    "cli.sweep_warm_s": "s",
    "engine.spec.expand_s": "s",
    "engine.spec.build_kwargs_s": "s",
    "engine.spec.cells": "count",
    "engine.executors.serial_wall_s": "s",
    "engine.executors.serial_overhead_s": "s",
    "engine.executors.pool_wall_s": "s",
    "engine.executors.pool_overhead_s": "s",
    "engine.executors.pool_efficiency": "ratio",
    "engine.executors.cells": "count",
    "engine.executors.failed_cells": "count",
    "engine.executors.retried_cells": "count",
    "engine.cache.put_s": "s",
    "engine.cache.get_s": "s",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.bytes": "B",
    "engine.result.analysis_s": "s",
    "engine.result.to_json_s": "s",
    "engine.result.payload_bytes": "B",
    "engine.checkpoint.overhead_s": "s",
    "protocols.run_s": "s",
    "protocols.events": "count",
    "network.simulator.callback_s": "s",
    "network.simulator.drain_s": "s",
    "network.event_core.array_noop_events_per_s": "events/s",
    "network.event_core.heap_noop_events_per_s": "events/s",
    "network.simulator.gossip_msgs_per_s": "msgs/s",
    "network.simulator.messages_sent": "count",
    "network.simulator.messages_delivered": "count",
    "network.simulator.messages_dropped": "count",
    "network.channels.delays_for_s": "s",
    "network.channels.samples": "count",
    "workload.population.generate_s": "s",
    "workload.population.schedule_s": "s",
    "workload.population.ops": "count",
    "core.blocktree.append_s": "s",
    "core.blocktree.blocks": "count",
    "core.selection.select_s": "s",
    "core.selection.calls": "count",
    "core.history.record_s": "s",
    "core.history.events": "count",
    "core.consistency_index.build_s": "s",
    "core.consistency_index.monitor_s": "s",
    "core.consistency.strong_fork_s": "s",
    "core.consistency.strong_chain_s": "s",
    "core.consistency.eventual_s": "s",
    "core.consistency.reads": "count",
    "core.consistency.monitor_agreement": "ratio",
    "analysis.stats_s": "s",
    "harness.calibration_s": "s",
    "harness.disturbed_rounds": "count",
    "harness.trace_overhead_ratio": "ratio",
    "harness.layer_coverage": "ratio",
}


# -- child: one round of one workload -----------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Run one round in this (fresh) process and print its record as JSON."""
    from probes import probes
    from workloads import WORKLOADS, Round, sweep_reference

    rec = harness.Recorder(traced=args.traced, smoke=args.size == "smoke")
    # The reference is sweep_pool's, so it is sized and seeded as sweep_pool.
    sized_as = "sweep_pool" if args.child == "sweep_reference" else args.child
    round = Round(
        sized_as, args.seed, args.size, Path(args.scratch), rec, args.inject_wrong_verdict
    )
    {**WORKLOADS, "probes": probes, "sweep_reference": sweep_reference}[args.child](round)
    import numpy
    from repro.network.event_core import COMPILED_MODULES

    record = {
        "workload": args.child,
        "setup": rec.setup,
        "units": rec.units,
        "spans": rec.spans,
        "events": round.events,
        "counts": round.counts,
        "values": round.values,
        "attempted": round.attempted,
        "failures": round.failures,
        "retried": round.retried,
        "peak_rss_mb": harness.peak_rss_mib(),
        "fingerprint": {"numpy": numpy.__version__, "compiled_modules": dict(COMPILED_MODULES)},
    }
    print(json.dumps(record))
    return 0


# -- parent: rounds, aggregation, verdict -------------------------------------

Job = Tuple[str, int, bool]  # workload (or "probes"), round id, traced


def run_child(job: Job, args: argparse.Namespace, scratch: Path) -> Dict[str, Any]:
    workload, round_id, traced = job
    home = scratch / f"{workload}-{round_id}{'-traced' if traced else ''}"
    home.mkdir()
    command = [
        sys.executable, str(HERE / "run.py"), "--child", workload,
        "--seed", str(args.seed), "--size", args.size, "--scratch", str(home),
    ]  # fmt: skip
    if traced:
        command.append("--traced")
    if args.inject_wrong_verdict:
        command.append("--inject-wrong-verdict")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC) + (os.pathsep + inherited if inherited else ""),
    )
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=170)
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 and lines:
            record = json.loads(lines[-1])
        else:
            record = {"crash": f"exit {done.returncode}: {done.stderr.strip()[-400:]}"}
    except (subprocess.TimeoutExpired, ValueError) as exc:
        record = {"crash": f"{type(exc).__name__}: {exc}"}
    record.update(workload=workload, round=round_id, traced=traced)
    return record


def run_children(jobs: Sequence[Job], args: argparse.Namespace, scratch: Path) -> List[Dict]:
    """Children one after another; two at a time only for the smoke size."""
    if args.size != "smoke":
        return [run_child(job, args, scratch) for job in jobs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda job: run_child(job, args, scratch), jobs))


def round_sample(record: Dict[str, Any]) -> Dict[str, float]:
    """The five end-to-end numbers of one round."""
    wall = sum(unit["wall_s"] for unit in record["units"])
    return {
        "wall_s": wall,
        "cpu_s": sum(unit["cpu_s"] for unit in record["units"]),
        "events_per_s": record["events"] / wall,
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": record["setup"]["wall_s"],
    }


def summarise(rounds: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians over the rounds, operations attempted/failed, count agreement."""
    failures: List[str] = []
    attempted = 1  # the count-agreement check below is one operation
    good = []
    for record in rounds:
        label = f"round {record['round']}"
        if "crash" in record:
            attempted += 1
            failures.append(f"{label}: child: {record['crash']}")
            continue
        attempted += record["attempted"]
        failures += [f"{label}: {op}: {why}" for op, why in record["failures"].items()]
        if record["units"] and record["events"]:
            good.append(record)
    counted = [dict(record["counts"], events=record["events"]) for record in good]
    if any(counts != counted[0] for counts in counted):
        failures.append(f"counts differ between rounds: {counted}")
    samples = [round_sample(record) for record in good]
    return {
        "end_to_end": {
            name: harness.quartiles([sample[name] for sample in samples]) for name in END_TO_END
        }
        if samples
        else {},
        "counts": counted[0] if counted else {},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "retried_cells": sum(record.get("retried", 0) for record in rounds),
        "rounds": list(rounds),
    }


def layer_values(record: Dict[str, Any]) -> Dict[str, float]:
    """Calibrated leaf-span seconds by name, plus the record's values and counts."""
    spans = record["spans"]
    parents = {span["parent"] for span in spans}
    layers: Dict[str, float] = {}
    for span in spans:
        if span["id"] not in parents:
            name = span["name"] + "_s"
            layers[name] = layers.get(name, 0.0) + (span["end"] - span["start"]) * span["scale"]
    layers.update(record["values"])
    layers.update(record["counts"])
    return layers


def layer_coverage(record: Dict[str, Any]) -> float:
    """Share of the traced round's units that lies inside leaf layer spans."""
    spans = [span for span in record["spans"] if span["name"] != "setup"]
    own = harness.self_times(spans)
    parents = {span["parent"] for span in spans}
    leaves = sum(own[span["id"]] for span in spans if span["id"] not in parents)
    return leaves / sum(own.values())


def per_layer(
    name: str, summary: Dict[str, Any], traced: Dict[str, Dict], kernel_times: List[float]
) -> Dict[str, float]:
    """Every PER_LAYER row as seen from workload ``name``.

    Rows come from the probes and from the traced rounds.  A row that
    several traced rounds produce (``protocols.run_s``: flood_storm and
    population_stream) is read from ``name``'s own round if it has one,
    else from the first workload that does.
    """
    own = traced[name]
    others = [traced[other] for other in reversed(WORKLOAD_NAMES) if other != name]
    measured: Dict[str, float] = {}
    for record in (traced["probes"], *others, own):
        if "crash" not in record:
            measured.update(layer_values(record))
    session_kernel = statistics.median(kernel_times)
    untraced = [r for r in summary["rounds"] if "crash" not in r]
    # Every retry seen: the pool probe's, the traced rounds' and this workload's rounds'.
    measured["engine.executors.retried_cells"] = summary["retried_cells"] + sum(
        record.get("retried", 0) for record in traced.values()
    )
    measured["harness.calibration_s"] = session_kernel
    measured["harness.disturbed_rounds"] = sum(
        abs(statistics.mean(u["calibration_s"] for u in r["units"]) / session_kernel - 1.0)
        > harness.DISTURBED_FRACTION
        for r in untraced
        if r["units"]
    )
    if "crash" not in own and summary["end_to_end"]:
        traced_wall = sum(unit["wall_s"] for unit in own["units"])
        measured["harness.trace_overhead_ratio"] = (
            traced_wall / summary["end_to_end"]["wall_s"]["median"]
        )
        measured["harness.layer_coverage"] = layer_coverage(own)
    return {name: measured.get(name, 0.0) for name in PER_LAYER}


def fingerprint(args: argparse.Namespace, records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    from workloads import SIZES

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    from_children = next((r["fingerprint"] for r in records if "fingerprint" in r), {})
    return {
        "git_commit": commit or "unknown",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": "0",
        "seed": args.seed,
        "size": args.size,
        "unit_sizes": SIZES[args.size],
        "reference_calibration_s": harness.REFERENCE_CALIBRATION_S,
        **from_children,
    }


def run_session(args: argparse.Namespace, scratch: Path) -> Dict[str, Any]:
    workloads = args.workload
    rounds: Dict[str, List[Dict[str, Any]]] = {name: [] for name in workloads}
    if args.trace or "sweep_pool" in workloads:
        reference = run_child(("sweep_reference", 0, False), args, scratch)
        if "crash" in reference:
            raise SystemExit(f"ledger benchmark: no sweep reference: {reference['crash']}")
    fixed_rounds = 1 if args.size == "smoke" else DEFAULT_ROUNDS
    started = time.perf_counter()
    round_id = 0
    while True:
        round_id += 1
        for record in run_children([(name, round_id, False) for name in workloads], args, scratch):
            rounds[record["workload"]].append(record)
        if args.seconds is None:
            if round_id >= fixed_rounds:
                break
        elif time.perf_counter() - started >= args.seconds * len(workloads):
            break
    traced: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        # The ledger is one table: whatever was selected, every workload gets
        # its traced round, so no row is left unmeasured.
        jobs = [(name, 0, True) for name in (*WORKLOAD_NAMES, "probes")]
        traced = {record["workload"]: record for record in run_children(jobs, args, scratch)}

    records = [record for name in workloads for record in rounds[name]] + list(traced.values())
    kernel_times = [
        unit["calibration_s"] for record in records for unit in record.get("units", ())
    ]
    session: Dict[str, Any] = {
        "schema": "repro.ledger/1",
        "fingerprint": dict(fingerprint(args, records), rounds=round_id),
        "workloads": {},
    }
    for name in workloads:
        summary = summarise(rounds[name])
        if args.trace:
            for record in traced.values():
                summary["attempted"] += record.get("attempted", 1)
                crashed = {"child": record["crash"]} if "crash" in record else record["failures"]
                summary["failures"] += [
                    f"traced {record['workload']}: {op}: {why}" for op, why in crashed.items()
                ]
            summary["failed"] = len(summary["failures"])
            summary["per_layer"] = per_layer(name, summary, traced, kernel_times)
        session["workloads"][name] = summary
    if args.trace:
        session["traced"] = traced
    return session


def write_trace(session: Dict[str, Any], path: Path) -> None:
    """One JSON line per span, tagged with the child it came from."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in session["traced"].values():
            for span in record.get("spans", ()):
                handle.write(json.dumps(dict(span, workload=record["workload"], round=0)) + "\n")


def print_report(session: Dict[str, Any], trace: bool) -> None:
    for name, summary in session["workloads"].items():
        print(f"{name}: {summary['attempted']} operations attempted, {summary['failed']} failed")
        for failure in summary["failures"]:
            print(f"  FAILED {failure}")
        if summary["retried_cells"]:
            print(f"  RETRIED {summary['retried_cells']} cell(s) ran again after a failed attempt")
        for metric, stats in summary["end_to_end"].items():
            print(
                f"  {metric:<14} {stats['median']:>14.4f} {END_TO_END[metric]:<9}"
                f" q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}"
            )
        print(f"  {'events':<14} {summary['counts'].get('events', 0):>14} count")
        if trace:
            for metric, value in summary["per_layer"].items():
                print(f"  {metric:<44} {value:>16.6g} {PER_LAYER[metric]}")


def contract_line(summary: Dict[str, Any], trace: bool) -> str:
    """The one-object result line a single-workload run ends with."""
    if trace:
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in summary["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": stats["median"], "unit": END_TO_END[name]}
            for name, stats in summary["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="per workload; without it 7 rounds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--trace-out", default=None, help="write the traced spans, one per line")
    parser.add_argument("--out", default=None, help="write the full result document here")
    parser.add_argument("--smoke", action="store_true", help="1 round, shrunken units, 2 workers")
    # Test hook: expect the wrong verdict of read_audit's fork history.
    parser.add_argument("--inject-wrong-verdict", action="store_true", help=argparse.SUPPRESS)
    # Child protocol (internal).
    parser.add_argument(
        "--child", choices=(*WORKLOAD_NAMES, "probes", "sweep_reference"), help=argparse.SUPPRESS
    )
    parser.add_argument("--size", default="full", choices=("full", "smoke"), help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.smoke:
        args.size, args.seconds = "smoke", None
    args.workload = list(dict.fromkeys(args.workload or WORKLOAD_NAMES))
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger benchmark: no program to measure at {SRC}", file=sys.stderr)
        return 2
    # Everything the run writes (caches, journals, --out payloads of the
    # CLI) lives under one directory, removed on exit.  It is inside the
    # checkout because a run may write nowhere else.
    with tempfile.TemporaryDirectory(prefix=SCRATCH_PREFIX, dir=ROOT) as scratch:
        session = run_session(args, Path(scratch))
    if args.trace and args.trace_out:
        write_trace(session, Path(args.trace_out))
    if args.out:
        Path(args.out).write_text(json.dumps(session, indent=1, sort_keys=True) + "\n")
    print_report(session, bool(args.trace))
    summaries = list(session["workloads"].values())
    if len(summaries) == 1:
        print(contract_line(summaries[0], bool(args.trace)))
    return 1 if any(summary["failed"] for summary in summaries) else 0


if __name__ == "__main__":
    sys.exit(main())
