#!/usr/bin/env python3
"""A/A evidence: run the benchmark as two back-to-back sets and compare them.

    python benchmarks/ledger/selfcheck.py [--seed N] [--workload NAME ...]

Both sets measure the same checkout with the same seed.  The check fails
(exit 1) unless every end-to-end metric of every workload agrees between
the sets within the bound BENCHMARK.json fixes for it, every count agrees
exactly, and neither set had a failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_set(label: str, passthrough: List[str], out: Path) -> Dict[str, Any]:
    print(f"== set {label}: run.py {' '.join(passthrough)}", flush=True)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *passthrough, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    if not out.is_file():
        raise SystemExit(f"set {label} wrote no result (exit {done.returncode}):\n{done.stderr}")
    return json.loads(out.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", default=[])
    args = parser.parse_args()
    passthrough = ["--seed", str(args.seed)]
    for name in args.workload:
        passthrough += ["--workload", name]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix=".ledger_scratch-", dir=ROOT) as scratch:
        first = run_set("A", passthrough, Path(scratch) / "a.json")
        second = run_set("B", passthrough, Path(scratch) / "b.json")

    disagreements = 0
    header = f"{'workload':<18} {'metric':<13} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34}"
    print(f"\n{header} {'B/A-1':>8} {'bound':>6}")
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for label, summary in (("A", a), ("B", b)):
            for failure in summary["failures"]:
                disagreements += 1
                print(f"{name:<18} set {label} FAILED {failure}")
        for metric, bound in bounds.items():
            sa, sb = a["end_to_end"][metric], b["end_to_end"][metric]
            difference = sb["median"] / sa["median"] - 1.0
            ok = abs(difference) <= bound
            disagreements += not ok
            cells = [f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]" for s in (sa, sb)]
            print(
                f"{name:<18} {metric:<13} {cells[0]:>34} {cells[1]:>34}"
                f" {difference:>+8.1%} {bound:>6.0%} {'ok' if ok else 'DISAGREE'}"
            )
        same = a["counts"] == b["counts"]
        disagreements += not same
        print(f"{name:<18} counts {'repeat exactly' if same else 'DIFFER'}: {a['counts']}")
        if not same:
            print(f"{'':<18} set B: {b['counts']}")
    print(f"\n{disagreements} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
