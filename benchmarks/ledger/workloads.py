"""The five end-to-end workloads of the ledger benchmark.

Each workload is one function ``(round) -> None`` that does its set-up
inside ``round.rec.setup_region()``, then runs its operations — each a
timed unit followed by an untimed check of what the program returned.  Every
layer is driven from outside through its public functions; ``repro`` is
imported inside the set-up region so that the import is paid in
``setup_s``.  In a traced round the same work is done with the top-level
call split into the public calls it is made of, one span around each.

All five are closed loops with one client: a unit starts when the one
before it has returned.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

from harness import Recorder

#: The sweep grid shared by ``cli_session`` (serial), ``sweep_pool`` and the
#: engine probes: 54 fork-prone bitcoin cells.
SWEEP = {"seeds": 6, "delays": (1.0, 2.0, 4.0), "token_rates": (0.2, 0.4, 0.8), "duration": 100.0}
SMOKE_SWEEP = {"seeds": 1, "delays": (1.0,), "token_rates": (0.4, 0.8), "duration": 20.0}

#: Attempts beyond the first that a pool cell gets (see ``sweep_pool``).
POOL_RETRIES = 2

#: Frozen unit sizes.  ``full`` is what BENCHMARK.json measures; ``smoke``
#: exists for the tier-1 smoke test and measures nothing.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "flood_storm": {"cells": 4, "replicas": 48, "duration": 100.0, "warmup": 30.0},
        "population_stream": {"cells": 3, "clients": 10_000, "duration": 200.0, "warmup": 20.0},
        "read_audit": {
            "fork": {"replicas": 48, "duration": 100.0, "read_interval": 2.0},
            "chain": {"replicas": 16, "duration": 1000.0, "read_interval": 1.0},
        },
        "cli_session": {"sweep": SWEEP},
        "sweep_pool": {"sweep": SWEEP, "jobs": os.cpu_count() or 1},
        "probes": {
            "sweep": SWEEP,
            "jobs": os.cpu_count() or 1,
            "flood": {"replicas": 48, "duration": 100.0},
            "population": {"clients": 10_000, "rate": 0.5, "duration": 200.0, "replicas": 8},
            # A tenth of a population_stream cell: at full size a snapshot
            # every 5000 events is 200 snapshots of 10 k clients, 21 s.
            "checkpoint": {"clients": 1_000, "duration": 200.0, "every": 5_000},
            "noop_events": 300_000,
            "gossip": {"processes": 64, "rumors": 2},
            "channel": {"fanouts": 10_000, "receivers": 47},
        },
    },
    "smoke": {
        "flood_storm": {"cells": 1, "replicas": 8, "duration": 20.0, "warmup": 5.0},
        "population_stream": {"cells": 1, "clients": 200, "duration": 20.0, "warmup": 5.0},
        "read_audit": {
            "fork": {"replicas": 12, "duration": 40.0, "read_interval": 2.0},
            "chain": {"replicas": 4, "duration": 40.0, "read_interval": 1.0},
        },
        "cli_session": {"sweep": SMOKE_SWEEP},
        "sweep_pool": {"sweep": SMOKE_SWEEP, "jobs": 2},
        "probes": {
            "sweep": SMOKE_SWEEP,
            "jobs": 2,
            "flood": {"replicas": 8, "duration": 20.0},
            "population": {"clients": 200, "rate": 0.5, "duration": 20.0, "replicas": 4},
            "checkpoint": {"clients": 100, "duration": 20.0, "every": 500},
            "noop_events": 2_000,
            "gossip": {"processes": 8, "rumors": 1},
            "channel": {"fanouts": 100, "receivers": 7},
        },
    },
}

#: (lottery seed, channel seed) of the flood cells.  Frozen whole; ``--seed``
#: sets the order they run in.  The number of blocks a cell mines is
#: Poisson(80), so letting ``--seed`` pick the lottery seeds moved a cell's
#: event count by ±11 % (163 k – 224 k) and the round's wall time with it; and
#: at an identical event count the channel seed moved a cell's peak RSS from
#: 51 to 64 MiB (how long forks live), 6–9 % on the round's ``peak_rss_mb``.
FLOOD_CELLS = ((0, 1), (2, 2), (3, 3), (4, 4))

#: (lottery seed, channel seed) of read_audit's fork history.  Frozen whole:
#: the Strong-Prefix fallback materialises every violating pair of reads, so
#: how long the replicas stay split decides its cost — between channel seeds
#: the audit's wall time moved by 9 % and its peak RSS from 253 to 336 MiB.
FORK_HISTORY_SEEDS = (3, 5)

#: README defaults of ``python -m repro table1``.
TABLE1_DEFAULTS = {"n": 5, "duration": 100.0, "seed": 7}


class Round:
    """One round of one workload: its inputs, recorder and verdicts."""

    def __init__(
        self,
        workload: str,
        seed: int,
        size: str,
        scratch: Path,
        rec: Recorder,
        inject_wrong_verdict: bool = False,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.size = SIZES[size][workload]
        self.scratch = scratch
        self.rec = rec
        self.inject_wrong_verdict = inject_wrong_verdict
        self.events = 0
        #: Deterministic counts; must repeat exactly in every round.
        self.counts: Dict[str, int] = {}
        #: Per-layer values that are not span durations.
        self.values: Dict[str, float] = {}
        #: Uncalibrated seconds and rates a probe derived inside a unit.
        self.raw_seconds: Dict[str, float] = {}
        self.raw_rates: Dict[str, float] = {}
        self.attempted = 0
        self.failures: Dict[str, str] = {}
        #: Cells the program ran again after a failed attempt.  Not a failed
        #: operation, but reported: a retry inflates the round it falls in.
        self.retried = 0

    def seeds(self, count: int) -> List[int]:
        """``count`` sub-seeds; a string seed hashes the same in every process."""
        rng = random.Random(f"{self.workload}:{self.seed}")
        return [rng.randrange(1, 2**31 - 1) for _ in range(count)]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def operation(
        self,
        name: str,
        action: Callable[[], Any],
        verify: Callable[[Any], None],
        parallel: bool = False,
    ) -> None:
        """One operation: ``action`` as a timed unit, then ``verify(result)`` untimed.

        It fails on an exception from either, or on a failed ``expect``.
        """
        self.attempted += 1
        self._operation = f"{name}#{self.attempted}"
        try:
            with self.rec.unit(name, parallel=parallel):
                result = action()
            verify(result)
        except Exception as exc:  # boundary: the round goes on, the failure is reported
            self.failures.setdefault(self._operation, f"{type(exc).__name__}: {exc}")

    def expect(self, ok: bool, why: str) -> None:
        if not ok:
            self.failures.setdefault(self._operation, why)


# -- shared pieces ------------------------------------------------------------


def execute_cell(round: Round, spec: Any) -> Any:
    """``spec.execute()``; traced, the two public calls it consists of."""
    rec = round.rec
    if not rec.traced:
        return spec.execute()
    from repro.engine import analyse_run, get_protocol

    entry = get_protocol(spec.protocol)
    with rec.span("protocols.run"):
        started = time.perf_counter()
        run = entry.runner_for(None)(**spec.build_kwargs())
        run_seconds = time.perf_counter() - started
    with rec.span("engine.result.analysis"):
        return analyse_run(spec, entry, run, run_seconds)


def conserved(network: Dict[str, Any]) -> bool:
    """``sent == delivered + dropped (+ quarantined)``."""
    return network["messages_sent"] == (
        network["messages_delivered"]
        + network["messages_dropped"]
        + network.get("messages_quarantined", 0)
    )


def run_cells(round: Round, specs: Sequence[Any]) -> None:
    """One operation per in-process cell."""

    def verify(result: Any) -> None:
        network = result.network
        round.expect(conserved(network), f"message conservation broken: {network}")
        round.expect(result.classification["consistency"] != "none", "no criterion satisfied")
        round.events += network["events_processed"]
        round.count("cells")
        round.count("protocols.events", network["events_processed"])
        round.count("messages_sent", network["messages_sent"])

    for spec in specs:
        round.operation("cell", lambda spec=spec: execute_cell(round, spec), verify)


def flood_spec(size: Dict[str, Any], lottery_seed: int, channel_seed: int, **changes: Any) -> Any:
    from repro.engine import ChannelSpec, ExperimentSpec, WorkloadSpec

    fields = dict(
        protocol="bitcoin",
        replicas=size["replicas"],
        duration=size["duration"],
        seed=lottery_seed,
        channel=ChannelSpec(
            kind="synchronous", params={"delta": 1.5, "min_delay": 0.5}, seed=channel_seed
        ),
        workload=WorkloadSpec(read_interval=size.get("read_interval", 20.0)),
        params={"token_rate": 0.8, "selection": "longest"},
    )
    fields.update(changes)
    return ExperimentSpec(**fields)


def sweep_grid(round: Round) -> Dict[str, List[Any]]:
    """The sweep's three axes.

    The cells are frozen; ``--seed`` only shuffles each axis.  A fork-prone
    cell's event count depends on its seed, and letting ``--seed`` pick the
    seed axis moved the sweep from 84 k to 97 k events and ``wall_s`` with it.
    """
    rng = random.Random(f"sweep:{round.seed}")
    sweep = round.size["sweep"]
    axes = {
        "seed": list(range(sweep["seeds"])),
        "channel.delta": list(sweep["delays"]),
        "params.token_rate": list(sweep["token_rates"]),
    }
    for values in axes.values():
        rng.shuffle(values)
    return axes


def sweep_argv(round: Round, axes: Dict[str, List[Any]]) -> List[str]:
    def axis(name: str) -> str:
        return ",".join(map(str, axes[name]))

    return [
        "sweep", "--protocol", "bitcoin", "--fork-prone",
        "--seeds", axis("seed"),
        "--delays", axis("channel.delta"),
        "--token-rates", axis("params.token_rate"),
        "--duration", str(round.size["sweep"]["duration"]),
    ]  # fmt: skip


def sweep_specs(round: Round, axes: Dict[str, List[Any]]) -> List[Any]:
    """What ``repro sweep`` expands that argv to, through the public API."""
    from repro.engine import expand_grid, get_protocol, regime_spec

    regime = get_protocol("bitcoin").fork_prone
    base = regime_spec("bitcoin", regime, n=5, duration=round.size["sweep"]["duration"], seed=0)
    return expand_grid(base, axes)


def repro_cli(round: Round, argv: Sequence[str]) -> "subprocess.CompletedProcess[str]":
    """``python -m repro <argv>`` as a user would start it, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=round.scratch,
        capture_output=True,
        text=True,
        timeout=150,
    )


def check_payload(round: Round, path: Path, cells: int) -> Dict[str, Any]:
    """Load a sweep ``--out`` payload and check every cell in it."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    round.expect(payload["failures"] == 0, f"{payload['failures']} CellFailure(s) in {path.name}")
    round.expect(len(payload["cells"]) == cells, f"{len(payload['cells'])} cells, expected {cells}")
    for cell in payload["cells"]:
        if cell.get("cell_failure"):
            continue
        round.expect(conserved(cell["network"]), f"message conservation broken: {cell['network']}")
    return payload


def payload_events(payload: Dict[str, Any]) -> int:
    return sum(cell["network"]["events_processed"] for cell in payload["cells"])


# -- 1. flood_storm -----------------------------------------------------------


def flood_storm(round: Round) -> None:
    size = round.size
    with round.rec.setup_region():
        cells = list(FLOOD_CELLS[: size["cells"]])
        random.Random(f"flood:{round.seed}").shuffle(cells)
        specs = [flood_spec(size, *cell) for cell in cells]
        # The first cell in a process runs ~40 % slower than the rest.
        specs[0].with_updates(duration=size["warmup"]).execute()
    run_cells(round, specs)


# -- 2. population_stream -----------------------------------------------------


def population_stream(round: Round) -> None:
    size = round.size
    with round.rec.setup_region():
        from repro.engine import ExperimentSpec, WorkloadSpec

        specs = [
            ExperimentSpec(
                protocol="bitcoin",
                replicas=8,
                duration=size["duration"],
                seed=seed,
                workload=WorkloadSpec(clients=size["clients"], client_rate=0.5),
                params={"token_rate": 0.4},
            )
            for seed in round.seeds(size["cells"])
        ]
        specs[0].with_updates(duration=size["warmup"]).execute()
    run_cells(round, specs)


# -- 3. read_audit ------------------------------------------------------------


def _verdict(strong: bool, eventual: bool) -> str:
    return "SC" if strong else "EC" if eventual else "none"


def _monitor_verdict(history: Any) -> str:
    from repro.core.consistency_index import ConsistencyMonitor

    monitor = ConsistencyMonitor().replay(history)
    return _verdict(monitor.strong_holds(), monitor.eventual_holds())


def _audit(round: Round, kind: str, run: Any) -> str:
    """Post-hoc verdict of one history: ``classify_run``, traced as its parts."""
    rec = round.rec
    if not rec.traced:
        from repro.protocols.classification import classify_run

        result = classify_run(run)
        return _verdict(result.strong_report.holds, result.eventual_report.holds)
    from repro.core.consistency import BTEventualConsistency, BTStrongConsistency
    from repro.core.consistency_index import ConsistencyIndex
    from repro.core.score import LengthScore

    with rec.span("core.history.filter"):
        history = run.history.without_failed_appends()
    with rec.span("core.consistency_index.build"):
        index = ConsistencyIndex.from_history(history)
    with rec.span(f"core.consistency.strong_{kind}"):
        strong = BTStrongConsistency(score=LengthScore()).check(history, index)
    with rec.span("core.consistency.eventual"):
        eventual = BTEventualConsistency(score=LengthScore()).check(history, index)
    return _verdict(strong.holds, eventual.holds)


def read_audit(round: Round) -> None:
    size = round.size
    with round.rec.setup_region():
        from repro.engine import ExperimentSpec, WorkloadSpec, get_protocol
        from repro.protocols.classification import classify_run

        def history_of(spec: Any) -> Any:
            return get_protocol(spec.protocol).runner_for(None)(**spec.build_kwargs())

        # The fork history is frozen (see FORK_HISTORY_SEEDS); --seed drives
        # the chain history and the warm-up.
        chain_seed, warm_seed = round.seeds(2)
        fork_run = history_of(flood_spec(size["fork"], *FORK_HISTORY_SEEDS))
        chain = size["chain"]
        chain_run = history_of(
            ExperimentSpec(
                protocol="hyperledger",
                replicas=chain["replicas"],
                duration=chain["duration"],
                seed=chain_seed,
                workload=WorkloadSpec(read_interval=chain["read_interval"]),
            )
        )
        warm = dict(size["fork"], replicas=8, duration=20.0)
        classify_run(history_of(flood_spec(warm, FLOOD_CELLS[0][0], warm_seed)))
        audits = [("fork", fork_run, "EC"), ("chain", chain_run, "SC")]
        if round.inject_wrong_verdict:
            audits[0] = ("fork", fork_run, "SC")

    agreeing = []
    for kind, run, expected in audits:

        def audit(kind: str = kind, run: Any = run) -> Any:
            posthoc = _audit(round, kind, run)
            with round.rec.span("core.consistency_index.monitor"):
                return posthoc, _monitor_verdict(run.history)

        def verify(verdicts: Any, kind: str = kind, run: Any = run, expected: str = expected) -> None:
            posthoc, streamed = verdicts
            round.expect(posthoc == expected, f"{kind} history classified {posthoc}, not {expected}")
            round.expect(streamed == posthoc, f"monitor says {streamed}, post-hoc {posthoc}")
            round.events += len(run.history)
            round.count("core.consistency.reads", len(run.history.read_responses()))
            round.count("histories")
            agreeing.append(streamed == posthoc)

        round.operation(f"audit_{kind}", audit, verify)
    round.values["core.consistency.monitor_agreement"] = sum(agreeing) / len(audits)


# -- 4. cli_session -----------------------------------------------------------


def _check_table1(round: Round, stdout: str) -> None:
    lines = stdout.splitlines()
    rule = next((i for i, line in enumerate(lines) if line.startswith("---")), None)
    rows = [line.split() for line in lines[rule + 1 :] if line.strip()] if rule is not None else []
    round.expect(len(rows) == round.counts["table1_rows"], f"table1 printed {len(rows)} rows")
    for row in rows:
        round.expect(row[-1] == "yes", f"table1 row does not match the paper: {' '.join(row)}")


def cli_session(round: Round) -> None:
    with round.rec.setup_region():
        from repro.engine import table1_spec
        from repro.protocols.classification import TABLE1_SYSTEMS

        # ``table1`` prints no event count: run its cells once here.
        table1_events = sum(
            table1_spec(name, **TABLE1_DEFAULTS).execute().network["events_processed"]
            for name in TABLE1_SYSTEMS
        )
        round.counts["table1_rows"] = len(TABLE1_SYSTEMS)
        axes = sweep_grid(round)
        cells = len(axes["seed"]) * len(axes["channel.delta"]) * len(axes["params.token_rate"])
        cold_out, warm_out = round.scratch / "cold.json", round.scratch / "warm.json"
        cached = [
            *sweep_argv(round, axes), "--jobs", "1",
            "--cache", str(round.scratch / "cache"),
            "--journal", str(round.scratch / "journal.jsonl"),
        ]  # fmt: skip

    def command(name: str, argv: Sequence[str], check: Callable[[Any], None]) -> None:
        def verify(done: Any) -> None:
            round.expect(done.returncode == 0, f"exit {done.returncode}: {done.stderr[-300:]}")
            if done.returncode == 0:
                check(done)

        round.operation(name, lambda: repro_cli(round, argv), verify)

    def table1(done: Any) -> None:
        _check_table1(round, done.stdout)
        round.events += table1_events

    def cold(done: Any) -> None:
        round.expect(f"(0/{cells} cells from cache" in done.stdout, "cold sweep hit the cache")
        payload = check_payload(round, cold_out, cells)
        round.events += payload_events(payload)
        round.count("cells", cells)

    def warm(done: Any) -> None:
        round.expect(f"({cells}/{cells} cells from cache" in done.stdout, "warm sweep missed")
        round.expect(
            warm_out.read_bytes() == cold_out.read_bytes(), "warm payload differs from cold"
        )

    command("cli.table1", ["table1"], table1)
    command("cli.table1", ["table1"], table1)
    command("cli.sweep_cold", [*cached, "--out", str(cold_out)], cold)
    command("cli.sweep_warm", [*cached, "--out", str(warm_out)], warm)


# -- 5. sweep_pool ------------------------------------------------------------

#: Where ``sweep_reference`` leaves its results, relative to the run's scratch.
SWEEP_REFERENCE = "sweep-reference.json"


def sweep_reference(round: Round) -> None:
    """The serial results a pool payload has to equal, minus ``timings``.

    Checking is the benchmark's own work and the same in every round, so the
    parent has one child compute it before the first round of a run: every
    ``sweep_pool`` round then does identical set-up.
    """
    reference = [
        json.loads(spec.execute().stable_json()) for spec in sweep_specs(round, sweep_grid(round))
    ]
    (round.scratch.parent / SWEEP_REFERENCE).write_text(json.dumps(reference))


def sweep_pool(round: Round) -> None:
    with round.rec.setup_region():
        import repro.engine  # noqa: F401  (every round pays the import, as a user's script would)

        axes = sweep_grid(round)
        reference = json.loads((round.scratch.parent / SWEEP_REFERENCE).read_text())
        out, journal = round.scratch / "pool.json", round.scratch / "pool.journal.jsonl"
        # --retries, because the program has a race the benchmark must not
        # trip over twice a session: PoolExecutor._poll_one reads conn.poll()
        # and then proc.is_alive(), so a parent descheduled between the two
        # takes a worker that reported and exited for one that "exited with
        # code 0 without reporting" (2 of 142 sweeps without --retries).
        # --journal, so that no retry is silent: verify() reads the attempts.
        argv = [
            *sweep_argv(round, axes), "--jobs", str(round.size["jobs"]), "--backend", "pool",
            "--retries", str(POOL_RETRIES), "--journal", str(journal), "--out", str(out),
        ]  # fmt: skip

    def verify(done: Any) -> None:
        round.expect(done.returncode == 0, f"exit {done.returncode}: {done.stderr[-300:]}")
        if done.returncode != 0:
            return
        payload = check_payload(round, out, len(reference))
        stable = [{k: v for k, v in cell.items() if k != "timings"} for cell in payload["cells"]]
        round.expect(stable == reference, "pool payload differs from the serial reference")
        round.events += payload_events(payload)
        round.count("cells", len(reference))
        attempts = sum(json.loads(line)["attempts"] for line in journal.read_text().splitlines())
        round.retried += attempts - len(reference)

    round.operation("cli.sweep_pool", lambda: repro_cli(round, argv), verify, parallel=True)


WORKLOADS: Dict[str, Callable[[Round], None]] = {
    "flood_storm": flood_storm,
    "population_stream": population_stream,
    "read_audit": read_audit,
    "cli_session": cli_session,
    "sweep_pool": sweep_pool,
}
