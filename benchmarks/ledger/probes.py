"""Per-layer probes of the ledger benchmark's traced pass.

One span around a call into each layer's public functions, at a fixed
size, so that a later change to one layer has a number of its own to
move.  The probes run in one fresh child; each group below is one
calibrated unit, and the leaf spans inside it become the ``<span>_s``
metrics.  Rates, ratios and byte sizes go to ``round.values``, counts to
``round.counts``.  Sizes are frozen in ``workloads.SIZES[...]["probes"]``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List

from workloads import POOL_RETRIES, Round, conserved, flood_spec, sweep_grid, sweep_specs


@contextmanager
def timed(round: Round, name: str) -> Iterator[SimpleNamespace]:
    """A leaf span that also hands its raw duration back as ``.seconds``."""
    watch = SimpleNamespace(seconds=0.0)
    started = time.perf_counter()
    with round.rec.span(name):
        yield watch
    watch.seconds = time.perf_counter() - started


def probe_cli_import(round: Round) -> None:
    with round.rec.span("cli.import"):
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True, timeout=60)


def probe_engine(round: Round) -> None:
    """spec → executors → cache → serialisation over the CLI workloads' grid."""
    from repro.engine import CellFailure, ResultCache, SweepRunner, results_payload, spec_digest

    rec = round.rec
    axes = sweep_grid(round)
    with rec.span("engine.spec.expand"):
        specs = sweep_specs(round, axes)
    with rec.span("engine.spec.build_kwargs"):
        for spec in specs:
            spec.to_json()
            spec_digest(spec)
            spec.build_kwargs()
    round.counts["engine.spec.cells"] = len(specs)

    def cell_seconds(results: List[Any]) -> float:
        return sum(r.timings["run_seconds"] + r.timings["analysis_seconds"] for r in results)

    with timed(round, "engine.executors.serial_wall") as serial_watch:
        serial = SweepRunner(jobs=1).run(specs)
    jobs = round.size["jobs"]
    pool_runner = SweepRunner(jobs=jobs, executor="pool", retries=POOL_RETRIES)
    with rec.every_cpu(), timed(round, "engine.executors.pool_wall") as pool_watch:
        pooled = pool_runner.run(specs)
    failed = sum(isinstance(r, CellFailure) for r in pooled)
    round.counts["engine.executors.cells"] = len(pooled)
    round.counts["engine.executors.failed_cells"] = failed
    round.retried += pool_runner.last_attempts - len(pooled)
    round.expect(failed == 0, f"{failed} pool cell(s) failed")
    round.expect(
        [r.stable_dict() for r in pooled] == [r.stable_dict() for r in serial],
        "pool results differ from serial",
    )
    serial_wall, pool_wall = serial_watch.seconds, pool_watch.seconds
    round.values["engine.executors.pool_efficiency"] = serial_wall / (jobs * pool_wall)
    round.raw_seconds["engine.executors.serial_overhead_s"] = serial_wall - cell_seconds(serial)
    round.raw_seconds["engine.executors.pool_overhead_s"] = pool_wall - cell_seconds(pooled) / jobs

    cache_dir = round.scratch / "probe-cache"
    cache = ResultCache(cache_dir)
    with rec.span("engine.cache.put"):
        for result in serial:
            cache.put(result)
    with rec.span("engine.cache.get"):
        hits = sum(cache.get(spec) is not None for spec in specs)
    round.values["engine.cache.hit_ratio"] = hits / len(specs)
    round.values["engine.cache.bytes"] = sum(p.stat().st_size for p in cache_dir.iterdir())

    out = round.scratch / "probe-payload.json"
    with rec.span("engine.result.to_json"):
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(results_payload(serial), handle, sort_keys=True, indent=2)
    round.values["engine.result.payload_bytes"] = out.stat().st_size


def probe_checkpoint(round: Round) -> None:
    from repro.engine import ExperimentSpec, WorkloadSpec

    size = round.size["checkpoint"]
    spec = ExperimentSpec(
        protocol="bitcoin",
        replicas=8,
        duration=size["duration"],
        seed=round.seeds(1)[0],
        workload=WorkloadSpec(clients=size["clients"], client_rate=0.5),
        params={"token_rate": 0.4},
    )
    with timed(round, "engine.checkpoint.clean") as clean:
        plain = spec.execute()
    checkpointed_spec = spec.with_updates(
        checkpoint_every=size["every"], checkpoint_path=str(round.scratch / "probe.ckpt")
    )
    with timed(round, "engine.checkpoint.checkpointed") as checkpointed:
        result = checkpointed_spec.execute()
    round.expect(
        result.network == plain.network and result.classification == plain.classification,
        "checkpointed cell differs from the clean one",
    )
    round.raw_seconds["engine.checkpoint.overhead_s"] = checkpointed.seconds - clean.seconds


def probe_flood_cell(round: Round) -> None:
    """One flood cell, then its trees and history replayed through ``core``."""
    from repro.analysis.convergence import convergence_summary
    from repro.analysis.fairness import fairness_report
    from repro.analysis.forks import fork_statistics
    from repro.core.blocktree import BlockTree
    from repro.core.history import EventKind, HistoryRecorder
    from repro.core.selection import GHOSTSelection, LongestChain
    from repro.network.simulator import timed_callbacks
    from repro.workload.merit import uniform_merit

    rec = round.rec
    spec = flood_spec(round.size["flood"], 3, round.seeds(1)[0])
    with timed_callbacks():
        result = spec.execute()
    network = result.network
    round.expect(conserved(network), f"message conservation broken: {network}")
    round.raw_seconds["network.simulator.callback_s"] = network["callback_seconds"]
    round.raw_seconds["network.simulator.drain_s"] = network["drain_seconds"]
    run = result.run

    # Every replica's tree, blocks in the order that replica received them.
    arrivals = [
        [replica.tree.get(block_id) for block_id in replica.tree.block_ids()[1:]]
        for replica in run.replicas.values()
    ]
    with timed(round, "core.blocktree.append") as append_watch:
        for blocks in arrivals:
            tree = BlockTree()
            for block in blocks:
                tree.append(block)
    round.counts["core.blocktree.blocks"] = sum(map(len, arrivals))
    # Selection after every append; what the appends cost is taken off again.
    rules = (LongestChain(), GHOSTSelection())
    with timed(round, "core.selection.append_select") as both_watch:
        for blocks in arrivals:
            tree = BlockTree()
            for block in blocks:
                tree.append(block)
                for rule in rules:
                    rule(tree)
    round.raw_seconds["core.selection.select_s"] = both_watch.seconds - append_watch.seconds
    round.counts["core.selection.calls"] = len(rules) * sum(map(len, arrivals))

    events = run.history.events
    recorder = HistoryRecorder()
    replication = {
        EventKind.SEND: recorder.send,
        EventKind.RECEIVE: recorder.receive,
        EventKind.UPDATE: recorder.update,
    }
    tokens: Dict[int, Any] = {}
    with rec.span("core.history.record"):
        for event in events:
            if event.kind is EventKind.INVOCATION:
                tokens[event.op_id] = recorder.invoke(
                    event.process, event.operation, event.argument
                )
            elif event.kind is EventKind.RESPONSE:
                recorder.respond(tokens.pop(event.op_id), event.output)
            else:
                replication[event.kind](event.process, *event.argument)
    round.expect(len(recorder) == len(events), "replayed history lost events")
    round.counts["core.history.events"] = len(events)

    merit = uniform_merit(spec.replicas)
    with rec.span("analysis.stats"):
        for replica in run.replicas.values():
            fork_statistics(replica.tree)
        convergence_summary(run.final_chains())
        fairness_report(next(iter(run.replicas.values())).tree, merit)


def probe_event_core(round: Round) -> None:
    from repro.network.simulator import Simulator

    def noop(_: int) -> None:
        pass

    events = round.size["noop_events"]
    for core in ("array", "heap"):
        simulator = Simulator(core=core)
        with timed(round, f"network.event_core.{core}_noop") as watch:
            for index in range(events):
                simulator.call_at(index * 0.001, noop, index)
            simulator.run(max_events=events + 1)
        round.expect(simulator.events_processed == events, f"{core} core lost events")
        round.raw_rates[f"network.event_core.{core}_noop_events_per_s"] = events / watch.seconds


def probe_gossip(round: Round) -> None:
    """Rumor re-flood on the bare message plane: no block tree, no recorder use."""
    from repro.network.channels import SynchronousChannel
    from repro.network.process import Process
    from repro.network.simulator import Network, Simulator

    class Gossip(Process):
        def __init__(self, pid: str, rumors: List[Any]) -> None:
            super().__init__(pid)
            self.rumors = rumors
            self.seen: set = set()

        def on_start(self) -> None:
            for at, rumor in self.rumors:
                self.schedule(at, lambda rumor=rumor: self.tell(rumor))

        def tell(self, rumor: str) -> None:
            self.seen.add(rumor)
            self.broadcast("rumor", rumor, include_self=False)

        def on_message(self, message: Any) -> None:
            if message.payload not in self.seen:
                self.tell(message.payload)

    size = round.size["gossip"]
    network = Network(
        Simulator(), SynchronousChannel(delta=1.0, min_delay=0.1, seed=round.seeds(1)[0])
    )
    for index in range(size["processes"]):
        rumors = [(0.5 + 3.0 * j + 0.1 * index, f"p{index}_r{j}") for j in range(size["rumors"])]
        network.register(Gossip(f"p{index}", rumors))
    network.start()
    with timed(round, "network.simulator.gossip") as watch:
        network.run(max_events=20_000_000)
    sent = network.messages_sent
    round.expect(
        sent == network.messages_delivered + network.messages_dropped, "gossip lost messages"
    )
    round.counts["network.simulator.messages_sent"] = sent
    round.counts["network.simulator.messages_delivered"] = network.messages_delivered
    round.counts["network.simulator.messages_dropped"] = network.messages_dropped
    round.raw_rates["network.simulator.gossip_msgs_per_s"] = sent / watch.seconds


def probe_channels(round: Round) -> None:
    from repro.network.channels import LossyChannel, SynchronousChannel

    size = round.size["channel"]
    seed = round.seeds(1)[0]
    receivers = [f"p{index}" for index in range(1, size["receivers"] + 1)]
    plain = SynchronousChannel(delta=1.5, min_delay=0.5, seed=seed)
    lossy = LossyChannel(SynchronousChannel(delta=1.5, min_delay=0.5, seed=seed), 0.1, seed=seed)
    samples = 0
    with round.rec.span("network.channels.delays_for"):
        for channel in (plain, lossy):
            for fanout in range(size["fanouts"]):
                samples += len(channel.delays_for("p0", receivers, float(fanout)))
    round.counts["network.channels.samples"] = samples


def probe_population(round: Round) -> None:
    from repro.network.channels import SynchronousChannel
    from repro.network.process import Process
    from repro.network.simulator import Network, Simulator
    from repro.workload.population import ClientPopulation

    class Sink(Process):
        def on_client_op(self, op: int) -> None:
            pass

    size = round.size["population"]
    network = Network(Simulator(), SynchronousChannel(delta=1.0, seed=7))
    pids = [f"p{index}" for index in range(size["replicas"])]
    for pid in pids:
        network.register(Sink(pid))
    with round.rec.span("workload.population.generate"):
        population = ClientPopulation(
            size["clients"], size["rate"], size["duration"], pids, seed=round.seeds(1)[0]
        )
    with round.rec.span("workload.population.schedule"):
        scheduled = population.schedule_on(network)
    round.expect(scheduled == population.total_ops, "population ops not all scheduled")
    round.counts["workload.population.ops"] = scheduled


PROBES = (
    probe_cli_import,
    probe_engine,
    probe_checkpoint,
    probe_flood_cell,
    probe_event_core,
    probe_gossip,
    probe_channels,
    probe_population,
)


def probes(round: Round) -> None:
    """Run every probe group as one calibrated unit and one operation."""
    with round.rec.setup_region():
        import repro.engine  # noqa: F401  (paid here, not inside the first probe)
    for probe in PROBES:
        round.operation(probe.__name__, lambda: probe(round), lambda _: None)
        # What a probe derived itself (differences, the simulator's own
        # clocks, rates) is calibrated with the unit it was taken in.
        unit = round.rec.units[-1]
        scale = unit["wall_s"] / unit["raw_wall_s"]
        for key, seconds in round.raw_seconds.items():
            round.values[key] = seconds * scale
        for key, rate in round.raw_rates.items():
            round.values[key] = rate / scale
        round.raw_seconds.clear()
        round.raw_rates.clear()
