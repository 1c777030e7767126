"""Replicated-BlockTree replica and the protocol run harness.

The BlockTree of Section 4.2 "being now a shared object replicated at each
process", every protocol model follows the same skeleton:

* each replica ``i`` maintains a local copy ``bt_i`` of the BlockTree,
  exposes the BT-ADT ``read()`` operation on it, and records the
  replication events ``update_i``/``send_i``/``receive_i`` exactly as the
  paper defines them;
* blocks produced locally are validated through the (shared) token
  oracle, applied locally (``update`` + ``send``) and disseminated through
  a communication primitive (flooding or LRC);
* blocks received from the network are applied (``receive`` then
  ``update``) provided their parent is known, otherwise parked in an
  orphan buffer until the parent arrives — the standard reconstruction
  used by every real system modelled here.

Protocol-specific behaviour (who may create blocks and when, which
selection function picks the parent, how a block is committed) lives in
subclasses.  :func:`run_protocol` wires replicas, channels, the shared
oracle and a read workload together and returns everything the analyses
need (the recorded history, the replicas, the oracle, network counters).

:func:`run_protocol` is also the one signature that names a *harness*
option (how many replicas, for how long, over which channel / topology,
under which fault, client population, event core, checkpoint
cadence).  A system module only *declares* what Section 5 / Table 1 says
differs — a function of the system's own parameters returning a
:class:`System` — and :func:`system_runner` generates its public
``run_*`` callable, which hands every other keyword here.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.block import Block, BlockIdFactory, Blockchain
from repro.core.blocktree import BlockTree
from repro.core.history import History, HistoryRecorder
from repro.core.selection import LongestChain, SelectionFunction
from repro.network.broadcast import (
    BlockAnnouncement,
    FloodingBroadcast,
    LightReliableCommunication,
)
from repro.network.channels import ChannelModel, SynchronousChannel
from repro.network.event_core import Lane, pull_lanes
from repro.network.faults import FaultModel
from repro.network.process import Process
from repro.network.simulator import Message, Network, Simulator, core_for_run, slot_width_for
from repro.network.topology import Topology
from repro.oracle.theta import TokenOracle, ValidatedBlock
from repro.workload.population import ClientPopulation

__all__ = [
    "ReplicaConfig",
    "Mempool",
    "BlockchainReplica",
    "RunResult",
    "LiveRun",
    "process_ids",
    "run_protocol",
    "System",
    "system_runner",
]


@dataclass(frozen=True)
class ReplicaConfig:
    """Configuration shared by all replica types.

    Attributes
    ----------
    selection:
        The selection function ``f`` applied to the local tree.
    read_interval:
        Virtual-time interval between the periodic ``read()`` operations
        each replica performs (reads are the observable events the
        consistency criteria constrain, so every run needs a read
        workload).
    use_lrc:
        Disseminate blocks through :class:`LightReliableCommunication`
        (relay on first reception) rather than plain flooding.
    merit:
        The replica's merit ``α`` (hashing power / stake / permission
        weight), registered with the oracle's tape family.
    """

    selection: SelectionFunction = field(default_factory=LongestChain)
    read_interval: float = 5.0
    use_lrc: bool = True
    merit: float = 1.0


class Mempool:
    """FIFO of pending client operations (integer coin ids), kept in chunks.

    The population workload's sink (``Simulator.schedule_column``): every
    read or write — ``len``, truth, :meth:`take`, :meth:`append`,
    pickling — first :meth:`pull` s what its lanes hold due, as one int64
    chunk.  :meth:`take` pops from the front in O(taken), never
    O(pending), however long the backlog grows.
    """

    __slots__ = ("_chunks", "_offset", "_size", "_lanes")

    def __init__(self) -> None:
        #: int64 arrays (columns) and lists (runs of scalar appends), oldest first.
        self._chunks: Deque[Union[np.ndarray, List[int]]] = deque()
        self._offset = 0  # operations of ``_chunks[0]`` already taken
        self._size = 0
        self._lanes: List[Lane] = []

    def add_lane(self, lane: Lane) -> None:
        self._lanes.append(lane)

    def pull(self) -> None:
        """Queue the arrivals the lanes hold due (see :func:`pull_lanes`)."""
        if self._lanes:
            due = pull_lanes(self._lanes)
            if due is not None:
                self.extend_column(due)

    def __len__(self) -> int:  # also what truth tests call
        self.pull()
        return self._size

    def append(self, op: int) -> None:
        self.pull()
        chunks = self._chunks
        if chunks and type(chunks[-1]) is list:
            chunks[-1].append(op)
        else:
            chunks.append([op])
        self._size += 1

    def extend_column(self, ops: np.ndarray) -> None:
        """Queue an int64 array of operations as one chunk (kept, not copied)."""
        self._chunks.append(ops)
        self._size += len(ops)

    def take(self, limit: int) -> List[int]:
        """Pop up to ``limit`` operations, oldest first, as Python ints."""
        self.pull()
        taken: List[int] = []
        chunks = self._chunks
        while chunks and len(taken) < limit:
            chunk = chunks[0]
            start = self._offset
            stop = start + limit - len(taken)
            if stop >= len(chunk):
                chunks.popleft()
                self._offset = 0
            else:
                self._offset = stop
            part = chunk[start:stop]
            taken += part if type(part) is list else part.tolist()
        self._size -= len(taken)
        return taken

    # Pickles as one int64 buffer, whatever the chunking was; the lanes are
    # the event core's to pickle, and it hands them back on restore.

    def __getstate__(self):
        self.pull()
        chunks = list(self._chunks)
        if not chunks:
            return (np.empty(0, dtype=np.int64),)
        chunks[0] = chunks[0][self._offset :]
        return (np.concatenate(chunks, dtype=np.int64),)

    def __setstate__(self, state) -> None:
        self.__init__()
        self.extend_column(state[0])


class BlockchainReplica(Process):
    """A process maintaining a replicated BlockTree."""

    def __init__(
        self,
        pid: str,
        oracle: TokenOracle,
        config: Optional[ReplicaConfig] = None,
    ) -> None:
        super().__init__(pid)
        self.oracle = oracle
        self.config = config if config is not None else ReplicaConfig()
        self.tree = BlockTree()
        self.ids = BlockIdFactory(prefix=f"{pid}_b")
        self._orphans: Dict[str, List[Block]] = {}
        #: Client operations (integer coin ids) awaiting inclusion in a
        #: block, fed by :meth:`on_client_op` — or, for a stock replica,
        #: pulled from the population workload's lanes as its column sink
        #: (:meth:`client_op_sink`).
        self.mempool = Mempool()
        self.blocks_created = 0
        self.blocks_adopted = 0
        self.producing = True
        self._transport: Optional[FloodingBroadcast] = None

    # -- wiring --------------------------------------------------------------------

    def attach(self, network: Network) -> None:
        super().attach(network)
        transport_cls = (
            LightReliableCommunication if self.config.use_lrc else FloodingBroadcast
        )
        self._transport = transport_cls(self)
        self._transport.on_deliver(self._on_block_delivered)
        self.oracle.tapes.register_merit(self.pid, self.config.merit)

    @property
    def transport(self) -> FloodingBroadcast:
        assert self._transport is not None, "replica not attached to a network"
        return self._transport

    # -- BT-ADT operations ----------------------------------------------------------

    def local_read(self) -> Blockchain:
        """Perform (and record) a ``read()`` on the local replica."""
        token = self.recorder.invoke(self.pid, "read", None)
        chain = self.config.selection(self.tree)
        self.recorder.respond(token, chain)
        return chain

    def current_tip(self) -> Block:
        """Tip of the locally selected chain (no event recorded)."""
        return self.config.selection(self.tree).tip

    # -- block production -------------------------------------------------------------

    def make_candidate(self, payload: Tuple[object, ...] = ()) -> Block:
        """Create a candidate block extending the locally selected chain."""
        tip = self.current_tip()
        return self.ids.make_block(
            tip.block_id,
            payload=payload,
            creator=self.pid,
            round=int(self.now),
        )

    def commit_local_block(self, validated: ValidatedBlock, announce: bool = True) -> bool:
        """Apply a locally produced, oracle-validated block and disseminate it.

        Records the append operation (invocation + response), the
        ``update`` replication event and — when ``announce`` — the ``send``
        event through the transport.
        """
        block = validated.block
        token = self.recorder.invoke(self.pid, "append", block)
        applied = self._insert(block)
        self.recorder.respond(token, applied)
        if applied:
            self.blocks_created += 1
            self.recorder.update(self.pid, block.parent_id or "b0", block.block_id)
            if announce:
                self.transport.disseminate(
                    BlockAnnouncement(parent_id=block.parent_id or "b0", block=block)
                )
        return applied

    # -- block reception ----------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if message.kind == "block":
            self.transport.handle(message)
        else:
            self.on_protocol_message(message)

    def batch_dup_seen(self):
        """Expose the transport seen-set for the span-level dup skip.

        Only when both hooks on the duplicate path are the stock ones: a
        subclass overriding :meth:`on_message` (adversaries may act on
        duplicates) or a transport overriding ``handle`` keeps the
        ``None`` default, so every delivery still dispatches.
        """
        transport = self._transport
        if (
            transport is None
            or type(self).on_message is not BlockchainReplica.on_message
        ):
            return None
        handle = type(transport).handle
        if (
            handle is not FloodingBroadcast.handle
            and handle is not LightReliableCommunication.handle
        ):
            return None
        return transport._delivered

    def on_protocol_message(self, message: Message) -> None:
        """Hook for protocol-specific (non-block) messages."""

    def _on_block_delivered(self, announcement: BlockAnnouncement, sender: str) -> None:
        block = announcement.block
        if sender == self.pid or block.creator == self.pid:
            # Our own dissemination echo; the local update already happened.
            return
        self.adopt_block(block)

    def adopt_block(self, block: Block) -> bool:
        """Apply a remotely produced block (the ``update_j`` of the paper)."""
        if block.block_id in self.tree:
            return False
        if block.parent_id is not None and block.parent_id not in self.tree:
            self._orphans.setdefault(block.parent_id, []).append(block)
            return False
        applied = self._insert(block)
        if applied:
            self.blocks_adopted += 1
            self.recorder.update(self.pid, block.parent_id or "b0", block.block_id)
            self._flush_orphans(block.block_id)
        return applied

    def _insert(self, block: Block) -> bool:
        if block.block_id in self.tree:
            return False
        if block.parent_id is not None and block.parent_id not in self.tree:
            return False
        self.tree.append(block)
        return True

    def _flush_orphans(self, parent_id: str) -> None:
        pending = self._orphans.pop(parent_id, [])
        for orphan in pending:
            self.adopt_block(orphan)

    # -- client workload ----------------------------------------------------------------

    def on_client_op(self, op: int) -> None:
        """Receive one client operation (called straight off the calendar).

        Deliberately minimal — with population-scale workloads this is
        among the hottest callbacks in a run.
        """
        self.mempool.append(op)

    def client_op_sink(self) -> Optional[Mempool]:
        """The mempool, as long as :meth:`on_client_op` is the stock one.

        A subclass overriding :meth:`on_client_op` (to log, filter or
        react to arrivals) keeps the ``None`` default, so it still sees
        every operation individually at its own timestamp.
        """
        if type(self).on_client_op is BlockchainReplica.on_client_op:
            return self.mempool
        return None

    def drain_mempool(self, limit: int) -> Tuple[str, ...]:
        """Pop up to ``limit`` pending operations as a block payload.

        Coin ids are rendered in the ``coin<n>`` form the validity
        predicates expect; operations are included first-come-first-served.
        """
        return tuple(f"coin{op}" for op in self.mempool.take(limit))

    # -- read workload ------------------------------------------------------------------

    def on_start(self) -> None:
        self._schedule_next_read()

    def stop_production(self) -> None:
        """Stop creating blocks and issuing periodic reads.

        The run harness calls this at the end of the configured duration so
        that the remaining in-flight messages can drain; without it the
        self-rescheduling timers would keep the event queue non-empty
        forever and the replicas' final views could not converge.
        """
        self.producing = False

    def _schedule_next_read(self) -> None:
        if self.config.read_interval <= 0:
            return
        self.schedule(self.config.read_interval, self._periodic_read)

    def _periodic_read(self) -> None:
        if not self.producing:
            return
        self.local_read()
        self._schedule_next_read()


@dataclass
class RunResult:
    """Everything a protocol run produces, unanalysed (``analyse_run`` reads it)."""

    name: str
    history: History
    replicas: Dict[str, BlockchainReplica]
    oracle: TokenOracle
    network: Network
    duration: float
    #: The vectorized client population that fed the run, when
    #: :func:`run_protocol` scheduled one (``clients=...``); carries the
    #: generation timings ``RunResult.timings`` records.
    population: Optional[ClientPopulation] = field(default=None, repr=False)
    #: The registered fault model the run injected (``fault=...``), if any.
    fault: Optional[FaultModel] = field(default=None, repr=False)

    @property
    def correct_replicas(self) -> Tuple[str, ...]:
        return tuple(pid for pid, r in self.replicas.items() if r.is_correct)

    def final_chains(self) -> Dict[str, Blockchain]:
        """The chain each replica would return from a final read."""
        return {
            pid: replica.config.selection(replica.tree)
            for pid, replica in self.replicas.items()
        }

    def block_creators(self) -> Dict[str, str]:
        """Map block id → creator process (for the update-agreement checker)."""
        creators: Dict[str, str] = {}
        for replica in self.replicas.values():
            for block in replica.tree:
                if block.creator is not None:
                    creators.setdefault(block.block_id, block.creator)
        return creators


class LiveRun:
    """A staged, checkpointable protocol run.

    :func:`run_protocol` stages every live object of an in-flight run
    (simulator, network, replicas, recorder, fault and its schedules —
    everything except the consumed ``replica_factory``) into
    one of these and then drives :meth:`finish`, which advances a
    ``phase`` cursor::

        "main"  — run the clock to ``duration``, then stop block
                  production (exactly once)
        "drain" — quiesce, then a final ``local_read()`` at every
                  alive replica
        "done"  — result available (the finished history, unanalysed)

    Checkpoint snapshots pickle the whole ``LiveRun`` between event
    chunks; restoring one re-enters :meth:`finish` and the continued
    history is byte-identical to the uninterrupted run.  The checkpoint
    sink is passed per :meth:`finish` call — never stored — so sinks
    need not be picklable.
    """

    def __init__(
        self,
        *,
        name: str,
        simulator: Simulator,
        recorder: HistoryRecorder,
        network: Network,
        replicas: Dict[str, BlockchainReplica],
        oracle: TokenOracle,
        duration: float,
        max_events: int,
        population: Optional[ClientPopulation],
        fault: Optional[FaultModel],
    ) -> None:
        self.name = name
        self.simulator = simulator
        self.recorder = recorder
        self.network = network
        self.replicas = replicas
        self.oracle = oracle
        self.duration = duration
        self.max_events = max_events
        self.population = population
        self.fault = fault
        self.phase = "main"

    @property
    def event_count(self) -> int:
        """Events processed so far (checkpoint headers record this)."""
        return self.simulator.events_processed

    def finish(
        self,
        *,
        checkpoint_every: Optional[int] = None,
        checkpoint_sink: Optional[Callable[["LiveRun"], None]] = None,
    ) -> RunResult:
        """Advance through the remaining phases and return the result.

        With ``checkpoint_every`` set, the event-processing phases drain
        in chunks of at most that many events and ``checkpoint_sink``
        receives this ``LiveRun`` after every nonzero chunk.
        """
        sink: Optional[Callable[[Simulator], None]] = None
        if checkpoint_sink is not None:
            def sink(_simulator: Simulator) -> None:
                checkpoint_sink(self)
        if self.phase == "main":
            self.network.run(
                until=self.duration,
                max_events=self.max_events,
                checkpoint_every=checkpoint_every,
                checkpoint_sink=sink,
            )
            # Production stops exactly once, at the main → drain
            # transition; snapshots taken mid-drain already carry the
            # stopped producers inside replica state.
            for replica in self.replicas.values():
                replica.stop_production()
            self.phase = "drain"
        if self.phase == "drain":
            self.network.run(
                max_events=self.max_events,
                checkpoint_every=checkpoint_every,
                checkpoint_sink=sink,
            )
            for replica in self.replicas.values():
                if replica.alive:
                    replica.local_read()
            self.phase = "done"
        return self.result()

    def result(self) -> RunResult:
        """The finished run's :class:`RunResult` (phase must be ``done``)."""
        if self.phase != "done":
            raise RuntimeError(f"run has not finished (phase={self.phase!r})")
        return RunResult(
            name=self.name,
            history=self.recorder.history(),
            replicas=self.replicas,
            oracle=self.oracle,
            network=self.network,
            duration=self.duration,
            population=self.population,
            fault=self.fault,
        )


def process_ids(n: int) -> Tuple[str, ...]:
    """The replica ids of a run of ``n`` processes, in registration order."""
    return tuple(f"p{index}" for index in range(n))


def run_protocol(
    name: str,
    replica_factory: Callable[[str, TokenOracle, Network], BlockchainReplica],
    oracle: TokenOracle,
    *,
    n: int = 8,
    duration: float = 200.0,
    channel: Optional[ChannelModel] = None,
    max_events: int = 2_000_000,
    topology: Optional[Topology] = None,
    core: Optional[str] = None,
    clients: Optional[int] = None,
    client_rate: float = 0.5,
    client_seed: int = 0,
    fault: Optional[FaultModel] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_sink: Optional[Callable[[LiveRun], None]] = None,
) -> RunResult:
    """Run a protocol model and collect its history.

    After ``duration`` block production stops and the already-queued
    deliveries are processed until the network quiesces — what lets
    correct replicas converge under reliable communication, and
    deliberately *not* enough when messages were dropped (the Theorem
    4.6/4.7 experiment).  Then every alive replica issues one last
    ``read()``, so the "limit views" the eventual-prefix interpretation
    uses are part of the history.

    Parameters
    ----------
    name:
        Label for reports (e.g. ``"bitcoin"``).
    replica_factory:
        Called once per process id to build (but not register) the replica.
    oracle:
        The shared token oracle; its tape family is also the merit registry.
    n, duration, channel:
        Number of replicas, virtual run length, channel model (default: a
        synchronous channel with δ = 1).
    topology:
        Dissemination topology deciding who hears each broadcast (see
        :mod:`repro.network.topology`).  ``None`` keeps the historical
        full-mesh semantics byte-identically; gossip / committee /
        sharded topologies restrict each sender's fan-out.
    core:
        Event store, ``"array"`` (calendar queue, its bucket width
        :func:`~repro.network.simulator.slot_width_for` the channel) or
        ``"heap"``; ``None`` lets
        :func:`~repro.network.simulator.core_for_run` pick from ``n`` and
        ``clients``.  Both record byte-identical histories.
    clients, client_rate, client_seed:
        When ``clients`` is set, a :class:`ClientPopulation` of that size
        is generated column-wise (``client_rate`` operations per client
        per time unit, seeded by ``client_seed``) and bulk-inserted into
        the calendar before the run; replicas accumulate the arrivals in
        their mempools and include them in block payloads.  The
        operations scheduled are added to ``max_events`` (a bound on what
        the *protocol* may do), and the sum rides the :class:`LiveRun`.
    fault:
        Optional registered :class:`~repro.network.faults.FaultModel`
        injecting scheduled adversarial events (crashes, silent members,
        churn, healing partitions, eclipse windows) through the
        simulator; it rides the result (``result.fault``) for
        :meth:`~repro.core.degradation.DegradationMonitor.of_run`.
        ``fault=None`` keeps the start-up sequence byte-identical to the
        pre-fault harness.
    checkpoint_every, checkpoint_sink:
        When set, the run drains in chunks of at most ``checkpoint_every``
        events and ``checkpoint_sink`` receives the staged :class:`LiveRun`
        after every nonzero chunk (typically a
        :class:`~repro.engine.checkpoint.CheckpointWriter` bound method).
        Chunking never perturbs event order, so the recorded history is
        byte-identical either way.
    """
    if not 0 <= duration < math.inf:
        raise ValueError(f"duration must be >= 0 and finite, got {duration!r}")
    if channel is None:
        channel = SynchronousChannel(delta=1.0, seed=7)
    simulator = Simulator(
        core=core if core is not None else core_for_run(n, clients),
        slot_width=slot_width_for(channel),
    )
    recorder = HistoryRecorder(simulator)
    network = Network(simulator, channel, recorder=recorder, topology=topology)
    replicas: Dict[str, BlockchainReplica] = {}
    for pid in process_ids(n):
        replica = replica_factory(pid, oracle, network)
        network.register(replica)
        replicas[pid] = replica

    if fault is None:
        network.start()
    else:
        fault.install(network)
        # Start processes one by one, giving the fault its per-process
        # hook right after each ``on_start()``: a crash timer enters the
        # queue right behind the process's own start-up timers (the
        # insertion point tests/network/test_fault_models.py pins).
        for replica in replicas.values():
            replica.on_start()
            fault.after_process_start(replica)
        fault.after_start(network)
    population: Optional[ClientPopulation] = None
    if clients:
        population = ClientPopulation(
            clients=clients,
            rate=client_rate,
            duration=duration,
            processes=tuple(replicas),
            seed=client_seed,
        )
        population.schedule_on(network)

    live = LiveRun(
        name=name,
        simulator=simulator,
        recorder=recorder,
        network=network,
        replicas=replicas,
        oracle=oracle,
        duration=duration,
        # ``max_events`` guards against runaway *protocols*; the client
        # operations the harness itself scheduled are not charged to it.
        max_events=max_events + (population.scheduled_ops if population is not None else 0),
        population=population,
        fault=fault,
    )
    return live.finish(
        checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink
    )


@dataclass(frozen=True)
class System:
    """What Section 5 / Table 1 says differs from one system to the next.

    The value a *declaration* returns: a function
    ``declare(n, *, <the system's own parameters>)`` — ``n`` being the
    process count the harness will build, its default the system's own —
    names the run, builds the shared oracle (Θ_P or Θ_F,k=1, seeded), and
    says how one replica is made (selection function, merit, commit rule).
    """

    name: str
    oracle: TokenOracle
    replica_factory: Callable[[str, TokenOracle, Network], BlockchainReplica]
    #: The system's own channel / topology, used when the caller names
    #: none (``None`` → :func:`run_protocol`'s default).
    channel: Optional[ChannelModel] = None
    topology: Optional[Topology] = None


def system_runner(declare: Callable[..., System]) -> Callable[..., RunResult]:
    """Generate a system's public ``run_*`` callable from its declaration.

    The callable takes the declaration's parameters plus every keyword
    option of :func:`run_protocol` (and carries that combined
    ``__signature__``, which is what the protocol registry validates
    specs against).  It calls ``declare`` with the former and hands the
    latter to :func:`run_protocol` — the system's own channel / topology
    standing in where the caller named none, the client population
    seeded with the run's ``seed``.  A declaration that names a harness
    option itself is refused here (duplicate parameter).
    ``run.declaration`` is the undecorated function, for systems
    declared in terms of another.
    """
    declared = inspect.signature(declare)
    options = [
        parameter
        for name, parameter in inspect.signature(run_protocol).parameters.items()
        if parameter.kind is parameter.KEYWORD_ONLY
        and name not in ("n", "client_seed")
    ]

    @functools.wraps(declare)
    def run(*args, **kwargs) -> RunResult:
        own = {key: kwargs.pop(key) for key in tuple(kwargs) if key in declared.parameters}
        bound = declared.bind(*args, **own)
        bound.apply_defaults()
        system = declare(*bound.args, **bound.kwargs)
        if kwargs.get("channel") is None:
            kwargs["channel"] = system.channel
        if kwargs.get("topology") is None:
            kwargs["topology"] = system.topology
        return run_protocol(
            system.name,
            system.replica_factory,
            system.oracle,
            n=bound.arguments["n"],
            client_seed=bound.arguments["seed"],
            **kwargs,
        )

    run.__signature__ = declared.replace(
        parameters=[*declared.parameters.values(), *options],
        return_annotation=RunResult,
    )
    run.declaration = declare
    return run
