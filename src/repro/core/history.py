"""Concurrent histories (Definition 2.4) and their event vocabulary.

A concurrent history is ``H = ⟨Σ, E, Λ, ↦, ≺, ↗⟩``:

* ``E`` — a countable set of events: operation *invocations* and
  *responses* and, for the message-passing analysis of Section 4, the
  ``send``, ``receive`` and ``update`` events of the replicated object;
* ``Λ : E -> Σ`` — the labelling of events by operations;
* ``↦`` — the *process order*: events of the same process, in program
  text order;
* ``≺`` — the *operation order*: an invocation precedes its own response,
  and a response at real time ``t`` precedes any invocation at ``t' > t``;
* ``↗`` — the *program order*: the union of the two.

Events are recorded with a globally unique, strictly increasing logical
timestamp (the recorder's clock).  That timestamp induces a total order
that *refines* ``↗`` — whenever ``e ↗ e'`` then ``time(e) < time(e')`` —
which is what the consistency checkers rely on: all the paper's criteria
quantify over events ordered by ``↗``, and evaluating them over the finer
total order is equivalent because the recorded executions come from a
single run (the paper's fictional global clock).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.block import Blockchain

__all__ = [
    "EventKind",
    "Event",
    "OperationToken",
    "History",
    "HistoryRecorder",
]


class EventKind(enum.Enum):
    """The kinds of events a history may contain."""

    INVOCATION = "inv"
    RESPONSE = "rsp"
    SEND = "send"
    RECEIVE = "receive"
    UPDATE = "update"


@dataclass(frozen=True, slots=True)
class Event:
    """A single event of a concurrent history.

    Attributes
    ----------
    eid:
        Globally unique event identifier (also its logical timestamp; the
        recorder assigns identifiers from a strictly increasing clock).
    kind:
        Invocation, response, or one of the replication events.
    process:
        Identifier of the process at which the event occurs.
    operation:
        The operation name (``"append"``, ``"read"``, ``"getToken"``,
        ``"consumeToken"``, or the replication pseudo-operations
        ``"send"``/``"receive"``/``"update"``).
    argument:
        The operation argument (the block being appended, the pair
        ``(parent_id, block_id)`` for replication events, ...).
    output:
        For responses, the returned value (``bool`` for appends, a
        :class:`~repro.core.block.Blockchain` for reads).
    op_id:
        Identifier shared by an invocation and its matching response.
    seq:
        Per-process sequence number, defining the process order ``↦``.
    """

    eid: int
    kind: EventKind
    process: str
    operation: str
    argument: Any = None
    output: Any = None
    op_id: int = -1
    seq: int = -1

    @property
    def time(self) -> int:
        """Logical timestamp (alias of :attr:`eid`)."""
        return self.eid

    @property
    def is_read_response(self) -> bool:
        return self.kind is EventKind.RESPONSE and self.operation == "read"

    @property
    def is_append_invocation(self) -> bool:
        return self.kind is EventKind.INVOCATION and self.operation == "append"

    @property
    def is_append_response(self) -> bool:
        return self.kind is EventKind.RESPONSE and self.operation == "append"

    @property
    def chain(self) -> Blockchain:
        """The blockchain returned by a read response.

        Raises
        ------
        TypeError
            if the event is not a read response carrying a chain.
        """
        if not self.is_read_response or not isinstance(self.output, Blockchain):
            raise TypeError(f"event {self} carries no blockchain output")
        return self.output

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        arg = "" if self.argument is None else str(self.argument)
        out = f" -> {self.output}" if self.kind is EventKind.RESPONSE else ""
        return f"[{self.eid}] {self.process}.{self.operation}({arg}).{self.kind.value}{out}"


@dataclass(frozen=True, slots=True)
class OperationToken:
    """Handle returned by :meth:`HistoryRecorder.invoke`, consumed by ``respond``."""

    op_id: int
    process: str
    operation: str
    argument: Any
    invocation_eid: int


class History:
    """An immutable-ish concurrent history: a sequence of events plus orders.

    The event list is kept in timestamp order.  All accessors return
    tuples; the mutating entry point is the :class:`HistoryRecorder`.
    """

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._events: List[Event] = sorted(events, key=lambda e: e.eid)
        self._by_process: Dict[str, List[Event]] = {}
        for event in self._events:
            self._by_process.setdefault(event.process, []).append(event)
        # Memo for the filtered event selectors below.  A History never
        # mutates after construction, but one report invokes the selectors
        # many times (every consistency checker starts from
        # ``read_responses()``), so the filtered tuples are computed once.
        self._selector_memo: Dict[Tuple[str, Optional[str]], Tuple[Event, ...]] = {}

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    @property
    def events(self) -> Tuple[Event, ...]:
        return tuple(self._events)

    @property
    def processes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._by_process))

    def events_of(self, process: str) -> Tuple[Event, ...]:
        """All events of ``process`` in process order ``↦``."""
        return tuple(self._by_process.get(process, ()))

    # -- event selectors -------------------------------------------------------

    def read_responses(self, process: Optional[str] = None) -> Tuple[Event, ...]:
        """All ``read`` response events (optionally of a single process).

        Cached per process argument: the consistency checkers call this
        several times per report on the same immutable history.
        """
        key = ("read_responses", process)
        cached = self._selector_memo.get(key)
        if cached is None:
            pool = self._events if process is None else self._by_process.get(process, [])
            cached = tuple(e for e in pool if e.is_read_response)
            self._selector_memo[key] = cached
        return cached

    def read_invocations(self, process: Optional[str] = None) -> Tuple[Event, ...]:
        pool = self._events if process is None else self._by_process.get(process, [])
        return tuple(
            e for e in pool if e.kind is EventKind.INVOCATION and e.operation == "read"
        )

    def append_invocations(self, process: Optional[str] = None) -> Tuple[Event, ...]:
        """All ``append`` invocation events (cached, like ``read_responses``)."""
        key = ("append_invocations", process)
        cached = self._selector_memo.get(key)
        if cached is None:
            pool = self._events if process is None else self._by_process.get(process, [])
            cached = tuple(e for e in pool if e.is_append_invocation)
            self._selector_memo[key] = cached
        return cached

    def append_responses(
        self, process: Optional[str] = None, successful_only: bool = False
    ) -> Tuple[Event, ...]:
        pool = self._events if process is None else self._by_process.get(process, [])
        events = (e for e in pool if e.is_append_response)
        if successful_only:
            events = (e for e in events if bool(e.output))
        return tuple(events)

    def replication_events(self, kind: EventKind) -> Tuple[Event, ...]:
        """All ``send``/``receive``/``update`` events of the given kind."""
        if kind not in (EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE):
            raise ValueError(f"{kind} is not a replication event kind")
        return tuple(e for e in self._events if e.kind is kind)

    def matching_response(self, invocation: Event) -> Optional[Event]:
        """The response event carrying the same ``op_id``, if it exists."""
        if invocation.kind is not EventKind.INVOCATION:
            raise ValueError("matching_response expects an invocation event")
        for event in self._by_process.get(invocation.process, ()):  # same process
            if event.kind is EventKind.RESPONSE and event.op_id == invocation.op_id:
                return event
        return None

    def matching_invocation(self, response: Event) -> Optional[Event]:
        """The invocation event carrying the same ``op_id``, if it exists."""
        if response.kind is not EventKind.RESPONSE:
            raise ValueError("matching_invocation expects a response event")
        for event in self._by_process.get(response.process, ()):
            if event.kind is EventKind.INVOCATION and event.op_id == response.op_id:
                return event
        return None

    # -- the three orders of Definition 2.4 ------------------------------------

    def process_order(self, e: Event, e_prime: Event) -> bool:
        """``e ↦ e'``: same process and ``e`` occurs earlier."""
        return e.process == e_prime.process and e.eid < e_prime.eid

    def operation_order(self, e: Event, e_prime: Event) -> bool:
        """``e ≺ e'`` per Definition 2.4.

        Either ``e`` is an invocation and ``e'`` the response of the same
        operation, or ``e`` is a response that occurs (in real time) before
        the invocation ``e'`` of another operation.
        """
        if (
            e.kind is EventKind.INVOCATION
            and e_prime.kind is EventKind.RESPONSE
            and e.op_id == e_prime.op_id
            and e.process == e_prime.process
        ):
            return True
        if (
            e.kind is EventKind.RESPONSE
            and e_prime.kind is EventKind.INVOCATION
            and e.eid < e_prime.eid
        ):
            return True
        return False

    def program_order(self, e: Event, e_prime: Event) -> bool:
        """``e ↗ e'``: the union of process order and operation order."""
        if e.eid == e_prime.eid:
            return False
        return self.process_order(e, e_prime) or self.operation_order(e, e_prime)

    def precedes(self, e: Event, e_prime: Event) -> bool:
        """Total-order refinement of ``↗`` used by the checkers.

        The recorder's clock totally orders events and refines ``↗``
        (see the module docstring), so ``time(e) < time(e')`` is the
        practical "``e`` before ``e'``" test for recorded executions.
        """
        return e.eid < e_prime.eid

    # -- composition ------------------------------------------------------------

    def restricted_to(self, processes: Iterable[str]) -> "History":
        """Sub-history containing only events of the given processes."""
        keep = set(processes)
        return History(e for e in self._events if e.process in keep)

    def correct_restriction(self, correct_processes: Iterable[str]) -> "History":
        """The event restriction of Definition 4.2 (Byzantine failure model).

        Keeps (i) the ``read`` invocation/response events of the *correct*
        processes, (ii) **all** ``append`` invocation events (a valid block
        proposed by a faulty process still counts — that is the paper's
        Validity convention), and (iii) the send/receive/update replication
        events of the correct processes.  This is the history against which
        the consistency criteria are evaluated when some processes are
        crashed or Byzantine.
        """
        keep = set(correct_processes)

        def admitted(event: Event) -> bool:
            if event.operation == "append":
                return True
            return event.process in keep

        return History(e for e in self._events if admitted(e))

    def without_failed_appends(self) -> "History":
        """Purge unsuccessful append response events (and their invocations).

        Mirrors the paper's convention before the hierarchy comparison:
        "let us consider only the set of histories purged from the
        unsuccessful append() response events".
        """
        failed_ops = {
            (e.process, e.op_id)
            for e in self._events
            if e.is_append_response and not bool(e.output)
        }
        return History(
            e
            for e in self._events
            if not (
                e.operation == "append" and (e.process, e.op_id) in failed_ops
            )
        )

    def merge(self, other: "History") -> "History":
        """Union of two histories (event ids must not collide)."""
        own = {e.eid for e in self._events}
        clash = own.intersection(e.eid for e in other._events)
        if clash:
            raise ValueError(f"cannot merge histories with colliding event ids {sorted(clash)[:5]}")
        return History(list(self._events) + list(other._events))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"History(events={len(self._events)}, processes={len(self._by_process)}, "
            f"reads={len(self.read_responses())}, appends={len(self.append_invocations())})"
        )


class HistoryRecorder:
    """Builds a :class:`History` from live operation calls.

    A single recorder is shared by every process of an execution (the
    sequential ADT object, scheduler threads, or simulator replicas); it
    owns the global logical clock that timestamps events.

    The recorder is intentionally forgiving about interleavings: callers
    invoke, possibly interleave with other processes, then respond.  For
    replication events (:meth:`send`, :meth:`receive`, :meth:`update`) a
    single event is recorded (the paper treats them as atomic).
    """

    def __init__(self) -> None:
        self._clock = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._seq: Dict[str, int] = {}
        self._events: List[Event] = []
        # Pre-bound append: the recorder sits on the simulation hot path
        # (every replication event of every delivery lands here), so the
        # fast path below avoids re-resolving the bound method per event.
        self._append: Callable[[Event], None] = self._events.append
        self._listeners: List[Callable[[Event], None]] = []

    # -- streaming subscribers ---------------------------------------------------

    def subscribe(self, listener: Callable[[Event], None]) -> Callable[[Event], None]:
        """Register ``listener`` to be called with every recorded event.

        This is the hook the streaming analyses use (e.g.
        :class:`repro.core.consistency_index.ConsistencyMonitor`): events
        are delivered in recording order, synchronously, right after they
        are appended to the event list.  Returns the listener for
        decorator-style use.
        """
        self._listeners.append(listener)
        return listener

    def _record(self, event: Event) -> Event:
        self._append(event)
        listeners = self._listeners
        if listeners:
            for listener in listeners:
                listener(event)
        return event

    # -- clocks ----------------------------------------------------------------

    def _next_time(self) -> int:
        return next(self._clock)

    def _next_seq(self, process: str) -> int:
        seq = self._seq.get(process, 0) + 1
        self._seq[process] = seq
        return seq

    # -- operation events --------------------------------------------------------

    def invoke(self, process: str, operation: str, argument: Any = None) -> OperationToken:
        """Record an invocation event and return its token."""
        op_id = next(self._op_ids)
        eid = self._next_time()
        event = Event(
            eid=eid,
            kind=EventKind.INVOCATION,
            process=process,
            operation=operation,
            argument=argument,
            op_id=op_id,
            seq=self._next_seq(process),
        )
        self._record(event)
        return OperationToken(
            op_id=op_id,
            process=process,
            operation=operation,
            argument=argument,
            invocation_eid=eid,
        )

    def respond(self, token: OperationToken, output: Any = None) -> Event:
        """Record the response event matching ``token``."""
        event = Event(
            eid=self._next_time(),
            kind=EventKind.RESPONSE,
            process=token.process,
            operation=token.operation,
            argument=token.argument,
            output=output,
            op_id=token.op_id,
            seq=self._next_seq(token.process),
        )
        return self._record(event)

    def complete(self, process: str, operation: str, argument: Any, output: Any) -> Event:
        """Record an invocation immediately followed by its response."""
        token = self.invoke(process, operation, argument)
        return self.respond(token, output)

    # -- replication events (Section 4.2) ----------------------------------------

    def send(self, process: str, parent_id: str, block_id: str) -> Event:
        """Record ``send_i(b_g, b)``."""
        return self._replication(EventKind.SEND, process, parent_id, block_id)

    def receive(self, process: str, parent_id: str, block_id: str) -> Event:
        """Record ``receive_i(b_g, b)``."""
        return self._replication(EventKind.RECEIVE, process, parent_id, block_id)

    def update(self, process: str, parent_id: str, block_id: str) -> Event:
        """Record ``update_i(b_g, b)``."""
        return self._replication(EventKind.UPDATE, process, parent_id, block_id)

    def _replication(
        self, kind: EventKind, process: str, parent_id: str, block_id: str
    ) -> Event:
        # The dominant recorder call in block workloads: ``_next_seq``,
        # ``_next_time`` and ``_record`` written out inline.  The generic
        # spelling is the test-side oracle
        # ``tests/network/reference_plane.py::ReferenceHistoryRecorder``.
        seqs = self._seq
        seq = seqs.get(process, 0) + 1
        seqs[process] = seq
        event = Event(
            eid=next(self._clock),
            kind=kind,
            process=process,
            operation=kind.value,
            argument=(parent_id, block_id),
            seq=seq,
        )
        self._append(event)
        for listener in self._listeners:
            listener(event)
        return event

    # -- extraction ----------------------------------------------------------------

    def history(self) -> History:
        """Snapshot the recorded events as a :class:`History`."""
        return History(self._events)

    def __len__(self) -> int:
        return len(self._events)
