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
that *refines* ``↗`` — whenever ``e ↗ e'`` then ``e.eid < e'.eid`` —
which is what the consistency checkers rely on: all the paper's criteria
quantify over events ordered by ``↗``, and evaluating them over the finer
total order is equivalent because the recorded executions come from a
single run (the paper's fictional global clock).

A history is columns: the recorder writes one int64 row per event (kind,
operation, process, ``op_id``, ``seq``; the eid is the position), the
virtual time it was recorded at and one object (argument or output), and
builds no :class:`Event`.  A history's events are built on first use,
once.  The analyses read the columns:
the positions of the read responses and append invocations, noted when
the history is built, and the values there (see
:meth:`repro.core.consistency_index.ConsistencyIndex.ingest`).
"""

from __future__ import annotations

import enum
import itertools
from array import array
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

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
    def is_read_response(self) -> bool:
        return self.kind is EventKind.RESPONSE and self.operation == "read"

    @property
    def is_append_invocation(self) -> bool:
        return self.kind is EventKind.INVOCATION and self.operation == "append"

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


_eid = attrgetter("eid")

#: The clock of a recorder with no simulator: every event at time 0.0.
_STOPPED = SimpleNamespace(now=0.0)

#: Event kinds by code, and the names every name table starts with (a read
#: is operation 0 and an append operation 1 in every history).
_KINDS = tuple(EventKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_INVOCATION, _RESPONSE, _SEND, _RECEIVE, _UPDATE = range(len(_KINDS))
_NAMES = ("read", "append", "send", "receive", "update")
_READ, _APPEND = 0, 1


class History:
    """An immutable-ish concurrent history: a sequence of events.

    The events are kept in timestamp order as columns: an int64 table with
    one row per column (eid, kind code, operation and process codes into
    one table of names, ``op_id``, ``seq``), a float64 column of virtual
    times (``_times``: the recorder's clock, 0.0 for a history built from
    events) and one object column (a response's output, any other
    event's argument).  Accessors returning
    events build each on first use, once; a history built from events
    keeps those.  All accessors return tuples; the mutating entry point is
    the :class:`HistoryRecorder`.
    """

    def __init__(self, events: Iterable[Event] = ()) -> None:
        ordered = sorted(events, key=_eid)
        codes = {name: code for code, name in enumerate(_NAMES)}
        rows = [
            (e.eid, _KIND_CODE[e.kind], codes.setdefault(e.operation, len(codes)),
             codes.setdefault(e.process, len(codes)), e.op_id, e.seq)
            for e in ordered
        ]  # fmt: skip
        values = [e.output if e.kind is EventKind.RESPONSE else e.argument for e in ordered]
        columns = np.array(rows, dtype=np.int64).reshape(-1, 6).T
        self._adopt(columns, np.zeros(len(rows)), values, list(codes), list(ordered))

    def _adopt(
        self,
        columns: np.ndarray,
        times: np.ndarray,
        values: List[Any],
        names: List[str],
        built: List[Optional[Event]],
    ) -> None:
        self._columns, self._times, self._values, self._names = columns, times, values, names
        self._eids, kinds, self._ops, self._procs, self._op_ids, _ = columns
        responses = kinds == _RESPONSE
        self._reads = np.flatnonzero(responses & (self._ops == _READ))
        self._appends = np.flatnonzero((kinds == _INVOCATION) & (self._ops == _APPEND))
        self._append_responses = np.flatnonzero(responses & (self._ops == _APPEND))
        # The events built so far, by position (None: not yet), and all of
        # them as one tuple once :attr:`events` was asked for.
        self._built = built
        self._events: Optional[Tuple[Event, ...]] = None
        # The selected tuples, per (selector, process): one report asks
        # for them many times, and a selector returns the same tuple
        # object on every call.
        self._selected: Dict[Tuple[str, Optional[str]], Tuple[Event, ...]] = {}

    def _kept(self, keep: np.ndarray) -> "History":
        """The sub-history of the rows ``keep`` marks (with their times and the
        events built so far)."""
        history, mask = History.__new__(History), keep.tolist()
        values, built = list(compress(self._values, mask)), list(compress(self._built, mask))
        history._adopt(self._columns[:, keep], self._times[keep], values, self._names, built)
        return history

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, index: int) -> Event:
        return self.events[index]

    @property
    def events(self) -> Tuple[Event, ...]:
        """Every event, in eid order (built from the columns on the first ask)."""
        if self._events is None:
            self._events = tuple(self._events_at(range(len(self))))
        return self._events

    def _events_at(self, positions: Iterable[int]) -> List[Event]:
        """The events at ``positions``, each built on its first ask."""
        built = self._built
        positions = list(positions)
        missing = [position for position in positions if built[position] is None]
        if missing:
            rows = np.array(missing, dtype=np.int64)
            columns = [column.tolist() for column in self._columns[:, rows]]
            # A response's argument is its invocation's.
            kinds, op_ids, values = self._columns[1], self._op_ids, self._values
            asked = np.isin(op_ids, op_ids[rows][kinds[rows] == _RESPONSE]) & (kinds == _INVOCATION)
            invocations = [at for at in np.flatnonzero(asked).tolist() if values[at] is not None]
            arguments = {int(op_ids[at]): values[at] for at in invocations}
            names = self._names
            for position, eid, kind, op, process, op_id, seq in zip(missing, *columns):
                # A response's value is its output; any other event's, its argument.
                value = values[position]
                argument, output = (
                    (arguments.get(op_id), value) if kind == _RESPONSE else (value, None)
                )
                built[position] = Event(
                    eid, _KINDS[kind], names[process], names[op], argument, output, op_id, seq
                )
        return [built[position] for position in positions]  # type: ignore[misc]

    @property
    def processes(self) -> Tuple[str, ...]:
        names = self._names
        return tuple(sorted(names[code] for code in np.unique(self._procs).tolist()))

    # -- event selectors -------------------------------------------------------

    def _select(
        self, name: str, positions: np.ndarray, process: Optional[str]
    ) -> Tuple[Event, ...]:
        key = (name, process)
        selected = self._selected.get(key)
        if selected is None:
            if process is None:
                selected = tuple(self._events_at(positions.tolist()))
            else:
                selected = tuple(
                    e for e in self._select(name, positions, None) if e.process == process
                )
            self._selected[key] = selected
        return selected

    def read_responses(self, process: Optional[str] = None) -> Tuple[Event, ...]:
        """All ``read`` response events (optionally of a single process)."""
        return self._select("read_responses", self._reads, process)

    def append_invocations(self, process: Optional[str] = None) -> Tuple[Event, ...]:
        """All ``append`` invocation events (optionally of a single process)."""
        return self._select("append_invocations", self._appends, process)

    def replication_events(self, kind: EventKind) -> Tuple[Event, ...]:
        """All ``send``/``receive``/``update`` events of the given kind."""
        if kind not in (EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE):
            raise ValueError(f"{kind} is not a replication event kind")
        return tuple(e for e in self.events if e.kind is kind)
    # -- composition ------------------------------------------------------------

    def _codes(self, processes: Iterable[str]) -> List[int]:
        keep = set(processes)
        return [code for code, name in enumerate(self._names) if name in keep]

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
        correct = np.isin(self._procs, self._codes(correct_processes))
        return self._kept((self._ops == _APPEND) | correct)

    def without_failed_appends(self) -> "History":
        """Purge unsuccessful append response events (and their invocations).

        Mirrors the paper's convention before the hierarchy comparison:
        "let us consider only the set of histories purged from the
        unsuccessful append() response events".  A history with no failed
        append is its own purge.
        """
        values = self._values
        failed = [at for at in self._append_responses.tolist() if not bool(values[at])]
        if not failed:
            return self
        # One integer per (process, op_id) pair.
        op_ids = self._op_ids - self._op_ids.min()
        pairs = self._procs * (int(op_ids.max()) + 1) + op_ids
        return self._kept(~((self._ops == _APPEND) & np.isin(pairs, pairs[failed])))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"History(events={len(self)}, processes={len(np.unique(self._procs))}, "
            f"reads={len(self._reads)}, appends={len(self._appends)})"
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

    Recording an event writes five ints (the :class:`History` columns but
    the eid, which is its position plus one), the ``now`` of ``clock`` (the
    run's simulator; 0.0 without one) and one object, and builds no
    :class:`Event`: an analysis reads the finished history.  A response's
    argument is its invocation's: :meth:`respond` takes this recorder's token.
    """

    def __init__(self, clock: Any = None) -> None:
        self._op_ids = itertools.count(1)
        self._seq: Dict[str, int] = {}
        self._codes = {name: code for code, name in enumerate(_NAMES)}
        # The rows up to the last snapshot are kept once, in that history's
        # table (``_snapshot``, five rows); later ones in ``_ints``.
        self._snapshot = np.empty((5, 0), dtype=np.int64)
        self._ints = array("q")
        self._clock = clock if clock is not None else _STOPPED
        self._times = array("d")
        self._values: List[Any] = []

    def _record(
        self, kind: int, process: str, operation: str, value: Any, op_id: int = -1
    ) -> int:
        """Write one event's row; returns its eid."""
        seq = self._seq[process] = self._seq.get(process, 0) + 1
        codes = self._codes
        op = codes.setdefault(operation, len(codes))
        self._ints.extend((kind, op, codes.setdefault(process, len(codes)), op_id, seq))
        self._times.append(self._clock.now)
        values = self._values
        values.append(value)
        return len(values)

    # -- operation events --------------------------------------------------------

    def invoke(self, process: str, operation: str, argument: Any = None) -> OperationToken:
        """Record an invocation event and return its token."""
        op_id = next(self._op_ids)
        eid = self._record(_INVOCATION, process, operation, argument, op_id)
        return OperationToken(op_id, process, operation, argument, eid)

    def respond(self, token: OperationToken, output: Any = None) -> int:
        """Record the response event matching ``token``; returns its eid."""
        return self._record(_RESPONSE, token.process, token.operation, output, token.op_id)

    def complete(self, process: str, operation: str, argument: Any, output: Any) -> int:
        """Record an invocation immediately followed by its response."""
        return self.respond(self.invoke(process, operation, argument), output)

    # -- replication events (Section 4.2) ----------------------------------------

    def send(self, process: str, parent_id: str, block_id: str) -> int:
        """Record ``send_i(b_g, b)``."""
        return self._record(_SEND, process, "send", (parent_id, block_id))

    def receive(self, process: str, parent_id: str, block_id: str) -> int:
        """Record ``receive_i(b_g, b)``."""
        return self._record(_RECEIVE, process, "receive", (parent_id, block_id))

    def update(self, process: str, parent_id: str, block_id: str) -> int:
        """Record ``update_i(b_g, b)``."""
        return self._record(_UPDATE, process, "update", (parent_id, block_id))

    # -- extraction ----------------------------------------------------------------

    def history(self) -> History:
        """Snapshot the recorded events as a :class:`History` (no :class:`Event`
        is built).  Its table then holds the recorder's rows so far."""
        n = len(self._values)
        columns = np.empty((6, n), dtype=np.int64)
        columns[0] = np.arange(1, n + 1)
        done = self._snapshot.shape[1]
        columns[1:, :done] = self._snapshot
        columns[1:, done:] = np.frombuffer(self._ints, dtype=np.int64).reshape(-1, 5).T
        self._snapshot, self._ints = columns[1:], array("q")
        history = History.__new__(History)
        times = np.array(self._times, dtype=np.float64)
        history._adopt(columns, times, list(self._values), list(self._codes), [None] * n)
        return history

    def __len__(self) -> int:
        return len(self._values)
