"""The pre-fast-path plane: the single designated oracle for the live one.

``src/`` carries one message plane, one tree index, one recorder and one
implementation of each selection rule.  What they replaced lives here, for
the tests only, as subclasses that put the old bodies back:

* :class:`ReferenceNetwork` — the pre-batching scalar fan-out: one
  :meth:`Network.send` (one envelope, one scalar channel draw, one queue
  entry) per receiver, and per-event dispatch (no span handlers);
* :class:`ReferenceBlockTree` — the per-block dict score index, verbatim,
  and a ``chain_to`` that walks to the root on every read;
* :class:`ReferenceHistoryRecorder` — the recorder that builds an
  :class:`~repro.core.history.Event` per recorded event (a standalone
  class: it shares no code with the columnar recorder);
* ``Reference{ScoreMaximizingSelection,LongestChain,HeaviestChain,
  GHOSTSelection}`` — the brute-force selection rules, which read nothing
  but ``all_chains`` / ``children_of`` / ``subtree_weight`` / ``chain_to``.

:func:`reference_plane` makes :func:`repro.protocols.base.run_protocol`
build a run from them, part by part; with ``core="heap"`` on top that is
the whole oracle leg of ``tests/network/test_core_equivalence.py``.  None
of these classes calls ``Network._deliver_span``,
``Network._refresh_skip_table``, ``Network._classify_duplicates``,
``HistoryRecorder._record``, ``_TreeColumns.append`` or
``BlockchainReplica.batch_dup_seen``
(``test_core_equivalence.py`` proves it by making them raise), so the
equivalence tests hold those methods to code that shares nothing with them.
Do not "optimize" anything in this module.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence
from unittest import mock

import numpy as np

from repro.core.block import Block, Blockchain
from repro.core.blocktree import BlockTree, DuplicateBlockError, UnknownParentError
from repro.core.history import Event, EventKind, History, OperationToken
from repro.core.score import LengthScore, ScoreFunction, WeightScore
from repro.network.simulator import Network


class ReferenceNetwork(Network):
    """The scalar message plane: per-receiver sends, per-event dispatch."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # ``Network`` registers its span handler unconditionally; without
        # it the array core dispatches every delivery on its own, as the
        # heap core always does.
        core = self.simulator._array_core
        if core is not None:
            core._span_handlers.clear()

    def _multicast_trusted(
        self, sender: str, receivers: Sequence[str], kind: str, payload: Any
    ) -> int:
        delivered = 0
        for pid in receivers:
            if self.send(sender, pid, kind, payload):
                delivered += 1
        return delivered


class ReferenceHistoryRecorder:
    """The recorder that builds one :class:`Event` per recorded event.

    The pre-columns ``HistoryRecorder``, whole: every recorded event is a
    frozen dataclass appended to a list, and :meth:`history` hands the
    list to the public ``History(events)``.  Beside it, a list of the
    ``simulator.now`` of each event (0.0 with no simulator), which becomes
    that history's time column.
    """

    def __init__(self, simulator: Any = None) -> None:
        self._simulator = simulator
        self._times: List[float] = []
        self._clock = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._seq: Dict[str, int] = {}
        self._events: List[Event] = []

    def _record(self, event: Event) -> Event:
        self._events.append(event)
        self._times.append(0.0 if self._simulator is None else self._simulator.now)
        return event

    def _next_time(self) -> int:
        return next(self._clock)

    def _next_seq(self, process: str) -> int:
        seq = self._seq.get(process, 0) + 1
        self._seq[process] = seq
        return seq

    def invoke(self, process: str, operation: str, argument: Any = None) -> OperationToken:
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
        return self.respond(self.invoke(process, operation, argument), output)

    def send(self, process: str, parent_id: str, block_id: str) -> Event:
        return self._replication(EventKind.SEND, process, parent_id, block_id)

    def receive(self, process: str, parent_id: str, block_id: str) -> Event:
        return self._replication(EventKind.RECEIVE, process, parent_id, block_id)

    def update(self, process: str, parent_id: str, block_id: str) -> Event:
        return self._replication(EventKind.UPDATE, process, parent_id, block_id)

    def _replication(
        self, kind: EventKind, process: str, parent_id: str, block_id: str
    ) -> Event:
        event = Event(
            eid=self._next_time(),
            kind=kind,
            process=process,
            operation=kind.value,
            argument=(parent_id, block_id),
            seq=self._next_seq(process),
        )
        return self._record(event)

    def history(self) -> History:
        history = History(self._events)
        history._times = np.array(self._times, dtype=np.float64)
        return history

    def __len__(self) -> int:
        return len(self._events)


class ReferenceBlockTree(BlockTree):
    """A :class:`BlockTree` on the per-block dict score index.

    ``_columns`` is ``None``: a live-path read this class failed to
    override (``leaf_index`` and ``ghost_tip`` on purpose — dict trees are
    selected from by the brute-force rules below) raises instead of
    silently agreeing with the implementation under test.
    """

    def __init__(self, genesis: Optional[Block] = None) -> None:
        super().__init__(genesis)
        root = self._genesis
        self._columns = None
        self._heights: Dict[str, int] = {root.block_id: 0}
        self._subtree_weight: Dict[str, float] = {root.block_id: root.weight}
        # Cumulative *non-genesis* weight along the root-to-block path,
        # accumulated root-first so it is bit-identical to ``WeightScore``
        # summing the materialized chain.
        self._cum_weight: Dict[str, float] = {root.block_id: 0.0}

    def height_of(self, block_id: str) -> int:
        return self._heights[block_id]

    def cumulative_weight(self, block_id: str) -> float:
        return self._cum_weight[block_id]

    def subtree_weight(self, block_id: str) -> float:
        return self._subtree_weight[block_id]

    def chain_to(self, block_id: str) -> Blockchain:
        path = [self._blocks[block_id]]
        while path[-1].parent_id is not None:
            path.append(self._blocks[path[-1].parent_id])
        return Blockchain(tuple(reversed(path)))

    def append(self, block: Block) -> Block:
        if block.is_genesis:
            raise ValueError("cannot append a second genesis block")
        if block.block_id in self._blocks:
            raise DuplicateBlockError(block.block_id)
        assert block.parent_id is not None  # guaranteed by Block invariants
        if block.parent_id not in self._blocks:
            raise UnknownParentError(block.parent_id)

        self._blocks[block.block_id] = block
        self._children[block.block_id] = []
        siblings = self._children[block.parent_id]
        siblings.append(block.block_id)
        if len(siblings) == 2:
            self._fork_points[block.parent_id] = None
        if len(siblings) > self._max_fork_degree:
            self._max_fork_degree = len(siblings)
        height = self._heights[block.parent_id] + 1
        self._heights[block.block_id] = height
        self._subtree_weight[block.block_id] = block.weight
        self._cum_weight[block.block_id] = self._cum_weight[block.parent_id] + block.weight
        if height > self._height:
            self._height = height
        self._leaves.pop(block.parent_id, None)
        self._leaves[block.block_id] = None
        self._version += 1
        if self._selection_memo:
            self._selection_memo.clear()
        # Propagate the new weight to every ancestor so GHOST queries are O(1).
        cursor: Optional[str] = block.parent_id
        while cursor is not None:
            self._subtree_weight[cursor] += block.weight
            cursor = self._blocks[cursor].parent_id
        return block

    def copy(self) -> "ReferenceBlockTree":
        clone = type(self)(self._genesis)
        clone._heights = dict(self._heights)
        clone._subtree_weight = dict(self._subtree_weight)
        clone._cum_weight = dict(self._cum_weight)
        clone._blocks = dict(self._blocks)
        clone._children = {k: list(v) for k, v in self._children.items()}
        clone._height = self._height
        clone._leaves = dict(self._leaves)
        clone._fork_points = dict(self._fork_points)
        clone._max_fork_degree = self._max_fork_degree
        clone._version = self._version
        clone._selection_memo = dict(self._selection_memo)
        return clone


@contextmanager
def reference_plane(
    *, network: bool = True, recorder: bool = True, tree: bool = True
) -> Iterator[None]:
    """``run_protocol`` calls in this scope build from the oracle classes.

    ``run_protocol`` and ``BlockchainReplica`` look ``Network``,
    ``HistoryRecorder`` and ``BlockTree`` up as globals of
    :mod:`repro.protocols.base`, so swapping those three names is the whole
    mechanism; each part can be left live to isolate the others.  A run on
    ``tree=True`` must select with the ``Reference*`` rules below.
    """
    swaps: Dict[str, type] = {}
    if network:
        swaps["Network"] = ReferenceNetwork
    if recorder:
        swaps["HistoryRecorder"] = ReferenceHistoryRecorder
    if tree:
        swaps["BlockTree"] = ReferenceBlockTree
    with mock.patch.multiple("repro.protocols.base", **swaps):
        yield


# -- the brute-force selection rules -----------------------------------------
#
# These reproduce, verbatim, the original O(leaves × depth) selection code
# that rebuilt every root-to-leaf chain per call (and scored each chain
# twice), with no memo.


def _lexicographic_tiebreak(candidates: Sequence[str]) -> str:
    """Deterministic tie-break: the lexicographically largest identifier.

    Matches the convention of the paper's Figure 2 example.
    """
    return max(candidates)


@dataclass(frozen=True)
class ReferenceScoreMaximizingSelection:
    """Brute-force oracle: materialize and score every chain per call."""

    score: ScoreFunction = field(default_factory=LengthScore)

    def __call__(self, tree: BlockTree) -> Blockchain:
        chains = tree.all_chains()
        if not chains:  # pragma: no cover - a tree always has >= 1 leaf
            return Blockchain((tree.genesis,))
        best_score = max(self.score(c) for c in chains)
        tied = [c for c in chains if self.score(c) == best_score]
        winner_tip = _lexicographic_tiebreak([c.tip.block_id for c in tied])
        for chain in tied:
            if chain.tip.block_id == winner_tip:
                return chain
        raise AssertionError("unreachable: tie-break winner must be among ties")


@dataclass(frozen=True)
class ReferenceLongestChain:
    """Brute-force oracle for the longest-chain rule."""

    def __call__(self, tree: BlockTree) -> Blockchain:
        return ReferenceScoreMaximizingSelection(LengthScore())(tree)


@dataclass(frozen=True)
class ReferenceHeaviestChain:
    """Brute-force oracle for the heaviest-chain rule."""

    def __call__(self, tree: BlockTree) -> Blockchain:
        return ReferenceScoreMaximizingSelection(WeightScore())(tree)


@dataclass(frozen=True)
class ReferenceGHOSTSelection:
    """Pre-memo GHOST oracle: full unmemoized descent, two passes per level."""

    def __call__(self, tree: BlockTree) -> Blockchain:
        cursor = tree.genesis.block_id
        while True:
            children = tree.children_of(cursor)
            if not children:
                return tree.chain_to(cursor)
            best_weight = max(tree.subtree_weight(c) for c in children)
            tied = [c for c in children if tree.subtree_weight(c) == best_weight]
            cursor = _lexicographic_tiebreak(tied)
