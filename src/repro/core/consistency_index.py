"""Union prefix index and streaming monitor for the consistency criteria.

The consistency checkers of :mod:`repro.core.consistency` quantify over
*pairs* of read results: Strong Prefix asks whether two chains diverge,
Eventual Prefix scores their maximal common prefix (``mcps``), Local
Monotonic Read and Ever Growing Tree compare chain scores.  Evaluated
chain-by-chain, each of those questions costs O(L) in the chain length —
and the pair quantification makes the checkers O(R²·L) on a history with
R reads.

The :class:`ConsistencyIndex` below removes the O(L) factor: every chain
returned by a read is merged into one *analysis tree* keyed by block id
(the union of all read results is a tree because chains are paths from
the same genesis).  A chain is then represented by its **tip**, and the
pairwise questions become tree queries over incrementally maintained
heights and cumulative weights:

* prefix relation / divergence — an ancestor test, O(1) with the lazily
  computed DFS interval labels;
* ``mcps`` — the score of the lowest common ancestor, read directly off
  the cached height (length score) or cumulative weight (weight score);
* chain score — the tip's cached height / cumulative weight.

The pair *quantification* goes the same way: the index counts diverging
pairs from tip multiplicities along root paths instead of visiting them,
and decides Eventual Prefix from the processes' last reads alone — see
"counting without enumerating pairs" below.

Beside the tree the index keeps the *read table* — the read responses in
arrival order — and the earliest append of every block, so it is all a
consistency check reads: the checkers take an index, not a history.

Ingesting a history is near-linear: each distinct block is inserted once
(O(1) amortized per block), and a read whose chain is already indexed
costs O(1) — the merge walks the chain *tip-first* and stops at the first
known block.

Cumulative weights are accumulated root-first exactly like
:class:`~repro.core.blocktree.BlockTree` maintains them, so the floats
are bit-identical to :class:`~repro.core.score.WeightScore` summing a
materialized chain — which is what lets the indexed checkers reproduce
the brute-force verdicts byte-for-byte.

Assumption (same as everywhere else in this reproduction): block
identifiers uniquely identify block *content* within one history, as
with hash-identified blocks.  The merge verifies the block it stops at
matches the stored block and raises :class:`InconsistentChainError` on a
mismatch, so a history violating the assumption fails loudly instead of
being analysed wrongly.

The :class:`ConsistencyMonitor` at the bottom keeps the index online: it
subscribes to a :class:`~repro.core.history.HistoryRecorder` and feeds
the index as events stream in, O(1) amortized per event.  It decides
nothing itself: asked for verdicts, it hands its index to the checkers of
:mod:`repro.core.consistency`, so at any prefix of the execution its
reports *are* the post-hoc reports of the history recorded so far.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.block import Block, Blockchain
from repro.core.history import Event, History, HistoryRecorder
from repro.core.score import LengthScore, ScoreFunction, WeightScore, mcps

if TYPE_CHECKING:
    from repro.core.consistency import ConsistencyReport

__all__ = [
    "ConsistencyIndex",
    "ConsistencyMonitor",
    "InconsistentChainError",
    "count_exceeding_before",
]


class InconsistentChainError(ValueError):
    """Two read results disagree about the content of one block id."""


class ConsistencyIndex:
    """All read results of a history merged into one analysis tree.

    The index is append-only (like the BlockTree it mirrors): reads are
    entered with :meth:`add_read` and appends with :meth:`note_append` as
    they stream in, whole histories with :meth:`ingest`.  Queries never
    mutate the logical content; the DFS interval labels used for O(1)
    ancestor tests are recomputed lazily after mutations.
    """

    def __init__(self) -> None:
        self._blocks: Dict[str, Block] = {}
        self._parent: Dict[str, Optional[str]] = {}
        self._children: Dict[str, List[str]] = {}
        self._height: Dict[str, int] = {}
        self._cum_weight: Dict[str, float] = {}
        self._root: Optional[str] = None
        #: The read table: every read response entered, in arrival order.
        self.reads: List[Event] = []
        # Per-read bookkeeping: read eid -> tip block id, and per block the
        # eid of the first read whose chain introduced it (reads arrive in
        # eid order, so "introduced it" = "first returned it").
        self._read_tips: Dict[int, str] = {}
        self._first_seen_read: Dict[str, int] = {}
        # Earliest append-invocation eid per block id.
        self._first_append: Dict[str, int] = {}
        # Scores of the read table under the score function last asked for.
        self._scored_by: Optional[ScoreFunction] = None
        self._scores: List[float] = []
        # Lazily recomputed DFS interval labels for O(1) ancestor tests.
        self._mutations = 0
        self._labels_at = -1
        self._tin: Dict[str, int] = {}
        self._tout: Dict[str, int] = {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_history(cls, history: History) -> "ConsistencyIndex":
        """Build and return the index of ``history`` (reads + append map)."""
        return cls().ingest(history)

    def ingest(self, history: History) -> "ConsistencyIndex":
        """Merge every read result of ``history`` and its append map.

        A read response that carries no blockchain raises the
        ``TypeError`` of :attr:`Event.chain`, which names the event (the
        streaming monitor skips such events instead).
        """
        for inv in history.append_invocations():
            block = inv.argument
            if isinstance(block, Block):
                self.note_append(block.block_id, inv.eid)
        for read in history.read_responses():
            self.add_read(read)
        return self

    def add_read(self, read: Event) -> None:
        """Merge the chain a read response returned; enter it in the read table."""
        self.add_chain(read.chain, read_eid=read.eid)
        self.reads.append(read)

    def add_chain(
        self, chain: Blockchain, read_eid: Optional[int] = None
    ) -> List[Block]:
        """Merge ``chain`` into the analysis tree; return the new blocks.

        Walks the chain tip-first and stops at the first block already
        indexed, so a fully known chain costs O(1) and the total merge
        cost over a history is O(distinct blocks + reads).  The block at
        the stop point is compared against the stored block, enforcing
        the id-uniqueness assumption documented in the module docstring.
        """
        blocks = chain.blocks
        if self._root is None:
            genesis = blocks[0]
            self._root = genesis.block_id
            self._blocks[genesis.block_id] = genesis
            self._parent[genesis.block_id] = None
            self._children[genesis.block_id] = []
            self._height[genesis.block_id] = 0
            self._cum_weight[genesis.block_id] = 0.0

        known = self._blocks
        i = len(blocks) - 1
        while i >= 0 and blocks[i].block_id not in known:
            i -= 1
        if i < 0:
            raise InconsistentChainError(
                f"chain rooted at {blocks[0].block_id!r} does not share the "
                f"index genesis {self._root!r}"
            )
        stop = blocks[i]
        stored = known[stop.block_id]
        if stored is not stop and stored != stop:
            raise InconsistentChainError(
                f"block id {stop.block_id!r} carries different content in "
                "different read results"
            )

        new_blocks = blocks[i + 1 :]
        for block in new_blocks:
            parent_id = block.parent_id
            assert parent_id is not None  # genesis is always the stop block
            bid = block.block_id
            known[bid] = block
            self._parent[bid] = parent_id
            self._children[bid] = []
            self._children[parent_id].append(bid)
            self._height[bid] = self._height[parent_id] + 1
            self._cum_weight[bid] = self._cum_weight[parent_id] + block.weight
            if read_eid is not None:
                self._first_seen_read[bid] = read_eid
        if new_blocks:
            self._mutations += 1
        if read_eid is not None:
            self._read_tips[read_eid] = blocks[-1].block_id
        return list(new_blocks)

    # -- basic accessors ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: object) -> bool:
        return block_id in self._blocks

    def block(self, block_id: str) -> Block:
        return self._blocks[block_id]

    def block_ids(self) -> Tuple[str, ...]:
        """Identifiers in insertion (parents-first) order."""
        return tuple(self._blocks)

    def parent_of(self, block_id: str) -> Optional[str]:
        return self._parent[block_id]

    def height_of(self, block_id: str) -> int:
        return self._height[block_id]

    def cumulative_weight(self, block_id: str) -> float:
        """Root-first accumulated non-genesis weight up to ``block_id``."""
        return self._cum_weight[block_id]

    def read_tip(self, read_eid: int) -> str:
        """Tip block id of the chain returned by the read with ``read_eid``."""
        return self._read_tips[read_eid]

    def first_seen_read(self, block_id: str) -> Optional[int]:
        """Eid of the earliest read whose chain contains ``block_id``."""
        return self._first_seen_read.get(block_id)

    def first_append(self, block_id: str) -> Optional[int]:
        """Eid of the earliest append invocation for ``block_id``."""
        return self._first_append.get(block_id)

    def note_append(self, block_id: str, eid: int) -> None:
        """Record an append invocation of ``block_id`` (the earliest one is kept)."""
        self._first_append.setdefault(block_id, eid)

    # -- ancestry -------------------------------------------------------------

    def _ensure_labels(self) -> None:
        if self._labels_at == self._mutations or self._root is None:
            return
        tin: Dict[str, int] = {}
        tout: Dict[str, int] = {}
        clock = 0
        # Iterative DFS (histories can hold chains deeper than the
        # interpreter's recursion limit).
        stack: List[Tuple[str, bool]] = [(self._root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                tout[node] = clock
                clock += 1
                continue
            tin[node] = clock
            clock += 1
            stack.append((node, True))
            stack.extend((child, False) for child in self._children[node])
        self._tin, self._tout = tin, tout
        self._labels_at = self._mutations

    def is_prefix(self, ancestor_id: str, descendant_id: str) -> bool:
        """``True`` iff the chain to ``ancestor_id`` prefixes the one to
        ``descendant_id`` (ancestor-or-equal in the analysis tree), O(1)."""
        self._ensure_labels()
        tin = self._tin
        return tin[ancestor_id] <= tin[descendant_id] <= self._tout[ancestor_id]

    def prefix_related(self, a: str, b: str) -> bool:
        """``True`` iff the chains to ``a`` and ``b`` do *not* diverge."""
        self._ensure_labels()
        tin, tout = self._tin, self._tout
        ta, tb = tin[a], tin[b]
        if ta <= tb:
            return tb <= tout[a]
        return ta <= tout[b]

    def lowest_common_ancestor(self, a: str, b: str) -> str:
        """LCA of two blocks (always exists: the shared genesis)."""
        height, parent = self._height, self._parent
        ha, hb = height[a], height[b]
        while ha > hb:
            a = parent[a]  # type: ignore[assignment]
            ha -= 1
        while hb > ha:
            b = parent[b]  # type: ignore[assignment]
            hb -= 1
        while a != b:
            a = parent[a]  # type: ignore[assignment]
            b = parent[b]  # type: ignore[assignment]
        return a

    # -- scores ---------------------------------------------------------------

    def path_score(self, block_id: str, score: ScoreFunction) -> Optional[float]:
        """Score of the chain ending at ``block_id``, off the indexes.

        Returns ``None`` for score functions that are not index-backed
        (callers fall back to scoring the materialized chain; the two
        built-in families cover every score used in this reproduction).
        """
        if isinstance(score, LengthScore):
            return float(self._height[block_id])
        if isinstance(score, WeightScore):
            base = self._cum_weight[block_id]
            return float(base + score.min_increment * self._height[block_id])
        return None

    def read_scores(self, score: ScoreFunction) -> Sequence[float]:
        """Score of every chain in the read table (index-backed when possible).

        Kept for the score function last asked for and extended as reads
        arrive, so the properties that compare scores share one pass.
        """
        if self._scored_by != score:
            self._scored_by, self._scores = score, []
        scores = self._scores
        for read in self.reads[len(scores) :]:
            value = self.path_score(self._read_tips[read.eid], score)
            scores.append(value if value is not None else score(read.chain))
        return scores

    def mcps_of_tips(
        self,
        a: str,
        b: str,
        score: ScoreFunction,
        chains: Optional[Tuple[Blockchain, Blockchain]] = None,
    ) -> float:
        """``mcps`` of the chains ending at tips ``a`` and ``b``.

        For the index-backed score families this is the cached score of
        the LCA; for generic scores the caller must supply the two
        materialized ``chains`` and the computation defers to
        :func:`repro.core.score.mcps` for byte-identical results.
        """
        if isinstance(score, (LengthScore, WeightScore)):
            lca = self.lowest_common_ancestor(a, b)
            value = self.path_score(lca, score)
            assert value is not None
            return value
        if chains is None:
            raise ValueError(
                "mcps over a custom score function needs the materialized chains"
            )
        return mcps(chains[0], chains[1], score)

    # -- counting without enumerating pairs -----------------------------------

    def diverging_pair_count(self, tips: Sequence[str]) -> int:
        """Number of pairs ``i < j`` whose chains ``tips[i]``, ``tips[j]`` diverge.

        All pairs minus the comparable ones.  A tip is comparable with
        its own copies and with the tips on its root path, whose
        multiplicities accumulate root-first over the parents-first
        insertion order: O(blocks + tips), no pair is visited.
        """
        multiplicity = Counter(tips)
        comparable = 0
        above: Dict[str, int] = {}  # tips on the strict root path, per block
        for block_id, parent in self._parent.items():
            on_path = 0 if parent is None else above[parent] + multiplicity.get(parent, 0)
            above[block_id] = on_path
            copies = multiplicity.get(block_id, 0)
            comparable += copies * (copies - 1) // 2 + copies * on_path
        return len(tips) * (len(tips) - 1) // 2 - comparable

    def later_diverging_counts(self, tips: Sequence[str]) -> List[int]:
        """Per position ``i``, how many later ``tips[j]`` diverge from ``tips[i]``.

        One backward sweep over the DFS interval labels, O(tips · log
        blocks): ``below`` holds the later tips by label, so a subtree is
        a label range; ``above`` holds +1 over each later tip's subtree
        (as a difference array), so a point query counts the later tips
        on the root path.  Equal tips are in both, hence ``same``.
        """
        self._ensure_labels()
        tin, tout = self._tin, self._tout
        slots = 2 * len(self._blocks) + 1
        below, above = _Fenwick(slots), _Fenwick(slots)
        copies: Dict[str, int] = {}
        counts = [0] * len(tips)
        for i in range(len(tips) - 1, -1, -1):
            tip = tips[i]
            first, last = tin[tip], tout[tip]
            same = copies.get(tip, 0)
            comparable = (
                below.prefix(last + 1) - below.prefix(first) + above.prefix(first + 1) - same
            )
            counts[i] = len(tips) - 1 - i - comparable
            below.add(first, 1)
            above.add(first, 1)
            above.add(last + 1, -1)
            copies[tip] = same + 1
        return counts

    def eventual_prefix_breaches(
        self,
        limits: Sequence[int],
        ceilings: Sequence[Tuple[int, float]],
        score: ScoreFunction,
    ) -> Iterator[Tuple[int, int, float]]:
        """The finite-prefix Eventual Prefix rule, over the limit views.

        ``limits`` holds, per process, where in the read table its last
        read is, and ``ceilings`` the increase points ``(where, maximum)``
        of the running maximum of read scores.  Two limit views on
        conflicting branches are seen together by exactly the reads
        before ``cut``, the earlier of the two, so they must share a
        prefix scoring at least the maximum reached before ``cut``.
        Yields ``(cut, other, shared)`` — the pair's two places in the
        read table — for every pair that does not; the property holds iff
        nothing is yielded.  O(P²) for P processes, whatever the number of
        reads.
        """
        reads = [self.reads[at] for at in limits]
        tips = [self._read_tips[read.eid] for read in reads]
        for x in range(len(limits)):
            for y in range(x + 1, len(limits)):
                if self.prefix_related(tips[x], tips[y]):
                    continue
                cut, other = sorted((limits[x], limits[y]))
                reached = bisect_left(ceilings, (cut,))  # increase points before cut
                if not reached:
                    continue
                shared = self.mcps_of_tips(
                    tips[x], tips[y], score, chains=(reads[x].chain, reads[y].chain)
                )
                if ceilings[reached - 1][1] > shared:
                    yield cut, other, shared


class _Fenwick:
    """Integer prefix sums under point updates, O(log slots) each."""

    __slots__ = ("_tree",)

    def __init__(self, slots: int) -> None:
        self._tree = [0] * (slots + 1)

    def add(self, slot: int, delta: int) -> None:
        tree = self._tree
        slot += 1
        while slot < len(tree):
            tree[slot] += delta
            slot += slot & -slot

    def prefix(self, end: int) -> int:
        """Sum of the slots ``[0, end)``."""
        tree = self._tree
        total = 0
        while end > 0:
            total += tree[end]
            end -= end & -end
        return total


def count_exceeding_before(
    values: Sequence[float], queries: Sequence[Tuple[int, float]]
) -> int:
    """Over all ``(cut, bound)`` queries, the entries of ``values[:cut]`` above ``bound``.

    One offline dominance count, O((values + queries) · log values):
    the queries are answered in ``cut`` order while the values enter a
    Fenwick tree by rank.
    """
    ranks = sorted(set(values))
    entered = _Fenwick(len(ranks))
    total = done = 0
    for cut, bound in sorted(queries):
        while done < cut:
            entered.add(bisect_left(ranks, values[done]), 1)
            done += 1
        total += done - entered.prefix(bisect_right(ranks, bound))
    return total


# ---------------------------------------------------------------------------
# Streaming monitor
# ---------------------------------------------------------------------------


class ConsistencyMonitor:
    """Online consistency reports over a stream of history events.

    Subscribe the monitor to a live :class:`HistoryRecorder` with
    :meth:`attach` (or feed it a recorded history with :meth:`replay`);
    it enters every append invocation and read response in its
    :class:`ConsistencyIndex` as they arrive, O(1) amortized per event.
    :meth:`reports` hands that index to
    :func:`repro.core.consistency.check_consistency`: the verdicts,
    counts and witnesses are the ones the post-hoc checkers return on the
    history recorded *so far* — the raw event stream, i.e. the history
    ``recorder.history()`` snapshots — because they are computed by the
    same code.  The reports are kept until the next event arrives.

    State is the index: the union tree plus a reference to every read
    response observed (events the recorder already owns).
    """

    def __init__(
        self,
        score: Optional[ScoreFunction] = None,
        validator: Optional[Callable[[Block], bool]] = None,
        stall_threshold: Optional[int] = None,
    ) -> None:
        self.score = score if score is not None else LengthScore()
        self.validator = validator
        self.stall_threshold = stall_threshold
        self.index = ConsistencyIndex()
        self.events_seen = 0
        self._reports: Optional[Tuple[ConsistencyReport, ConsistencyReport]] = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, recorder: HistoryRecorder) -> "ConsistencyMonitor":
        """Subscribe to every event ``recorder`` will record."""
        recorder.subscribe(self.observe)
        return self

    def replay(self, history: History) -> "ConsistencyMonitor":
        """Feed an already recorded history through the monitor."""
        for event in history:
            self.observe(event)
        return self

    # -- event intake ---------------------------------------------------------

    def observe(self, event: Event) -> None:
        """Process one history event (non read/append events are ignored).

        A read response that carries no blockchain is skipped.
        """
        self.events_seen += 1
        self._reports = None
        if event.is_append_invocation and isinstance(event.argument, Block):
            self.index.note_append(event.argument.block_id, event.eid)
        elif event.is_read_response and isinstance(event.output, Blockchain):
            self.index.add_read(event)

    @property
    def reads_seen(self) -> int:
        return len(self.index.reads)

    # -- verdicts -------------------------------------------------------------

    def reports(self) -> Tuple[ConsistencyReport, ConsistencyReport]:
        """The ``(strong, eventual)`` reports of the history observed so far."""
        if self._reports is None:
            # Call-time import: repro.core.consistency imports this module.
            from repro.core.consistency import check_consistency

            self._reports = check_consistency(
                None, self.score, self.validator, self.stall_threshold, index=self.index
            )
        return self._reports

    def property_verdicts(self) -> Dict[str, bool]:
        """Current verdict per property, keyed by the checker names."""
        strong, eventual = self.reports()
        results = (*strong.results, eventual.result_for("eventual-prefix"))
        return {result.name: result.holds for result in results}

    def strong_holds(self) -> bool:
        """BT Strong Consistency verdict on the history observed so far."""
        return self.reports()[0].holds

    def eventual_holds(self) -> bool:
        """BT Eventual Consistency verdict on the history observed so far."""
        return self.reports()[1].holds

    def summary(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the verdicts and stream counters."""
        return {
            "strong": self.strong_holds(),
            "eventual": self.eventual_holds(),
            "properties": self.property_verdicts(),
            "reads": self.reads_seen,
            "events": self.events_seen,
            "blocks_indexed": len(self.index),
        }
