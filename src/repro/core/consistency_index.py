"""Union prefix index and consistency monitor for the consistency criteria.

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

Blocks are numbered (*nodes*) in insertion order, and the tree's heights,
cumulative weights and parents are columns indexed by node.  Beside the
tree the index keeps the *read table* — the read responses in arrival
order, with a column of tip nodes, one of process codes and one of eids,
appended as each read is entered — and the earliest append of every
block, so it is all a consistency check reads: the checkers take an
index, not a history, and evaluate their per-read rules as numpy
formulas over those columns (:meth:`ConsistencyIndex.read_table`).

Ingesting a history reads its columns, not events, in near-linear time:
each distinct block is inserted once, the read table's eids and processes
are gathers, and a distinct tip *object* costs one lookup when the index
holds it (as when every replica reads one shared block tree), else a
walk *tip-first* that stops at the first known block.

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

The :class:`ConsistencyMonitor` at the bottom fills an index from a
finished history's columns and decides nothing itself: asked for
verdicts, it hands its index to the checkers of
:mod:`repro.core.consistency`, so its reports *are* the post-hoc reports
of that history.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.block import Block, Blockchain
from repro.core.history import Event, History
from repro.core.score import LengthScore, ScoreFunction, WeightScore, mcps

if TYPE_CHECKING:
    from repro.core.consistency import ConsistencyReport

__all__ = [
    "ConsistencyIndex",
    "ConsistencyMonitor",
    "InconsistentChainError",
    "count_exceeding_before",
    "monitor_summary",
]


class InconsistentChainError(ValueError):
    """Two read results disagree about the content of one block id."""


_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_SCORES = np.empty(0, dtype=np.float64)


class ConsistencyIndex:
    """All read results of a history merged into one analysis tree.

    The index is append-only (like the BlockTree it mirrors): whole
    histories are entered with :meth:`ingest`, one event at a time with
    :meth:`add_read` and :meth:`note_append` (the form ``ingest`` is
    tested against).  Queries never mutate the logical content; the DFS
    interval labels used for O(1) ancestor tests are recomputed lazily
    after mutations.

    Blocks are numbered in insertion (parents-first) order; these *nodes*
    index the tree's columns and the read table's tip column.
    """

    def __init__(self) -> None:
        # The analysis tree, per node: its block, parent node (-1 at the
        # root), children, height, root-first cumulative weight and the
        # eid of the read that introduced it (-1: none).
        self._node: Dict[str, int] = {}
        self._blocks: List[Block] = []
        self._parent = array("q")
        self._children: List[List[int]] = []
        self._height = array("q")
        self._cum_weight = array("d")
        self._first_seen = array("q")
        # The read table, one row per read response entered, in arrival
        # order: the chain it returned, and as columns its tip node, process
        # code (in order of first read) and eid.  Its events stay where they
        # came from: runs of rows (first row, source, positions), the events
        # of a history at ``positions`` or one event (``positions`` None).
        self.chains: List[Blockchain] = []
        self._runs: List[Tuple[int, Any, Optional[np.ndarray]]] = []
        self._tips = array("q")
        self._procs = array("q")
        self._eids = array("q")
        self._process_code: Dict[str, int] = {}
        # Earliest append-invocation eid per block id.
        self._first_append: Dict[str, int] = {}
        # The read table as numpy arrays, for as many reads as it had then,
        # and its scores under the score function last asked for.
        self._table: Tuple[np.ndarray, np.ndarray, np.ndarray] = (_NO_ROWS,) * 3
        self._scored_by: Optional[ScoreFunction] = None
        self._scores: np.ndarray = _NO_SCORES
        # Lazily recomputed DFS interval labels for O(1) ancestor tests.
        self._mutations = 0
        self._labels_at = -1
        self._tin: List[int] = []
        self._tout: List[int] = []

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_history(cls, history: History) -> "ConsistencyIndex":
        """Build and return the index of ``history`` (reads + append map)."""
        return cls().ingest(history)

    def ingest(self, history: History, skip_chainless: bool = False) -> "ConsistencyIndex":
        """Merge every read result of ``history`` and its append map.

        Off the history's columns, building no :class:`Event`: process codes
        and eids are gathers at the read positions, the tips one pass over
        the outputs, then one step per distinct tip object (see
        :meth:`add_read`).  A read response that carries no blockchain
        raises the ``TypeError`` of :attr:`Event.chain`, which names the
        event, or is left out with ``skip_chainless`` (the monitor's rule).
        """
        values, appends = history._values, history._appends
        for position, eid in zip(appends.tolist(), history._eids[appends].tolist()):
            if isinstance(values[position], Block):
                self.note_append(values[position].block_id, eid)
        positions = history._reads
        chains = [values[position] for position in positions.tolist()]
        eids = history._eids[positions]
        # One step per distinct tip object (a value that is no chain stands
        # for itself), in order of first read.
        keys = np.array([id(c.blocks[-1]) if c.__class__ is Blockchain else id(c) for c in chains])
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        resolved = np.full(len(first), -1, dtype=np.int64)
        for k in np.argsort(first).tolist():
            row = int(first[k])
            if isinstance(chains[row], Blockchain):
                resolved[k] = self._tip_node(chains[row], int(eids[row]))
            elif not skip_chainless:
                history._events_at([int(positions[row])])[0].chain  # raises, naming the event
        nodes = resolved[inverse]
        keep = nodes >= 0
        if not keep.all():  # chainless reads, skipped
            positions, nodes, eids = positions[keep], nodes[keep], eids[keep]
            chains = list(compress(chains, keep.tolist()))
        # The history's process codes, renumbered in order of first read.
        processes = history._procs[positions]
        codes, first = np.unique(processes, return_index=True)
        renumbered = np.zeros(len(history._names), dtype=np.int64)
        names, known = history._names, self._process_code
        for code in codes[np.argsort(first)].tolist():
            renumbered[code] = known.setdefault(names[code], len(known))
        self._runs.append((len(self.chains), history, positions))
        self.chains.extend(chains)
        self._tips.frombytes(nodes.tobytes())
        self._procs.frombytes(renumbered[processes].tobytes())
        self._eids.frombytes(eids.tobytes())
        return self

    def add_read(self, read: Event) -> None:
        """Merge the chain a read response returned; enter it in the read table.

        A read whose tip block the index holds already — that very object —
        is entered in O(1); any other chain is merged by :meth:`_merge`'s
        walk, with its content check.
        """
        chain = read.output
        if not (isinstance(chain, Blockchain) and read.is_read_response):
            chain = read.chain  # raises the TypeError naming the event
        node = self._tip_node(chain, read.eid)
        codes = self._process_code
        self._runs.append((len(self.chains), read, None))
        self.chains.append(chain)
        self._tips.append(node)
        self._procs.append(codes.setdefault(read.process, len(codes)))
        self._eids.append(read.eid)

    def _tip_node(self, chain: Blockchain, read_eid: int) -> int:
        """``chain``'s tip node: O(1) for the very block object held, else the walk."""
        tip = chain.blocks[-1]
        node = self._node.get(tip.block_id)
        if node is None or self._blocks[node] is not tip:
            node = self._merge(chain.blocks, read_eid)
        return node

    def read(self, position: int) -> Event:
        """The read response at ``position`` in the read table (built on demand
        when it came from a history's columns)."""
        at = bisect_right(self._runs, position, key=itemgetter(0)) - 1
        first, source, positions = self._runs[at]
        if positions is None:
            return source
        return source._events_at([int(positions[position - first])])[0]

    @property
    def reads(self) -> List[Event]:
        """Every read response of the read table, in arrival order (each built)."""
        return [self.read(position) for position in range(len(self.chains))]

    def _merge(self, blocks: Tuple[Block, ...], read_eid: Optional[int]) -> int:
        """Merge a chain's ``blocks`` into the analysis tree; returns the tip's node.

        Walks the chain tip-first and stops at the first block already
        indexed, so a fully known chain costs O(1) and the total merge
        cost over a history is O(distinct blocks + reads).  The block at
        the stop point is compared against the stored block, enforcing
        the id-uniqueness assumption documented in the module docstring.
        """
        if not self._blocks:
            self._insert(blocks[0], -1, -1)
        known = self._node
        i = len(blocks) - 1
        while i >= 0 and blocks[i].block_id not in known:
            i -= 1
        if i < 0:
            raise InconsistentChainError(
                f"chain rooted at {blocks[0].block_id!r} does not share the "
                f"index genesis {self._blocks[0].block_id!r}"
            )
        stop = blocks[i]
        node = known[stop.block_id]
        stored = self._blocks[node]
        if stored is not stop and stored != stop:
            raise InconsistentChainError(
                f"block id {stop.block_id!r} carries different content in "
                "different read results"
            )
        if i + 1 < len(blocks):
            first_seen = -1 if read_eid is None else read_eid
            for block in blocks[i + 1 :]:
                node = self._insert(block, node, first_seen)
            self._mutations += 1
        return node

    def _insert(self, block: Block, parent: int, first_seen: int) -> int:
        node = len(self._blocks)
        self._node[block.block_id] = node
        self._blocks.append(block)
        self._parent.append(parent)
        self._children.append([])
        if parent < 0:
            self._height.append(0)
            self._cum_weight.append(0.0)
        else:
            self._children[parent].append(node)
            self._height.append(self._height[parent] + 1)
            self._cum_weight.append(self._cum_weight[parent] + block.weight)
        self._first_seen.append(first_seen)
        return node

    # -- basic accessors ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def block(self, block_id: str) -> Block:
        return self._blocks[self._node[block_id]]

    def block_ids(self) -> Tuple[str, ...]:
        """Identifiers in node (insertion, parents-first) order."""
        return tuple(block.block_id for block in self._blocks)

    def block_id(self, node: int) -> str:
        """Identifier of the block numbered ``node``."""
        return self._blocks[node].block_id

    def height_of(self, block_id: str) -> int:
        return self._height[self._node[block_id]]

    def read_tip(self, position: int) -> str:
        """Tip block id of the chain returned by the read at ``position``."""
        return self._blocks[self._tips[position]].block_id

    def first_seen_read(self, block_id: str) -> Optional[int]:
        """Eid of the earliest read whose chain contains ``block_id``."""
        eid = self._first_seen[self._node[block_id]] if block_id in self._node else -1
        return None if eid < 0 else eid

    def first_append(self, block_id: str) -> Optional[int]:
        """Eid of the earliest append invocation for ``block_id``."""
        return self._first_append.get(block_id)

    def note_append(self, block_id: str, eid: int) -> None:
        """Record an append invocation of ``block_id`` (the earliest one is kept)."""
        self._first_append.setdefault(block_id, eid)

    # -- the read table as columns ----------------------------------------------

    def read_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(tips, processes, eids)``: per read, its tip node, process code and eid.

        int64 arrays, one row per entry of :attr:`reads`; kept until the
        next read.
        """
        if len(self._table[0]) != len(self.chains):
            self._table = (
                np.array(self._tips, dtype=np.int64),
                np.array(self._procs, dtype=np.int64),
                np.array(self._eids, dtype=np.int64),
            )
        return self._table

    def process_names(self) -> List[str]:
        """The processes of the read table, by code."""
        return list(self._process_code)

    # -- ancestry -------------------------------------------------------------

    def _ensure_labels(self) -> None:
        if self._labels_at == self._mutations or not self._blocks:
            return
        tin = [0] * len(self._blocks)
        tout = [0] * len(self._blocks)
        children = self._children
        clock = 0
        # Iterative DFS (histories can hold chains deeper than the
        # interpreter's recursion limit).
        stack: List[Tuple[int, bool]] = [(0, False)]
        while stack:
            node, done = stack.pop()
            if done:
                tout[node] = clock
                clock += 1
                continue
            tin[node] = clock
            clock += 1
            stack.append((node, True))
            stack.extend((child, False) for child in children[node])
        self._tin, self._tout = tin, tout
        self._labels_at = self._mutations

    def prefix_related(self, a: str, b: str) -> bool:
        """``True`` iff the chains to ``a`` and ``b`` do *not* diverge."""
        self._ensure_labels()
        tin, tout, node = self._tin, self._tout, self._node
        x, y = node[a], node[b]
        if tin[x] <= tin[y]:
            return tin[y] <= tout[x]
        return tin[x] <= tout[y]

    def lowest_common_ancestor(self, a: str, b: str) -> str:
        """LCA of two blocks (always exists: the shared genesis)."""
        height, parent = self._height, self._parent
        x, y = self._node[a], self._node[b]
        hx, hy = height[x], height[y]
        while hx > hy:
            x = parent[x]
            hx -= 1
        while hy > hx:
            y = parent[y]
            hy -= 1
        while x != y:
            x = parent[x]
            y = parent[y]
        return self._blocks[x].block_id

    def on_path(self, weights: np.ndarray) -> np.ndarray:
        """Per node, the sum of ``weights`` (one per node) over its root path,
        the node itself included.

        Every node adds its weight over its subtree's label range, as a
        difference array: one cumulative sum, O(blocks).
        """
        self._ensure_labels()
        tin = np.array(self._tin, dtype=np.int64)
        diff = np.zeros(2 * len(self._blocks) + 1, dtype=weights.dtype)
        diff[tin] += weights
        diff[np.array(self._tout, dtype=np.int64) + 1] -= weights
        return np.cumsum(diff)[tin]

    # -- scores ---------------------------------------------------------------

    def path_score(self, block_id: str, score: ScoreFunction) -> Optional[float]:
        """Score of the chain ending at ``block_id``, off the indexes.

        Returns ``None`` for score functions that are not index-backed
        (callers fall back to scoring the materialized chain; the two
        built-in families cover every score used in this reproduction).
        """
        node = self._node[block_id]
        if isinstance(score, LengthScore):
            return float(self._height[node])
        if isinstance(score, WeightScore):
            base = self._cum_weight[node]
            return float(base + score.min_increment * self._height[node])
        return None

    def read_scores(self, score: ScoreFunction) -> np.ndarray:
        """Score of every chain in the read table, as a float64 array.

        Off the tree's columns for the index-backed score families (the
        same float operations as :meth:`path_score`); any other score
        function scores the chains themselves.  Kept for the score
        function last asked for and extended as reads arrive, so the
        properties that compare scores share one pass.
        """
        if self._scored_by != score:
            self._scored_by, self._scores = score, _NO_SCORES
        done = len(self._scores)
        if done < len(self.chains):
            tips = self.read_table()[0][done:]
            if isinstance(score, (LengthScore, WeightScore)):
                heights = np.array(self._height, dtype=np.int64)[tips]
                if isinstance(score, LengthScore):
                    new = heights.astype(np.float64)
                else:
                    cum = np.array(self._cum_weight, dtype=np.float64)[tips]
                    new = cum + score.min_increment * heights
            else:
                new = np.array(
                    [score(chain) for chain in self.chains[done:]], dtype=np.float64
                )
            self._scores = np.concatenate((self._scores, new)) if done else new
        return self._scores

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

    def diverging_pair_count(self, tips: np.ndarray) -> int:
        """Number of pairs ``i < j`` whose chains, ending at nodes ``tips[i]``
        and ``tips[j]``, diverge.

        All pairs minus the comparable ones.  A tip is comparable with its
        own copies and with the tips on its root path: with ``m`` tips per
        node and ``above`` of them strictly on the root path,
        ``Σ m·(m-1)/2 + m·above`` — O(blocks + tips), no pair is visited.
        """
        n = len(tips)
        if n < 2:
            return 0
        multiplicity = np.bincount(tips, minlength=len(self._blocks))
        above = self.on_path(multiplicity) - multiplicity
        comparable = multiplicity * (multiplicity - 1) // 2 + multiplicity * above
        return n * (n - 1) // 2 - int(comparable.sum())

    def last_diverging(self, tips: np.ndarray) -> np.ndarray:
        """Per position ``i``, the last position whose tip diverges from ``tips[i]`` (-1: none).

        Two chains diverge iff their tips' DFS label intervals are
        disjoint: the other tip's subtree closes before this one opens
        (``tout < tin``) or opens after this one closes (``tin > tout``).
        With the last position of each distinct tip, a running maximum
        over each label order answers both sides: O(tips + D·log D) for
        D distinct tips, no pair is visited.
        """
        self._ensure_labels()
        distinct, from_end = np.unique(tips[::-1], return_index=True)
        last = len(tips) - 1 - from_end
        tin = np.array(self._tin, dtype=np.int64)[distinct]
        tout = np.array(self._tout, dtype=np.int64)[distinct]
        by_out, by_in = np.argsort(tout), np.argsort(tin)
        # Closed before: the tips whose tout is below tin, a prefix in tout order.
        closed = np.searchsorted(tout[by_out], tin)
        running = np.concatenate(([-1], np.maximum.accumulate(last[by_out])))
        before = running[closed]
        # Opened after: the tips whose tin is above tout, a suffix in tin order.
        opened = np.searchsorted(tin[by_in], tout, side="right")
        running = np.concatenate((np.maximum.accumulate(last[by_in][::-1])[::-1], [-1]))
        after = running[opened]
        return np.maximum(before, after)[np.searchsorted(distinct, tips)]

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
        chains = [self.chains[at] for at in limits]
        tips = [self.read_tip(at) for at in limits]
        for x in range(len(limits)):
            for y in range(x + 1, len(limits)):
                if self.prefix_related(tips[x], tips[y]):
                    continue
                cut, other = sorted((limits[x], limits[y]))
                reached = bisect_left(ceilings, (cut,))  # increase points before cut
                if not reached:
                    continue
                shared = self.mcps_of_tips(
                    tips[x], tips[y], score, chains=(chains[x], chains[y])
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
# Consistency monitor
# ---------------------------------------------------------------------------


class ConsistencyMonitor:
    """Consistency reports of a finished history.

    :meth:`replay` enters the history's append invocations and its read
    responses that carry a chain in a :class:`ConsistencyIndex`, off its
    columns, building no event.  :meth:`reports` hands that index to
    :func:`repro.core.consistency.check_consistency`: verdicts, counts and
    witnesses are the post-hoc ones of the raw history, kept until the next
    replay.  A ``monitor=True`` spec replays nothing (:func:`monitor_summary`).
    """

    def __init__(self, score: Optional[ScoreFunction] = None) -> None:
        self.score = score if score is not None else LengthScore()
        self.index = ConsistencyIndex()
        self.events_seen = 0
        self._reports: Optional[Tuple[ConsistencyReport, ConsistencyReport]] = None

    def replay(self, history: History) -> "ConsistencyMonitor":
        """Enter ``history`` in the index (:meth:`ConsistencyIndex.ingest`,
        chainless reads skipped); every event counts in ``events_seen``,
        once the whole history is in (a replay that raises counts none)."""
        self._reports = None
        self.index.ingest(history, skip_chainless=True)
        self.events_seen += len(history)
        return self

    @property
    def reads_seen(self) -> int:
        return len(self.index.chains)

    # -- verdicts -------------------------------------------------------------

    def reports(self) -> Tuple[ConsistencyReport, ConsistencyReport]:
        """The ``(strong, eventual)`` reports of the history replayed."""
        if self._reports is None:
            # Call-time import: repro.core.consistency imports this module.
            from repro.core.consistency import check_consistency

            self._reports = check_consistency(None, self.score, index=self.index)
        return self._reports

    def strong_holds(self) -> bool:
        """BT Strong Consistency verdict on the history replayed."""
        return self.reports()[0].holds

    def eventual_holds(self) -> bool:
        """BT Eventual Consistency verdict on the history replayed."""
        return self.reports()[1].holds

    def summary(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the verdicts and intake counters."""
        return monitor_summary(self.reports(), self.index, self.events_seen)


def monitor_summary(reports: Tuple, index: ConsistencyIndex, events: int) -> Dict[str, Any]:
    """The monitor payload of ``index``'s ``(strong, eventual)`` reports and intake counts."""
    strong, eventual = reports
    results = (*strong.results, eventual.result_for("eventual-prefix"))
    return {
        "strong": strong.holds,
        "eventual": eventual.holds,
        "properties": {result.name: result.holds for result in results},
        "reads": len(index.chains),
        "events": events,
        "blocks_indexed": len(index),
    }
