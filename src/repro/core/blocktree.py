"""The BlockTree: the append-only rooted tree maintained by blockchains.

Section 3.1 of the paper formalizes the data structure implemented by
blockchain-like systems as a directed rooted tree ``bt = (V_bt, E_bt)``
whose root is the genesis block ``b0`` and in which every edge points back
towards the root.  A *blockchain* is a path from a leaf (or, more
generally, any vertex) back to ``b0``.

:class:`BlockTree` below is the mutable store underneath both the
sequential BT-ADT (:mod:`repro.core.bt_adt`) and every replica of the
message-passing protocol models (:mod:`repro.protocols`).  It supports:

* appending a block under an existing parent (forks are allowed — that is
  the whole point of the tree formulation);
* height / depth queries, leaves and branch enumeration;
* extraction of the chain leading to any block (``chain_to``);
* subtree weights, which the GHOST selection function needs;
* structural merge (used when a replica receives updates out of order).

Because the selection function ``f(bt)`` is evaluated on virtually every
delivery/mining event of a protocol run, the tree also maintains the
*per-leaf score indexes* the selection rules in
:mod:`repro.core.selection` read: every block's height (chain length
score) and cumulative root-to-block weight (chain weight score) are
updated incrementally in ``append`` — and therefore by ``merge`` and
``copy``, which funnel through or duplicate them — so selecting a tip
never rematerializes chains.  The indexes live on preallocated numpy
columns (:class:`_TreeColumns`) and there is no other index in this
module: the per-block dict index they replaced is the test-side oracle
``ReferenceBlockTree`` (``tests/network/reference_plane.py``).  A
monotone ``version`` counter, bumped on every mutation, backs a small
selection memo (``cached_selection`` / ``cache_selection``) that makes
repeated reads between mutations O(1).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.block import GENESIS_ID, Block, Blockchain, genesis_block
from repro.core.errors import StaleSnapshotError

__all__ = ["BlockTree", "UnknownParentError", "DuplicateBlockError"]


class _TreeColumns:
    """Columnar score index of one :class:`BlockTree`.

    Blocks are numbered by insertion order (``slots``); ``parents`` maps
    each slot to its parent slot (-1 for genesis) so ancestor walks are
    int hops, and the three numpy columns carry the per-block height,
    cumulative root-to-block weight and subtree weight that the
    selection rules read.  Arrays are preallocated and doubled on
    demand; pickling trims them to the filled prefix.

    Subtree weights settle lazily: ``append`` only seeds the new block's
    own weight, and the blocks from ``settled`` on still owe theirs to
    their ancestors.  :meth:`settle` pays that debt, in append order,
    before anything reads the column (``BlockTree.subtree_weight``,
    ``ghost_tip``, ``copy``, pickling), so every ancestor receives the
    same IEEE additions in the same order as an eager walk per append.
    """

    __slots__ = ("slots", "ids", "parents", "height", "cum_weight",
                 "subtree_weight", "size", "settled")

    def __init__(self, root: Block, capacity: int = 256) -> None:
        self.slots: Dict[str, int] = {root.block_id: 0}
        self.ids: List[str] = [root.block_id]
        self.parents: List[int] = [-1]
        self.height = np.zeros(capacity, dtype=np.int64)
        self.cum_weight = np.zeros(capacity, dtype=np.float64)
        self.subtree_weight = np.zeros(capacity, dtype=np.float64)
        self.subtree_weight[0] = root.weight
        self.size = 1
        self.settled = 1

    def grow(self) -> None:
        capacity = max(64, 2 * len(self.height))
        size = self.size
        for name in ("height", "cum_weight", "subtree_weight"):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=old.dtype)
            grown[:size] = old[:size]
            setattr(self, name, grown)

    def append(self, parent_id: str, block_id: str, weight: float) -> int:
        """``BlockTree.append``'s index maintenance; returns the new height.

        Assign the next slot, extend the id/parent columns, set height /
        cumulative weight and seed the subtree weight; the ancestors get
        ``weight`` when the column is next read (:meth:`settle`).
        """
        slots = self.slots
        parent = slots[parent_id]
        slot = self.size
        if slot >= len(self.height):
            self.grow()
        height = self.height
        slots[block_id] = slot
        self.ids.append(block_id)
        self.parents.append(parent)
        new_height = int(height[parent]) + 1
        height[slot] = new_height
        cum = self.cum_weight
        cum[slot] = float(cum[parent]) + weight
        self.subtree_weight[slot] = weight
        self.size = slot + 1
        return new_height

    def settle(self) -> None:
        """Add every unsettled block's weight along its ancestor path.

        The paths are concatenated in append order and applied with one
        ``np.add.at``, which adds repeated indexes one after another in
        index order — so each ancestor sums its descendants' weights in
        the order they were appended, as the eager walk did.  An
        unsettled block's own entry is still exactly its weight: only
        later blocks, settled after it, add to it.
        """
        start = self.settled
        size = self.size
        if start == size:
            return
        parents = self.parents
        path: List[int] = []
        lengths: List[int] = []
        for slot in range(start, size):
            before = len(path)
            cursor = parents[slot]
            while cursor >= 0:
                path.append(cursor)
                cursor = parents[cursor]
            lengths.append(len(path) - before)
        sub = self.subtree_weight
        np.add.at(sub, path, np.repeat(sub[start:size], lengths))
        self.settled = size

    def copy(self) -> "_TreeColumns":
        self.settle()
        clone = object.__new__(_TreeColumns)
        clone.slots = dict(self.slots)
        clone.ids = list(self.ids)
        clone.parents = list(self.parents)
        clone.height = self.height[: self.size].copy()
        clone.cum_weight = self.cum_weight[: self.size].copy()
        clone.subtree_weight = self.subtree_weight[: self.size].copy()
        clone.size = clone.settled = self.size
        return clone

    # Checkpoint support: trim the preallocated tails (a restored column
    # set regrows on the next append) and settle first, so a snapshot
    # holds final subtree weights.
    def __getstate__(self):
        self.settle()
        return (
            self.slots,
            self.ids,
            self.parents,
            self.height[: self.size].copy(),
            self.cum_weight[: self.size].copy(),
            self.subtree_weight[: self.size].copy(),
            self.size,
        )

    def __setstate__(self, state):
        (
            self.slots,
            self.ids,
            self.parents,
            self.height,
            self.cum_weight,
            self.subtree_weight,
            self.size,
        ) = state
        self.settled = self.size


class UnknownParentError(KeyError):
    """Raised when appending a block whose parent is not in the tree."""


class DuplicateBlockError(ValueError):
    """Raised when appending a block identifier already present in the tree."""


class BlockTree:
    """Append-only rooted tree of blocks.

    The tree always contains the genesis block.  Blocks can only be added
    under a parent that is already present; removing blocks is not
    supported (the structure is append-only by construction, mirroring the
    ADT whose transition function never deletes vertices).

    The class is deliberately *not* thread-safe: concurrency in this
    reproduction is modelled explicitly (cooperative scheduler, discrete-
    event simulator), never via preemptive threads.
    """

    def __init__(self, genesis: Optional[Block] = None) -> None:
        root = genesis if genesis is not None else genesis_block()
        if not root.is_genesis:
            raise ValueError("BlockTree must be rooted at a genesis block")
        self._blocks: Dict[str, Block] = {root.block_id: root}
        self._children: Dict[str, List[str]] = {root.block_id: []}
        # Score indexes: per-block height, cumulative root-to-block weight
        # (accumulated root-first, so it is bit-identical to
        # ``WeightScore`` summing the materialized chain) and subtree
        # weight, on numpy columns maintained by :meth:`_TreeColumns.append`
        # (subtree weights settled lazily, see :class:`_TreeColumns`).
        # They are what the selection rules read instead of rebuilding
        # every chain.
        self._columns = _TreeColumns(root)
        # (leaf ids, height column, cum-weight column) memo for the
        # vectorized tip selection, tagged with the version it was built
        # at (see ``leaf_index``).
        self._leaf_index_cache: Optional[Tuple[int, Any]] = None
        self._genesis = root
        # Incremental caches, maintained by ``append`` (and therefore by
        # ``merge``, which funnels through ``append``): the tree height and
        # the current leaves in block-insertion order.  ``_leaves`` is a dict
        # used as an ordered set, so ``leaves()`` stays O(#leaves) instead of
        # scanning every block.
        self._height: int = 0
        self._leaves: Dict[str, None] = {root.block_id: None}
        # Fork bookkeeping, also maintained by ``append``: blocks with two
        # or more children (in the order they *became* fork points), the
        # maximal child count seen so far, and a height → block ids index
        # (ids in insertion order, as the former full scan returned them).
        # ``analysis/forks.py`` queries all three once per replica per run.
        self._fork_points: Dict[str, None] = {}
        self._max_fork_degree: int = 0
        self._by_height: Dict[int, List[str]] = {0: [root.block_id]}
        # Monotone mutation counter plus a keyed memo of selection results.
        # ``version`` never decreases and is bumped by every ``append``, so
        # a memo entry tagged with the current version is still valid.
        self._version: int = 0
        self._selection_memo: Dict[Hashable, Tuple[int, Any]] = {}

    # -- basic introspection ------------------------------------------------

    @property
    def genesis(self) -> Block:
        """The root ``b0`` of the tree."""
        return self._genesis

    def __len__(self) -> int:
        """Number of blocks in the tree, genesis included."""
        return len(self._blocks)

    def __contains__(self, block_id: object) -> bool:
        if isinstance(block_id, Block):
            return block_id.block_id in self._blocks
        return block_id in self._blocks

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def get(self, block_id: str) -> Block:
        """Return the block with identifier ``block_id``.

        Raises
        ------
        KeyError
            if no such block is in the tree.
        """
        return self._blocks[block_id]

    def height_of(self, block_id: str) -> int:
        """Distance from ``block_id`` to the root (genesis has height 0)."""
        cols = self._columns
        return int(cols.height[cols.slots[block_id]])

    def cumulative_weight(self, block_id: str) -> float:
        """Total non-genesis weight on the path from genesis to ``block_id``.

        This is the incrementally maintained ``WeightScore`` of the chain
        ending at ``block_id``: the weights are accumulated root-first at
        append time, so the float is identical to summing the materialized
        chain block by block.
        """
        cols = self._columns
        return float(cols.cum_weight[cols.slots[block_id]])

    @property
    def height(self) -> int:
        """Height of the tree: the maximal block height (cached, O(1))."""
        return self._height

    @property
    def version(self) -> int:
        """Monotone mutation counter: bumped by every successful append."""
        return self._version

    # -- selection memo -------------------------------------------------------

    def cached_selection(self, key: Hashable) -> Optional[Any]:
        """Return the memoized selection result for ``key``, if still valid.

        A memo entry is valid iff it was stored at the current ``version``;
        any append invalidates (and clears) every entry, so the memo only
        ever holds current-version results.  The version tag is kept as a
        second guard for copies.  Unhashable keys simply miss.
        """
        try:
            entry = self._selection_memo.get(key)
        except TypeError:  # unhashable selection (custom user score object)
            return None
        if entry is not None and entry[0] == self._version:
            return entry[1]
        return None

    def cache_selection(self, key: Hashable, value: Any) -> None:
        """Memoize a selection result for ``key`` at the current version."""
        try:
            self._selection_memo[key] = (self._version, value)
        except TypeError:  # unhashable selection: silently skip the memo
            pass

    def children_of(self, block_id: str) -> Tuple[str, ...]:
        """Identifiers of the direct children of ``block_id``."""
        return tuple(self._children[block_id])

    def parent_of(self, block_id: str) -> Optional[str]:
        """Identifier of the parent of ``block_id`` (``None`` for genesis)."""
        return self._blocks[block_id].parent_id

    def block_ids(self) -> Tuple[str, ...]:
        """All block identifiers currently in the tree (insertion order)."""
        return tuple(self._blocks)

    # -- mutation -------------------------------------------------------------

    def append(self, block: Block) -> Block:
        """Insert ``block`` under its declared parent.

        This is the side-effect of the BT-ADT ``append`` operation *after*
        validity has been established; validity checking itself lives in
        :mod:`repro.core.validity` / :mod:`repro.core.bt_adt`.

        Returns the inserted block (handy for chaining in tests).

        Raises
        ------
        DuplicateBlockError
            if a block with the same identifier is already present.
        UnknownParentError
            if the declared parent is not in the tree.
        ValueError
            if ``block`` is a second genesis block.
        """
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
        height = self._columns.append(block.parent_id, block.block_id, block.weight)
        self._by_height.setdefault(height, []).append(block.block_id)
        if height > self._height:
            self._height = height
        self._leaves.pop(block.parent_id, None)
        self._leaves[block.block_id] = None
        self._version += 1
        # Every memo entry is now stale (it was tagged with the previous
        # version), so drop them eagerly: otherwise per-call selection keys
        # (e.g. a freshly pinned FixedTipSelection per commit) would
        # accumulate dead entries for the lifetime of the tree.
        if self._selection_memo:
            self._selection_memo.clear()
        return block

    def merge(self, other: "BlockTree") -> int:
        """Insert every block of ``other`` not yet present, parents first.

        Used by replicas that reconcile state snapshots.  Returns the
        number of blocks actually inserted.
        """
        inserted = 0
        pending = [b for b in other if not b.is_genesis and b.block_id not in self]
        # Repeatedly sweep until no progress: parents may arrive after children.
        while pending:
            progressed = False
            remaining: List[Block] = []
            for block in pending:
                if block.parent_id in self:
                    self.append(block)
                    inserted += 1
                    progressed = True
                else:
                    remaining.append(block)
            if not progressed:
                missing = sorted({b.parent_id for b in remaining if b.parent_id})
                raise UnknownParentError(
                    f"cannot merge: missing ancestors {missing}"
                )
            pending = remaining
        return inserted

    # -- tree queries -------------------------------------------------------

    def leaves(self) -> Tuple[str, ...]:
        """Identifiers of all leaves (blocks without children), cached."""
        return tuple(self._leaves)

    def chain_to(self, block_id: str) -> Blockchain:
        """Return the blockchain from genesis up to ``block_id`` inclusive."""
        if block_id not in self._blocks:
            raise KeyError(block_id)
        path: List[Block] = []
        cursor: Optional[str] = block_id
        while cursor is not None:
            block = self._blocks[cursor]
            path.append(block)
            cursor = block.parent_id
        path.reverse()
        return Blockchain(tuple(path))

    def all_chains(self) -> Tuple[Blockchain, ...]:
        """Every maximal blockchain (one per leaf), in insertion order."""
        return tuple(self.chain_to(leaf) for leaf in self.leaves())

    def ancestors(self, block_id: str) -> Tuple[str, ...]:
        """Identifiers of the proper ancestors of ``block_id``, child-to-root."""
        result: List[str] = []
        cursor = self.parent_of(block_id)
        while cursor is not None:
            result.append(cursor)
            cursor = self.parent_of(cursor)
        return tuple(result)

    def is_ancestor(self, ancestor_id: str, descendant_id: str) -> bool:
        """``True`` iff ``ancestor_id`` lies on the path from ``descendant_id`` to genesis."""
        cols = self._columns
        slots = cols.slots
        ancestor = slots.get(ancestor_id)
        descendant = slots.get(descendant_id)
        if ancestor is None or descendant is None:
            return False
        height = cols.height
        gap = int(height[descendant]) - int(height[ancestor])
        if gap < 0:
            return False
        # Walk exactly the height gap, as int hops over parent slots: the
        # cached heights tell us how many parent hops separate the two
        # blocks, so no per-step membership or height re-checks are needed.
        parents = cols.parents
        cursor = descendant
        for _ in range(gap):
            cursor = parents[cursor]
        return cursor == ancestor

    def common_ancestor(self, a: str, b: str) -> str:
        """Lowest common ancestor of two blocks (always exists: genesis)."""
        cols = self._columns
        slots = cols.slots
        parents = cols.parents
        height = cols.height
        sa, sb = slots[a], slots[b]
        ha, hb = int(height[sa]), int(height[sb])
        # Equalize levels by walking exactly the height gap, then climb in
        # lockstep; heights are tracked locally so each step is one hop.
        while ha > hb:
            sa = parents[sa]
            ha -= 1
        while hb > ha:
            sb = parents[sb]
            hb -= 1
        while sa != sb:
            sa = parents[sa]
            sb = parents[sb]
        return cols.ids[sa]

    def subtree_weight(self, block_id: str) -> float:
        """Total weight of the subtree rooted at ``block_id`` (incl. itself).

        This is the quantity GHOST greedily maximizes when descending the
        tree (Sompolinsky & Zohar; used by the Ethereum model).
        """
        cols = self._columns
        cols.settle()
        return float(cols.subtree_weight[cols.slots[block_id]])

    def leaf_index(self) -> Tuple[List[str], Any, Any]:
        """(leaf ids, height column, cum-weight column) over current leaves.

        The tip-selection input, cached per tree version: plain lists
        for a handful of leaves, numpy columns beyond that.
        """
        cols = self._columns
        cache = self._leaf_index_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        leaf_ids = list(self._leaves)
        slots = cols.slots
        if len(leaf_ids) <= 32:
            # Fork trees carry a handful of live leaves; scalar column
            # reads beat the fixed cost of building index arrays there.
            height = cols.height
            cum = cols.cum_weight
            heights: List[int] = []
            cums: List[float] = []
            for leaf in leaf_ids:
                slot = slots[leaf]
                heights.append(int(height[slot]))
                cums.append(float(cum[slot]))
            value = (leaf_ids, heights, cums)
        else:
            idx = np.fromiter(
                (slots[leaf] for leaf in leaf_ids), dtype=np.int64, count=len(leaf_ids)
            )
            value = (leaf_ids, cols.height[idx], cols.cum_weight[idx])
        self._leaf_index_cache = (self._version, value)
        return value

    def ghost_tip(self) -> str:
        """GHOST's greedy heaviest-subtree descent on the columnar index.

        Returns the tip block id.  Single-child levels skip the weight
        read entirely; ties break to the larger block id, exactly as a
        ``max`` over ``(weight, child)`` keys does.
        """
        cols = self._columns
        cols.settle()
        children = self._children
        slots = cols.slots
        sub = cols.subtree_weight
        cursor = self._genesis.block_id
        while True:
            kids = children[cursor]
            if not kids:
                return cursor
            if len(kids) == 1:
                cursor = kids[0]
                continue
            best = kids[0]
            best_weight = sub[slots[best]]
            for kid in kids[1:]:
                weight = sub[slots[kid]]
                if weight > best_weight or (weight == best_weight and kid > best):
                    best = kid
                    best_weight = weight
            cursor = best

    def fork_points(self) -> Tuple[str, ...]:
        """Blocks with two or more children, i.e. where forks occurred.

        Maintained incrementally by ``append`` (a parent enters the tuple
        the moment its second child arrives), so the query is O(#forks)
        instead of a scan over every block.
        """
        return tuple(self._fork_points)

    def fork_degree(self, block_id: str) -> int:
        """Number of children of ``block_id`` — the paper's per-block fork count."""
        return len(self._children[block_id])

    def max_fork_degree(self) -> int:
        """Maximum number of children over all blocks (0 for a bare genesis).

        Cached: ``append`` bumps the maximum whenever a parent's child
        count exceeds it (the count never decreases — the tree is
        append-only).
        """
        return self._max_fork_degree

    def blocks_at_height(self, height: int) -> Tuple[str, ...]:
        """All block identifiers at the given height (insertion order), cached."""
        return tuple(self._by_height.get(height, ()))

    def copy(self) -> "BlockTree":
        """Deep-enough copy sharing immutable blocks but not the indices."""
        clone = type(self)(self._genesis)
        clone._columns = self._columns.copy()
        clone._blocks = dict(self._blocks)
        clone._children = {k: list(v) for k, v in self._children.items()}
        clone._height = self._height
        clone._leaves = dict(self._leaves)
        # The leaf-index memo's arrays are per-version copies, safe to
        # share between content-identical trees.
        clone._leaf_index_cache = self._leaf_index_cache
        clone._fork_points = dict(self._fork_points)
        clone._max_fork_degree = self._max_fork_degree
        clone._by_height = {k: list(v) for k, v in self._by_height.items()}
        # The clone is content-identical at this version, so the memoized
        # selection results (immutable Blockchain values) stay valid for it;
        # any divergent append bumps the respective tree's own counter.
        clone._version = self._version
        clone._selection_memo = dict(self._selection_memo)
        return clone

    def __setstate__(self, state):
        # A tree checkpointed before the columnar index existed (or built
        # on the since-removed dict index) carries no columns, and nothing
        # here can read its dicts any more: refuse it instead of restoring
        # a tree whose every query would fail.  (The leaf-index memo arrived
        # with the columns, so a state that has them needs no defaults.)
        if state.get("_columns") is None:
            raise StaleSnapshotError(
                "cannot restore this BlockTree snapshot: it was taken on the "
                "dict score index, which has been removed (trees now keep "
                "their indexes on numpy columns); re-run instead of resuming"
            )
        self.__dict__.update(state)

    # -- presentation ---------------------------------------------------------

    def to_ascii(self) -> str:
        """Render the tree as indented ASCII (for examples and debugging)."""
        lines: List[str] = []

        def walk(node: str, depth: int) -> None:
            prefix = "  " * depth + ("└─ " if depth else "")
            lines.append(f"{prefix}{node}")
            for child in self._children[node]:
                walk(child, depth + 1)

        walk(GENESIS_ID if GENESIS_ID in self._blocks else self._genesis.block_id, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockTree(blocks={len(self)}, height={self.height}, "
            f"leaves={len(self.leaves())})"
        )
