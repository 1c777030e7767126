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
* subtree weights, which the GHOST selection function needs.

Because the selection function ``f(bt)`` is evaluated on virtually every
delivery/mining event of a protocol run, the tree also maintains the
*per-leaf score indexes* the selection rules in
:mod:`repro.core.selection` read: every block's height (chain length
score) and cumulative root-to-block weight (chain weight score) are
updated incrementally in ``append`` — and duplicated by ``copy`` — so
selecting a tip never rematerializes chains.  The indexes live on preallocated numpy
columns (:class:`_TreeColumns`) and there is no other index in this
module: the per-block dict index they replaced is the test-side oracle
``ReferenceBlockTree`` (``tests/network/reference_plane.py``).  A
monotone version counter, bumped on every mutation, backs a small
selection memo (``cached_selection`` / ``cache_selection``) that makes
repeated reads between mutations O(1).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.block import GENESIS_ID, Block, Blockchain, genesis_block

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
        # Incremental caches, maintained by ``append``: the tree height and
        # the current leaves in block-insertion order.  ``_leaves`` is a dict
        # used as an ordered set, so ``leaves()`` stays O(#leaves) instead of
        # scanning every block.
        self._height: int = 0
        self._leaves: Dict[str, None] = {root.block_id: None}
        # Fork bookkeeping, also maintained by ``append``: blocks with two
        # or more children (in the order they *became* fork points) and the
        # maximal child count seen so far.  ``analysis/forks.py`` queries
        # both once per replica per run.
        self._fork_points: Dict[str, None] = {}
        self._max_fork_degree: int = 0
        # Monotone mutation counter plus a keyed memo of selection results.
        # ``_version`` never decreases and is bumped by every ``append``, so
        # a memo entry tagged with the current version is still valid.
        self._version: int = 0
        self._selection_memo: Dict[Hashable, Tuple[int, Any]] = {}
        # The last chain ``chain_to`` built: a path of the tree for good.
        self._last_chain: Blockchain = Blockchain((root,))

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

    # -- selection memo -------------------------------------------------------

    def cached_selection(self, key: Hashable) -> Optional[Any]:
        """Return the memoized selection result for ``key``, if still valid.

        A memo entry is valid iff it was stored at the current version;
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

    # -- tree queries -------------------------------------------------------

    def leaves(self) -> Tuple[str, ...]:
        """Identifiers of all leaves (blocks without children), cached."""
        return tuple(self._leaves)

    def chain_to(self, block_id: str) -> Blockchain:
        """Return the blockchain from genesis up to ``block_id`` inclusive.

        Reads follow a growing chain, so the last chain built is reused: as
        is for its own tip, :meth:`~Blockchain.extended` by one block for a
        child of its tip.  Any other block is walked back to the root.
        """
        block = self._blocks[block_id]
        last = self._last_chain
        if block_id == last.blocks[-1].block_id:
            return last
        if block.parent_id == last.blocks[-1].block_id:
            chain = last.extended(block)
        else:
            path = [block]
            while path[-1].parent_id is not None:
                path.append(self._blocks[path[-1].parent_id])
            chain = Blockchain(tuple(reversed(path)))
        self._last_chain = chain
        return chain

    def all_chains(self) -> Tuple[Blockchain, ...]:
        """Every maximal blockchain (one per leaf), in insertion order."""
        return tuple(self.chain_to(leaf) for leaf in self.leaves())

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

    def max_fork_degree(self) -> int:
        """Maximum number of children over all blocks (0 for a bare genesis).

        Cached: ``append`` bumps the maximum whenever a parent's child
        count exceeds it (the count never decreases — the tree is
        append-only).
        """
        return self._max_fork_degree

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
        # The clone is content-identical at this version, so the memoized
        # selection results (immutable Blockchain values) stay valid for it;
        # any divergent append bumps the respective tree's own counter.
        clone._version = self._version
        clone._selection_memo = dict(self._selection_memo)
        return clone

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
