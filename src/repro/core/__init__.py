"""Core formalization: blocks, BlockTree, BT-ADT, histories, consistency.

This subpackage is a direct executable transcription of Sections 2 and 3
of the paper:

* :mod:`repro.core.block` — blocks and blockchains (paths to genesis).
* :mod:`repro.core.blocktree` — the append-only rooted tree ``bt``.
* :mod:`repro.core.score` — score functions and the ``mcps`` helper.
* :mod:`repro.core.selection` — selection functions ``f : BT -> BC``.
* :mod:`repro.core.validity` — validity predicates ``P``.
* :mod:`repro.core.adt` — generic Abstract Data Types (Definition 2.1).
* :mod:`repro.core.bt_adt` — the BT-ADT sequential spec (Definition 3.1).
* :mod:`repro.core.history` — concurrent histories (Definition 2.4).
* :mod:`repro.core.consistency` — SC and EC criteria (Definitions 3.2–3.4).
* :mod:`repro.core.consistency_index` — the union prefix index backing the
  criteria checkers, and the post-hoc :class:`ConsistencyMonitor`.
* :mod:`repro.core.hierarchy` — the refinement hierarchy (Figures 8/14).
"""

from repro.core.block import Block, Blockchain, GENESIS, genesis_block
from repro.core.blocktree import BlockTree
from repro.core.score import LengthScore, WeightScore, mcps
from repro.core.selection import LongestChain, HeaviestChain, GHOSTSelection
from repro.core.validity import AlwaysValid, ParentInTree, NoDoubleSpend
from repro.core.adt import AbstractDataType, Operation
from repro.core.bt_adt import BTADT
from repro.core.history import History, Event, EventKind, HistoryRecorder
from repro.core.consistency import (
    BTStrongConsistency,
    BTEventualConsistency,
    check_strong_consistency,
    check_eventual_consistency,
)
from repro.core.consistency_index import ConsistencyIndex, ConsistencyMonitor
from repro.core.hierarchy import Refinement, refinement_hierarchy

__all__ = [
    "Block",
    "Blockchain",
    "GENESIS",
    "genesis_block",
    "BlockTree",
    "LengthScore",
    "WeightScore",
    "mcps",
    "LongestChain",
    "HeaviestChain",
    "GHOSTSelection",
    "AlwaysValid",
    "ParentInTree",
    "NoDoubleSpend",
    "AbstractDataType",
    "Operation",
    "BTADT",
    "History",
    "Event",
    "EventKind",
    "HistoryRecorder",
    "BTStrongConsistency",
    "BTEventualConsistency",
    "check_strong_consistency",
    "check_eventual_consistency",
    "ConsistencyIndex",
    "ConsistencyMonitor",
    "Refinement",
    "refinement_hierarchy",
]
