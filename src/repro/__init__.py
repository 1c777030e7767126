"""repro — executable reproduction of *Blockchain Abstract Data Type*.

The package implements, as runnable Python, the full formal framework of
Anceaume, Del Pozzo, Ludinard, Potop-Butucaru and Tucci-Piergiovanni
(*Blockchain Abstract Data Type*, SPAA 2019 / arXiv:1802.09877):

``repro.core``
    Blocks, blockchains, the BlockTree, selection functions, score
    functions, validity predicates, the generic Abstract Data Type
    machinery, the BT-ADT sequential specification, concurrent histories
    and the BT Strong / BT Eventual consistency criteria.

``repro.oracle``
    The token oracles Θ_P (prodigal) and Θ_F (frugal, parameterized by k),
    merit tapes, the refinement R(BT-ADT, Θ) and the k-Fork-Coherence
    checker.

``repro.concurrent``
    A shared-memory substrate (atomic registers, compare&swap, atomic
    snapshot, a cooperative scheduler) and the wait-free reductions of
    Section 4.1 used to establish the oracles' consensus numbers.

``repro.network``
    A deterministic discrete-event message-passing simulator with
    asynchronous / synchronous / partially-synchronous and lossy channels,
    Byzantine process behaviours, and the Light Reliable Communication and
    Update Agreement abstractions of Section 4.2/4.3.

``repro.protocols``
    Models of the systems classified in Table 1 (Bitcoin, Ethereum,
    ByzCoin, Algorand, PeerCensus, Red Belly, Hyperledger Fabric) plus the
    consensus substrate several of them rely on, and a classifier that
    maps an execution onto the paper's refinement hierarchy.

``repro.workload`` and ``repro.analysis``
    Workload/scenario generators (including the exact histories of
    Figures 2, 3, 4 and 13) and analysis utilities (fork statistics,
    convergence metrics, report rendering).

``MODEL_VERSION`` names the simulator model that produced a result.  It
is hashed into every spec digest (cache file, sweep journal key,
checkpoint path) and pinned by the behaviour lock.  Bump it only with a
change that can move a history, verdict, payload or CLI output; a
checkpoint is keyed to the code that wrote it by a fingerprint instead.
"""

#: Set before any import, so every module can read ``repro.MODEL_VERSION``.
MODEL_VERSION = 8

from repro.core.block import Block, Blockchain, GENESIS, genesis_block
from repro.core.blocktree import BlockTree
from repro.core.bt_adt import BTADT
from repro.core.history import History, Event, EventKind
from repro.core.consistency import (
    BTStrongConsistency,
    BTEventualConsistency,
    check_strong_consistency,
    check_eventual_consistency,
)
from repro.core.selection import (
    LongestChain,
    HeaviestChain,
    GHOSTSelection,
)
from repro.core.score import LengthScore, WeightScore
from repro.oracle.theta import FrugalOracle, ProdigalOracle
from repro.oracle.refinement import RefinedBTADT

__version__ = "1.0.0"

__all__ = [
    "Block",
    "Blockchain",
    "GENESIS",
    "genesis_block",
    "BlockTree",
    "BTADT",
    "History",
    "Event",
    "EventKind",
    "BTStrongConsistency",
    "BTEventualConsistency",
    "check_strong_consistency",
    "check_eventual_consistency",
    "LongestChain",
    "HeaviestChain",
    "GHOSTSelection",
    "LengthScore",
    "WeightScore",
    "FrugalOracle",
    "ProdigalOracle",
    "RefinedBTADT",
    "MODEL_VERSION",
    "__version__",
]
