"""Experiment engine: protocol registry, declarative specs, parallel sweeps.

The engine is the single entry point every layer above the protocol
models goes through:

* :mod:`repro.engine.registry` — ``@register_protocol`` and the process-
  wide :data:`~repro.engine.registry.REGISTRY` mapping system names to
  their runners and regime metadata;
* :mod:`repro.engine.spec` — :class:`ExperimentSpec` and friends, the
  declarative, JSON-serializable description of one run;
* :mod:`repro.engine.result` — the serializable :class:`RunResult`
  artifact (classification verdict + fork/convergence/fairness statistics
  + timings);
* :mod:`repro.engine.sweep` — grid expansion and the
  :class:`SweepRunner` resilience loop (retries, timeouts, failure
  degradation, journaled resume) over a pluggable executor backend;
* :mod:`repro.engine.executors` — the ``@register_executor`` vocabulary
  of execution backends (``serial`` / ``pool`` / ``shard`` / ``flaky``)
  plus the :class:`CellFailure` artifact and chaos-injection machinery;
* :mod:`repro.engine.checkpoint` — deterministic checkpoint/restore for
  long runs: :class:`SimulationCheckpoint` snapshots, the crash-safe
  :class:`CheckpointWriter`, and checkpoint-aware spec execution;
* :mod:`repro.engine.cache` — :class:`ResultCache`, the content-addressed
  memoization store keyed on ``ExperimentSpec.to_json()`` (wired into
  :class:`SweepRunner` and the CLI's ``--cache`` flag).

Performance is measured from outside the package, by ``benchmarks/ledger``
(declared in ``BENCHMARK.json``).

Typical use::

    from repro.engine import ExperimentSpec, SweepRunner, expand_grid

    base = ExperimentSpec(protocol="bitcoin", replicas=5, duration=100.0)
    specs = expand_grid(base, {"seed": range(8), "channel.delta": [1.0, 3.0]})
    results = SweepRunner(jobs=4).run(specs)
    verdicts = [r.classification["label"] for r in results]
"""

from repro.engine.registry import (
    REGISTRY,
    ProtocolEntry,
    ProtocolRegistry,
    available_protocols,
    get_protocol,
    load_builtin_protocols,
    register_protocol,
)
from repro.engine.spec import (
    ChannelSpec,
    ExperimentSpec,
    FaultSpec,
    TopologySpec,
    WorkloadSpec,
    regime_spec,
    table1_spec,
)
from repro.engine.cache import DEFAULT_CACHE_DIR, ResultCache, spec_digest
from repro.engine.checkpoint import (
    CHECKPOINT_SCHEMA,
    DEFAULT_CHECKPOINT_DIR,
    CheckpointCorruptionError,
    CheckpointWriter,
    SimulationCheckpoint,
    checkpoint_path_for,
    load_checkpoint,
    read_checkpoint_header,
    resume_spec_from_checkpoint,
    run_spec_with_checkpoints,
)
from repro.engine.executors import (
    CellFailure,
    CellTask,
    Executor,
    FlakyExecutor,
    PoolExecutor,
    SerialExecutor,
    ShardExecutor,
    SweepAbortedError,
    available_executors,
    get_executor,
    make_executor,
    register_executor,
    retry_delay,
)
from repro.engine.result import RunResult, analyse_run
from repro.engine.sweep import (
    SweepJournal,
    SweepRunner,
    derive_seed,
    expand_grid,
    results_payload,
)

__all__ = [
    "REGISTRY",
    "ProtocolEntry",
    "ProtocolRegistry",
    "available_protocols",
    "get_protocol",
    "load_builtin_protocols",
    "register_protocol",
    "ChannelSpec",
    "ExperimentSpec",
    "FaultSpec",
    "TopologySpec",
    "WorkloadSpec",
    "regime_spec",
    "table1_spec",
    "RunResult",
    "analyse_run",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "spec_digest",
    "CHECKPOINT_SCHEMA",
    "DEFAULT_CHECKPOINT_DIR",
    "CheckpointCorruptionError",
    "CheckpointWriter",
    "SimulationCheckpoint",
    "checkpoint_path_for",
    "load_checkpoint",
    "read_checkpoint_header",
    "resume_spec_from_checkpoint",
    "run_spec_with_checkpoints",
    "SweepRunner",
    "SweepJournal",
    "derive_seed",
    "expand_grid",
    "results_payload",
    "CellFailure",
    "CellTask",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "ShardExecutor",
    "FlakyExecutor",
    "SweepAbortedError",
    "register_executor",
    "available_executors",
    "get_executor",
    "make_executor",
    "retry_delay",
]
