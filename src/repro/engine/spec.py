"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a plain, JSON-serializable description of
one protocol run: which registered protocol, how many replicas, for how
long, under which channel / fault / workload model, validated by which
oracle bound and scored by which score function.  ``spec.execute()``
resolves the protocol through the registry, performs the run, and returns
a :class:`repro.engine.result.RunResult` carrying the classification
verdict and the fork / convergence / fairness statistics.

Because a spec is pure data it can cross process boundaries (the
:class:`~repro.engine.sweep.SweepRunner` ships specs to a worker pool as
JSON), be stored next to results for provenance, and be diffed between
experiments.  Two executions of the same spec produce identical
simulations: every random draw is derived from ``spec.seed``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import UnknownVocabularyError
from repro.core.score import LengthScore, ScoreFunction, WeightScore
from repro.core.selection import (
    FixedTipSelection,
    GHOSTSelection,
    HeaviestChain,
    LongestChain,
    SelectionFunction,
)
from repro.engine.registry import ProtocolEntry, get_protocol
from repro.network.channels import (
    AsynchronousChannel,
    ChannelModel,
    LossyChannel,
    PartiallySynchronousChannel,
    SynchronousChannel,
)
from repro.network.topology import Topology, build_topology
from repro.oracle.tape import TapeFamily
from repro.oracle.theta import FrugalOracle, ProdigalOracle, TokenOracle
from repro.workload.merit import MeritDistribution, uniform_merit, zipf_merit

__all__ = [
    "ChannelSpec",
    "TopologySpec",
    "WorkloadSpec",
    "WORKLOAD_FIELDS",
    "FaultSpec",
    "ExperimentSpec",
    "regime_spec",
    "table1_spec",
]


_CHANNEL_KINDS = {
    "synchronous": SynchronousChannel,
    "asynchronous": AsynchronousChannel,
    "partial": PartiallySynchronousChannel,
}

_SELECTIONS = {
    "longest": LongestChain,
    "heaviest": HeaviestChain,
    "ghost": GHOSTSelection,
    "fixed-tip": FixedTipSelection,
}

_SCORES = {
    "length": LengthScore,
    "weight": WeightScore,
}


def _refuse_unknown_keys(noun: str, data: Mapping[str, Any], accepted: Sequence[str]) -> None:
    """A typo in a spec dict fails by name instead of running the default."""
    unknown = sorted(set(data).difference(accepted))
    if unknown:
        raise ValueError(
            f"unknown {noun} key(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted)}"
        )


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative channel model.

    ``kind`` selects the synchrony class; ``params`` are its constructor
    arguments (``delta``, ``min_delay``, ``gst``, ...).  A positive
    ``drop_probability`` wraps the channel in a :class:`LossyChannel`.
    ``seed`` defaults to the owning spec's seed so a single integer
    reproduces the whole run.
    """

    kind: str = "synchronous"
    params: Mapping[str, Any] = field(default_factory=dict)
    drop_probability: float = 0.0
    seed: Optional[int] = None

    def build(self, default_seed: int) -> ChannelModel:
        try:
            cls = _CHANNEL_KINDS[self.kind]
        except KeyError:
            raise UnknownVocabularyError(
                "channel kind", self.kind, _CHANNEL_KINDS
            ) from None
        seed = self.seed if self.seed is not None else default_seed
        channel: ChannelModel = cls(**dict(self.params), seed=seed)
        if self.drop_probability > 0:
            channel = LossyChannel(channel, self.drop_probability, seed=seed)
        return channel

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "drop_probability": self.drop_probability,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChannelSpec":
        _refuse_unknown_keys("channel", data, [f.name for f in fields(cls)])
        return cls(
            kind=data.get("kind", "synchronous"),
            params=dict(data.get("params", {})),
            drop_probability=float(data.get("drop_probability", 0.0)),
            seed=data.get("seed"),
        )


@dataclass(frozen=True)
class TopologySpec:
    """Declarative dissemination topology.

    ``kind`` names a registered :class:`~repro.network.topology.Topology`
    (``full``, ``gossip``, ``committee``, ``sharded``, ``ring``,
    ``random-regular``); ``params`` are its constructor arguments
    (``fanout``, ``members``, ``shards``, ``hops``, ...).  ``seed``
    defaults to the owning spec's seed and is forwarded only to
    topologies that draw randomness (gossip, random-regular), so a single
    spec-level integer still reproduces the whole run.

    A spec without a topology serializes without the key at all — cache
    digests of pre-topology specs are unchanged.
    """

    kind: str = "full"
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def build(self, default_seed: int) -> Topology:
        seed = self.seed if self.seed is not None else default_seed
        return build_topology(self.kind, dict(self.params), seed=seed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "TopologySpec":
        if isinstance(data, str):
            # A bare kind name ("gossip") is the sweep-axis / CLI shorthand.
            return cls(kind=data)
        _refuse_unknown_keys("topology", data, [f.name for f in fields(cls)])
        return cls(
            kind=data.get("kind", "full"),
            params=dict(data.get("params", {})),
            seed=data.get("seed"),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Read workload, client population, dissemination and merit.

    ``None`` fields mean "use the protocol runner's default", which keeps
    a bare spec byte-compatible with a direct ``run_*`` call.

    ``clients`` attaches a vectorized
    :class:`~repro.workload.population.ClientPopulation` of that size to
    the run (``client_rate`` operations per client per time unit) — a
    first-class sweep axis (``workload.clients``), so population scaling
    studies expand through ``expand_grid`` like any other parameter.
    """

    read_interval: Optional[float] = None
    use_lrc: Optional[bool] = None
    merit: Optional[str] = None  # "uniform" | "zipf" | None → protocol default
    merit_exponent: float = 1.0
    clients: Optional[int] = None
    client_rate: Optional[float] = None

    def build_merit(self, n: int) -> Optional[MeritDistribution]:
        if self.merit is None:
            return None
        if self.merit == "uniform":
            return uniform_merit(n)
        if self.merit == "zipf":
            return zipf_merit(n, exponent=self.merit_exponent)
        raise UnknownVocabularyError(
            "merit distribution", self.merit, ("uniform", "zipf")
        )

    def to_dict(self) -> Dict[str, Any]:
        # The population keys are emitted only when set: serialized specs
        # (and therefore cache digests) from before the population axis
        # existed are unchanged.
        data: Dict[str, Any] = {
            "read_interval": self.read_interval,
            "use_lrc": self.use_lrc,
            "merit": self.merit,
            "merit_exponent": self.merit_exponent,
        }
        if self.clients is not None:
            data["clients"] = self.clients
        if self.client_rate is not None:
            data["client_rate"] = self.client_rate
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _refuse_unknown_keys("workload", data, WORKLOAD_FIELDS)
        clients = data.get("clients")
        client_rate = data.get("client_rate")
        return cls(
            read_interval=data.get("read_interval"),
            use_lrc=data.get("use_lrc"),
            merit=data.get("merit"),
            merit_exponent=float(data.get("merit_exponent", 1.0)),
            clients=int(clients) if clients is not None else None,
            client_rate=float(client_rate) if client_rate is not None else None,
        )


#: Valid ``workload.*`` sweep-axis names.  The serialized form omits the
#: population keys when unset, so axis validation must check the field
#: names, not dict membership.
WORKLOAD_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in WorkloadSpec.__dataclass_fields__.values()
)


@dataclass(frozen=True)
class FaultSpec:
    """Declarative adversary.

    ``kind`` names a registered :class:`~repro.network.faults.FaultModel`
    (``crash``/``silent``/``churn``/``partition``/``eclipse``); ``params``
    are its constructor arguments and ``seed`` defaults to the owning
    spec's seed, exactly like :class:`TopologySpec`.

    :meth:`from_dict` is the one reader of the pre-registry spelling
    (``crash`` + ``crash_at``, ``byzantine`` + ``byzantine``);
    :meth:`to_dict` writes the canonical form only, so an old artifact
    loads, digests to its canonical twin, and a cache entry stored under
    the old digest is a miss that re-runs.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def build(self, default_seed: int) -> "FaultModel":
        """Instantiate the registered fault model."""
        from repro.network.faults import build_fault

        seed = self.seed if self.seed is not None else default_seed
        return build_fault(self.kind, dict(self.params), seed=seed)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "params": dict(self.params)}
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "FaultSpec":
        if isinstance(data, str):
            # A bare kind name is the sweep-axis / CLI shorthand.
            data = {"kind": data}
        _refuse_unknown_keys(
            "fault", data, [*(f.name for f in fields(cls)), "byzantine", "crash_at"]
        )
        kind = data["kind"]
        params = dict(data.get("params", {}))
        # The pre-registry spelling; a bare legacy kind harmed nobody.
        if kind == "byzantine":
            kind = "silent"
            params = params or {"members": list(data.get("byzantine", ()))}
        elif kind == "crash" and not params:
            params = {"at": dict(data.get("crash_at", {}))}
        return cls(kind=kind, params=params, seed=data.get("seed"))


#: The spec field that sets each keyword option of
#: :func:`repro.protocols.base.run_protocol` (``None``: no field does —
#: ``core`` stays a ``run_*`` keyword for the test-side core oracle).
_HARNESS_FIELDS: Mapping[str, Optional[str]] = {
    "n": "replicas",
    "duration": "duration",
    "channel": "channel",
    "topology": "topology",
    "monitor": "monitor",
    "fault": "fault",
    "clients": "workload.clients",
    "client_rate": "workload.client_rate",
    "client_seed": "seed",
    "checkpoint_every": "checkpoint_every",
    "checkpoint_sink": "checkpoint_path",
    "core": None,
    "final_reads": None,
    "drain": None,
    "max_events": None,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-described protocol experiment.

    ``params`` holds protocol-specific knobs (``token_rate``,
    ``round_interval``, ``selection``, ...): the parameters of the
    system's declaration.  Unknown keys are rejected at execution time,
    so a typo fails loudly instead of silently running the default
    regime, and so is a key naming a run-harness option — those are spec
    fields (:data:`_HARNESS_FIELDS`), never ``params``.
    """

    protocol: str
    replicas: int = 5
    duration: float = 100.0
    seed: int = 0
    channel: Optional[ChannelSpec] = None
    #: Dissemination topology; ``None`` means the full-mesh default and —
    #: like ``monitor`` — is omitted from the serialized form entirely, so
    #: digests (and therefore cache keys) of pre-topology specs are
    #: unchanged.
    topology: Optional[TopologySpec] = None
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fault: Optional[FaultSpec] = None
    oracle_k: Optional[float] = None  # None → protocol default; math.inf → prodigal
    score: str = "length"
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    #: Opt-in streaming consistency monitoring: a
    #: :class:`~repro.core.consistency_index.ConsistencyMonitor` is
    #: subscribed to the run's recorder and its verdicts land on the
    #: result artifact (``RunResult.consistency``).
    monitor: bool = False
    #: Periodic checkpointing: snapshot the live run every N events to
    #: ``checkpoint_path`` (crash-safe; see :mod:`repro.engine.checkpoint`).
    #: Both are omitted from the serialized form when unset, so digests
    #: (and cache keys) of pre-checkpoint specs are unchanged.
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.duration >= 0:
            raise ValueError(f"duration must be >= 0, got {self.duration!r}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        oracle_k: Any = self.oracle_k
        if oracle_k is not None and math.isinf(oracle_k):
            oracle_k = "inf"
        data = {
            "protocol": self.protocol,
            "replicas": self.replicas,
            "duration": self.duration,
            "seed": self.seed,
            "channel": self.channel.to_dict() if self.channel else None,
            "workload": self.workload.to_dict(),
            "fault": self.fault.to_dict() if self.fault else None,
            "oracle_k": oracle_k,
            "score": self.score,
            "params": dict(self.params),
            "label": self.label,
        }
        # Only serialized when set, so digests of pre-existing specs
        # (and therefore their cache entries) are unaffected.
        if self.topology is not None:
            data["topology"] = self.topology.to_dict()
        if self.monitor:
            data["monitor"] = True
        if self.checkpoint_every is not None:
            data["checkpoint_every"] = self.checkpoint_every
        if self.checkpoint_path is not None:
            data["checkpoint_path"] = self.checkpoint_path
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        _refuse_unknown_keys("spec", data, [spec_field.name for spec_field in fields(cls)])
        oracle_k = data.get("oracle_k")
        if isinstance(oracle_k, str):
            oracle_k = math.inf if oracle_k in ("inf", "Infinity", "∞") else float(oracle_k)
        channel = data.get("channel")
        topology = data.get("topology")
        fault = data.get("fault")
        return cls(
            protocol=data["protocol"],
            replicas=int(data.get("replicas", 5)),
            duration=float(data.get("duration", 100.0)),
            seed=int(data.get("seed", 0)),
            channel=ChannelSpec.from_dict(channel) if channel else None,
            topology=TopologySpec.from_dict(topology) if topology else None,
            workload=WorkloadSpec.from_dict(data.get("workload", {})),
            fault=FaultSpec.from_dict(fault) if fault else None,
            oracle_k=oracle_k,
            score=data.get("score", "length"),
            params=dict(data.get("params", {})),
            label=data.get("label"),
            monitor=bool(data.get("monitor", False)),
            checkpoint_every=(
                int(data["checkpoint_every"])
                if data.get("checkpoint_every") is not None
                else None
            ),
            checkpoint_path=data.get("checkpoint_path"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(payload))

    def with_updates(self, **changes: Any) -> "ExperimentSpec":
        """A copy with top-level fields replaced."""
        import dataclasses

        return dataclasses.replace(self, **changes)

    # -- builders -----------------------------------------------------------

    def build_score(self) -> ScoreFunction:
        try:
            return _SCORES[self.score]()
        except KeyError:
            raise UnknownVocabularyError("score function", self.score, _SCORES) from None

    def _build_selection(self, name: str) -> SelectionFunction:
        try:
            return _SELECTIONS[name]()
        except KeyError:
            raise UnknownVocabularyError(
                "selection function", name, _SELECTIONS
            ) from None

    def _build_oracle(self, entry: ProtocolEntry) -> TokenOracle:
        assert self.oracle_k is not None
        token_rate = self.params.get("token_rate")
        if token_rate is None:
            import inspect

            default = inspect.signature(entry.runner).parameters.get("token_rate")
            token_rate = default.default if default is not None else 1.0
        tapes = TapeFamily(seed=self.seed, probability_scale=float(token_rate))
        if math.isinf(self.oracle_k):
            return ProdigalOracle(tapes=tapes)
        if not float(self.oracle_k).is_integer() or self.oracle_k < 1:
            raise ValueError(
                f"oracle_k must be a positive integer or inf, got {self.oracle_k!r}"
            )
        return FrugalOracle(k=int(self.oracle_k), tapes=tapes)

    def build_kwargs(self) -> Dict[str, Any]:
        """Translate the spec into keyword arguments for the runner.

        Only fields the runner actually accepts are passed, and only when
        the spec sets them away from "protocol default" — so a minimal
        spec reproduces a bare ``run_*`` call exactly.
        """
        entry = get_protocol(self.protocol)

        def put(key: str, value: Any) -> None:
            if not entry.accepts(key):
                raise ValueError(
                    f"protocol {self.protocol!r} does not accept parameter {key!r}"
                )
            kwargs[key] = value

        kwargs: Dict[str, Any] = {}
        put("n", self.replicas)
        put("duration", self.duration)
        put("seed", self.seed)
        if self.channel is not None:
            put("channel", self.channel.build(self.seed))
        if self.topology is not None:
            put("topology", self.topology.build(self.seed))
        if self.workload.read_interval is not None:
            put("read_interval", self.workload.read_interval)
        if self.workload.use_lrc is not None:
            put("use_lrc", self.workload.use_lrc)
        merit = self.workload.build_merit(self.replicas)
        if merit is not None:
            put("merit", merit)
        if self.workload.clients is not None:
            put("clients", self.workload.clients)
        if self.workload.client_rate is not None:
            put("client_rate", self.workload.client_rate)
        if self.oracle_k is not None:
            put("oracle", self._build_oracle(entry))
        if self.monitor:
            from repro.core.consistency_index import ConsistencyMonitor

            put("monitor", ConsistencyMonitor(score=self.build_score()))
        for key, value in self.params.items():
            if key in _HARNESS_FIELDS:
                field_name = _HARNESS_FIELDS[key]
                raise ValueError(
                    f"params[{key!r}] names a run-harness option, not a parameter "
                    f"of protocol {self.protocol!r}: "
                    + (
                        f"set the spec's {field_name!r} field instead"
                        if field_name is not None
                        else "no spec field sets it (it is a run_* keyword only)"
                    )
                )
            if key == "selection":
                value = self._build_selection(value)
            put(key, value)
        if self.fault is not None:
            put("fault", self.fault.build(self.seed))
        return kwargs

    # -- execution ----------------------------------------------------------

    def execute(
        self,
        *,
        checkpoint_every: Optional[int] = None,
        checkpoint_sink: Optional[Any] = None,
    ) -> "RunResult":
        """Run the experiment and analyse it; see :mod:`repro.engine.result`.

        ``checkpoint_every`` / ``checkpoint_sink`` are the two
        ``run_protocol`` keywords, for a caller that owns its writer
        (:func:`~repro.engine.checkpoint.run_spec_with_checkpoints`); the
        spec's own checkpoint knobs, when set, take their place.
        """
        from repro.engine.result import RunResult, analyse_run

        entry = get_protocol(self.protocol)
        kwargs = self.build_kwargs()
        if self.checkpoint_every is not None:
            from repro.engine.checkpoint import CheckpointWriter

            if self.checkpoint_every <= 0:
                raise ValueError("checkpoint_every must be positive")
            checkpoint_every = self.checkpoint_every
            checkpoint_sink = CheckpointWriter(
                self.checkpoint_path or "checkpoint.ckpt",
                spec=json.loads(self.to_json()),
            )
        if checkpoint_every is not None:
            kwargs.update(
                checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink
            )
        started = time.perf_counter()
        run = entry.runner(**kwargs)
        run_seconds = time.perf_counter() - started
        return analyse_run(self, entry, run, run_seconds)


def regime_spec(
    name: str,
    regime: Mapping[str, Any],
    *,
    n: int,
    duration: float,
    seed: int,
    label: Optional[str] = None,
) -> ExperimentSpec:
    """Expand a registry regime dict (``table1`` / ``fork_prone``) into a spec.

    Regime dicts may carry ``params`` (protocol knobs) and ``channel``
    (:class:`ChannelSpec` kwargs); any other key is rejected loudly so a
    typo in a registration never silently runs the default regime.
    """
    overrides = dict(regime)
    channel_kwargs = overrides.pop("channel", None)
    channel = ChannelSpec.from_dict(channel_kwargs) if channel_kwargs else None
    params = dict(overrides.pop("params", {}))
    if overrides:
        raise ValueError(f"unsupported regime override keys: {sorted(overrides)}")
    return ExperimentSpec(
        protocol=name,
        replicas=n,
        duration=duration,
        seed=seed,
        channel=channel,
        params=params,
        label=label,
    )


def table1_spec(
    name: str, *, n: int = 5, duration: float = 100.0, seed: int = 7
) -> ExperimentSpec:
    """The spec reproducing one row of Table 1.

    Applies the registered ``table1`` regime overrides (the proof-of-work
    systems run fork-prone there, exactly as the seed's
    ``reproduce_table1`` hard-wired).
    """
    entry = get_protocol(name)
    return regime_spec(
        name, entry.table1, n=n, duration=duration, seed=seed, label=f"table1:{name}"
    )


# Imported late to avoid a hard module cycle in type checkers only.
from typing import TYPE_CHECKING  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.result import RunResult
    from repro.network.faults import FaultModel
