"""Protocol registry: the single naming authority for runnable systems.

Before this module existed every entry point hard-wired its own mapping
from system name to ``run_*`` function (the ``SYSTEMS`` dict the CLI used
to carry, the ``default_runners`` dict inside ``reproduce_table1``, and
ad-hoc imports in 20+ benchmark modules).  The registry replaces all of
them: a protocol module decorates its runner with
:func:`register_protocol` and every layer above — CLI, classification,
sweeps, benchmarks — resolves the name through one table.  The built-in
runners are generated from declarations
(:func:`repro.protocols.base.system_runner`); any plain keyword callable
returning a protocol ``RunResult`` registers just the same.

The registry deliberately knows nothing about the protocol modules
themselves (no imports from :mod:`repro.protocols` here), so protocol
modules can import it freely without cycles.  Callers that want the
built-in systems present call :func:`load_builtin_protocols` (idempotent)
before resolving names.

Each :class:`ProtocolEntry` also carries the *regime* metadata the old
entry points duplicated:

* ``table1`` — parameter overrides for the Table 1 reproduction (the
  proof-of-work systems run in a fork-prone regime there);
* ``fork_prone`` — overrides for the CLI's ``--fork-prone`` flag;
* ``fairness_merit`` — which merit distribution the fairness report of a
  classified run should be evaluated against.

Faults are not a registry concern: every runner takes ``fault=``, a
registered :class:`~repro.network.faults.FaultModel`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.core.errors import Vocabulary

__all__ = [
    "ProtocolEntry",
    "REGISTRY",
    "register_protocol",
    "load_builtin_protocols",
    "available_protocols",
    "get_protocol",
]

Runner = Callable[..., Any]


def _accepted_kwargs(runner: Runner) -> frozenset:
    """Keyword parameters a runner accepts (used to filter spec kwargs)."""
    params = inspect.signature(runner).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return frozenset({"*"})
    return frozenset(
        name
        for name, p in params.items()
        if p.kind in (inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    )


@dataclass
class ProtocolEntry:
    """One registered system model."""

    name: str
    runner: Runner
    table1: Mapping[str, Any] = field(default_factory=dict)
    fork_prone: Mapping[str, Any] = field(default_factory=dict)
    fairness_merit: str = "uniform"
    description: str = ""
    _accepts: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self._accepts:
            self._accepts = _accepted_kwargs(self.runner)

    def runner_for(self, _fault_kind: None) -> Runner:
        """Alias of :attr:`runner`: the frozen ledger calls ``runner_for(None)``."""
        return self.runner

    def accepts(self, kwarg: str) -> bool:
        """``True`` iff the runner takes ``kwarg``."""
        return "*" in self._accepts or kwarg in self._accepts


#: The process-wide default registry every decorator writes into:
#: name -> :class:`ProtocolEntry`, in registration order.
REGISTRY = Vocabulary("protocol")


def register_protocol(
    name: str,
    *,
    table1: Optional[Mapping[str, Any]] = None,
    fork_prone: Optional[Mapping[str, Any]] = None,
    fairness_merit: str = "uniform",
    description: str = "",
    registry: Optional[Vocabulary] = None,
    replace: bool = False,
) -> Callable[[Runner], Runner]:
    """Decorator: register ``run_*`` under ``name`` in the (default) registry.

    The decorated function is returned unchanged, so direct calls keep
    working exactly as before — registration is purely additive.  A name
    collision raises unless ``replace=True`` is passed explicitly, so two
    modules cannot silently shadow each other's systems.
    """

    def decorate(runner: Runner) -> Runner:
        target = registry if registry is not None else REGISTRY
        target.register(name, replace=replace)(
            ProtocolEntry(
                name=name,
                runner=runner,
                table1=dict(table1 or {}),
                fork_prone=dict(fork_prone or {}),
                fairness_merit=fairness_merit,
                description=description or (inspect.getdoc(runner) or "").split("\n")[0],
            )
        )
        return runner

    return decorate


_BUILTINS_LOADED = False


def load_builtin_protocols() -> Vocabulary:
    """Import every built-in protocol module so its registration runs.

    Idempotent; returns the default registry for convenience.  The import
    list mirrors the paper's Section 5 systems plus the generic
    ``committee`` engine five of them are declared over.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        import repro.protocols.nakamoto  # noqa: F401
        import repro.protocols.ghost  # noqa: F401
        import repro.protocols.committee  # noqa: F401
        import repro.protocols.byzcoin  # noqa: F401
        import repro.protocols.algorand  # noqa: F401
        import repro.protocols.peercensus  # noqa: F401
        import repro.protocols.redbelly  # noqa: F401
        import repro.protocols.hyperledger  # noqa: F401
        _BUILTINS_LOADED = True
    return REGISTRY


def available_protocols() -> Tuple[str, ...]:
    """Names of every registered protocol (built-ins loaded on demand)."""
    return load_builtin_protocols().names()


def get_protocol(name: str) -> ProtocolEntry:
    """Resolve ``name`` in the default registry (built-ins loaded on demand)."""
    return load_builtin_protocols()[name]
