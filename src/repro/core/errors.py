"""Shared error types: spec vocabularies and stale snapshots.

The engine's declarative layer resolves several *names* into
implementations: protocol names (``@register_protocol``), channel kinds
(:class:`~repro.engine.spec.ChannelSpec`), topology kinds
(:class:`~repro.network.topology.Topology` / ``@register_topology``),
selection functions, score functions and merit distributions.  Before
this module each lookup raised its own flavour of ``KeyError`` or
``ValueError`` with its own message shape; a typo in a spec therefore
failed differently depending on *which* field was wrong.

:class:`UnknownVocabularyError` is the single error every vocabulary
lookup raises: it names the vocabulary, the unknown value, and the full
sorted list of registered names, so the fix is always in the message.  It
subclasses both :class:`KeyError` (what registry lookups historically
raised) and :class:`ValueError` (what spec builders historically raised),
so existing ``except``/``pytest.raises`` clauses keep matching.

This lives in :mod:`repro.core` — the bottom of the layering — because
both the network substrate (topology registry) and the engine (protocol /
channel / selection vocabularies) raise it.

:class:`StaleSnapshotError` is what a ``__setstate__`` raises when it is
handed state in a format its class no longer reads (a checkpoint written
by an older version).  ``SimulationCheckpoint.restore`` turns exactly
this error into a "re-run the spec" refusal; any other exception out of
an unpickle is a defect or real corruption and propagates as itself.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["UnknownVocabularyError", "StaleSnapshotError"]


class UnknownVocabularyError(KeyError, ValueError):
    """An unregistered name was used where a spec vocabulary is expected.

    Attributes
    ----------
    vocabulary:
        Human-readable vocabulary name (``"protocol"``, ``"channel kind"``,
        ``"topology"``, ...).
    name:
        The unknown value as supplied.
    registered:
        Sorted tuple of the names that *are* registered.
    """

    def __init__(self, vocabulary: str, name: object, registered: Iterable[str]) -> None:
        self.vocabulary = vocabulary
        self.name = name
        self.registered = tuple(sorted(registered))
        listing = ", ".join(repr(n) for n in self.registered) or "(none)"
        self.message = f"unknown {vocabulary} {name!r}; registered: {listing}"
        super().__init__(self.message)

    def __str__(self) -> str:
        # KeyError.__str__ would wrap the message in quotes (it reprs its
        # sole argument); the plain message is what belongs in tracebacks.
        return self.message


class StaleSnapshotError(ValueError):
    """Pickled state is in a format this version's class refuses to read.

    A :class:`ValueError` (what these refusals historically raised) whose
    message names what changed and ends in "re-run instead of resuming".
    """
