"""Spec vocabularies: one registry type and the one error its lookups raise.

The engine's declarative layer resolves several *names* into
implementations: protocol names, channel kinds, topologies, faults,
selection functions and score functions.  Each is a :class:`Vocabulary`
(``REGISTRY`` in :mod:`repro.engine.registry`, ``CHANNELS``,
``TOPOLOGIES`` and ``FAULTS`` in :mod:`repro.network`, ``SELECTIONS`` and
``SCORES`` in :mod:`repro.core`), and a class joins one with
``@VOCABULARY.register(name)``.

:class:`UnknownVocabularyError` is the single error every vocabulary
lookup raises: it names the vocabulary, the unknown value, and the full
sorted list of registered names, so the fix is always in the message.  It
subclasses both :class:`KeyError` (what registry lookups historically
raised) and :class:`ValueError` (what spec builders historically raised),
so existing ``except``/``pytest.raises`` clauses keep matching.

This lives in :mod:`repro.core` — the bottom of the layering — because
both the network substrate and the engine keep vocabularies.

A checkpoint written by other code is refused by its header (the layout
fingerprint, checked in ``SimulationCheckpoint.from_bytes``), so no class
needs an error of its own for state in an older pickled format.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple, TypeVar

__all__ = ["UnknownVocabularyError", "Vocabulary"]

T = TypeVar("T")


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


class Vocabulary:
    """Name -> registered entry of one spec vocabulary, in registration order.

    ``noun`` names the vocabulary in its errors (``"topology"``,
    ``"channel kind"``, ...).  An entry is usually a class, built from a
    spec's ``kind``, ``params`` and seed by :meth:`build`.
    """

    def __init__(self, noun: str) -> None:
        self.noun = noun
        self._entries: Dict[str, Any] = {}

    def register(self, name: str, replace: bool = False) -> Callable[[T], T]:
        """Decorator: register its argument under ``name`` and return it unchanged.

        A name collision raises unless ``replace=True``, so two modules
        cannot silently shadow each other's entries.
        """

        def decorate(entry: T) -> T:
            if name in self._entries and not replace:
                raise ValueError(f"{self.noun} {name!r} already registered")
            self._entries[name] = entry
            return entry

        return decorate

    def __getitem__(self, name: str) -> Any:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownVocabularyError(self.noun, name, self._entries) from None

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def names(self) -> Tuple[str, ...]:
        """Every registered name, in registration order."""
        return tuple(self._entries)

    def arguments(
        self, kind: str, params: Optional[Mapping[str, Any]] = None, seed: int = 0
    ) -> Dict[str, Any]:
        """The keyword arguments :meth:`build` passes to ``kind``'s class.

        ``seed`` is added only where the constructor takes one and
        ``params`` does not pin it, so a single spec-level integer
        reproduces the whole run without every class declaring a seed.
        """
        kwargs = dict(params or {})
        if "seed" in inspect.signature(self[kind]).parameters:
            kwargs.setdefault("seed", seed)
        return kwargs

    def build(self, kind: str, params: Optional[Mapping[str, Any]] = None, seed: int = 0) -> Any:
        """Instantiate the class registered as ``kind`` (see :meth:`arguments`)."""
        return self[kind](**self.arguments(kind, params, seed))
