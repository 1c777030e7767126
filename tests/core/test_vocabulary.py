"""Every spec vocabulary is one :class:`~repro.core.errors.Vocabulary`.

One parametrized case per vocabulary pins what a spec author sees: the
exact noun and name listing of an unknown name, and the refusal of a
second registration under a taken name.  The walk over ``repro`` keeps
the list complete, so a vocabulary added later is held to the same
contract (and is there for a spec-space strategy to draw from).
"""

from __future__ import annotations

import importlib
import pkgutil
import re

import pytest

import repro
from repro.core.errors import UnknownVocabularyError, Vocabulary
from repro.core.score import SCORES
from repro.core.selection import SELECTIONS
from repro.engine.registry import REGISTRY, load_builtin_protocols
from repro.engine.spec import ChannelSpec
from repro.network.channels import CHANNELS
from repro.network.faults import FAULTS
from repro.network.topology import TOPOLOGIES

VOCABULARIES = {
    "protocol": REGISTRY,
    "channel kind": CHANNELS,
    "topology": TOPOLOGIES,
    "fault": FAULTS,
    "selection function": SELECTIONS,
    "score function": SCORES,
}


def test_every_vocabulary_in_repro_is_listed():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        for value in vars(importlib.import_module(info.name)).values():
            if isinstance(value, Vocabulary):
                found[id(value)] = value
    assert sorted(v.noun for v in found.values()) == sorted(VOCABULARIES)
    assert set(found) == {id(v) for v in VOCABULARIES.values()}


@pytest.mark.parametrize("noun", VOCABULARIES)
def test_an_unknown_name_lists_the_registered_ones(noun: str):
    load_builtin_protocols()
    vocabulary = VOCABULARIES[noun]
    assert vocabulary.noun == noun and vocabulary.names()
    assert "no-such-name" not in vocabulary
    with pytest.raises(UnknownVocabularyError) as refused:
        vocabulary["no-such-name"]
    error = refused.value
    assert (error.vocabulary, error.name) == (noun, "no-such-name")
    assert error.registered == tuple(sorted(vocabulary.names()))
    listing = ", ".join(repr(name) for name in sorted(vocabulary.names()))
    assert str(error) == f"unknown {noun} 'no-such-name'; registered: {listing}"
    with pytest.raises(UnknownVocabularyError, match=re.escape(str(error))):
        vocabulary.build("no-such-name")


@pytest.mark.parametrize("noun", VOCABULARIES)
def test_a_taken_name_is_refused(noun: str):
    load_builtin_protocols()
    vocabulary = VOCABULARIES[noun]
    names = vocabulary.names()
    taken = names[0]
    entry = vocabulary[taken]
    with pytest.raises(ValueError, match=re.escape(f"{noun} {taken!r} already registered")):
        vocabulary.register(taken)(object())
    assert vocabulary[taken] is entry and vocabulary.names() == names


def test_build_forwards_the_seed_only_where_taken_and_not_pinned():
    vocabulary = Vocabulary("thing")

    @vocabulary.register("seeded")
    class Seeded:
        def __init__(self, size: int = 1, seed: int = 0) -> None:
            self.size, self.seed = size, seed

    @vocabulary.register("plain")
    class Plain:
        def __init__(self, size: int = 1) -> None:
            self.size = size

    assert vars(vocabulary.build("seeded", {"size": 2}, 7)) == {"size": 2, "seed": 7}
    assert vars(vocabulary.build("seeded", {"seed": 3}, 7)) == {"size": 1, "seed": 3}
    assert vars(vocabulary.build("plain", {"size": 2}, 7)) == {"size": 2}
    assert vocabulary.arguments("plain", None, 7) == {}


def test_a_channel_seed_in_params_is_refused():
    """The seed is a ``ChannelSpec`` field: one in ``params`` is refused as
    the doubled keyword it always was, not quietly preferred."""
    spec = ChannelSpec(kind="synchronous", params={"delta": 2.0, "seed": 3})
    with pytest.raises(TypeError) as refused:
        spec.build(0)
    assert str(refused.value) == (
        "repro.network.channels.SynchronousChannel() got multiple values "
        "for keyword argument 'seed'"
    )
    with pytest.raises(UnknownVocabularyError, match="unknown channel kind 'bogus'"):
        ChannelSpec(kind="bogus", params={"seed": 3}).build(0)
