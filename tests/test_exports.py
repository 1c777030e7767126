"""Every name a ``repro`` module exports in ``__all__`` is there to import.

A deletion that leaves a stale ``__all__`` entry fails here rather than
in a user's ``from repro.x import *``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


@pytest.mark.parametrize("module", [module.__name__ for module in _modules()])
def test_every_all_entry_resolves(module):
    """One case per module, so a stale entry is reported by its module's name."""
    exported = importlib.import_module(module)
    stale = [name for name in getattr(exported, "__all__", ()) if not hasattr(exported, name)]
    assert stale == []


def test_the_walk_reaches_the_subpackages():
    names = {module.__name__ for module in _modules()}
    assert {"repro.cli", "repro.engine.spec", "repro.network.event_core"} <= names
