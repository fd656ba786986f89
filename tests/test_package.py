"""The package's public API list."""

from __future__ import annotations

import types

import ukge


def test_all_lists_exactly_the_public_names():
    """An import without its ``__all__`` entry, or the reverse, fails here."""
    public = {
        name
        for name, value in vars(ukge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ukge.__all__) == sorted(public)


def test_star_import():
    namespace: dict = {}
    exec("from ukge import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ukge.__all__)
