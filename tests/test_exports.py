"""Every name a library module lists in ``__all__`` resolves, so that a
deletion which leaves a stale export fails here instead of at a user's
``from hyperclifford.<module> import *``."""

import importlib
import pkgutil

import pytest

import hyperclifford

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(hyperclifford.__path__)
    if hasattr(importlib.import_module(f"hyperclifford.{name}"), "__all__")
)


def test_the_library_modules_with_exports_are_found():
    assert MODULES == ["algebra", "checks", "matrices", "paravectors", "physics", "rotors", "scalars"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"hyperclifford.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from hyperclifford.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_the_relation_oracles_are_no_library_names():
    # the commutator and the trace serve only the tests, as oracles of the
    # relation tables and of matrices._block_traces (tests/oracles.py)
    from hyperclifford import matrices, rotors

    assert not hasattr(hyperclifford, "commutator") and not hasattr(matrices, "commutator")
    assert "commutator" not in matrices.__all__ + rotors.__all__
    assert not hasattr(matrices.HMatrix, "trace")
