"""Every name a package lists in ``__all__`` resolves, so deleting a
function cannot leave a stale export behind."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["hiloseg", "hiloseg.nn", "hiloseg.models"])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
