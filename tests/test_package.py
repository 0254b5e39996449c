"""Every public name the package exports must exist, so a deleted
function cannot linger in an __all__ list."""

import importlib
import pkgutil

import pytest

import pdwg

MODULES = ["pdwg"] + [f"pdwg.{m.name}" for m in pkgutil.iter_modules(pdwg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert exported, f"{name}.__all__ is empty"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
