import importlib
import pkgutil

import pytest

import drsplit

MODULES = ["drsplit"] + [f"drsplit.{m.name}" for m in pkgutil.iter_modules(drsplit.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # A name deleted from a module must leave its export lists too.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
