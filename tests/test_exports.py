import importlib
import pkgutil

import pytest

import fillcalc

MODULES = sorted(info.name for info in pkgutil.iter_modules(fillcalc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"fillcalc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
