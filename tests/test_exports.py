import importlib
import pkgutil

import pytest

import windfreq

MODULES = ["windfreq"] + sorted(f"windfreq.{m.name}"
                                for m in pkgutil.iter_modules(windfreq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry in __all__ breaks `from <module> import *`
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
