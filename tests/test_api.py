"""Every exported name resolves: no stale entries in any ``__all__``."""

import importlib
import pkgutil

import pytest

import curvelab

MODULES = [curvelab] + [importlib.import_module(f"curvelab.{m.name}")
                        for m in pkgutil.iter_modules(curvelab.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
