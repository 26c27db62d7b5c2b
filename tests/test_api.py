"""Every exported name resolves: no stale entries in any ``__all__``; the
methods the benchmark tracer wraps are defined where it looks for them."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import curvelab

MODULES = [curvelab] + [importlib.import_module(f"curvelab.{m.name}")
                        for m in pkgutil.iter_modules(curvelab.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def _tracing_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_are_in_their_class_bodies():
    # the tracer patches vars(cls)[method]: an inherited method would be
    # missing there, or wrapped under the base class's name
    missing = [f"{layer}.{cls_name}.{meth}"
               for layer, classes in _tracing_module().METHODS.items()
               for cls_name, methods in classes.items()
               for meth in methods
               if meth not in vars(getattr(importlib.import_module(
                   f"curvelab.{layer}"), cls_name))]
    assert missing == []
