"""Every exported name resolves: no stale entries in any ``__all__``; the
names the benchmark calls, and the methods its tracer wraps, are defined
where it looks for them; no module of the library imports numpy or reads
the environment, and the command line runs without numpy; builtin
``sum()`` adds no floats."""

import ast
import importlib
import importlib.util
import inspect
import io
import os
import pkgutil
import re
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import pytest

import curvelab

MODULES = [curvelab] + [importlib.import_module(f"curvelab.{m.name}")
                        for m in pkgutil.iter_modules(curvelab.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing_module():
    path = BENCH / "tracing.py"
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


def test_names_the_benchmark_calls_resolve():
    # bench/ reaches the library as m.<module>.<name> (or
    # modules.<module>.<name>) on a freshly imported curvelab
    refs = {match for path in sorted(BENCH.glob("*.py"))
            for match in re.findall(
                r"\b(?:m|modules)\.([a-z_]+)\.([A-Za-z_]\w*)",
                path.read_text())}
    assert refs
    missing = [f"{mod}.{name}" for mod, name in sorted(refs)
               if not hasattr(importlib.import_module(f"curvelab.{mod}"),
                              name)]
    assert missing == []


def test_tracer_hooks_name_public_functions():
    tracing = _tracing_module()
    hooks = set(re.findall(r'"(\w+)": self\._on_\w+',
                           inspect.getsource(tracing.Tracer.install)))
    assert hooks == {"synthesize_curve", "fit_theorem31"}
    spanned = [importlib.import_module(f"curvelab.{layer}")
               for layer in tracing.SPANNED]
    for name in hooks:
        assert any(inspect.isfunction(getattr(mod, name, None))
                   and getattr(mod, name).__module__ == mod.__name__
                   for mod in spanned), name
    # the fit hook reads the torsion angles the fit carries
    from curvelab.rectifying import Theorem31Fit
    assert "t_samples" in Theorem31Fit._fields


def _workloads_module():
    # registered before it runs: its dataclasses look their module up there
    path = BENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_flows_match_the_cli(tmp_path):
    # bench/workloads.py restates the cmd_* bodies; run its steps on the
    # modules already imported and compare with cli.main byte for byte
    wl = _workloads_module()
    m = SimpleNamespace(**{name: importlib.import_module(f"curvelab.{name}")
                           for name in wl.MODULES})
    csv = str(tmp_path / "synth.csv")
    steps = [
        (["rectify-check", "--curve", "lorentz_helix", "--param", "p=0.9",
          "--samples", "8"], wl.prepare_rectify, wl.work_rectify),
        (["synthesize", "--profile", "cosh_over_s", "--ds", "2e-3",
          "--samples", "21", "-o", csv],
         wl.prepare_synthesize, wl.work_synthesize),
        (["rectify-check", "--from-synthesis", csv, "--c", "0",
          "--samples", "21"], wl._parse, wl.work_rectify_synthesis),
    ]
    for argv, prepare, work in steps:
        driven, _ = work(m, prepare(m, argv), nullcontext)
        driven_file = Path(csv).read_bytes() if "-o" in argv else None
        out = io.StringIO()
        code = m.cli.main(argv, out=out)
        cli_file = Path(csv).read_bytes() if "-o" in argv else None
        assert (driven.code, driven.stdout, driven_file) == (
            code, out.getvalue(), cli_file), argv


def test_every_exported_name_has_a_caller():
    # a name in an __all__ earns its place by a reference in the code of
    # the library or the benchmark: a Name or an Attribute node.  Its own
    # def/class line, the export lists and imports are no such node (the
    # package's re-exports are imports), nor is a mention in a docstring,
    # a comment or a string
    root = Path(curvelab.__file__).parent
    used = set()
    for path in sorted(root.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted({name for module in MODULES
                     for name in getattr(module, "__all__", ())
                     if name not in used})
    assert unused == []


def _imports(path):
    """(line, top-level module) of each import statement in a source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        yield from ((node.lineno, m.partition(".")[0]) for m in modules)


LIBRARY = sorted(Path(curvelab.__file__).parent.glob("*.py"))


def test_the_vector_layer_does_not_import_numpy():
    # numpy is a test and benchmark dependency only: no module of the
    # library imports it, the vector layer included
    found = [f"{path.name}:{line} imports numpy" for path in LIBRARY
             for line, m in _imports(path) if m == "numpy"]
    assert found == []


def test_the_library_reads_no_environment():
    # settings come from arguments and flags alone: no module imports os,
    # or reads the environment through environ or getenv by another path
    found = [f"{path.name}:{line} imports os" for path in LIBRARY
             for line, m in _imports(path) if m == "os"]
    found += [f"{path.name}:{node.lineno} reads {ast.unparse(node)}"
              for path in LIBRARY
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.Name, ast.Attribute))
              and {"environ", "getenv"} & {getattr(node, "id", None),
                                           getattr(node, "attr", None)}]
    assert found == []


# Builtin sum() compensates its rounding since Python 3.12, so a float sum
# prints different bits on different versions.  Every reference to it in
# the library, keyed by (file, innermost function, call source):
_ALLOWED_SUMS = {
    ("cli.py", "cmd_verify", "sum((r.passed for r in results))"):
        "counts bools: the criteria that passed",
    ("frenet.py", "_derivative_rank",
     "sum((x > RANK_REL_TOL * max(sv) for x in sv))"):
        "counts bools: the singular values above the rank threshold",
    ("frenet.py", "gram_errors", "sum(devs)"):
        "read only by math.isnan: NaN exactly when a deviation is NaN",
}


class _SumReferences(ast.NodeVisitor):
    def __init__(self, filename):
        self.filename, self.scope, self.found = filename, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            self.found.append((self.filename, self.scope[-1],
                               ast.unparse(node)))
            for child in [*node.args, *node.keywords]:
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_Name(self, node):
        # sum passed on, rebound or aliased, not called in place
        if node.id == "sum":
            self.found.append((self.filename, self.scope[-1], "sum"))

    def visit_Attribute(self, node):
        # builtins.sum, or any other module's sum
        if node.attr == "sum":
            self.found.append((self.filename, self.scope[-1],
                               ast.unparse(node)))
        self.generic_visit(node)


def test_builtin_sum_adds_no_floats():
    # the jets' promise: no printed bit depends on the Python version
    root = Path(curvelab.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        visitor = _SumReferences(path.name)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert sorted(found) == sorted(_ALLOWED_SUMS)


_WITHOUT_NUMPY = """
import io, sys
sys.modules["numpy"] = None          # any import of numpy now fails
from curvelab import cli
for argv in (["rectify-check", "--curve", "lorentz_helix"],
             ["synthesize", "--ds", "2e-3", "--samples", "21",
              "-o", "synth.csv"],
             ["rectify-check", "--from-synthesis", "synth.csv",
              "--samples", "21"],
             ["verify", "lorentz"]):
    print(cli.main(argv, out=io.StringIO()))
"""


def test_the_cli_runs_with_numpy_blocked(tmp_path):
    src = Path(curvelab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the helix is not rectifying (1); the synthesis and its check pass
    assert proc.stdout.split() == ["1", "0", "0", "0"]


def test_the_cli_imports_no_dataclasses_inspect_or_numpy():
    # the records are NamedTuples and slotted classes: no dataclass code is
    # generated and compiled at import; -S keeps site's own imports out
    src = Path(curvelab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, curvelab.cli; print(sorted({'dataclasses', "
            "'inspect', 'numpy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
