"""Per-layer tracing of one driven pass, from outside the program.

``Tracer.install`` wraps the public functions of ``curves``, ``frenet``,
``rectifying``, ``cli`` and ``verify`` (plus the methods that carry the
arclength, frame and quadrature work) in every curvelab module that binds
them by name, so calls made through ``from .curves import eval_curve`` are
seen too.  Each call records a span in memory: name, parent, start, end
and the time its children took, from which self time follows.  Jet and
``lorentz`` operations are far too hot for spans; they are counted, and
timed on their own by ``micro_benchmarks``.
"""
from __future__ import annotations

import inspect
import statistics
import time
import timeit
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

SPANNED = ("curves", "frenet", "rectifying", "cli", "verify")

# Public methods whose calls carry the arclength, frame and quadrature work.
METHODS = {
    "frenet": {"ArclengthMap": ("s_of_t", "t_of_s"),
               "JetFrameSource": ("frame", "kappa3_integral"),
               "SynthesizedCurve": ("frame", "kappa3_integral")},
    "cli": {"CsvFrameSource": ("__init__", "frame", "kappa3_integral")},
}

ROOT_SPAN = "bench.pass"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.child: list[float] = []
        self.nested: list[bool] = []       # inside a span of the same name
        self._stack: list[int] = []
        self._open_by_name: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.rk4_steps = 0
        self.max_gram_drift = 0.0
        self._fit_ts: list[np.ndarray] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.child.append(0.0)
        self.nested.append(self._open_by_name[name] > 0)
        self._open_by_name[name] += 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        t = time.perf_counter()
        self._stack.pop()
        self._open_by_name[self.names[idx]] -= 1
        self.end[idx] = t
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    @contextmanager
    def region(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _span(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation -----------------------------------------------------

    def install(self, m) -> None:
        """Wrap the layers of a freshly imported curvelab ``m``."""
        modules = [getattr(m, name) for name in vars(m)]
        hooks = {"synthesize_curve": self._on_synthesis,
                 "fit_theorem31": self._on_fit}
        for layer in SPANNED:
            mod = getattr(m, layer)
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._span(f"{layer}.{name}", obj, hooks.get(name))
                for other in modules:         # every module binding it
                    for alias, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, alias, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self._span(
                        f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        # run_suite looks the criteria up in a tuple, not by name
        m.verify.CRITERIA = tuple(getattr(m.verify, f.__name__)
                                  for f in m.verify.CRITERIA)
        jet = m.jets.Jet
        jet.__mul__ = jet.__rmul__ = self._count("jets.mul", jet.__mul__)
        jet.__post_init__ = self._count("jets.built", jet.__post_init__)

    def _on_synthesis(self, curve) -> None:
        self.rk4_steps += len(curve.s) - 1
        self.max_gram_drift = max(self.max_gram_drift, curve.max_drift)

    def _on_fit(self, fit) -> None:
        self._fit_ts.append(fit.t_samples)   # condition number computed later

    # -- reduction --------------------------------------------------------

    def metrics(self, bytes_out: int) -> dict[str, float]:
        """Per-layer figures of the spans recorded under the root span."""
        n = len(self.names)
        names, parent = self.names, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_t = [dur[i] - self.child[i] for i in range(n)]

        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)        # outermost spans of a name only
        layer_self = defaultdict(float)
        nested_t_of_s = 0
        newton_iters = 0
        frame_misses = set()
        for i in range(n):
            name = names[i]
            calls[name] += 1
            self_s[name] += self_t[i]
            layer_self[name.split(".")[0]] += self_t[i]
            if not self.nested[i]:
                incl_s[name] += dur[i]
            elif name == "frenet.ArclengthMap.t_of_s":
                nested_t_of_s += 1
            p = parent[i]
            if p >= 0:
                if (name == "frenet.adaptive_simpson"
                        and names[p] == "frenet.ArclengthMap.t_of_s"):
                    newton_iters += 1
                if (name == "frenet.frenet_apparatus"
                        and names[p] == "frenet.JetFrameSource.frame"):
                    frame_misses.add(p)

        def ratio(num, den):
            return num / den if den else 0.0

        k3 = ("frenet.JetFrameSource.kappa3_integral",
              "frenet.SynthesizedCurve.kappa3_integral")
        frames = calls["frenet.frenet_apparatus"]
        frame_calls = calls["frenet.JetFrameSource.frame"]
        inverses = calls["frenet.ArclengthMap.t_of_s"]
        root = names.index(ROOT_SPAN)
        out = {
            "jets.mul_calls": self.counts["jets.mul"],
            "jets.jets_built": self.counts["jets.built"],
            "curves.eval_curve.calls": calls["curves.eval_curve"],
            "curves.eval_curve.self_s": self_s["curves.eval_curve"],
            "curves.speed_jet.calls": calls["curves.speed_jet"],
            "curves.evals_per_frame": ratio(calls["curves.eval_curve"],
                                            frames),
            "frenet.arclength_map.s": incl_s["frenet.arclength_map"],
            "frenet.t_of_s.calls": inverses,
            "frenet.t_of_s.self_s": self_s["frenet.ArclengthMap.t_of_s"],
            "frenet.t_of_s.nested_calls": nested_t_of_s,
            "frenet.newton_iters_per_inverse": ratio(newton_iters, inverses),
            "frenet.adaptive_simpson.calls": calls["frenet.adaptive_simpson"],
            "frenet.speed.calls": calls["curves.speed"],
            "frenet.frenet_apparatus.calls": frames,
            "frenet.frenet_apparatus.self_s":
                self_s["frenet.frenet_apparatus"],
            "frenet.frame.hit_ratio":
                ratio(frame_calls - len(frame_misses), frame_calls),
            "frenet.kappa3_integral.calls": sum(calls[k] for k in k3),
            "frenet.kappa3_integral.self_s": sum(self_s[k] for k in k3),
            "frenet.frenet_ode_residual.s": incl_s["frenet.frenet_ode_residual"],
            "frenet.synthesize_curve.s": incl_s["frenet.synthesize_curve"],
            "frenet.rk4_steps": self.rk4_steps,
            "frenet.gram_errors.calls": calls["frenet.gram_errors"],
            "frenet.gram_errors.self_s": self_s["frenet.gram_errors"],
            "frenet.max_gram_drift": self.max_gram_drift,
            "rectifying.construct_rectifying.s":
                incl_s["rectifying.construct_rectifying"],
            "rectifying.fit_theorem31.self_s": self_s["rectifying.fit_theorem31"],
            "rectifying.theorem33_report.self_s":
                self_s["rectifying.theorem33_report"],
            "rectifying.constant_vector_drift.self_s":
                self_s["rectifying.constant_vector_drift"],
            "rectifying.fit_cond": max(
                (float(np.linalg.cond(np.column_stack([np.cosh(ts),
                                                       np.sinh(ts)])))
                 for ts in self._fit_ts), default=0.0),
            "cli.emit_s": self_s["cli.emit"] + self_s["cli.frenet_rows"],
            "cli.csv_read_s": incl_s["cli.CsvFrameSource.__init__"],
            "cli.bytes_out": bytes_out,
        }
        for k in range(1, 10):
            out[f"verify.criterion_{k}.s"] = incl_s[f"verify.criterion_{k}"]
        for layer in SPANNED:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.wall_s"] = dur[root]
        out["trace.untraced_s"] = self_t[root]
        return out


# -- micro-benchmarks ---------------------------------------------------------

def _per_call_us(stmt: str, env: dict, target_s: float = 0.02,
                 repeat: int = 7) -> float:
    """Median time of one call in microseconds, after a warm-up."""
    timer = timeit.Timer(stmt, globals=env)
    warm = 500
    per_call = timer.timeit(warm) / warm
    number = max(1, int(target_s / max(per_call, 1e-9)))
    return statistics.median(timer.repeat(repeat, number)) / number * 1e6


def micro_benchmarks(m) -> dict[str, float]:
    """Per-call cost of the jet kernel and the lorentz vector ops."""
    jets, lorentz = m.jets, m.lorentz
    a = jets.Jet((0.7, 1.3, -0.4, 0.25, 0.1))
    b = jets.Jet((1.9, 0.8, 0.3, -0.2, 0.05))
    v = lorentz.Vec4(0.3, 1.2, -0.7, 0.4)
    w = lorentz.Vec4(1.1, 0.2, 0.5, -0.9)
    env = {"jets": jets, "lorentz": lorentz, "a": a, "b": b, "v": v, "w": w}
    stmts = {
        "jets.mul_us": "a * b",
        "jets.div_us": "a / b",
        "jets.sqrt_us": "jets.sqrt(b)",
        "jets.sinhcosh_us": "jets.sinhcosh(a)",
        "jets.sincos_us": "jets.sincos(a)",
        "jets.compose_us": "jets.compose(a, b)",
        "jets.reverse_us": "jets.reverse(b, at=0.3)",
        "lorentz.minkowski_dot_us": "lorentz.minkowski_dot(v, w)",
        "lorentz.vec4_add_us": "v + w",
    }
    return {name: _per_call_us(stmt, env) for name, stmt in stmts.items()}

