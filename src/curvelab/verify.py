"""Self-check suites: nine numbered acceptance criteria over the library.

Each criterion is a function of a shared Workspace (which caches the
expensive artifacts: arclength maps, the constructed rectifying curves,
and the synthesized profile curve) and returns a CriterionResult.  The
CLI ``verify`` command and the acceptance tests both run these.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import curves, frenet, jets, rectifying
from .errors import FrameDriftExceeded
from .lorentz import minkowski_dot

ODE_TOL = 1e-7
GRAM_TOL = 1e-8
CONSTRUCT_TOL = 1e-8
HELIX_FIT_FLOOR = 1e-2
ORIGIN_FLOOR = 1e-3
FD_TOL = 1e-6
REPORT_TOL = rectifying.ReportTolerances()

# Order-4 central-difference stencils, k to weights and half-width; the step
# sizes are tuned so truncation stays below FD_TOL on every catalog curve
# while roundoff stays negligible.
_FD_STENCILS = {
    k: ([c / d for c in weights], len(weights) // 2)
    for k, weights, d in ((1, (1.0, -8.0, 0.0, 8.0, -1.0), 12.0),
                          (2, (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0),
                          (3, (1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0), 8.0),
                          (4, (-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0),
                           6.0))}
_FD_STEPS = {1: 1e-2, 2: 1e-2, 3: 8e-3, 4: 1e-2}
# Where the margin sits: the worst error is paper_example's k = 4 stencil
# near the low end of its domain (t ~ 0.9314), 5.663e-7 against FD_TOL; the
# next are paper_example's k = 3 at 3.51e-7 and k = 4 on hyperbolic_geodesic
# at 2.58e-7 and on lorentz_helix at 2.48e-7.  That sets verify_suites'
# tol_margin_log10 of 0.247, the smallest margin in the benchmark.

NONDEGENERATE_IDS = ("hyperbolic_clelia", "lorentz_helix")
DEGENERATE_ID = "paper_example"

# Construction window on the clelia input, in arclength of the spherical
# curve: stays clear of the frame sign transition near u=0.28 and the
# third-curvature zero near u=1.45.
CONSTRUCT_DOMAIN = (0.35, 1.2)


class CriterionResult(NamedTuple):
    """One criterion's verdict and its printed line.  ``figures`` holds the
    residuals behind the line as unrounded floats, by name, for the
    residual ledger in the tests; it is not printed."""

    number: int
    name: str
    passed: bool
    detail: str
    figures: Mapping[str, float] = MappingProxyType({})

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} -- {self.detail}"


class Workspace:
    """Lazy cache of the artifacts shared between criteria."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def source(self, catalog_id: str) -> frenet.JetFrameSource:
        return self._get(("source", catalog_id),
                         lambda: frenet.JetFrameSource(
                             curves.make_spec(catalog_id)))

    def constructed(self, a: float) -> frenet.JetFrameSource:
        def build():
            spec = rectifying.construct_rectifying(
                curves.make_spec("hyperbolic_clelia"),
                rectifying.ConstructionParams(a=a, t0=0.3,
                                              domain=CONSTRUCT_DOMAIN))
            return frenet.JetFrameSource(spec)
        return self._get(("constructed", a), build)

    def synthesized(self, coupling_eps: int | None = None
                    ) -> frenet.SynthesizedCurve:
        def build():
            profile = frenet.rectifying_profile()
            return frenet.synthesize_curve(profile, ds=1e-3,
                                           coupling_eps=coupling_eps)
        return self._get(("synth", coupling_eps), build)


def criterion_1(ws: Workspace) -> CriterionResult:
    """Gram conditions and the eps sign on the non-degenerate catalog."""
    worst = 0.0
    eps_ok = True
    for cid in NONDEGENERATE_IDS:
        src = ws.source(cid)
        for s in src.grid_samples(100):
            f = src.frame(s)
            worst = max(worst, frenet.gram_errors(f.T, f.N, f.B1, f.B2,
                                                  f.eps))
            g_b1 = minkowski_dot(f.B1, f.B1)
            eps_ok = eps_ok and f.eps == int(math.copysign(1.0, g_b1))
    ok = worst < GRAM_TOL and eps_ok
    return CriterionResult(1, "metric/frame suite", ok,
                           f"max Gram error {worst:.3e} (< {GRAM_TOL:.0e}), "
                           f"eps sign exact: {eps_ok}", {"gram": worst})


def _ode_numbers(spec, amap, s):
    """The residual at ``ODE_H`` and the ratios of the residuals at the
    halving steps 2e-2, 1e-2 and 5e-3; one centre frame serves every step."""
    f0 = frenet.frenet_apparatus(spec, amap, s)
    r = [max(frenet.frenet_ode_residual(spec, amap, f0, h))
         for h in (frenet.ODE_H, 2e-2, 1e-2, 5e-3)]
    return r[0], [r[1] / r[2], r[2] / r[3]]


def criterion_2(ws: Workspace) -> CriterionResult:
    """Frenet ODE residuals on the helix and a constructed rectifying curve."""
    details, figures = [], {}
    ok = True
    for label, src in (("lorentz_helix", ws.source("lorentz_helix")),
                       ("constructed(a=3)", ws.constructed(3.0))):
        lo, hi = src.s_range
        s = 0.5 * (lo + hi)
        r0, ratios = _ode_numbers(src.spec, src.map, s)
        order2 = all(3.0 < r < 5.0 for r in ratios)
        ok = ok and r0 < ODE_TOL and order2
        figures[label] = r0
        details.append(f"{label}: residual {r0:.2e} at h={frenet.ODE_H:.0e}, "
                       f"halving ratios {[f'{r:.2f}' for r in ratios]}")
    return CriterionResult(2, "Frenet ODE suite", ok, "; ".join(details),
                           figures)


def criterion_3(ws: Workspace) -> CriterionResult:
    """Spherical construction yields g(alpha, N) = 0."""
    src = ws.constructed(1.0)
    worst = max(abs(rectifying.rectifying_residual(src, s))
                for s in src.grid_samples(50))
    return CriterionResult(3, "spherical construction", worst < CONSTRUCT_TOL,
                           f"max |g(alpha,N)| {worst:.3e} "
                           f"(< {CONSTRUCT_TOL:.0e}) at 50 samples",
                           {"g(alpha,N)": worst})


def criterion_4(ws: Workspace) -> CriterionResult:
    """Component battery on the constructed curve: the report's verdict."""
    src = ws.constructed(1.0)
    rep = rectifying.theorem33_report(src, src.grid_samples(50),
                                      REPORT_TOL,
                                      curve_name=src.spec.catalog_id)
    lead = rep.distance_quadratic["lead"]
    slope = rep.tangential_linear["slope"]
    dev = rep.normal_constancy["max_deviation"]
    rb1 = rep.binormal_components["residual_b1"]
    rb2 = rep.binormal_components["residual_b2"]
    return CriterionResult(
        4, "component battery", rep.verdict,
        f"lead-1 {lead - 1.0:.2e}, slope-1 {slope - 1.0:.2e}, "
        f"normal dev {dev:.2e}, binormal residuals {rb1:.2e}/{rb2:.2e}",
        {"lead-1": lead - 1.0, "slope-1": slope - 1.0, "normal dev": dev,
         "residual_b1": rb1, "residual_b2": rb2})


def criterion_5(ws: Workspace) -> CriterionResult:
    """Curvature-ratio law in both directions."""
    src = ws.constructed(1.0)
    fwd = rectifying.fit_theorem31(src, src.grid_samples(50))
    synth = ws.synthesized()
    samples = synth.grid_samples(41)
    shifted, fit = rectifying.recentred(synth, samples, c=0.0)
    drift = rectifying.constant_vector_drift(fit)
    resid = max(abs(rectifying.rectifying_residual(shifted, s))
                for s in samples)
    ok = (fwd.rms_residual < REPORT_TOL.thm31_rms and drift < REPORT_TOL.drift
          and resid < 1e-6)
    return CriterionResult(
        5, "curvature-ratio law", ok,
        f"forward rms {fwd.rms_residual:.2e}; synthesis: X drift "
        f"{drift:.2e}, shifted |g(alpha,N)| {resid:.2e}, "
        f"A={fit.A:.6f} B={fit.B:.6f}",
        {"forward rms": fwd.rms_residual, "X drift": drift,
         "shifted g(alpha,N)": resid})


def criterion_6(ws: Workspace) -> CriterionResult:
    """Non-rectifying witness: no c and no origin fit the flat helix."""
    src = ws.source("lorentz_helix")
    samples = src.grid_samples(60)
    kappas = [(f.kappa1, f.kappa2, f.kappa3)
              for f in map(src.frame, samples)]
    k_dev = max(abs(k - k0) for ks in kappas for k, k0 in zip(ks, kappas[0]))
    _, best_rms = rectifying.thm31_min_rms_over_c(src, samples)
    _, origin_rms = rectifying.least_squares_origin(src, samples)
    ok = (k_dev < 1e-8 and best_rms > HELIX_FIT_FLOOR
          and origin_rms > ORIGIN_FLOOR)
    return CriterionResult(
        6, "non-rectifying witness", ok,
        f"kappa dev {k_dev:.2e}; min rms over every c {best_rms:.3f} "
        f"(> {HELIX_FIT_FLOOR}); min rms over every origin {origin_rms:.4f} "
        f"(> {ORIGIN_FLOOR})", {"kappa dev": k_dev})


def criterion_7(ws: Workspace) -> CriterionResult:
    """Planar curve degenerates at every sample, and the CSV says so.

    ``cli.frenet_rows`` extracts each sample's frame once and gives both
    counts: a sample whose frame stops raising DegenerateFrame emits a row
    unless a residual neighbour still raises."""
    spec = curves.make_spec(DEGENERATE_ID)
    amap = frenet.arclength_map(spec)
    n = 100
    from . import cli
    rows, degenerate = cli.frenet_rows(spec, amap, n)
    ok = degenerate == n and not rows
    return CriterionResult(
        7, "degeneracy regression", ok,
        f"{degenerate}/{n} samples raise DegenerateFrame; CSV rows "
        f"{len(rows)}, degenerate_samples={degenerate}")


def fd_oracle_error() -> float:
    """Largest relative error of the k = 1..4 finite differences against
    the jet derivatives, at 50 random points on each static curve.

    The exact derivatives take one jet evaluation per point.  The
    stencils share their node offsets ``o * h``, the point itself among
    them, so each point reads the position at every distinct offset once,
    into one list that every stencil indexes.
    """
    rng = random.Random(0)
    worst = 0.0
    margin = 3 * max(_FD_STEPS.values())
    index = {}                          # node offset to its place in a row
    plan = []
    for k, h in _FD_STEPS.items():
        w, half = _FD_STENCILS[k]
        at = [index.setdefault(o * h, len(index))
              for o in range(-half, half + 1)]
        plan.append((k, w, h ** k, itemgetter(*at)))
    for cid in curves.catalog_ids():
        if ":" in cid:                  # a constructed curve
            continue
        spec = curves.make_spec(cid)
        lo, hi = spec.domain
        for _ in range(50):
            t = rng.uniform(lo + margin, hi - margin)
            cj = curves.eval_curve(spec, t)
            row = [curves.position(spec, t + d) for d in index]
            for k, w, hk, nodes in plan:
                exact = [c[k] * jets._FACT[k] for c in cj]
                err = [math.fsum(map(mul, w, coord)) / hk - e
                       for coord, e in zip(zip(*nodes(row)), exact)]
                worst = max(worst, math.hypot(*err)
                            / max(math.hypot(*exact), 1e-12))
    return worst


def criterion_8(ws: Workspace) -> CriterionResult:
    """Jet derivatives against order-4 central finite differences."""
    worst = fd_oracle_error()
    return CriterionResult(8, "oracle cross-check", worst < FD_TOL,
                           f"max relative FD error {worst:.3e} (< {FD_TOL:.0e})",
                           {"FD error": worst})


def criterion_9(ws: Workspace) -> CriterionResult:
    """Mutation sensitivity: a flipped coupling sign must break suites 2 and 5."""
    src = ws.source("lorentz_helix")
    lo, hi = src.s_range
    f0 = frenet.frenet_apparatus(src.spec, src.map, 0.5 * (lo + hi))
    # the mutant flips the (B1)' coupling to N, the one place eps enters:
    # the centre frame carries -eps, as the synthesis runs coupling_eps=-eps
    mutated = max(frenet.frenet_ode_residual(
        src.spec, src.map, f0._replace(eps=-f0.eps), frenet.ODE_H))
    suite2_fails = mutated > ODE_TOL
    try:
        synth = ws.synthesized(-frenet.rectifying_profile().eps)
        suite5_fails = synth.max_drift > 1e-6
        note = f"mutated drift {synth.max_drift:.2e}"
    except FrameDriftExceeded as exc:
        suite5_fails = True
        note = f"synthesis aborted: {exc}"
    ok = suite2_fails and suite5_fails
    return CriterionResult(
        9, "mutation sensitivity", ok,
        f"mutated ODE residual {mutated:.2e} (suite 2 fails: {suite2_fails}); "
        f"{note} (suite 5 fails: {suite5_fails})")


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)

SUITES = {
    "all": (1, 2, 3, 4, 5, 6, 7, 8, 9),
    "lorentz": (1, 8),
    "frenet": (2, 7, 9),
    "rectifying": (3, 4, 5, 6),
}


def run_suite(name: str, ws: Workspace | None = None) -> list[CriterionResult]:
    ws = ws or Workspace()
    return [CRITERIA[i - 1](ws) for i in SUITES[name]]
