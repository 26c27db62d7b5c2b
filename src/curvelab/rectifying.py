"""Rectifying-curve checks, fits, constructions and the report battery.

A curve is rectifying when g(alpha, N) vanishes identically, i.e. the
position vector stays inside span{T, B1, B2}.  Everything here consumes a
*frame source* (jet-backed extraction or a synthesized trajectory) and
produces residuals a reviewer can grep: curvature-ratio fits against the
hyperbolic model, the constant-witness vector, the Theorem 3.3 report and
the spherical construction.

The non-rectifying witnesses, ``thm31_min_rms_over_c`` and
``least_squares_origin``, are exact least-squares minima: lower bounds over
every c and every origin, not samples of a grid.

Radius law of the spherical construction: for alpha(t) = rho(t) * y(t) with
y unit speed on the hyperbolic unit sphere, projecting alpha onto the
principal normal direction gives

    g(alpha, dT/dt) = -rho * [ (rho'/v)' + rho/v ],

(using g(y,y) = -1, g(y'',y) = -g(y',y') = -1), so alpha is rectifying iff
(rho'/v)' + rho/v = 0, whose solution with v the actual speed of alpha is
rho(t) = a / cosh(t + t0).  This is the hyperbolic analogue of the familiar
Euclidean a / cos(t + t0) law, and it is what ``construct_rectifying``
uses.
"""
from __future__ import annotations

import math
from operator import le, mul
from typing import NamedTuple, Sequence

from . import jets
from .curves import (ArclengthPair, CatalogEntry, CurveSpec, _is_number,
                     _speed_jet, eval_curve, point, register_curve)
from .errors import (DegenerateFrame, IllConditionedFit,
                     NonSpacelikeVelocity, NotOnHyperbolicSphere, OutOfDomain)
from .frenet import FrenetData, TranslatedSource, arclength_map, grid
from .jets import Jet
from .lorentz import Vec4, minkowski_dot

__all__ = [
    "rectifying_residual",
    "Theorem31Fit",
    "fit_theorem31",
    "thm31_min_rms_over_c",
    "constant_vector_X",
    "constant_vector_drift",
    "recentred",
    "least_squares_origin",
    "ReportTolerances",
    "RectifyingReport",
    "theorem33_report",
    "theorem33_verdict",
    "ConstructionParams",
    "construct_rectifying",
]

FIT_CONDITION_LIMIT = 1e8
SPHERE_TOL = 1e-10
# rho^2 counts as varying when its span exceeds this share of max(1, |rho^2|);
# a fixed floor, so loosening a tolerance can never fail a curve
RHO_SPAN_FLOOR = 1e-4


def _lstsq(columns, target):
    """Least-squares coefficients, the rms of the residual and R's columns.

    Householder QR, dot products by ``math.fsum``.  The rms is the norm of
    the transformed target's tail: backward stably the least residual,
    even where R is near singular and the coefficients ill-determined.  A
    column whose part below the diagonal is at roundoff level of its norm
    lies in the span of those before it: it stays as it is, coefficient 0.

    Raises IllConditionedFit where an input, an intermediate or a result
    is not finite: a fit floating point cannot carry.
    """
    *cols, b = [list(c) for c in (*columns, target)]
    m, pivots, coef, carried = len(b), [], [], []
    try:
        for j, col in enumerate(cols):
            k = len(pivots)
            x = col[k:]
            norm = math.hypot(*x)
            carried.append(norm)
            if norm > m * 2.2e-16 * math.hypot(*col):
                alpha = -math.copysign(norm, x[0])
                scale = norm * (norm + abs(x[0]))       # v.v / 2
                x[0] -= alpha                           # v
                for y in cols[j + 1:] + [b]:
                    f = math.fsum(map(mul, x, y[k:])) / scale
                    y[k:] = [q - f * p for p, q in zip(x, y[k:])]
                col[k:] = [alpha]
                pivots.append(j)
                carried.append(scale)
        coef = [0.0] * len(cols)
        for i, j in reversed(list(enumerate(pivots))):
            coef[j] = (b[i] - math.fsum(map(mul, [c[i] for c in cols[j + 1:]],
                                            coef[j + 1:]))) / cols[j][i]
        rms = math.hypot(*b[len(pivots):]) / math.sqrt(m)
    except (ValueError, OverflowError, ZeroDivisionError):
        rms = math.nan          # fsum met inf - inf or overflowed; v.v = 0
    # a non-finite entry shows: below the diagonal in its column's norm,
    # above it and in b's head in the coefficients, in b's tail in the rms
    if not all(map(math.isfinite, [rms, *coef, *carried])):
        raise IllConditionedFit(
            f"a least-squares fit of {m} rows leaves the floating-point range")
    return coef, rms, cols


def _cond2(a, b, d):
    """2-norm condition number k of R = [[a, b], [0, d]]: k + 1/k = q + 2
    with q = ((|a| - |d|)^2 + b^2) / |a d|, from the singular values'
    product |a d| and their squares' sum a^2 + b^2 + d^2."""
    q = ((abs(a) - abs(d)) ** 2 + b * b) / abs(a * d) if a * d else math.inf
    return 1.0 + 0.5 * (q + math.sqrt(q * (q + 4.0)))


def _cosh_sinh(ts):
    """The columns cosh t and sinh t of the Theorem 3.1 design."""
    try:
        return list(map(math.cosh, ts)), list(map(math.sinh, ts))
    except OverflowError:
        raise IllConditionedFit("cosh/sinh of the torsion angle overflows")


def rectifying_residual(source, s: float) -> float:
    """g(alpha(s), N(s)); identically zero exactly on rectifying curves."""
    f = source.frame(s)
    return minkowski_dot(f.position, f.N)


# -- Theorem 3.1 fit ----------------------------------------------------------

class Theorem31Fit(NamedTuple):
    """Hyperbolic curvature-ratio fit eps*k1*(s+c)/k2 ~ A*cosh t + B*sinh t.

    ``frames`` and ``t_samples`` (t, the integral of k3) are what it read.
    """

    c: float
    A: float
    B: float
    eps: int
    rms_residual: float
    frames: list[FrenetData]
    t_samples: list[float]


def _gather(source, samples: Sequence[float]):
    """The frames and torsion angles of at least 8 samples of one eps."""
    if len(samples) < 8:
        raise IllConditionedFit("a Theorem 3.1 fit needs at least 8 samples")
    frames = [source.frame(float(s)) for s in samples]
    for f, g in zip(frames, frames[1:]):
        if f.eps != g.eps:
            # B1 turns null in between, where kappa3 blows up
            raise DegenerateFrame(2, f"eps changes from {f.eps} at s={f.s} "
                                     f"to {g.eps} at s={g.s}")
    ts = [source.kappa3_integral(float(s)) for s in samples]
    return frames, ts


def fit_theorem31(source, samples: Sequence[float],
                  c: float | None = None) -> Theorem31Fit:
    """Fit (c, A, B) of the curvature-ratio characterization over samples.

    With ``c`` omitted it is estimated from the tangential identity
    g(alpha, T) = s + c, which presumes the curve is rectifying about the
    current origin; for a translated or synthesized curve pass the known
    ``c``, or the one ``thm31_min_rms_over_c`` finds.
    """
    return _fit_gathered(*_gather(source, samples), c)


def _fit_gathered(frames: list[FrenetData], ts: list[float],
                  c: float | None) -> Theorem31Fit:
    """``fit_theorem31`` on frames and torsion angles already gathered."""
    if c is None:
        c = math.fsum(minkowski_dot(f.position, f.T) - f.s
                      for f in frames) / len(frames)
    (A, B), rms, (ch, sh) = _lstsq(_cosh_sinh(ts), [
        f.eps * f.kappa1 * (f.s + c) / f.kappa2 for f in frames])
    cond = _cond2(ch[0], sh[0], sh[1])
    if not cond <= FIT_CONDITION_LIMIT:
        raise IllConditionedFit(
            f"cosh/sinh design matrix has condition number {cond:.3e} "
            f"(limit {FIT_CONDITION_LIMIT:.0e}) on torsion angles t from "
            f"{min(ts)} to {max(ts)}")
    return Theorem31Fit(c, A, B, frames[0].eps, rms, frames, ts)


def thm31_min_rms_over_c(source, samples: Sequence[float]
                         ) -> tuple[float, float]:
    """(c, rms): the c whose Theorem 3.1 fit has the least rms, and that rms.

    With r = eps*k1/k2 the model r*(s+c) = A cosh t + B sinh t is linear in
    (A, B, c): r*s = A cosh t + B sinh t - c*r, one least-squares solve.
    The rms is the minimum over every real c even where the coefficients
    are ill-determined.
    """
    return _min_rms_c_gathered(*_gather(source, samples))


def _min_rms_c_gathered(frames: list[FrenetData], ts: list[float]
                        ) -> tuple[float, float]:
    ratio = [f.eps * f.kappa1 / f.kappa2 for f in frames]
    (_, _, c), rms, _ = _lstsq([*_cosh_sinh(ts), [-q for q in ratio]],
                               [q * f.s for q, f in zip(ratio, frames)])
    return c, rms


def _witness(f: FrenetData, t: float, fit: Theorem31Fit) -> Vec4:
    m = fit.A * math.cosh(t) + fit.B * math.sinh(t)
    n = fit.A * math.sinh(t) + fit.B * math.cosh(t)
    return f.position - (f.s + fit.c) * f.T - m * f.B1 + n * f.B2


def constant_vector_X(source, s: float, fit: Theorem31Fit) -> Vec4:
    """Witness vector that is constant exactly when the fit model holds."""
    return _witness(source.frame(s), source.kappa3_integral(s), fit)


def recentred(source, samples: Sequence[float], c: float | None = None
              ) -> tuple[TranslatedSource, Theorem31Fit]:
    """The source translated by minus the witness at the first sample, and
    the fit the witness is built from: at ``c``, else at the least-rms c."""
    frames, ts = _gather(source, samples)
    if c is None:
        c, _ = _min_rms_c_gathered(frames, ts)
    fit = _fit_gathered(frames, ts, c)
    return TranslatedSource(source, -_witness(frames[0], ts[0], fit)), fit


def constant_vector_drift(fit: Theorem31Fit) -> float:
    """max over the fit's own samples of the Euclidean norm of X(s) - X(s0)."""
    xs = [_witness(f, t, fit) for f, t in zip(fit.frames, fit.t_samples)]
    return max(math.hypot(*(x - xs[0])) for x in xs)


def least_squares_origin(source, samples: Sequence[float]
                         ) -> tuple[Vec4, float]:
    """The origin d with the least rms of g(alpha - d, N), and that rms.

    For every origin d, max_s |g(alpha - d, N)| is at least the returned
    rms, so an rms above zero shows no translation makes the curve
    rectifying on the samples.
    """
    frames = [source.frame(float(s)) for s in samples]
    n0, *rest = zip(*[f.N for f in frames])
    d, rms, _ = _lstsq([[-x for x in n0], *rest],
                       [minkowski_dot(f.position, f.N) for f in frames])
    return Vec4(*d), rms


# -- Theorem 3.3 battery ------------------------------------------------------

class ReportTolerances(NamedTuple):
    """Per-check tolerances of the report battery; all configurable."""

    distance_lead: float = 1e-6
    tangential_slope: float = 1e-8
    normal_constancy: float = 1e-7
    binormal_residual: float = 1e-6
    thm31_rms: float = 1e-6
    drift: float = 1e-6

    @classmethod
    def default(cls, every: float | None = None) -> "ReportTolerances":
        """Field defaults, or ``every`` in every field."""
        return cls() if every is None else cls(*[every] * len(cls._fields))


class RectifyingReport(NamedTuple):
    """Aggregated residuals for the characterization battery."""

    curve: str
    samples: int
    thm31: Theorem31Fit
    distance_quadratic: dict
    tangential_linear: dict
    normal_constancy: dict
    binormal_components: dict
    constant_vector_drift: float
    verdict: bool
    tolerances: ReportTolerances
    warnings: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "curve": self.curve,
            "samples": self.samples,
            "thm31": {
                "c": self.thm31.c,
                "A": self.thm31.A,
                "B": self.thm31.B,
                "eps": self.thm31.eps,
                "rms_residual": self.thm31.rms_residual,
            },
            "thm33": {
                "distance_quadratic": self.distance_quadratic,
                "tangential_linear": self.tangential_linear,
                "normal_constancy": self.normal_constancy,
                "binormal_components": self.binormal_components,
            },
            "constant_vector_drift": self.constant_vector_drift,
            "verdict": self.verdict,
            "tolerances": self.tolerances._asdict(),
            "warnings": list(self.warnings),
        }


def theorem33_report(source, samples: Sequence[float],
                     tolerances: ReportTolerances | None = None,
                     curve_name: str = "",
                     c: float | None = None) -> RectifyingReport:
    """Run the full per-statement battery and aggregate a verdict."""
    tol = tolerances if tolerances is not None else ReportTolerances()
    fit = fit_theorem31(source, samples, c=c)
    frames = fit.frames
    ss = [f.s for f in frames]
    ones = [1.0] * len(ss)
    eps = fit.eps

    # (i) distance function rho^2 = g(alpha, alpha) against s^2 + c1 s + c2
    rho_sq = [minkowski_dot(f.position, f.position) for f in frames]
    (lead, c1, c2), resid_q, _ = _lstsq([[s * s for s in ss], ss, ones],
                                        rho_sq)
    distance = {"lead": lead, "c1": c1, "c2": c2, "residual": resid_q}

    # (ii) tangential component g(alpha, T) against s + c
    tang = [minkowski_dot(f.position, f.T) for f in frames]
    (slope, c0), resid_l, _ = _lstsq([ss, ones], tang)
    tangential = {"slope": slope, "c": c0, "residual": resid_l}

    # (iii) normal component constancy with rho non-constant
    norm_sq = [q - g * g for q, g in zip(rho_sq, tang)]
    a_const = math.fsum(norm_sq) / len(norm_sq)
    dev = max(abs(q - a_const) for q in norm_sq)
    rho_nonconstant = max(rho_sq) - min(rho_sq) > RHO_SPAN_FLOOR * max(
        1.0, *map(abs, rho_sq))
    normal = {"a": a_const, "max_deviation": dev,
              "rho_nonconstant": rho_nonconstant}

    # (iv) binormal components against the model implied by the fit
    A, B = fit.A, fit.B
    res_b1 = res_b2 = res_b2_alt = 0.0
    for f, ch, sh in zip(frames, *_cosh_sinh(fit.t_samples)):
        gb1 = minkowski_dot(f.position, f.B1)
        gb2 = minkowski_dot(f.position, f.B2)
        res_b1 = max(res_b1, abs(gb1 - eps * (A * ch + B * sh)))
        res_b2 = max(res_b2, abs(gb2 - eps * (A * sh + B * ch)))
        # alternative closed form with the B term negated
        res_b2_alt = max(res_b2_alt, abs(gb2 - eps * (A * sh - B * ch)))
    binormal = {"residual_b1": res_b1, "residual_b2": res_b2,
                "residual_b2_alt_form": res_b2_alt}
    warnings = ((
        "second-binormal component matches the first-order-system form "
        "eps*(A sinh t + B cosh t); the alternative closed form with the "
        "B term negated does not fit (known sign discrepancy)",)
        if res_b2 <= tol.binormal_residual < res_b2_alt else ())

    drift = constant_vector_drift(fit)
    # the figures under their tolerances' names; the residuals are >= 0 or
    # NaN, so their sum is NaN exactly when one is
    res_b = math.nan if math.isnan(res_b1 + res_b2) else max(res_b1, res_b2)
    verdict = theorem33_verdict(ReportTolerances(
        abs(lead - 1.0), abs(slope - 1.0), dev, res_b, fit.rms_residual,
        drift), tol, rho_nonconstant)

    return RectifyingReport(
        curve=curve_name, samples=len(samples), thm31=fit,
        distance_quadratic=distance, tangential_linear=tangential,
        normal_constancy=normal, binormal_components=binormal,
        constant_vector_drift=drift, verdict=verdict,
        tolerances=tol, warnings=warnings)


def theorem33_verdict(figures: ReportTolerances, tol: ReportTolerances,
                      rho_nonconstant: bool) -> bool:
    """Every figure at most the tolerance of its name, a NaN one failing,
    and rho varying: one comparison per tolerance."""
    return rho_nonconstant and all(map(le, figures, tol))


# -- the spherical construction -----------------------------------------------

class _ConstructionFields(NamedTuple):
    a: float
    t0: float
    domain: tuple[float, float] | None


class ConstructionParams(_ConstructionFields):
    """Radius-law parameters for the spherical construction."""

    __slots__ = ()

    def __new__(cls, a: float, t0: float = 0.0,
                domain: tuple[float, float] | None = None):
        if a == 0.0:
            raise ValueError("construction requires a != 0")
        if not all(map(_is_number, (a, t0, *(domain or ())))):
            raise ValueError("construction a, t0 and domain must be finite "
                             "numbers")
        return super().__new__(cls, a, t0, domain)


def construct_rectifying(sphere_spec: CurveSpec,
                         params: ConstructionParams) -> CurveSpec:
    """Register the rectifying curve alpha(u) = rho(u) * y(u).

    ``u`` is the arclength of the spherical input y (the construction needs
    y unit speed, so the input is reparameterized internally); rho is the
    derived radius law a / cosh(u + t0).  The returned spec is a catalog
    composable jet curve.

    Its speed is |a| / cosh^2(u + t0), so its entry carries the exact
    arclength |a| * (tanh(u + t0) - tanh(lo + t0)) and its inverse, in
    forms without that cancelling difference (``_radius_law_arclength``).
    """
    ymap = arclength_map(sphere_spec)
    total = ymap.total
    for tau in grid(*sphere_spec.domain, 33):
        pos = point(sphere_spec, tau)[0]
        gap = minkowski_dot(pos, pos) + 1.0
        if not abs(gap) <= SPHERE_TOL:
            raise NotOnHyperbolicSphere(
                f"{sphere_spec.catalog_id} leaves H_0^3(1) at t={tau} "
                f"(g+1 = {gap:.3e})")

    a, t0 = params.a, params.t0

    def build(u: float, _params, n: int) -> tuple:
        # y's jets carried to its arclength u: the speed series, reverted
        # at t, gives the jet of t(u)
        t = ymap.t_of_s(u)
        yc = eval_curve(sphere_spec, t)
        v = _speed_jet(sphere_spec, t, yc)
        t_jet = jets.reverse(Jet((0.0, v[0], v[1] / 2.0, v[2] / 3.0,
                                  v[3] / 4.0)), t)
        rho = a / jets.sinhcosh(jets.variable(u) + t0)[1]
        return tuple((rho * jets.compose(Jet(c), t_jet)).coeffs[:n]
                     for c in yc)

    pad = 0.02 * total
    domain = params.domain if params.domain is not None else (pad, total - pad)
    if not (0.0 <= domain[0] < domain[1] <= total + 1e-12):
        raise OutOfDomain(
            f"construction domain {domain} outside arclength range [0, {total}]")
    try:                # cosh grows with |u + t0|: the window's ends decide
        math.cosh(max(abs(domain[0] + t0), abs(domain[1] + t0)))
    except OverflowError:
        raise NonSpacelikeVelocity(
            f"radius law a/cosh(u + t0) overflows floating point for "
            f"t0 = {t0} on the construction domain {domain}") from None
    cid = register_curve(CatalogEntry(
        build=build, default_domain=domain,
        arclength=_radius_law_arclength(a, t0)))
    return CurveSpec(cid, {}, tuple(domain))


def _radius_law_arclength(a: float, t0: float) -> ArclengthPair:
    """(s_between, t_from) for the speed |a| / cosh^2(u + t0).

    s = |a| * sinh(u - lo) / (cosh(u + t0) * cosh(lo + t0)) is the tanh
    difference rewritten without cancellation; with d = s / |a| and
    b = lo + t0 the inverse is u = lo + atanh(d / (sech^2 b - d tanh b)).
    Where floating point cannot resolve the speed (cosh^2(b) overflows, or
    s lies where tanh rounds to 1), the atanh argument leaves (-1, 1) and
    the inverse raises NonSpacelikeVelocity.
    """
    scale = abs(a)

    def s_between(_params, lo: float, u: float) -> float:
        return scale * math.sinh(u - lo) / (math.cosh(u + t0)
                                            * math.cosh(lo + t0))

    def t_from(_params, lo: float, s: float) -> float:
        d = s / scale
        ch = math.cosh(lo + t0)
        den = 1.0 / (ch * ch) - d * math.tanh(lo + t0)
        x = d / den if den > 0.0 else math.nan
        if not -1.0 < x < 1.0:
            raise NonSpacelikeVelocity(
                f"arclength {s} from u={lo} is out of reach of the speed "
                f"|a|/cosh^2(u + {t0}) in floating point")
        return lo + math.atanh(x)

    return s_between, t_from
