"""Rectifying-curve characterizations: construction, fits, controls."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from curvelab import curves, frenet, rectifying, verify
from curvelab.errors import (CurveLabError, DegenerateFrame,
                             IllConditionedFit, NonSpacelikeVelocity,
                             NotOnHyperbolicSphere, OutOfDomain)
from curvelab.lorentz import Vec4, minkowski_dot

A_PARAM = 1.0
T0_PARAM = 0.3
WINDOW = (0.35, 1.2)


@pytest.fixture(scope="module")
def constructed():
    spec = rectifying.construct_rectifying(
        curves.make_spec("hyperbolic_clelia"),
        rectifying.ConstructionParams(a=A_PARAM, t0=T0_PARAM, domain=WINDOW))
    return frenet.JetFrameSource(spec)


@pytest.fixture(scope="module")
def helix():
    return frenet.JetFrameSource(curves.make_spec("lorentz_helix"))


def samples_of(source, count):
    lo, hi = source.s_range
    pad = 0.01 * (hi - lo)
    return list(np.linspace(lo + pad, hi - pad, count))


# -- construction -------------------------------------------------------------

def test_constructed_curve_is_rectifying(constructed):
    worst = max(abs(rectifying.rectifying_residual(constructed, s))
                for s in samples_of(constructed, 50))
    assert worst < 1e-12


def test_construction_rejects_non_sphere_input():
    with pytest.raises(NotOnHyperbolicSphere):
        rectifying.construct_rectifying(
            curves.make_spec("lorentz_helix"),
            rectifying.ConstructionParams(a=1.0))


def test_construction_rejects_a_sphere_curve_1e_6_off_h3():
    # the clelia scaled by sqrt(1 + 1e-6): g(y, y) + 1 = -1e-6 everywhere
    clelia = curves._lookup("hyperbolic_clelia")
    r = math.sqrt(1.0 + 1e-6)
    cid = curves.register_curve(curves.CatalogEntry(
        build=lambda t, p, n: tuple(tuple(r * x for x in c)
                                    for c in clelia.build(t, p, n)),
        default_domain=clelia.default_domain))
    with pytest.raises(NotOnHyperbolicSphere, match=r"g\+1 = -1\.000e-06"):
        rectifying.construct_rectifying(curves.make_spec(cid),
                                        rectifying.ConstructionParams(a=1.0))


def test_sphere_check_inverts_no_arclength(monkeypatch):
    # the 33 points of the H_0^3(1) check lie on the parameter grid, so
    # choosing them takes no Newton inversion of the arclength
    calls = []
    real = frenet.ArclengthMap.t_of_s
    monkeypatch.setattr(frenet.ArclengthMap, "t_of_s",
                        lambda self, s: calls.append(s) or real(self, s))
    rectifying.construct_rectifying(
        curves.make_spec("hyperbolic_clelia"),
        rectifying.ConstructionParams(a=A_PARAM, t0=T0_PARAM, domain=WINDOW))
    assert calls == []


@pytest.mark.parametrize("t0", [800.0, -711.0])
def test_construction_rejects_a_radius_law_that_overflows(t0):
    # cosh(u + t0) overflows past |u + t0| ~ 710.48: a typed error, not a
    # bare OverflowError from the jet kernel
    with pytest.raises(NonSpacelikeVelocity, match="overflows"):
        rectifying.construct_rectifying(
            curves.make_spec("hyperbolic_clelia"),
            rectifying.ConstructionParams(a=1.0, t0=t0, domain=WINDOW))


def test_construction_rejects_zero_scale():
    with pytest.raises(ValueError):
        rectifying.ConstructionParams(a=0.0)


@pytest.mark.parametrize("kwargs", [{"a": True, "t0": False},
                                    {"a": 1.0, "domain": (False, True)}],
                         ids=["a_t0", "domain"])
def test_construction_rejects_booleans(kwargs):
    with pytest.raises(ValueError, match="must be finite numbers"):
        rectifying.ConstructionParams(**kwargs)


def test_constructed_speed_matches_radius_law(constructed):
    a, t0 = A_PARAM, T0_PARAM
    for u in (0.4, 0.8, 1.1):
        want = abs(a) / math.cosh(u + t0) ** 2
        assert math.isclose(curves.speed(constructed.spec, u), want,
                            rel_tol=1e-10)


# -- exact arclength of the construction --------------------------------------

# (a, t0) of the constructed curves checked against their quadrature maps
CONSTRUCTIONS = [(1.0, 0.3), (3.0, 0.3), (-2.0, 0.4), (2.5, 0.47)]


def construct(a, t0):
    return rectifying.construct_rectifying(
        curves.make_spec("hyperbolic_clelia"),
        rectifying.ConstructionParams(a=a, t0=t0, domain=WINDOW))


@pytest.fixture(scope="module", params=CONSTRUCTIONS,
                ids=[f"a={a},t0={t0}" for a, t0 in CONSTRUCTIONS])
def constructed_maps(request):
    """(spec, closed-form map, quadrature map) of one constructed curve.

    The quadrature map comes from the same build registered without its
    arclength pair, so only the map differs.
    """
    spec = construct(*request.param)
    quad_id = curves.register_curve(spec.entry._replace(arclength=None))
    quad = frenet.arclength_map(curves.CurveSpec(quad_id, {}, spec.domain))
    return spec, frenet.arclength_map(spec), quad


def test_closed_form_map_matches_quadrature(constructed_maps):
    spec, exact, quad = constructed_maps
    assert (exact.spec.entry.arclength is not None
            and quad.spec.entry.arclength is None)
    assert math.isclose(exact.total, quad.total, abs_tol=1e-13)
    for t in np.linspace(*spec.domain, 13):
        assert math.isclose(exact.s_of_t(float(t)), quad.s_of_t(float(t)),
                            abs_tol=1e-13)
    for s in np.linspace(0.0, exact.total, 13):
        assert math.isclose(exact.t_of_s(float(s)), quad.t_of_s(float(s)),
                            abs_tol=1e-13)


def test_closed_form_map_differentiates_to_the_speed(constructed_maps):
    spec, exact, _ = constructed_maps
    h = 1e-5
    for t in np.linspace(*spec.domain, 15)[1:-1]:
        t = float(t)
        slope = (exact.s_of_t(t + h) - exact.s_of_t(t - h)) / (2.0 * h)
        assert math.isclose(slope, curves.speed(spec, t), rel_tol=1e-8)


def test_closed_form_map_against_high_precision_reference():
    # at t0 = 5 the plain tanh difference loses about 12 digits
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    a, t0 = 2.0, 5.0
    spec = construct(a, t0)
    amap = frenet.arclength_map(spec)
    lo = mpmath.mpf(spec.domain[0])

    def s_ref(t):
        return abs(a) * (mpmath.tanh(mpmath.mpf(t) + t0) - mpmath.tanh(lo + t0))

    def t_ref(s):
        return mpmath.atanh(mpmath.tanh(lo + t0) + mpmath.mpf(s) / abs(a)) - t0

    for t in np.linspace(*spec.domain, 13)[1:]:
        want = s_ref(float(t))
        assert abs(amap.s_of_t(float(t)) - want) <= 1e-14 * abs(want)
    for s in np.linspace(0.0, amap.total, 13):
        want = t_ref(float(s))
        assert abs(amap.t_of_s(float(s)) - want) <= 1e-14 * abs(want)


def test_closed_form_map_keeps_its_domain_guards(constructed_maps):
    spec, exact, _ = constructed_maps
    lo, hi = spec.domain
    for s in (-1e-3, exact.total * 1.01, exact.total + 1e-3):
        with pytest.raises(OutOfDomain):
            exact.t_of_s(s)
    for t in (lo - 1e-3, hi + 1e-3):
        with pytest.raises(OutOfDomain):
            exact.s_of_t(t)


@pytest.mark.parametrize("t0", [20.0, 400.0])
def test_speed_below_resolution_raises_a_typed_error(t0):
    # from t0 = 20 on, tanh(u + t0) rounds to 1 and |a|/cosh^2 is far below
    # the roundoff of the position jets; at 400, cosh^2 overflows
    spec = construct(1.0, t0)
    with pytest.raises(CurveLabError):
        src = frenet.JetFrameSource(spec)
        for s in samples_of(src, 5):
            src.frame(s)


@pytest.mark.parametrize("a, t0", CONSTRUCTIONS)
def test_constructed_frames_satisfy_the_gram_conditions(a, t0):
    src = frenet.JetFrameSource(construct(a, t0))
    for s in samples_of(src, 50):
        f = src.frame(s)
        assert frenet.gram_errors(f.T.components, f.N.components,
                                  f.B1.components, f.B2.components,
                                  f.eps) < verify.GRAM_TOL
        assert f.eps == int(math.copysign(1.0, minkowski_dot(f.B1, f.B1)))


# -- hyperbolic fit -----------------------------------------------------------

def test_fit_on_constructed_curve(constructed):
    fit = rectifying.fit_theorem31(constructed, samples_of(constructed, 50))
    assert fit.rms_residual < 1e-10
    assert fit.eps == -1


def test_fit_needs_enough_samples(constructed):
    with pytest.raises(IllConditionedFit):
        rectifying.fit_theorem31(constructed, samples_of(constructed, 5))


class SqueezedTorsion:
    """A source's frames with the torsion angles 0.5 + width * s."""

    def __init__(self, base, width):
        self.base, self.width = base, width
        self.s_range = base.s_range

    def frame(self, s):
        return self.base.frame(s)

    def kappa3_integral(self, s):
        return 0.5 + self.width * s


def test_fit_refuses_a_design_at_condition_1e9(constructed):
    # over s in [0, 0.33] the cosh/sinh design's condition is about
    # 15 / width: 1e7 is fitted, 1e9 is refused
    ss = samples_of(constructed, 12)
    rectifying.fit_theorem31(SqueezedTorsion(constructed, 1.5e-6), ss)
    with pytest.raises(IllConditionedFit,
                       match=r"condition number 1\.\d+e\+09"):
        rectifying.fit_theorem31(SqueezedTorsion(constructed, 1.5e-8), ss)


def test_constant_vector_is_constant(constructed):
    ss = samples_of(constructed, 30)
    fit = rectifying.fit_theorem31(constructed, ss)
    assert rectifying.constant_vector_drift(fit) < 1e-10


def test_report_verdict_and_warning(constructed):
    rep = rectifying.theorem33_report(constructed,
                                      samples_of(constructed, 50),
                                      curve_name="constructed")
    assert rep.verdict
    assert rep.curve == "constructed"
    assert any("sign discrepancy" in w for w in rep.warnings)
    d = rep.to_json_dict()
    assert set(d) == {"curve", "samples", "thm31", "thm33",
                      "constant_vector_drift", "verdict", "tolerances",
                      "warnings"}
    assert set(d["thm31"]) == {"c", "A", "B", "eps", "rms_residual"}
    assert set(d["thm33"]) == {"distance_quadratic", "tangential_linear",
                               "normal_constancy", "binormal_components"}


class CountingSource:
    """A frame source that counts the reads of each sample."""

    def __init__(self, base):
        self.base = base
        self.reads = Counter()

    @property
    def s_range(self):
        return self.base.s_range

    def frame(self, s):
        self.reads["frame", s] += 1
        return self.base.frame(s)

    def kappa3_integral(self, s):
        self.reads["kappa3_integral", s] += 1
        return self.base.kappa3_integral(s)


def test_report_reads_each_sample_once(constructed):
    source = CountingSource(constructed)
    ss = samples_of(constructed, 12)
    rep = rectifying.theorem33_report(source, ss,
                                      rectifying.ReportTolerances())
    assert source.reads == Counter({(name, s): 1 for s in ss
                                    for name in ("frame", "kappa3_integral")})
    # the drift is that of the witness on the samples the fit read
    assert rep.thm31.frames == [constructed.frame(s) for s in ss]
    xs = [np.array(rectifying.constant_vector_X(constructed, s,
                                                rep.thm31).components)
          for s in ss]
    assert rep.constant_vector_drift == max(
        float(np.linalg.norm(x - xs[0])) for x in xs)


def test_torsion_memo_holds_one_angle_per_sample(constructed):
    src = frenet.JetFrameSource(constructed.spec)
    ss = samples_of(src, 12)
    first, second = (rectifying.theorem33_report(
        src, ss, rectifying.ReportTolerances()) for _ in range(2))
    assert list(second.thm31.t_samples) == list(first.thm31.t_samples)
    assert second.to_json_dict() == first.to_json_dict()
    assert src._k3.keys() == {0.0, *ss}


@pytest.mark.parametrize("curve", ["helix", "constructed"])
def test_frame_cache_holds_only_the_requested_samples(curve, request):
    # the torsion angle's quadrature nodes are evaluated, not cached
    src = frenet.JetFrameSource(request.getfixturevalue(curve).spec)
    ss = list(src.grid_samples(50))
    rectifying.theorem33_report(src, ss, rectifying.ReportTolerances())
    assert src._frames.keys() == set(ss)


def test_eps_change_among_the_samples_stops_before_the_torsion_angle():
    # on the clelia eps flips between the 2nd and 3rd of 20 samples, where
    # B1 turns null and kappa3 spikes
    source = CountingSource(
        frenet.JetFrameSource(curves.make_spec("hyperbolic_clelia")))
    ss = list(source.base.grid_samples(20))
    with pytest.raises(DegenerateFrame) as exc:
        rectifying.theorem33_report(source, ss)
    assert exc.value.level == 2
    assert str(exc.value) == (f"eps changes from 1 at s={ss[1]} "
                              f"to -1 at s={ss[2]}")
    assert not [key for key in source.reads if key[0] == "kappa3_integral"]


def test_report_verdict_is_monotone_in_the_tolerances():
    # every residual of this construction is below 3e-14, so loosening the
    # tolerances must keep the verdict true
    src = frenet.JetFrameSource(construct(2.0, 0.48))
    ss = samples_of(src, 50)
    for tol in (1e-6, 1e-4, 1e-3, 1e-2):
        rep = rectifying.theorem33_report(
            src, ss, rectifying.ReportTolerances.default(every=tol))
        assert rep.normal_constancy["rho_nonconstant"], tol
        assert rep.verdict, tol


# distinct bounds, so a figure compared with another field's bound shows
TABLE_TOL = rectifying.ReportTolerances(1e-6, 2e-8, 3e-7, 4e-6, 5e-6, 6e-6)


def _verdict_table():
    yield "all_at_bound", TABLE_TOL, True, True
    yield "rho_constant", TABLE_TOL, False, False
    for name, bound in TABLE_TOL._asdict().items():
        for label, value in (("past", math.nextafter(bound, math.inf)),
                             ("nan", math.nan)):
            yield (f"{name}_{label}", TABLE_TOL._replace(**{name: value}),
                   True, False)


@pytest.mark.parametrize("figures, rho_nonconstant, want",
                         [case[1:] for case in _verdict_table()],
                         ids=[case[0] for case in _verdict_table()])
def test_verdict_table(figures, rho_nonconstant, want):
    # each figure crosses its own bound alone; a NaN figure fails
    assert rectifying.theorem33_verdict(figures, TABLE_TOL,
                                        rho_nonconstant) is want


class ScaledB1:
    """A frame source whose first binormal is scaled: a tampered table."""

    def __init__(self, base, factor):
        self.base, self.factor = base, factor
        self.s_range = base.s_range

    def frame(self, s):
        f = self.base.frame(s)
        return f._replace(B1=self.factor * f.B1)

    def kappa3_integral(self, s):
        return self.base.kappa3_integral(s)


@pytest.mark.parametrize("b1_scale", [1.0, 1.0 + 1e-9],
                         ids=["b2_larger", "b1_larger"])
def test_report_bounds_each_of_its_figures(constructed, b1_scale):
    # tolerances equal to the report's own figures pass; lowering any one
    # of them below its figure fails, both binormal residuals included
    src = ScaledB1(constructed, b1_scale)
    ss = samples_of(constructed, 12)
    rep = rectifying.theorem33_report(src, ss, rectifying.ReportTolerances())
    b = rep.binormal_components
    assert (b["residual_b1"] > b["residual_b2"]) == (b1_scale != 1.0)
    figures = rectifying.ReportTolerances(
        abs(rep.distance_quadratic["lead"] - 1.0),
        abs(rep.tangential_linear["slope"] - 1.0),
        rep.normal_constancy["max_deviation"],
        max(b["residual_b1"], b["residual_b2"]), rep.thm31.rms_residual,
        rep.constant_vector_drift)
    assert rectifying.theorem33_report(src, ss, figures).verdict
    for name, figure in figures._asdict().items():
        below = figures._replace(**{name: math.nextafter(figure, 0.0)})
        assert not rectifying.theorem33_report(src, ss, below).verdict, name


def test_report_rejects_helix(helix):
    rep = rectifying.theorem33_report(helix, samples_of(helix, 50),
                                      curve_name="lorentz_helix")
    assert not rep.verdict
    assert rep.thm31.rms_residual > 1e-2


def test_rho_varies_only_past_its_floor(helix):
    # g(alpha, alpha) = A^2 + B^2 = 3 on the helix; moved by d along x1,
    # rho^2 gains 2 d cosh(t), which varies by about 18 d over the samples:
    # under the floor's 3e-4 at d = 1e-7, over it at d = 1e-2
    ss = samples_of(helix, 50)
    for d, varying in ((1e-7, False), (1e-2, True)):
        moved = frenet.TranslatedSource(helix, Vec4(0.0, d, 0.0, 0.0))
        rep = rectifying.theorem33_report(moved, ss)
        assert rep.normal_constancy["rho_nonconstant"] is varying, d


def test_helix_defeats_c_grid_and_origin_shift(helix):
    ss = samples_of(helix, 40)
    _, c_rms = rectifying.thm31_min_rms_over_c(helix, ss)
    assert c_rms > 1e-2
    origin, origin_rms = rectifying.least_squares_origin(helix, ss)
    assert origin_rms > 1e-3
    shifted = frenet.TranslatedSource(helix, -origin)
    resid = np.array([rectifying.rectifying_residual(shifted, s) for s in ss])
    assert np.max(np.abs(resid)) > 1e-3
    # the reported rms is that of g(alpha - d, N) itself
    assert math.isclose(float(np.sqrt(np.mean(resid ** 2))), origin_rms,
                        rel_tol=1e-9)


def test_least_squares_origin_recovers_an_off_grid_shift(constructed):
    # b = 0.25 lies between the nodes of a step-0.5 origin grid, where a
    # grid search scores this rectifying curve as non-rectifying
    b = Vec4(0.25, 0.25, 0.25, 0.25)
    moved = frenet.TranslatedSource(constructed, b)
    origin, rms = rectifying.least_squares_origin(
        moved, samples_of(constructed, 50))
    assert max(abs(x - 0.25) for x in origin.components) < 1e-12
    assert rms < 1e-12


@pytest.mark.parametrize("curve", ["helix", "constructed"])
def test_exact_c_minimum_against_a_brute_force_c_grid(curve, request):
    source = request.getfixturevalue(curve)
    ss = samples_of(source, 50)
    best_c, best_rms = rectifying.thm31_min_rms_over_c(source, ss)
    frames = [source.frame(s) for s in ss]
    ts = np.array([source.kappa3_integral(s) for s in ss])
    design = np.column_stack([np.cosh(ts), np.sinh(ts)])
    step = 0.01
    grid = np.arange(-10.0, 10.0 + 1e-9, step)
    rms = []
    for c in grid:
        target = np.array([f.eps * f.kappa1 * (f.s + c) / f.kappa2
                           for f in frames])
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        rms.append(np.sqrt(np.mean((target - design @ coef) ** 2)))
    i = int(np.argmin(rms))
    assert 0 < i < len(grid) - 1            # the minimum is inside the grid
    assert best_rms <= rms[i] * (1.0 + 1e-12)
    assert abs(best_c - grid[i]) <= 0.5 * step + 1e-9


# -- the least-squares kernel against numpy ---------------------------------
# Seeded designs, a fixed number per test: an oracle check with no search
# and no shrinking.

def _design(rng, rows, cols):
    """Gaussian columns of scales 0.1 .. 10, as lists of floats."""
    return [[rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-1, 1)
             for _ in range(rows)] for _ in range(cols)]


def _numpy_lstsq(columns, target):
    a, b = np.array(columns).T, np.array(target)
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return coef, float(np.sqrt(np.mean((b - a @ coef) ** 2)))


def _rms(xs):
    return math.sqrt(math.fsum(x * x for x in xs) / len(xs))


@pytest.mark.parametrize("seed", range(3))
def test_lstsq_matches_numpy_on_random_designs(seed):
    rng = random.Random(seed)
    for _ in range(100):
        rows, cols = rng.randint(8, 60), rng.randint(2, 4)
        columns = _design(rng, rows, cols)
        exact = [rng.uniform(-2.0, 2.0) for _ in range(cols)]
        noise = rng.choice([0.0, 1e-6, 1.0])
        target = [math.fsum(x * c[i] for x, c in zip(exact, columns))
                  + noise * rng.gauss(0.0, 1.0) for i in range(rows)]
        coef, rms, _ = rectifying._lstsq(columns, target)
        want, want_rms = _numpy_lstsq(columns, target)
        # about 1e-14 at worst on these seeds
        scale = max(abs(x) for x in want)
        assert all(abs(x - y) <= 1e-13 * scale for x, y in zip(coef, want))
        assert abs(rms - want_rms) <= 1e-13 * _rms(target)


def test_lstsq_rms_is_the_minimum_on_rank_deficient_designs():
    # a repeated column, and one equal to a sum of the others up to 1e-17
    # relative: numpy's SVD drops them; QR leaves them out of the pivots
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randint(8, 60)
        u, v = _design(rng, rows, 2)
        w = [(x + y) * (1.0 + 1e-17 * rng.uniform(-1, 1))
             for x, y in zip(u, v)]
        target = [rng.gauss(0.0, 1.0) for _ in range(rows)]
        for columns in ([u, v, u], [u, v, w]):
            coef, rms, _ = rectifying._lstsq(columns, target)
            _, want_rms = _numpy_lstsq(columns, target)
            assert coef[2] == 0.0
            assert abs(rms - want_rms) <= 1e-13 * _rms(target)
            # the coefficients reach the minimum they report
            fitted = [math.fsum(x * c[i] for x, c in zip(coef, columns))
                      for i in range(rows)]
            assert math.isclose(_rms([b - f for b, f in zip(target, fitted)]),
                                rms, rel_tol=1e-12)


@pytest.mark.parametrize("columns, target", [
    ([[1.0, math.nan, 3.0]], [1.0, 2.0, 3.0]),
    ([[0.0, 0.0, 0.0]], [1.0, math.inf, 3.0]),
    ([[1e308, 1e308, 1e308]], [1.0, 2.0, 3.0]),
    ([[1e200, 1e200, 1e200]], [1.0, 2.0, 3.0]),
    ([[1e-200, 1e-200, 1e-200]], [1.0, 2.0, 3.0]),
    ([[1e300, -1e300, 1e300]], [1e300, 1e300, -1e300]),
    ([[1e-150]], [1e200]),
], ids=["nan_input", "inf_target", "norm_overflows", "v_dot_v_overflows",
        "v_dot_v_underflows", "products_overflow", "coefficient_overflows"])
def test_lstsq_refuses_a_fit_floating_point_cannot_carry(columns, target):
    # a non-finite input, or an intermediate or a result that leaves the
    # float range: a column norm, v.v (over or under), an fsum, a
    # coefficient
    with pytest.raises(IllConditionedFit, match="floating-point range"):
        rectifying._lstsq(columns, target)


def test_fit_condition_number_matches_numpy():
    # cosh/sinh designs as the Theorem 3.1 fit builds them, over t-ranges
    # from wide (cond ~ 1) to narrow (cond up to ~1e9, past
    # FIT_CONDITION_LIMIT)
    rng = random.Random(11)
    for width in (3.0, 1.0, 0.1, 1e-2, 1e-3, 1e-5, 1e-7):
        for _ in range(20):
            lo = rng.uniform(-2.0, 2.0)
            ts = sorted(lo + width * rng.random()
                        for _ in range(rng.randint(8, 60)))
            columns = rectifying._cosh_sinh(ts)
            _, _, (ch, sh) = rectifying._lstsq(columns, ts)
            got = rectifying._cond2(ch[0], sh[0], sh[1])
            want = float(np.linalg.cond(np.array(columns).T))
            # both carry the backward error eps * cond relative to cond
            assert math.isclose(got, want, rel_tol=max(1e-13, 1e-14 * want))
    assert rectifying._cond2(2.0, 1.0, 0.0) == math.inf
    assert rectifying._cond2(-3.0, 0.0, 3.0) == 1.0
