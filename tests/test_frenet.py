"""Arclength maps, frame extraction and the moving-frame system."""

import functools
import io
import math
import os
import random
import sys
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvelab import cli, curves, frenet, jets, rectifying
from curvelab.curves import CatalogEntry
from curvelab.errors import (ConvergenceFailure, CurveLabError,
                             DegenerateFrame, DivisionNearZero,
                             NonSpacelikePrincipalNormal,
                             NonSpacelikeVelocity)
from curvelab.lorentz import Vec4

SQ3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def helix():
    spec = curves.make_spec("lorentz_helix")
    return spec, frenet.arclength_map(spec)


@pytest.fixture(scope="module")
def clelia():
    spec = curves.make_spec("hyperbolic_clelia")
    return spec, frenet.arclength_map(spec)


# kappa3 with a NaN at the anchor s = 0, and one that jumps at 1/3: the jump
# stays inside one half at every halving, and its estimate stays a fixed
# share of the panel's integral
BAD_KAPPA3 = {"nan": lambda s: math.nan if s == 0.0 else 1.0,
              "jump": lambda s: 1.0 if s < 1.0 / 3.0 else 2.0}


@pytest.mark.parametrize("kind", BAD_KAPPA3)
def test_torsion_angle_raises_on_a_nan_or_a_jump(helix, kind, monkeypatch):
    k3 = BAD_KAPPA3[kind]
    src = frenet.JetFrameSource(helix[0])
    monkeypatch.setattr(src, "_node_kappa3", k3)
    with pytest.raises(ConvergenceFailure, match="kappa3 quadrature"):
        src.kappa3_integral(1.0)
    profile = frenet.CurvatureProfile(lambda s: (1.0, 1.0, k3(s)), 1,
                                      (0.0, 1.0))
    curve = frenet.SynthesizedCurve(profile, array("d", [0.0, 1.0]),
                                    array("d", [0.0] * 40), 0.0)
    with pytest.raises(ConvergenceFailure, match="kappa3 quadrature"):
        curve.kappa3_integral(1.0)


@pytest.mark.parametrize("order", ["monotone", "shuffled"])
def test_torsion_angle_starts_from_the_nearest_integrated_sample(
        helix, order, monkeypatch):
    # integer samples make exact ties, which go to the lower sample
    src = frenet.JetFrameSource(helix[0])
    monkeypatch.setattr(src, "_node_kappa3", lambda s: 1.0)
    starts, real = [], frenet._torsion_angle
    monkeypatch.setattr(frenet, "_torsion_angle", lambda k3, a, b, curve:
                        starts.append(a) or real(k3, a, b, curve))
    ss = sorted({*map(float, range(1, 400)), *frenet.grid(0.5, 350.5, 301)})
    if order == "shuffled":
        random.Random(7).shuffle(ss)
    for s in ss:
        want = min(src._k3, key=lambda a: (abs(a - s), a))
        assert math.isclose(src.kappa3_integral(s), s, rel_tol=1e-14)
        assert starts[-1] == want, s


def test_helix_rectify_check_reads_four_frames_per_torsion_panel(
        monkeypatch):
    # the 50 sample frames, the frame at s = 0 where the first panel starts,
    # and the 4 Gauss-Legendre nodes of each of the 50 panels between them
    built = []
    kernel = frenet._frame_from_position_jets
    monkeypatch.setattr(frenet, "_frame_from_position_jets",
                        lambda a, s: built.append(s) or kernel(a, s))
    argv = ["rectify-check", "--curve", "lorentz_helix", "--samples", "50"]
    assert cli.main(argv, out=io.StringIO()) == 1
    assert len(built) == 251


def test_t_of_s_raises_when_newton_does_not_converge(clelia, monkeypatch):
    spec, amap = clelia
    # a speed far below the one the grid was built with: the integral never
    # reaches s inside the bracket
    monkeypatch.setattr(frenet, "speed", lambda spec, t: 1e-3)
    s = 0.5 * float(amap.grid_s[3] + amap.grid_s[4])
    with pytest.raises(ConvergenceFailure):
        amap.t_of_s(s)


def test_t_of_s_converges_after_several_newton_steps(clelia, monkeypatch):
    spec, amap = clelia
    # a speed rising e^6-fold across one panel of the grid built without
    # it: the Hermite seed is far off, and Newton takes 6 steps (measured)
    k = 40
    t0, dt = amap.grid_t[k], amap.grid_t[k + 1] - amap.grid_t[k]
    real = frenet.speed
    steep = lambda spec, t: real(spec, t) * math.exp(6.0 * (t - t0) / dt)
    calls = _counted_speed(monkeypatch, steep)
    s = 0.5 * (amap.grid_s[k] + amap.grid_s[k + 1])
    t = amap.t_of_s(s)
    # each step reads the four Gauss-Legendre nodes on [t0, t] and t
    assert len(calls) >= 5 * 4
    err = amap.grid_s[k] + frenet._gl(lambda x: steep(spec, x), t0, t)[0] - s
    assert abs(err) <= 1e-14 * amap.total


def test_unit_speed_curve_has_identity_arclength(helix):
    spec, amap = helix
    assert math.isclose(amap.total, spec.domain[1] - spec.domain[0],
                        rel_tol=1e-10)
    for s in (0.3, 1.2, 2.7):
        assert math.isclose(amap.t_of_s(s), spec.domain[0] + s,
                            rel_tol=1e-10)


# (catalog id, params, domain) of the constant-speed curves checked against
# their quadrature maps
CONSTANT_SPEED = [
    ("lorentz_helix", {}, None),
    ("lorentz_helix", {"A": 0.5, "p": 2.0, "B": 1.5, "q": 1.3}, (-1.0, 2.5)),
    ("lorentz_helix", {"A": -2.0, "p": 0.3, "B": 1.0, "q": -0.9}, (0.4, 3.1)),
    ("hyperbolic_geodesic", {}, None),
    ("hyperbolic_geodesic", {}, (-0.5, 1.5)),
]


@pytest.mark.parametrize("cid, params, domain", CONSTANT_SPEED)
def test_constant_speed_map_matches_quadrature(cid, params, domain):
    # the quadrature map comes from the same build registered without its
    # arclength pair, so only the map differs
    spec = curves.make_spec(cid, params, domain)
    exact = frenet.arclength_map(spec)
    entry = curves._lookup(cid)
    quad_id = curves.register_curve(entry._replace(arclength=None))
    quad = frenet.arclength_map(curves.CurveSpec(quad_id, spec.params,
                                                 spec.domain))
    assert exact.arclength is not None and quad.arclength is None
    assert math.isclose(exact.total, quad.total, rel_tol=1e-13)
    for t in np.linspace(*spec.domain, 7):
        assert math.isclose(exact.s_of_t(float(t)), quad.s_of_t(float(t)),
                            rel_tol=1e-13, abs_tol=1e-13)
    for s in np.linspace(0.0, exact.total, 7):
        assert math.isclose(exact.t_of_s(float(s)), quad.t_of_s(float(s)),
                            rel_tol=1e-13, abs_tol=1e-13)


@pytest.mark.parametrize("params", [
    {"A": 1.0, "p": 1.5, "B": 1.0, "q": 1.0},          # timelike
    {"A": 1.0, "p": 1.0, "B": 1.0, "q": 1.0},          # null
    {"A": 1e200, "p": 1e200, "B": 1e200, "q": 1e200},  # inf - inf = NaN
    {"A": 1.0, "p": 1.0, "B": 1e200, "q": 1e200},      # speed overflows
])
def test_arclength_map_rejects_a_helix_without_a_spacelike_speed(params):
    spec = curves.make_spec("lorentz_helix", params)
    with pytest.raises(NonSpacelikeVelocity):
        frenet.arclength_map(spec)


def test_arclength_inversion_round_trip(clelia):
    spec, amap = clelia
    for s in np.linspace(0.05 * amap.total, 0.95 * amap.total, 9):
        t = amap.t_of_s(float(s))
        assert math.isclose(amap.s_of_t(t), float(s), rel_tol=1e-10,
                            abs_tol=1e-12)


def test_arclength_map_monotone(clelia):
    _, amap = clelia
    ss = [amap.s_of_t(t) for t in np.linspace(0.3, 2.3, 21)]
    assert all(b > a for a, b in zip(ss, ss[1:]))


def test_helix_constant_curvatures(helix):
    spec, amap = helix
    for s in np.linspace(0.1, amap.total - 0.1, 7):
        f = frenet.frenet_apparatus(spec, amap, float(s))
        assert math.isclose(f.kappa1, SQ3, rel_tol=1e-10)
        assert math.isclose(f.kappa2, math.sqrt(8.0 / 3.0), rel_tol=1e-10)
        assert math.isclose(f.kappa3, 1.0 / SQ3, rel_tol=1e-10)
        assert f.eps == -1


def test_gram_conditions(helix, clelia):
    for spec, amap in (helix, clelia):
        for s in np.linspace(0.05 * amap.total, 0.95 * amap.total, 25):
            f = frenet.frenet_apparatus(spec, amap, float(s))
            assert frenet.gram_errors(f.T.components, f.N.components,
                                      f.B1.components, f.B2.components,
                                      f.eps) < 1e-10


def test_eps_matches_first_binormal_sign(clelia):
    from curvelab.lorentz import minkowski_dot
    spec, amap = clelia
    f = frenet.frenet_apparatus(spec, amap, 0.5 * amap.total)
    assert f.eps == int(math.copysign(1.0, minkowski_dot(f.B1, f.B1)))


def test_ode_residual_order_two(helix):
    spec, amap = helix
    f0 = frenet.frenet_apparatus(spec, amap, 0.5 * amap.total)
    r = [max(frenet.frenet_ode_residual(spec, amap, f0, h))
         for h in (2e-2, 1e-2, 5e-3, 1e-4)]
    assert 3.5 < r[0] / r[1] < 4.5
    assert 3.5 < r[1] / r[2] < 4.5
    assert r[3] < 1e-7


def test_planar_curves_degenerate_at_level_two():
    for cid in ("paper_example", "hyperbolic_geodesic"):
        spec = curves.make_spec(cid)
        amap = frenet.arclength_map(spec)
        with pytest.raises(DegenerateFrame) as exc:
            frenet.frenet_apparatus(spec, amap, 0.5 * amap.total)
        assert exc.value.level == 2


def test_timelike_principal_normal_detected():
    # spacelike velocity, timelike acceleration, full-rank derivatives
    def build(t, _params, n):
        ops = jets.SERIES[n]
        x = (t, 1.0, 0.0, 0.0, 0.0)[:n]
        _, ch = ops.sinhcosh(x)
        sn, cn = ops.sincos(x)
        return (ch, x, ops.scale(sn, 0.1), ops.scale(cn, 0.1))

    cid = curves.register_curve(CatalogEntry(build=build,
                                             default_domain=(0.1, 0.7)))
    spec = curves.make_spec(cid)
    amap = frenet.arclength_map(spec)
    with pytest.raises(NonSpacelikePrincipalNormal):
        frenet.frenet_apparatus(spec, amap, 0.5 * amap.total)


def test_tangent_is_arclength_derivative(clelia):
    spec, amap = clelia
    s = 0.6 * amap.total
    h = 1e-5
    f = frenet.frenet_apparatus(spec, amap, s)
    pp = frenet.frenet_apparatus(spec, amap, s + h).position
    pm = frenet.frenet_apparatus(spec, amap, s - h).position
    fd = (1.0 / (2 * h)) * (pp - pm)
    assert max(abs(a - b) for a, b in zip(fd.components, f.T.components)) \
        < 1e-8


def test_frenet_rhs_rows(helix):
    spec, amap = helix
    f = frenet.frenet_apparatus(spec, amap, 1.0)
    T, N, B1, B2 = (np.array(v.components) for v in (f.T, f.N, f.B1, f.B2))
    dT, dN, dB1, dB2 = frenet.frenet_rhs(T, N, B1, B2, f.kappa1, f.kappa2,
                                         f.kappa3, f.eps)
    assert np.allclose(dT, f.kappa1 * N)
    assert np.allclose(dN, -f.kappa1 * T + f.kappa2 * B1)
    assert np.allclose(dB1, -f.eps * f.kappa2 * N + f.kappa3 * B2)
    assert np.allclose(dB2, f.kappa3 * B1)


# endpoints of ordinary spans, and spans a few subnormals wide, whose step
# underflows to 0 (numpy then scales i / (n - 1) by the span instead)
_ends = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_tiny_spans = st.tuples(st.sampled_from([0.0, -0.0, 5e-324, -1e-320, 1.0]),
                        st.integers(-40, 40)).map(
                            lambda p: (p[0], p[0] + p[1] * 5e-324))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_ends, _ends), _tiny_spans),
       st.integers(min_value=1, max_value=600))
@example((0.0, 3 * 5e-324), 600)
@example((-0.0, 1.0), 1)
@example((0.1, 0.7), 3)
def test_grid_is_linspace_bit_for_bit(span, n):
    lo, hi = span
    got = frenet.grid(lo, hi, n)
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == np.linspace(lo, hi, n).tobytes()
    if n > 1:
        assert got[-1] == hi and math.copysign(1.0, got[-1]) == \
            math.copysign(1.0, hi)


def _counted_speed(monkeypatch, speed=None):
    """Patch the speed the arclength map reads; returns the list of the
    parameters it is read at."""
    calls = []
    real = speed or frenet.speed
    monkeypatch.setattr(frenet, "speed",
                        lambda spec, t: calls.append(t) or real(spec, t))
    return calls


@pytest.mark.parametrize("cid", ["hyperbolic_clelia", "paper_example"])
def test_quadrature_map_reads_each_node_and_four_per_panel(monkeypatch, cid):
    # no panel of a catalog default is split: one read per grid node (its
    # speed is kept) and one per Gauss-Legendre node
    calls = _counted_speed(monkeypatch)
    amap = frenet.arclength_map(curves.make_spec(cid))
    nodes = frenet.ARCLENGTH_GRID
    assert len(amap.grid_t) == len(amap.grid_v) == nodes
    assert len(calls) == nodes + 4 * (nodes - 1)


@pytest.mark.parametrize("cid", ["hyperbolic_clelia", "paper_example"])
def test_inversion_reads_the_speed_at_most_five_times(monkeypatch, cid):
    # the Hermite seed reads none; the Newton correction reads the four
    # Gauss-Legendre nodes on [t_i, t] and the speed at t
    amap = frenet.arclength_map(curves.make_spec(cid))
    calls = _counted_speed(monkeypatch)
    for s in [0.0, amap.grid_s[7], amap.total] + frenet.grid(
            1e-3 * amap.total, amap.total, 37):
        calls.clear()
        amap.t_of_s(s)
        assert len(calls) <= 5, s


def test_a_panel_failing_its_estimate_is_split(monkeypatch):
    # a bump of width 4 panels on the clelia's grid: only the panels near it
    # are halved, and the map keeps its accuracy against the exact integral
    spec = curves.make_spec("hyperbolic_clelia")
    lo, hi = spec.domain
    width = (hi - lo) / (frenet.ARCLENGTH_GRID - 1)
    c, w = lo + 40.3 * width, 4.0 * width
    calls = _counted_speed(
        monkeypatch, lambda spec, t: 1.0 + math.exp(-((t - c) / w) ** 2))
    amap = frenet.arclength_map(spec)
    extra = [t for t in amap.grid_t if t not in frenet.grid(
        lo, hi, frenet.ARCLENGTH_GRID)]
    assert extra and all(abs(t - c) < 4.0 * w for t in extra)
    # each halving reads the midpoint and the four nodes of both halves
    assert len(calls) == len(amap.grid_t) + 4 * (len(amap.grid_t) - 1
                                                 + len(extra))

    def exact(t):
        return (t - lo) + 0.5 * math.sqrt(math.pi) * w * (
            math.erf((t - c) / w) - math.erf((lo - c) / w))
    # measured: 1.2e-15 relative on the total, 2.9e-15 on the inversion
    assert abs(amap.total - exact(hi)) <= 1e-14 * amap.total
    for s in frenet.grid(0.0, amap.total, 41):
        assert abs(exact(amap.t_of_s(s)) - s) <= 1e-14 * amap.total


def test_a_speed_that_jumps_raises_at_the_depth_cap(monkeypatch):
    # the jump stays inside one half at every halving, and its estimate
    # stays a fixed share of the panel's integral
    spec = curves.make_spec("hyperbolic_clelia")
    jump = spec.domain[0] + 1.0 / 3.0
    _counted_speed(monkeypatch, lambda spec, t: 1.0 if t < jump else 2.0)
    with pytest.raises(ConvergenceFailure):
        frenet.arclength_map(spec)


def _mp_speed(cid, mpmath):
    """The catalog curve's speed in mpmath arithmetic, at default params."""
    def clelia(t):
        sh, ch = mpmath.sinh(t), mpmath.cosh(t)
        sn, cn = mpmath.sin(t), mpmath.cos(t)
        q, dq = sh * sn, ch * sn + sh * cn
        v = (sh, ch * cn - sh * sn, dq * cn - q * sn, dq * sn + q * cn)
        return mpmath.sqrt(-v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2)

    def paper(t):
        # rho = 1/sin t on (cosh t, 0, sinh t, 0): |alpha'|^2 = rho^2 - rho'^2
        sn = mpmath.sin(t)
        return mpmath.sqrt(1 / sn ** 2 - mpmath.cos(t) ** 2 / sn ** 4)
    return {"hyperbolic_clelia": clelia, "paper_example": paper}[cid]


# (catalog id, domain, bound on |S_ref(t_of_s(s)) - s| / max(1, total)).
# Measured at the 25 samples (the adaptive-Simpson map this replaced in
# brackets): 2.5e-16 (3.4e-16) on the clelia, 1.3e-16 (1.2e-13) on
# paper_example, 2.8e-14 on (0.25, 15) and 4.1e-14 on (0.25, 30) (both
# raised ConvergenceFailure), where the inversion stops at 1e-13 of the
# total.  The totals are within 1.1e-16 relative on all four (paper_example
# was 1.0e-13 off).
ARCLENGTH_REFERENCE = [
    ("hyperbolic_clelia", None, 6e-16),
    ("paper_example", None, 6e-16),
    ("hyperbolic_clelia", (0.25, 15.0), 1e-13),
    ("hyperbolic_clelia", (0.25, 30.0), 1e-13),
]


@pytest.mark.parametrize("cid, domain, bound", ARCLENGTH_REFERENCE)
def test_quadrature_map_against_a_40_digit_reference(cid, domain, bound):
    mpmath = pytest.importorskip("mpmath")
    spec = curves.make_spec(cid, None, domain)
    amap = frenet.arclength_map(spec)
    f = _mp_speed(cid, mpmath)
    lo, hi = spec.domain
    ss = frenet.grid(0.0, amap.total, 25)
    ts = [amap.t_of_s(s) for s in ss]
    # the reference arclength at each t, integrated piece by piece between
    # consecutive ts and the knots of a uniform 32-interval grid
    knots = sorted(set(ts + frenet.grid(lo, hi, 33)))
    with mpmath.workdps(40):
        ref, acc = {lo: mpmath.mpf(0)}, mpmath.mpf(0)
        for a, b in zip(knots, knots[1:]):
            acc += mpmath.quad(f, [a, b])
            ref[b] = acc
        assert abs(amap.total - ref[hi]) <= 4e-16 * ref[hi]
        worst = max(abs(ref[t] - s) for s, t in zip(ss, ts))
    assert worst <= bound * max(1.0, amap.total), float(worst)


def test_torsion_angle_against_a_20_digit_reference():
    # the float kappa3 integrated by mpmath between consecutive samples;
    # measured 5.1e-16 relative at worst (adaptive Simpson: 9.7e-13)
    mpmath = pytest.importorskip("mpmath")
    spec = rectifying.construct_rectifying(
        curves.make_spec("hyperbolic_clelia"),
        rectifying.ConstructionParams(a=2.0, t0=0.48, domain=(0.35, 1.2)))
    src = frenet.JetFrameSource(spec)
    ss = src.grid_samples(12)
    got = [src.kappa3_integral(s) for s in ss]
    k3 = lambda s: src._node_kappa3(float(s))
    with mpmath.workdps(20):
        ref, prev = mpmath.mpf(0), 0.0
        for s, t in zip(ss, got):
            ref += mpmath.quad(k3, [prev, s], method="gauss-legendre")
            prev = s
            assert abs(t - ref) <= 2e-15 * ref, (s, float((t - ref) / ref))


# (case, catalog id, params, domain, bounds on the forward error of the
# fields in reference.FIELDS order: position, T, N, B1, B2, kappa1..3).
# Each bound is about 4x the largest error measured over the 25 samples:
# on the helix, T 1.4e-14, N 9.6e-15, B1 2.6e-14, B2 2.2e-13, kappa1..3
# 3.8e-14, 5.9e-14, 4.3e-14; on the clelia, 6.0e-15 at most.  The helix
# with B = 1 + delta nears the light cone as delta falls: its velocity
# coordinates near 1 round, while g(V, V) = 2 delta + delta^2, so every
# field loses about what T does.  Its B2 and kappa3 bounds are about 4x
# what the modified Gram-Schmidt kernel measures (B2 7.1e-13, 7.0e-11 and
# 8.9e-9 at delta = 1e-2, 1e-4 and 1e-6); the jet chain before it lost B2 as
# delta^-2 (2.3e-10, 9.2e-7, 3.2e-2) and kappa3 up to 1.1e-4.
FRAME_REFERENCE = [
    ("helix", "lorentz_helix", {}, None,
     (1e-15, 6e-14, 4e-14, 1e-13, 1e-12, 2e-13, 3e-13, 2e-13)),
    ("helix p=0.8 q=1.05", "lorentz_helix", {"p": 0.8, "q": 1.05}, None,
     (1e-15, 6e-15, 9e-15, 2e-14, 2e-13, 8e-15, 3e-14, 2e-14)),
    ("helix p=0.8 q=1.2", "lorentz_helix", {"p": 0.8, "q": 1.2}, None,
     (1e-15, 5e-15, 6e-15, 4e-14, 6e-14, 9e-15, 5e-14, 4e-14)),
    ("helix p=0.95 q=1.05", "lorentz_helix", {"p": 0.95, "q": 1.05}, None,
     (1e-15, 5e-14, 2e-14, 4e-14, 2e-13, 2e-13, 2e-13, 2e-13)),
    ("helix p=0.95 q=1.2", "lorentz_helix", {"p": 0.95, "q": 1.2}, None,
     (1e-15, 3e-14, 2e-14, 9e-14, 4e-13, 8e-14, 2e-13, 4e-14)),
    ("near-null 1e-2", "lorentz_helix", {"B": 1.01},
     None, (1e-15, 3e-12, 7e-15, 6e-12, 3e-12, 6e-12, 4e-12, 2e-12)),
    ("near-null 1e-4", "lorentz_helix", {"B": 1.0001},
     None, (1e-15, 3e-10, 4e-14, 3e-10, 3e-10, 6e-10, 7e-10, 4e-10)),
    ("near-null 1e-6", "lorentz_helix", {"B": 1.000001},
     None, (1e-15, 3e-8, 2e-14, 5e-8, 4e-8, 6e-8, 4e-8, 3e-8)),
    ("clelia", "hyperbolic_clelia", {}, (0.8, 1.6),
     (1e-15, 2e-15, 2e-15, 2e-14, 3e-14, 4e-15, 2e-14, 3e-14)),
]


@pytest.mark.parametrize("cid, params, domain, bounds",
                         [case[1:] for case in FRAME_REFERENCE],
                         ids=[case[0] for case in FRAME_REFERENCE])
def test_frames_against_a_40_digit_reference(cid, params, domain, bounds):
    pytest.importorskip("mpmath")
    import reference
    spec = curves.make_spec(cid, params, domain)
    amap = frenet.arclength_map(spec)
    derivatives = (reference.helix(spec.params) if cid == "lorentz_helix"
                   else reference.clelia)
    worst = dict.fromkeys(reference.FIELDS, 0.0)
    for s in frenet.grid(0.0, amap.total, 25):
        got = frenet.frenet_apparatus(spec, amap, s)
        want = reference.frame(derivatives, amap.t_of_s(s))
        assert got.eps == want["eps"], s
        for name, err in reference.forward_errors(got, want).items():
            worst[name] = max(worst[name], err)
    over = {name: (worst[name], bound)
            for name, bound in zip(reference.FIELDS, bounds)
            if not worst[name] <= bound}
    assert not over, over


def test_ode_residual_is_the_numpy_form_bit_for_bit(helix, clelia):
    msign = np.array([-1.0, 1.0, 1.0, 1.0])
    h = frenet.ODE_H
    for spec, amap in (helix, clelia):
        for s in np.linspace(0.1 * amap.total, 0.9 * amap.total, 9):
            fm, f0, fp = (frenet.frenet_apparatus(spec, amap, float(s) + d)
                          for d in (-h, 0.0, h))
            rhs = frenet.frenet_rhs(f0.T.components, f0.N.components,
                                    f0.B1.components, f0.B2.components,
                                    f0.kappa1, f0.kappa2, f0.kappa3, f0.eps)
            want = []
            for k, name in enumerate(("T", "N", "B1", "B2")):
                lo = np.array(getattr(fm, name).components)
                hi = np.array(getattr(fp, name).components)
                diff = (hi - lo) / (2.0 * h) - rhs[k]
                want.append(math.sqrt(abs(float(np.sum(msign * diff * diff)))))
            got = frenet.frenet_ode_residual(spec, amap, f0, h)
            assert [x.hex() for x in got] == [x.hex() for x in want]


# -- reference: the Gram-Schmidt chain in jet arithmetic ----------------------
# The chain on whole jets in the curve's parameter t, arclength derivatives
# by d/ds = w d/dt with w = 1/v: the route frames took before the float
# kernel, kept as a second reference for ``frenet._frame_from_position_jets``.


def _jvec_d(v):
    return tuple(j.d() for j in v)


def _jvec_dot(a, b):
    return -(a[0] * b[0]) + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _jvec_scale(c, v):
    return tuple(c * j for j in v)


def _jvec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _jvec_value(v):
    return Vec4(*(j.value for j in v))


def _euclid_sq(v, s):
    # builtin sum() as Python 3.11 runs it: from 0.0, left to right
    out = 0.0
    for j in v:
        out += j.value * j.value
    if not out < math.inf:
        raise DivisionNearZero(f"Euclidean square {out} of a frame series "
                               f"leaves floating point at s={s}")
    return out


def _derivative_rank(aj):
    rows = np.array([[j.derivative(k) for j in aj] for k in (1, 2, 3, 4)])
    sv = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sv > frenet.RANK_REL_TOL * sv[0]))


def reference_frame(aj, s):
    floor = frenet.CURVATURE_FLOOR
    V = _jvec_d(aj)
    gv = _jvec_dot(V, V)
    _euclid_sq(V, s)
    if not 0.0 < gv.value < math.inf:
        raise NonSpacelikeVelocity(f"g(alpha', alpha') = {gv.value} at s={s}")
    w = 1.0 / jets.sqrt(gv)
    if not all(map(math.isfinite, w.coeffs[:4])):
        raise DivisionNearZero(f"1/speed series {w.coeffs[:4]} leaves "
                               f"floating point at s={s}")

    T = _jvec_scale(w, V)
    Tp = _jvec_scale(w, _jvec_d(T))

    g1 = _jvec_dot(Tp, Tp)
    e1 = _euclid_sq(Tp, s)
    scale1 = max(e1, 1e-300)
    if e1 < floor ** 2 * max(1.0, _euclid_sq(T, s)):
        raise DegenerateFrame(1, f"|T'| ~ 0 at s={s}")
    if g1.value < floor * scale1:
        rank = _derivative_rank(aj)
        if rank <= 2:
            raise DegenerateFrame(2, f"curve is planar near s={s}")
        if g1.value < -floor * scale1:
            raise NonSpacelikePrincipalNormal(
                f"g(T',T') = {g1.value} at s={s}")
        raise DegenerateFrame(1, f"T' numerically null at s={s}")

    k1 = jets.sqrt(g1)
    N = _jvec_scale(1.0 / k1, Tp)

    R1 = _jvec_add(_jvec_scale(w, _jvec_d(N)), _jvec_scale(k1, T))
    g2 = _jvec_dot(R1, R1)
    e2 = _euclid_sq(R1, s)
    if e2 < floor ** 2 * max(1.0, e1):
        raise DegenerateFrame(2, f"second Frenet residual ~ 0 at s={s}")
    if abs(g2.value) < floor * e2:
        raise DegenerateFrame(2, f"second Frenet residual null at s={s}")
    eps = 1 if g2.value > 0.0 else -1

    k2 = jets.sqrt(float(eps) * g2)
    B1 = _jvec_scale(1.0 / k2, R1)

    R2 = _jvec_add(_jvec_scale(w, _jvec_d(B1)),
                   _jvec_scale(float(eps) * k2, N))
    g3 = _jvec_dot(R2, R2)
    e3 = _euclid_sq(R2, s)
    if e3 < floor ** 2 * max(1.0, e2):
        raise DegenerateFrame(3, f"third Frenet residual ~ 0 at s={s}")
    if abs(g3.value) < floor * e3:
        raise DegenerateFrame(3, f"third Frenet residual null at s={s}")

    k3 = math.sqrt(abs(g3.value))
    B2 = _jvec_scale(1.0 / jets.constant(k3), R2)

    return frenet.FrenetData(
        s=s, position=_jvec_value(aj), T=_jvec_value(T), N=_jvec_value(N),
        B1=_jvec_value(B1), B2=_jvec_value(B2), kappa1=k1.value,
        kappa2=k2.value, kappa3=k3, eps=eps)


def _outcome(fn, aj, s):
    """The frame, or the type and message of the error raised instead."""
    try:
        return fn(aj, s)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


# The chain and the kernel both lose digits as g(alpha', alpha') cancels,
# so their fields are compared within CHAIN_TOL times the velocity's
# cancellation ratio |alpha'|^2 / g(alpha', alpha') (1 at best).  Measured
# between the chain and the modified Gram-Schmidt kernel on draws like the
# tests' below: at most 2.6e-13 times the ratio over 23,000 helices (B2,
# at ratios from 5e2 to 3e6), 5e-14 over 600 constructed-curve and 3.2e-14
# over 300 clelia samples.
CHAIN_TOL = 1e-12


def _cancellation(a):
    v0, v1, v2, v3 = (c[1] for c in a)
    return ((v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3)
            / (-(v0 * v0) + v1 * v1 + v2 * v2 + v3 * v3))


def _assert_agrees_with_the_chain(a, s, got):
    """``got``, the kernel's outcome on the coefficient tuples ``a``, is the
    chain's frame within CHAIN_TOL times the cancellation ratio, with the
    same position and eps, or the chain's error class, with its message
    where that prints no float the two compute differently.  Returns the
    chain's outcome."""
    want = _outcome(reference_frame, tuple(map(jets.Jet, a)), s)
    if isinstance(want, str):
        assert isinstance(got, str), (got, want)
        assert got.split(":")[0] == want.split(":")[0], (got, want)
        if want.startswith(("DegenerateFrame", "NonSpacelikeVelocity")):
            assert got == want
        return want
    assert isinstance(got, frenet.FrenetData), (got, want)
    assert got.s == want.s and got.position == want.position
    _assert_frames_close(got, want, CHAIN_TOL * _cancellation(a))
    return want


def _kernel_matches_reference(spec, amap, s):
    cj = curves.eval_curve(spec, amap.t_of_s(s))
    return _assert_agrees_with_the_chain(
        cj, s, _outcome(frenet._frame_from_position_jets, cj, s))


STATIC = [cid for cid in curves.catalog_ids() if ":" not in cid]
CONSTRUCTED = [(2.0, 0.48), (3.0, 0.3), (-1.5, 0.1)]


@functools.cache
def _static_source(cid):
    spec = curves.make_spec(cid)
    return spec, frenet.arclength_map(spec)


@functools.cache
def _constructed_source(a, t0):
    spec = rectifying.construct_rectifying(
        curves.make_spec("hyperbolic_clelia"),
        rectifying.ConstructionParams(a=a, t0=t0, domain=(0.35, 1.2)))
    return spec, frenet.arclength_map(spec)


def _arclength(data, amap):
    """An arclength of the map, its ends included."""
    return data.draw(st.one_of(st.sampled_from([0.0, amap.total]),
                               st.floats(0.0, amap.total)))


@pytest.mark.parametrize("cid", STATIC)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_float_kernel_is_the_jet_chain_on_static_curves(cid, data):
    spec, amap = _static_source(cid)
    want = _kernel_matches_reference(spec, amap, _arclength(data, amap))
    if cid == "hyperbolic_geodesic":
        # a timelike T' in a Lorentzian 2-plane: the derivative-rank path
        assert want.startswith("DegenerateFrame: curve is planar")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_float_kernel_is_the_jet_chain_on_helices(data):
    sign = st.sampled_from([1.0, -1.0])
    params = {name: data.draw(sign) * data.draw(st.floats(0.3, 2.0))
              for name in "ApB"}
    # a spacelike velocity: |Bq| > |Ap|
    params["q"] = data.draw(sign) * data.draw(st.floats(1.05, 3.0)) * abs(
        params["A"] * params["p"] / params["B"])
    lo = data.draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    spec = curves.make_spec("lorentz_helix", params,
                            (lo, lo + data.draw(st.floats(0.1, 3.0))))
    amap = frenet.arclength_map(spec)
    _kernel_matches_reference(spec, amap, _arclength(data, amap))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_float_kernel_is_the_jet_chain_on_constructed_curves(data):
    spec, amap = _constructed_source(*data.draw(st.sampled_from(CONSTRUCTED)))
    _kernel_matches_reference(spec, amap, _arclength(data, amap))


# Raw coefficients reach the sign of zero, infinities, NaN and magnitudes
# whose squares leave floating point; the smallest subnormals make products
# underflow to a signed zero.  The examples were edge cases of the jet
# chain; the outcome of each is noted, with the chain's where it differs.
_COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0,
                                    5e-324, -5e-324, math.inf, -math.inf,
                                    math.nan, 1e160, -1e160, 1e-160]),
                   st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.tuples(*[_COEFF] * 5), min_size=4, max_size=4))
@example(coeffs=[      # (1/kappa3) * R2 underflows to a zero in B2
    (5e-324, -5e-324, -5e-324, 5e-324, 1.0),
    (-2.0, -1.0, 5e-324, 3.9720257229913454, -9.509433452266629),
    (5e-324, -0.0, -1.9371727652242026, -0.1269571994461156, 0.0),
    (0.0, -0.0, 5e-324, 0.5, -9.181035195924164)])
@example(coeffs=[     # alpha'' along alpha': DegenerateFrame, where the
    # chain's 1/v series overflowed in its first coefficient
    (0.0,) * 5, (0.0, 1e-150, 1e150, 0.0, 0.0), (0.0,) * 5, (0.0,) * 5])
@example(coeffs=[     # a timelike velocity
    (0.0, 2.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.5, 0.0, 0.0), (0.0,) * 5,
    (0.0,) * 5])
# Five Euclidean squares that leave floating point: DivisionNearZero.
@example(coeffs=[     # |alpha'|^2
    (0.0,) * 5, (0.0, 1e160, 0.0, 0.0, 0.0), (0.0,) * 5, (0.0,) * 5])
@example(coeffs=[     # |T_s|^2, three terms of 1e308; g(V, V) subtracts one
    (0.0, 0.0, 5e153, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 5e153, 0.0, 0.0), (0.0, 0.0, 5e153, 0.0, 0.0)])
@example(coeffs=[     # |T|^2: g(V, V) = 1e-320, so w = 1e160
    (0.0, 1.0, 0.0, 0.0, 0.0), (0.0,) * 5, (0.0, 1.0, 0.0, 0.0, 0.0),
    (0.0, 1e-160, 0.0, 0.0, 0.0)])
@example(coeffs=[     # |R1|^2
    (0.0, 0.0, 0.0, 1e160, 0.0), (0.0,) * 5, (0.0, 3.0, 2.0, 2.0, 0.0),
    (0.0, 1.0, 3.0, -1.0, 3.0)])
@example(coeffs=[     # |R2|^2
    (0.5, 0.0, 0.0, 2.0, 0.0), (0.0, 0.5, 0.0, 0.5, 0.0),
    (0.0, 1.0, 0.0, -1.0, -1e160), (0.0, 3.0, 2.0, 0.0, 0.0)])
@example(coeffs=[     # a NaN position: Vec4's ValueError, after the frame
    (0.0, 0.0, 3.0, 0.0, 0.0), (-1.0, 0.0, 3.0, 0.5, 2.0),
    (math.nan, 0.5, 1.0, 0.0, 3.0), (0.5, 0.0, 0.5, -1.0, 0.0)])
def test_float_kernel_gives_a_finite_frame_or_a_typed_error(coeffs):
    # a non-finite field never leaves the kernel: each Minkowski square's
    # Euclidean twin is checked finite, which NaN fails too
    try:
        f = frenet._frame_from_position_jets(coeffs, 0.5)
    except CurveLabError:
        return
    except ValueError as exc:
        assert "non-finite coordinate in Vec4" in str(exc)
        assert not all(map(math.isfinite, (c[0] for c in coeffs)))
        return
    assert all(map(math.isfinite, (f.kappa1, f.kappa2, f.kappa3)))
    assert all(math.isfinite(x) for v in (f.position, f.T, f.N, f.B1, f.B2)
               for x in v)


def test_float_kernel_builds_no_jet(helix, monkeypatch):
    spec, amap = helix
    a = curves.eval_curve(spec, amap.t_of_s(1.0))
    built = []
    post_init = jets.Jet.__post_init__
    monkeypatch.setattr(jets.Jet, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    jets.variable(0.5)
    assert built == [1]          # the counter sees a jet being built
    built.clear()
    f = frenet._frame_from_position_jets(a, 1.0)
    assert built == []
    _assert_agrees_with_the_chain(a, 1.0, f)


def test_float_kernel_calls_only_the_records(helix):
    # a frame is straight-line float arithmetic, one Gram-Schmidt step per
    # derivative: the only curvelab functions it calls construct its
    # records.
    # Comprehensions are left out: Python 3.12 inlines them (PEP 709).
    comprehensions = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}
    spec, amap = helix
    a = curves.eval_curve(spec, amap.t_of_s(1.0))
    package = os.path.dirname(frenet.__file__)
    allowed = {frenet._frame_from_position_jets.__code__,
               Vec4.__new__.__code__, frenet.FrenetData.__new__.__code__}
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(package)
                and code.co_name not in comprehensions):
            called.add(code)

    sys.setprofile(profile)
    try:
        f = frenet._frame_from_position_jets(a, 1.0)
    finally:
        sys.setprofile(None)
    assert f.eps == -1 and Vec4.__new__.__code__ in called
    assert called <= allowed, sorted(c.co_name for c in called - allowed)


# -- the t-chain against the arclength chain and under scaling ----------------

def _arclength_frame(spec, amap, s):
    """The frame from the curve's jets carried to arclength by series
    reversion and composition, the route frames once took.  On those jets
    the chain's w = 1/v is 1 to roundoff: this is the arclength chain."""
    t = amap.t_of_s(s)
    cj = curves.eval_curve(spec, t)
    v = curves._speed_jet(spec, t, cj)
    t_jet = jets.reverse(jets.Jet((0.0, v[0], v[1] / 2.0, v[2] / 3.0,
                                   v[3] / 4.0)), t)
    return reference_frame(tuple(jets.compose(jets.Jet(c), t_jet)
                                 for c in cj), s)


def _assert_curvatures_close(got, want, tol, scale=1.0):
    """Curvatures times ``scale`` within ``tol`` relative; the same eps."""
    assert got.eps == want.eps
    for name in ("kappa1", "kappa2", "kappa3"):
        assert math.isclose(getattr(got, name) * scale, getattr(want, name),
                            rel_tol=tol), name


def _assert_frames_close(got, want, tol, scale=1.0):
    """Vectors within ``tol`` of their largest component, and curvatures
    as ``_assert_curvatures_close`` has them."""
    _assert_curvatures_close(got, want, tol, scale)
    for name in ("T", "N", "B1", "B2"):
        g, w = getattr(got, name), getattr(want, name)
        assert max(abs(x - y) for x, y in zip(g, w)) <= tol * max(map(abs, w))


@pytest.mark.parametrize("source", ["hyperbolic_clelia", "lorentz_helix",
                                    *CONSTRUCTED],
                         ids=lambda p: p if isinstance(p, str)
                         else "a={},t0={}".format(*p))
def test_frames_agree_with_the_arclength_chain(source):
    spec, amap = (_static_source(source) if isinstance(source, str)
                  else _constructed_source(*source))
    for s in frenet.grid(0.0, amap.total, 25):
        got = frenet.frenet_apparatus(spec, amap, s)
        want = _arclength_frame(spec, amap, s)
        _assert_frames_close(got, want, 1e-12)
        assert max(abs(x - y) for x, y in zip(got.position, want.position)
                   ) <= 1e-12 * max(map(abs, want.position))


def _helix_frames(params, domain=None):
    """Frames of a helix at 1/8 .. 7/8 of its arclength."""
    spec = curves.make_spec("lorentz_helix", params, domain)
    amap = frenet.arclength_map(spec)
    return [frenet.frenet_apparatus(spec, amap, k / 8.0 * amap.total)
            for k in range(1, 8)]


@pytest.mark.parametrize("A", [1e-50, 1e-150])
def test_helix_curvatures_scale_as_one_over_A(A):
    # alpha scaled by A: the same frames, curvatures times 1/A; A ** 7 is
    # below floating point, where reverting an arclength jet failed
    unit = _helix_frames({})
    for got, want in zip(_helix_frames({"A": A, "B": math.sqrt(2.0) * A}),
                         unit):
        _assert_frames_close(got, want, 1e-13, scale=A)


@pytest.mark.parametrize("rate", [1e-50, 1e45])
def test_helix_curvatures_do_not_depend_on_its_speed(rate):
    # t scaled by 1/rate: the same curve at speed rate * sqrt(3), whose
    # seventh power leaves floating point.  The samples' parameters round
    # differently, so only the helix's constant curvatures are compared.
    unit = _helix_frames({})
    for got, want in zip(_helix_frames({"p": rate, "q": rate},
                                       (0.0, 3.0 / rate)), unit):
        _assert_curvatures_close(got, want, 1e-13)


def test_a_helix_too_small_for_its_curvatures_squares_raises():
    # kappa1 ~ 1e160 is a float, but its square is not
    spec = curves.make_spec("lorentz_helix", {"A": 1e-160, "B": 2e-160})
    amap = frenet.arclength_map(spec)
    want = _kernel_matches_reference(spec, amap, 0.5 * amap.total)
    assert want.startswith("DivisionNearZero: Euclidean square inf")


# -- the Jacobi rank against numpy's SVD --------------------------------------

def _matrix_with_singular_values(rng, sv):
    """A 4x4 matrix U diag(sv) V^T with random orthogonal U and V."""
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return u @ np.diag(sv) @ v.T


def _position_coefficients(rows):
    """Coefficient tuples whose derivatives 1..4 are the matrix rows."""
    return [(0.0, *(rows[k - 1][i] / jets._FACT[k] for k in (1, 2, 3, 4)))
            for i in range(4)]


@pytest.mark.parametrize("seed", range(4))
def test_derivative_rank_matches_the_svd_rank(seed):
    # singular values on either side of RANK_REL_TOL, half a decade clear
    # of it, and exact zeros, at scales 1e-100 .. 1e100; a fixed number of
    # seeded draws, so no search and no shrinking
    rng = np.random.default_rng(seed)
    ranks = set()
    for _ in range(500):
        sv = [1.0] + [rng.choice([0.0,
                                  10.0 ** -rng.uniform(0.0, 7.5),
                                  10.0 ** -rng.uniform(8.5, 17.0)])
                      for _ in range(3)]
        m = _matrix_with_singular_values(rng, sv) * 10.0 ** rng.uniform(-100,
                                                                        100)
        a = _position_coefficients(m.tolist())
        want = _derivative_rank([jets.Jet(c) for c in a])
        assert frenet._derivative_rank(a) == want
        ranks.add(want)
    assert ranks == {1, 2, 3, 4}


def test_derivative_rank_on_planar_and_3_flat_curves():
    # criterion 7's planar curve at each of its 100 samples, and a helix
    # in the spacelike 3-space x0 = 0 at as many
    def build(t, _params, n):
        ops = jets.SERIES[n]
        x = (t, 1.0, 0.0, 0.0, 0.0)[:n]
        sn, cn = ops.sincos(x)
        return ((0.0,) * n, cn, sn, x)

    flat = curves.register_curve(CatalogEntry(build=build,
                                              default_domain=(0.1, 2.0)))
    for cid, rank in (("paper_example", 2), (flat, 3)):
        spec = curves.make_spec(cid)
        amap = frenet.arclength_map(spec)
        got = [frenet._derivative_rank(curves.eval_curve(spec,
                                                         amap.t_of_s(s)))
               for s in amap.grid_samples(100)]
        assert got == [rank] * 100, cid


def test_derivative_rank_of_zero_and_planar_rows():
    assert frenet._derivative_rank([(0.0,) * 5] * 4) == 0
    # alpha(t) = (cosh t, sinh t, 0, 0) near t = 0.3: a planar curve
    ch, sh = math.cosh(0.3), math.sinh(0.3)
    a = [(ch, sh, ch / 2, sh / 6, ch / 24), (sh, ch, sh / 2, ch / 6, sh / 24),
         (0.0,) * 5, (0.0,) * 5]
    assert frenet._derivative_rank(a) == 2
    # orthogonal rows with singular values (1, 1, small, 0): small counts
    # at 1e-6 of the largest and not at 1e-10
    for small, rank in ((1e-6, 3), (1e-10, 2)):
        rows = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, small, 0.0], [0.0] * 4]
        assert frenet._derivative_rank(_position_coefficients(rows)) == rank
