"""Arclength maps, frame extraction and the moving-frame system."""

import dataclasses
import math

import numpy as np
import pytest

from curvelab import curves, frenet, jets
from curvelab.curves import CatalogEntry
from curvelab.errors import (ConvergenceFailure, DegenerateFrame,
                             NonSpacelikePrincipalNormal, NonSpacelikeVelocity)

SQ3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def helix():
    spec = curves.make_spec("lorentz_helix")
    return spec, frenet.arclength_map(spec)


@pytest.fixture(scope="module")
def clelia():
    spec = curves.make_spec("hyperbolic_clelia")
    return spec, frenet.arclength_map(spec)


def test_adaptive_simpson_exact_on_cubic():
    val = frenet.adaptive_simpson(lambda x: x ** 3 - 2 * x, 0.0, 2.0, 1e-12)
    assert math.isclose(val, 0.0, abs_tol=1e-12)
    val = frenet.adaptive_simpson(math.exp, 0.0, 1.0, 1e-12)
    assert math.isclose(val, math.e - 1.0, rel_tol=1e-11)


def test_adaptive_simpson_raises_on_a_nan_estimate():
    # NaN at the left end only: the first error estimate is already NaN
    nan_at_zero = lambda x: math.nan if x == 0.0 else 1.0
    with pytest.raises(ConvergenceFailure):
        frenet.adaptive_simpson(nan_at_zero, 0.0, 1.0)


def test_adaptive_simpson_raises_at_the_depth_limit():
    # the jump at 1/3 is never a node, so its subinterval never converges
    step = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
    with pytest.raises(ConvergenceFailure):
        frenet.adaptive_simpson(step, 0.0, 1.0, 1e-12)


def test_t_of_s_raises_when_newton_does_not_converge(clelia, monkeypatch):
    spec, amap = clelia
    # a speed far below the one the grid was built with: the integral never
    # reaches s inside the bracket
    monkeypatch.setattr(frenet, "speed", lambda spec, t: 1e-3)
    s = 0.5 * float(amap.grid_s[3] + amap.grid_s[4])
    with pytest.raises(ConvergenceFailure):
        amap.t_of_s(s)


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
    quad_id = curves.register_curve(dataclasses.replace(entry, arclength=None))
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
            assert frenet.gram_errors(*f.frame_arrays(), f.eps) < 1e-10


def test_eps_matches_first_binormal_sign(clelia):
    from curvelab.lorentz import minkowski_dot
    spec, amap = clelia
    f = frenet.frenet_apparatus(spec, amap, 0.5 * amap.total)
    assert f.eps == int(math.copysign(1.0, minkowski_dot(f.B1, f.B1)))


def test_ode_residual_order_two(helix):
    spec, amap = helix
    s = 0.5 * amap.total
    r = [max(frenet.frenet_ode_residual(spec, amap, s, h))
         for h in (2e-2, 1e-2, 5e-3)]
    assert 3.5 < r[0] / r[1] < 4.5
    assert 3.5 < r[1] / r[2] < 4.5
    assert max(frenet.frenet_ode_residual(spec, amap, s, 1e-4)) < 1e-7


def test_planar_curves_degenerate_at_level_two():
    for cid in ("paper_example", "hyperbolic_geodesic"):
        spec = curves.make_spec(cid)
        amap = frenet.arclength_map(spec)
        with pytest.raises(DegenerateFrame) as exc:
            frenet.frenet_apparatus(spec, amap, 0.5 * amap.total)
        assert exc.value.level == 2


def test_timelike_principal_normal_detected():
    # spacelike velocity, timelike acceleration, full-rank derivatives
    def build(tj, _params):
        sh, ch = jets.sinhcosh(tj)
        sn, cn = jets.sincos(tj)
        return (ch, tj, 0.1 * sn, 0.1 * cn)

    cid = curves.register_curve(CatalogEntry(build=build,
                                             default_domain=(0.1, 0.7)),
                                prefix="timelike_normal")
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
    T, N, B1, B2 = f.frame_arrays()
    dT, dN, dB1, dB2 = frenet.frenet_rhs(T, N, B1, B2, f.kappa1, f.kappa2,
                                         f.kappa3, f.eps)
    assert np.allclose(dT, f.kappa1 * N)
    assert np.allclose(dN, -f.kappa1 * T + f.kappa2 * B1)
    assert np.allclose(dB1, -f.eps * f.kappa2 * N + f.kappa3 * B2)
    assert np.allclose(dB2, f.kappa3 * B1)
