"""Catalog curves: coordinates, speeds, domains and pole handling."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvelab import curves, frenet, jets, rectifying
from curvelab.errors import (CurveLabError, DegenerateFrame,
                             DivisionNearZero, NonSpacelikeVelocity,
                             OutOfDomain, PoleEncountered)
from curvelab.lorentz import Vec4, minkowski_dot


def position(cj):
    """The position the coordinate series ``cj`` carry."""
    return Vec4(*(c[0] for c in cj))


def derivative(cj, k):
    """The k-th parameter derivative the coordinate series ``cj`` carry."""
    return Vec4(*(c[k] * jets._FACT[k] for c in cj))


def jet_speed(spec, t):
    """The speed series' value at ``t``, the oracle for ``curves.speed``."""
    return curves._speed_jet(spec, t, curves.eval_curve(spec, t))[0]


def identity(t, n):
    """The series of the identity at ``t``, to n coefficients."""
    return (t, 1.0, 0.0, 0.0, 0.0)[:n]


def constant(c, n):
    return (c, 0.0, 0.0, 0.0, 0.0)[:n]


def test_catalog_lists_static_curves():
    ids = curves.catalog_ids()
    for cid in ("paper_example", "hyperbolic_geodesic", "hyperbolic_clelia",
                "lorentz_helix"):
        assert cid in ids


def test_geodesic_coordinates():
    spec = curves.make_spec("hyperbolic_geodesic")
    p = position(curves.eval_curve(spec, 0.8))
    assert math.isclose(p.components[0], math.cosh(0.8))
    assert p.components[1] == 0.0
    assert math.isclose(p.components[2], math.sinh(0.8))
    assert p.components[3] == 0.0


def test_geodesic_is_unit_speed_on_the_sphere():
    spec = curves.make_spec("hyperbolic_geodesic")
    for t in np.linspace(*spec.domain, 17):
        cj = curves.eval_curve(spec, float(t))
        p = position(cj)
        assert abs(minkowski_dot(p, p) + 1.0) <= 1e-12
        assert math.isclose(curves.speed(spec, float(t)), 1.0,
                            rel_tol=1e-14)


def test_example_curve_at_right_angle():
    # with the radius scale at 1 and phase such that sin(t+s0)=1 the spatial
    # factor drops out at t = pi/2 - s0
    spec = curves.make_spec("paper_example", params={"a": 1.0, "s0": 0.0},
                            domain=(0.9, 2.2))
    t = math.pi / 2
    p = position(curves.eval_curve(spec, t))
    assert math.isclose(p.components[0], math.cosh(t), rel_tol=1e-14)
    assert abs(p.components[1]) < 1e-15
    assert math.isclose(p.components[2], math.sinh(t), rel_tol=1e-14)


def test_example_curve_domain_with_pole_rejected():
    # sin(t + s0) vanishes at pi, which sits inside (3.0, 3.3)
    with pytest.raises(PoleEncountered):
        curves.make_spec("paper_example", params={"a": 1.0, "s0": 0.0},
                         domain=(3.0, 3.3))
    # an end 1e-8 short of the pole grazes it; one 1e-5 short clears the
    # guard band of 1e-6 periods
    with pytest.raises(PoleEncountered):
        curves.make_spec("paper_example", domain=(0.9, math.pi - 1e-8))
    curves.make_spec("paper_example", domain=(0.9, math.pi - 1e-5))


def test_runtime_pole_surfaces_as_pole_error():
    # an unvalidated registered curve dividing by sin(t) hits the pole lattice
    from curvelab.curves import CatalogEntry

    def build(t, _params, n):
        ops = jets.SERIES[n]
        r = ops.div(constant(1.0, n), ops.sincos(identity(t, n))[0])
        zero = constant(0.0, n)
        return (r, zero, zero, zero)

    cid = curves.register_curve(CatalogEntry(build=build,
                                             default_domain=(-0.1, 0.1)))
    with pytest.raises(PoleEncountered):
        curves.eval_curve(curves.make_spec(cid), 0.0)


@pytest.mark.parametrize("evaluate", [curves.position, curves.eval_curve])
def test_an_infinite_sine_argument_is_a_pole_error(evaluate):
    # q t = 1e310 is inf, whose sine math.sin refuses with a ValueError
    spec = curves.make_spec("lorentz_helix", {"p": 0.0, "q": 1e300, "A": 0.0},
                            (0.0, 1e10))
    with pytest.raises(PoleEncountered, match="overflows floating point"):
        evaluate(spec, 1e10)


def test_clelia_on_hyperbolic_sphere():
    spec = curves.make_spec("hyperbolic_clelia")
    for t in np.linspace(*spec.domain, 33):
        p = position(curves.eval_curve(spec, float(t)))
        assert abs(minkowski_dot(p, p) + 1.0) <= 1e-12


def test_helix_unit_speed_spacelike():
    spec = curves.make_spec("lorentz_helix")
    for t in np.linspace(*spec.domain, 17):
        v = derivative(curves.eval_curve(spec, float(t)), 1)
        assert math.isclose(minkowski_dot(v, v), 1.0, rel_tol=1e-13)


def test_out_of_domain():
    spec = curves.make_spec("lorentz_helix")
    with pytest.raises(OutOfDomain):
        curves.eval_curve(spec, spec.domain[1] + 1.0)
    with pytest.raises(OutOfDomain):
        curves.make_spec("lorentz_helix", domain=(1.0, 1.0))


def test_a_parameter_past_the_domain_by_1e_6_of_its_span_is_out():
    spec = curves.make_spec("lorentz_helix")
    lo, hi = spec.domain
    span = hi - lo
    for t in (lo - 1e-6 * span, hi + 1e-6 * span):
        with pytest.raises(OutOfDomain):
            curves.eval_curve(spec, t)
    # 1e-10 of the span is roundoff slack, still inside
    curves.eval_curve(spec, hi + 1e-10 * span)


@pytest.mark.parametrize("read", [curves.eval_curve, curves.position,
                                  curves.speed])
def test_reads_reach_past_the_domain_by_domain_slack_of_its_span(read):
    # DOMAIN_SLACK = 1e-9 of a span of 1: 5e-10 past either end is
    # roundoff slack, 2e-9 past is out
    spec = curves.make_spec("lorentz_helix", domain=(0.25, 1.25))
    read(spec, 1.25 + 5e-10)
    read(spec, 0.25 - 5e-10)
    for t in (1.25 + 2e-9, 0.25 - 2e-9):
        with pytest.raises(OutOfDomain):
            read(spec, t)


def test_speed_requires_spacelike_velocity():
    # a steep timelike line registered on the fly
    from curvelab.curves import CatalogEntry

    def build(t, _params, n):
        x = identity(t, n)
        return (jets.SERIES[n].scale(x, 2.0), x, constant(0.0, n),
                constant(0.0, n))

    cid = curves.register_curve(CatalogEntry(build=build,
                                             default_domain=(0.0, 1.0)))
    spec = curves.make_spec(cid)
    with pytest.raises(NonSpacelikeVelocity):
        curves.speed(spec, 0.5)


def test_non_finite_parameter_rejected():
    for value in (math.nan, math.inf, "1"):
        with pytest.raises(ValueError, match="finite"):
            curves.make_spec("lorentz_helix", params={"p": value})


def test_nan_velocity_is_not_spacelike():
    # a runtime curve whose velocity is NaN: speed, the speed jet and the
    # arclength map raise instead of integrating NaN
    from curvelab.curves import CatalogEntry

    def build(t, _params, n):
        x = identity(t, n)
        return (jets.SERIES[n].scale(x, math.nan), x, constant(0.0, n),
                constant(0.0, n))

    cid = curves.register_curve(CatalogEntry(build=build,
                                             default_domain=(0.0, 1.0)))
    spec = curves.make_spec(cid)
    with pytest.raises(NonSpacelikeVelocity):
        curves.speed(spec, 0.5)
    with pytest.raises(NonSpacelikeVelocity):
        jet_speed(spec, 0.5)
    with pytest.raises(NonSpacelikeVelocity):
        frenet.arclength_map(spec)


def test_registered_ids_are_sequential_and_usable():
    from curvelab.curves import CatalogEntry

    def build(t, _params, n):
        return (constant(0.0, n), identity(t, n), constant(1.0, n),
                constant(0.0, n))

    cid = curves.register_curve(CatalogEntry(build=build,
                                             default_domain=(0.0, 2.0)))
    assert ":" in cid
    p = position(curves.eval_curve(curves.make_spec(cid), 1.0))
    assert p.components == (0.0, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("cid", ["lorentz_helix", "hyperbolic_clelia"])
def test_a_runtime_curve_is_read_without_a_catalog_lookup(cid, monkeypatch):
    # the spec carries its entry: reads and the arclength map (closed form
    # for the helix, quadrature on the speed for the clelia) look nothing up
    spec = curves.make_spec(curves.register_curve(curves._lookup(cid)))
    lookups = []
    real = curves._lookup
    monkeypatch.setattr(curves, "_lookup",
                        lambda name: lookups.append(name) or real(name))
    t = sum(spec.domain) / 2
    curves.eval_curve(spec, t)
    curves.position(spec, t)
    curves.speed(spec, t)
    amap = frenet.arclength_map(spec)
    amap.t_of_s(amap.s_of_t(t))
    assert lookups == []


@pytest.mark.parametrize("constructed", [False, True],
                         ids=["static", "constructed"])
def test_a_spec_survives_copy_deepcopy_and_pickle(constructed):
    spec = curves.make_spec("lorentz_helix", {"B": 3.0}, (0.5, 2.0))
    if constructed:
        spec = rectifying.construct_rectifying(
            curves.make_spec("hyperbolic_clelia"),
            rectifying.ConstructionParams(a=1.0, t0=0.3, domain=(0.35, 1.2)))
    for clone in (copy.copy(spec), copy.deepcopy(spec),
                  pickle.loads(pickle.dumps(spec))):
        assert type(clone) is curves.CurveSpec and clone == spec
        assert clone.entry is spec.entry and clone.bounds == spec.bounds


def test_a_replaced_spec_is_checked_and_derived_again():
    spec = curves.make_spec("lorentz_helix")
    wide = spec._replace(domain=(0.0, 10.0))
    assert wide.bounds[1] > 10.0 and wide.contains(5.0)
    curves.eval_curve(wide, 5.0)
    with pytest.raises(OutOfDomain):
        spec._replace(domain=(1.0, 1.0))
    with pytest.raises(TypeError):
        spec._replace(bounds=(-math.inf, math.inf))


def test_jet_derivatives_match_finite_differences():
    spec = curves.make_spec("hyperbolic_clelia")
    h = 5e-3
    t = 1.1
    cj = curves.eval_curve(spec, t)
    for comp in range(4):
        vals = [position(curves.eval_curve(spec, t + k * h)).components[comp]
                for k in (-2, -1, 0, 1, 2)]
        d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        assert math.isclose(derivative(cj, 1).components[comp], d1,
                            rel_tol=1e-7, abs_tol=1e-9)


def _outcome(fn, spec, t):
    """repr of ``fn(spec, t)``, or its NonSpacelikeVelocity message."""
    try:
        return repr(fn(spec, t))
    except NonSpacelikeVelocity as exc:
        return str(exc)


def test_speed_is_the_speed_jet_value_bit_for_bit():
    from curvelab import rectifying

    specs = [curves.make_spec(cid) for cid in
             ("paper_example", "hyperbolic_geodesic", "hyperbolic_clelia",
              "lorentz_helix")]
    specs.append(rectifying.construct_rectifying(
        curves.make_spec("hyperbolic_clelia"),
        rectifying.ConstructionParams(a=2.0, t0=0.4, domain=(0.35, 1.2))))
    for spec in specs:
        for t in np.linspace(*spec.domain, 23):
            assert (_outcome(curves.speed, spec, float(t))
                    == _outcome(jet_speed, spec, float(t))), spec.catalog_id


@pytest.mark.parametrize("cid, params, domain, t, error, text", [
    ("hyperbolic_clelia", {}, (0.25, 400.0), 356.27734375, DivisionNearZero,
     "leaves floating point"),
    ("paper_example", {"a": 1e308}, (0.9, 2.2), 0.9, PoleEncountered,
     "overflows floating point")], ids=["finite", "infinite"])
def test_a_velocity_whose_square_overflows_is_not_called_non_spacelike(
        cid, params, domain, t, error, text):
    # g = NaN: a finite velocity's squares overflow, or the velocity is
    # infinite; neither tells its causal character
    spec = curves.make_spec(cid, params, domain)
    for fn in (curves.speed, jet_speed):
        with pytest.raises(error, match=text):
            fn(spec, t)


def test_speed_and_speed_jet_reject_a_timelike_helix():
    # Bq < Ap makes the helix velocity timelike
    spec = curves.make_spec("lorentz_helix",
                            params={"A": 1.0, "p": 1.5, "B": 1.0, "q": 1.0})
    for t in (0.0, 1.3):
        with pytest.raises(NonSpacelikeVelocity):
            curves.speed(spec, t)
        with pytest.raises(NonSpacelikeVelocity):
            jet_speed(spec, t)


# -- the catalog written once, against its Jet form -------------------------

STATIC = [cid for cid in curves.catalog_ids() if ":" not in cid]

# The static curves as Jet expressions: the reference that ``eval_curve``
# must match bit for bit, errors included.


def _paper_example(tj, p):
    sh, ch = jets.sinhcosh(tj)
    rho = p["a"] / jets.sincos(tj + p["s0"])[0]
    zero = jets.constant(0.0)
    return (rho * ch, zero, rho * sh, zero)


def _hyperbolic_geodesic(tj, p):
    sh, ch = jets.sinhcosh(tj)
    zero = jets.constant(0.0)
    return (ch, zero, sh, zero)


def _hyperbolic_clelia(tj, p):
    sh, ch = jets.sinhcosh(tj)
    sn, cn = jets.sincos(tj)
    return (ch, sh * cn, sh * sn * cn, sh * sn * sn)


def _lorentz_helix(tj, p):
    sh, ch = jets.sinhcosh(p["p"] * tj)
    sn, cn = jets.sincos(p["q"] * tj)
    return (p["A"] * sh, p["A"] * ch, p["B"] * cn, p["B"] * sn)


REFERENCE = {"paper_example": _paper_example,
             "hyperbolic_geodesic": _hyperbolic_geodesic,
             "hyperbolic_clelia": _hyperbolic_clelia,
             "lorentz_helix": _lorentz_helix}


def _reference_series(spec, t):
    """``eval_curve`` with the entry's build replaced by its Jet form."""
    try:
        cj = REFERENCE[spec.catalog_id](jets.variable(t), spec.params)
    except curves._POLES as exc:
        raise curves._pole(spec, t, exc) from exc
    return tuple(j.coeffs for j in cj)


def test_static_curves_build_no_jet(monkeypatch):
    # the frame kernel, position, speed and the speed series run on
    # coefficient tuples from end to end
    sources = []
    for cid in STATIC:
        spec = curves.make_spec(cid)
        sources.append((spec, frenet.arclength_map(spec)))
    built = []
    post_init = jets.Jet.__post_init__
    monkeypatch.setattr(jets.Jet, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    jets.variable(0.5)
    assert built == [1]          # the counter sees a jet being built
    built.clear()
    for spec, amap in sources:
        for s in np.linspace(0.0, amap.total, 5):
            try:
                frenet.frenet_apparatus(spec, amap, float(s))
            except DegenerateFrame:         # the two planar curves
                pass
        for t in np.linspace(*spec.domain, 5):
            curves.position(spec, float(t))
            curves.speed(spec, float(t))
            curves._speed_jet(spec, float(t),
                              curves.eval_curve(spec, float(t)))
    assert built == []


def test_quadrature_map_builds_no_jet(monkeypatch):
    calls = []
    real = curves.eval_curve
    monkeypatch.setattr(curves, "eval_curve",
                        lambda spec, t: calls.append(t) or real(spec, t))
    frenet.arclength_map(curves.make_spec("hyperbolic_clelia"))
    assert calls == []


# An order-1 coefficient sums at most two nonzero terms, so a reordered or
# reassociated sum moves bits only through the sign of a zero: the draws
# mix signed zeros into the parameters and into t.
def _signed(lo, hi):
    return st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(min_value=lo, max_value=hi))


@st.composite
def _static_case(draw, cid):
    """A valid spec of catalog entry ``cid`` and a t in its domain; |t|
    reaches past 710, where sinh and cosh overflow."""
    lo = draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-720.0, 720.0)))
    width = draw(st.floats(0.05, 3.0))
    params = {}
    if cid == "paper_example":
        # sin(t + s0) keeps one sign on the domain: t + s0 in (0.01, pi - 0.01)
        frac = draw(st.floats(0.0, 1.0))
        s0 = 0.01 + frac * (math.pi - 0.02 - width) - lo
        params = {"a": draw(st.one_of(st.floats(-5.0, -1e-3),
                                      st.floats(1e-3, 5.0))), "s0": s0}
    elif cid == "lorentz_helix":
        params = {name: draw(_signed(-3.0, 3.0)) for name in "ApBq"}
    spec = curves.make_spec(cid, params, (lo, lo + width))
    specials = [x for x in (lo, lo + width, 0.0, -0.0) if spec.contains(x)]
    t = draw(st.one_of(st.sampled_from(specials),
                       st.floats(lo, lo + width)))
    return spec, t


def _result(fn, *args):
    """repr of ``fn(*args)``, or the type and message of its error."""
    try:
        return repr(fn(*args))
    except CurveLabError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("cid", STATIC)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_curve_is_the_jet_reference_bit_for_bit(cid, data):
    spec, t = data.draw(_static_case(cid))
    assert (_result(curves.eval_curve, spec, t)
            == _result(_reference_series, spec, t))


def _series_position(spec, t):
    return tuple(c[0] for c in curves.eval_curve(spec, t))


# speed takes the length-2 series and position the length-1 series:
# coefficients 0 and 1, or 0, of eval_curve's, bit for bit, with its errors
@pytest.mark.parametrize("cid", STATIC)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closed_form_is_the_jet_bit_for_bit(cid, data):
    spec, t = data.draw(_static_case(cid))
    assert (_result(curves.position, spec, t)
            == _result(_series_position, spec, t))
    assert (_result(curves.speed, spec, t)
            == _result(jet_speed, spec, t))


def _jet_speed_jet(spec, t, cj):
    """The speed series in jet arithmetic, as ``curves._speed_jet`` once
    computed it, from the coefficient tuples ``cj``; a square that is not
    positive and finite raises ``curves._not_spacelike``'s error."""
    d = [jets.Jet(c).d() for c in cj]
    g = -d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3]
    if not 0.0 < g.value < math.inf:
        raise curves._not_spacelike(spec, t, g.value,
                                    tuple(c[1] for c in cj))
    return jets.sqrt(g).coeffs


@pytest.mark.parametrize("cid", STATIC)
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_speed_jet_is_the_jet_form_bit_for_bit(cid, data):
    spec, t = data.draw(_static_case(cid))
    on_curve = lambda fn: lambda spec, t: fn(spec, t,
                                             curves.eval_curve(spec, t))
    assert (_result(on_curve(curves._speed_jet), spec, t)
            == _result(on_curve(_jet_speed_jet), spec, t))


# coefficients whose operations show their order: signed zeros, subnormals
# (products underflow to a signed zero), full 53-bit significands, and
# infinities and NaN, which turn the products of zeros into NaNs
_RAW = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, math.inf,
                     -math.inf, math.nan]),
    st.floats(-4.0, 4.0),
    st.integers(-2 ** 53, 2 ** 53).map(lambda k: k / 2.0 ** 51))
_RAW_JETS = st.lists(st.tuples(*[_RAW] * 5), min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(_RAW_JETS)
def test_speed_jet_is_the_jet_form_on_raw_coefficients(coeffs):
    spec = curves.make_spec("lorentz_helix")
    assert (_result(curves._speed_jet, spec, 0.5, coeffs)
            == _result(_jet_speed_jet, spec, 0.5, coeffs))


def test_a_boolean_parameter_is_not_a_number():
    with pytest.raises(ValueError, match="parameter p must be a finite"):
        curves.make_spec("lorentz_helix", {"p": True})


def test_a_boolean_domain_is_not_a_number():
    with pytest.raises(OutOfDomain, match="nonempty interval"):
        curves.make_spec("lorentz_helix", domain=(False, True))
