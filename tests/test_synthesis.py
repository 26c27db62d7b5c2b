"""RK4 frame synthesis: drift, covariance and failure modes."""

import math
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvelab import curves, frenet, jets
from curvelab.errors import FrameDriftExceeded, OutOfDomain
from curvelab.lorentz import Vec4

_MSIGN = np.array([-1.0, 1.0, 1.0, 1.0])


# -- reference implementations ------------------------------------------------
# A numpy Gram monitor, frame system and RK4 loop that evaluates the
# profile's curvatures four times per step; gram_errors, frenet_rhs and
# synthesize_curve must match them bit for bit on finite input.

def reference_gram_errors(T, N, B1, B2, eps):
    vecs = (T, N, B1, B2)
    target = np.diag([1.0, 1.0, float(eps), -float(eps)])
    worst = 0.0
    for i in range(4):
        for j in range(i, 4):
            g = float(np.sum(_MSIGN * vecs[i] * vecs[j]))
            worst = max(worst, abs(g - target[i, j]))
    return worst


def reference_frenet_rhs(T, N, B1, B2, k1, k2, k3, eps):
    return (k1 * N,
            -k1 * T + k2 * B1,
            -eps * k2 * N + k3 * B2,
            k3 * B1)


def reference_synthesis(profile, ds, synth_tol=frenet.SYNTH_TOL,
                        frame_rhs=reference_frenet_rhs, init_frame=None):
    """(s list, state list, max drift, aborted) from ``init_frame``, by
    default the standard frame."""
    frame = init_frame or frenet.standard_init_frame(profile.eps)
    s_lo, s_hi = profile.s_range
    state = np.concatenate([np.zeros(4), frame.T.components,
                            frame.N.components, frame.B1.components,
                            frame.B2.components])
    n = max(1, int(round((s_hi - s_lo) / ds)))
    ds = (s_hi - s_lo) / n

    def rhs(s, y):
        T, N, B1, B2 = y[4:8], y[8:12], y[12:16], y[16:20]
        k1, k2, k3 = profile.values(s)
        dT, dN, dB1, dB2 = frame_rhs(T, N, B1, B2, k1, k2, k3, profile.eps)
        return np.concatenate([T, dT, dN, dB1, dB2])

    ss, states, drift, s = [s_lo], [state], 0.0, s_lo
    for _ in range(n):
        k1 = rhs(s, state)
        k2 = rhs(s + 0.5 * ds, state + 0.5 * ds * k1)
        k3 = rhs(s + 0.5 * ds, state + 0.5 * ds * k2)
        k4 = rhs(s + ds, state + ds * k3)
        state = state + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += ds
        ss.append(s)
        states.append(state)
        drift = max(drift, reference_gram_errors(
            state[4:8], state[8:12], state[12:16], state[16:20],
            profile.eps))
        if drift > synth_tol:
            return ss, states, drift, True
    return ss, states, drift, False


def assert_same_trajectory(curve, ref):
    ss, states, drift, _ = ref
    arr = np.asarray(states)
    assert curve.s.tobytes() == np.asarray(ss, dtype=float).tobytes()
    assert len(curve.rows) == 20 * len(ss)
    assert curve.rows.tobytes() == arr.tobytes()
    assert repr(float(curve.max_drift)) == repr(float(drift))


def drift_at(ds):
    profile = frenet.constant_profile(1.0, 1.0, 1.0, 1, (0.0, 2.0))
    return frenet.synthesize_curve(profile, ds=ds, synth_tol=1.0).max_drift


def test_fine_step_drift_is_tiny():
    assert drift_at(1e-3) < 1e-10


def test_halving_ds_shrinks_drift_at_least_like_rk4():
    # classical RK4 would give ~16x; the Gram drift of this system actually
    # shrinks ~32x per halving, so assert the conservative bound
    coarse, fine = drift_at(0.2), drift_at(0.1)
    assert coarse / fine > 10.0


def test_zero_length_range_returns_single_sample():
    profile = frenet.constant_profile(1.0, 1.0, 1.0, 1, (1.0, 1.0))
    curve = frenet.synthesize_curve(profile, ds=1e-3)
    assert len(curve.s) == 1
    assert curve.max_drift == 0.0


def test_reversed_range_rejected():
    profile = frenet.constant_profile(1.0, 1.0, 1.0, 1, (1.0, 0.5))
    with pytest.raises(OutOfDomain, match="lo <= hi"):
        frenet.synthesize_curve(profile, ds=1e-3)


def test_negative_ds_rejected():
    profile = frenet.constant_profile(1.0, 1.0, 1.0, 1, (0.0, 1.0))
    with pytest.raises(ValueError):
        frenet.synthesize_curve(profile, ds=-0.1)


@pytest.mark.parametrize("ds", [1e-13, 1e-300, 5e-324,
                                2.0 / (frenet.MAX_SYNTH_STEPS + 1)])
def test_too_many_steps_rejected_before_the_first(ds):
    read = []
    profile = frenet.CurvatureProfile(
        values=lambda s: read.append(s) or (1.0, 1.0, 1.0), eps=1,
        s_range=(0.5, 2.5))
    with pytest.raises(ValueError, match="RK4 steps"):
        frenet.synthesize_curve(profile, ds=ds)
    assert read == []


# The step limit is 10^7: ds = 1e-7 over (0, 1) is accepted, and a negative
# drift tolerance stops the run after its first step; ds = 0.99999e-7, about
# 100 steps more, raises before the first.
@pytest.mark.parametrize("ds, error", [
    (1e-7, FrameDriftExceeded), (0.99999e-7, ValueError)],
    ids=["1e7_steps", "1e7_plus_100_steps"])
def test_step_limit_is_ten_million(ds, error):
    profile = frenet.constant_profile(1.0, 1.0, 1.0, 1, (0.0, 1.0))
    with pytest.raises(error):
        frenet.synthesize_curve(profile, ds=ds, synth_tol=-1.0)


def test_bad_init_frame_rejected():
    profile = frenet.constant_profile(1.0, 1.0, 1.0, 1, (0.0, 1.0))
    frame = frenet.standard_init_frame(1)
    skewed = frenet.FrenetData(
        s=0.0, position=frame.position, T=2.0 * frame.T, N=frame.N,
        B1=frame.B1, B2=frame.B2, kappa1=1.0, kappa2=1.0, kappa3=1.0, eps=1)
    with pytest.raises(ValueError):
        frenet.synthesize_curve(profile, init_frame=skewed)


def test_drift_abort_carries_partial_trajectory():
    # the sign-flipped mutant destroys the Gram structure almost immediately
    profile = frenet.rectifying_profile()
    with pytest.raises(FrameDriftExceeded) as exc:
        frenet.synthesize_curve(profile, ds=1e-3,
                                coupling_eps=-profile.eps)
    partial = exc.value.partial
    assert partial is not None
    assert partial.s[-1] < profile.s_range[1]
    assert partial.max_drift > 1e-6


def test_scaling_covariance():
    # doubling every curvature on a halved range halves the curve
    base = frenet.constant_profile(1.0, 1.5, 0.5, 1, (0.0, 1.0))
    scaled = frenet.constant_profile(2.0, 3.0, 1.0, 1, (0.0, 0.5))
    c1 = frenet.synthesize_curve(base, ds=1e-3)
    c2 = frenet.synthesize_curve(scaled, ds=5e-4)
    p1 = np.array(c1.frame(1.0).position.components)
    p2 = np.array(c2.frame(0.5).position.components)
    assert np.allclose(2.0 * p2, p1, atol=1e-9)


def test_synthesized_frames_stay_orthonormal():
    profile = frenet.rectifying_profile()
    curve = frenet.synthesize_curve(profile, ds=1e-3)
    for s in curve.grid_samples(11):
        f = curve.frame(float(s))
        assert frenet.gram_errors(f.T.components, f.N.components,
                                  f.B1.components, f.B2.components,
                                  f.eps) < 1e-10


def test_frame_lookup_takes_the_nearest_grid_point():
    # a sample within the 1e-9 tolerance of a grid point reads that row,
    # from either side and past either end
    curve = frenet.synthesize_curve(frenet.rectifying_profile((0.5, 1.0)),
                                    ds=1e-2)
    ss = list(curve.s)
    for k in (0, 1, 25, len(ss) - 1):
        for offset in (-1e-12, 1e-12):
            assert curve.frame(ss[k] + offset).s == ss[k]
    with pytest.raises(OutOfDomain):
        curve.frame(0.5 * (ss[0] + ss[1]))


def test_kappa3_integral_linear_for_unit_torsion():
    profile = frenet.rectifying_profile()
    curve = frenet.synthesize_curve(profile, ds=1e-3)
    s = float(curve.grid_samples(5)[2])
    assert math.isclose(curve.kappa3_integral(s), s - 0.5, rel_tol=1e-9)


def round_trip_error(ds, flipped=False):
    """Max |difference| of position and T between the helix past s0 = 0.2
    and a synthesis from its frame and curvatures there, with the (B1)'
    coupling sign flipped if ``flipped``.

    The drift monitor is off, so only the comparison can reject a wrong
    frame system.
    """
    helix = frenet.JetFrameSource(curves.make_spec("lorentz_helix"))
    s0 = 0.2
    f0 = helix.frame(s0)
    assert f0.eps == -1
    profile = frenet.constant_profile(f0.kappa1, f0.kappa2, f0.kappa3,
                                      f0.eps, (0.0, 1.5))
    synth = frenet.synthesize_curve(
        profile, init_frame=f0, ds=ds, synth_tol=math.inf,
        coupling_eps=-profile.eps if flipped else None)
    worst = 0.0
    for sigma in synth.grid_samples(16):
        got = synth.frame(float(sigma))
        want = helix.frame(s0 + float(sigma))
        pairs = zip((want.position - f0.position).components
                    + want.T.components,
                    got.position.components + got.T.components)
        worst = max(worst, *(abs(p - q) for p, q in pairs))
    return worst


def test_extraction_and_synthesis_round_trip():
    # curvatures fix a curve up to congruence: synthesizing from an
    # extracted frame reproduces the curve, with RK4's error ratio 16
    coarse, fine = round_trip_error(4e-3), round_trip_error(2e-3)
    assert coarse < 2e-11
    assert 10.0 < coarse / fine < 22.0
    assert round_trip_error(4e-3, flipped=True) > 1e-3


def test_translated_source_shifts_positions_only():
    profile = frenet.constant_profile(1.0, 1.0, 1.0, 1, (0.0, 1.0))
    curve = frenet.synthesize_curve(profile, ds=1e-3)
    shift = Vec4(1.0, -2.0, 3.0, 0.5)
    moved = frenet.TranslatedSource(curve, shift)
    f0 = curve.frame(0.5)
    f1 = moved.frame(0.5)
    assert f1.position.components == (f0.position + shift).components
    assert f1.T.components == f0.T.components
    assert moved.kappa3_integral(0.5) == curve.kappa3_integral(0.5)


# -- bit-exact agreement with the reference loop ------------------------------

# Full 53-bit mantissas make the rounding of each Gram sum depend on its
# order; |component| <= 1e150 keeps every product and sum finite.
components = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.integers(-2 ** 53, 2 ** 53).map(lambda k: k / 2.0 ** 52),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False))
vectors = st.lists(components, min_size=4, max_size=4).map(np.array)


@given(vectors, vectors, vectors, vectors, st.sampled_from([1, -1]))
def test_gram_errors_matches_numpy_reference(T, N, B1, B2, eps):
    got = frenet.gram_errors(T, N, B1, B2, eps)
    want = reference_gram_errors(T, N, B1, B2, eps)
    assert repr(float(got)) == repr(float(want))


# Each Gram entry in turn is made the largest deviation, so a change to the
# summation order of any one of the ten sums shows in the result: a lone
# non-null vector for a diagonal entry, two null vectors for an off-diagonal
# one (their own deviations are then ~1, the zero slots' exactly 1).  A
# seeded Random fills the frames with full-mantissa components, on which a
# reordered sum changes the result about a third of the time; hypothesis's
# own float draws are plainer and catch far less per example.

def _unit_floats(rng, count):
    """``count`` floats with 1 <= |x| < 2 and a full mantissa."""
    return [rng.choice((1, -1)) * rng.randrange(2 ** 52, 2 ** 53) / 2.0 ** 52
            for _ in range(count)]


def _null(scale, direction):
    n = np.array(direction) / math.sqrt(sum(x * x for x in direction))
    return np.array([scale, *(scale * n)])


@pytest.mark.parametrize("i, j", [(i, j) for i in range(4)
                                  for j in range(i, 4)])
@settings(max_examples=20)
@given(st.randoms(use_true_random=True), st.sampled_from([1, -1]))
def test_each_gram_entry_matches_numpy_reference(i, j, rng, eps):
    for _ in range(4):
        slots = [np.zeros(4) for _ in range(4)]
        if i == j:
            slots[i] = 1e3 * np.array(_unit_floats(rng, 4))
        else:
            slots[i] = _null(rng.uniform(10.0, 1e3), _unit_floats(rng, 3))
            slots[j] = _null(rng.uniform(10.0, 1e3), _unit_floats(rng, 3))
        got = frenet.gram_errors(*slots, eps)
        want = reference_gram_errors(*slots, eps)
        assert repr(float(got)) == repr(float(want))


# a profile that is not built in (once given by jet functions only):
# kappa1 = s*cosh(s)/(1 + s), kappa2 = sqrt(s)
JET_ONLY = frenet.CurvatureProfile(
    values=lambda s: (s * math.cosh(s) / (1.0 + s), math.sqrt(s), 0.75),
    eps=-1, s_range=(0.5, 1.5))


def moved_frame(eps):
    """The standard frame under a rotation about a generic axis and then a
    boost along a generic direction, so none of its 16 components is 0."""
    def axis(*v):
        return np.array(v) / math.sqrt(sum(x * x for x in v))

    n, k = axis(1.0, -2.0, 0.5), axis(0.3, 1.0, -0.7)
    boost = np.eye(4)
    boost[0, 0] = math.cosh(0.6)
    boost[0, 1:] = boost[1:, 0] = math.sinh(0.6) * n
    boost[1:, 1:] += (math.cosh(0.6) - 1.0) * np.outer(n, n)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]],
                      [-k[1], k[0], 0.0]])
    rotation = np.eye(4)
    rotation[1:, 1:] += math.sin(0.9) * cross + (1.0 - math.cos(0.9)) * (
        cross @ cross)
    lorentz = boost @ rotation
    f = frenet.standard_init_frame(eps)
    T, N, B1, B2 = (Vec4(*(lorentz @ np.array(v)).tolist())
                    for v in (f.T, f.N, f.B1, f.B2))
    return frenet.FrenetData(s=0.0, position=f.position, T=T, N=N, B1=B1,
                             B2=B2, kappa1=1.0, kappa2=1.0, kappa3=1.0,
                             eps=eps)


@pytest.mark.parametrize("profile, ds, init_frame", [
    (frenet.rectifying_profile(eps=1), 2e-3, None),
    (frenet.rectifying_profile(eps=-1), 2e-3, None),
    (frenet.constant_profile(2.0, 0.5, 1.5, -1, (0.5, 2.5)), 1e-2, None),
    (JET_ONLY, 2e-3, None),
    (frenet.rectifying_profile(eps=1), 2e-3, moved_frame(1)),
    (frenet.rectifying_profile(eps=-1), 2e-3, moved_frame(-1)),
], ids=["cosh_over_s_eps+1", "cosh_over_s_eps-1", "constant_eps-1",
        "jet_only_eps-1", "cosh_over_s_eps+1_moved_frame",
        "cosh_over_s_eps-1_moved_frame"])
def test_synthesis_matches_reference_loop(profile, ds, init_frame):
    if init_frame is not None:
        frame = (init_frame.T, init_frame.N, init_frame.B1, init_frame.B2)
        assert all(x != 0.0 for v in frame for x in v)
        assert frenet.gram_errors(*frame, profile.eps) <= 1e-12
    ref = reference_synthesis(profile, ds, init_frame=init_frame)
    assert not ref[3]
    assert_same_trajectory(frenet.synthesize_curve(
        profile, init_frame=init_frame, ds=ds), ref)


def reference_flipped_b1_rhs(T, N, B1, B2, k1, k2, k3, eps):
    return reference_frenet_rhs(T, N, B1, B2, k1, k2, k3, -eps)


@pytest.mark.parametrize("ds, synth_tol, flipped, ref_rhs", [
    (1e-3, frenet.SYNTH_TOL, True, reference_flipped_b1_rhs),
    (0.05, 1e-9, False, reference_frenet_rhs),
], ids=["flipped_b1_rhs", "coarse_step"])
def test_drift_abort_matches_reference_loop(ds, synth_tol, flipped, ref_rhs):
    profile = frenet.rectifying_profile()
    ref = reference_synthesis(profile, ds, synth_tol, ref_rhs)
    assert ref[3]
    with pytest.raises(FrameDriftExceeded) as exc:
        frenet.synthesize_curve(profile, ds=ds, synth_tol=synth_tol,
                                coupling_eps=-profile.eps if flipped else None)
    assert_same_trajectory(exc.value.partial, ref)


# -- float curvature values ---------------------------------------------------

BUILT_IN = {
    "cosh_over_s_eps+1": frenet.rectifying_profile(eps=1),
    "cosh_over_s_eps-1": frenet.rectifying_profile(eps=-1),
    # a JSON config passes integer parameters through unchanged
    "constant_int_params": frenet.profile_from_name(
        "constant", {"k1": 2, "k2": 1, "k3": 3}, -1, (0.5, 2.5)),
}

# the same curvatures as jet functions, the form profiles once carried
_COSH_OVER_S = (lambda sj: jets.sinhcosh(sj)[1] / sj,
                lambda sj: jets.constant(1.0), lambda sj: jets.constant(1.0))
JET_FORMS = {
    "cosh_over_s_eps+1": _COSH_OVER_S,
    "cosh_over_s_eps-1": _COSH_OVER_S,
    "constant_int_params": tuple(lambda sj, k=k: jets.constant(k)
                                 for k in (2, 1, 3)),
}


def jet_values(name, s):
    """The curvatures at s read from the jet functions, not ``values``."""
    sj = jets.variable(s)
    return tuple(kappa(sj).value for kappa in JET_FORMS[name])


@pytest.mark.parametrize("name", BUILT_IN)
@given(data=st.data())
def test_closed_form_values_match_the_jets(name, data):
    profile = BUILT_IN[name]
    lo, hi = profile.s_range
    s = data.draw(st.floats(min_value=lo, max_value=hi))
    got = profile.values(s)
    want = jet_values(name, s)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("name", BUILT_IN)
def test_built_in_synthesis_builds_no_jet(name, monkeypatch):
    built = []
    post_init = jets.Jet.__post_init__
    monkeypatch.setattr(jets.Jet, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    jets.variable(0.5)
    assert built == [1]          # the counter sees a jet being built
    built.clear()
    curve = frenet.synthesize_curve(BUILT_IN[name], ds=1e-2)
    for s in curve.grid_samples(5):
        curve.frame(float(s))
    assert built == []


# -- non-finite input ---------------------------------------------------------

def test_gram_errors_propagates_nan():
    f = frenet.standard_init_frame(1)
    T, N, B1 = (np.array(v.components) for v in (f.T, f.N, f.B1))
    B2 = np.array([math.nan, 0.0, 0.0, 0.0])
    assert math.isnan(frenet.gram_errors(T, N, B1, B2, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_constant_profile_rejects_bad_curvature(bad):
    with pytest.raises(ValueError):
        frenet.constant_profile(1.0, bad, 1.0, 1, (0.0, 1.0))


def test_nan_curvature_aborts_with_finite_partial():
    profile = frenet.CurvatureProfile(values=lambda s: (math.nan, 1.0, 1.0),
                                      eps=1, s_range=(0.5, 1.5))
    with pytest.raises(FrameDriftExceeded) as exc:
        frenet.synthesize_curve(profile, ds=0.1)
    partial = exc.value.partial
    assert math.isnan(partial.max_drift)
    assert len(partial.s) == 1
    assert np.isfinite(partial.rows).all()


def test_overflow_aborts_without_numpy_warnings():
    profile = frenet.constant_profile(1e200, 1.0, 1.0, 1, (0.5, 2.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FrameDriftExceeded) as exc:
            frenet.synthesize_curve(profile, ds=0.5)
    partial = exc.value.partial
    assert len(partial.s) >= 1
    assert np.isfinite(partial.rows).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=3000),
       st.integers(min_value=0, max_value=700))
def test_grid_samples_follow_the_numpy_index_rule(rows, count):
    # the rule the table kept before its samples were plain floats
    s = np.linspace(0.5, 2.5, rows)
    table = frenet.SynthesizedCurve(profile=None, s=array("d", s), rows=None,
                                    max_drift=0.0)
    idx = np.linspace(0, rows - 1, count).round().astype(int)
    got = table.grid_samples(count)
    assert got == s[np.unique(idx)].tolist()
    assert all(type(x) is float for x in got)
