"""RK4 frame synthesis: drift, covariance and failure modes."""

import math

import numpy as np
import pytest

from curvelab import frenet, verify
from curvelab.errors import FrameDriftExceeded
from curvelab.lorentz import Vec4


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


def test_negative_ds_rejected():
    profile = frenet.constant_profile(1.0, 1.0, 1.0, 1, (0.0, 1.0))
    with pytest.raises(ValueError):
        frenet.synthesize_curve(profile, ds=-0.1)


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
                                frame_rhs=verify.flipped_b1_rhs)
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
    p1 = np.array(c1.position_at(1.0).components)
    p2 = np.array(c2.position_at(0.5).components)
    assert np.allclose(2.0 * p2, p1, atol=1e-9)


def test_synthesized_frames_stay_orthonormal():
    profile = frenet.rectifying_profile()
    curve = frenet.synthesize_curve(profile, ds=1e-3)
    for s in curve.grid_samples(11):
        f = curve.frame(float(s))
        assert frenet.gram_errors(*f.frame_arrays(), f.eps) < 1e-10


def test_kappa3_integral_linear_for_unit_torsion():
    profile = frenet.rectifying_profile()
    curve = frenet.synthesize_curve(profile, ds=1e-3)
    s = float(curve.grid_samples(5)[2])
    assert math.isclose(curve.kappa3_integral(s), s - 0.5, rel_tol=1e-9)


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
