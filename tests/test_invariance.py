"""Lorentz invariance of the Frenet apparatus, the paper's congruence.

A curve moved by x -> L x + b, with L in SO+(1,3), keeps its curvatures
and eps, its frame is L times the old frame, and g(alpha, N) changes only
by g(b, N).  The moved curve is a runtime catalog entry that applies L and
b to the coordinate jets of ``lorentz_helix``, so its arclength map and
frames come out of the same extraction as any other curve.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from curvelab import curves, frenet, rectifying
from curvelab.curves import CatalogEntry
from curvelab.lorentz import Vec4, minkowski_dot

HELIX = curves.make_spec("lorentz_helix")
BASE = frenet.JetFrameSource(HELIX)
SAMPLES = [float(s) for s in BASE.grid_samples(4)]
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
TOL = 1e-10


def _rotation(axis: int, angle: float) -> np.ndarray:
    """Rotation of the space coordinates x1..x3 about coordinate ``axis``."""
    i, j = [k for k in (1, 2, 3) if k != axis]
    m = np.eye(4)
    m[i, i] = m[j, j] = math.cos(angle)
    m[i, j], m[j, i] = -math.sin(angle), math.sin(angle)
    return m


def _lorentz(rapidity, a1, b1, c1, a2, b2, c2) -> np.ndarray:
    """A boost composed with a rotation: R1 Bx R2 = (R1 Bx R1^-1)(R1 R2).

    Bx boosts along x1 by ``rapidity``; R1 and R2 are z-y-z Euler
    rotations, so R1 Bx R1^-1 boosts along R1 e1.
    """
    r1 = _rotation(3, a1) @ _rotation(2, b1) @ _rotation(3, c1)
    r2 = _rotation(3, a2) @ _rotation(2, b2) @ _rotation(3, c2)
    boost = np.eye(4)
    boost[0, 0] = boost[1, 1] = math.cosh(rapidity)
    boost[0, 1] = boost[1, 0] = math.sinh(rapidity)
    return r1 @ boost @ r2


angles = st.floats(-math.pi, math.pi)
lorentz_maps = st.builds(_lorentz, st.floats(-1.5, 1.5), *[angles] * 6)
translations = st.tuples(*[st.floats(-2.0, 2.0)] * 4)


def moved(lam: np.ndarray, b) -> frenet.JetFrameSource:
    """``lorentz_helix`` moved by x -> lam x + b, as a frame source."""
    helix = curves._lookup(HELIX.catalog_id).build
    rows = lam.tolist()

    def build(t, params, n):
        xs = helix(t, params, n)
        return tuple(tuple(sum(r * x[j] for r, x in zip(row, xs))
                           + (b[i] if j == 0 else 0.0) for j in range(n))
                     for i, row in enumerate(rows))

    cid = curves.register_curve(
        CatalogEntry(build=build, default_params=HELIX.params,
                     default_domain=HELIX.domain))
    return frenet.JetFrameSource(curves.make_spec(cid))


@settings(max_examples=20, deadline=None)
@given(lorentz_maps, translations)
def test_lorentz_motion_carries_the_frame(lam, b):
    assert np.allclose(lam.T @ METRIC @ lam, METRIC, atol=1e-12)
    assert lam[0, 0] >= 1.0 and np.linalg.det(lam) > 0.0
    scale = float(np.linalg.norm(lam, ord=np.inf)) ** 2
    # b moves only the value of the position jets, so the frames and the
    # arclength are those of the curve moved by L alone
    src = moved(lam, b)
    unshifted = frenet.TranslatedSource(src, -Vec4(*b))
    for s in SAMPLES:
        f0, f = BASE.frame(s), src.frame(s)
        for k in ("kappa1", "kappa2", "kappa3"):
            assert math.isclose(getattr(f, k), getattr(f0, k),
                                rel_tol=TOL * scale), k
        assert f.eps == f0.eps
        for v in ("T", "N", "B1", "B2"):
            want = lam @ np.array(getattr(f0, v).components)
            got = np.array(getattr(f, v).components)
            assert np.max(np.abs(got - want)) <= TOL * scale, v
        # g(alpha, N) is invariant under L, and b adds g(b, N)
        g0 = rectifying.rectifying_residual(BASE, s)
        assert math.isclose(rectifying.rectifying_residual(unshifted, s), g0,
                            abs_tol=TOL * scale)
        assert math.isclose(rectifying.rectifying_residual(src, s),
                            g0 + minkowski_dot(Vec4(*b), f.N),
                            abs_tol=TOL * scale)
