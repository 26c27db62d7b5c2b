"""Arclength maps, Frenet apparatus and frame synthesis.

Frame extraction orthonormalizes the position's t-derivatives, alpha'
to alpha'''', by modified Gram-Schmidt in the Minkowski metric, in plain
floats on the coefficients of the curve's order-4 jets in its own
parameter t, with no finite differencing.  The curvatures are ratios of
the Gram-Schmidt norms, and powers of 1/v, v the speed, carry them to
arclength, so the arclength map serves only to find the parameter of a
requested arclength.  A curve without a closed-form arclength integrates
its speed by 4-point Gauss-Legendre on panels, halved where an error
estimate asks, and inverts it by one Newton correction from a cubic
Hermite seed.  The torsion angle t(s), the integral of kappa3 in s, runs
on the same panels, one between consecutive samples.

Synthesis integrates the linear moving-frame system (plus alpha' = T) with
classical RK4 and monitors the drift of the ten Gram conditions instead of
re-orthonormalizing, so sign errors in the system cannot be masked.  It runs
in plain Python floats, one coordinate's column of five at a time, with
every operation in the order numpy's elementwise form of the same loop
takes on the 20-float state, so the trajectory matches that form bit for
bit.  The monitor sums each Gram entry left to right, as numpy's reduction
of a 4-element array does, so it matches the ``np.sum`` form bit for bit;
a non-finite deviation aborts the synthesis.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from typing import Callable, NamedTuple, Sequence

from . import curves
from .curves import CurveSpec, _check_names, speed
from .errors import (ConvergenceFailure, DegenerateFrame, DivisionNearZero,
                     FrameDriftExceeded, NonSpacelikePrincipalNormal,
                     NonSpacelikeVelocity, OutOfDomain)
from .lorentz import Vec4

__all__ = [
    "grid",
    "ArclengthMap",
    "arclength_map",
    "FrenetData",
    "frenet_apparatus",
    "frenet_rhs",
    "frenet_ode_residual",
    "gram_errors",
    "CurvatureProfile",
    "constant_profile",
    "rectifying_profile",
    "profile_from_name",
    "synthesize_curve",
    "SynthesizedCurve",
    "standard_init_frame",
    "JetFrameSource",
    "TranslatedSource",
]

CURVATURE_FLOOR = 1e-10
SYNTH_TOL = 1e-6
ODE_H = 1e-4        # step of the printed Frenet ODE residuals
ARCLENGTH_GRID = 129
RANK_REL_TOL = 1e-8
# Each RK4 step stores 20 floats of 8 bytes, so 10**7 steps is 1.6 GB: a
# longer synthesis is refused before its first step.
MAX_SYNTH_STEPS = 10 ** 7
# Each requested sample is a grid float, then a frame or an output row held
# until the output is written (about 1.5 kB a frenet row), so the command
# line refuses more than 10**5 of them before building the grid.
MAX_SAMPLES = 10 ** 5


def grid(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced floats from ``lo`` to ``hi``, bit for bit numpy's
    ``linspace``: point i is ``i * step + lo``, or ``i / (n - 1) * (hi - lo)
    + lo`` where the step underflows to 0, and the last point is ``hi``."""
    lo, hi = float(lo), float(hi)
    div = max(n - 1, 1)
    step = (hi - lo) / div
    ys = [(i * step if step else i / div * (hi - lo)) + lo for i in range(n)]
    return ys[:-1] + [hi] if n > 1 else ys


def _nearest(xs: Sequence[float], x: float) -> int:
    """The index of the entry of the sorted ``xs`` nearest ``x``, the lower
    of a tie."""
    i = bisect_left(xs, x)
    if i == len(xs) or i and x - xs[i - 1] <= xs[i] - x:
        i -= 1
    return i


# -- quadrature ---------------------------------------------------------------

# 4-point Gauss-Legendre on [-1, 1]: nodes +-sqrt(3/7 -+ (2/7) sqrt(6/5)),
# weights (18 +- sqrt(30)) / 36, outer pair first
_GL_X = (math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(1.2)),
         math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(1.2)))
_GL_W = ((18.0 - math.sqrt(30.0)) / 36.0, (18.0 + math.sqrt(30.0)) / 36.0)
# The panel's error estimate.  The lower-order rule integrates the cubic p
# through the panel's ends and GL's inner pair +-xi, exactly to degree 3;
# GL minus that rule is wo h (d- + d+), where d+- = f - p at the outer pair
# +-xo.  The estimate is wo h (|d-| + |d+|), so that an odd defect, such as
# a jump between the inner nodes, does not cancel.  With a = f(-1) + f(1),
# b = f(1) - f(-1) and the same sums over the inner pair,
# 2 p(+-xo) = P_END a + P_IN a_in +- (Q_END b + Q_IN b_in).
_P_END = (_GL_X[0] ** 2 - _GL_X[1] ** 2) / (1.0 - _GL_X[1] ** 2)
_P_IN = 1.0 - _P_END
_Q_IN = _GL_X[0] * (1.0 - _GL_X[0] ** 2) / (_GL_X[1] * (1.0 - _GL_X[1] ** 2))
_Q_END = _GL_X[0] - _GL_X[1] * _Q_IN
# A panel passes when the estimate is at most PANEL_TOL of its integral.
# The estimate shrinks as h^5 and GL's error as h^9; against 40-digit
# quadrature of the clelia and paper_example speeds, GL's relative error
# stayed near est ** (9 / 5) or below, so the bound keeps it near 1e-14
# on a speed the grid resolves.  The catalog defaults pass unsplit.
PANEL_TOL = 2e-8
PANEL_MAX_DEPTH = 40     # halvings of one initial panel
NEWTON_MAX_ITER = 80


def _gl(f: Callable[[float], float], a: float, b: float) -> tuple[float, ...]:
    """The integral of ``f`` over [a, b] by 4-point Gauss-Legendre, then
    ``f`` at the nodes, from -xo to xo."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    (xo, xi), (wo, wi) = _GL_X, _GL_W
    f1, f2 = f(c - xo * h), f(c - xi * h)
    f3, f4 = f(c + xi * h), f(c + xo * h)
    return h * (wo * (f1 + f4) + wi * (f2 + f3)), f1, f2, f3, f4


def _panels(f: Callable[[float], float], nodes: list[tuple[float, float]],
            what: str, curve: str) -> tuple[list[float], ...]:
    """The running integral of a positive ``f`` by 4-point Gauss-Legendre
    on the panels between consecutive ``nodes`` (x, f(x)), x increasing:
    the panel ends, the integral from the first node to each, and ``f``
    there.  A panel whose estimate exceeds ``PANEL_TOL`` of its integral
    is halved, and one still failing after ``PANEL_MAX_DEPTH`` halvings,
    or with a non-finite estimate, raises ConvergenceFailure, naming the
    ``what`` integral on ``curve``."""
    xs, ys, fs = [nodes[0][0]], [0.0], [nodes[0][1]]
    todo = [(*nodes[k - 1], *nodes[k], 0) for k in range(len(nodes) - 1, 0, -1)]
    while todo:
        a, fa, b, fb, depth = todo.pop()
        q, f1, f2, f3, f4 = _gl(f, a, b)
        even = _P_END * (fa + fb) + _P_IN * (f2 + f3)
        odd = _Q_END * (fb - fa) + _Q_IN * (f3 - f2)
        est = 0.25 * _GL_W[0] * (b - a) * (abs(2.0 * f1 - even + odd)
                                           + abs(2.0 * f4 - even - odd))
        if est <= PANEL_TOL * q:
            xs.append(b)
            ys.append(ys[-1] + q)
            fs.append(fb)
        elif depth < PANEL_MAX_DEPTH and est < math.inf:
            c = 0.5 * (a + b)
            fc = f(c)
            todo += [(c, fc, b, fb, depth + 1), (a, fa, c, fc, depth + 1)]
        else:
            raise ConvergenceFailure(
                f"{what} quadrature on [{a}, {b}] has error estimate "
                f"{est} for the integral {q} on {curve}")
    return xs, ys, fs


def _torsion_angle(k3: Callable[[float], float], a: float, b: float,
                   curve: str) -> float:
    """The integral of kappa3 > 0 from a to b by ``_panels`` on the one
    panel between them, its ends swapped and the result negated when b < a.
    """
    lo, hi = min(a, b), max(a, b)
    q = _panels(k3, [(lo, k3(lo)), (hi, k3(hi))], "kappa3", curve)[1][-1]
    return q if a <= b else -q


# -- arclength map ------------------------------------------------------------

class ArclengthMap(NamedTuple):
    """Monotone map s(t) from the low end of the domain, and its inverse t(s).

    When the curve's catalog entry (``spec.entry``) gives its
    ``arclength`` pair, ``s_of_t`` and ``t_of_s`` evaluate it in closed
    form and the map keeps only ``total``.  Otherwise ``grid_s`` holds the
    arclength at the panel ends ``grid_t``, each panel integrated by
    4-point Gauss-Legendre, and ``grid_v`` the speed there.  ``s_of_t`` adds the
    same rule on [t_i, t] to the node below; ``t_of_s`` seeds t from the
    cubic Hermite interpolant of t(s) on the bracketing panel (its ends'
    s, t and dt/ds = 1/v) and applies one Newton correction, 5 speed
    reads in all.
    """

    spec: CurveSpec
    total: float
    grid_t: tuple[float, ...] = ()
    grid_s: tuple[float, ...] = ()
    grid_v: tuple[float, ...] = ()

    def grid_samples(self, count: int) -> list[float]:
        """``count`` evenly spaced arclengths, 1% of the total in from
        each end."""
        pad = 0.01 * self.total
        return grid(pad, self.total - pad, count)

    def _speed(self, t: float) -> float:
        return speed(self.spec, t)

    def s_of_t(self, t: float) -> float:
        if not self.spec.contains(t):
            raise OutOfDomain(f"t={t} outside {self.spec.domain}")
        exact = self.spec.entry.arclength
        if exact is not None:
            return exact[0](self.spec.params, self.spec.domain[0], t)
        i = min(bisect_right(self.grid_t, t), len(self.grid_t) - 1) - 1
        i = max(i, 0)
        return self.grid_s[i] + _gl(self._speed, self.grid_t[i], t)[0]

    def t_of_s(self, s: float) -> float:
        """t with s_of_t(t) = s.  The Newton correction is accepted when
        its second-order residual (1/2) v' dt^2 is below 1e-13 of the
        total, with |v'| taken as twice v's variation over the panel per
        unit t; otherwise Newton goes on in the panel, bisection as
        safeguard, and raises ConvergenceFailure after 80 steps."""
        span = self.total
        if s < -1e-9 * max(1.0, span) or s > span * (1.0 + 1e-9) + 1e-12:
            raise OutOfDomain(f"s={s} outside covered arclength [0, {span}]")
        s = min(max(s, 0.0), span)
        exact = self.spec.entry.arclength
        if exact is not None:
            return exact[1](self.spec.params, self.spec.domain[0], s)
        i = min(max(bisect_left(self.grid_s, s), 1), len(self.grid_s) - 1)
        t0, t1 = lo, hi = self.grid_t[i - 1], self.grid_t[i]
        s0, v0, v1 = self.grid_s[i - 1], self.grid_v[i - 1], self.grid_v[i]
        ds, dt = self.grid_s[i] - s0, t1 - t0
        u, d0, d1 = (s - s0) / ds, ds / v0, ds / v1
        t = t0 + u * (d0 + u * ((3.0 * dt - 2.0 * d0 - d1)
                                + u * (d0 + d1 - 2.0 * dt)))
        t = min(max(t, t0), t1)
        tol = 1e-13 * max(1.0, span)
        for _ in range(NEWTON_MAX_ITER):
            err = s0 + _gl(self._speed, t0, t)[0] - s
            v = self._speed(t)
            step = err / v
            if (abs(v - v0) + abs(v1 - v)) / dt * step * step < tol:
                return min(max(t - step, t0), t1)
            if err > 0:
                hi = t
            else:
                lo = t
            t -= step
            if not lo < t < hi:
                t = 0.5 * (lo + hi)
        raise ConvergenceFailure(
            f"t(s) for s={s} did not converge in {NEWTON_MAX_ITER} Newton "
            f"steps on {self.spec.catalog_id}")


def arclength_map(spec: CurveSpec) -> ArclengthMap:
    """s(t) from the low end of the domain: exact when the curve's catalog
    entry gives its arclength, else by ``_panels`` on the speed, with the
    ``ARCLENGTH_GRID`` nodes as the first panels' ends."""
    lo, hi = spec.domain
    exact = spec.entry.arclength
    if exact is not None:
        return ArclengthMap(spec=spec, total=exact[0](spec.params, lo, hi))
    v = lambda t: speed(spec, t)
    ts, ss, vs = _panels(v, [(t, v(t)) for t in grid(lo, hi, ARCLENGTH_GRID)],
                         "arclength", spec.catalog_id)
    return ArclengthMap(spec=spec, total=ss[-1], grid_t=tuple(ts),
                        grid_s=tuple(ss), grid_v=tuple(vs))


# -- Frenet apparatus ---------------------------------------------------------

class FrenetData(NamedTuple):
    """Frame {T, N, B1, B2}, position, curvatures and sign at arclength s.

    ``eps`` is the sign of g(B1, B1), 1 or -1.
    """

    s: float
    position: Vec4
    T: Vec4
    N: Vec4
    B1: Vec4
    B2: Vec4
    kappa1: float
    kappa2: float
    kappa3: float
    eps: int


# a derivative or frame vector too large to square, as a speed near 0 makes
# the arclength derivatives
_UNSQUARABLE = ("Euclidean square {} of a frame vector leaves floating point "
                "at s={}")


def frenet_apparatus(spec: CurveSpec, amap: ArclengthMap, s: float
                     ) -> FrenetData:
    """Frame {T, N, B1, B2}, curvatures and sign at arclength s.

    Raises DegenerateFrame(level) when a Gram-Schmidt residual vanishes or
    goes null relative to ``CURVATURE_FLOOR`` (planar and 3-flat curves),
    NonSpacelikePrincipalNormal when g(T', T') < 0 and alpha''' leaves the
    plane of T and N by more than ``RANK_REL_TOL`` of its size (else the
    curve is planar there, or only has kappa2 = 0 where alpha'''' leaves
    that plane; both tests read the U3 and U4 of the projection chain that
    builds B1 and B2, N coefficient g(N, N) g(., N)), NonSpacelikeVelocity
    when g(alpha', alpha') is not a positive float, and DivisionNearZero
    when the square of a derivative or a frame vector leaves floating point.

    This is the one place where the kernel's floats become a FrenetData of
    Vec4s, so every frame a caller keeps has passed Vec4's finiteness
    check, its position's included.  ``frenet_ode_residual`` and
    ``JetFrameSource._node_kappa3`` read their frames' floats unwrapped.
    """
    x, t, n, b1, b2, k1, k2, k3, eps = _frame_floats(spec, amap, s)
    return FrenetData(s, Vec4(*x), Vec4(*t), Vec4(*n), Vec4(*b1), Vec4(*b2),
                      k1, k2, k3, eps)


def _frame_floats(spec: CurveSpec, amap: ArclengthMap, s: float) -> tuple:
    """The kernel's floats at arclength s, the kernel read through the
    module global, so a patched kernel sees every frame."""
    return _frame_from_position_jets(
        curves.eval_curve(spec, amap.t_of_s(s)), s)


def _frame_from_position_jets(a, s: float) -> tuple:
    """The frame by modified Gram-Schmidt in g on the position's
    t-derivatives A_k = k! c_k, read off ``a``, the coefficient tuples of
    its four jets in the curve's own parameter t (Gluck, Amer. Math.
    Monthly 73, 1966).  With v the speed and w = 1/v, T = w A1.  U2, U3 and
    U4 are A2, A3 and A4 with their parts along T, N and B1 removed one at
    a time: the T coefficient is w g(A_k, A1), on alpha' itself rather
    than on T's rounded components, the N coefficient g(N, N) g(., N) and
    the B1 coefficient eps g(., B1).  T_s = w^2 U2 = kappa1 N, and U3 and
    U4 less their T and N parts come from one chain for either sign of
    g(N, N): a timelike N ends the frame with the planar test on them.
    Else R1 = f1 U3 w = kappa2 B1 and R2 = f2 f1 U4 = kappa3 B2, with f1 =
    w^2 / kappa1 and f2 = w^2 / kappa2 each formed as w (w / kappa), one
    factor at a time, so no intermediate leaves floating point where the
    frame does not.  Every sum runs left to right, and the degeneracy
    checks read the Euclidean and Minkowski squares of T_s, R1 and R2.

    Returns plain floats: the position, T, N, B1 and B2 as 4-tuples, then
    kappa1, kappa2, kappa3 and eps.  Whenever it returns, all but the
    position are finite.  The Euclidean squares of T, T_s, R1 and R2 are
    checked below infinity, which a NaN fails too.  Each curvature is the
    root of a Minkowski square of at least ``CURVATURE_FLOOR`` times its
    finite Euclidean twin, so N, B1 and B2, each a residual over its
    curvature, stay within 1e5 in every component.  The position is read
    off ``a`` unchecked, for ``frenet_apparatus`` to check."""
    (x0, a0, b0, c0, d0), (x1, a1, b1, c1, d1), (x2, a2, b2, c2, d2), \
        (x3, a3, b3, c3, d3) = a
    e = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    if not e < math.inf:
        raise DivisionNearZero(_UNSQUARABLE.format(e, s))
    g = -(a0 * a0) + a1 * a1 + a2 * a2 + a3 * a3
    if not 0.0 < g < math.inf:
        raise NonSpacelikeVelocity(f"g(alpha', alpha') = {g} at s={s}")
    w = 1.0 / math.sqrt(g)
    t0, t1, t2, t3 = w * a0, w * a1, w * a2, w * a3

    # T_s = w^2 U2 = kappa1 N
    b0, b1, b2, b3 = 2.0 * b0, 2.0 * b1, 2.0 * b2, 2.0 * b3
    h = w * (-(b0 * a0) + b1 * a1 + b2 * a2 + b3 * a3)
    y0, y1 = w * (w * (b0 - h * t0)), w * (w * (b1 - h * t1))
    y2, y3 = w * (w * (b2 - h * t2)), w * (w * (b3 - h * t3))
    e1 = y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3
    eT = t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3
    for e in (e1, eT):
        if not e < math.inf:
            raise DivisionNearZero(_UNSQUARABLE.format(e, s))
    if e1 < CURVATURE_FLOOR ** 2 * max(1.0, eT):
        raise DegenerateFrame(1, f"|T'| ~ 0 at s={s}")
    g = -(y0 * y0) + y1 * y1 + y2 * y2 + y3 * y3
    if abs(g) < CURVATURE_FLOOR * e1:
        raise DegenerateFrame(1, f"T' numerically null at s={s}")
    m = 1.0 if g > 0.0 else -1.0        # g(N, N)
    k1 = math.sqrt(m * g)
    r = 1.0 / k1
    n0, n1, n2, n3 = r * y0, r * y1, r * y2, r * y3

    # U3 and U4: A3 and A4 less their parts along T and N
    c0, c1, c2, c3 = 6.0 * c0, 6.0 * c1, 6.0 * c2, 6.0 * c3
    h = w * (-(c0 * a0) + c1 * a1 + c2 * a2 + c3 * a3)
    u0, u1, u2, u3 = c0 - h * t0, c1 - h * t1, c2 - h * t2, c3 - h * t3
    h = m * (-(u0 * n0) + u1 * n1 + u2 * n2 + u3 * n3)
    u0, u1, u2, u3 = u0 - h * n0, u1 - h * n1, u2 - h * n2, u3 - h * n3
    d0, d1, d2, d3 = 24.0 * d0, 24.0 * d1, 24.0 * d2, 24.0 * d3
    h = w * (-(d0 * a0) + d1 * a1 + d2 * a2 + d3 * a3)
    z0, z1, z2, z3 = d0 - h * t0, d1 - h * t1, d2 - h * t2, d3 - h * t3
    h = m * (-(z0 * n0) + z1 * n1 + z2 * n2 + z3 * n3)
    z0, z1, z2, z3 = z0 - h * n0, z1 - h * n1, z2 - h * n2, z3 - h * n3
    if m < 0.0:
        # a curve in a Lorentzian 2-plane has a timelike T' and no kappa2:
        # planar where U3 and U4 are roundoff against A3 and A4, ratios
        # free of the parameter's speed
        e = c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3
        if not e < math.inf:
            raise DivisionNearZero(_UNSQUARABLE.format(e, s))
        if (u0 * u0 + u1 * u1 + u2 * u2 + u3 * u3
                <= RANK_REL_TOL * RANK_REL_TOL * e):
            # alpha''' in the plane: planar only if alpha'''' is too, else
            # kappa2 = 0 here
            q = d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
            if not q < math.inf:
                raise DivisionNearZero(_UNSQUARABLE.format(q, s))
            if (z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3
                    <= RANK_REL_TOL * RANK_REL_TOL * q):
                raise DegenerateFrame(2, f"curve is planar near s={s}")
            raise DegenerateFrame(2, f"second Frenet residual ~ 0 at s={s}")
        raise NonSpacelikePrincipalNormal(f"g(T',T') = {g} at s={s}")

    # R1 = (w^3 / kappa1) U3 = kappa2 B1
    f1 = w * (w * r)
    y0, y1 = w * (f1 * u0), w * (f1 * u1)
    y2, y3 = w * (f1 * u2), w * (f1 * u3)
    e2 = y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3
    if not e2 < math.inf:
        raise DivisionNearZero(_UNSQUARABLE.format(e2, s))
    if e2 < CURVATURE_FLOOR ** 2 * max(1.0, e1):
        raise DegenerateFrame(2, f"second Frenet residual ~ 0 at s={s}")
    g = -(y0 * y0) + y1 * y1 + y2 * y2 + y3 * y3
    if abs(g) < CURVATURE_FLOOR * e2:
        raise DegenerateFrame(2, f"second Frenet residual null at s={s}")
    eps = 1 if g > 0.0 else -1
    k2 = math.sqrt(g * eps)
    r = 1.0 / k2
    p0, p1, p2, p3 = r * y0, r * y1, r * y2, r * y3

    # R2 = (w^4 / (kappa1 kappa2)) U4 = kappa3 B2, U4 less its B1 part
    h = eps * (-(z0 * p0) + z1 * p1 + z2 * p2 + z3 * p3)
    f2 = w * (w * r)
    y0, y1 = f2 * (f1 * (z0 - h * p0)), f2 * (f1 * (z1 - h * p1))
    y2, y3 = f2 * (f1 * (z2 - h * p2)), f2 * (f1 * (z3 - h * p3))
    e3 = y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3
    if not e3 < math.inf:
        raise DivisionNearZero(_UNSQUARABLE.format(e3, s))
    if e3 < CURVATURE_FLOOR ** 2 * max(1.0, e2):
        raise DegenerateFrame(3, f"third Frenet residual ~ 0 at s={s}")
    g = -(y0 * y0) + y1 * y1 + y2 * y2 + y3 * y3
    if abs(g) < CURVATURE_FLOOR * e3:
        raise DegenerateFrame(3, f"third Frenet residual null at s={s}")
    k3 = math.sqrt(abs(g))
    r = 1.0 / k3
    return ((x0, x1, x2, x3), (t0, t1, t2, t3), (n0, n1, n2, n3),
            (p0, p1, p2, p3), (r * y0, r * y1, r * y2, r * y3),
            k1, k2, k3, eps)


def frenet_rhs(T: Sequence[float], N: Sequence[float], B1: Sequence[float],
               B2: Sequence[float], k1: float, k2: float, k3: float, eps: int
               ) -> tuple[tuple[float, ...], ...]:
    """Right-hand side of the moving-frame system.

    Takes the frame as four 4-sequences of floats and returns the four
    derivatives as 4-tuples, each component computed as numpy computes
    ``k1 * N``, ``-k1 * T + k2 * B1``, ``-eps * k2 * N + k3 * B2`` and
    ``k3 * B1``.
    """
    t0, t1, t2, t3 = T
    n0, n1, n2, n3 = N
    p0, p1, p2, p3 = B1
    q0, q1, q2, q3 = B2
    m1 = -k1
    e2 = (-eps) * k2
    return ((k1 * n0, k1 * n1, k1 * n2, k1 * n3),
            (m1 * t0 + k2 * p0, m1 * t1 + k2 * p1, m1 * t2 + k2 * p2,
             m1 * t3 + k2 * p3),
            (e2 * n0 + k3 * q0, e2 * n1 + k3 * q1, e2 * n2 + k3 * q2,
             e2 * n3 + k3 * q3),
            (k3 * p0, k3 * p1, k3 * p2, k3 * p3))


def frenet_ode_residual(spec: CurveSpec, amap: ArclengthMap, f0: FrenetData,
                        h: float) -> tuple[float, float, float, float]:
    """Pseudo-norms of the central differences of the frames at ``f0.s - h``
    and ``f0.s + h`` minus ``frenet_rhs`` of the centre frame ``f0``; they
    converge at order 2 in h on smooth samples.  The neighbours are the
    kernel's floats, unwrapped: only their T, N, B1 and B2 are read, and
    those are finite whenever the kernel returns."""
    fm = _frame_floats(spec, amap, f0.s - h)
    fp = _frame_floats(spec, amap, f0.s + h)
    rhs = frenet_rhs(f0.T, f0.N, f0.B1, f0.B2, f0.kappa1, f0.kappa2,
                     f0.kappa3, f0.eps)
    h2, out = 2.0 * h, []
    for (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) in zip(
            fm[1:5], fp[1:5], rhs):
        d0, d1 = (b0 - a0) / h2 - c0, (b1 - a1) / h2 - c1
        d2, d3 = (b2 - a2) / h2 - c2, (b3 - a3) / h2 - c3
        out.append(math.sqrt(abs(-d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3)))
    return tuple(out)


def gram_errors(T: Sequence[float], N: Sequence[float],
                B1: Sequence[float], B2: Sequence[float], eps: int) -> float:
    """Max deviation of the ten Gram conditions from their target values.

    The frame vectors are 4-sequences of floats.

    Each entry g(a, b) is summed left to right in plain floats,
    ``(((-a0)*b0 + a1*b1) + a2*b2) + a3*b3``, the order numpy's reduction
    of a 4-element array takes, so the result equals the
    ``np.sum(np.array([-1., 1., 1., 1.]) * a * b)`` form bit for bit.  A
    non-finite deviation makes the result non-finite (``max`` alone would
    drop a NaN), which aborts ``synthesize_curve``.
    """
    # the ten sums are written out, not minkowski_dot calls: each RK4 step
    # runs them
    t0, t1, t2, t3 = T
    n0, n1, n2, n3 = N
    p0, p1, p2, p3 = B1
    q0, q1, q2, q3 = B2
    devs = (
        abs((((-t0) * t0 + t1 * t1) + t2 * t2) + t3 * t3 - 1.0),
        abs((((-t0) * n0 + t1 * n1) + t2 * n2) + t3 * n3),
        abs((((-t0) * p0 + t1 * p1) + t2 * p2) + t3 * p3),
        abs((((-t0) * q0 + t1 * q1) + t2 * q2) + t3 * q3),
        abs((((-n0) * n0 + n1 * n1) + n2 * n2) + n3 * n3 - 1.0),
        abs((((-n0) * p0 + n1 * p1) + n2 * p2) + n3 * p3),
        abs((((-n0) * q0 + n1 * q1) + n2 * q2) + n3 * q3),
        abs((((-p0) * p0 + p1 * p1) + p2 * p2) + p3 * p3 - eps),
        abs((((-p0) * q0 + p1 * q1) + p2 * q2) + p3 * q3),
        abs((((-q0) * q0 + q1 * q1) + q2 * q2) + q3 * q3 + eps),
    )
    # every deviation is >= 0 or NaN, so the sum is NaN exactly when one is
    return math.nan if math.isnan(sum(devs)) else max(devs)


# -- curvature profiles -------------------------------------------------------

class CurvatureProfile(NamedTuple):
    """Curvature functions of arclength: ``values(s)`` is (kappa1, kappa2,
    kappa3) at a float s."""

    values: Callable[[float], tuple[float, float, float]]
    eps: int
    s_range: tuple[float, float]


def constant_profile(k1: float, k2: float, k3: float, eps: int,
                     s_range: tuple[float, float]) -> CurvatureProfile:
    if not all(0.0 < k < math.inf for k in (k1, k2, k3)):
        raise ValueError("curvatures must be positive and finite")
    ks = (float(k1), float(k2), float(k3))
    return CurvatureProfile(values=lambda s: ks, eps=eps,
                            s_range=tuple(s_range))


def rectifying_profile(s_range: tuple[float, float] = (0.5, 2.5),
                       eps: int = 1) -> CurvatureProfile:
    """kappa1 = cosh(s)/s, kappa2 = kappa3 = 1.

    Satisfies the rectifying curvature-ratio condition with c = 0, so frame
    synthesis from it yields a curve congruent to a rectifying one.
    """
    if s_range[0] <= 0.0:
        raise ValueError("kappa1 = cosh(s)/s needs s > 0")
    return CurvatureProfile(values=lambda s: (math.cosh(s) / s, 1.0, 1.0),
                            eps=eps, s_range=tuple(s_range))


def profile_from_name(name: str, params: dict, eps: int,
                      s_range: tuple[float, float]) -> CurvatureProfile:
    if name == "constant":
        _check_names("profile constant", params, ("k1", "k2", "k3"))
        return constant_profile(params.get("k1", 1.0), params.get("k2", 1.0),
                                params.get("k3", 1.0), eps, s_range)
    if name == "cosh_over_s":
        _check_names("profile cosh_over_s", params, ())
        return rectifying_profile(s_range, eps)
    raise ValueError(f"unknown profile {name!r} "
                     "(profiles: constant, cosh_over_s)")


# -- synthesis ----------------------------------------------------------------

def standard_init_frame(eps: int = 1) -> FrenetData:
    """Coordinate-axis frame satisfying the Gram conditions exactly."""
    zero = Vec4(0.0, 0.0, 0.0, 0.0)
    if eps == 1:
        b1, b2 = Vec4(0.0, 0.0, 0.0, 1.0), Vec4(1.0, 0.0, 0.0, 0.0)
    else:
        b1, b2 = Vec4(1.0, 0.0, 0.0, 0.0), Vec4(0.0, 0.0, 0.0, 1.0)
    return FrenetData(s=0.0, position=zero,
                      T=Vec4(0.0, 1.0, 0.0, 0.0), N=Vec4(0.0, 0.0, 1.0, 0.0),
                      B1=b1, B2=b2, kappa1=1.0, kappa2=1.0, kappa3=1.0, eps=eps)


class SynthesizedCurve:
    """Sampled-frame table: the dense RK4 output of a frame synthesis and a
    frame source on its grid points.  ``s`` and ``rows`` are flat
    ``array('d')``s; ``rows[20 * i:20 * i + 20]`` holds the position, T, N,
    B1 and B2 at ``s[i]``.  ``cli.CsvFrameSource`` is the same table read
    back from a synthesis CSV, with no profile."""

    __slots__ = ("profile", "s", "rows", "max_drift")

    def __init__(self, profile: CurvatureProfile | None, s: array,
                 rows: array, max_drift: float):
        self.profile = profile
        self.s = s
        self.rows = rows
        self.max_drift = max_drift

    @property
    def s_range(self) -> tuple[float, float]:
        return (self.s[0], self.s[-1])

    def _index(self, s: float) -> int:
        """The index of the grid point nearest ``s``, the lower of a tie."""
        ss = self.s
        i = _nearest(ss, s)
        if abs(ss[i] - s) > 1e-9 * max(1.0, abs(s)):
            raise OutOfDomain(f"s={s} is not a synthesis grid point")
        return i

    def grid_samples(self, count: int) -> list[float]:
        # row indices rounded half to even; rows that coincide count once
        idx = sorted({round(x) for x in grid(0, len(self.s) - 1, count)})
        return [self.s[i] for i in idx]

    def _row_frame(self, i: int, kappa1: float, kappa2: float,
                   kappa3: float, eps: int) -> FrenetData:
        """Row ``i`` of the table with the given curvatures."""
        # the position, T, N, B1 and B2, in FrenetData's field order
        return FrenetData(self.s[i], *[Vec4(*self.rows[k:k + 4]) for k
                                       in range(20 * i, 20 * i + 20, 4)],
                          kappa1, kappa2, kappa3, eps)

    def frame(self, s: float) -> FrenetData:
        i = self._index(s)
        return self._row_frame(i, *self.profile.values(self.s[i]),
                               self.profile.eps)

    def kappa3_integral(self, s: float) -> float:
        """The torsion angle: the profile's kappa3 integrated from ``s[0]``
        to s by ``_torsion_angle``."""
        return _torsion_angle(lambda u: self.profile.values(u)[2], self.s[0],
                              s, "the synthesis profile")


def synthesize_curve(profile: CurvatureProfile,
                     init_frame: FrenetData | None = None,
                     ds: float = 1e-3,
                     synth_tol: float = SYNTH_TOL,
                     coupling_eps: int | None = None) -> SynthesizedCurve:
    """Integrate the moving-frame system plus alpha' = T by classical RK4
    from the origin.

    The system couples the frame vectors only within a coordinate, so each
    step advances the four columns (x_i, T_i, N_i, B1_i, B2_i) one at a
    time through the four stages, with -kappa1 and (-eps) * kappa2 computed
    once per stage node.  Every float operation is the one ``frenet_rhs``
    and numpy's ``y + 0.5 * ds * a``, ``y + ds * c`` and
    ``y + (ds / 6.0) * (a + 2.0 * b + 2.0 * c + d)`` perform on the
    20-float state, in the same order, so the trajectory matches that form
    bit for bit.  ``coupling_eps`` is the eps the (B1)' equation reads,
    ``profile.eps`` when None; the Gram monitor always reads
    ``profile.eps``, so criterion 9's mutant passes ``-profile.eps``.

    No re-orthonormalization is applied; the max Gram drift is monitored
    every step and FrameDriftExceeded is raised when it crosses
    ``synth_tol`` or is NaN.  It carries the partial trajectory without
    its non-finite states.  A reversed range raises OutOfDomain; a
    zero-length one gives the initial sample alone.
    """
    if ds <= 0.0:
        raise ValueError("ds must be positive")
    s_lo, s_hi = profile.s_range
    if not s_lo <= s_hi:
        raise OutOfDomain(f"synthesis range must have lo <= hi, got "
                          f"{profile.s_range}")
    frame = init_frame or standard_init_frame(profile.eps)
    eps = profile.eps
    minus_eps = -(eps if coupling_eps is None else coupling_eps)
    X = [0.0] * 4
    T, N, B1, B2 = (list(v) for v in (frame.T, frame.N, frame.B1, frame.B2))
    if not gram_errors(T, N, B1, B2, eps) <= 1e-12:
        raise ValueError("init_frame violates the Gram conditions")

    steps = (s_hi - s_lo) / ds
    if steps > MAX_SYNTH_STEPS:
        raise ValueError(f"{steps:.3g} RK4 steps, more than "
                         f"{MAX_SYNTH_STEPS}; use a larger ds")
    n = max(1, int(round(steps))) if s_hi > s_lo else 0
    ss, rows = array("d", [s_lo]), array("d", [*X, *T, *N, *B1, *B2])
    if n == 0:
        return SynthesizedCurve(profile, ss, rows, 0.0)
    ds = (s_hi - s_lo) / n
    half, sixth = 0.5 * ds, ds / 6.0
    kvals = profile.values

    drift = 0.0
    s = s_lo
    # s + ds here and the next step's s come from the same addition, so the
    # curvatures at the end of one step are those at the start of the next
    k1a, k2a, k3a = kvals(s)
    m1a, e2a = -k1a, minus_eps * k2a
    # Stage a reads the curvatures at s, b and c at s + ds/2, d at s + ds.
    # The stage inputs' x components are never read, so they are not
    # formed.  An overflowing float goes non-finite quietly; the drift
    # check aborts.
    for _ in range(n):
        k1b, k2b, k3b = kvals(s + half)
        k1d, k2d, k3d = kvals(s + ds)
        m1b, e2b = -k1b, minus_eps * k2b
        m1d, e2d = -k1d, minus_eps * k2d
        for i in (0, 1, 2, 3):
            t, v, p, q = T[i], N[i], B1[i], B2[i]     # column i of the frame
            aT = k1a * v
            aN = m1a * t + k2a * p
            aP = e2a * v + k3a * q
            aQ = k3a * p
            tb, vb = t + half * aT, v + half * aN
            pb, qb = p + half * aP, q + half * aQ
            bT = k1b * vb
            bN = m1b * tb + k2b * pb
            bP = e2b * vb + k3b * qb
            bQ = k3b * pb
            tc, vc = t + half * bT, v + half * bN
            pc, qc = p + half * bP, q + half * bQ
            cT = k1b * vc
            cN = m1b * tc + k2b * pc
            cP = e2b * vc + k3b * qc
            cQ = k3b * pc
            td, vd = t + ds * cT, v + ds * cN
            pd, qd = p + ds * cP, q + ds * cQ
            X[i] += sixth * (((t + 2.0 * tb) + 2.0 * tc) + td)
            T[i] = t + sixth * (((aT + 2.0 * bT) + 2.0 * cT) + k1d * vd)
            N[i] = v + sixth * (((aN + 2.0 * bN) + 2.0 * cN)
                                + (m1d * td + k2d * pd))
            B1[i] = p + sixth * (((aP + 2.0 * bP) + 2.0 * cP)
                                 + (e2d * vd + k3d * qd))
            B2[i] = q + sixth * (((aQ + 2.0 * bQ) + 2.0 * cQ) + k3d * pd)
        s += ds
        k1a, k2a, k3a, m1a, e2a = k1d, k2d, k3d, m1d, e2d
        ss.append(s)
        rows.fromlist([*X, *T, *N, *B1, *B2])
        g = gram_errors(T, N, B1, B2, eps)
        if not g <= drift:           # max() that keeps a NaN
            drift = g
        if not drift <= synth_tol:
            while not all(map(math.isfinite, rows[-20:])):
                del ss[-1], rows[-20:]
            raise FrameDriftExceeded(
                f"Gram drift {drift:.3e} > {synth_tol:.3e} at s={s}",
                partial=SynthesizedCurve(profile, ss, rows, drift))
    return SynthesizedCurve(profile, ss, rows, drift)


# -- frame sources ------------------------------------------------------------

class JetFrameSource:
    """Frame provider backed by jet-exact extraction from a curve spec."""

    def __init__(self, spec: CurveSpec):
        self.spec = spec
        self.map = arclength_map(spec)
        self._frames: dict[float, FrenetData] = {}
        self._k3: dict[float, float] = {0.0: 0.0}
        self._anchors = [0.0]           # the keys of _k3, sorted

    @property
    def s_range(self) -> tuple[float, float]:
        return (0.0, self.map.total)

    def grid_samples(self, count: int) -> list[float]:
        return self.map.grid_samples(count)

    def frame(self, s: float) -> FrenetData:
        f = self._frames.get(s)
        if f is None:
            f = frenet_apparatus(self.spec, self.map, s)
            self._frames[s] = f
        return f

    def kappa3_integral(self, s: float) -> float:
        """The torsion angle: kappa3 integrated from arclength 0 to s.

        A new s is integrated by ``_torsion_angle`` from its anchor, the
        sample already integrated that is nearest s, the lower of a tie, so
        on monotone samples each panel lies between consecutive samples,
        whose frames are cached, and reads 4 new frames unless halved.  A
        repeated sample is a lookup.
        """
        if s not in self._k3:
            s0 = self._anchors[_nearest(self._anchors, s)]
            self._k3[s] = self._k3[s0] + _torsion_angle(
                self._node_kappa3, s0, s, self.spec.catalog_id)
            insort(self._anchors, s)
        return self._k3[s]

    def _node_kappa3(self, s: float) -> float:
        """kappa3 at a quadrature node: a requested sample's frame is
        reused, and a node's own frame is the kernel's floats, unwrapped
        and not cached, so the cache holds only the requested samples.
        That kappa3 is finite whenever the kernel returns."""
        f = self._frames.get(s)
        if f is None:
            return _frame_floats(self.spec, self.map, s)[7]      # kappa3
        return f.kappa3


class TranslatedSource:
    """Decorator shifting every position by a constant vector; frames unchanged."""

    def __init__(self, base, shift: Vec4):
        self.base = base
        self.shift = shift

    def frame(self, s: float) -> FrenetData:
        f = self.base.frame(s)
        return f._replace(position=f.position + self.shift)

    def kappa3_integral(self, s: float) -> float:
        return self.base.kappa3_integral(s)
