"""A 40-digit reference for the Frenet apparatus of the catalog curves.

The frame of a curve whose derivatives alpha' .. alpha'''' are independent
is their Gram-Schmidt orthonormalization in the Minkowski metric g, and
its curvatures are ratios of the Gram-Schmidt norms: with U1 .. U4 the
residuals and |U| = sqrt(|g(U, U)|), kappa_i = |U_{i+1}| / (|U_1| |U_i|)
(Gluck, "Higher curvatures of curves in Euclidean space", Amer. Math.
Monthly 73, 1966; the Lorentzian signs change no ratio).  Here that runs
in mpmath at 40 digits on the exact derivatives at a float parameter t,
so the only float in it is t itself: comparing a float frame with it at
the same t measures the frame's forward error.

``frame(derivatives, t)`` needs the curve as a function of mpmath t that
returns its position and four derivatives: ``helix(params)`` gives it for
``lorentz_helix`` in closed form, and ``clelia`` is it for
``hyperbolic_clelia``, by ``mpmath.taylor``.
"""
import mpmath

DPS = 40
FIELDS = ("position", "T", "N", "B1", "B2", "kappa1", "kappa2", "kappa3")


def _g(x, y):
    return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def helix(params):
    """alpha, alpha', .., alpha'''' of (A sinh pt, A cosh pt, B cos qt,
    B sin qt)."""
    A, p, B, q = (mpmath.mpf(params[k]) for k in "ApBq")

    def derivatives(t):
        sh, ch = mpmath.sinh(p * t), mpmath.cosh(p * t)
        out = []
        for k in range(5):
            hyp = (sh, ch) if k % 2 == 0 else (ch, sh)
            phase = q * t + k * mpmath.pi / 2
            out.append((A * p ** k * hyp[0], A * p ** k * hyp[1],
                        B * q ** k * mpmath.cos(phase),
                        B * q ** k * mpmath.sin(phase)))
        return out
    return derivatives


def _clelia(t):
    return (mpmath.cosh(t), mpmath.sinh(t) * mpmath.cos(t),
            mpmath.sinh(t) * mpmath.sin(t) * mpmath.cos(t),
            mpmath.sinh(t) * mpmath.sin(t) ** 2)


def clelia(t):
    """alpha, alpha', .., alpha'''' of the hyperbolic clelia, from the
    Taylor coefficients of each coordinate."""
    cols = [mpmath.taylor(lambda x, i=i: _clelia(x)[i], t, 4)
            for i in range(4)]
    return [tuple(mpmath.factorial(k) * c[k] for c in cols)
            for k in range(5)]


def frame(derivatives, t):
    """The apparatus at the float ``t`` as mpmath numbers: a dict of the
    ``FIELDS`` (vectors as 4-tuples) and ``eps``."""
    with mpmath.workdps(DPS):
        position, *rows = derivatives(mpmath.mpf(t))
        basis, signs, norms = [], [], []
        for row in rows:
            u = list(row)
            for e, sign in zip(basis, signs):
                c = sign * _g(u, e)
                u = [x - c * y for x, y in zip(u, e)]
            square = _g(u, u)
            norm = mpmath.sqrt(abs(square))
            basis.append(tuple(x / norm for x in u))
            signs.append(1 if square > 0 else -1)
            norms.append(norm)
        kappas = [norms[i + 1] / (norms[0] * norms[i]) for i in range(3)]
        return dict(zip(FIELDS, (tuple(position), *basis, *kappas)),
                    eps=signs[2])


def forward_errors(got, want):
    """Per field: the largest component error of a vector relative to its
    largest reference component, or a curvature's relative error, as
    floats."""
    out = {}
    with mpmath.workdps(DPS):
        for name in FIELDS:
            x, ref = getattr(got, name), want[name]
            if name.startswith("kappa"):
                out[name] = float(abs(x - ref) / ref)
            else:
                out[name] = float(max(abs(a - b) for a, b in zip(x, ref))
                                  / max(abs(b) for b in ref))
    return out
