"""Minkowski-signature linear algebra on E_1^4.

The metric has signature (-, +, +, +); coordinate ``x0`` carries the minus
sign.  Everything here is exact coordinate arithmetic, pure and immutable.
"""
from __future__ import annotations

from enum import Enum
from math import frexp, isfinite, ldexp
from operator import add, neg, sub

__all__ = [
    "Vec4",
    "CausalCharacter",
    "minkowski_dot",
    "causal_character",
]

DEFAULT_CAUSAL_TOL = 1e-12


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    NULL = "null"


class Vec4(tuple):
    """A point or vector of E_1^4, a tuple of four finite Python floats; x0
    is the timelike coordinate.  ``+``, ``-``, scalar ``*`` and unary ``-``
    are vector operations.  A numpy row goes through ``.tolist()`` first."""

    __slots__ = ()
    __array_ufunc__ = None      # so that np.float64 * v calls v.__rmul__

    def __new__(cls, x0: float, x1: float, x2: float, x3: float) -> "Vec4":
        if not (isfinite(x0) and isfinite(x1) and isfinite(x2)
                and isfinite(x3)):
            raise ValueError(
                f"non-finite coordinate in Vec4: {(x0, x1, x2, x3)!r}")
        return tuple.__new__(cls, (x0, x1, x2, x3))

    def __getnewargs__(self):          # copy and pickle call __new__ with it
        return tuple(self)

    @property
    def components(self) -> tuple[float, float, float, float]:
        return tuple(self)

    def __add__(self, other) -> "Vec4":
        return Vec4(*map(add, self, other))

    def __sub__(self, other) -> "Vec4":
        return Vec4(*map(sub, self, other))

    def __mul__(self, k: float) -> "Vec4":
        k = float(k)            # a numpy scalar would spread to every coordinate
        return Vec4(*[x * k for x in self])

    __rmul__ = __mul__

    def __neg__(self) -> "Vec4":
        return Vec4(*map(neg, self))


def minkowski_dot(v, w) -> float:
    """g(v, w) = -v0*w0 + v1*w1 + v2*w2 + v3*w3 of two 4-sequences."""
    v0, v1, v2, v3 = v
    w0, w1, w2, w3 = w
    return -v0 * w0 + v1 * w1 + v2 * w2 + v3 * w3


def causal_character(v) -> CausalCharacter:
    """Classify the 4-sequence ``v`` as spacelike, timelike or null.

    The null band is relative: |g(v,v)| <= DEFAULT_CAUSAL_TOL * ||v||_E^2,
    both of v scaled by a power of two to a largest |component| in [0.5,
    1), so the classification is scale-free over the whole float range.
    The zero vector is spacelike.
    """
    if not any(v):
        return CausalCharacter.SPACELIKE
    k = -frexp(max(map(abs, v)))[1]
    v0, v1, v2, v3 = (ldexp(x, k) for x in v)
    g = -v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3
    band = DEFAULT_CAUSAL_TOL * (v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3)
    if g > band:
        return CausalCharacter.SPACELIKE
    if g < -band:
        return CausalCharacter.TIMELIKE
    return CausalCharacter.NULL

