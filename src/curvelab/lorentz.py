"""Minkowski-signature linear algebra on E_1^4.

The metric has signature (-, +, +, +); coordinate ``x0`` carries the minus
sign.  Everything here is exact coordinate arithmetic, pure and immutable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Vec4",
    "CausalCharacter",
    "minkowski_dot",
    "causal_character",
    "on_hyperbolic_sphere",
]

DEFAULT_CAUSAL_TOL = 1e-12


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    NULL = "null"


@dataclass(frozen=True)
class Vec4:
    """A point or vector of E_1^4; ``x0`` is the timelike coordinate."""

    x0: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for c in (self.x0, self.x1, self.x2, self.x3):
            if not math.isfinite(c):
                raise ValueError(f"non-finite coordinate in Vec4: {c!r}")

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.x3)

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x0 + other.x0, self.x1 + other.x1,
                    self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x0 - other.x0, self.x1 - other.x1,
                    self.x2 - other.x2, self.x3 - other.x3)

    def __mul__(self, k: float) -> "Vec4":
        return Vec4(self.x0 * k, self.x1 * k, self.x2 * k, self.x3 * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec4":
        return Vec4(-self.x0, -self.x1, -self.x2, -self.x3)

    def is_zero(self) -> bool:
        return self.x0 == 0.0 and self.x1 == 0.0 and self.x2 == 0.0 and self.x3 == 0.0


def minkowski_dot(v: Vec4, w: Vec4) -> float:
    """g(v, w) = -v0*w0 + v1*w1 + v2*w2 + v3*w3."""
    return -v.x0 * w.x0 + v.x1 * w.x1 + v.x2 * w.x2 + v.x3 * w.x3


def causal_character(v: Vec4, tol: float = DEFAULT_CAUSAL_TOL) -> CausalCharacter:
    """Classify ``v`` as spacelike, timelike or null.

    The null band is relative: |g(v,v)| <= tol * ||v||_E^2, which makes the
    classification scale invariant.  The zero vector is spacelike.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    if v.is_zero():
        return CausalCharacter.SPACELIKE
    g = minkowski_dot(v, v)
    band = tol * (v.x0 * v.x0 + v.x1 * v.x1 + v.x2 * v.x2 + v.x3 * v.x3)
    if g > band:
        return CausalCharacter.SPACELIKE
    if g < -band:
        return CausalCharacter.TIMELIKE
    return CausalCharacter.NULL


def on_hyperbolic_sphere(p: Vec4, tol: float) -> bool:
    """True iff |g(p, p) + 1| <= tol, i.e. p lies on H_0^3(1)."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return abs(minkowski_dot(p, p) + 1.0) <= tol
