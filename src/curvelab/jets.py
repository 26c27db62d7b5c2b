"""Truncated Taylor-jet arithmetic of fixed order 4.

A ``Jet`` stores the coefficients (c0, ..., c4) of a scalar function's
Taylor expansion at a point, c_k = f^(k)(t) / k!.  All operations are exact
truncated-series arithmetic, so derivatives extracted from jets carry no
discretization error, only roundoff.

Order 4 is the smallest order that feeds the full Frenet apparatus in a
4-space (four derivatives of the position).

Every operation is written out as straight-line arithmetic on coefficient
tuples, once per length in ``SERIES``: whole jets (5), or a value and a
first derivative (2) that equal the first two of 5 bit for bit; ``Jet``
wraps the length-5 helpers.  The floating-point operations, and their
order, are fixed: each Cauchy sum runs left to right and starts from
``0.0 +``, which is what builtin ``sum()`` does on Python 3.11 and older
(the ``0.0 +`` turns a leading -0.0 into 0.0).  Every printed frame,
curvature and report figure derives from these bits, so they must not
depend on the Python version; ``sum()`` itself does, since Python 3.12
compensates its rounding.  ``tests/test_jets.py`` holds the loop formulas
as the reference and checks every operation against them bit for bit,
sign of zero included.

``compose`` and ``reverse`` carry a jet from one parameter to another.
The frame kernel needs neither (it runs Gram-Schmidt on the derivatives
that the curve's own jets hold, and takes them to arclength by powers of
1/v); the spherical construction reparameterizes its input by arclength
with them.
"""
from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

from .errors import DivisionNearZero, SqrtNonPositive

ORDER = 4
_N = ORDER + 1
_FACT = (1.0, 1.0, 2.0, 6.0, 24.0)

DIV_FLOOR = 1e-300


def _cauchy(a, b):
    """Truncated product of two coefficient tuples."""
    a0, a1, a2, a3, a4 = a
    b0, b1, b2, b3, b4 = b
    return (0.0 + a0 * b0,
            0.0 + a0 * b1 + a1 * b0,
            0.0 + a0 * b2 + a1 * b1 + a2 * b0,
            0.0 + a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            0.0 + a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0)


def _scale(a, k):
    a0, a1, a2, a3, a4 = a
    return (a0 * k, a1 * k, a2 * k, a3 * k, a4 * k)


def _divide(a, b):
    a0, a1, a2, a3, a4 = a
    b0, b1, b2, b3, b4 = b
    check_divisor(b0)
    q0 = a0 / b0
    q1 = (a1 - q0 * b1) / b0
    q2 = (a2 - q0 * b2 - q1 * b1) / b0
    q3 = (a3 - q0 * b3 - q1 * b2 - q2 * b1) / b0
    q4 = (a4 - q0 * b4 - q1 * b3 - q2 * b2 - q3 * b1) / b0
    return (q0, q1, q2, q3, q4)


# sincos and sinhcosh share the recurrence f_k = (sum_i i a_i g_{k-i}) / k,
# the cosine's sums negated (``sign``) for sin and cos; a1..a4 below stand
# for i * a_i, and the division by k = 1 is exact.

def _coupled(a, sin, cos, sign):
    a0, a1, a2, a3, a4 = a
    a2, a3, a4 = 2.0 * a2, 3.0 * a3, 4.0 * a4
    s0 = sin(a0)
    c0 = cos(a0)
    s1 = 0.0 + a1 * c0
    c1 = sign(0.0 + a1 * s0)
    s2 = (0.0 + a1 * c1 + a2 * c0) / 2.0
    c2 = sign(0.0 + a1 * s1 + a2 * s0) / 2.0
    s3 = (0.0 + a1 * c2 + a2 * c1 + a3 * c0) / 3.0
    c3 = sign(0.0 + a1 * s2 + a2 * s1 + a3 * s0) / 3.0
    s4 = (0.0 + a1 * c3 + a2 * c2 + a3 * c1 + a4 * c0) / 4.0
    c4 = sign(0.0 + a1 * s3 + a2 * s2 + a3 * s1 + a4 * s0) / 4.0
    return (s0, s1, s2, s3, s4), (c0, c1, c2, c3, c4)


def _sincos(a):
    if math.isinf(a[0]):            # math.sin would raise ValueError
        raise OverflowError(f"sin and cos of {a[0]}")
    return _coupled(a, math.sin, math.cos, operator.neg)


def _sinhcosh(a):
    return _coupled(a, math.sinh, math.cosh, operator.pos)


# The length-2 forms: coefficients 0 and 1 of the helpers above, by the
# same float operations, so a position and velocity cost no higher terms.

def _cauchy2(a, b):
    a0, a1 = a
    b0, b1 = b
    return (0.0 + a0 * b0, 0.0 + a0 * b1 + a1 * b0)


def _scale2(a, k):
    a0, a1 = a
    return (a0 * k, a1 * k)


def _divide2(a, b):
    a0, a1 = a
    b0, b1 = b
    check_divisor(b0)
    q0 = a0 / b0
    return (q0, (a1 - q0 * b1) / b0)


def _sincos2(a):
    a0, a1 = a
    if math.isinf(a0):
        raise OverflowError(f"sin and cos of {a0}")
    s0 = math.sin(a0)
    c0 = math.cos(a0)
    return (s0, 0.0 + a1 * c0), (c0, -(0.0 + a1 * s0))


def _sinhcosh2(a):
    a0, a1 = a
    s0 = math.sinh(a0)
    c0 = math.cosh(a0)
    return (s0, 0.0 + a1 * c0), (c0, 0.0 + a1 * s0)


class Series(NamedTuple):
    """The operations of one truncation length on coefficient tuples."""

    mul: Callable
    div: Callable
    scale: Callable
    sinhcosh: Callable
    sincos: Callable


SERIES = {2: Series(_cauchy2, _divide2, _scale2, _sinhcosh2, _sincos2),
          5: Series(_cauchy, _divide, _scale, _sinhcosh, _sincos)}


class Jet:
    """Order-4 truncated Taylor series; immutable.

    Equality and hashing go by ``coeffs``.  Every construction runs
    ``__post_init__``, which rejects a wrong coefficient count.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[float, float, float, float, float]):
        _set_coeffs(self, coeffs)
        self.__post_init__()

    def __post_init__(self):
        if len(self.coeffs) != _N:
            raise ValueError(f"Jet needs exactly {_N} coefficients")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Jet")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Jet")

    def __reduce__(self):
        return (Jet, (self.coeffs,))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Jet(coeffs={self.coeffs!r})"

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def derivative(self, k: int) -> float:
        """k-th derivative value, k in 0..4."""
        return self.coeffs[k] * _FACT[k]

    def d(self) -> "Jet":
        """Jet of the derivative function.

        The top coefficient is zeroed: one order of validity is lost per
        differentiation.
        """
        c = self.coeffs
        return Jet((c[1], 2.0 * c[2], 3.0 * c[3], 4.0 * c[4], 0.0))

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a0, a1, a2, a3, a4 = self.coeffs
        if isinstance(other, Jet):
            b0, b1, b2, b3, b4 = other.coeffs
            return Jet((a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4))
        return Jet((a0 + other, a1, a2, a3, a4))

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3, a4 = self.coeffs
        return Jet((-a0, -a1, -a2, -a3, -a4))

    def __sub__(self, other):
        a0, a1, a2, a3, a4 = self.coeffs
        if isinstance(other, Jet):
            b0, b1, b2, b3, b4 = other.coeffs
            return Jet((a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4))
        return Jet((a0 - other, a1, a2, a3, a4))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(_cauchy(self.coeffs, other.coeffs))
        return Jet(_scale(self.coeffs, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return Jet(_divide(self.coeffs, other.coeffs))

    def __rtruediv__(self, other):
        return constant(other) / self


# The slot's own setter: ``Jet.__setattr__`` refuses every assignment.
_set_coeffs = Jet.coeffs.__set__


def variable(t: float) -> Jet:
    """Jet of the identity function at ``t``."""
    return Jet((float(t), 1.0, 0.0, 0.0, 0.0))


def constant(c: float) -> Jet:
    return Jet((float(c), 0.0, 0.0, 0.0, 0.0))


def check_divisor(b0: float) -> None:
    """Raise DivisionNearZero if a series with constant term ``b0`` is too
    close to zero to divide by."""
    if abs(b0) <= DIV_FLOOR:
        raise DivisionNearZero("jet division by a series with ~zero constant term")


def sqrt(j: Jet) -> Jet:
    return Jet(_sqrt(j.coeffs))


def _sqrt(a):
    a0, a1, a2, a3, a4 = a
    if a0 <= 0.0:
        raise SqrtNonPositive(f"jet sqrt of non-positive value {a0!r}")
    r0 = math.sqrt(a0)
    two_r0 = 2.0 * r0
    r1 = a1 / two_r0
    r2 = (a2 - r1 * r1) / two_r0
    r3 = (a3 - r1 * r2 - r2 * r1) / two_r0
    r4 = (a4 - r1 * r3 - r2 * r2 - r3 * r1) / two_r0
    return (r0, r1, r2, r3, r4)


def sincos(j: Jet) -> tuple[Jet, Jet]:
    """sin and cos of a jet, computed jointly via their coupled recurrence."""
    s, c = _sincos(j.coeffs)
    return Jet(s), Jet(c)


def sinhcosh(j: Jet) -> tuple[Jet, Jet]:
    s, c = _sinhcosh(j.coeffs)
    return Jet(s), Jet(c)


def compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of f(g(s)) where ``outer`` expands f at the point ``inner.value``.

    Horner evaluation in the nilpotent part of ``inner``; exact to order 4.
    The zeros that start the running tuple are multiplied too: a
    non-finite ``inner`` makes those products NaNs.
    """
    i0, d1, d2, d3, d4 = inner.coeffs
    delta = (i0 - i0, d1, d2, d3, d4)
    out = (float(outer.coeffs[ORDER]), 0.0, 0.0, 0.0, 0.0)
    for ak in reversed(outer.coeffs[:ORDER]):
        p = _cauchy(out, delta)
        out = (p[0] + ak, p[1], p[2], p[3], p[4])
    return Jet(out)


def reverse(j: Jet, at: float) -> Jet:
    """Compositional inverse: given the jet of s(t) at t0, return t(s) at s(t0).

    ``at`` is t0, the expansion point of ``j`` (a jet does not carry it);
    the result has constant term t0.  Raises DivisionNearZero when the
    linear coefficient b1 is ~0, or b1 ** 7 (or b2 ** 3) under- or overflows.
    """
    _, b1, b2, b3, b4 = j.coeffs
    if abs(b1) <= DIV_FLOOR:
        raise DivisionNearZero("series reversion with ~zero linear coefficient")
    try:
        c2 = -b2 / b1 ** 3
        c3 = (2.0 * b2 * b2 - b1 * b3) / b1 ** 5
        c4 = (5.0 * b1 * b2 * b3 - b1 * b1 * b4 - 5.0 * b2 ** 3) / b1 ** 7
    except ArithmeticError as exc:      # a power under- or overflows
        raise DivisionNearZero(f"series reversion with linear coefficient "
                               f"{b1!r}: {exc}") from None
    return Jet((float(at), 1.0 / b1, c2, c3, c4))
