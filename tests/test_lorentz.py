"""Metric-level invariants of the Vec4 algebra."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvelab.lorentz import (
    CausalCharacter,
    Vec4,
    causal_character,
    minkowski_dot,
)

EPS = 2.220446049250313e-16

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
vec4s = st.builds(Vec4, finite, finite, finite, finite)


@given(vec4s, vec4s)
def test_dot_symmetric(u, v):
    assert minkowski_dot(u, v) == minkowski_dot(v, u)


@given(vec4s, vec4s, vec4s, st.floats(min_value=-100, max_value=100))
def test_dot_bilinear(u, v, w, k):
    # absolute bound: cancellation can leave a tiny result of large operands
    lhs = minkowski_dot(u + k * v, w)
    rhs = minkowski_dot(u, w) + k * minkowski_dot(v, w)
    scale = (math.hypot(*u.components)
             + abs(k) * math.hypot(*v.components)) * math.hypot(*w.components)
    assert abs(lhs - rhs) <= 16 * EPS * max(scale, 1e-300)


def test_signature():
    basis = [Vec4(1, 0, 0, 0), Vec4(0, 1, 0, 0),
             Vec4(0, 0, 1, 0), Vec4(0, 0, 0, 1)]
    signs = [minkowski_dot(e, e) for e in basis]
    assert signs == [-1.0, 1.0, 1.0, 1.0]
    for i in range(4):
        for j in range(i + 1, 4):
            assert minkowski_dot(basis[i], basis[j]) == 0.0


@given(vec4s)
def test_causal_partition(v):
    # exactly one of the three characters, and the zero vector is spacelike
    ch = causal_character(v)
    assert ch in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE,
                  CausalCharacter.NULL)
    if v == (0.0, 0.0, 0.0, 0.0):
        assert ch is CausalCharacter.SPACELIKE


def test_causal_examples():
    assert causal_character(Vec4(0, 3, 4, 0)) is CausalCharacter.SPACELIKE
    assert causal_character(Vec4(5, 3, 0, 0)) is CausalCharacter.TIMELIKE
    assert causal_character(Vec4(5, 3, 4, 0)) is CausalCharacter.NULL
    assert causal_character(Vec4(0, 0, 0, 0)) is CausalCharacter.SPACELIKE


def test_causal_character_at_the_ends_of_the_float_range():
    # squared as given, 1e-170 underflows to 0 and 1e160 overflows to inf,
    # which read as null
    assert causal_character((0.0, 1e-170, 0.0, 0.0)) is \
        CausalCharacter.SPACELIKE
    assert causal_character((1e160, 0.0, 0.0, 0.0)) is \
        CausalCharacter.TIMELIKE
    assert causal_character((5e-324, 0.0, 0.0, 0.0)) is \
        CausalCharacter.TIMELIKE
    assert causal_character((1e308, 1e308, 0.0, 0.0)) is CausalCharacter.NULL
    assert causal_character((-0.0, 0.0, -0.0, 0.0)) is \
        CausalCharacter.SPACELIKE


def test_causal_tolerance_band_is_relative():
    # a vector that is null up to roundoff classifies as null, not spacelike
    v = Vec4(1e8, 1e8 * (1 + 1e-14), 0.0, 0.0)
    assert causal_character(v) is CausalCharacter.NULL
    # a relative gap of 1e-9, far above roundoff, is spacelike
    assert causal_character(Vec4(1.0, 1.0 + 1e-9, 0.0, 0.0)) is \
        CausalCharacter.SPACELIKE


def test_vec4_rejects_nonfinite():
    with pytest.raises(ValueError):
        Vec4(float("nan"), 0, 0, 0)
    with pytest.raises(ValueError):
        Vec4(0, float("inf"), 0, 0)


def test_vector_ops():
    u = Vec4(1, 2, 3, 4)
    v = Vec4(4, 3, 2, 1)
    assert (u + v).components == (5, 5, 5, 5)
    assert (u - v).components == (-3, -1, 1, 3)
    assert (2.0 * u).components == (2, 4, 6, 8)
    assert (-u).components == (-1, -2, -3, -4)


def test_vec4_contract():
    # a tuple of floats whose +, -, scalar * and unary - act on vectors
    v = Vec4(1.0, 2.0, 3.0, 4.0)
    w = Vec4(0.5, -1.0, 2.0, 0.0)
    assert isinstance(v, tuple) and tuple(v) == (1.0, 2.0, 3.0, 4.0)
    # numpy defers to Vec4 instead of broadcasting it into an array
    for got in (np.float64(2) * v, v * np.float64(2), 2.0 * v):
        assert type(got) is Vec4 and got == (2.0, 4.0, 6.0, 8.0)
        assert all(type(x) is float for x in got)
    assert type(v + w) is Vec4 and v + w == (1.5, 1.0, 5.0, 4.0)
    assert type(v - w) is Vec4 and v - w == (0.5, 3.0, 1.0, 4.0)
    assert type(-v) is Vec4 and -v == (-1.0, -2.0, -3.0, -4.0)
    for k in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            xs = [0.0] * 4
            xs[k] = bad
            with pytest.raises(ValueError):
                Vec4(*xs)
    with pytest.raises(ValueError):         # a product that overflows
        Vec4(1e308, 0.0, 0.0, 0.0) * 10.0
    with pytest.raises(AttributeError):     # no instance dict
        v.x0 = 5.0
    for back in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(back) is Vec4 and back == v
