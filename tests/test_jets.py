"""Order-4 truncated Taylor arithmetic against hand-computed series."""

import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from curvelab import jets
from curvelab.errors import DivisionNearZero, SqrtNonPositive
from curvelab.jets import Jet

EPS = 2.220446049250313e-16

points = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def jet_close(a: Jet, b: Jet, n=8):
    for x, y in zip(a.coeffs, b.coeffs):
        scale = max(abs(x), abs(y), 1.0)
        if abs(x - y) > n * EPS * scale:
            return False
    return True


def test_variable_and_constant():
    t = jets.variable(1.5)
    assert t.coeffs == (1.5, 1.0, 0.0, 0.0, 0.0)
    c = jets.constant(3.0)
    assert c.coeffs == (3.0, 0.0, 0.0, 0.0, 0.0)


def test_square_of_variable():
    t = jets.variable(3.0)
    sq = t * t
    # (t_0 + h)^2 = 9 + 6h + h^2
    assert sq.coeffs == (9.0, 6.0, 1.0, 0.0, 0.0)
    assert sq.derivative(1) == 6.0
    assert sq.derivative(2) == 2.0
    assert sq.derivative(3) == 0.0


def test_sin_cos_maclaurin():
    s, c = jets.sincos(jets.variable(0.0))
    assert jet_close(s, Jet((0.0, 1.0, 0.0, -1.0 / 6.0, 0.0)))
    assert jet_close(c, Jet((1.0, 0.0, -0.5, 0.0, 1.0 / 24.0)))


def test_sinh_cosh_derivative_chain():
    # d() loses the top order, so compare coefficients 0..3 only
    sh, ch = jets.sinhcosh(jets.variable(0.4))
    assert sh.d().coeffs[:4] == ch.coeffs[:4]
    assert ch.d().coeffs[:4] == sh.coeffs[:4]


def test_division_reciprocal():
    t = jets.variable(2.0)
    r = jets.constant(1.0) / t
    # d^k (1/t) = (-1)^k k! / t^(k+1)
    for k in range(5):
        want = (-1.0) ** k * math.factorial(k) / 2.0 ** (k + 1)
        assert math.isclose(r.derivative(k), want, rel_tol=8 * EPS)


def test_division_near_zero_raises():
    t = jets.variable(0.0)
    with pytest.raises(DivisionNearZero):
        jets.constant(1.0) / t


def test_sqrt_of_square():
    t = jets.variable(1.3)
    assert jet_close(jets.sqrt(t * t), t)
    with pytest.raises(SqrtNonPositive):
        jets.sqrt(jets.variable(0.0))
    with pytest.raises(SqrtNonPositive):
        jets.sqrt(jets.constant(-4.0))


@given(points)
def test_compose_chain_rule(t0):
    # f(g(t)) with f = cosh, g = sin: compare against the analytic derivatives
    g = jets.sincos(jets.variable(t0))[0]
    f = jets.sinhcosh(jets.variable(g.value))[1]
    h = jets.compose(f, g)
    s, c = math.sin(t0), math.cos(t0)
    sh, ch = math.sinh(s), math.cosh(s)
    want = (ch,
            sh * c,
            ch * c * c - sh * s,
            sh * c ** 3 - 3 * ch * s * c - sh * c,
            ch * (c ** 4 - 4 * c * c + 3 * s * s) - 6 * sh * s * c * c
            + sh * s)
    for k in range(5):
        assert abs(h.derivative(k) - want[k]) <= 64 * EPS * max(
            1.0, abs(want[k]))


@given(st.floats(min_value=0.3, max_value=2.0))
def test_reversion_round_trip(t0):
    # s(t) = sinh(t) is invertible; composing s with its reversion about t0
    # must reproduce the identity jet at s0 = sinh(t0)
    s_jet = jets.sinhcosh(jets.variable(t0))[0]
    t_jet = jets.reverse(s_jet, at=t0)
    ident = jets.compose(s_jet, t_jet)
    assert jet_close(ident, jets.variable(s_jet.value), n=64)


def test_reversion_known_coefficients():
    # reversion of s = 2h + h^2 (about 0): t = s/2 - s^2/8 + s^3/16 - ...
    s_jet = Jet((0.0, 2.0, 1.0, 0.0, 0.0))
    t_jet = jets.reverse(s_jet, at=0.0)
    assert jet_close(t_jet, Jet((0.0, 0.5, -0.125, 1.0 / 16.0, -5.0 / 128.0)))


def test_value_accessor_and_arithmetic():
    a = jets.variable(2.0)
    b = 3.0 * a - 1.0
    assert b.value == 5.0
    assert b.derivative(1) == 3.0
    assert (a - a).coeffs == (0.0,) * 5
    assert (-a).value == -2.0


# -- bit-exact agreement with the loop formulas -------------------------------
#
# The reference below is the jet kernel as loops over coefficient indices.
# ``_lsum`` is ``sum()`` as it runs on Python 3.11 and older: left to right
# from 0.0, with no compensation.  The kernel must reproduce every bit of
# it, sign of zero included, so results do not depend on the Python version.

def _lsum(terms):
    acc = 0.0
    for x in terms:
        acc = acc + x
    return acc


def ref_mul(a, b):
    return tuple(_lsum(a[i] * b[k - i] for i in range(k + 1))
                 for k in range(5))


def ref_scale(a, x):
    return tuple(c * x for c in a)


def ref_add(a, b):
    return tuple(a[i] + b[i] for i in range(5))


def ref_sub(a, b):
    return tuple(a[i] - b[i] for i in range(5))


def ref_neg(a):
    return tuple(-c for c in a)


def ref_d(a):
    return (a[1], 2.0 * a[2], 3.0 * a[3], 4.0 * a[4], 0.0)


def ref_div(a, b):
    q = [0.0] * 5
    for k in range(5):
        acc = a[k]
        for j in range(k):
            acc -= q[j] * b[k - j]
        q[k] = acc / b[0]
    return tuple(q)


def ref_sqrt(a):
    r = [0.0] * 5
    r[0] = math.sqrt(a[0])
    for k in range(1, 5):
        acc = a[k]
        for i in range(1, k):
            acc -= r[i] * r[k - i]
        r[k] = acc / (2.0 * r[0])
    return tuple(r)


def ref_sincos(a, hyperbolic=False):
    s = [0.0] * 5
    c = [0.0] * 5
    s[0] = (math.sinh if hyperbolic else math.sin)(a[0])
    c[0] = (math.cosh if hyperbolic else math.cos)(a[0])
    for k in range(1, 5):
        s[k] = _lsum(i * a[i] * c[k - i] for i in range(1, k + 1)) / k
        dc = _lsum(i * a[i] * s[k - i] for i in range(1, k + 1))
        c[k] = (dc if hyperbolic else -dc) / k
    return tuple(s), tuple(c)


def ref_compose(outer, inner):
    delta = (inner[0] - inner[0],) + tuple(inner[1:])
    out = (float(outer[4]), 0.0, 0.0, 0.0, 0.0)
    for k in range(3, -1, -1):
        p = ref_mul(out, delta)
        out = (p[0] + outer[k],) + p[1:]
    return out


def ref_reverse(b, at):
    _, b1, b2, b3, b4 = b
    return (float(at), 1.0 / b1, -b2 / b1 ** 3,
            (2.0 * b2 * b2 - b1 * b3) / b1 ** 5,
            (5.0 * b1 * b2 * b3 - b1 * b1 * b4 - 5.0 * b2 ** 3) / b1 ** 7)


# Coefficients that make the sign of zero matter (signed zeros, and values
# whose products underflow to a signed zero), short values, and values with
# a full 53-bit significand, whose sums round differently when reordered.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200]
coeff = st.one_of(st.sampled_from(_SPECIAL),
                  st.floats(min_value=-4.0, max_value=4.0),
                  st.integers(-2 ** 53, 2 ** 53).map(lambda k: k / 2.0 ** 51))
coeffs = st.tuples(coeff, coeff, coeff, coeff, coeff)
# and infinities and NaN, which turn the products of zeros into NaNs: the
# arclength chain rule feeds compose and reverse whatever a curve gives
any_coeff = st.one_of(coeff, st.sampled_from([math.inf, -math.inf, math.nan]))
any_coeffs = st.tuples(any_coeff, any_coeff, any_coeff, any_coeff, any_coeff)


def bits(x):
    """Exact image of a coefficient tuple; repr tells -0.0 from 0.0."""
    return repr(tuple(float(c) for c in x))


@given(coeffs, coeffs)
def test_kernel_mul_add_sub_bit_exact(a, b):
    ja, jb = Jet(a), Jet(b)
    assert bits((ja * jb).coeffs) == bits(ref_mul(a, b))
    assert bits((ja + jb).coeffs) == bits(ref_add(a, b))
    assert bits((ja - jb).coeffs) == bits(ref_sub(a, b))


@given(coeffs, coeff)
def test_kernel_scalar_ops_bit_exact(a, x):
    ja = Jet(a)
    assert bits((ja * x).coeffs) == bits(ref_scale(a, x))
    assert bits((x * ja).coeffs) == bits(ref_scale(a, x))
    assert bits((ja + x).coeffs) == bits((a[0] + x,) + a[1:])
    assert bits((x + ja).coeffs) == bits((a[0] + x,) + a[1:])
    assert bits((ja - x).coeffs) == bits((a[0] - x,) + a[1:])
    assert bits((x - ja).coeffs) == bits((-a[0] + x,) + ref_neg(a)[1:])
    assert bits((-ja).coeffs) == bits(ref_neg(a))
    assert bits(ja.d().coeffs) == bits(ref_d(a))


@given(coeffs, coeffs)
def test_kernel_div_bit_exact(a, b):
    if abs(b[0]) <= jets.DIV_FLOOR:
        with pytest.raises(DivisionNearZero):
            Jet(a) / Jet(b)
        return
    assert bits((Jet(a) / Jet(b)).coeffs) == bits(ref_div(a, b))


@given(coeffs)
def test_kernel_sqrt_bit_exact(a):
    if a[0] <= 0.0:
        with pytest.raises(SqrtNonPositive):
            jets.sqrt(Jet(a))
        return
    assert bits(jets.sqrt(Jet(a)).coeffs) == bits(ref_sqrt(a))


@given(coeffs)
def test_kernel_transcendentals_bit_exact(a):
    ja = Jet(a)
    s, c = jets.sincos(ja)
    rs, rc = ref_sincos(a)
    assert (bits(s.coeffs), bits(c.coeffs)) == (bits(rs), bits(rc))
    sh, ch = jets.sinhcosh(ja)
    rsh, rch = ref_sincos(a, hyperbolic=True)
    assert (bits(sh.coeffs), bits(ch.coeffs)) == (bits(rsh), bits(rch))


@given(any_coeffs, any_coeffs, points)
def test_kernel_compose_reverse_bit_exact(a, b, at):
    assert bits(jets.compose(Jet(a), Jet(b)).coeffs) == bits(
        ref_compose(a, b))
    if abs(b[1]) <= jets.DIV_FLOOR:
        with pytest.raises(DivisionNearZero):
            jets.reverse(Jet(b), at=at)
        return
    try:
        want = ref_reverse(b, at)
    except ArithmeticError:          # powers of a tiny b1 under/overflow
        with pytest.raises(DivisionNearZero):
            jets.reverse(Jet(b), at=at)
        return
    assert bits(jets.reverse(Jet(b), at=at).coeffs) == bits(want)


def _head(out):
    """Coefficients 0 and 1 of a series, or of each series of a pair."""
    return tuple(c[:2] for c in out) if isinstance(out[0], tuple) else out[:2]


def _series_outcome(fn, *args):
    """repr of ``fn(*args)``, or the type and message of its error."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@given(any_coeffs, any_coeffs, any_coeff)
def test_length_two_series_are_coefficients_0_and_1(a, b, x):
    # a curve's position and velocity come from the length-2 helpers: the
    # length-5 helpers' first two coefficients, bit for bit, errors included
    two, five = jets.SERIES[2], jets.SERIES[5]
    for name, args in (("mul", (a, b)), ("div", (a, b)), ("scale", (a, x)),
                       ("sinhcosh", (a,)), ("sincos", (a,))):
        short = [c[:2] if isinstance(c, tuple) else c for c in args]
        whole = lambda *p: _head(getattr(five, name)(*p))
        assert (_series_outcome(getattr(two, name), *short)
                == _series_outcome(whole, *args)), name


# -- the value-type contract --------------------------------------------------

def test_jet_is_immutable():
    j = jets.variable(0.5)
    with pytest.raises(AttributeError):
        j.coeffs = (0.0,) * 5
    with pytest.raises(AttributeError):
        j.extra = 1.0
    with pytest.raises(AttributeError):
        del j.coeffs
    assert j.coeffs == (0.5, 1.0, 0.0, 0.0, 0.0)


def test_jet_equality_and_hash_go_by_coeffs():
    a = Jet((1.0, 2.0, 0.0, 0.0, 0.0))
    b = Jet((1.0, 2.0, 0.0, 0.0, 0.0))
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Jet((1.0, 2.0, 0.0, 0.0, 1.0))
    assert a != (1.0, 2.0, 0.0, 0.0, 0.0)
    assert copy.copy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("n", [0, 4, 6])
def test_jet_rejects_wrong_coefficient_count(n):
    with pytest.raises(ValueError):
        Jet((1.0,) * n)


def test_post_init_runs_once_per_jet_and_mul_is_patchable(monkeypatch):
    # the benchmark's tracer counts jets built through __post_init__ and
    # products through the __mul__/__rmul__ class attributes
    built = []
    muls = []
    post_init, mul = Jet.__post_init__, Jet.__mul__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_mul(self, other):
        muls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__post_init__", counting_post_init)
    monkeypatch.setattr(Jet, "__mul__", counting_mul)
    monkeypatch.setattr(Jet, "__rmul__", counting_mul)
    a, b = jets.variable(0.3), jets.variable(0.7)
    product, scaled = a * b, 2.0 * a
    assert muls == [b, 2.0]
    results = [product, scaled, a + b, a.d(), jets.sqrt(b),
               *jets.sincos(a), jets.compose(a, b)]
    for r in results:
        assert sum(x is r for x in built) == 1
