"""The analytic curve catalog and jet evaluation of curves.

Curves are named closed forms with parameters, not a parsed expression
language.  Each catalog entry is written once, as ``build(t, params, n)``:
the four coordinate series truncated to n coefficients, from the
operations ``jets.SERIES[n]`` holds for that length.  ``eval_curve`` takes
n = 5, so every derivative up to order 4 is exact up to roundoff; ``point``
and ``speed`` take n = 2, a position and a velocity at the cost of two
terms.

Constructed curves (Theorem-style products of a radius function with a
spherical curve) are registered at runtime under generated ids and
addressed exactly like static catalog entries.

The series stay in the curve's own parameter t: ``frenet`` reads the
derivatives off them and takes the frame to arclength by powers of 1/v,
with v the speed, so no curve is reparameterized to get its frame.
"""
from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from . import jets
from .errors import (DivisionNearZero, NonSpacelikeVelocity, OutOfDomain,
                     PoleEncountered, SqrtNonPositive)

__all__ = [
    "CurveSpec",
    "eval_curve",
    "point",
    "speed",
    "register_curve",
    "catalog_ids",
    "make_spec",
]

DOMAIN_SLACK = 1e-9
POLE_GUARD = 1e-6


def _is_number(v) -> bool:
    """A finite int or float; True and False are not numbers here."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _check_domain(domain: tuple[float, float]) -> None:
    lo, hi = domain
    if not (_is_number(lo) and _is_number(hi) and lo < hi):
        raise OutOfDomain(f"domain must be a nonempty interval, got {domain}")


class _CurveSpecFields(NamedTuple):
    catalog_id: str
    params: Mapping[str, float]
    domain: tuple[float, float]


class CurveSpec(_CurveSpecFields):
    """A named curve with parameter values and a closed domain interval.

    Construction checks the domain and the parameters and fills in the
    catalog defaults of the parameters not given.
    """

    __slots__ = ()

    def __new__(cls, catalog_id: str, params: Mapping[str, float],
                domain: tuple[float, float]):
        _check_domain(domain)
        entry = _lookup(catalog_id)
        _check_names(catalog_id, params, entry.default_params)
        merged = {**entry.default_params, **params}
        for name, value in merged.items():
            if not _is_number(value):
                raise ValueError(f"parameter {name} must be a finite number, "
                                 f"got {value!r}")
        entry.validate(merged, domain)
        return super().__new__(cls, catalog_id, merged, domain)

    def contains(self, t: float) -> bool:
        lo, hi = self.domain
        span = hi - lo
        return lo - DOMAIN_SLACK * span <= t <= hi + DOMAIN_SLACK * span


def _check_names(owner: str, params, accepted) -> None:
    """Reject a name in ``params`` that ``accepted`` does not list."""
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"{owner} has no parameter {', '.join(unknown)} "
                         f"(accepted: {', '.join(accepted) or 'none'})")


# (s_between(params, lo, t), t_from(params, lo, s)), the exact arclength of
# a catalog entry
ArclengthPair = tuple[Callable[[Mapping[str, float], float, float], float],
                      Callable[[Mapping[str, float], float, float], float]]


class CatalogEntry(NamedTuple):
    """How to build a curve's coordinate series, with its defaults.

    ``build(t, params, n)`` returns the four coordinate series at the
    float ``t``, each a tuple of its first n Taylor coefficients, n being
    2 or 5; coefficients 0 and 1 do not depend on n.

    ``arclength``, when given, is the exact arclength as a pair of
    functions ``(s_between, t_from)``: ``s_between(params, lo, t)`` is the
    arclength from ``lo`` to ``t`` and ``t_from(params, lo, s)`` its
    inverse in ``t``.  They take the curve's parameters, as ``build`` does,
    and the domain's low end, because an entry does not depend on the
    domain.  ``frenet.arclength_map`` uses the pair in place of quadrature
    and Newton inversion; ``None`` selects those.
    """

    build: Callable[[float, Mapping[str, float], int], tuple]
    default_params: Mapping[str, float] = MappingProxyType({})
    default_domain: tuple[float, float] = (0.0, 1.0)
    # raises on invalid parameter values / domains (poles inside the range)
    validate: Callable[[Mapping[str, float], tuple[float, float]], None] = \
        lambda params, domain: None
    arclength: ArclengthPair | None = None


# -- static catalog -----------------------------------------------------------

def _variable(t: float, n: int) -> tuple[float, ...]:
    """The series of the identity at ``t``, to n coefficients."""
    return (t, 1.0, 0.0, 0.0, 0.0)[:n]


def _paper_example(t: float, p, n: int) -> tuple:
    ops = jets.SERIES[n]
    sh, ch = ops.sinhcosh(_variable(t, n))
    sn, _ = ops.sincos(_variable(t + p["s0"], n))
    rho = ops.div((float(p["a"]), 0.0, 0.0, 0.0, 0.0)[:n], sn)
    zero = (0.0,) * n
    return (ops.mul(rho, ch), zero, ops.mul(rho, sh), zero)


def _paper_example_validate(p, domain):
    if p["a"] == 0.0:
        raise ValueError("paper_example requires a != 0")
    _require_no_sin_zero(domain, p["s0"])


def _require_no_sin_zero(domain, shift):
    """Reject a domain containing (or grazing) a zero of sin(t + shift)."""
    lo, hi = domain[0] + shift, domain[1] + shift
    if hi - lo >= math.pi:
        raise PoleEncountered("domain spans a full period of the pole lattice")
    k_lo = math.ceil(lo / math.pi - POLE_GUARD)
    k_hi = math.floor(hi / math.pi + POLE_GUARD)
    if k_lo <= k_hi:
        raise PoleEncountered(
            f"sin(t + {shift}) vanishes inside the requested domain")


def _hyperbolic_geodesic(t: float, p, n: int) -> tuple:
    sh, ch = jets.SERIES[n].sinhcosh(_variable(t, n))
    zero = (0.0,) * n
    return (ch, zero, sh, zero)


def _hyperbolic_clelia(t: float, p, n: int) -> tuple:
    ops = jets.SERIES[n]
    x = _variable(t, n)
    sh, ch = ops.sinhcosh(x)
    sn, cn = ops.sincos(x)
    q = ops.mul(sh, sn)
    return (ch, ops.mul(sh, cn), ops.mul(q, cn), ops.mul(q, sn))


def _lorentz_helix(t: float, p, n: int) -> tuple:
    ops = jets.SERIES[n]
    x = _variable(t, n)
    sh, ch = ops.sinhcosh(ops.scale(x, p["p"]))
    sn, cn = ops.sincos(ops.scale(x, p["q"]))
    a, b = p["A"], p["B"]
    return (ops.scale(sh, a), ops.scale(ch, a), ops.scale(cn, b),
            ops.scale(sn, b))


def _lorentz_helix_speed(p) -> float:
    """The helix's constant speed sqrt((Bq)^2 - (Ap)^2).

    The difference of squares is taken as (|Bq| - |Ap|)(|Bq| + |Ap|), which
    does not cancel.  Raises NonSpacelikeVelocity unless it is positive and
    finite: a timelike or null helix, or one whose speed floating point
    cannot hold.
    """
    bq, ap = abs(p["B"] * p["q"]), abs(p["A"] * p["p"])
    g = (bq - ap) * (bq + ap)
    if not 0.0 < g < math.inf:
        raise NonSpacelikeVelocity(
            f"g(alpha', alpha') = (Bq)^2 - (Ap)^2 = {g} on lorentz_helix")
    return math.sqrt(g)


def _constant_speed_arclength(speed: Callable[[Mapping[str, float]], float]
                              ) -> ArclengthPair:
    """(s_between, t_from) of a curve whose speed ``speed(params)`` does
    not depend on t: s = v (t - lo) and t = lo + s / v."""

    def s_between(params, lo: float, t: float) -> float:
        return speed(params) * (t - lo)

    def t_from(params, lo: float, s: float) -> float:
        return lo + s / speed(params)

    return s_between, t_from


_CATALOG: dict[str, CatalogEntry] = {
    "paper_example": CatalogEntry(
        build=_paper_example,
        default_params={"a": 1.0, "s0": 0.0},
        default_domain=(0.9, 2.2),
        validate=_paper_example_validate,
    ),
    "hyperbolic_geodesic": CatalogEntry(
        build=_hyperbolic_geodesic,
        default_domain=(0.0, 2.0),
        arclength=_constant_speed_arclength(lambda p: 1.0),
    ),
    "hyperbolic_clelia": CatalogEntry(
        build=_hyperbolic_clelia,
        default_domain=(0.25, 2.4),
    ),
    "lorentz_helix": CatalogEntry(
        build=_lorentz_helix,
        default_params={"A": 1.0, "p": 1.0, "B": math.sqrt(2.0), "q": 1.0},
        default_domain=(0.0, 3.0),
        arclength=_constant_speed_arclength(_lorentz_helix_speed),
    ),
}

_RUNTIME: dict[str, CatalogEntry] = {}
_counter = itertools.count(1)


def _lookup(catalog_id: str) -> CatalogEntry:
    try:
        return _CATALOG[catalog_id]
    except KeyError:
        pass
    try:
        return _RUNTIME[catalog_id]
    except KeyError:
        raise KeyError(f"unknown curve id {catalog_id!r}") from None


def catalog_ids() -> list[str]:
    return list(_CATALOG) + list(_RUNTIME)


def register_curve(entry: CatalogEntry) -> str:
    """Register a runtime-built curve; returns its generated id."""
    cid = f"generic_rectifying:{next(_counter):04d}"
    _RUNTIME[cid] = entry
    return cid


def make_spec(catalog_id: str, params: Mapping[str, float] | None = None,
              domain: tuple[float, float] | None = None) -> CurveSpec:
    """Spec with catalog defaults filled in for omitted params/domain."""
    entry = _lookup(catalog_id)
    return CurveSpec(catalog_id, dict(params or {}),
                     tuple(domain) if domain else tuple(entry.default_domain))


_POLES = (DivisionNearZero, SqrtNonPositive, OverflowError)


def _pole(spec: CurveSpec, t: float, exc: Exception) -> PoleEncountered:
    what = ("overflows floating point" if isinstance(exc, OverflowError)
            else "hit a pole")
    return PoleEncountered(f"{spec.catalog_id} {what} at t={t}: {exc}")


def _series(spec: CurveSpec, t: float, n: int) -> tuple:
    if not spec.contains(t):
        raise OutOfDomain(f"t={t} outside domain {spec.domain} of {spec.catalog_id}")
    entry = _lookup(spec.catalog_id)
    try:
        return entry.build(float(t), spec.params, n)
    except _POLES as exc:
        raise _pole(spec, t, exc) from exc


def eval_curve(spec: CurveSpec, t: float) -> tuple:
    """The four coordinate series of the curve at ``t``, exact to order 4:
    tuples (c0, ..., c4) with c_k the k-th derivative over k!."""
    return _series(spec, t, 5)


def point(spec: CurveSpec, t: float) -> tuple[tuple, tuple]:
    """Position and velocity of the curve at ``t``, two 4-tuples of floats:
    coefficients 0 and 1 of ``eval_curve(spec, t)``, bit for bit, with its
    errors."""
    (x0, v0), (x1, v1), (x2, v2), (x3, v3) = _series(spec, t, 2)
    return (x0, x1, x2, x3), (v0, v1, v2, v3)


def _speed_jet(spec: CurveSpec, t: float, cj) -> tuple:
    """Coefficients of the speed ||alpha'(t)|| from the coordinate series
    ``cj`` at ``t``, valid to order 3; requires a spacelike velocity."""
    # the jets' -d0 * d0 + d1 * d1 + ... on tuples, d0 negated first
    d = [(x1, 2.0 * x2, 3.0 * x3, 4.0 * x4, 0.0)
         for _, x1, x2, x3, x4 in cj]
    p = [jets._cauchy([-x for x in d[0]], d[0]),
         *[jets._cauchy(x, x) for x in d[1:]]]
    g = [((p0 + p1) + p2) + p3 for p0, p1, p2, p3 in zip(*p)]
    if not g[0] > 0.0:
        raise NonSpacelikeVelocity(
            f"g(alpha', alpha') = {g[0]} at t={t} on {spec.catalog_id}")
    return jets._sqrt(g)


def speed(spec: CurveSpec, t: float) -> float:
    """||alpha'(t)||; requires a spacelike velocity.

    Bit for bit ``_speed_jet(spec, t, eval_curve(spec, t))[0]``: the same
    products and sums, on coefficient 1 of the length-2 series.
    """
    (_, v0), (_, v1), (_, v2), (_, v3) = _series(spec, t, 2)
    g = -v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3
    if not g > 0.0:
        raise NonSpacelikeVelocity(
            f"g(alpha', alpha') = {g} at t={t} on {spec.catalog_id}")
    return math.sqrt(g)
