"""Truncated exponential generating functions over exact polynomials.

A series of order M stores polynomial coefficients c_0..c_M in the
t**m/m! basis; products discard everything past the truncation order.
Multiplication is the binomial convolution

    (f * g)_m = sum_j C(m, j) f_j g_{m-j},

computed by :func:`polynomial.egf_coeff`.  Reciprocals, quotients, and
exponentials solve the same convolution for one coefficient at a time
(b' = a'b for the exponential), all over exact rationals.

The builders return the distribution generating functions for the five
rise statistics, truncated at a whole number of shrubs (order 3N in t):
the plain-ascent series from its product formula, the four pairwise
statistics from their chain counts, the minimal-ascent specialization,
and literal closed forms for the three statistics that have one.  The
closed-form and fraction-form builders divide by a series whose leading
polynomial is 1 - x, exercising exact polynomial division; they provide
an independent route that must agree with the reciprocal-based builders
coefficient by coefficient.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable

from .counts import iaf, ibf, ilf, itf, within_rise_poly
from .forests import RiseKind
from .polynomial import Scalar, XPoly, _coerce, egf_coeff

#: Default truncation in shrub units (t**18), the deepest order anything
#: in the package needs by default.
DEFAULT_SHRUBS = 6

#: CLI name of the minimal-ascent counting series.
MIN_RISE = "minris"

GF_STATS = tuple(kind.value for kind in RiseKind) + (MIN_RISE,)


class EgfSeries:
    """Truncated series sum c_m t**m/m! with XPoly coefficients."""

    __slots__ = ("_order", "_coeffs")

    def __init__(
        self,
        order: int,
        terms: "Mapping[int, XPoly | Scalar] | Iterable[XPoly | Scalar]" = (),
    ):
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = [XPoly.zero()] * (order + 1)
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = enumerate(terms)
        for m, value in items:
            if not 0 <= m <= order:
                raise ValueError(f"term t^{m} out of range for order {order}")
            coeffs[m] = _coerce(value)
        self._order = order
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, order: int) -> "EgfSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "EgfSeries":
        return cls(order, {0: 1})

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coeff(self, m: int) -> XPoly:
        if not 0 <= m <= self._order:
            raise ValueError(f"t^{m} exceeds truncation order {self._order}")
        return self._coeffs[m]

    def _check_order(self, other: "EgfSeries") -> None:
        if self._order != other._order:
            raise ValueError(
                f"truncation orders differ: {self._order} != {other._order}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __add__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return EgfSeries(
            self._order, [a + b for a, b in zip(self._coeffs, other._coeffs)]
        )

    def __sub__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return EgfSeries(
            self._order, [a - b for a, b in zip(self._coeffs, other._coeffs)]
        )

    def __mul__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        a, b = self._coeffs, other._coeffs
        return EgfSeries(
            self._order, [egf_coeff(a, b, m) for m in range(self._order + 1)]
        )

    def reciprocal(self) -> "EgfSeries":
        """Series b with self * b = 1 through the truncation order."""
        if self._coeffs[0] != XPoly.one():
            raise ValueError("reciprocal needs constant term exactly 1")
        a = self._coeffs
        b = [XPoly.one()]
        for m in range(1, self._order + 1):
            b.append(-egf_coeff(a, b, m, 1))
        return EgfSeries(self._order, b)

    def divexact(self, denominator: "EgfSeries") -> "EgfSeries":
        """Quotient q with denominator * q = self, dividing polynomials exactly.

        Unlike :meth:`reciprocal` this tolerates any nonzero leading
        polynomial, at the price of requiring every step's polynomial
        division to be exact (ArithmeticError otherwise).
        """
        self._check_order(denominator)
        d = denominator._coeffs
        if not d[0]:
            raise ZeroDivisionError("denominator has zero constant coefficient")
        c = self._coeffs
        q: list[XPoly] = []
        for m in range(self._order + 1):
            q.append((c[m] - egf_coeff(d, q, m, 1)).divexact(d[0]))
        return EgfSeries(self._order, q)

    def exp(self) -> "EgfSeries":
        """Exponential of a series with zero constant term."""
        if self._coeffs[0]:
            raise ValueError("exp needs zero constant term")
        da = self._coeffs[1:]  # a'_m = a_{m+1} in the t**m/m! basis
        b = [XPoly.one()]
        for m in range(self._order):  # b' = a' b
            b.append(egf_coeff(da, b, m))
        return EgfSeries(self._order, b)

    def __repr__(self) -> str:
        head = ", ".join(f"t^{m}: {c}" for m, c in enumerate(self._coeffs) if c)
        return f"EgfSeries(order={self._order}, {{{head or '0'}}})"


@dataclass(frozen=True)
class StatGF:
    """A statistic name plus its truncated generating function.

    Coefficients live at t**(3n) only; :meth:`coeff` extracts the
    polynomial for n shrubs and insists on integer coefficients, since a
    fractional value can only mean an arithmetic bug upstream.
    """

    stat: str
    series: EgfSeries

    @property
    def shrubs(self) -> int:
        return self.series.order // 3

    def coeff(self, n: int) -> XPoly:
        if not 0 <= 3 * n <= self.series.order:
            raise ValueError(
                f"n={n} exceeds truncation ({self.shrubs} shrubs); "
                "rebuild with a larger order"
            )
        poly = self.series.coeff(3 * n)
        poly.int_coeffs()  # ArithmeticError on fractional values
        return poly


_X_MINUS_ONE = XPoly((-1, 1))
_ONE_MINUS_X = XPoly((1, -1))


_CHAIN_COUNTS = {
    RiseKind.TOTAL: itf,
    RiseKind.BASE: ibf,
    RiseKind.LEX: ilf,
    RiseKind.ADJACENT: iaf,
}


def rise_gf(kind: RiseKind | str, shrubs: int = DEFAULT_SHRUBS) -> StatGF:
    """Distribution generating function of one rise statistic.

    For the word statistic the denominator term at t**(3n) is
    -x**n (x-1)**(n-1) prod_{k=1..n}(x+3k-2); for a pairwise statistic
    it is -(x-1)**(n-1) times the matching chain count.  Either way the
    result is the reciprocal of a unit-constant-term series, so every
    coefficient stays polynomial.
    """
    kind = RiseKind(kind)
    if shrubs < 1:
        raise ValueError("shrubs must be >= 1")
    order = 3 * shrubs
    terms: dict[int, XPoly] = {0: XPoly.one()}
    for n in range(1, shrubs + 1):
        if kind is RiseKind.WORD:
            term = _X_MINUS_ONE ** (n - 1) * within_rise_poly(n)
        else:
            term = _CHAIN_COUNTS[kind](n) * _X_MINUS_ONE ** (n - 1)
        terms[3 * n] = -term
    return StatGF(kind.value, EgfSeries(order, terms).reciprocal())


def min_rise_gf(shrubs: int = DEFAULT_SHRUBS) -> StatGF:
    """Counting series of forests whose word attains the minimal ascent
    number n; the coefficient at t**(3n) is that count (a constant)."""
    if shrubs < 1:
        raise ValueError("shrubs must be >= 1")
    order = 3 * shrubs
    terms: dict[int, XPoly] = {0: XPoly.one()}
    product = 1
    for n in range(1, shrubs + 1):
        product *= 3 * n - 2
        terms[3 * n] = XPoly.constant((-1) ** n * product)
    return StatGF(MIN_RISE, EgfSeries(order, terms).reciprocal())


def rise_gf_via_fraction(shrubs: int = DEFAULT_SHRUBS) -> StatGF:
    """The word-statistic series in its (1-x)-numerator form.

    Numerator 1-x, denominator 1-x + sum_n (x(x-1)t^3)^n/(3n)! *
    prod(x+3k-2); evaluated by exact series division.  Must agree with
    ``rise_gf("ris")`` coefficientwise.
    """
    if shrubs < 1:
        raise ValueError("shrubs must be >= 1")
    order = 3 * shrubs
    terms: dict[int, XPoly] = {0: _ONE_MINUS_X}
    for n in range(1, shrubs + 1):
        terms[3 * n] = _X_MINUS_ONE**n * within_rise_poly(n)
    numerator = EgfSeries(order, {0: _ONE_MINUS_X})
    return StatGF(RiseKind.WORD.value, numerator.divexact(EgfSeries(order, terms)))


def closed_form_gf(kind: RiseKind | str, shrubs: int = DEFAULT_SHRUBS) -> StatGF:
    """Literal closed forms for the total, base, and lexicographic series.

    Each is (1-x) divided by a denominator built without consulting the
    chain-count sequence: geometric-style sums in (x-1)t^3 for the total
    and lexicographic cases, and -x + exp((x-1)t^3/3) for the base case.
    No closed form exists for the adjacent statistic.
    """
    kind = RiseKind(kind)
    if kind not in (RiseKind.TOTAL, RiseKind.BASE, RiseKind.LEX):
        raise ValueError(f"no closed form for {kind.value!r}")
    if shrubs < 1:
        raise ValueError("shrubs must be >= 1")
    order = 3 * shrubs
    if kind is RiseKind.BASE:
        # exp((x-1)t^3/3): the t^3/3! coefficient of the exponent is 2(x-1)
        denominator = EgfSeries(order, {3: 2 * _X_MINUS_ONE}).exp() - EgfSeries(
            order, {0: XPoly.x()}
        )
    else:
        terms: dict[int, XPoly] = {0: _ONE_MINUS_X}
        for n in range(1, shrubs + 1):
            if kind is RiseKind.TOTAL:
                # (2(x-1)t^3)^n / (3n)!
                terms[3 * n] = (2 * _X_MINUS_ONE) ** n
            else:
                # (4(x-1)t^3)^n / ((n+1)!(2n+1)!)
                scale = Fraction(
                    factorial(3 * n), factorial(n + 1) * factorial(2 * n + 1)
                )
                terms[3 * n] = (4 * _X_MINUS_ONE) ** n * scale
        denominator = EgfSeries(order, terms)
    numerator = EgfSeries(order, {0: _ONE_MINUS_X})
    return StatGF(kind.value, numerator.divexact(denominator))


def build_gf(stat: str, shrubs: int = DEFAULT_SHRUBS) -> StatGF:
    """Dispatch on a CLI statistic name, including the minimal-ascent one."""
    if stat == MIN_RISE:
        return min_rise_gf(shrubs)
    return rise_gf(stat, shrubs)
