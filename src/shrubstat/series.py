"""Truncated exponential generating functions over exact polynomials.

A series of order M stores polynomial coefficients c_0..c_M in the
t**m/m! basis; products discard everything past the truncation order.
Multiplication is the binomial convolution

    (f * g)_m = sum_j C(m, j) f_j g_{m-j},

computed by :func:`polynomial.egf_coeff`.  Quotients and exponentials
solve the same convolution for one coefficient at a time (b' = a'b for
the exponential), all over big integers; a reciprocal is the
quotient of one by the series (:meth:`EgfSeries.divexact` of one).

The builders return the distribution generating functions for the five
rise statistics, truncated at a whole number of shrubs (order 3N in t):
the plain-ascent series from its product formula, the four pairwise
statistics from their chain counts, the minimal-ascent specialization,
and literal closed forms for the three statistics that have one.
:func:`rise_gf` is the reciprocal of a unit-constant-term series, which
:mod:`shrubstat.interpolation` evaluates at integer points and
interpolates back exactly; the minimal-ascent series is a reciprocal by
:meth:`EgfSeries.reciprocal`.  The closed-form and fraction-form
builders divide XPoly series by a series whose leading polynomial is
1 - x, exercising exact polynomial division; they are routes independent
in formula and in arithmetic, and must agree with :func:`rise_gf`
coefficient by coefficient.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from math import factorial, prod
from typing import Iterable

from .counts import within_rise_poly
from .names import DEFAULT_SHRUBS, MIN_RISE, RiseKind, exact_quotient
from .polynomial import Scalar, XPoly, _coerce, egf_coeff
from .record import Record


class EgfSeries(Record):
    """Truncated series sum c_m t**m/m!: the order (an int) and the
    coefficients c_0..c_order (a tuple of XPoly).

    Built from the order and the nonzero terms, as a mapping m -> value
    or a sequence c_0, c_1, ...; each value is coerced to an XPoly and
    every unnamed coefficient is zero.
    """

    __slots__ = ("order", "coeffs")

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
        super().__init__(order, tuple(coeffs))

    @classmethod
    def zero(cls, order: int) -> "EgfSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "EgfSeries":
        return cls(order, {0: 1})

    def coeff(self, m: int) -> XPoly:
        if not 0 <= m <= self.order:
            raise ValueError(f"t^{m} exceeds truncation order {self.order}")
        return self.coeffs[m]

    def _check_order(self, other: "EgfSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} != {other.order}"
            )

    def __add__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return EgfSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return EgfSeries(
            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        return EgfSeries(
            self.order, [egf_coeff(a, b, m) for m in range(self.order + 1)]
        )

    def reciprocal(self) -> "EgfSeries":
        """Series b with self * b = 1 through the truncation order: the
        quotient of one by self.  The constant term must be 1, so every
        step divides by 1 and no coefficient turns fractional."""
        if self.coeffs[0] != XPoly.one():
            raise ValueError("reciprocal needs constant term exactly 1")
        return EgfSeries.one(self.order).divexact(self)

    def divexact(self, denominator: "EgfSeries") -> "EgfSeries":
        """Quotient q with denominator * q = self, dividing polynomials exactly.

        Any nonzero leading polynomial is allowed, at the price of
        requiring every step's quotient to be an integer polynomial
        (ArithmeticError otherwise, so dividing one by the constant 2
        raises); :meth:`reciprocal` is the case of a numerator of one and
        a leading polynomial of 1.
        """
        self._check_order(denominator)
        d = denominator.coeffs
        if not d[0]:
            raise ZeroDivisionError("denominator has zero constant coefficient")
        c = self.coeffs
        q: list[XPoly] = []
        for m in range(self.order + 1):
            q.append((c[m] - egf_coeff(d, q, m, 1)).divexact(d[0]))
        return EgfSeries(self.order, q)

    def exp(self) -> "EgfSeries":
        """Exponential of a series with zero constant term."""
        if self.coeffs[0]:
            raise ValueError("exp needs zero constant term")
        da = self.coeffs[1:]  # a'_m = a_{m+1} in the t**m/m! basis
        b = [XPoly.one()]
        for m in range(self.order):  # b' = a' b
            b.append(egf_coeff(da, b, m))
        return EgfSeries(self.order, b)

    def __repr__(self) -> str:
        head = ", ".join(f"t^{m}: {c}" for m, c in enumerate(self.coeffs) if c)
        return f"EgfSeries(order={self.order}, {{{head or '0'}}})"


class StatGF(Record):
    """A statistic name (str) plus its truncated generating function
    (an :class:`EgfSeries`).

    Coefficients live at t**(3n) only; :meth:`coeff` extracts the
    polynomial for n shrubs and insists on integer coefficients, since a
    fractional value can only mean an arithmetic bug upstream.
    """

    __slots__ = ("stat", "series")

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


def _shrub_series(
    shrubs: int, constant: XPoly, term: Callable[[int, XPoly], XPoly | Scalar]
) -> EgfSeries:
    """constant + sum_n term(n, (x-1)**(n-1)) t**(3n) over n = 1..shrubs,
    truncated at order 3 * shrubs."""
    if shrubs < 1:
        raise ValueError("shrubs must be >= 1")
    terms = {0: constant}
    power = XPoly.one()  # (x-1)**(n-1), one factor more per shrub
    for n in range(1, shrubs + 1):
        terms[3 * n] = term(n, power)
        power *= _X_MINUS_ONE
    return EgfSeries(3 * shrubs, terms)


def rise_gf(kind: RiseKind | str, shrubs: int = DEFAULT_SHRUBS) -> StatGF:
    """Distribution generating function of one rise statistic.

    For the word statistic the denominator term at t**(3n) is
    -x**n (x-1)**(n-1) prod_{k=1..n}(x+3k-2); for a pairwise statistic
    it is -(x-1)**(n-1) times the matching chain count.  Either way the
    result is the reciprocal of a unit-constant-term series, so every
    coefficient stays polynomial; :mod:`shrubstat.interpolation` builds
    it from its values at integer points.
    """
    from .interpolation import rise_rows

    kind = RiseKind(kind)
    terms = {3 * n: row for n, row in enumerate(rise_rows(kind, shrubs))}
    return StatGF(kind.value, EgfSeries(3 * shrubs, terms))


def min_rise_gf(shrubs: int = DEFAULT_SHRUBS) -> StatGF:
    """Counting series of forests whose word attains the minimal ascent
    number n; the coefficient at t**(3n) is that count (a constant)."""
    series = _shrub_series(
        shrubs, XPoly.one(), lambda n, p: (-1) ** n * prod(range(1, 3 * n, 3))
    )
    return StatGF(MIN_RISE, series.reciprocal())


def rise_gf_via_fraction(shrubs: int = DEFAULT_SHRUBS) -> StatGF:
    """The word-statistic series in its (1-x)-numerator form.

    Numerator 1-x, denominator 1-x + sum_n (x(x-1)t^3)^n/(3n)! *
    prod(x+3k-2); evaluated by exact series division.  Must agree with
    ``rise_gf("ris")`` coefficientwise.
    """
    denominator = _shrub_series(
        shrubs, _ONE_MINUS_X, lambda n, p: p * _X_MINUS_ONE * within_rise_poly(n)
    )
    numerator = EgfSeries(denominator.order, {0: _ONE_MINUS_X})
    return StatGF(RiseKind.WORD.value, numerator.divexact(denominator))


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
    if kind is RiseKind.BASE:
        # exp((x-1)t^3/3): the t^3/3! coefficient of the exponent is 2(x-1)
        exponent = _shrub_series(
            shrubs, XPoly.zero(), lambda n, p: 2 * _X_MINUS_ONE if n == 1 else 0
        )
        denominator = exponent.exp() - EgfSeries(exponent.order, {0: XPoly.x()})
    else:

        def term(n: int, power: XPoly) -> XPoly:
            if kind is RiseKind.TOTAL:  # (2(x-1)t^3)^n / (3n)!
                return 2**n * power * _X_MINUS_ONE
            # (4(x-1)t^3)^n / ((n+1)!(2n+1)!), times (3n)! for the
            # t^(3n)/(3n)! basis: an integer scale at every n
            top = 4**n * factorial(3 * n)
            bottom = factorial(n + 1) * factorial(2 * n + 1)
            scale = exact_quotient(top, bottom, f"the risL term at n={n}")
            return scale * power * _X_MINUS_ONE

        denominator = _shrub_series(shrubs, _ONE_MINUS_X, term)
    numerator = EgfSeries(denominator.order, {0: _ONE_MINUS_X})
    return StatGF(kind.value, numerator.divexact(denominator))


def build_gf(stat: str, shrubs: int = DEFAULT_SHRUBS) -> StatGF:
    """Dispatch on a CLI statistic name, including the minimal-ascent one."""
    if stat == MIN_RISE:
        return min_rise_gf(shrubs)
    return rise_gf(stat, shrubs)
