"""Dense polynomials in x with exact coefficients.

The package's own arithmetic is over Python ints.  A caller may pass any
`numbers.Rational` (an int, a bool, a `fractions.Fraction`) as a
coefficient: it is accepted and normalised, so a whole one becomes an
int, and anything that is not rational (a float, a complex, a `Decimal`,
a str) is refused with TypeError.  The package itself imports no
`fractions`.  Nothing is ever rounded, and exact division means an
integer quotient: :meth:`XPoly.divexact` raises ArithmeticError where a
coefficient would turn fractional.  Trailing zeros are stripped, so
equality is structural.
"""

from __future__ import annotations

from math import comb
from numbers import Rational
from typing import Iterable, Sequence

from .names import exact_quotient

Scalar = Rational


def _norm(value: Scalar) -> Scalar:
    if type(value) is int:  # the common case, without an ABC instance check
        return value
    if isinstance(value, Rational) and value.denominator == 1:
        return int(value.numerator)
    return value


def _exact(value: Scalar) -> Scalar:
    """A coefficient as stored: rational, and an int when it is whole."""
    if not isinstance(value, Rational):
        raise TypeError(f"coefficient {value!r} is not a rational number")
    return _norm(value)


class XPoly:
    """Immutable dense polynomial, coefficients ascending by degree."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        items = [c if type(c) is int else _exact(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        self._coeffs = tuple(items)

    @classmethod
    def zero(cls) -> "XPoly":
        return cls()

    @classmethod
    def one(cls) -> "XPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "XPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, value: Scalar) -> "XPoly":
        return cls((value,))

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, k: int) -> Scalar:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, XPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, Rational):
            return self == XPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:  # a constant hashes as the scalar it equals
        return hash(self._coeffs) if self.degree > 0 else hash(self.coeff(0))

    def __neg__(self) -> "XPoly":
        return XPoly(-c for c in self._coeffs)

    def __add__(self, other: "XPoly | Scalar") -> "XPoly":
        other = _coerce(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return XPoly(out)

    __radd__ = __add__

    def __sub__(self, other: "XPoly | Scalar") -> "XPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "XPoly":
        return _coerce(other) - self

    def __mul__(self, other: "XPoly | Scalar") -> "XPoly":
        if not isinstance(other, XPoly):
            if isinstance(other, Rational):
                return XPoly(c * other for c in self._coeffs)
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return XPoly()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return XPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "XPoly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = XPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, value: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return _norm(acc)

    def divexact(self, divisor: "XPoly") -> "XPoly":
        """Exact quotient self / divisor: each coefficient of the quotient is
        an integer quotient, and ArithmeticError is raised where one is not
        or where a remainder is left.  It builds no Fraction."""
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if divisor._coeffs == (1,):
            return self
        if not self:
            return XPoly()
        rem = list(self._coeffs)
        div = divisor._coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            raise ArithmeticError("polynomial division is not exact")
        out = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            q = exact_quotient(rem[k + len(div) - 1], div[-1], "polynomial quotient")
            out[k] = q
            if q != 0:
                for j, d in enumerate(div):
                    rem[k + j] -= q * d
        if any(r != 0 for r in rem):
            raise ArithmeticError("polynomial division is not exact")
        return XPoly(out)

    def int_coeffs(self) -> tuple:
        """Coefficients as ints; ArithmeticError on any fractional coefficient."""
        if any(type(c) is not int for c in self._coeffs):
            raise ArithmeticError(f"non-integer coefficient in {self!r}")
        return self._coeffs

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "x" if k == 1 else f"x^{k}"
                terms.append(var if c == 1 else f"{c}{var}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"XPoly({list(self._coeffs)!r})"


def _coerce(value: "XPoly | Scalar") -> XPoly:
    if isinstance(value, XPoly):
        return value
    return XPoly.constant(value)


def egf_coeff(f: Sequence, g: Sequence, m: int, start: int = 0) -> "XPoly | Scalar":
    """Coefficient m of the EGF product f * g, the binomial convolution
    sum_{j=start..m} C(m, j) f[j] g[m-j], skipping zero terms.  Entries
    may be ints or XPolys; an empty sum is the int 0.  start=1 leaves out
    the f[0] term, which the coefficient recurrences solve for."""
    acc = 0
    for j in range(start, m + 1):
        a, b = f[j], g[m - j]
        if a and b:
            acc = acc + comb(m, j) * (a * b)
    return acc
