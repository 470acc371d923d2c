from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubstat.polynomial import XPoly

#: Small-integer polynomials of degree at most 3, zero included.
xpolys = st.lists(st.integers(-3, 3), max_size=4).map(XPoly)


def test_trailing_zeros_are_stripped():
    assert XPoly((1, 2, 0, 0)) == XPoly((1, 2))
    assert XPoly((0, 0)).degree == -1
    assert not XPoly(())


def test_whole_fractions_normalize_to_int():
    p = XPoly((Fraction(4, 2), Fraction(1, 3)))
    assert p.coeffs == (2, Fraction(1, 3))
    assert p.coeffs[0] == 2 and isinstance(p.coeffs[0], int)


def test_comparison_with_a_scalar():
    assert XPoly((5,)) == 5
    assert XPoly((5, 1)) != 5
    assert XPoly(()) == 0
    assert XPoly((Fraction(1, 2),)) == Fraction(1, 2)


def test_addition_and_subtraction():
    p = XPoly((1, 2, 3))
    q = XPoly((0, 0, -3, 5))
    assert p + q == XPoly((1, 2, 0, 5))
    assert (p + q) - q == p
    assert p - p == XPoly.zero()
    assert p + 1 == XPoly((2, 2, 3))
    assert 1 - XPoly.x() == XPoly((1, -1))


def test_multiplication():
    x = XPoly.x()
    assert (x + 1) * (x + 4) == XPoly((4, 5, 1))
    assert x * XPoly.zero() == XPoly.zero()
    assert 3 * x == XPoly((0, 3))
    assert x * Fraction(1, 2) == XPoly((0, Fraction(1, 2)))


def test_power():
    x = XPoly.x()
    assert (x - 1) ** 0 == XPoly.one()
    assert (XPoly((-1, 1))) ** 2 == XPoly((1, -2, 1))
    with pytest.raises(ValueError):
        x**-1


def test_evaluation():
    p = XPoly((4, 5, 1))
    assert p(1) == 10
    assert p(0) == 4
    assert p(Fraction(1, 2)) == Fraction(27, 4)


def test_divexact():
    x = XPoly.x()
    product = (x + 1) * (x + 4) * XPoly((1, -1))
    assert product.divexact(XPoly((1, -1))) == (x + 1) * (x + 4)
    with pytest.raises(ArithmeticError):
        (x + 1).divexact(x + 2)
    with pytest.raises(ArithmeticError):
        XPoly.one().divexact(x)
    with pytest.raises(ZeroDivisionError):
        x.divexact(XPoly.zero())


def test_int_coeffs():
    assert XPoly((1, 2)).int_coeffs() == (1, 2)
    with pytest.raises(ArithmeticError):
        XPoly((Fraction(1, 2),)).int_coeffs()


def test_str_format():
    assert str(XPoly((76, 4))) == "76 + 4x"
    assert str(XPoly((0, 1, 1))) == "x + x^2"
    assert str(XPoly((3194, 7052, 3194))) == "3194 + 7052x + 3194x^2"
    assert str(XPoly((2,))) == "2"
    assert str(XPoly.zero()) == "0"
    assert str(XPoly((0, 0, 16, 39, 24, 1))) == "16x^2 + 39x^3 + 24x^4 + x^5"


def test_coeff_accessor_and_hash():
    p = XPoly((5, 0, 7))
    assert (p.coeff(0), p.coeff(1), p.coeff(2), p.coeff(9)) == (5, 0, 7, 0)
    assert hash(XPoly((1, 2))) == hash(XPoly((1, 2, 0)))


@settings(deadline=None)
@given(xpolys, xpolys, xpolys)
def test_ring_laws(p, q, r):
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + XPoly.zero() == p and p - p == XPoly.zero()
    assert p * XPoly.one() == p and p * XPoly.zero() == XPoly.zero()


@settings(deadline=None)
@given(xpolys, xpolys.filter(bool))
def test_divexact_inverts_multiplication_property(p, q):
    assert (p * q).divexact(q) == p
