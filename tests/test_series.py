import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubstat import (
    EgfSeries,
    RiseKind,
    StatGF,
    XPoly,
    build_gf,
    closed_form_gf,
    forest_count,
    min_rise_gf,
    rise_gf,
    rise_gf_via_fraction,
)
from shrubstat import interpolation, series
from shrubstat.counts import iaf, ibf, ilf, itf, within_rise_poly
from shrubstat.series import MIN_RISE

from golden import GF_GOLDEN

#: Small-integer polynomials of degree at most 3, zero included.
xpolys = st.lists(st.integers(-3, 3), max_size=4).map(XPoly)


def test_construction_and_accessors():
    s = EgfSeries(4, {0: 1, 3: XPoly((0, 1))})
    assert s.coeff(0) == XPoly.one()
    assert s.coeff(3) == XPoly.x()
    assert s.coeff(1) == XPoly.zero()
    with pytest.raises(ValueError):
        s.coeff(5)
    with pytest.raises(ValueError):
        EgfSeries(2, {3: 1})
    with pytest.raises(ValueError):
        EgfSeries(-1)


def test_add_and_order_mismatch():
    one = EgfSeries.one(3)
    t = EgfSeries(3, {1: 1})
    assert (one + t).coeff(1) == XPoly.one()
    assert (one + t) - t == one
    with pytest.raises(ValueError):
        one + EgfSeries.one(4)
    with pytest.raises(ValueError):
        one * EgfSeries.one(4)


def test_multiplication_is_binomial_convolution():
    t = EgfSeries(4, {1: 1})
    tt = t * t
    assert tt.coeff(2) == XPoly.constant(2)  # t*t = 2 t^2/2!
    assert tt.coeff(1) == XPoly.zero()
    zero = EgfSeries.zero(4)
    assert (t * zero) == zero
    assert (t * EgfSeries.one(4)) == t


def test_reciprocal_basics():
    one = EgfSeries.one(5)
    assert one.reciprocal() == one
    # 1/(1 - t) has coefficient m! at t^m/m!
    geom = EgfSeries(6, {0: 1, 1: -1}).reciprocal()
    assert [geom.coeff(m) for m in range(7)] == [
        XPoly.constant(factorial(m)) for m in range(7)
    ]
    with pytest.raises(ValueError):
        EgfSeries(3, {0: 2}).reciprocal()
    with pytest.raises(ValueError):
        EgfSeries(3, {0: XPoly((1, 1))}).reciprocal()


def test_reciprocal_round_trip_on_random_input():
    rng = random.Random(20170315)
    for _ in range(5):
        terms = {0: 1}
        for m in range(1, 7):
            terms[m] = XPoly(rng.randrange(-4, 5) for _ in range(3))
        series = EgfSeries(6, terms)
        assert series.reciprocal().reciprocal() == series
        assert series * series.reciprocal() == EgfSeries.one(6)


def test_exp():
    expt = EgfSeries(5, {1: 1}).exp()  # exp(t): all EGF coefficients 1
    assert all(expt.coeff(m) == XPoly.one() for m in range(6))
    assert EgfSeries.zero(4).exp() == EgfSeries.one(4)
    with pytest.raises(ValueError):
        EgfSeries.one(3).exp()


def test_divexact_inverts_multiplication():
    rng = random.Random(7)
    den = EgfSeries(
        5,
        {m: XPoly(rng.randrange(-3, 4) for _ in range(2)) for m in range(6)},
    )
    den = den + EgfSeries(5, {0: XPoly((1, 1))})  # make the lead nonzero
    q = EgfSeries(5, {m: XPoly((m, 1)) for m in range(6)})
    assert (den * q).divexact(den) == q
    with pytest.raises(ZeroDivisionError):
        q.divexact(EgfSeries.zero(5))
    with pytest.raises(ArithmeticError):
        EgfSeries.one(2).divexact(EgfSeries(2, {0: XPoly((0, 1))}))


def test_divexact_raises_on_a_fractional_quotient():
    with pytest.raises(ArithmeticError):
        EgfSeries.one(3).divexact(EgfSeries(3, {0: 2}))


def test_golden_coefficients_spot_checks():
    assert rise_gf("ris", 2).coeff(1) == XPoly((0, 1, 1))
    assert rise_gf("risB", 2).coeff(2) == XPoly((40, 40))
    assert rise_gf("risL", 2).coeff(2) == XPoly((64, 16))
    assert rise_gf("risT", 3).coeff(3) == XPoly((12104, 1328, 8))
    assert closed_form_gf("risT", 1).coeff(1) == XPoly.constant(2)


def test_all_published_coefficients():
    for stat, table in GF_GOLDEN.items():
        shrubs = max(table)
        gf = rise_gf(stat, shrubs)
        for n, coeffs in table.items():
            assert gf.coeff(n) == XPoly(coeffs), (stat, n)


def test_fraction_form_equals_reciprocal_form():
    a = rise_gf("ris", 6)
    b = rise_gf_via_fraction(6)
    assert a.series == b.series
    assert b.stat == "ris"


def test_closed_forms_equal_chain_count_route():
    for stat in ("risT", "risB", "risL"):
        assert closed_form_gf(stat, 6).series == rise_gf(stat, 6).series
    with pytest.raises(ValueError):
        closed_form_gf("risA", 2)
    with pytest.raises(ValueError):
        closed_form_gf("ris", 2)


#: The polynomial factor of each statistic's denominator term.
FACTORS = {"ris": within_rise_poly, "risT": itf, "risB": ibf, "risL": ilf, "risA": iaf}


def reciprocal_oracle(kind, shrubs):
    """The series rise_gf builds, as the reciprocal of its denominator in
    XPoly arithmetic, which the interpolation never uses."""
    factor = FACTORS[kind]
    denominator = series._shrub_series(
        shrubs, XPoly.one(), lambda n, p: -p * factor(n)
    )
    return denominator.reciprocal()


def test_interpolation_equals_reciprocal_over_xpoly():
    for kind in FACTORS:
        for shrubs in range(1, 13):
            want = reciprocal_oracle(kind, shrubs)
            assert rise_gf(kind, shrubs).series == want, (kind, shrubs)


def test_routes_agree_at_twenty_shrubs():
    assert rise_gf("ris", 20).series == rise_gf_via_fraction(20).series
    for stat in ("risT", "risB", "risL"):
        assert rise_gf(stat, 20).series == closed_form_gf(stat, 20).series, stat


def off_by_one_at(k, x):
    """The word statistic's f_k at x, raised by one at the given k and x."""
    factor = interpolation._word_factor
    return lambda j, y: factor(j, y) + (j == k and y == x)


@pytest.mark.parametrize(
    "k, x, what",
    # at x = 3 the error leaves b_2(3) off by 2, which 3**2 does not divide;
    # at x = 1 (where x**n divides everything) b_2(1) is off by 100, which
    # leaves its third difference, a multiple of 3! before, indivisible
    [(2, 3, "b_n(x) / x**n"), (1, 1, "a Newton coefficient")],
)
def test_a_wrong_value_raises_instead_of_interpolating(monkeypatch, k, x, what):
    monkeypatch.setattr(interpolation, "_word_factor", off_by_one_at(k, x))
    with pytest.raises(ArithmeticError, match=re.escape(f"{what} is not an integer")):
        rise_gf("ris", 4)


@pytest.mark.parametrize(
    "kind, shrubs, name, probe, want",
    [
        # the word statistic: b_n/x**n has degree at most 2n-1, so row 6
        # is fixed by x = 1..12, each point reading f_1..f_6 once
        (
            RiseKind.WORD,
            6,
            "_word_factor",
            lambda k, x: x,
            [x for x in range(1, 13) for _ in range(6)],
        ),
        # a pairwise statistic: row n takes n points centred on 0, the
        # last being n - 1 - (n - 1)//2
        (
            RiseKind.LEX,
            7,
            "_newton_backward",
            lambda d, last, shift: (len(d), last),
            [(1, 0), (2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3)],
        ),
    ],
    ids=["word", "pairwise"],
)
def test_rise_rows_take_the_fewest_points(
    monkeypatch, kind, shrubs, name, probe, want
):
    seen = []
    inner = getattr(interpolation, name)

    def spy(*args):
        seen.append(probe(*args))
        return inner(*args)

    monkeypatch.setattr(interpolation, name, spy)
    interpolation.rise_rows(kind, shrubs)
    assert seen == want


def test_interpolation_under_optimisation():
    # a fresh interpreter that strips assert statements: the exact
    # divisions still hold the result to the reciprocal and still refuse
    # a wrong value
    script = (
        "from shrubstat import interpolation, series\n"
        "from shrubstat.counts import within_rise_poly\n"
        "oracle = series._shrub_series(\n"
        "    6, series.XPoly.one(), lambda n, p: -p * within_rise_poly(n)\n"
        ").reciprocal()\n"
        "if series.rise_gf('ris', 6).series != oracle:\n"
        "    raise SystemExit(3)\n"
        "factor = interpolation._word_factor\n"
        "interpolation._word_factor = lambda k, x: factor(k, x) + (k == 2 and x == 3)\n"
        "try:\n"
        "    series.rise_gf('ris', 6)\n"
        "except ArithmeticError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(4)\n"
    )
    src = os.path.dirname(os.path.dirname(series.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env)
    if proc.returncode != 0:
        pytest.fail(f"rise_gf under -O exited {proc.returncode}")


def test_min_rise_series():
    gf = min_rise_gf(4)
    assert gf.coeff(0) == XPoly.one()
    assert gf.coeff(1) == XPoly.constant(1)
    assert gf.coeff(2) == XPoly.constant(16)
    # the minimal-ascent count is the x^n coefficient of the word series
    word = rise_gf("ris", 4)
    for n in range(1, 5):
        assert gf.coeff(n) == XPoly.constant(word.coeff(n).coeff(n))


def test_structural_properties_through_default_order():
    stats = ["ris", "risT", "risB", "risL", "risA", MIN_RISE]
    for stat in stats:
        gf = build_gf(stat)
        assert gf.coeff(0) == XPoly.one()
        for n in range(1, gf.shrubs + 1):
            poly = gf.coeff(n)
            coeffs = poly.int_coeffs()
            assert all(c >= 0 for c in coeffs), (stat, n)
            if stat == MIN_RISE:
                assert poly.degree == 0
                continue
            assert poly(1) == forest_count(n), (stat, n)
            if stat == "ris":
                assert poly.degree == 3 * n - 1
                assert all(poly.coeff(k) == 0 for k in range(n))  # x^n divides
            else:
                assert poly.degree <= n - 1


def test_series_support_is_whole_shrubs():
    # distribution series carry mass only at t^(3n)
    for stat in ("ris", "risT", "risB", "risL", "risA", MIN_RISE):
        series = build_gf(stat, 4).series
        for m in range(series.order + 1):
            if m % 3 != 0:
                assert series.coeff(m) == XPoly.zero(), (stat, m)


def test_coefficient_does_not_depend_on_a_larger_order():
    # the t^(3n) coefficient of a reciprocal reads only terms through t^(3n)
    for stat in ("ris", "risT", "risB", "risL", "risA", MIN_RISE):
        assert build_gf(stat, 17).coeff(17) == build_gf(stat, 40).coeff(17), stat


def test_coeff_out_of_range_and_integrality_guard():
    gf = rise_gf("ris", 2)
    with pytest.raises(ValueError):
        gf.coeff(3)
    with pytest.raises(ValueError):
        gf.coeff(-1)
    broken = StatGF("ris", EgfSeries(3, {0: 1, 3: XPoly((Fraction(1, 2),))}))
    with pytest.raises(ArithmeticError):
        broken.coeff(1)


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        rise_gf("ris", 0)
    with pytest.raises(ValueError):
        rise_gf("bogus", 2)
    with pytest.raises(ValueError):
        min_rise_gf(0)


def egf_series(order, head=xpolys):
    """Series of the given order with a drawn polynomial at every exponent,
    not only at multiples of 3; the constant term is drawn from head."""
    rest = st.lists(xpolys, min_size=order, max_size=order)
    return st.tuples(head, rest).map(lambda t: EgfSeries(order, [t[0], *t[1]]))


orders = st.integers(0, 6)


@settings(deadline=None)
@given(orders.flatmap(lambda k: st.tuples(*[egf_series(k)] * 3)))
def test_product_ring_laws(abc):
    a, b, c = abc
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(deadline=None)
@given(orders.flatmap(lambda k: egf_series(k, head=st.just(XPoly.one()))))
def test_reciprocal_property(s):
    assert s * s.reciprocal() == EgfSeries.one(s.order)


@settings(deadline=None)
@given(
    orders.flatmap(
        lambda k: st.tuples(*[egf_series(k, head=st.just(XPoly.zero()))] * 2)
    )
)
def test_exp_of_sum_is_product_of_exps(ab):
    a, b = ab
    assert (a + b).exp() == a.exp() * b.exp()


@settings(deadline=None)
@given(
    orders.flatmap(
        lambda k: st.tuples(egf_series(k, head=xpolys.filter(bool)), egf_series(k))
    )
)
def test_divexact_inverts_multiplication_property(dq):
    d, q = dq
    assert (d * q).divexact(d) == q
