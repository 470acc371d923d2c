from itertools import permutations
from math import comb, factorial

import pytest

from shrubstat import (
    RiseKind,
    XPoly,
    enumerate_forests,
    eulerian_poly,
    iaf,
    ibf,
    ilf,
    itf,
    lb_via_ode,
    linext_seq,
    ode_residuals,
    rise_stat,
    rises,
    shrub_less,
    within_rise_poly,
)
from shrubstat import counts
from shrubstat.counts import adjacent_chain_egfs, lb_ode_series
from shrubstat.names import exact_quotient

from golden import SEQ_GOLDEN


def test_exact_quotient():
    assert exact_quotient(6, 3, "x") == 2 and type(exact_quotient(6, 3, "x")) is int
    assert exact_quotient(-6, 3, "x") == -2
    with pytest.raises(ArithmeticError, match="^x is not an integer$"):
        exact_quotient(7, 2, "x")


def test_itf():
    assert [itf(n) for n in (1, 2, 3)] == [2, 4, 8]
    with pytest.raises(ValueError):
        itf(0)


def test_itf_matches_brute_filter():
    # chains under the all-labels ordering, counted the dumb way
    for n in (1, 2, 3):
        count = sum(
            1
            for f in enumerate_forests(n)
            if all(
                shrub_less(RiseKind.TOTAL, a, b)
                for a, b in zip(f.shrubs, f.shrubs[1:])
            )
        )
        assert count == itf(n)


def test_ibf():
    assert [ibf(n) for n in (1, 2, 3)] == [2, 40, 2240]
    assert ibf(4) == 246400
    # n! root orderings exhaust all forests
    for n in (1, 2, 3, 4, 5):
        assert ibf(n) * factorial(n) == factorial(3 * n) // 3**n


def test_ilf():
    assert [ilf(n) for n in (1, 2, 3, 4)] == [2, 16, 192, 2816]
    assert ilf(6) == 835584


def test_linext_sequences_match_published_terms():
    for kind, terms in SEQ_GOLDEN.items():
        assert [linext_seq(kind, n) for n in range(len(terms))] == list(terms)


def test_linext_first_terms_by_hand():
    # LE_1 = C(3,1), LS_1 = LA_1 + C(3,2), LB_1 = LE_1 + C(4,2)
    assert linext_seq("LE", 1) == 3
    assert linext_seq("LS", 1) == 5
    assert linext_seq("LB", 1) == 9
    assert linext_seq("LA", 1) == 2
    with pytest.raises(ValueError):
        linext_seq("LQ", 1)
    with pytest.raises(ValueError):
        linext_seq("LA", -1)


def test_linext_seq_matches_the_recurrences_with_math_comb(monkeypatch):
    # the four docstring recurrences restated with math.comb, against the
    # binomial rows that linext_seq builds per step; a fresh cache is
    # filled in two unequal steps, so the growing lists are exercised too
    top = 150
    ref = {k: [1] for k in ("LA", "LB", "LE", "LS")}
    la, lb, le, ls = (ref[k] for k in ("LA", "LB", "LE", "LS"))
    for n in range(1, top + 1):
        ks = range(1, n + 1)
        le.append(sum(comb(3 * n, 3 * (k - 1) + 1) * le[k - 1] * lb[n - k] for k in ks))
        lb.append(
            le[n]
            + sum(comb(3 * n + 1, 3 * (k - 1) + 2) * lb[k - 1] * lb[n - k] for k in ks)
        )
        la.append(
            sum(comb(3 * n - 1, 3 * (k - 1) + 1) * le[k - 1] * ls[n - k] for k in ks)
        )
        ls.append(
            la[n]
            + sum(comb(3 * n, 3 * (k - 1) + 2) * lb[k - 1] * ls[n - k] for k in ks)
        )
    monkeypatch.setattr(counts, "_cache", {k: [1] for k in ref})
    assert linext_seq("LS", 37) == ref["LS"][37]
    for kind, terms in ref.items():
        assert [linext_seq(kind, n) for n in range(top, -1, -1)] == terms[::-1]


def test_iaf():
    assert [iaf(n) for n in (1, 2, 3)] == [2, 40, 3194]
    with pytest.raises(ValueError):
        iaf(0)


def test_iaf_matches_brute_filter():
    for n in (1, 2, 3):
        count = sum(
            1
            for f in enumerate_forests(n)
            if all(
                shrub_less(RiseKind.ADJACENT, a, b)
                for a, b in zip(f.shrubs, f.shrubs[1:])
            )
        )
        assert count == iaf(n)


def test_lb_via_ode_matches_recurrence():
    for n in range(7):
        assert lb_via_ode(n) == linext_seq("LB", n)
    with pytest.raises(ValueError):
        lb_via_ode(-1)


def test_lb_ode_series_matches_the_recurrences():
    # every order, not only the 3n + 2 at which lb_via_ode stops
    for order in range(61):
        assert lb_ode_series(order) == adjacent_chain_egfs(order)["LB"]
    with pytest.raises(ValueError):
        lb_ode_series(-1)


def test_ode_residuals_vanish():
    residuals = ode_residuals(20)
    assert set(residuals) == {"A", "E", "S", "B"}
    for _, values in sorted(residuals.items()):
        assert len(values) == 20
        assert all(v == 0 for v in values)


def test_ode_residuals_at_order_1():
    assert ode_residuals(1) == {"A": [0], "E": [0], "S": [0], "B": [0]}


def test_adjacent_chain_egfs_support():
    series = adjacent_chain_egfs(11)
    assert series["LA"][0] == 1 and series["LA"][3] == 2 and series["LA"][6] == 40
    assert series["LE"][1] == 1 and series["LE"][4] == 3
    assert series["LS"][1] == 1 and series["LS"][4] == 5
    assert series["LB"][2] == 1 and series["LB"][5] == 9 and series["LB"][8] == 477
    # nothing off the residue classes
    assert series["LA"][1] == series["LA"][2] == 0
    assert series["LB"][0] == series["LB"][1] == 0


def test_within_rise_poly():
    x = XPoly.x()
    assert within_rise_poly(1) == x * (1 + x)
    assert within_rise_poly(2) == XPoly((0, 0, 4, 5, 1))
    for n in (1, 2, 3, 4, 5):
        poly = within_rise_poly(n)
        assert poly.coeff(poly.degree) == 1
        assert poly.degree == 2 * n
    with pytest.raises(ValueError):
        within_rise_poly(0)


def test_eulerian_poly():
    assert eulerian_poly(1) == XPoly((1,))
    assert eulerian_poly(2) == XPoly((1, 1))
    assert eulerian_poly(3) == XPoly((1, 4, 1))
    assert eulerian_poly(4) == XPoly((1, 11, 11, 1))
    with pytest.raises(ValueError):
        eulerian_poly(0)


def test_eulerian_poly_against_brute_force():
    for n in (1, 2, 3, 4, 5):
        acc = {}
        for word in permutations(range(1, n + 1)):
            v = rises(word)
            acc[v] = acc.get(v, 0) + 1
        dist = XPoly(acc.get(k, 0) for k in range(max(acc) + 1))
        assert dist == eulerian_poly(n)


def test_rise_stat_consistency_base_vs_roots():
    # base-rise of a forest equals ascents of its root word
    for f in enumerate_forests(2):
        roots = tuple(s.root for s in f.shrubs)
        assert rise_stat(RiseKind.BASE, f) == rises(roots)
