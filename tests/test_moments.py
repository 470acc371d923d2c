"""Second moments of the pair statistics at every n, from windows of
two and three shrubs.

A uniform forest is a uniform permutation conditioned on one event per
shrub (its root is smallest), so statistics on disjoint sets of shrubs
are independent.  A pair statistic X is a sum of one indicator per
adjacent pair of shrubs, so with a = P(a pair rises) and c = P(two
consecutive pairs both rise),

    E[X^2] = (n-1) a + 2 (n-2) c + (n-2)(n-3) a^2,

the three terms being the squares of the n-1 indicators, the n-2 pairs
of consecutive indicators, and the disjoint pairs.  a and c come from
the forests of two and three shrubs alone, so the check reaches every
n without relying on the series arithmetic it checks.

The word statistic ris is checked the same way: it is a sum of one term
per shrub and one per boundary between shrubs, whose joint moments
reach over at most three adjacent shrubs.

The factorial moments E[X(X-1)...(X-k+1)] of the pair statistics, for
k = 1..3, are k! times the sum, over the k-subsets S of the n-1
boundaries, of the chance that every boundary in S rises.  A maximal
run of r consecutive boundaries in S rises with the chance p_r that a
forest of r+1 shrubs rises at every boundary, and runs split by a
boundary outside S touch disjoint shrubs, so that chance is the
product of the p_r over S's runs.
"""

from fractions import Fraction
from math import factorial, perm

import pytest

from shrubstat import enumerate_forests, forest_count, rise_distribution, rise_stat
from shrubstat.series import rise_gf

N = 20

WINDOWS = {
    "risT": (Fraction(1, 20), Fraction(1, 1680)),
    "risB": (Fraction(1, 2), Fraction(1, 6)),
    "risL": (Fraction(1, 5), Fraction(1, 70)),
    "risA": (Fraction(1, 2), Fraction(1597, 6720)),
}


def all_rise_share(kind, n):
    """Share of the forests of n shrubs in which every adjacent pair rises."""
    values = [rise_stat(kind, f) for f in enumerate_forests(n)]
    return Fraction(values.count(n - 1), len(values))


@pytest.mark.parametrize("kind", WINDOWS)
def test_second_moment_from_windows(kind):
    a, c = all_rise_share(kind, 2), all_rise_share(kind, 3)
    assert (a, c) == WINDOWS[kind]
    gf = rise_gf(kind, N)
    for n in range(2, N + 1):
        dist = gf.coeff(n).coeffs
        second = Fraction(sum(k * k * m for k, m in enumerate(dist)), sum(dist))
        assert second == (n - 1) * a + 2 * (n - 2) * c + (n - 2) * (n - 3) * a * a, n


def mean(values):
    values = list(values)
    return Fraction(sum(values), len(values))


def test_word_rise_second_moment_from_windows():
    # ris = sum_i Y_i + sum_j Z_j: Y_i = 1 + [left_i < right_i] counts the
    # ascents inside shrub i (root -> left always ascends), and
    # Z_j = [right_j < root_{j+1}] the ascent across boundary j.
    def y(shrub):
        return 1 + (shrub.left < shrub.right)

    def z(f, g):
        return int(f.right < g.root)

    ones = [f.shrubs for f in enumerate_forests(1)]
    twos = [f.shrubs for f in enumerate_forests(2)]
    threes = [f.shrubs for f in enumerate_forests(3)]
    ey, ey2 = mean(y(s) for (s,) in ones), mean(y(s) ** 2 for (s,) in ones)
    ez = mean(z(f, g) for f, g in twos)
    ey_left = mean(y(f) * z(f, g) for f, g in twos)  # E[Y_j Z_j]
    ey_right = mean(y(g) * z(f, g) for f, g in twos)  # E[Y_{j+1} Z_j]
    ezz = mean(z(f, g) * z(g, h) for f, g, h in threes)
    assert (ey, ey2, ez) == (Fraction(3, 2), Fraction(5, 2), Fraction(1, 8))
    assert (ey_left, ey_right) == (Fraction(3, 20), Fraction(3, 16))
    assert ezz == Fraction(1, 168)
    gf = rise_gf("ris", N)
    for n in range(1, N + 1):
        b = n - 1
        pairs = max(b - 1, 0)  # adjacent boundary pairs
        expected = (
            n * ey2
            + n * (n - 1) * ey**2
            + 2 * (b * (ey_left + ey_right) + b * (n - 2) * ey * ez)
            + b * ez
            + 2 * pairs * ezz
            + (b * b - b - 2 * pairs) * ez**2
        )
        dist = gf.coeff(n).coeffs
        second = Fraction(sum(k * k * m for k, m in enumerate(dist)), sum(dist))
        assert second == expected, n


# p_3 of each pair statistic: a forest of four shrubs rises at all three
# boundaries (p_1 and p_2 are the WINDOWS)
ALL_RISE_4 = {
    "risT": Fraction(1, 369600),
    "risB": Fraction(1, 24),
    "risL": Fraction(1, 2100),
    "risA": Fraction(757, 6720),
}

K = 3  # the highest factorial moment checked
N_FACTORIAL = 30


def factorial_moments(p, n):
    """E[X(X-1)...(X-k+1)] for k = 0..K at n shrubs, p[r] being the
    chance that r given consecutive boundaries all rise."""
    # (boundaries chosen, length of the run ending at the last boundary)
    # -> sum of the products of p over the runs closed so far
    states = {(0, 0): Fraction(1)}
    for _ in range(n - 1):
        after = {}
        for (k, run), w in states.items():
            after[k, 0] = after.get((k, 0), 0) + w * p[run]  # skip: the run closes
            if k < K:
                after[k + 1, run + 1] = after.get((k + 1, run + 1), 0) + w
        states = after
    sums = [Fraction(0)] * (K + 1)
    for (k, run), w in states.items():
        sums[k] += w * p[run]
    return [factorial(k) * s for k, s in enumerate(sums)]


@pytest.mark.parametrize("kind", WINDOWS)
def test_factorial_moments_from_runs(kind):
    p = [Fraction(1)] + [
        Fraction(rise_distribution(kind, r + 1).coeff(r), forest_count(r + 1))
        for r in range(1, K + 1)
    ]
    assert (p[1], p[2]) == WINDOWS[kind]
    assert p[3] == ALL_RISE_4[kind]
    gf = rise_gf(kind, N_FACTORIAL)
    for n in range(2, N_FACTORIAL + 1):
        dist = gf.coeff(n).coeffs
        total = sum(dist)
        expected = factorial_moments(p, n)
        for k in range(1, K + 1):
            moment = Fraction(sum(perm(j, k) * m for j, m in enumerate(dist)), total)
            assert moment == expected[k], (n, k)
