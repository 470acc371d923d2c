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
"""

from fractions import Fraction

import pytest

from shrubstat import enumerate_forests, rise_stat
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
