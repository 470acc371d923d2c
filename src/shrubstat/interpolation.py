"""The rise-statistic series by exact evaluation and interpolation.

:func:`series.rise_gf` is the reciprocal of 1 + sum_k s_k t**(3k)/(3k)!,
where s_k = -(x-1)**(k-1) f_k and f_k is ``within_rise_poly(k)`` for the
word statistic or a chain count for a pairwise one.  Its t**(3n)/(3n)!
coefficients are b_0 = 1 and

    b_n = -sum_{k=1..n} C(3n, 3k) s_k b_{n-k}.

Setting x to an integer is a ring map, so the recurrence runs on plain
ints, one point at a time, and each b_n is recovered from its values at
one more consecutive point than its degree, by Newton differences (von
zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5).  Each
division, by x**n where x**n divides b_n and by i! for the i-th
difference, goes through :func:`names.exact_quotient`: a wrong value
raises ArithmeticError instead of giving a wrong polynomial.
"""

from __future__ import annotations

from itertools import repeat
from math import comb, factorial, prod
from operator import mul, sub

from .counts import iaf, ibf, ilf, itf
from .names import RiseKind, exact_quotient
from .polynomial import XPoly

_CHAIN_COUNTS = {
    RiseKind.TOTAL: itf,
    RiseKind.BASE: ibf,
    RiseKind.LEX: ilf,
    RiseKind.ADJACENT: iaf,
}


def _word_factor(k: int, x: int) -> int:
    """within_rise_poly(k) at x: x**k (x+1)(x+4)...(x+3k-2)."""
    return x**k * prod(range(x + 1, x + 3 * k - 1, 3))


def rise_rows(kind: RiseKind, shrubs: int) -> list[XPoly]:
    """b_0..b_N of the statistic's series for N = shrubs.

    For the word statistic x**k divides s_k and deg s_k = 3k-1, so
    b_n/x**n has degree at most 2n-1 and is fixed by x = 1..2n.  For a
    pairwise one deg s_k = k-1, so deg b_n <= n-1, and the n points of
    b_n are centred on 0, which keeps the values small.
    """
    if shrubs < 1:
        raise ValueError("shrubs must be >= 1")
    word = kind is RiseKind.WORD
    ns = range(1, shrubs + 1)
    counts = [] if word else [_CHAIN_COUNTS[kind](k) for k in ns]
    # row n: its first point and its number of points
    windows = [(1, 2 * n) if word else (-((n - 1) // 2), n) for n in range(shrubs + 1)]
    binomials = [[comb(3 * n, 3 * k) for k in range(1, n + 1)] for n in ns]
    diffs: dict[int, list[int]] = {n: [] for n in ns}  # the open rows
    rows = [XPoly.one()] * (shrubs + 1)
    first, size = windows[shrubs]  # row N's points include every other row's
    for x in range(first, first + size):
        s = []
        power = 1  # (x-1)**(k-1)
        for k in ns:
            s.append(-power * (_word_factor(k, x) if word else counts[k - 1]))
            power *= x - 1
        b = [1]
        for row in binomials:  # C(3n, 3k) meets s_k and b_{n-k}, k = 1..n
            b.append(-sum(map(mul, map(mul, row, s), reversed(b))))
        for n in [n for n in diffs if windows[n][0] <= x]:
            value = exact_quotient(b[n], x**n, "b_n(x) / x**n") if word else b[n]
            # the backward differences at x from those at x - 1
            d = diffs[n]
            for i, old in enumerate(d):
                d[i], value = value, value - old
            d.append(value)
            if len(d) == windows[n][1]:
                del diffs[n]
                rows[n] = _newton_backward(d, x, n if word else 0)
    return rows


def _newton_backward(d: list[int], last: int, shift: int) -> XPoly:
    """x**shift times the polynomial whose i-th backward difference at
    last is d[i]: sum_i (d[i]/i!) (x-last)(x-last+1)...(x-last+i-1)."""
    poly: list[int] = []
    for i in range(len(d) - 1, -1, -1):
        # Horner: poly * (x - last + i) + d[i]/i!
        poly = list(map(sub, [0, *poly], map(mul, repeat(last - i), [*poly, 0])))
        poly[0] += exact_quotient(d[i], factorial(i), "a Newton coefficient")
    return XPoly([0] * shift + poly)
