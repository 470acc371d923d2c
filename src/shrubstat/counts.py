"""Closed forms and recurrences for the counting sequences.

Chain counts for the four shrub orderings:

* ``itf(n) = 2**n`` (totally increasing),
* ``ibf(n) = (3n)!/(3**n n!)`` (root-increasing),
* ``ilf(n) = 4**n (3n)!/((n+1)!(2n+1)!)`` (componentwise increasing),
* ``iaf(n) = linext_seq("LA", n)`` (adjacent-increasing; no closed form
  is known, so it is defined through the linear-extension recurrences).

The mutually recursive sequences LA/LB/LE/LS count linear extensions of
the adjacent-chain posets (bare / both-capped / end-capped /
start-capped).  With C = math.comb and bases LA0 = LB0 = LE0 = LS0 = 1:

    LE_n = sum_k C(3n,   3(k-1)+1) LE_{k-1} LB_{n-k}
    LB_n = LE_n + sum_k C(3n+1, 3(k-1)+2) LB_{k-1} LB_{n-k}
    LA_n = sum_k C(3n-1, 3(k-1)+1) LE_{k-1} LS_{n-k}
    LS_n = LA_n + sum_k C(3n,   3(k-1)+2) LB_{k-1} LS_{n-k}

(k runs over 1..n; LE must precede LB and LA must precede LS within
each n.)  Packing the sequences into exponential generating functions
at exponents 3n, 3n+1, 3n+1, 3n+2 respectively turns the recurrences
into the first-order system

    A' = E*S,   E' = 1 + E*B,   S' = A + B*S,   B' = E + B**2,

and eliminating E gives the second-order equation B'' = 1 + 3B'B - B**3
used by :func:`lb_ode_series` as an independent route to LB.
"""

from __future__ import annotations

import threading
from math import factorial
from typing import TYPE_CHECKING

from .names import LINEXT_KINDS, exact_quotient

if TYPE_CHECKING:  # imported where used: `seq` runs no polynomial code
    from .polynomial import XPoly

_cache: dict[str, list[int]] = {k: [1] for k in LINEXT_KINDS}
_cache_lock = threading.Lock()


def itf(n: int) -> int:
    """Totally increasing chains of n shrubs: 2**n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2**n


def ibf(n: int) -> int:
    """Root-increasing chains of n shrubs: (3n)!/(3**n n!)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return exact_quotient(factorial(3 * n), 3**n * factorial(n), f"IBF({n})")


def ilf(n: int) -> int:
    """Componentwise-increasing chains: 4**n (3n)!/((n+1)!(2n+1)!)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return exact_quotient(
        4**n * factorial(3 * n), factorial(n + 1) * factorial(2 * n + 1), f"ILF({n})"
    )


def linext_seq(kind: str, n: int) -> int:
    """n-th term of LA/LB/LE/LS (0-indexed; all four start at 1).

    Step m of the recurrences reads binomials from three rows only,
    C(3m-1, .), C(3m, .) and C(3m+1, .); each row is built once per step,
    every entry from the one before it by C(t, i) = C(t, i-1)(t-i+1)/i,
    so no term calls math.comb.  Terms are cached, and a call computes
    only the steps past the longest one cached.
    """
    if kind not in LINEXT_KINDS:
        raise ValueError(f"unknown sequence {kind!r}")
    if n < 0:
        raise ValueError("n must be >= 0")

    def chain_sum(
        row: list[int], shift: int, f: list[int], g: list[int], m: int
    ) -> int:
        """sum_k row[3(k-1)+shift] f[k-1] g[m-k] over k = 1..m."""
        # Not egf_coeff: ode_residuals checks these recurrences through it.
        return sum(row[3 * j + shift] * f[j] * g[m - 1 - j] for j in range(m))

    with _cache_lock:
        la, lb, le, ls = (_cache[k] for k in ("LA", "LB", "LE", "LS"))
        for m in range(len(la), n + 1):
            below, mid, above = (_binomial_row(3 * m + d) for d in (-1, 0, 1))
            le.append(chain_sum(mid, 1, le, lb, m))
            lb.append(le[m] + chain_sum(above, 2, lb, lb, m))
            la.append(chain_sum(below, 1, le, ls, m))
            ls.append(la[m] + chain_sum(mid, 2, lb, ls, m))
        return _cache[kind][n]


def _binomial_row(top: int) -> list[int]:
    """C(top, 0), ..., C(top, top), each from the one before it."""
    row = [1]
    for i in range(1, top + 1):
        # Exact without a check: C(t, i-1) (t-i+1) = i C(t, i).
        row.append(row[-1] * (top - i + 1) // i)
    return row


def iaf(n: int) -> int:
    """Adjacent-increasing chains of n shrubs (no closed form known)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return linext_seq("LA", n)


def lb_ode_series(order: int) -> list[int]:
    """Coefficients b_0..b_order of the power-series solution B of
    B'' = 1 + 3B'B - B**3, in the t**m/m! basis.

    B(t) carries LB_m at exponent 3m+2 and vanishes to second order at
    0, so the constant forcing term seeds LB_0 = 1.  Any nonzero
    coefficient at an exponent not congruent to 2 mod 3 would falsify
    the packing and is a hard error.

    Step m solves for b[m+2] from b[0..m+1].  B**2 is a running list that
    gains one coefficient per step, so a step costs O(order) and the
    routine O(order**2).
    """
    from .polynomial import egf_coeff

    if order < 0:
        raise ValueError("order must be >= 0")
    b = [0, 0]
    bsq: list[int] = []
    for m in range(order - 1):
        bsq.append(egf_coeff(b, b, m))
        bprime_b = egf_coeff(b[1:], b, m)
        bcube_m = egf_coeff(bsq, b, m)
        b.append((1 if m == 0 else 0) + 3 * bprime_b - bcube_m)
    for m, value in enumerate(b):
        if m % 3 != 2 and value != 0:
            raise ArithmeticError(
                f"series solution has unexpected coefficient {value} at t^{m}"
            )
    return b[: order + 1]


def lb_via_ode(n: int) -> int:
    """LB_n from the power-series solution of B'' = 1 + 3B'B - B**3:
    the last coefficient of :func:`lb_ode_series` at order 3n+2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return lb_ode_series(3 * n + 2)[-1]


def adjacent_chain_egfs(order: int) -> dict[str, list[int]]:
    """EGF coefficient lists (t**m/m! basis) of the four sequences.

    A sits at exponents 3n, E and S at 3n+1, B at 3n+2.
    """
    out = {k: [0] * (order + 1) for k in LINEXT_KINDS}
    for key, offset in (("LA", 0), ("LE", 1), ("LS", 1), ("LB", 2)):
        for m in range(offset, order + 1, 3):
            out[key][m] = linext_seq(key, m // 3)
    return out


def ode_residuals(order: int) -> dict[str, list[int]]:
    """Residuals of the first-order system through t**(order-1).

    Keys name the equations: "A" for A' - E*S, "E" for E' - (1 + E*B),
    "S" for S' - (A + B*S), "B" for B' - (E + B**2).  Every residual
    list must be identically zero.
    """
    from .polynomial import egf_coeff

    if order < 1:
        raise ValueError("order must be >= 1")
    series = adjacent_chain_egfs(order)
    a, e, s, b = (series[k] for k in ("LA", "LE", "LS", "LB"))
    out: dict[str, list[int]] = {"A": [], "E": [], "S": [], "B": []}
    for m in range(order):
        out["A"].append(a[m + 1] - egf_coeff(e, s, m))
        out["E"].append(e[m + 1] - (1 if m == 0 else 0) - egf_coeff(e, b, m))
        out["S"].append(s[m + 1] - a[m] - egf_coeff(b, s, m))
        out["B"].append(b[m + 1] - e[m] - egf_coeff(b, b, m))
    return out


def within_rise_poly(n: int) -> XPoly:
    """x**n * prod_{k=1..n} (x + 3k - 2), expanded.

    Equals the distribution of within-shrub ascents over the words of
    boundary-increasing forests of n shrubs (checked exhaustively in the
    tests via the poset oracle).
    """
    from .polynomial import XPoly

    if n < 1:
        raise ValueError("n must be >= 1")
    poly = XPoly.x() ** n
    for k in range(1, n + 1):
        poly = poly * XPoly((3 * k - 2, 1))
    return poly


def eulerian_poly(n: int) -> XPoly:
    """Ascent polynomial of the symmetric group on n letters.

    Triangular recurrence T(n, k) = (k+1) T(n-1, k) + (n-k) T(n-1, k-1)
    with T(1, 0) = 1.
    """
    from .polynomial import XPoly

    if n < 1:
        raise ValueError("n must be >= 1")
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0)
            + (m - k) * (row[k - 1] if k >= 1 else 0)
            for k in range(m)
        ]
    return XPoly(row)
