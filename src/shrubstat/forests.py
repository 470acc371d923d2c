"""Labeled binary shrubs, forests, and their rise statistics.

A binary shrub is a three-node tree (one root, two leaves) whose root
carries the smallest of its three labels.  A forest of n shrubs is an
ordered sequence whose labels partition {1, ..., 3n}.  Reading each
shrub as the triple (root, left, right) and concatenating gives the
word of the forest, a permutation of {1, ..., 3n}.

Five statistics live here:

* ``ris``  -- ascents of the word itself;
* ``risT`` -- adjacent shrub pairs where every label of the first is
  below every label of the second (total rise);
* ``risB`` -- adjacent pairs with increasing roots (base rise);
* ``risL`` -- adjacent pairs increasing componentwise as triples
  (lexicographic rise);
* ``risA`` -- adjacent pairs where the right leaf of the first is below
  the left leaf of the second (adjacent rise).

The exhaustive enumerator doubles as the ground-truth oracle against
which every closed formula in the package is checked.  All functions
are pure; values are immutable and safe to share across threads.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import combinations, permutations
from math import factorial
from typing import Iterator, Sequence

from .errors import check_guard
from .names import DEFAULT_MAX_SHRUBS, RiseKind
from .polynomial import XPoly
from .record import Record

#: The four statistics defined by comparing adjacent shrubs.
PAIR_KINDS = (RiseKind.TOTAL, RiseKind.BASE, RiseKind.LEX, RiseKind.ADJACENT)


class Shrub(Record):
    """One labeled shrub (int labels); the root label must be the smallest."""

    __slots__ = ("root", "left", "right")

    def __post_init__(self) -> None:
        labels = (self.root, self.left, self.right)
        if len(set(labels)) != 3:
            raise ValueError(f"shrub labels must be distinct: {labels}")
        if any(v < 1 for v in labels):
            raise ValueError(f"shrub labels must be positive: {labels}")
        if self.root > self.left or self.root > self.right:
            raise ValueError(f"root must carry the smallest label: {labels}")

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.root, self.left, self.right)

    def labels(self) -> frozenset[int]:
        return frozenset(self.triple)


class Forest(Record):
    """An ordered tuple of shrubs whose labels partition {1..3n}."""

    __slots__ = ("shrubs",)

    def __post_init__(self) -> None:
        if not self.shrubs:
            raise ValueError("a forest needs at least one shrub")
        seen = sorted(forest_to_perm(self))
        if seen != list(range(1, len(seen) + 1)):
            raise ValueError(f"labels must partition 1..{len(seen)}: {seen}")

    @classmethod
    def from_triples(cls, triples: Sequence[Sequence[int]]) -> "Forest":
        return cls(tuple(Shrub(*t) for t in triples))

    @property
    def size(self) -> int:
        return len(self.shrubs)


def reduction(word: Sequence[int]) -> tuple[int, ...]:
    """Order-isomorphic relabeling of a duplicate-free word onto 1..len.

    >>> reduction((7, 9, 4, 2, 10))
    (3, 4, 2, 1, 5)
    """
    if len(set(word)) != len(word):
        raise ValueError(f"entries must be distinct: {tuple(word)}")
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def forest_to_perm(forest: Forest) -> tuple[int, ...]:
    """The word of a forest: concatenated (root, left, right) triples."""
    out: list[int] = []
    for shrub in forest.shrubs:
        out.extend(shrub.triple)
    return tuple(out)


def forest_from_perm(word: Sequence[int]) -> Forest:
    """Inverse of :func:`forest_to_perm`; rejects words outside the image."""
    if len(word) == 0 or len(word) % 3 != 0:
        raise ValueError(f"word length must be a positive multiple of 3: {len(word)}")
    return Forest.from_triples([word[i : i + 3] for i in range(0, len(word), 3)])


def rises(word: Sequence[int]) -> int:
    """Number of ascent positions i with word[i] < word[i+1]."""
    if len(word) < 1:
        raise ValueError("word must be nonempty")
    return sum(1 for a, b in zip(word, word[1:]) if a < b)


def within_shrub_rises(word: Sequence[int]) -> int:
    """Ascents at 1-indexed positions congruent to 1 or 2 mod 3.

    These are exactly the ascents interior to a shrub triple; boundary
    positions (multiples of 3) are excluded.
    """
    if len(word) == 0 or len(word) % 3 != 0:
        raise ValueError(f"word length must be a positive multiple of 3: {len(word)}")
    return sum(
        1 for i in range(len(word) - 1) if i % 3 != 2 and word[i] < word[i + 1]
    )


def shrub_less(kind: RiseKind | str, f: Shrub, g: Shrub) -> bool:
    """Whether f precedes g under the given adjacent-pair ordering."""
    kind = RiseKind(kind)
    if f.labels() & g.labels():
        raise ValueError("shrubs must be label-disjoint")
    if kind is RiseKind.TOTAL:
        return max(f.triple) < min(g.triple)
    if kind is RiseKind.BASE:
        return f.root < g.root
    if kind is RiseKind.LEX:
        return f.root < g.root and f.left < g.left and f.right < g.right
    if kind is RiseKind.ADJACENT:
        return f.right < g.left
    raise ValueError(f"no pairwise ordering for {kind!r}")


def rise_stat(kind: RiseKind | str, forest: Forest) -> int:
    """Value of the chosen rise statistic on a forest."""
    kind = RiseKind(kind)
    if kind is RiseKind.WORD:
        return rises(forest_to_perm(forest))
    return sum(
        1
        for f, g in zip(forest.shrubs, forest.shrubs[1:])
        if shrub_less(kind, f, g)
    )


def forest_count(n: int) -> int:
    """|forests of n shrubs| = (3n)!/3**n (confirmed by brute count, n <= 3)."""
    count, rem = divmod(factorial(3 * n), 3**n)
    if rem:
        raise ArithmeticError(f"(3n)!/3**n is not an integer at n={n}")
    return count


def _check_shrubs(n: int, max_shrubs: int) -> None:
    """Refuse n < 1, and n past the guard unless max_shrubs allows it.

    The message gives the number of forests as a formula: computing
    (3n)!/3**n takes seconds at n = 10**5, and Python refuses to write
    it out past 4300 digits (n of about 600).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_guard(
        n, max_shrubs, "max_shrubs", "shrubs make (3n)!/3**n forests to visit"
    )


def enumerate_forests(
    n: int, *, max_shrubs: int = DEFAULT_MAX_SHRUBS
) -> Iterator[Forest]:
    """Yield every forest of n shrubs once, in lexicographic word order."""
    _check_shrubs(n, max_shrubs)
    yield from _forests_rec(tuple(range(1, 3 * n + 1)), [], n)


def _forests_rec(
    remaining: tuple[int, ...], acc: list[Shrub], n: int
) -> Iterator[Forest]:
    if len(acc) == n:
        yield Forest(tuple(acc))
        return
    # remaining is sorted; scanning roots, then left, then right leaves in
    # ascending order makes the stream lexicographic in the forest word.
    for i, root in enumerate(remaining[:-2]):
        larger = remaining[i + 1 :]
        for left, right in permutations(larger, 2):
            rest = remaining[:i] + tuple(v for v in larger if v not in (left, right))
            acc.append(Shrub(root, left, right))
            yield from _forests_rec(rest, acc, n)
            acc.pop()


def _sweep(hists, remaining, pr, pu, pv, racc, tacc, bacc, lacc, aacc, lookup):
    """Add every forest on ``remaining`` after the shrub (pr, pu, pv).

    ``remaining`` is sorted, so ``combinations`` yields each next shrub
    as (root, a, b) with the root smallest, and both leaf orders (a, b)
    and (b, a) follow.  The five running counts (ris, risT, risB, risL,
    risA) go down the recursion, and the leaf adds one forest to each
    histogram at its count.  With ``lookup`` on, the last two shrubs
    come from :func:`_tail_counts` once six labels remain.
    """
    if not remaining:
        word, total, base, lex, adj = hists
        word[racc] += 1
        total[tacc] += 1
        base[bacc] += 1
        lex[lacc] += 1
        adj[aacc] += 1
        return
    if lookup and len(remaining) == 6:
        key = (
            bisect_left(remaining, pr),
            bisect_left(remaining, pu),
            bisect_left(remaining, pv),
        )
        accs = (racc, tacc, bacc, lacc, aacc)
        for hist, acc, pairs in zip(hists, accs, _tail_counts(key)):
            for offset, count in pairs:
                hist[acc + offset] += count
        return
    for (i, root), (j, a), (k, b) in combinations(enumerate(remaining), 3):
        rest = remaining[:i] + remaining[i + 1 : j]
        rest += remaining[j + 1 : k] + remaining[k + 1 :]
        nr = racc + 1 + (pv < root)  # root -> left always ascends
        nt = tacc + (pu < root and pv < root)
        up = pr < root
        nb = bacc + up
        for u, v in ((a, b), (b, a)):
            nl = lacc + (up and pu < u and pv < v)
            na = aacc + (pv < u)
            _sweep(hists, rest, root, u, v, nr + (u < v), nt, nb, nl, na, lookup)


@cache
def _tail_counts(
    key: tuple[int, int, int]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """What the 80 two-shrub tails on six labels add to the histograms.

    ``key`` is (rank of pr, rank of pu, rank of pv): how many of the six
    remaining labels lie below each label of the previous shrub, 6 for
    the sentinel above every label.  The entry is exact because every
    comparison a tail makes is between a label of the previous shrub
    and a remaining label, or between two remaining labels, so its
    outcome depends on the ranks alone.  The entry is filled by
    :func:`_sweep` itself, with the lookup off and every running count
    at 0, on stand-in labels: the six labels are 2, 4, ..., 12 and a
    label of rank r is 2r + 1.  Returns, for ris, risT, risB, risL and
    risA in that order, the nonzero (offset, count) pairs: ``count``
    tails raise the statistic by ``offset`` over the prefix's value.
    """
    hists = tuple([0] * 7 for _ in range(5))
    pr, pu, pv = (2 * r + 1 for r in key)
    _sweep(hists, (2, 4, 6, 8, 10, 12), pr, pu, pv, 0, 0, 0, 0, 0, False)
    return tuple(
        tuple((offset, count) for offset, count in enumerate(hist) if count)
        for hist in hists
    )


@cache
def _distributions(n: int) -> dict[str, tuple[int, ...]]:
    """One exhaustive sweep counting all five statistics at once.

    Works on raw labels rather than Forest objects; the per-forest
    statistics are the same comparisons as :func:`rise_stat`, checked
    against the object path exhaustively for n <= 3 in the test suite.
    The first shrub sees a sentinel above every label, so it adds no
    rise between shrubs.  :func:`_sweep` walks every shrub but the last
    two forest by forest and takes those two from :func:`_tail_counts`,
    a table of 140 entries shared by every n.
    """
    word = [0] * (3 * n)
    total, base, lex, adj = ([0] * n for _ in range(4))
    hists = (word, total, base, lex, adj)
    top = 3 * n + 1
    _sweep(hists, tuple(range(1, top)), top, top, top, 0, 0, 0, 0, 0, True)
    out = {RiseKind.WORD.value: tuple(word)}
    out.update(
        (kind.value, tuple(hist))
        for kind, hist in zip(PAIR_KINDS, (total, base, lex, adj))
    )
    return out


def rise_distribution(
    kind: RiseKind | str, n: int, *, max_shrubs: int = DEFAULT_MAX_SHRUBS
) -> XPoly:
    """Sum of x**statistic over every forest of n shrubs, by brute force."""
    kind = RiseKind(kind)
    _check_shrubs(n, max_shrubs)
    return XPoly(_distributions(n)[kind.value])


def min_rise_count(n: int, *, max_shrubs: int = DEFAULT_MAX_SHRUBS) -> int:
    """Number of forests of n shrubs whose word has exactly n ascents.

    n ascents is the floor: every root-to-left-leaf step ascends, so any
    forest word has at least n of them.
    """
    dist = rise_distribution(RiseKind.WORD, n, max_shrubs=max_shrubs)
    if any(dist.coeff(k) for k in range(n)):
        raise ArithmeticError(f"a forest of {n} shrubs has fewer than {n} ascents")
    return dist.coeff(n)
