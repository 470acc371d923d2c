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

from collections import Counter
from functools import cache
from itertools import combinations, permutations
from math import factorial
from typing import Iterator, Sequence

from .names import DEFAULT_MAX_SHRUBS, RiseKind, check_guard, exact_quotient
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
    return exact_quotient(factorial(3 * n), 3**n, f"(3n)!/3**n at n={n}")


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


def _sweep(hists, tails, remaining, pr, pu, pv, racc, tacc, bacc, lacc, aacc):
    """Add every forest on ``remaining`` after the shrub (pr, pu, pv).

    ``remaining`` is sorted, so ``combinations`` yields each next shrub
    as (root, a, b) with the root smallest, and both leaf orders (a, b)
    and (b, a) follow.  The five running counts (ris, risT, risB, risL,
    risA) go down the recursion; the lines that set nr, nt, nb, nw, nl
    and na are the one copy of the statistics' rules, for every level.
    What follows the next shrub depends on how many labels it leaves:

    * none: the shrub is the forced last one, and its two forests are
      added to the five ``hists`` at their counts in the loop;
    * six: the forest's last two shrubs are left to
      :func:`_tail_counts`.  The loop appends one int key per leaf
      order, the ranks of the shrub's labels among the six followed by
      the five counts, and the call's keys go to the ``tails`` Counter
      in one update.  A label's rank is read from its index in
      ``remaining``: i labels left lie below the root, j - 1 below a and
      k - 2 below b.  Ranks take 3 bits each and counts
      ``len(hists[0]).bit_length()`` bits, enough for any index of the
      word histogram, so a key at n = 4 fits in 29 bits;
    * otherwise: the sweep recurses on the labels left.
    """
    left = len(remaining) - 3  # labels the next shrub leaves
    if left == 6:
        width = len(hists[0]).bit_length()
        keys = []
    word, total, base, lex, adj = hists
    for (i, root), (j, a), (k, b) in combinations(enumerate(remaining), 3):
        nr = racc + 1 + (pv < root)  # root -> left always ascends
        nt = tacc + (pu < root and pv < root)
        up = pr < root
        nb = bacc + up
        for u, v in ((a, b), (b, a)):
            nw = nr + (u < v)
            nl = lacc + (up and pu < u and pv < v)
            na = aacc + (pv < u)
            if left == 6:
                ru, rv = (j - 1, k - 2) if u < v else (k - 2, j - 1)
                key = ((i << 3 | ru) << 3 | rv) << width | nw
                key = ((key << width | nt) << width | nb) << width | nl
                keys.append(key << width | na)
            elif left:
                rest = remaining[:i] + remaining[i + 1 : j]
                rest += remaining[j + 1 : k] + remaining[k + 1 :]
                _sweep(hists, tails, rest, root, u, v, nw, nt, nb, nl, na)
            else:
                word[nw] += 1
                total[nt] += 1
                base[nb] += 1
                lex[nl] += 1
                adj[na] += 1
    if left == 6:
        tails.update(keys)


#: One object per distinct (offset, count) pair of the tail table: its
#: 1 753 pairs take 80 values, and the filled table holds about 80 KB
#: instead of 170 KB.
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


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
    outcome depends on the ranks alone.  :func:`_distributions` reads
    it once per distinct key of its sweep.  The entry is filled by
    :func:`_sweep` itself, started at the six labels with every running
    count at 0, on stand-in labels: the six labels are 2, 4, ..., 12
    and a label of rank r is 2r + 1.  Returns, for ris, risT, risB,
    risL and risA in that order, the nonzero (offset, count) pairs:
    ``count`` tails raise the statistic by ``offset`` over the
    prefix's value.  Equal pairs are one object, from ``_PAIRS``.
    """
    hists = tuple([0] * 7 for _ in range(5))
    pr, pu, pv = (2 * r + 1 for r in key)
    _sweep(hists, None, (2, 4, 6, 8, 10, 12), pr, pu, pv, 0, 0, 0, 0, 0)
    return tuple(
        tuple(_PAIRS.setdefault(pair, pair) for pair in enumerate(hist) if pair[1])
        for hist in hists
    )


@cache
def _distributions(n: int) -> dict[str, tuple[int, ...]]:
    """One exhaustive sweep counting all five statistics at once.

    Works on raw labels rather than Forest objects; the per-forest
    statistics are the same comparisons as :func:`rise_stat`, checked
    against the object path exhaustively for n <= 3 in the test suite.
    The first shrub sees a sentinel above every label, so it adds no
    rise between shrubs.  At n = 1 and 2, :func:`_sweep` adds every
    forest to the histograms itself.  From n = 3 on it walks every
    shrub but the last two and counts the forests that reach each key
    (the ranks of the third-to-last shrub's labels among the six left,
    and the five running counts): 73 920 prefixes fall on 1 932
    distinct keys at n = 4.  Each distinct key is then unpacked and
    adds its count times its entry of :func:`_tail_counts`, a table of
    140 entries shared by every n.
    """
    word = [0] * (3 * n)
    total, base, lex, adj = ([0] * n for _ in range(4))
    hists = (word, total, base, lex, adj)
    tails = Counter()
    top = 3 * n + 1
    _sweep(hists, tails, tuple(range(1, top)), top, top, top, 0, 0, 0, 0, 0)
    width = len(word).bit_length()
    mask = (1 << width) - 1
    for key, times in tails.items():
        accs = [key >> shift & mask for shift in range(4 * width, -1, -width)]
        key >>= 5 * width
        ranks = (key >> 6, key >> 3 & 7, key & 7)
        for hist, acc, pairs in zip(hists, accs, _tail_counts(ranks)):
            for offset, count in pairs:
                hist[acc + offset] += times * count
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
