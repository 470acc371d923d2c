"""Finite posets with a linear-extension counting/enumeration oracle.

A labeling (linear extension) assigns {1..size} bijectively to the
elements so that every cover (u, v) gets label(u) < label(v).  Counting
runs a memoised dynamic program over down-sets keyed by bitmask: each
step removes one maximal element, the maximal elements are carried down
as a bitmask, and the memo is tested before recursing, so the recursion
is as deep as the poset is large.  Before it runs, twins (elements with
the same predecessors and the same successors) are chained in index
order and the count multiplied back by k! per class of k, which is
exact because swapping two twins maps labelings onto labelings.
Enumeration is intended for smaller posets: it backtracks over the
first labels and takes the last few from a table of completions keyed
by the set of unplaced elements, with each labeling held as one int (a
fixed-width field per element) until it is yielded.  Both halves give
the next label by one rule: to an unplaced element none of whose
predecessors is unplaced.  Counting and enumeration refuse a cover
relation with a cycle, which :class:`graphlib.TopologicalSorter`
detects.

Builders are provided for every poset family the package needs: the
boundary-increasing and root-increasing forest posets, the three-row
grid poset of componentwise-increasing forests, and the four
adjacent-chain families (bare, end-capped, start-capped, both).
Elements of the forest-shaped posets are indexed in word positions:
3i is the root of shrub i, 3i+1 its left leaf, 3i+2 its right leaf.
"""

from __future__ import annotations

import struct
import sys
from functools import cache
from graphlib import CycleError, TopologicalSorter
from itertools import pairwise, repeat
from math import factorial
from typing import Iterable, Iterator

from .errors import check_guard
from .names import DEFAULT_MAX_COUNT_SIZE, DEFAULT_MAX_ENUM_SIZE
from .record import Record

#: Labels each labeling takes from the table of completions rather than
#: by backtracking.  For A at n = 4, any value from 4 to 8 took 0.45 to
#: 0.6 s against 2.0 s for backtracking every label, with no winner
#: beyond the noise; the peak RSS grew from 6 on: 2.3 MB more at 7 and
#: 7.9 MB more at 8.
_TAIL_LABELS = 6


class Poset(Record):
    """Ground set 0..size-1 (an int) with a frozenset of cover relations
    (u, v) meaning u < v."""

    __slots__ = ("size", "covers")

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be >= 0")
        for u, v in self.covers:
            if not (0 <= u < self.size and 0 <= v < self.size):
                raise ValueError(f"cover {(u, v)} out of range for size {self.size}")
            if u == v:
                raise ValueError(f"self-loop {(u, v)}")

    @classmethod
    def from_covers(cls, size: int, covers: Iterable[tuple[int, int]]) -> "Poset":
        return cls(size, frozenset(covers))

    def check_labeling(self, labels: tuple[int, ...]) -> bool:
        """Whether labels is a bijection onto 1..size respecting all covers."""
        if sorted(labels) != list(range(1, self.size + 1)):
            return False
        return all(labels[u] < labels[v] for u, v in self.covers)


def check_size(size: int, max_size: int) -> None:
    """Refuse a poset of size elements past the guard max_size
    (GuardExceeded) or past the interpreter's recursion limit
    (RecursionError), which the DP and the enumerator, recursing once per
    element, would reach anyway.  Only the size is needed, so a caller
    can refuse a poset before building it; the DP and the enumerator
    refuse before building its cover masks (memory quadratic in size).
    """
    check_guard(size, max_size, "max_size", "elements in the poset")
    limit = sys.getrecursionlimit()
    if size > limit:
        raise RecursionError(
            f"a poset of {size} elements recurses past the "
            f"recursion limit of {limit}"
        )


def _cover_masks(poset: Poset) -> tuple[list[int], list[int]]:
    """Immediate-successor and immediate-predecessor bitmasks of every
    element; raises ValueError on a cycle, which a
    :class:`graphlib.TopologicalSorter` over the covers detects."""
    succs = [0] * poset.size
    preds = [0] * poset.size
    order = TopologicalSorter()
    for u, v in poset.covers:
        succs[u] |= 1 << v
        preds[v] |= 1 << u
        order.add(v, u)
    try:
        order.prepare()
    except CycleError:
        raise ValueError("cover relation contains a cycle") from None
    return succs, preds


def count_linear_extensions(
    poset: Poset, *, max_size: int = DEFAULT_MAX_COUNT_SIZE
) -> int:
    """Exact number of linear extensions, by DP over down-set bitmasks.

    ways(D) = sum of ways(D - {v}) over the maximal elements v of the
    down-set D.  Each call is handed those maximal elements as a bitmask,
    so it never scans D for them; removing v leaves the others maximal
    and makes maximal each predecessor of v whose successors have all
    gone.  The memo is tested before the call, so each down-set is
    entered once.

    Twins are elements with the same immediate predecessors and
    successors.  They are incomparable (a chain from one to the other
    would pass through a successor both share, a cycle), and swapping
    two of them maps the cover relation onto itself, so it maps
    labelings onto labelings.  The k! orders of a class of k twins
    therefore occur equally often: the DP counts the labelings that
    order each class by index, with the class chained x1 < ... < xk,
    and the result is that count times the product of the k!.  The
    chain links are covers the DP adds, and the DP stays exact with
    them: an element is maximal in a down-set exactly when none of its
    successors is in it.  This cuts the down-sets only where twins
    exist: the two leaves of every IBF shrub are twins (9 841 down-sets
    instead of 87 381 at n = 8); the adjacent-chain families have none.

    The recursion is one frame per removed element, as deep as the
    poset is large: a poset beyond the interpreter's recursion limit
    raises RecursionError before any work, which the CLI reports as a
    usage error (exit 2).
    """
    check_size(poset.size, max_size)
    succs, preds = _cover_masks(poset)
    if poset.size == 0:
        return 1
    twins: dict[tuple[int, int], list[int]] = {}
    for v in range(poset.size):
        twins.setdefault((preds[v], succs[v]), []).append(v)
    orders = 1  # the orderings of every twin class among themselves
    for members in twins.values():
        orders *= factorial(len(members))
        for u, v in pairwise(members):  # chain the class: x1 < ... < xk
            succs[u] |= 1 << v
            preds[v] |= 1 << u
    # per element v: (bit of u, successor mask of u) for each predecessor u
    below = [
        [(1 << u, succs[u]) for u in range(poset.size) if preds[v] >> u & 1]
        for v in range(poset.size)
    ]
    memo = {0: 1}

    def ways(mask: int, tops: int) -> int:
        # tops: the maximal elements of the down-set mask
        total = 0
        m = tops
        while m:
            low = m & -m
            m ^= low
            rest = mask ^ low
            count = memo.get(rest)
            if count is None:
                after = tops ^ low
                for bit, s in below[low.bit_length() - 1]:
                    if s & rest == 0:  # u's last successor was v
                        after |= bit
                count = ways(rest, after)
            total += count
        memo[mask] = total
        return total

    tops = sum(1 << v for v in range(poset.size) if not succs[v])
    return orders * ways((1 << poset.size) - 1, tops)


def enumerate_linear_extensions(
    poset: Poset, *, max_size: int = DEFAULT_MAX_ENUM_SIZE
) -> Iterator[tuple[int, ...]]:
    """Yield every labeling once, sorted lexicographically as label words.

    A labeling is the tuple (label of element 0, ..., label of element
    size-1).  The labelings are produced one bucket at a time: bucket a
    holds those that give element 0 the label a, and every labeling in
    it sorts before those of bucket a+1, so only one bucket is ever
    held and sorted.

    Within a bucket, labels 1..size-T (T = _TAIL_LABELS) are placed by
    backtracking.  The last T labels come from a table of completions,
    filled on first use and kept for every bucket: it is keyed by the
    set of unplaced elements (an up-set), and splits each set's
    completions by the label they give element 0, so a bucket reads
    only those that agree with its pin.  The head and the table follow
    one rule: the next label goes to an element of the unplaced set
    with no predecessor in that set.  A labeling is held as one int
    with a fixed-width field per element, element 0 in the most
    significant field, so a labeling is its head's int or'ed with a
    completion's, and int order is the order of label words.  The
    recursion takes one frame per label (and two more), so a poset
    beyond the interpreter's recursion limit raises RecursionError
    before any work.
    """
    check_size(poset.size, max_size)
    _, preds = _cover_masks(poset)
    size = poset.size
    if size == 0:
        yield ()
        return
    fmt = "B" if size < 256 else "H" if size < 65536 else "I"  # a label's field
    nbytes = struct.calcsize(fmt)
    shifts = [8 * nbytes * (size - 1 - v) for v in range(size)]
    split = max(0, size - _TAIL_LABELS)  # the last label placed by backtracking
    # unplaced up-set -> {label of element 0 (0 if it is placed): codes}
    @cache
    def completions(rest: int) -> dict[int, list[int]]:
        if not rest:
            return {0: [0]}
        label = size + 1 - rest.bit_count()  # the first label rest takes
        found: dict[int, list[int]] = {}
        m = rest
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if preds[v] & rest:
                continue  # not minimal in rest
            code = label << shifts[v]
            for key, codes in completions(rest ^ low).items():
                found.setdefault(label if v == 0 else key, []).extend(
                    map(code.__or__, codes)
                )
        return found

    bucket: list[int] = []

    def place(label: int, rest: int, prefix: int) -> None:
        # rest: the unplaced elements
        if label > split:
            bucket.extend(map(prefix.__or__, completions(rest).get(key, ())))
            return
        # element 0 takes the bucket's label and no other
        m = rest & 1 if label == pinned else rest & ~1
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if preds[v] & rest == 0:  # minimal in rest
                place(label + 1, rest ^ low, prefix | label << shifts[v])

    decode = struct.Struct(f">{size}{fmt}").unpack  # a labeling's bytes
    for pinned in range(1, size + 1):
        key = pinned if pinned > split else 0  # element 0's label in the tail
        place(1, (1 << size) - 1, 0)
        bucket.sort()
        words = map(int.to_bytes, bucket, repeat(size * nbytes), repeat("big"))
        yield from map(decode, words)
        bucket.clear()


def _shrub_covers(n: int, links: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """n shrubs, each root below both of its leaves; a link (a, b) puts
    position a of every shrub below position b of the next (0 root,
    1 left leaf, 2 right leaf)."""
    covers = [(3 * i, 3 * i + leaf) for i in range(n) for leaf in (1, 2)]
    covers += [(3 * i + a, 3 * i + 3 + b) for i in range(n - 1) for a, b in links]
    return covers


def _linked_poset(n: int, links: tuple[tuple[int, int], ...]) -> Poset:
    if n < 1:
        raise ValueError("n must be >= 1")
    return Poset.from_covers(3 * n, _shrub_covers(n, links))


def build_isf_poset(n: int) -> Poset:
    """Forests whose right leaf precedes the next root (word boundaries ascend)."""
    return _linked_poset(n, ((2, 0),))


def build_ibf_poset(n: int) -> Poset:
    """Forests whose roots increase left to right."""
    return _linked_poset(n, ((0, 0),))


def build_lex_poset(n: int) -> Poset:
    """Componentwise-increasing forests: three rows of n, chained left to
    right, with each root below both of its leaves."""
    return _linked_poset(n, ((0, 0), (1, 1), (2, 2)))


def build_adjacent_poset(variant: str, n: int) -> Poset:
    """The adjacent-chain poset families.

    ``A``: n shrubs with the right leaf of each below the left leaf of
    the next.  ``E`` adds one extra node above the last right leaf;
    ``S`` adds one extra node below the first left leaf; ``B`` adds
    both.  n = 0 degenerates to the empty poset, a point, a point, and
    a two-chain respectively.
    """
    if variant not in ("A", "E", "S", "B"):
        raise ValueError(f"unknown variant {variant!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    size = 3 * n
    start = end = None  # the caps, numbered after the shrubs
    if variant in ("S", "B"):
        start, size = size, size + 1
    if variant in ("E", "B"):
        end, size = size, size + 1
    # start? -> left leaf, right leaf -> next left leaf, ..., right leaf -> end?
    chain = [start, *(3 * i + leaf for i in range(n) for leaf in (1, 2)), end]
    covers = _shrub_covers(n, ())
    covers += [(u, v) for u, v in zip(chain[::2], chain[1::2]) if None not in (u, v)]
    return Poset.from_covers(size, covers)
