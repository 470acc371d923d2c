"""Finite posets with a linear-extension counting/enumeration oracle.

A labeling (linear extension) assigns {1..size} bijectively to the
elements so that every cover (u, v) gets label(u) < label(v).  Counting
runs a dynamic program over down-sets keyed by bitmask, one level per
element removed: each level removes every maximal element of each
down-set of the level above, and only two levels are held.
Enumeration is intended for smaller posets.  It is one recursion, which
gives the next label to an unplaced element none of whose predecessors
is unplaced and stops once element 0 has its label and few enough
elements remain.  It looks for that element only among candidates
carried down as a bitmask, since placing an element can make only its
successors minimal.  Streamed from the whole poset, it gives the heads
of the labelings, stopping at ``_TAIL_LABELS`` elements; cached per
unplaced set (an up-set without element 0), run to the end, it gives the
table of completions that finishes them.  Element 0 is pinned only to
the labels it can take, so no bucket is searched for nothing.  Each
labeling is held as one int (a fixed-width field per element), and the
labelings are sorted one bucket at a time, a bucket being those that
give elements 0 and 1 the same two labels.  A sorted bucket leaves in
pieces of a few hundred labelings as bytes, which
:func:`enumerate_linear_extensions` unpacks into tuples and
:func:`labeling_blocks` decodes into strings of one character per
label, for a listing to render a digit column at a time.
Counting and enumeration refuse a cover relation with a cycle, which
:class:`graphlib.TopologicalSorter` detects.

A poset whose Hasse diagram is a tree has a faster count, Atkinson's
DP, which merges the tables of subtrees in O(size²) products.  Six of
the seven families are trees.  ISF and IBF have 3n - 1 covers and are
connected.  The four adjacent-chain families are fences, trees that are
paths: each shrub's root sits between its two leaves, and each right
leaf lies below the next left leaf, so the path runs
L₀ > r₀ < R₀ < L₁ > r₁ < R₁ < ..., with S's cap below L₀ and E's above
the last R.  The tree count is the one count of a fence: rooted at one
end, a fence is walked with the DP's one-element step alone, an up/down
walk in O(size²) additions.  The command line counts the six trees this
way and keeps the down-set DP for the grid poset L, whose diagram has
cycles; the down-set DP stays the oracle the tree count is tested
against.

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
from itertools import accumulate, islice, repeat
from math import comb
from typing import Iterable, Iterator

from .names import DEFAULT_MAX_COUNT_SIZE, DEFAULT_MAX_ENUM_SIZE, check_guard
from .record import Record

#: Labels each labeling takes from the table of completions rather than
#: by backtracking.  Draining A at n = 4 in one process, 5 to 7 took 0.31
#: to 0.36 s of CPU, 4 and 8 took 0.42 to 0.55 s, and backtracking every
#: label took 2.7 to 3.3 s; the peak RSS was least at 6, 15.5 MB, and
#: 0.3 to 2.0 MB more at 4, 5, 7 and 8 (three runs each, Xeon, Python
#: 3.11.7).
_TAIL_LABELS = 6

#: Labelings per piece of :func:`_label_pieces`.  Listing A at n = 4 as
#: text, rendered a digit column at a time, pieces of 256 labelings took
#: a median 0.32 to 0.39 s of CPU, 1 024 took 0.31 to 0.33 s and 4 096
#: 0.32 to 0.34 s, and they peaked at 16.5, 16.6 and 17.9 MB of RSS (two
#: sittings of eight alternating runs, Xeon, Python 3.11.7): no size
#: beats 256 on both.
_PIECE = 256


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
    (RecursionError), which the enumerator, recursing once per element,
    would reach anyway.  The DP does not recurse but keeps the same
    refusal, so that one size policy covers both.  Only the size is
    needed, so a caller can refuse a poset before building it; the DP
    and the enumerator refuse before building its cover masks (memory
    quadratic in size).
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

    A labeling read from its largest label down removes one maximal
    element at a time.  The DP runs level by level from the whole
    poset: layer maps each down-set D of k elements to the number of
    ways to remove the others, and the next layer adds that number to
    D - {v} for each maximal v of each D, an element none of whose
    successors is in D.  The count is the empty set's, after size
    levels.  Only two levels are held at a time, and nothing recurses;
    a poset past the recursion limit is still refused (:func:`check_size`).

    The work grows with the number of down-sets, which is exponential
    in the width of the poset: IBF at n = 8 has 87 381, L 285.  A poset
    whose Hasse diagram is a tree, as six of the seven families' are,
    counts in O(size²) by :func:`count_tree_extensions` instead; this DP
    is the oracle it is tested against.
    """
    check_size(poset.size, max_size)
    succs, _ = _cover_masks(poset)
    layer = {(1 << poset.size) - 1: 1}  # down-set -> labelings of the rest
    for _ in range(poset.size):
        below: dict[int, int] = {}
        for mask, count in layer.items():
            m = mask
            while m:
                low = m & -m
                m ^= low
                if succs[low.bit_length() - 1] & mask == 0:  # maximal in mask
                    rest = mask ^ low
                    below[rest] = below.get(rest, 0) + count
        layer = below
    return layer[0]


def count_tree_extensions(poset: Poset) -> int:
    """Exact number of linear extensions of a poset whose Hasse diagram
    is a tree, each cover pointing either way along its edge (M. D.
    Atkinson, "On computing the number of linear extensions of a tree",
    *Order* 7 (1990) 23-25).

    The tree is rooted at a leaf and its elements listed in BFS order,
    without recursion.  Each element keeps a table for its part, itself
    with the subtrees merged into it so far: f[i] counts the orders of
    the part in which the element has rank i (0-based).  Taken back from
    the end of the list, so leaves first, each element's table merges
    into its parent's and is dropped (:func:`_merge`).  The count is the
    sum of the root's table, after O(size²) products.  A part of one
    element takes the child's table as a prefix or suffix sum, which is
    the up or down step of a walk along a fence (Stanley, *Enumerative
    Combinatorics I*, §1.4), so a fence, rooted at one end, is walked end
    to end with that step alone.  Raises ValueError unless the covers
    form a tree: size - 1 of them, every element reached from the root.
    """
    size = poset.size
    if size == 0:
        return 1
    links: list[list[int]] = [[] for _ in range(size)]
    for u, v in poset.covers | {(v, u) for u, v in poset.covers}:
        links[u].append(v)  # u and v are neighbours in the diagram
    # (element, parent) pairs in BFS order from a leaf: the children of an
    # element are its neighbours but its parent.  On a cycle the list
    # outgrows the poset, so it is read no further than size pairs.
    order = [(min(range(size), key=lambda v: len(links[v])), -1)]
    for v, p in islice(order, size):  # read while it grows
        order += [(w, v) for w in links[v] if w != p]
    if len(order) != size or len(poset.covers) != size - 1:
        raise ValueError("the Hasse diagram of the poset is not a tree")
    tables = dict.fromkeys(range(size), [1])  # each part holds its element alone
    for v, p in reversed(order[1:]):  # every child before its parent
        tables[p] = _merge(tables[p], tables.pop(v), (p, v) in poset.covers)
    return sum(tables[order[0][0]])


def _merge(f: list[int], g: list[int], up: bool) -> list[int]:
    """The table of a part of a = len(f) elements with the subtree of a
    child, b = len(g) elements, merged into it; up when the child lies
    above the part's element v.

    G[j] counts the child's orders with exactly j of its elements before
    v: the suffix sum of g over ranks k >= j when the child lies above v,
    the prefix sum over k < j when below.  Then h[i + j] gets f[i] G[j]
    C(i + j, j) C(a - 1 - i + b - j, b - j), the binomials interleaving
    the elements before v and those after it.  When a = 1 both are 1 and
    h = G.
    """
    G = [*accumulate(g[::-1])][::-1] + [0] if up else [0, *accumulate(g)]
    if len(f) == 1:
        return G
    a, b = len(f), len(g)
    h = [0] * (a + b)
    for i, x in enumerate(f):
        for j, y in enumerate(G):
            h[i + j] += comb(i + j, j) * comb(a - 1 - i + b - j, b - j) * x * y
    return h


def enumerate_linear_extensions(
    poset: Poset, *, max_size: int = DEFAULT_MAX_ENUM_SIZE
) -> Iterator[tuple[int, ...]]:
    """Yield every labeling once, sorted lexicographically as label words.

    A labeling is the tuple (label of element 0, ..., label of element
    size-1).  The labelings are those of :func:`_label_pieces`, in its
    order: each piece's fields are unpacked by one
    :meth:`struct.Struct.iter_unpack`, a field of one byte below 256
    elements, two below 65 536 and four from there.
    """
    size = poset.size
    fmt = "B" if size < 256 else "H" if size < 65536 else "I"  # a label's field
    nbytes = struct.calcsize(fmt)
    unpack = struct.Struct(f">{size}{fmt}").iter_unpack
    for piece in _label_pieces(poset, max_size, nbytes):
        yield from unpack(piece) if piece else [()]  # no bytes: the empty poset


def labeling_blocks(
    poset: Poset, *, max_size: int = DEFAULT_MAX_ENUM_SIZE
) -> Iterator[str]:
    """Yield the labelings of :func:`enumerate_linear_extensions`, in its
    order, as strings of at most a few hundred labelings each: a labeling
    is size characters, ``chr(label)`` for element 0 first, then element
    1, and so on.  A string never spans two labels of element 0, so every
    labeling in it starts with the same character, and a caller can turn
    a string into text with a few calls of ``str.translate`` and strided
    slice assignments, none per label or labeling.  The empty poset
    yields one empty string, its one labeling.

    Each string is decoded from the big-endian fields of
    :func:`_label_pieces` by one codec: Latin-1 for one-byte fields,
    UTF-16 for two-byte fields and UTF-32 for four.  Two-byte fields stop
    below the surrogates (55 296), which UTF-16 would read in pairs as one
    character, and UTF-32 passes them through one by one.
    """
    size = poset.size
    nbytes, codec = (
        (1, "latin-1") if size < 256
        else (2, "utf-16-be") if size < 0xD800
        else (4, "utf-32-be")
    )
    for piece in _label_pieces(poset, max_size, nbytes):
        yield piece.decode(codec, "surrogatepass")


def _reach(masks: list[int], v: int) -> int:
    """The elements reached from v by one or more steps along masks (the
    successor masks for the elements above v, the predecessor masks for
    those below)."""
    reached, todo = 0, masks[v]
    while todo:
        low = todo & -todo
        reached |= low
        todo = (todo | masks[low.bit_length() - 1]) & ~reached
    return reached


def _label_pieces(poset: Poset, max_size: int, nbytes: int) -> Iterator[bytes]:
    """Yield every labeling once, sorted lexicographically as label
    words, in pieces of at most ``_PIECE`` labelings: a piece is one bytes
    holding each labeling's labels as big-endian fields of nbytes bytes,
    element 0 first.  The empty poset yields one empty piece.

    The labelings are produced one bucket at a time: bucket (a, b) holds
    those that give element 0 the label a and element 1 the label b, and
    every labeling in it sorts before those of any later pair, so only
    one bucket is ever held and sorted, and no piece spans two buckets.
    Element 0 takes only the labels from 1 + (the number of elements
    below it) to size - (the number above it), every one of which some
    labeling gives it, so no label is tried for an empty bucket.

    One recursive generator places the labels: with rest the unplaced
    elements, the next label, size + 1 - |rest|, goes to an element of
    rest with no predecessor in rest, and to element 0 only when it is
    the pinned label a.  It tests only its candidates, a bitmask that
    holds every such element and perhaps more: placing v leaves the
    candidates but v plus v's successors, the only elements that can
    have lost their last unplaced predecessor.  So a label costs a test
    per candidate, not one per element of rest, and a long chain beside
    a free element is not rescanned at every label.  It yields each
    (code, rest) once element 0 has its label and at most keep elements
    are unplaced.  Each label a streams it once from the whole poset,
    with the elements that have no predecessor as candidates and keep =
    T = _TAIL_LABELS, for the heads of its labelings.  Each head is
    finished from a table of completions, filled on first use and kept
    for every a: the same generator run with keep = 0 from the head's
    unplaced set, all of it candidates, cached by that set.  The set is
    an up-set without element 0, so every completion agrees with the
    pin.  A labeling is held as one int with a field of nbytes per
    element, element 0 in the most significant field and element 1 in
    the next, so a labeling is its head's int or'ed with a completion's,
    and int order is the order of label words.  A table entry splits
    its completions by the label they give element 1, into one part
    (keyed 0) when the head has placed element 1 already.  The heads of
    one a are held and grouped by element 1's label b, which the head's
    int or a part's key supplies: each head joins the group of every
    part of its entry, with that part's completions.

    The head nests one generator frame per label it places, and a table
    entry, filled beside the head rather than beneath it, at most T, so
    from a shallow stack a chain nearly as long as the interpreter's
    recursion limit enumerates.  A poset beyond that limit raises
    RecursionError before any work; one just below it can still raise
    it when the caller's stack is already deep.
    """
    check_size(poset.size, max_size)
    succs, preds = _cover_masks(poset)
    size = poset.size
    if size <= 1:
        yield size.to_bytes(size * nbytes, "big")  # the one labeling, (1,) or ()
        return
    shifts = [8 * nbytes * (size - 1 - v) for v in range(size)]

    def labelings(
        rest: int, near: int, keep: int, pinned: int
    ) -> Iterator[tuple[int, int]]:
        # rest: the unplaced elements; near: the candidates, every minimal
        # element of rest and perhaps more; element 0 takes the label pinned only
        if rest.bit_count() <= keep and not rest & 1:
            yield 0, rest
            return
        label = size + 1 - rest.bit_count()  # the next label to place
        m = near & 1 if label == pinned else near & ~1
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if preds[v] & rest == 0:  # minimal in rest
                code = label << shifts[v]
                after = near ^ low | succs[v]  # only v's successors can turn minimal
                for prefix, left in labelings(rest ^ low, after, keep, pinned):
                    yield code | prefix, left

    # unplaced up-set without element 0 -> the codes of its completions,
    # split by the label they give element 1 (0 if it is placed already);
    # no label is 0, so nothing is pinned
    @cache
    def completions(rest: int) -> dict[int, list[int]]:
        split: dict[int, list[int]] = {}
        for code, _ in labelings(rest, rest, 0, 0):
            split.setdefault(code >> shifts[1], []).append(code)
        return split

    width = size * nbytes  # a labeling's bytes
    sources = sum(1 << v for v in range(size) if not preds[v])
    lowest = 1 + _reach(preds, 0).bit_count()  # after every element below 0
    highest = size - _reach(succs, 0).bit_count()  # before every one above
    for pinned in range(lowest, highest + 1):
        # the labels of elements 0 and 1 -> the heads with their completions
        groups: dict[int, list[tuple[int, list[int]]]] = {}
        for prefix, rest in labelings((1 << size) - 1, sources, _TAIL_LABELS, pinned):
            top = prefix >> shifts[1]  # element 0's label, and 1's if placed
            for second, codes in completions(rest).items():
                groups.setdefault(top | second, []).append((prefix, codes))
        for key in sorted(groups):
            bucket: list[int] = []
            for prefix, codes in groups.pop(key):
                bucket.extend(map(prefix.__or__, codes))
            bucket.sort()
            for i in range(0, len(bucket), _PIECE):
                piece = bucket[i : i + _PIECE]
                yield b"".join(map(int.to_bytes, piece, repeat(width), repeat("big")))


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
    a two-chain respectively.  Each is a fence (its Hasse diagram is a
    path), so :func:`count_tree_extensions`, the one count of a fence,
    counts it by walking the path from one end.
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
