import random
import sys
import time
import tracemalloc
from itertools import pairwise, permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubstat import (
    GuardExceeded,
    Poset,
    RiseKind,
    XPoly,
    build_adjacent_poset,
    build_ibf_poset,
    build_isf_poset,
    build_lex_poset,
    count_linear_extensions,
    count_tree_extensions,
    enumerate_linear_extensions,
    forest_from_perm,
    ibf,
    ilf,
    linext_seq,
    shrub_less,
    within_rise_poly,
    within_shrub_rises,
)
from shrubstat import posets
from shrubstat.posets import _TAIL_LABELS
from shrubstat.posets import _PIECE, labeling_blocks


def chain(k):
    return Poset.from_covers(k, [(i, i + 1) for i in range(k - 1)])


def antichain(k):
    return Poset.from_covers(k, [])


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset.from_covers(2, [(0, 2)])
    with pytest.raises(ValueError):
        Poset.from_covers(2, [(1, 1)])
    with pytest.raises(ValueError):
        Poset.from_covers(-1, [])


def test_a_cover_from_element_size_is_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Poset.from_covers(2, [(2, 0)])


def test_check_size_accepts_the_recursion_limit():
    limit = sys.getrecursionlimit()
    posets.check_size(limit, limit)
    with pytest.raises(RecursionError):
        posets.check_size(limit + 1, limit + 1)


def test_cycle_detection():
    cyclic = Poset.from_covers(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        count_linear_extensions(cyclic)
    with pytest.raises(ValueError):
        list(enumerate_linear_extensions(cyclic))


def test_chain_and_antichain_counts():
    assert count_linear_extensions(chain(7)) == 1
    assert count_linear_extensions(antichain(4)) == 24
    assert count_linear_extensions(antichain(0)) == 1
    assert list(enumerate_linear_extensions(chain(3))) == [(1, 2, 3)]


def test_enumeration_matches_count_and_is_sorted():
    for poset in (
        antichain(3),
        build_isf_poset(2),
        build_ibf_poset(2),
        build_lex_poset(2),
        build_adjacent_poset("B", 1),
        # split 0, then 1: the head stops once element 0 is labeled
        antichain(_TAIL_LABELS),
        antichain(_TAIL_LABELS + 1),
        build_adjacent_poset("A", 3),
        # element 0 maximal: the head backtracks past split to label it
        Poset.from_covers(9, [(1, 0), (2, 0), (3, 4), (4, 5), (6, 7), (7, 8)]),
        # 300 elements: two bytes per label; element 0 is free
        Poset.from_covers(300, [(i, i + 1) for i in range(1, 299)]),
    ):
        labelings = list(enumerate_linear_extensions(poset, max_size=poset.size))
        assert len(labelings) == count_linear_extensions(poset, max_size=poset.size)
        assert labelings == sorted(labelings)
        assert len(set(labelings)) == len(labelings)
        assert all(poset.check_labeling(lab) for lab in labelings)


def test_guards():
    with pytest.raises(GuardExceeded):
        count_linear_extensions(antichain(25))
    with pytest.raises(GuardExceeded):
        list(enumerate_linear_extensions(antichain(13)))
    assert count_linear_extensions(chain(30), max_size=30) == 1


def test_depth_is_checked_before_the_masks(monkeypatch):
    # a poset past the recursion limit fails before any per-element masks
    def no_masks(poset):
        raise AssertionError("_cover_masks ran")

    monkeypatch.setattr(posets, "_cover_masks", no_masks)
    size = sys.getrecursionlimit() + 1
    poset = antichain(size)
    for attempt in (
        lambda: count_linear_extensions(poset, max_size=size),
        lambda: next(enumerate_linear_extensions(poset, max_size=size)),
    ):
        with pytest.raises(RecursionError, match=f"{size} elements.* {size - 1}"):
            attempt()


@st.composite
def dags(draw, min_size=0, max_size=7, max_dropped=None):
    """Random posets on min_size..max_size elements; the topological order
    is a random permutation, so element 0 may have predecessors.  Each
    pair in that order is a cover unless dropped; max_dropped caps the
    dropped pairs, and so the labelings at 2**max_dropped, since a
    labeling can only invert dropped pairs."""
    size = draw(st.integers(min_size, max_size))
    order = draw(st.permutations(range(size)))
    pairs = [(order[i], order[j]) for i in range(size) for j in range(i + 1, size)]
    if max_dropped is None:
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    else:
        dropped = draw(st.sets(st.integers(0, len(pairs) - 1), max_size=max_dropped))
        keep = [i not in dropped for i in range(len(pairs))]
    return Poset.from_covers(size, [pair for pair, k in zip(pairs, keep) if k])


@settings(deadline=None)
@given(dags())
def test_enumeration_equals_sorted_filtered_permutations(poset):
    brute = [
        p
        for p in permutations(range(1, poset.size + 1))
        if poset.check_labeling(p)
    ]
    assert list(enumerate_linear_extensions(poset)) == brute


@settings(deadline=None)
@given(dags(min_size=8, max_size=11, max_dropped=10))
def test_enumeration_past_the_tail(poset):
    # 8..11 elements: the first labels are backtracked, the last from the table
    labelings = list(enumerate_linear_extensions(poset))
    assert labelings == sorted(set(labelings))
    assert all(poset.check_labeling(lab) for lab in labelings)
    assert len(labelings) == count_linear_extensions(poset)


@settings(deadline=None)
@given(dags(min_size=2), st.data())
def test_planted_cycles_are_refused(poset, data):
    # a path through distinct elements, closed by one edge back to its start
    order = data.draw(st.permutations(range(poset.size)))
    path = order[: data.draw(st.integers(2, poset.size))]
    covers = {*poset.covers, *zip(path, path[1:]), (path[-1], path[0])}
    cyclic = Poset.from_covers(poset.size, covers)
    with pytest.raises(ValueError, match="cycle"):
        count_linear_extensions(cyclic)
    with pytest.raises(ValueError, match="cycle"):
        list(enumerate_linear_extensions(cyclic))


@settings(deadline=None)
@given(dags())
def test_count_equals_filtered_permutations(poset):
    brute = sum(
        poset.check_labeling(p) for p in permutations(range(1, poset.size + 1))
    )
    assert count_linear_extensions(poset) == brute


@settings(deadline=None)
@given(dags(min_size=1, max_size=5), st.data())
def test_planted_twins_are_counted_exactly(poset, data):
    # copies of one element's covers make its twins: the DP chains the
    # class and multiplies by k!, which must agree with brute force
    twin = data.draw(st.integers(0, poset.size - 1))
    extra = data.draw(st.integers(1, 3))
    covers = set(poset.covers)
    for w in range(poset.size, poset.size + extra):
        covers |= {(u, w) for u, v in poset.covers if v == twin}
        covers |= {(w, v) for u, v in poset.covers if u == twin}
    planted = Poset.from_covers(poset.size + extra, covers)
    brute = sum(
        all(p[u] < p[v] for u, v in covers)
        for p in permutations(range(planted.size))
    )
    assert count_linear_extensions(planted) == brute


def test_count_from_a_nearly_full_stack():
    # the DP nests no frame per element: a 20-element chain counts with
    # about 12 frames left below the recursion limit
    poset = chain(20)
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()

    def count_at(left):  # left: the frames below the limit
        return count_linear_extensions(poset) if left <= 12 else count_at(left - 1)

    sys.setrecursionlimit(depth + 60)
    try:
        assert count_at(59) == 1
    finally:
        sys.setrecursionlimit(limit)


def test_ibf_poset_counts_past_brute_force():
    # every shrub's two leaves are twins
    for n in (5, 6, 7, 8):
        assert count_linear_extensions(build_ibf_poset(n), max_size=3 * n) == ibf(n)


def test_enumeration_edge_sizes():
    assert list(enumerate_linear_extensions(Poset.from_covers(0, []))) == [()]
    assert list(enumerate_linear_extensions(chain(300), max_size=300)) == [
        tuple(range(1, 301))
    ]


@pytest.mark.parametrize("size", [255, 256])
def test_enumeration_at_the_field_width_switch(size):
    # element 0 is free and the others form a chain, so element 0 takes
    # any label and the chain takes the rest in order
    poset = Poset.from_covers(size, [(i, i + 1) for i in range(1, size - 1)])
    labels = range(1, size + 1)
    expected = [(a, *(label for label in labels if label != a)) for a in labels]
    assert list(enumerate_linear_extensions(poset, max_size=size)) == expected


@pytest.mark.parametrize("size, fmt", [(65_535, "H"), (65_536, "I")])
def test_field_width_of_a_label(monkeypatch, size, fmt):
    # a poset this large cannot be enumerated (the recursion-limit check
    # refuses it first), so the enumerator is stopped where it sizes a
    # label's field
    class Sized(Exception):
        pass

    def calcsize(chosen):
        raise Sized(chosen)

    monkeypatch.setattr(posets, "check_size", lambda size, max_size: None)
    monkeypatch.setattr(posets, "_cover_masks", lambda p: ([0] * p.size,) * 2)
    monkeypatch.setattr(posets, "struct", SimpleNamespace(calcsize=calcsize))
    with pytest.raises(Sized) as sized:
        next(enumerate_linear_extensions(antichain(size)))
    assert sized.value.args == (fmt,)


@pytest.mark.parametrize("size", [1, 255, 256])
def test_labeling_blocks_decode_to_the_labelings(size):
    # one character per label: Latin-1 fields below 256 elements, UTF-16
    # from there; element 0 is free and the others form a chain
    poset = Poset.from_covers(size, [(i, i + 1) for i in range(1, size - 1)])
    blocks = list(labeling_blocks(poset, max_size=size))
    rows = [
        tuple(map(ord, block[i : i + size]))
        for block in blocks
        for i in range(0, len(block), size)
    ]
    assert rows == list(enumerate_linear_extensions(poset, max_size=size))
    assert len(blocks) == size  # one bucket per label of element 0


def test_the_empty_poset_is_one_empty_block():
    assert list(labeling_blocks(antichain(0))) == [""]


def test_labeling_blocks_keep_surrogate_labels_apart(monkeypatch):
    # labels 55 296 and 56 320 are a UTF-16 surrogate pair, which two-byte
    # fields would decode as one character; the pieces are stubbed, as no
    # poset this large can be enumerated
    labels = (0xD800, 0xDC00)

    def pieces(poset, max_size, nbytes):
        yield b"".join(label.to_bytes(nbytes, "big") for label in labels)

    monkeypatch.setattr(posets, "_label_pieces", pieces)
    assert list(labeling_blocks(antichain(0xDC01))) == ["".join(map(chr, labels))]


def test_a_labeling_block_holds_one_label_of_element_0():
    poset = build_adjacent_poset("B", 3)
    blocks = list(labeling_blocks(poset))
    assert all(0 < len(block) <= _PIECE * poset.size for block in blocks)
    assert all(len(set(block[:: poset.size])) == 1 for block in blocks)
    assert sum(len(block) for block in blocks) == 74_601 * poset.size


@pytest.mark.parametrize(
    "poset",
    [
        build_adjacent_poset("A", 3),  # element 0 below three: labels 1 to 6
        build_adjacent_poset("B", 2),
        # element 0 above two: labels 3 to 9
        Poset.from_covers(9, [(1, 0), (2, 0), (3, 4), (4, 5), (6, 7), (7, 8)]),
    ],
)
def test_no_head_runs_for_a_label_element_0_never_takes(poset):
    # a profile hook records the label each call of the head generator
    # pins; the table of completions runs the same generator pinning 0
    pinned = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "labelings":
            pinned.add(frame.f_locals["pinned"])

    sys.setprofile(hook)
    try:
        firsts = {labeling[0] for labeling in enumerate_linear_extensions(poset)}
    finally:
        sys.setprofile(None)
    assert pinned - {0} == firsts


def test_draining_holds_one_bucket_per_labels_of_elements_0_and_1():
    # B at n = 3 has 74 601 labelings, at most 4 293 in a bucket keyed
    # by the labels of elements 0 and 1 (a traced peak of about 0.4 MB)
    # but 21 465 with element 0's label alone (about 1.1 MB)
    poset = build_adjacent_poset("B", 3)
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_linear_extensions(poset))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 74_601
    assert peak < 600_000


def test_a_bucket_mixes_heads_with_and_without_element_1():
    # the head stops after two labels: with element 0 at label 1, label 2
    # goes to element 1 in some heads and to elements 2, 5 or 7 in
    # others, which leave element 1 to the table of completions
    poset = Poset.from_covers(_TAIL_LABELS + 2, [(2, 3), (3, 4), (5, 6)])
    brute = [
        p
        for p in permutations(range(1, poset.size + 1))
        if poset.check_labeling(p)
    ]
    assert list(enumerate_linear_extensions(poset)) == brute


def test_free_plus_chain_drains_in_quadratic_time():
    # each label has one or two candidates; a head that tests every
    # unplaced element per label takes tens of seconds
    size = 600
    poset = Poset.from_covers(size, [(i, i + 1) for i in range(1, size - 1)])
    start = time.process_time()
    count = sum(1 for _ in enumerate_linear_extensions(poset, max_size=size))
    assert count == size and time.process_time() - start < 5


def test_adjacent_family_base_counts():
    got = tuple(
        count_linear_extensions(build_adjacent_poset(v, 1)) for v in "AESB"
    )
    assert got == (2, 3, 5, 9)


def test_adjacent_family_degenerate_cases():
    assert count_linear_extensions(build_adjacent_poset("A", 0)) == 1
    assert count_linear_extensions(build_adjacent_poset("E", 0)) == 1
    assert count_linear_extensions(build_adjacent_poset("S", 0)) == 1
    # the two-chain
    b0 = build_adjacent_poset("B", 0)
    assert b0.size == 2 and count_linear_extensions(b0) == 1


def test_adjacent_family_sizes():
    assert build_adjacent_poset("A", 5).size == 15
    assert build_adjacent_poset("E", 5).size == 16
    assert build_adjacent_poset("S", 5).size == 16
    assert build_adjacent_poset("B", 5).size == 17


# Exact cover sets: elements 3i, 3i+1, 3i+2 are the root, left leaf and
# right leaf of shrub i; the caps of E, S and B come after the shrubs (in
# B the start cap first), and list output prints labels in this order.
ONE_SHRUB = {(0, 1), (0, 2)}
TWO_SHRUBS = ONE_SHRUB | {(3, 4), (3, 5)}
FAMILY_COVERS = {
    ("A", 0): (0, set()),
    ("A", 1): (3, ONE_SHRUB),
    ("A", 2): (6, TWO_SHRUBS | {(2, 4)}),
    ("E", 0): (1, set()),
    ("E", 1): (4, ONE_SHRUB | {(2, 3)}),
    ("E", 2): (7, TWO_SHRUBS | {(2, 4), (5, 6)}),
    ("S", 0): (1, set()),
    ("S", 1): (4, ONE_SHRUB | {(3, 1)}),
    ("S", 2): (7, TWO_SHRUBS | {(2, 4), (6, 1)}),
    ("B", 0): (2, {(0, 1)}),
    ("B", 1): (5, ONE_SHRUB | {(3, 1), (2, 4)}),
    ("B", 2): (8, TWO_SHRUBS | {(2, 4), (6, 1), (5, 7)}),
    ("ISF", 1): (3, ONE_SHRUB),
    ("ISF", 2): (6, TWO_SHRUBS | {(2, 3)}),
    ("IBF", 1): (3, ONE_SHRUB),
    ("IBF", 2): (6, TWO_SHRUBS | {(0, 3)}),
    ("L", 1): (3, ONE_SHRUB),
    ("L", 2): (6, TWO_SHRUBS | {(0, 3), (1, 4), (2, 5)}),
}


@pytest.mark.parametrize("family, n", sorted(FAMILY_COVERS))
def test_family_cover_sets(family, n):
    builders = {"ISF": build_isf_poset, "IBF": build_ibf_poset, "L": build_lex_poset}
    if family in builders:
        poset = builders[family](n)
    else:
        poset = build_adjacent_poset(family, n)
    assert (poset.size, set(poset.covers)) == FAMILY_COVERS[family, n]


def test_adjacent_family_matches_recurrences():
    for n in (0, 1, 2, 3):
        for variant, kind in (("A", "LA"), ("E", "LE"), ("S", "LS"), ("B", "LB")):
            got = count_linear_extensions(build_adjacent_poset(variant, n))
            assert got == linext_seq(kind, n), (variant, n)


def test_fence_count_equals_the_down_set_dp_on_the_chain_families():
    for variant in "AESB":
        for n in range(9):
            poset = build_adjacent_poset(variant, n)
            want = count_linear_extensions(poset, max_size=poset.size)
            assert count_tree_extensions(poset) == want, (variant, n)


def test_fence_count_equals_the_down_set_dp_on_random_fences():
    # a path of 2..12 elements, numbered at random, each cover either way
    rng = random.Random(2201)
    for _ in range(250):
        size = rng.randint(2, 12)
        order = rng.sample(range(size), size)
        covers = [
            (u, v) if rng.random() < 0.5 else (v, u) for u, v in pairwise(order)
        ]
        poset = Poset.from_covers(size, covers)
        assert count_tree_extensions(poset) == count_linear_extensions(poset)


def test_fence_count_equals_the_recurrences_to_n_120():
    start = time.process_time()
    for variant in "AESB":
        for n in range(121):
            got = count_tree_extensions(build_adjacent_poset(variant, n))
            assert got == linext_seq("L" + variant, n), (variant, n)
    assert time.process_time() - start < 5


def test_fence_count_walks_with_the_one_element_step(monkeypatch):
    # rooted at one end, every part of a fence is its element alone, so
    # the walk never reaches _merge's binomials
    def no_comb(n, k):
        raise AssertionError("a fence was merged with binomials")

    monkeypatch.setattr(posets, "comb", no_comb)
    for variant in "AESB":
        got = count_tree_extensions(build_adjacent_poset(variant, 50))
        assert got == linext_seq("L" + variant, 50), variant


def test_tree_count_equals_the_down_set_dp_on_isf_and_ibf():
    for build in (build_isf_poset, build_ibf_poset):
        for n in range(1, 9):
            poset = build(n)
            want = count_linear_extensions(poset, max_size=poset.size)
            assert count_tree_extensions(poset) == want, (build.__name__, n)


def test_tree_count_equals_the_down_set_dp_on_random_trees():
    # 1..13 elements numbered at random; each element after the first
    # hangs from an earlier one, by a cover pointing either way
    rng = random.Random(2701)
    for _ in range(300):
        size = rng.randint(1, 13)
        name = rng.sample(range(size), size)
        covers = []
        for v in range(1, size):
            u, w = name[rng.randrange(v)], name[v]
            covers.append((u, w) if rng.random() < 0.5 else (w, u))
        poset = Poset.from_covers(size, covers)
        assert count_tree_extensions(poset) == count_linear_extensions(poset), covers


def test_tree_count_equals_ibf_and_the_chain_recurrences():
    for n in range(60):
        if n:
            assert count_tree_extensions(build_ibf_poset(n)) == ibf(n), n
        for variant in "AESB":
            got = count_tree_extensions(build_adjacent_poset(variant, n))
            assert got == linext_seq("L" + variant, n), (variant, n)


def test_tree_merge_ranks_the_part_element():
    # f[i] counts the orders of a part in which its element v has rank i;
    # a count cannot tell the orientation, since the dual poset has as
    # many labelings.  v below its one child comes first, above it last.
    assert posets._merge([1], [1], True) == [1, 0]
    assert posets._merge([1], [1], False) == [0, 1]
    # v < x, merged with a child w above v: v comes first in both orders
    assert posets._merge([1, 0], [1], True) == [2, 0, 0]
    assert posets._merge([1, 0], [1], False) == [0, 1, 0]


def test_tree_count_of_the_smallest_posets():
    assert count_tree_extensions(antichain(0)) == 1
    assert count_tree_extensions(antichain(1)) == 1


def test_tree_count_does_not_recurse():
    # a chain longer than the recursion limit: one labeling
    size = sys.getrecursionlimit() + 100
    assert count_tree_extensions(chain(size)) == 1


@pytest.mark.parametrize(
    "poset",
    [
        antichain(3),
        Poset.from_covers(4, [(0, 1), (2, 3)]),  # two disjoint 2-chains
        Poset.from_covers(5, [(0, 1), (2, 3), (3, 4), (2, 4)]),  # triangle + edge
        # a triangle with a pendant element, which is the first leaf, plus
        # an edge: size - 1 covers, and the walk from the leaf meets the cycle
        Poset.from_covers(6, [(0, 1), (1, 2), (1, 3), (2, 3), (4, 5)]),
        build_lex_poset(2),
        Poset.from_covers(2, [(0, 1), (1, 0)]),  # a 2-cycle
        Poset.from_covers(3, [(0, 1), (1, 0)]),  # a 2-cycle beside a point
    ],
)
def test_tree_count_refuses_a_poset_that_is_not_a_tree(poset):
    with pytest.raises(ValueError, match="not a tree"):
        count_tree_extensions(poset)


def test_isf_poset_counts_and_words():
    assert [lab for lab in enumerate_linear_extensions(build_isf_poset(1))] == [
        (1, 2, 3),
        (1, 3, 2),
    ]
    # boundary-increasing words of n shrubs number prod_k (3k - 1)
    assert count_linear_extensions(build_isf_poset(2)) == 2 * 5
    assert count_linear_extensions(build_isf_poset(3)) == 2 * 5 * 8


def test_ibf_poset_counts():
    for n in (1, 2, 3, 4):
        assert count_linear_extensions(build_ibf_poset(n)) == ibf(n)


def test_lex_poset_counts():
    for n in (1, 2, 3, 4):
        assert count_linear_extensions(build_lex_poset(n)) == ilf(n)


def test_labelings_are_increasing_forest_words():
    # reading a labeling in word positions gives a forest that is
    # increasing in the matching order
    for lab in enumerate_linear_extensions(build_ibf_poset(2)):
        forest = forest_from_perm(lab)
        assert shrub_less(RiseKind.BASE, *forest.shrubs)
    for lab in enumerate_linear_extensions(build_lex_poset(2)):
        forest = forest_from_perm(lab)
        assert shrub_less(RiseKind.LEX, *forest.shrubs)
    for lab in enumerate_linear_extensions(build_adjacent_poset("A", 2)):
        forest = forest_from_perm(lab)
        assert shrub_less(RiseKind.ADJACENT, *forest.shrubs)
    for lab in enumerate_linear_extensions(build_isf_poset(2)):
        word = lab
        assert word[2] < word[3]  # right leaf below the next root
        forest_from_perm(word)


def test_within_rise_identity_over_isf_extensions():
    # sum of x^(interior ascents) over boundary-increasing words equals
    # x^n prod (x + 3k - 2)
    for n in (1, 2, 3):
        acc = {}
        for lab in enumerate_linear_extensions(build_isf_poset(n)):
            v = within_shrub_rises(lab)
            acc[v] = acc.get(v, 0) + 1
        dist = XPoly(acc.get(k, 0) for k in range(max(acc) + 1))
        assert dist == within_rise_poly(n)


def test_builder_argument_validation():
    for builder in (build_isf_poset, build_ibf_poset, build_lex_poset):
        with pytest.raises(ValueError):
            builder(0)
    with pytest.raises(ValueError):
        build_adjacent_poset("X", 1)
    with pytest.raises(ValueError):
        build_adjacent_poset("A", -1)
