import sys
from itertools import permutations

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
        # all labels from the table of completions, then one backtracked
        antichain(_TAIL_LABELS),
        antichain(_TAIL_LABELS + 1),
        build_adjacent_poset("A", 3),
        # element 0 maximal: the late buckets label it inside the tail
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
