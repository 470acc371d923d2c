import os
import subprocess
import sys
import time
import tracemalloc
from math import factorial

import pytest

from shrubstat import (
    Forest,
    GuardExceeded,
    RiseKind,
    Shrub,
    XPoly,
    enumerate_forests,
    forest_count,
    forest_from_perm,
    forest_to_perm,
    ibf,
    min_rise_count,
    reduction,
    rise_distribution,
    rise_stat,
    rises,
    shrub_less,
    within_shrub_rises,
)
from shrubstat import forests
from shrubstat.counts import eulerian_poly

from golden import EXAMPLE_TRIPLES, EXAMPLE_WORD

EXAMPLE_FOREST = Forest.from_triples(EXAMPLE_TRIPLES)


def naive_distribution(kind, n):
    """Dumb re-computation: one forest at a time through the public API."""
    acc = {}
    for forest in enumerate_forests(n):
        value = rise_stat(kind, forest)
        acc[value] = acc.get(value, 0) + 1
    return XPoly(acc.get(k, 0) for k in range(max(acc) + 1))


def test_shrub_validation():
    Shrub(1, 3, 2)
    with pytest.raises(ValueError):
        Shrub(2, 1, 3)  # root not smallest
    with pytest.raises(ValueError):
        Shrub(1, 1, 2)
    with pytest.raises(ValueError):
        Shrub(0, 1, 2)


def test_forest_validation():
    Forest.from_triples(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError):
        Forest.from_triples(((1, 2, 4), (3, 5, 7)))  # labels not 1..6
    with pytest.raises(ValueError):
        Forest(())


def test_reduction():
    assert reduction((7, 9, 4, 2, 10)) == (3, 4, 2, 1, 5)
    assert reduction((1, 2, 3)) == (1, 2, 3)
    assert reduction((30, 20, 10)) == (3, 2, 1)
    with pytest.raises(ValueError):
        reduction((1, 1, 2))


def test_forest_to_perm():
    assert forest_to_perm(EXAMPLE_FOREST) == EXAMPLE_WORD
    assert forest_to_perm(Forest.from_triples(((1, 2, 3),))) == (1, 2, 3)
    assert forest_to_perm(Forest.from_triples(((1, 3, 2),))) == (1, 3, 2)


def test_forest_from_perm():
    assert forest_from_perm((1, 2, 3, 4, 5, 6)) == Forest.from_triples(
        ((1, 2, 3), (4, 5, 6))
    )
    assert forest_from_perm(EXAMPLE_WORD) == EXAMPLE_FOREST
    with pytest.raises(ValueError):
        forest_from_perm((2, 1, 3, 4, 5, 6))  # root not smallest in first triple
    with pytest.raises(ValueError):
        forest_from_perm((1, 2, 3, 4))  # not a multiple of 3
    with pytest.raises(ValueError):
        forest_from_perm((1, 2, 4, 3, 5, 7))  # wrong label set


def test_round_trip_everywhere():
    for n in (1, 2):
        for forest in enumerate_forests(n):
            assert forest_from_perm(forest_to_perm(forest)) == forest


def test_rises():
    assert rises(EXAMPLE_WORD) == 7
    assert rises(tuple(range(1, 8))) == 6
    assert rises((5, 4, 3, 2, 1)) == 0
    assert rises((42,)) == 0
    with pytest.raises(ValueError):
        rises(())


def test_within_shrub_rises():
    assert within_shrub_rises((1, 2, 3)) == 2
    assert within_shrub_rises((1, 3, 2)) == 1
    with pytest.raises(ValueError):
        within_shrub_rises((1, 2, 3, 4))
    # single-shrub distribution is x(1 + x): one word with one interior
    # ascent, one with two
    dist = sorted(
        within_shrub_rises(forest_to_perm(f)) for f in enumerate_forests(1)
    )
    assert dist == [1, 2]


def test_equal_neighbours_are_not_rises():
    # the words need not be permutations; a tie is no ascent
    assert rises((1, 1)) == 0
    assert rises((2, 2, 3)) == 1
    # (1, 1) inside the shrub, then 1 < 2; 2 < 5 crosses the boundary
    assert within_shrub_rises((1, 1, 2, 5, 5, 5)) == 1


def test_shrub_less():
    assert not shrub_less(RiseKind.LEX, Shrub(1, 4, 10), Shrub(7, 11, 8))
    assert shrub_less(RiseKind.ADJACENT, Shrub(5, 12, 9), Shrub(6, 13, 15))
    for kind in (RiseKind.TOTAL, RiseKind.BASE, RiseKind.LEX, RiseKind.ADJACENT):
        assert shrub_less(kind, Shrub(1, 2, 3), Shrub(4, 5, 6))
    with pytest.raises(ValueError):
        shrub_less(RiseKind.BASE, Shrub(1, 2, 3), Shrub(1, 4, 5))
    with pytest.raises(ValueError):
        shrub_less(RiseKind.WORD, Shrub(1, 2, 3), Shrub(4, 5, 6))


def test_ordering_hierarchy():
    # total implies lexicographic implies base, over all shrub pairs at n=2
    for forest in enumerate_forests(2):
        f, g = forest.shrubs
        if shrub_less(RiseKind.TOTAL, f, g):
            assert shrub_less(RiseKind.LEX, f, g)
        if shrub_less(RiseKind.LEX, f, g):
            assert shrub_less(RiseKind.BASE, f, g)


def test_rise_stat_on_example():
    assert rise_stat(RiseKind.WORD, EXAMPLE_FOREST) == 7
    assert rise_stat(RiseKind.BASE, EXAMPLE_FOREST) == 2
    assert rise_stat(RiseKind.ADJACENT, EXAMPLE_FOREST) == 3
    assert rise_stat(RiseKind.LEX, EXAMPLE_FOREST) == 1
    assert rise_stat(RiseKind.TOTAL, EXAMPLE_FOREST) == 0
    single = Forest.from_triples(((1, 3, 2),))
    for kind in (RiseKind.TOTAL, RiseKind.BASE, RiseKind.LEX, RiseKind.ADJACENT):
        assert rise_stat(kind, single) == 0


def test_enumerate_forests_small():
    assert [forest_to_perm(f) for f in enumerate_forests(1)] == [
        (1, 2, 3),
        (1, 3, 2),
    ]
    assert sum(1 for _ in enumerate_forests(2)) == 80
    assert sum(1 for _ in enumerate_forests(3)) == 13440


def test_forest_count_matches_enumeration():
    # the (3n)!/3^n count is derived, so confirm it against the brute
    # enumeration before anything relies on it
    for n in (1, 2, 3):
        assert forest_count(n) == sum(1 for _ in enumerate_forests(n))
    assert forest_count(4) == factorial(12) // 81


def test_enumeration_is_lexicographic_and_duplicate_free():
    words = [forest_to_perm(f) for f in enumerate_forests(2)]
    assert words == sorted(words)
    assert len(set(words)) == len(words)


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        next(enumerate_forests(5))
    with pytest.raises(ValueError):
        next(enumerate_forests(0))
    # explicit override is accepted (just probe the first item)
    assert next(enumerate_forests(5, max_shrubs=5)).size == 5


def test_distribution_examples():
    assert rise_distribution(RiseKind.WORD, 1) == XPoly((0, 1, 1))
    assert rise_distribution(RiseKind.TOTAL, 2) == XPoly((76, 4))
    assert rise_distribution(RiseKind.ADJACENT, 2) == XPoly((40, 40))
    assert rise_distribution(RiseKind.LEX, 1) == XPoly((2,))


def test_distribution_mass_and_floor():
    for n in (1, 2, 3):
        total = forest_count(n)
        for kind in RiseKind:
            dist = rise_distribution(kind, n)
            assert dist(1) == total
        word = rise_distribution(RiseKind.WORD, n)
        # every word carries at least n ascents (one per root)
        assert all(word.coeff(k) == 0 for k in range(n))
        assert word.degree == 3 * n - 1


def test_distribution_pairwise_top_coefficient_counts_chains():
    # the x^(n-1) coefficient counts fully increasing forests
    from shrubstat import iaf, ilf, itf

    chain = {
        RiseKind.TOTAL: itf,
        RiseKind.BASE: ibf,
        RiseKind.LEX: ilf,
        RiseKind.ADJACENT: iaf,
    }
    for n in (1, 2, 3):
        for kind, fn in chain.items():
            dist = rise_distribution(kind, n)
            assert dist.degree <= n - 1
            assert dist.coeff(n - 1) == fn(n)


def test_base_distribution_factors_through_ascent_polynomial():
    for n in (1, 2, 3):
        assert rise_distribution(RiseKind.BASE, n) == ibf(n) * eulerian_poly(n)


def test_sweep_matches_naive_path():
    # the one-pass sweep must agree with per-forest recomputation
    for n in (1, 2, 3):
        for kind in RiseKind:
            assert rise_distribution(kind, n) == naive_distribution(kind, n)


def test_sweep_visits_every_forest_at_n4():
    # each histogram of the n = 4 sweep counts every forest exactly once
    dists = forests._distributions(4)
    assert sorted(dists) == sorted(kind.value for kind in RiseKind)
    assert all(sum(hist) == forest_count(4) == 5913600 for hist in dists.values())


def test_tail_table_is_filled_at_n3():
    # the n = 4 sweep reads only tail entries the n = 3 sweep filled, and
    # the n = 3 sweep is checked forest by forest above
    forests._distributions.cache_clear()
    forests._tail_counts.cache_clear()
    forests._distributions(3)
    keys = [
        (r, u, v) for r in range(7) for u in range(r, 7) for v in range(r, 7)
    ]
    assert len(keys) == forests._tail_counts.cache_info().currsize == 140
    forests._distributions(4)
    assert forests._tail_counts.cache_info().currsize == 140
    for key in keys:
        entry = forests._tail_counts(key)
        assert len(entry) == len(RiseKind)
        assert all(sum(count for _, count in pairs) == 80 for pairs in entry)
    assert forests._tail_counts.cache_info().currsize == 140


def test_tail_table_holds_each_pair_value_once():
    # the 140 entries hold 1 753 (offset, count) pairs of 80 values
    pairs = [
        pair
        for r in range(7)
        for u in range(r, 7)
        for v in range(r, 7)
        for column in forests._tail_counts((r, u, v))
        for pair in column
    ]
    assert len(pairs) == 1753
    assert len({id(pair) for pair in pairs}) == len(set(pairs)) == 80


@pytest.fixture
def tail_table():
    """The tail table filled by the n = 3 sweep, and no sweep cached."""
    forests._distributions(3)
    forests._distributions.cache_clear()


def test_sweep_reads_the_tail_table_once_per_distinct_key(tail_table, monkeypatch):
    # the n = 4 sweep reaches 73 920 prefixes of two shrubs, which fall on
    # 1 932 distinct keys of ranks and running counts, over all 140 ranks
    reads = []
    table = forests._tail_counts

    def spy(key):
        reads.append(key)
        return table(key)

    monkeypatch.setattr(forests, "_tail_counts", spy)
    forests._distributions(4)
    assert len(reads) <= 1932 and len(set(reads)) == 140


def test_sweep_holds_its_distinct_keys_only(tail_table):
    # one Counter of the 1 932 distinct keys at n = 4 (a traced peak of
    # about 0.2 MB); a list of every prefix's key would peak at about 3 MB
    tracemalloc.start()
    try:
        forests._distributions(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_tail_table_matches_object_path():
    # each entry against the 80 two-shrub tails on 10, 20, ..., 60 after a
    # previous shrub whose labels 10r+1, 10u+2, 10v+3 have the key's ranks
    tails = [
        tuple(10 * label for label in forest_to_perm(f)) for f in enumerate_forests(2)
    ]
    kinds = (RiseKind.WORD, *forests.PAIR_KINDS)
    for r in range(7):
        for u in range(r, 7):
            for v in range(r, 7):
                prev = (10 * r + 1, 10 * u + 2, 10 * v + 3)
                hists = [dict() for _ in kinds]
                for tail in tails:
                    forest = forest_from_perm(reduction(prev + tail))
                    for kind, hist in zip(kinds, hists):
                        value = rise_stat(kind, forest)
                        if kind is RiseKind.WORD:
                            value -= rises(prev)
                        hist[value] = hist.get(value, 0) + 1
                expected = tuple(tuple(sorted(hist.items())) for hist in hists)
                assert forests._tail_counts((r, u, v)) == expected, (r, u, v)


def test_exactness_check_raises_even_under_optimisation(monkeypatch):
    monkeypatch.setattr(forests, "factorial", lambda m: 1)
    with pytest.raises(ArithmeticError):
        forest_count(2)
    # the same check in a fresh interpreter that strips assert statements
    script = (
        "import shrubstat.forests as f\n"
        "f.factorial = lambda m: 1\n"
        "try:\n"
        "    f.forest_count(2)\n"
        "except ArithmeticError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    src = os.path.dirname(os.path.dirname(forests.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env)
    if proc.returncode != 0:
        pytest.fail(f"forest_count under -O exited {proc.returncode}")


def test_min_rise_count():
    assert min_rise_count(1) == 1  # only 1 3 2 attains the floor
    assert min_rise_count(2) == 16
    assert min_rise_count(3) == 1036


def test_distribution_guard():
    with pytest.raises(GuardExceeded):
        rise_distribution(RiseKind.WORD, 5)
    with pytest.raises(ValueError):
        rise_distribution(RiseKind.WORD, 0)


def test_guard_refuses_large_n_without_building_the_count():
    # (3n)!/3**n has over 4300 digits from about n = 600 and takes
    # seconds to build at n = 10**5; the refusal needs neither
    for n in (1000, 10**5):
        start = time.perf_counter()
        with pytest.raises(GuardExceeded, match=f"max_shrubs={n}"):
            rise_distribution(RiseKind.WORD, n)
        with pytest.raises(GuardExceeded, match=f"max_shrubs={n}"):
            next(enumerate_forests(n))
        assert time.perf_counter() - start < 0.1
