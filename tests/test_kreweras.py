import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shrubstat import (
    GuardExceeded,
    RowLabeling,
    Step,
    build_lex_poset,
    count_paths,
    enumerate_linear_extensions,
    enumerate_paths,
    extension_from_rows,
    ilf,
    is_valid_path,
    path_from_rows,
    path_from_word,
    path_word,
    rows_from_extension,
    rows_from_path,
)

NWS = (Step.NE, Step.W, Step.S)
NSW = (Step.NE, Step.S, Step.W)


def test_words():
    assert path_word(NWS) == "NWS"
    assert path_from_word("NSW") == NSW
    with pytest.raises(ValueError):
        path_from_word("NXS")


def test_is_valid_path():
    assert is_valid_path(NWS)
    assert is_valid_path(NSW)
    assert not is_valid_path((Step.W, Step.NE, Step.S))  # leaves the quadrant
    assert not is_valid_path((Step.NE, Step.W, Step.W))  # unbalanced
    assert not is_valid_path((Step.NE, Step.NE, Step.S))
    assert is_valid_path(())


def test_is_valid_path_compares_steps_by_value():
    assert is_valid_path("NWS") and not is_valid_path("NSS")
    assert rows_from_path("NWS") == rows_from_path(NWS)
    for length in range(7):
        for letters in itertools.product("NWSX", repeat=length):
            word = "".join(letters)
            walk = "X" not in word and is_valid_path(path_from_word(word))
            assert is_valid_path(word) == walk, word
    assert not is_valid_path("nws")
    assert not is_valid_path((Step.NE, 1, Step.S))


def test_enumerate_paths_small():
    assert list(enumerate_paths(1)) == [NWS, NSW]
    assert sum(1 for _ in enumerate_paths(2)) == 16
    assert sum(1 for _ in enumerate_paths(3)) == 192
    assert list(enumerate_paths(0)) == [()]


def test_enumerate_paths_counts_match_formula():
    for n in (1, 2, 3, 4):
        assert sum(1 for _ in enumerate_paths(n)) == ilf(n)


def test_count_paths_matches_enumeration_and_formula():
    for n in range(6):
        assert count_paths(n) == sum(1 for _ in enumerate_paths(n))
    assert all(count_paths(n) == ilf(n) for n in range(1, 31))
    with pytest.raises(ValueError):
        count_paths(-1)


def test_enumerate_paths_order_and_validity():
    words = [path_word(p) for p in enumerate_paths(3)]
    assert words == sorted(words, key=lambda w: ["NWS".index(c) for c in w])
    assert len(set(words)) == len(words)
    paths = list(enumerate_paths(3))
    assert all(is_valid_path(p) for p in paths)
    # closed walks have one step of each kind per triple
    for p in paths:
        assert sum(1 for s in p if s is Step.NE) == 3


def test_enumerate_paths_guard_and_prefix():
    with pytest.raises(GuardExceeded):
        next(enumerate_paths(7))
    # explicit override is accepted (probe the lex-first walk only)
    assert (
        next(enumerate_paths(7, max_triples=7))
        == (Step.NE,) * 7 + (Step.W,) * 7 + (Step.S,) * 7
    )


def test_prefix_is_parsed_like_a_word():
    with pytest.raises(ValueError, match="step letters must be N, W or S"):
        path_from_word("NX")


@given(st.lists(st.sampled_from(Step)).map(tuple))
def test_word_round_trip(path):
    assert path_from_word(path_word(path)) == path


def test_row_labeling_validation():
    RowLabeling(top=(2,), middle=(1,), bottom=(3,))
    with pytest.raises(ValueError):
        RowLabeling(top=(1,), middle=(2,), bottom=(3,))  # middle not smallest
    with pytest.raises(ValueError):
        RowLabeling(top=(2, 1), middle=(3, 4), bottom=(5, 6))
    with pytest.raises(ValueError):
        RowLabeling(top=(2,), middle=(1, 4), bottom=(3,))
    with pytest.raises(ValueError):
        RowLabeling(top=(2,), middle=(1,), bottom=(4,))


def test_bijection_tiny_cases():
    assert path_from_rows(RowLabeling(top=(2,), middle=(1,), bottom=(3,))) == NWS
    assert path_from_rows(RowLabeling(top=(3,), middle=(1,), bottom=(2,))) == NSW
    assert rows_from_path(NWS) == RowLabeling(top=(2,), middle=(1,), bottom=(3,))
    with pytest.raises(ValueError):
        rows_from_path((Step.W, Step.NE, Step.S))


def test_round_trips_exhaustive():
    for n in (1, 2, 3):
        for path in enumerate_paths(n):
            assert path_from_rows(rows_from_path(path)) == path


def test_extension_adapters_round_trip():
    for n in (1, 2):
        poset = build_lex_poset(n)
        for labeling in enumerate_linear_extensions(poset):
            rows = rows_from_extension(labeling)
            assert extension_from_rows(rows) == labeling
    with pytest.raises(ValueError):
        rows_from_extension((1, 2))
    with pytest.raises(ValueError):
        rows_from_extension((2, 1, 3))  # violates the column constraint


def test_image_of_extensions_is_exactly_the_path_set():
    for n in (1, 2, 3, 4):
        extensions = list(enumerate_linear_extensions(build_lex_poset(n)))
        image = {path_from_rows(rows_from_extension(e)) for e in extensions}
        assert len(image) == len(extensions)  # injective
        assert image == set(enumerate_paths(n))  # onto
        # and back: every path lands on a genuine extension
        extension_set = set(extensions)
        for path in image:
            assert extension_from_rows(rows_from_path(path)) in extension_set


def _random_path(rng, n):
    # rejection-sample a closed first-quadrant walk (acceptance ~5% at n=6)
    letters = [Step.NE] * n + [Step.W] * n + [Step.S] * n
    while True:
        rng.shuffle(letters)
        candidate = tuple(letters)
        if is_valid_path(candidate):
            return candidate


def test_round_trips_on_random_samples_beyond_desk_scale():
    rng = random.Random(3141)
    for n in (4, 5, 6):
        for _ in range(40):
            path = _random_path(rng, n)
            rows = rows_from_path(path)
            assert path_from_rows(rows) == path
            assert rows_from_extension(extension_from_rows(rows)) == rows
