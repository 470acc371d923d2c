"""The one guard policy: four library defaults, and the command line's n
limits derived from them.  The command-line tests replace the sweep, the
walk listing and the poset DP and enumerator with stubs, so each
invocation costs only the parser, the guard and the poset builders."""

import pytest

from shrubstat import (
    GuardExceeded,
    Poset,
    XPoly,
    count_linear_extensions,
    enumerate_forests,
    enumerate_linear_extensions,
    enumerate_paths,
)
from shrubstat import counts, forests, kreweras, posets, series
from shrubstat.cli import main


def chain(k):
    return Poset.from_covers(k, [(i, i + 1) for i in range(k - 1)])


@pytest.mark.parametrize(
    "entry, keyword, limit",
    [
        (lambda n: next(enumerate_forests(n)), "max_shrubs", 4),
        (lambda n: next(enumerate_paths(n)), "max_triples", 6),
        (lambda n: count_linear_extensions(chain(n)), "max_size", 24),
        (lambda n: next(enumerate_linear_extensions(chain(n))), "max_size", 12),
    ],
)
def test_library_default(entry, keyword, limit):
    entry(limit)
    with pytest.raises(GuardExceeded, match=f"; pass {keyword}={limit + 1} to allow"):
        entry(limit + 1)


class _Series:
    def coeff(self, n):
        return XPoly((1,))


@pytest.fixture
def no_work(monkeypatch):
    """Stub out every enumeration, sweep and DP the guarded commands run;
    each stub agrees with the others, so an accepted command exits 0."""
    monkeypatch.delenv("SHRUBSTAT_MAX_N", raising=False)
    monkeypatch.setattr(series, "build_gf", lambda stat, order: _Series())
    monkeypatch.setattr(
        forests, "rise_distribution", lambda stat, n, max_shrubs: XPoly((1,))
    )
    monkeypatch.setattr(kreweras, "count_paths", lambda n: 0)
    monkeypatch.setattr(kreweras, "enumerate_paths", lambda n, max_triples: iter(()))
    monkeypatch.setattr(kreweras, "walk_blocks", lambda n, max_triples: iter(()))
    monkeypatch.setattr(counts, "ilf", lambda n: 0)
    monkeypatch.setattr(posets, "count_linear_extensions", lambda p, max_size: 0)
    monkeypatch.setattr(
        posets, "enumerate_linear_extensions", lambda p, max_size: iter(())
    )
    monkeypatch.setattr(posets, "labeling_blocks", lambda p, max_size: iter(()))
    return monkeypatch


# (command line with {n}, the largest n accepted by default)
BOUNDARIES = [
    ("verify --stat ris --max-n {n}", 4),
    ("paths --n {n}", 6),
    ("paths --n {n} --list", 6),
    ("bijection --n {n}", 4),
] + [
    (f"extensions --family {family} --n {{n}} --mode {mode}", limit)
    for mode, limits in (
        ("count", {"A": 8, "E": 7, "S": 7, "B": 7, "ISF": 8, "IBF": 8, "L": 8}),
        ("list", {"A": 4, "E": 3, "S": 3, "B": 3, "ISF": 4, "IBF": 4, "L": 4}),
    )
    for family, limit in limits.items()
]


def refused(capsys, argv: str, n: int) -> bool:
    """Whether the command at n is refused by the guard; any other
    outcome must be success."""
    code = main(argv.format(n=n).split())
    err = capsys.readouterr().err
    if code == 2 and "guard" in err:
        assert err.startswith(f"error: n={n} exceeds the guard (")
        return True
    assert (code, err) == (0, "")
    return False


@pytest.mark.parametrize("argv, limit", BOUNDARIES)
def test_default_boundary(capsys, no_work, argv, limit):
    assert not refused(capsys, argv, limit)
    assert refused(capsys, argv, limit + 1)
    assert not refused(capsys, argv + " --force", limit + 1)


@pytest.mark.parametrize("argv", [argv for argv, _ in BOUNDARIES])
@pytest.mark.parametrize("max_n", [2, 5, 9])
def test_environment_bound(capsys, no_work, argv, max_n):
    no_work.setenv("SHRUBSTAT_MAX_N", str(max_n))
    assert [refused(capsys, argv, n) for n in range(1, max_n + 3)] == [
        n > max_n for n in range(1, max_n + 3)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        f"extensions --family {family} --n 400 --mode {mode}"
        for family in ("A", "E", "S", "B", "ISF", "IBF", "L")
        for mode in ("count", "list")
    ]
    + ["bijection --n 400"],
)
def test_forced_poset_past_the_recursion_limit_is_never_built(
    capsys, monkeypatch, argv
):
    def no_build(n, links):
        raise AssertionError("the poset was built")

    monkeypatch.setattr(posets, "_shrub_covers", no_build)
    code = main([*argv.split(), "--force"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: n is too large for this command (")
    assert "recursion limit" in err and err.count("\n") == 1
