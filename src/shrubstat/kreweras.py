"""First-quadrant lattice walks and their bijection with grid labelings.

A walk of length 3n uses n northeast steps (1,1), n west steps (-1,0)
and n south steps (0,-1), starting and ending at the origin; staying in
the first quadrant is equivalent to every prefix holding at least as
many northeast steps as west steps and as south steps.

Such walks biject with the linear extensions of the three-row grid
poset (see :func:`shrubstat.posets.build_lex_poset`): reading labels
1..3n in order, label i sits in the middle row exactly when step i is
northeast, in the top row when it is west, and in the bottom row when
it is south.  Both directions are implemented and verified against
each other exhaustively in the tests.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import cache
from typing import Iterator, Sequence

from .errors import check_guard
from .names import DEFAULT_MAX_TRIPLES
from .record import Record

# Steps per walk that enumerate_paths takes from its table of
# completions.  Nine is half a walk at the default guard; a fixed
# length, not half of every walk, keeps the table small for any n.
_TAIL_STEPS = 9


class Step(str, Enum):
    """One walk step; values are the single-letter word alphabet.

    Each step is also its letter as a string, so a walk's word is the
    plain join of its steps.  Steps therefore compare as letters
    (N < S < W), not in the walk order of :data:`STEP_ORDER`.
    """

    NE = "N"
    W = "W"
    S = "S"


#: Enumeration (and word) order of the alphabet.
STEP_ORDER = (Step.NE, Step.W, Step.S)

Path = tuple[Step, ...]
_Counts = tuple[int, int, int]  # steps (ne, w, s) of each kind so far


def path_word(path: Sequence[Step]) -> str:
    return "".join(path)


def path_from_word(word: Sequence[str]) -> Path:
    try:
        return tuple(Step(ch) for ch in word)
    except ValueError:
        raise ValueError(f"step letters must be N, W or S: {word!r}") from None


def _step(n: int, counts: _Counts, step: object) -> _Counts | None:
    """Step counts (ne, w, s) after one more step, or None if it is no
    step or breaks the walk rule of 3n steps: at most n northeast steps,
    never more west or south steps than northeast ones."""
    ne, w, s = counts
    if step == "N" and ne < n:  # by value: a letter is its step
        return (ne + 1, w, s)
    if step == "W" and w < ne:
        return (ne, w + 1, s)
    if step == "S" and s < ne:
        return (ne, w, s + 1)
    return None


def _moves(n: int, counts: _Counts) -> list[tuple[Step, _Counts]]:
    """The steps allowed after counts, in step order, with the counts after."""
    return [(step, after) for step in STEP_ORDER if (after := _step(n, counts, step))]


def is_valid_path(steps: Sequence[Step]) -> bool:
    """Whether steps is a closed first-quadrant walk (prefix conditions
    plus equal step counts).  Steps compare by value, so a word in the
    letters N, W and S is checked like its tuple of steps."""
    n = len(steps) // 3
    counts: _Counts | None = (0, 0, 0)
    for step in steps:
        counts = _step(n, counts, step)
        if counts is None:
            return False
    return counts == (n, n, n)


def enumerate_paths(
    n: int, *, max_triples: int = DEFAULT_MAX_TRIPLES
) -> Iterator[Path]:
    """Yield every valid walk of length 3n once, lexicographically in
    the step order NE < W < S.

    The last nine steps of each walk come from a table of completions
    built during the call, which holds at most 5 769 tails for any n
    (5 587 at n = 6).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    check_guard(n, max_triples, "max_triples", "triples make walks to enumerate")

    # The walks after a head depend only on its step counts, so the
    # tail of every walk comes from a table of completions per
    # (ne, w, s), filled on first use; the head is walked step by step
    # in one shared list (a new tuple per step raises the peak RSS).
    total = 3 * n
    split = max(0, total - _TAIL_STEPS)
    steps: list[Step] = []

    @cache
    def completions(counts: _Counts) -> list[Path]:
        if sum(counts) == total:
            return [()]
        return [
            (step,) + tail
            for step, after in _moves(n, counts)
            for tail in completions(after)
        ]

    def rec(counts: _Counts) -> Iterator[Path]:
        if len(steps) == split:
            head = tuple(steps)
            for tail in completions(counts):
                yield head + tail
            return
        for step, after in _moves(n, counts):
            steps.append(step)
            yield from rec(after)
            steps.pop()

    yield from rec((0, 0, 0))


def count_paths(n: int) -> int:
    """Number of walks :func:`enumerate_paths` yields, without listing them.

    Counts prefixes step by step, keyed by their step counts (ne, w, s);
    the prefix condition is the same as in the enumeration.  It does not
    use the closed form :func:`shrubstat.counts.ilf`, so the two check
    each other.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    layer = Counter({(0, 0, 0): 1})
    for _ in range(3 * n):
        nxt: Counter[tuple[int, int, int]] = Counter()
        for counts, ways in layer.items():
            for _, after in _moves(n, counts):
                nxt[after] += ways
        layer = nxt
    return layer[n, n, n]


class RowLabeling(Record):
    """A three-row grid labeling, each row a tuple of ints: rows increase
    left to right and each middle entry is below its top and bottom
    neighbors."""

    __slots__ = ("top", "middle", "bottom")

    def __post_init__(self) -> None:
        n = len(self.middle)
        if len(self.top) != n or len(self.bottom) != n:
            raise ValueError("rows must have equal length")
        everything = self.top + self.middle + self.bottom
        if sorted(everything) != list(range(1, 3 * n + 1)):
            raise ValueError(f"labels must be exactly 1..{3 * n}")
        for row in (self.top, self.middle, self.bottom):
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row not increasing: {row}")
        for i in range(n):
            if self.middle[i] > self.top[i] or self.middle[i] > self.bottom[i]:
                raise ValueError(f"column {i}: middle label must be the smallest")

    @property
    def size(self) -> int:
        return len(self.middle)


def path_from_rows(rows: RowLabeling) -> Path:
    """Walk whose i-th step reads off the row containing label i."""
    n = rows.size
    row_of = {}
    for label in rows.middle:
        row_of[label] = Step.NE
    for label in rows.top:
        row_of[label] = Step.W
    for label in rows.bottom:
        row_of[label] = Step.S
    path = tuple(row_of[i] for i in range(1, 3 * n + 1))
    if not is_valid_path(path):
        raise ArithmeticError(f"rows read off an invalid walk: {path_word(path)}")
    return path


def rows_from_path(path: Sequence[Step]) -> RowLabeling:
    """Inverse reading: label i goes to the row named by step i."""
    if not is_valid_path(path):
        raise ValueError("not a closed first-quadrant walk")
    top: list[int] = []
    middle: list[int] = []
    bottom: list[int] = []
    for i, step in enumerate(path, start=1):
        {Step.W: top, Step.NE: middle, Step.S: bottom}[Step(step)].append(i)
    return RowLabeling(tuple(top), tuple(middle), tuple(bottom))


def rows_from_extension(labels: Sequence[int]) -> RowLabeling:
    """View a grid-poset labeling (word-position indexing) as rows."""
    if len(labels) == 0 or len(labels) % 3 != 0:
        raise ValueError("labeling length must be a positive multiple of 3")
    n = len(labels) // 3
    return RowLabeling(
        top=tuple(labels[3 * i + 1] for i in range(n)),
        middle=tuple(labels[3 * i] for i in range(n)),
        bottom=tuple(labels[3 * i + 2] for i in range(n)),
    )


def extension_from_rows(rows: RowLabeling) -> tuple[int, ...]:
    """Inverse of :func:`rows_from_extension`."""
    out: list[int] = []
    for i in range(rows.size):
        out.extend((rows.middle[i], rows.top[i], rows.bottom[i]))
    return tuple(out)
