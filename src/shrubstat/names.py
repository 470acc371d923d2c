"""Names, default sizes and the two refusals that the command-line parser
and the layers share.

The parser builds its choices and defaults from this module alone, so a
command loads only the layers it runs.  The guard, :func:`check_guard`,
sits beside the four limits it enforces; the exactness check,
:func:`exact_quotient`, is the one test that a division which must come
out whole does.  Nothing here imports from the package; each layer
re-exports the names it owns.
"""

from enum import Enum


class RiseKind(str, Enum):
    """The five rise statistics, keyed by their command-line names."""

    WORD = "ris"
    TOTAL = "risT"
    BASE = "risB"
    LEX = "risL"
    ADJACENT = "risA"


#: CLI name of the minimal-ascent counting series.
MIN_RISE = "minris"

#: Statistics with a generating function: the five rises and ``minris``.
GF_STATS = tuple(kind.value for kind in RiseKind) + (MIN_RISE,)

#: The linear-extension sequences of the adjacent-chain posets.
LINEXT_KINDS = ("LA", "LB", "LE", "LS")

#: Default truncation in shrub units (t**18), the deepest order anything
#: in the package needs by default.
DEFAULT_SHRUBS = 6

# The default guards, the one table of desk-scale limits.  Each library
# entry point refuses a size past its default unless the caller passes a
# larger bound, and the command line derives its n limits from these four.

#: Shrubs of an exhaustive forest sweep (keyword ``max_shrubs``).
#: (3*4)!/3**4 is about 5.9 million forests, which the sweep counts in
#: about 0.25 s of CPU time (2.0 GHz Xeon, Python 3.11); n = 5 is about
#: 5.4e9.
DEFAULT_MAX_SHRUBS = 4

#: Step triples of a walk listing (keyword ``max_triples``): walks of 6
#: triples number 835584.
DEFAULT_MAX_TRIPLES = 6

#: Elements of a poset whose labelings are counted (keyword ``max_size``).
#: The families at n = 7 have at most 23 elements (B: 29 681 down-sets);
#: B at n = 8 has 26 elements and 110 771 down-sets, at most 12 291 of one
#: size; the DP visits them level by level and holds two levels at once.
#: The command line counts the six families whose Hasse diagrams are
#: trees (A, E, S, B, ISF and IBF) by the tree DP instead, so the
#: down-set DP counts only L there: 285 down-sets at n = 8.  Through the
#: library, IBF at n = 8 has 87 381 and ISF 1 021.
DEFAULT_MAX_COUNT_SIZE = 24

#: Elements of a poset whose labelings are listed (keyword ``max_size``).
#: The time grows with the number of labelings, and memory with the
#: largest bucket of them sharing the labels of elements 0 and 1 (an int
#: per labeling; A at n = 4, 12 elements, has 666 160 labelings in 63
#: buckets of at most 19 241), plus a table of completions that is small
#: beside it (there: 47 up-sets with 5 383 completions in all).
DEFAULT_MAX_ENUM_SIZE = 12

#: The poset families of ``extensions``, each with the elements it has
#: beyond its 3n shrub nodes (E and S cap the chain at one end, B at both).
POSET_FAMILIES = {"A": 0, "E": 1, "S": 1, "B": 2, "ISF": 0, "IBF": 0, "L": 0}


class GuardExceeded(RuntimeError):
    """Raised when an exhaustive computation is refused at desk scale.

    Each entry point bounds its size by a keyword (``max_shrubs``,
    ``max_triples`` or ``max_size``) whose default is one of the four
    limits above, so going past it is always a conscious choice; the
    command line derives its n limits from them.  The refusal,
    :func:`check_guard`, sits beside those limits in this module.
    """


def check_guard(size: int, limit: int, keyword: str, what: str) -> None:
    """Refuse size past limit: the message is size, then what, then the
    keyword setting that would allow it."""
    if size > limit:
        raise GuardExceeded(f"{size} {what}; pass {keyword}={size} to allow it")


def exact_quotient(a: int, b: int, what: str) -> int:
    """The quotient a / b, which must be an integer: ArithmeticError
    naming what otherwise."""
    value, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"{what} is not an integer")
    return value
