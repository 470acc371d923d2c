"""Independent checkers for shrubstat output.

Nothing here imports shrubstat: every expected value comes from a closed
form, a counting argument or a definition written out below, so a fault
in the program cannot also fault its check.

* closed forms: forests (3n)!/3^n, ITF 2^n, IBF (3n)!/(3^n n!),
  ILF 4^n (3n)!/((n+1)!(2n+1)!) and ISF prod_{k<=n} (3k-1);
* first moments: each of the n-1 adjacent shrub pairs of a uniform
  forest is a rise with the probability read off the 80 arrangements of
  two shrubs on six labels (4/80 for risT, 40/80 for risB, 16/80 for
  risL, 40/80 for risA); a word has 3n/2 ascents inside its shrubs on
  average and each of the n-1 boundaries ascends with probability 1/8;
* walks: the prefix condition of first-quadrant walks;
* labelings: the cover relations of each poset family, written out here
  from the family definitions;
* listings: distinct and in lexicographic order.

Every check raises :class:`CheckError` on a violation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from math import factorial, prod
from operator import eq, lt


class CheckError(Exception):
    """An output of the program disagrees with its independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- closed forms -----------------------------------------------------------


def forests(n: int) -> int:
    """Forests of n shrubs: (3n)!/3^n."""
    return factorial(3 * n) // 3**n


def itf(n: int) -> int:
    return 2**n


def ibf(n: int) -> int:
    return factorial(3 * n) // (3**n * factorial(n))


def ilf(n: int) -> int:
    return 4**n * factorial(3 * n) // (factorial(n + 1) * factorial(2 * n + 1))


def isf(n: int) -> int:
    return prod(3 * k - 1 for k in range(1, n + 1))


CLOSED_FORMS = {"ITF": itf, "IBF": ibf, "ILF": ilf}

#: Published first terms of the linear-extension sequences (from n = 0).
PUBLISHED_TERMS = {
    "LA": (1, 2, 40, 3194, 666160),
    "LB": (1, 9, 477, 74601, 25740261),
    "LE": (1, 3, 99, 11259, 3052323),
    "LS": (1, 5, 169, 19241, 5216485),
}
PUBLISHED_TERMS["IAF"] = PUBLISHED_TERMS["LA"]  # adjacent chains are LA

#: Share of the 80 two-shrub arrangements on six labels that are a rise.
PAIR_RISE_SHARE = {
    "risT": Fraction(4, 80),
    "risB": Fraction(40, 80),
    "risL": Fraction(16, 80),
    "risA": Fraction(40, 80),
}


def check_rise_poly(stat: str, n: int, coeffs: list[int]) -> None:
    """Total mass and first moment of a rise distribution over n shrubs."""
    total = forests(n)
    require(
        sum(coeffs) == total,
        f"{stat} at n={n}: coefficients sum to {sum(coeffs)}, want {total}",
    )
    moment = sum(k * c for k, c in enumerate(coeffs))
    if stat == "ris":
        mean = Fraction(3 * n, 2) + Fraction(n - 1, 8)
    else:
        mean = (n - 1) * PAIR_RISE_SHARE[stat]
    require(
        moment == mean * total,
        f"{stat} at n={n}: first moment {moment}, want {mean * total}",
    )


def check_min_rise(n: int, value: int, ris_coeffs: list[int]) -> None:
    """Minimal-ascent count: the x^n coefficient of the ris distribution."""
    want = ris_coeffs[n] if n < len(ris_coeffs) else 0
    require(value == want, f"minris at n={n} is {value}, ris has {want} there")


def check_sequence(name: str, terms: list[int], first: int) -> None:
    """Terms first, first+1, ... of a sequence against its closed form or
    its published first terms."""
    for i, term in enumerate(terms, start=first):
        if name in CLOSED_FORMS:
            want = CLOSED_FORMS[name](i)
        elif i < len(PUBLISHED_TERMS[name]):
            want = PUBLISHED_TERMS[name][i]
        else:
            continue
        require(term == want, f"{name}({i}) is {term}, want {want}")


# -- walks ------------------------------------------------------------------

#: Enumeration order N < W < S of the step letters, as letters that sort so.
_STEP_ORDER = str.maketrans("NWS", "abc")


def _balanced(text: str, opening: str, closing: str) -> bool:
    """Whether every line of text is a balanced bracket word in the two
    letters: deleting adjacent opening-closing pairs until none is left
    must empty every line."""
    pair = opening + closing
    while pair in text:
        text = text.replace(pair, "")
    return not text.replace("\n", "")


def check_walks(n: int, text: str) -> int:
    """Every line of text a closed first-quadrant walk of n step triples,
    and the lines strictly increasing in N < W < S order (so distinct);
    returns the number of walks.

    The prefix condition (every prefix holds at least as many N steps as W
    steps, and as S steps, with the counts equal at the end) says exactly
    that deleting the S steps leaves a balanced bracket word with N
    opening and W closing, and deleting the W steps leaves one with N
    opening and S closing.  The check runs on all walks at once.
    """
    words = text.splitlines()
    text = "\n".join(words)
    require(all(map(eq, map(len, words), repeat(3 * n))), f"a walk is not {3 * n} steps")
    require(not text.translate(str.maketrans("", "", "NWS\n")), "unknown step letter")
    require(
        _balanced(text.replace("S", ""), "N", "W")
        and _balanced(text.replace("W", ""), "N", "S"),
        "a walk breaks the prefix condition",
    )
    _require_increasing(text.translate(_STEP_ORDER).split("\n"), words, "walk")
    return len(words)


def _require_increasing(keys: list, items: list, what: str) -> None:
    """keys strictly increasing; names the first item out of place."""
    if not all(map(lt, keys, keys[1:])):
        i = next(i for i in range(1, len(keys)) if not keys[i - 1] < keys[i])
        raise CheckError(f"{what} {items[i]!r} is duplicated or out of order")


# -- poset labelings ----------------------------------------------------------
# Element 3i is the root of shrub i, 3i+1 its left leaf, 3i+2 its right
# leaf; a cover (u, v) asks label(u) < label(v).

FAMILIES = ("A", "E", "S", "B", "ISF", "IBF", "L")


def family_covers(family: str, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Size and cover list of one poset family at n shrubs."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    covers = []
    for i in range(n):
        covers += [(3 * i, 3 * i + 1), (3 * i, 3 * i + 2)]  # root below leaves
    size = 3 * n
    for i in range(n - 1):
        if family == "ISF":  # right leaf below the next root
            covers.append((3 * i + 2, 3 * i + 3))
        elif family == "IBF":  # roots increase
            covers.append((3 * i, 3 * i + 3))
        elif family == "L":  # all three rows increase
            covers += [(3 * i + k, 3 * i + 3 + k) for k in range(3)]
        else:  # adjacent chain: right leaf below the next left leaf
            covers.append((3 * i + 2, 3 * i + 4))
    if family in ("S", "B"):  # extra node below the first left leaf
        covers.append((size, 1))
        size += 1
    if family in ("E", "B"):  # extra node above the last right leaf
        covers.append((3 * n - 1, size))
        size += 1
    return size, covers


def check_labelings(family: str, n: int, text: str) -> int:
    """Every line of text a labeling (the labels of elements 0, 1, ...
    separated by two blanks) that is a bijection onto 1..size respecting
    every cover, and the lines strictly increasing as integer tuples (so
    distinct); returns the number of labelings.

    The checks run over all labelings at once, column by column where they
    can: column k holds the label of element k in every labeling.
    """
    size, covers = family_covers(family, n)
    tokens = text.split()
    rows = list(zip(*[iter(tokens)] * size))
    require(
        "\n".join(map("  ".join, rows)) + "\n" == text,
        f"the text is not one {family} labeling of {size} labels per line",
    )
    value = {str(v): v for v in range(1, size + 1)}
    try:
        flat = list(map(value.__getitem__, tokens))
    except KeyError as exc:
        raise CheckError(f"{family} label {exc} is outside 1..{size}") from None
    require(
        all(map(eq, map(len, map(set, rows)), repeat(size))),
        f"a {family} labeling repeats a label",
    )
    columns = [flat[k::size] for k in range(size)]
    for u, v in covers:
        require(
            all(map(lt, columns[u], columns[v])),
            f"a {family} labeling breaks cover {(u, v)}",
        )
    labelings = list(zip(*[iter(flat)] * size))
    _require_increasing(labelings, labelings, f"{family} labeling")
    return len(labelings)


# -- output parsing -----------------------------------------------------------


def json_record(text: str, command: str) -> dict:
    """The one JSON record of a ``--format json`` run, with status ok."""
    try:
        record = json.loads(text)
    except ValueError as exc:
        raise CheckError(f"{command}: output is not one JSON record") from exc
    require(record.get("command") == command, f"not a {command} record")
    require(record.get("status") == "ok", f"{command} reports {record.get('status')}")
    return record


def int_payload(record: dict) -> list[int]:
    """A flat payload of decimal strings, as integers."""
    payload = record["payload"]
    require(
        all(isinstance(v, str) for v in payload),
        "payload entries must be decimal strings",
    )
    return [int(v) for v in payload]

