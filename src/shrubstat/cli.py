"""Command-line surface: ``shrubstat <command> [flags]``.

Commands: coeff, seq, verify, paths, bijection, extensions, ode-check.
Every command is deterministic and offers text, JSON and CSV output;
all big integers are serialized as decimal strings (never floats).

The stable JSON schema is::

    {"command": str, "params": {...}, "payload": [str...] | [[str...]...],
     "status": "ok" | "fail"}

where params are the command's parsed arguments (``--max-n`` as
``max_n``, ``--list`` as a bool) without ``--format`` and ``--force``.

Exit codes: 0 success, 1 verification failure, 2 usage or guard error.
A reader that closes the output pipe early (``| head``) ends the command
quietly with exit 0.
Each guarded command refuses an n past the largest that the library's
default limits (:mod:`shrubstat.names`) allow it, before it builds
anything; the environment variable ``SHRUBSTAT_MAX_N`` replaces that
bound on n, and ``--force`` lifts it for one invocation.

Each command runs in a fresh interpreter, so start-up is part of its
cost: the parser is built from :mod:`shrubstat.names` alone, and each
command imports the layers it calls (and ``json`` for ``--format json``)
when it runs.  The layers stay reachable as attributes of this module.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from importlib import import_module
from itertools import islice

from .errors import GuardExceeded
from .names import (
    DEFAULT_MAX_COUNT_SIZE,
    DEFAULT_MAX_ENUM_SIZE,
    DEFAULT_MAX_SHRUBS,
    DEFAULT_MAX_TRIPLES,
    DEFAULT_SHRUBS,
    GF_STATS,
    LINEXT_KINDS,
    MIN_RISE,
    POSET_FAMILIES,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: Layers that the commands import when they run.
_LAYERS = ("counts", "forests", "kreweras", "posets", "series")


def __getattr__(name: str):
    """A layer as an attribute of this module, imported on first access."""
    if name in _LAYERS:
        return import_module(f"{__package__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Sequences indexed from n = 1; each is the `counts` function of the
#: same name in lower case.
_SEQ_FROM_ONE = ("ITF", "IBF", "ILF", "IAF")

def _check_guard(args, n: int, limit: int) -> None:
    """Refuse n past limit, the largest n the library's default limits
    allow the command, unless --force is given; SHRUBSTAT_MAX_N, when
    set, is the limit instead."""
    env = os.environ.get("SHRUBSTAT_MAX_N")
    if env is not None:
        if not env.strip().isdecimal():
            raise ValueError(
                f"SHRUBSTAT_MAX_N must be a non-negative integer, got {env!r}"
            )
        limit = int(env)
    if n > limit and not args.force:
        raise GuardExceeded(
            f"n={n} exceeds the guard ({limit}); re-run with --force "
            "or set SHRUBSTAT_MAX_N"
        )


def _poset(family: str, n: int):
    """The poset of the family at n.  Its size is checked against the
    recursion limit before it is built, so a forced n too large for the
    DP or the enumerator costs nothing."""
    from . import posets

    size = 3 * n + POSET_FAMILIES[family]
    posets.check_size(size, size)  # the guard has bounded n already
    builders = {
        "ISF": posets.build_isf_poset,
        "IBF": posets.build_ibf_poset,
        "L": posets.build_lex_poset,
    }
    if family in builders:
        return builders[family](n)
    return posets.build_adjacent_poset(family, n)  # A, E, S or B: chains


#: Lines (or JSON payload items) per write call of a streamed listing.
_BATCH = 4096


def _batches(items: Iterable) -> Iterator[list]:
    """The items in lists of _BATCH, the last one shorter."""
    it = iter(items)
    return iter(lambda: list(islice(it, _BATCH)), [])


def _write_lines(lines: Iterable[str], sep: str = "\n") -> None:
    """Write the lines joined by sep and ended by a newline, as they are
    produced: one write call per batch of lines, so a listing is never
    held whole and the stream's per-call cost is paid per batch."""
    write = sys.stdout.write
    lead = ""
    for batch in _batches(lines):
        write(lead + sep.join(batch))
        lead = sep
    if lead:
        write("\n")


def _write_json(command: str, params: dict, payload: Iterable, ok: bool) -> None:
    """Write ``json.dumps(record, sort_keys=True)`` and a newline for the
    record holding payload, dumping one batch of payload items at a time
    so the payload is never held whole.  The keys sort as command,
    params, payload, status.  The first batch is pulled before anything
    is written, so an error raised on first use leaves stdout empty."""
    import json

    head = json.dumps({"command": command, "params": params}, sort_keys=True)
    tail = json.dumps({"status": "ok" if ok else "fail"})
    batches = _batches(payload)
    first = next(batches, [])
    write = sys.stdout.write
    write(head[:-1] + ', "payload": [' + json.dumps(first)[1:-1])
    for batch in batches:  # a dumped list without its brackets
        write(", " + json.dumps(batch)[1:-1])
    write("], " + tail[1:] + "\n")


#: Parsed arguments that are not params of the JSON record.
_NOT_PARAMS = ("command", "func", "format", "force")


def _emit(args, payload, ok: bool = True) -> int:
    """Write the result in the chosen format; return the exit code.

    The payload is one row (a list of strings) or an iterable of rows
    (in JSON also of strings), written as they are produced.  A JSON
    record's params are the command's parsed arguments."""
    if args.format == "json":
        params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
        _write_json(args.command, params, payload, ok)
    else:
        flat = isinstance(payload, list) and isinstance(payload[0], str)
        sep = "," if args.format == "csv" else ", " if flat else "  "
        _write_lines(map(sep.join, [payload] if flat else payload))
        if not ok and args.format == "text":
            print("FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_coeff(args) -> int:
    from . import series

    if not 0 <= args.n <= args.order:
        raise ValueError(f"n={args.n} out of range for truncation order {args.order}")
    # The t^(3n) coefficient of a reciprocal or an exact quotient depends
    # only on the terms through t^(3n): building past n shrubs (or past
    # one, for n = 0) changes nothing but the cost.
    poly = series.build_gf(args.stat, max(args.n, 1)).coeff(args.n)
    if args.format == "text":
        payload = [str(poly)]
    else:
        payload = [str(c) for c in poly.int_coeffs()] or ["0"]
    return _emit(args, payload)


def cmd_seq(args) -> int:
    from . import counts

    if args.count < 1:
        raise ValueError("count must be >= 1")
    if args.name in _SEQ_FROM_ONE:
        term = getattr(counts, args.name.lower())
        terms = [term(i) for i in range(1, args.count + 1)]
    else:
        terms = [counts.linext_seq(args.name, i) for i in range(args.count)]
    return _emit(args, [str(t) for t in terms])


def cmd_verify(args) -> int:
    from . import forests, series

    if args.max_n < 1:
        raise ValueError("max-n must be >= 1")
    _check_guard(args, args.max_n, DEFAULT_MAX_SHRUBS)
    gf = series.build_gf(args.stat, args.max_n)
    rows = []
    for n in range(1, args.max_n + 1):
        formula = gf.coeff(n)
        if args.stat == MIN_RISE:
            brute = forests.min_rise_count(n, max_shrubs=args.max_n)
        else:
            brute = forests.rise_distribution(args.stat, n, max_shrubs=args.max_n)
        rows.append([str(n), "PASS" if formula == brute else "FAIL"])
    return _emit(args, rows, all(r[1] == "PASS" for r in rows))


def cmd_paths(args) -> int:
    from . import kreweras

    _check_guard(args, args.n, DEFAULT_MAX_TRIPLES)
    if args.list:
        stream = kreweras.enumerate_paths(args.n, max_triples=args.n)
        words = map(kreweras.path_word, stream)
        if args.format != "json":  # csv: one row holding every walk
            _write_lines(words, "," if args.format == "csv" else "\n")
            return EXIT_OK
        payload = words
    else:
        payload = [str(kreweras.count_paths(args.n))]
    return _emit(args, payload)


def cmd_bijection(args) -> int:
    from . import counts, kreweras, posets

    n = args.n
    # a grid poset of 3n elements to enumerate and walks of n triples
    _check_guard(args, n, min(DEFAULT_MAX_ENUM_SIZE // 3, DEFAULT_MAX_TRIPLES))
    poset = _poset("L", n)
    extensions = list(
        posets.enumerate_linear_extensions(poset, max_size=poset.size)
    )
    walks = set(kreweras.enumerate_paths(n, max_triples=n))
    forward = {
        kreweras.path_from_rows(kreweras.rows_from_extension(e)) for e in extensions
    }
    extension_set = set(extensions)
    bijective = (
        len(forward) == len(extensions)  # injective
        and forward == walks  # onto
        and all(  # round-tripped
            kreweras.extension_from_rows(rows := kreweras.rows_from_path(p))
            in extension_set
            and kreweras.path_from_rows(rows) == p
            for p in walks
        )
    )
    formula = counts.ilf(n)
    ok = bijective and len(extensions) == formula and len(walks) == formula
    rows = [
        ["extensions", str(len(extensions))],
        ["paths", str(len(walks))],
        ["formula", str(formula)],
        ["bijective", "yes" if bijective else "no"],
    ]
    return _emit(args, rows, ok)


def cmd_extensions(args) -> int:
    from . import posets

    size = DEFAULT_MAX_COUNT_SIZE if args.mode == "count" else DEFAULT_MAX_ENUM_SIZE
    # the largest n whose 3n + extra elements are at most size
    _check_guard(args, args.n, (size - POSET_FAMILIES[args.family]) // 3)
    poset = _poset(args.family, args.n)
    if args.mode == "count":
        payload = [str(posets.count_linear_extensions(poset, max_size=poset.size))]
    else:
        names = [str(label) for label in range(poset.size + 1)]
        labelings = posets.enumerate_linear_extensions(poset, max_size=poset.size)
        payload = ([names[v] for v in labeling] for labeling in labelings)
    return _emit(args, payload)


def cmd_ode_check(args) -> int:
    from . import counts

    residuals = counts.ode_residuals(args.order)  # ValueError if order < 1
    rows = [
        [name, "nonzero" if any(residuals[name]) else "zero"]
        for name in ("A", "E", "S", "B")
    ]
    lb = counts.adjacent_chain_egfs(args.order)["LB"]  # LB_m at t^(3m+2)
    series_ok = counts.lb_ode_series(args.order) == lb
    rows.append(["series-vs-recurrence", "ok" if series_ok else "mismatch"])
    return _emit(args, rows, all(r[1] in ("zero", "ok") for r in rows))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrubstat",
        description=(
            "Exact rise-statistic distributions over forests of binary "
            "shrubs: series coefficients, counting sequences, lattice "
            "walks, linear extensions, and cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default: text)",
        )

    def add_force(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--force",
            action="store_true",
            help="raise the desk-scale enumeration guard for this run",
        )

    p = sub.add_parser("coeff", help="one series coefficient polynomial")
    p.add_argument("--stat", choices=GF_STATS, required=True)
    p.add_argument("--n", type=int, required=True, help="number of shrubs")
    p.add_argument(
        "--order",
        type=int,
        default=DEFAULT_SHRUBS,
        help="truncation order in shrub units (default: 6)",
    )
    add_format(p)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("seq", help="terms of a counting sequence")
    p.add_argument(
        "--name",
        choices=_SEQ_FROM_ONE + LINEXT_KINDS,
        required=True,
    )
    p.add_argument("--count", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("verify", help="series coefficients vs. brute force")
    p.add_argument("--stat", choices=GF_STATS, required=True)
    p.add_argument("--max-n", type=int, default=3, dest="max_n")
    add_format(p)
    add_force(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paths", help="first-quadrant walks")
    p.add_argument("--n", type=int, required=True, help="number of step triples")
    p.add_argument("--list", action="store_true", help="list walks, not count them")
    add_format(p)
    add_force(p)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser(
        "bijection", help="walks vs. grid-poset labelings, round-tripped"
    )
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    add_force(p)
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("extensions", help="linear extensions of a poset family")
    p.add_argument("--family", choices=tuple(POSET_FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("count", "list"), default="count")
    add_format(p)
    add_force(p)
    p.set_defaults(func=cmd_extensions)

    p = sub.add_parser(
        "ode-check",
        help="differential-equation residuals of the chain-count series",
    )
    p.add_argument("--order", type=int, default=20)
    add_format(p)
    p.set_defaults(func=cmd_ode_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.11 caps str(int)
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except (GuardExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: exact arithmetic failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except RecursionError as exc:  # the enumerations and the DP recurse per element
        print(f"error: n is too large for this command ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # an unguarded size (seq --count, ode-check --order, coeff --n)
        print("error: out of memory: the input is too large", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader stopped early (``| head``) and what was written is
        # correct; devnull keeps the exit-time flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
