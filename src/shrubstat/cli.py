"""Command-line surface: ``shrubstat <command> [flags]``.

Commands: coeff, seq, verify, paths, bijection, extensions, ode-check.
Every command is deterministic and offers text, JSON and CSV output;
all big integers are serialized as decimal strings (never floats).

The stable JSON schema is::

    {"command": str, "params": {...}, "payload": [str...] | [[str...]...],
     "status": "ok" | "fail"}

Exit codes: 0 success, 1 verification failure, 2 usage or guard error.
A reader that closes the output pipe early (``| head``) ends the command
quietly with exit 0.
Desk-scale guards are overridden globally by the environment variable
``SHRUBSTAT_MAX_N`` or per invocation with ``--force``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from typing import Iterable, Sequence

from . import counts, forests, kreweras, posets, series
from .errors import GuardExceeded
from .polynomial import XPoly

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_SEQ_FROM_ONE = {
    "ITF": counts.itf,
    "IBF": counts.ibf,
    "ILF": counts.ilf,
    "IAF": counts.iaf,
}

_POSET_FAMILIES = ("A", "E", "S", "B", "ISF", "IBF", "L")

_GUARDS = {
    "verify": forests.DEFAULT_MAX_SHRUBS,
    "paths": kreweras.DEFAULT_MAX_TRIPLES,
    "bijection": 4,  # grid poset has 3n elements; enumeration wants <= 12
    "extensions-count": 7,  # widest family instance at n=7 has 23 nodes
    "extensions-list": 4,
}


def _guard(name: str) -> int:
    env = os.environ.get("SHRUBSTAT_MAX_N")
    if env is None:
        return _GUARDS[name]
    if not env.strip().isdecimal():
        raise ValueError(
            f"SHRUBSTAT_MAX_N must be a non-negative integer, got {env!r}"
        )
    return int(env)


def _check_guard(args, name: str, n: int) -> bool:
    limit = _guard(name)
    if n <= limit or args.force:
        return True
    print(
        f"error: n={n} exceeds the guard ({limit}); re-run with --force "
        "or set SHRUBSTAT_MAX_N",
        file=sys.stderr,
    )
    return False


def _emit(args, command: str, params: dict, payload, status: str) -> None:
    if args.format == "json":
        record = {
            "command": command,
            "params": params,
            "payload": payload,
            "status": status,
        }
        print(json.dumps(record, sort_keys=True))
    elif args.format == "csv":
        rows = payload if payload and isinstance(payload[0], list) else [payload]
        for row in rows:
            print(",".join(row))
    else:
        for line in _text_lines(payload):
            print(line)
        if status == "fail":
            print("FAIL")


#: Lines per write call of a streamed listing.
_BATCH = 4096


def _write_lines(lines: Iterable[str], sep: str = "\n") -> None:
    """Write the lines joined by sep and ended by a newline, as they are
    produced: one write call per batch of lines, so a listing is never
    held whole and the stream's per-call cost is paid per batch."""
    write = sys.stdout.write
    it = iter(lines)
    lead = ""
    while batch := list(islice(it, _BATCH)):
        write(lead + sep.join(batch))
        lead = sep
    if lead:
        write("\n")


def _text_lines(payload) -> list[str]:
    if payload and isinstance(payload[0], list):
        return ["  ".join(row) for row in payload]
    return [", ".join(payload)] if payload else []


def _poly_payload(poly: XPoly) -> list[str]:
    return [str(c) for c in poly.int_coeffs()] or ["0"]


def cmd_coeff(args) -> int:
    if not 0 <= args.n <= args.order:
        print(
            f"error: n={args.n} out of range for truncation order {args.order}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    gf = series.build_gf(args.stat, args.order)
    poly = gf.coeff(args.n)
    params = {"stat": args.stat, "n": args.n, "order": args.order}
    if args.format == "text":
        print(str(poly))
    else:
        _emit(args, "coeff", params, _poly_payload(poly), "ok")
    return EXIT_OK


def cmd_seq(args) -> int:
    if args.count < 1:
        print("error: count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.name in _SEQ_FROM_ONE:
        terms = [_SEQ_FROM_ONE[args.name](i) for i in range(1, args.count + 1)]
    else:
        terms = [counts.linext_seq(args.name, i) for i in range(args.count)]
    payload = [str(t) for t in terms]
    _emit(args, "seq", {"name": args.name, "count": args.count}, payload, "ok")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not _check_guard(args, "verify", args.max_n):
        return EXIT_USAGE
    gf = series.build_gf(args.stat, args.max_n)
    rows = []
    all_ok = True
    for n in range(1, args.max_n + 1):
        formula = gf.coeff(n)
        if args.stat == series.MIN_RISE:
            brute = XPoly.constant(forests.min_rise_count(n, max_shrubs=args.max_n))
        else:
            brute = forests.rise_distribution(args.stat, n, max_shrubs=args.max_n)
        ok = formula == brute
        all_ok &= ok
        rows.append([str(n), "PASS" if ok else "FAIL"])
    status = "ok" if all_ok else "fail"
    _emit(
        args,
        "verify",
        {"stat": args.stat, "max_n": args.max_n},
        rows,
        status,
    )
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_paths(args) -> int:
    if not _check_guard(args, "paths", args.n):
        return EXIT_USAGE
    params = {"n": args.n, "list": bool(args.list)}
    if args.list:
        stream = kreweras.enumerate_paths(args.n, max_triples=args.n)
        words = map(kreweras.path_word, stream)
        if args.format != "json":  # csv: one row holding every walk
            _write_lines(words, "," if args.format == "csv" else "\n")
            return EXIT_OK
        payload = list(words)
    else:
        payload = [str(kreweras.count_paths(args.n))]
    _emit(args, "paths", params, payload, "ok")
    return EXIT_OK


def cmd_bijection(args) -> int:
    if not _check_guard(args, "bijection", args.n):
        return EXIT_USAGE
    n = args.n
    poset = posets.build_lex_poset(n)
    extensions = list(
        posets.enumerate_linear_extensions(poset, max_size=poset.size)
    )
    walks = set(kreweras.enumerate_paths(n, max_triples=n))
    forward = [
        kreweras.path_from_rows(kreweras.rows_from_extension(e)) for e in extensions
    ]
    extension_set = set(extensions)
    injective = len(set(forward)) == len(extensions)
    onto = set(forward) == walks
    round_trip = all(
        kreweras.extension_from_rows(rows := kreweras.rows_from_path(p))
        in extension_set
        and kreweras.path_from_rows(rows) == p
        for p in walks
    )
    formula = counts.ilf(n)
    ok = (
        injective
        and onto
        and round_trip
        and len(extensions) == formula
        and len(walks) == formula
    )
    rows = [
        ["extensions", str(len(extensions))],
        ["paths", str(len(walks))],
        ["formula", str(formula)],
        ["bijective", "yes" if (injective and onto and round_trip) else "no"],
    ]
    _emit(args, "bijection", {"n": n}, rows, "ok" if ok else "fail")
    return EXIT_OK if ok else EXIT_FAIL


def _build_family(family: str, n: int) -> posets.Poset:
    if family == "ISF":
        return posets.build_isf_poset(n)
    if family == "IBF":
        return posets.build_ibf_poset(n)
    if family == "L":
        return posets.build_lex_poset(n)
    return posets.build_adjacent_poset(family, n)


def cmd_extensions(args) -> int:
    guard_name = "extensions-list" if args.mode == "list" else "extensions-count"
    if not _check_guard(args, guard_name, args.n):
        return EXIT_USAGE
    try:
        poset = _build_family(args.family, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    params = {"family": args.family, "n": args.n, "mode": args.mode}
    if args.mode == "count":
        payload = [str(posets.count_linear_extensions(poset, max_size=poset.size))]
    else:
        labelings = posets.enumerate_linear_extensions(poset, max_size=poset.size)
        if args.format != "json":
            sep = "," if args.format == "csv" else "  "
            names = [str(label) for label in range(poset.size + 1)]
            _write_lines(
                sep.join([names[v] for v in labeling]) for labeling in labelings
            )
            return EXIT_OK
        payload = [[str(v) for v in labeling] for labeling in labelings]
    _emit(args, "extensions", params, payload, "ok")
    return EXIT_OK


def cmd_ode_check(args) -> int:
    if args.order < 1:
        print("error: order must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    residuals = counts.ode_residuals(args.order)
    rows = []
    all_ok = True
    for name in ("A", "E", "S", "B"):
        ok = all(v == 0 for v in residuals[name])
        all_ok &= ok
        rows.append([name, "zero" if ok else "nonzero"])
    terms = (args.order - 2) // 3
    series_ok = all(
        counts.lb_via_ode(m) == counts.linext_seq("LB", m) for m in range(terms + 1)
    )
    all_ok &= series_ok
    rows.append(["series-vs-recurrence", "ok" if series_ok else "mismatch"])
    _emit(
        args,
        "ode-check",
        {"order": args.order},
        rows,
        "ok" if all_ok else "fail",
    )
    return EXIT_OK if all_ok else EXIT_FAIL


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
    p.add_argument("--stat", choices=series.GF_STATS, required=True)
    p.add_argument("--n", type=int, required=True, help="number of shrubs")
    p.add_argument(
        "--order",
        type=int,
        default=series.DEFAULT_SHRUBS,
        help="truncation order in shrub units (default: 6)",
    )
    add_format(p)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("seq", help="terms of a counting sequence")
    p.add_argument(
        "--name",
        choices=tuple(_SEQ_FROM_ONE) + counts.LINEXT_KINDS,
        required=True,
    )
    p.add_argument("--count", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("verify", help="series coefficients vs. brute force")
    p.add_argument("--stat", choices=series.GF_STATS, required=True)
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
    p.add_argument("--family", choices=_POSET_FAMILIES, required=True)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: exact arithmetic failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except RecursionError as exc:  # the enumerations and the DP recurse per element
        print(f"error: n is too large for this command ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader stopped early (``| head``) and what was written is
        # correct; devnull keeps the exit-time flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
