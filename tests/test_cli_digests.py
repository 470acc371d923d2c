"""The command line's output, pinned.  Each argv of ARGVS runs in process
through ``cli.main``; the sha256 of its stdout, the sha256 of its stderr
and its exit code must be those that ``cli_digests.json`` holds.  A
change that alters output on purpose rewrites the file with

    PYTHONPATH=src python tests/test_cli_digests.py

and says which argv changed and why."""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from shrubstat.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")

STATS = ("ris", "risT", "risB", "risL", "risA", "minris")
SEQUENCES = ("ITF", "IBF", "ILF", "IAF", "LA", "LB", "LE", "LS")
FAMILIES = ("A", "E", "S", "B", "ISF", "IBF", "L")

# every command at a small size, in each format
_SMALL = [
    *(f"coeff --stat {stat} --n 2" for stat in STATS),
    "coeff --stat ris --n 3 --order 3",
    *(f"seq --name {name} --count 6" for name in SEQUENCES),
    *(f"verify --stat {stat} --max-n 2" for stat in STATS),
    "paths --n 3",
    "paths --n 2 --list",
    "bijection --n 2",
    *(
        f"extensions --family {family} --n 2 --mode {mode}"
        for family in FAMILIES
        for mode in ("count", "list")
    ),
    "ode-check --order 10",
]

# one past each default guard, and the other refusals
_REFUSED = [
    "verify --stat ris --max-n 5",
    "paths --n 7",
    "paths --n 7 --list",
    "bijection --n 5",
    *(
        f"extensions --family {family} --n {limit + 1} --mode {mode}"
        for mode, limits in (
            ("count", {"A": 8, "E": 7, "S": 7, "B": 7, "ISF": 8, "IBF": 8, "L": 8}),
            ("list", {"A": 4, "E": 3, "S": 3, "B": 3, "ISF": 4, "IBF": 4, "L": 4}),
        )
        for family, limit in limits.items()
    ),
    "coeff --stat ris --n 9",
    "seq --name LA --count 0",
    "verify --stat ris --max-n 0",
    "extensions --family A --n 400 --mode list --force",
    "coeff --stat bogus --n 1",
    "",
]

# the benchmark's workload commands that take well under a second
_WORKLOADS = [
    *(
        f"verify --stat {stat} --max-n {n} --format json"
        for stat in STATS
        for n in (3, 4)
    ),
    *(
        f"coeff --stat {stat} --n {n} --order {n} --format json"
        for stat in STATS
        for n in (4, 40)
    ),
    *(f"seq --name {name} --count 120 --format json" for name in SEQUENCES),
    "ode-check --order 90 --format json",
    *(
        f"extensions --family {family} --n {n} --mode count --force --format json"
        for family in FAMILIES
        for n in (7, 8)
    ),
    "paths --n 6 --format json",
    "extensions --family A --n 4 --mode count --force --format json",
    "paths --n 6 --list",
    "bijection --n 4 --format json",
]

# a listing with two-digit labels: 74 601 labelings of 11 elements
_LISTINGS = [
    f"extensions --family B --n 3 --mode list --format {fmt}"
    for fmt in ("text", "csv", "json")
]

ARGVS = [
    *(f"{argv} --format {fmt}" for argv in _SMALL for fmt in ("text", "json", "csv")),
    *_REFUSED,
    *_WORKLOADS,
    *_LISTINGS,
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(argv: str) -> list:
    """[sha256 of stdout, sha256 of stderr, exit code] of ``shrubstat argv``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv.split())
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return [_sha256(out.getvalue()), _sha256(err.getvalue()), code]


def test_cli_output_matches_the_pinned_digests(monkeypatch):
    monkeypatch.delenv("SHRUBSTAT_MAX_N", raising=False)
    pinned = json.loads(DIGESTS.read_text())
    assert list(pinned) == ARGVS
    changed = [argv for argv in ARGVS if digest(argv) != pinned[argv]]
    assert changed == []


if __name__ == "__main__":
    os.environ.pop("SHRUBSTAT_MAX_N", None)
    lines = [f"{json.dumps(argv)}: {json.dumps(digest(argv))}" for argv in ARGVS]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one argv a line
    print(f"wrote {len(lines)} digests to {DIGESTS}", file=sys.stderr)
