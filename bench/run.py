"""shrubstat benchmark: one command runs a workload and prints its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each command of the workload
runs in a fresh interpreter, one child at a time, with ``src`` on
``PYTHONPATH``; its standard output goes to a file under ``.bench_out``
and is checked by the independent checkers of ``checks.py`` after the
timed interval.  A command fails if it exits non-zero or fails a check.
The run repeats whole rounds of the same commands while another round
still fits in ``--seconds`` (at least one round).

``--trace 0`` prints the end-to-end metrics: ``calibrated_s`` (the
round's command CPU times, each scaled to the reference speed, summed;
median over rounds), ``peak_rss_mb`` (the largest child max-RSS of a
round, median over rounds) and ``setup_s`` (interpreter start plus
``import shrubstat.cli`` and parser build, scaled the same way; median
of several fresh starts).  The scaling divides out the host's changing
CPU speed: see ``launcher.py``.  ``--trace 1`` runs the same commands
through ``trace_child.py`` and prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

perf = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: A run is cut off after this long, whatever ``--seconds`` says.
DEADLINE_S = 170.0
#: CPU seconds of one reference unit (launcher.py) at the reference speed:
#: a calibrated second is a second of CPU time at the speed at which a unit
#: takes 1 ms.  On a 2.0 GHz Xeon vCPU with Python 3.11 a unit took 0.7 to
#: 1.6 ms while it shared the CPU with a benchmark command.
REF_UNIT_S = 1.0e-3
#: Fresh interpreter starts timed for ``setup_s``, half of them before the
#: rounds and half after, so that the median spans the run.
SETUP_PROBES = 20

STATS = ("ris", "risT", "risB", "risL", "risA")
GF_STATS = STATS + ("minris",)
SEQUENCES = ("ITF", "IBF", "ILF", "IAF", "LA", "LB", "LE", "LS")

MB = 2**20

PER_LAYER = (
    ("setup.import_s", "s"),
    ("forests.rise_distribution_s", "s"),
    ("forests.forests_swept", "count"),
    ("forests.forests_per_s", "1/s"),
    ("series.build_gf_s", "s"),
    ("series.rise_gf_via_fraction_s", "s"),
    ("series.closed_form_gf_s", "s"),
    ("polynomial.xpoly_s", "s"),
    ("polynomial.xpoly_calls", "count"),
    ("counts.linext_seq_s", "s"),
    ("counts.lb_via_ode_s", "s"),
    ("counts.ode_residuals_s", "s"),
    ("posets.count_linear_extensions_s", "s"),
    ("posets.enumerate_linear_extensions_s", "s"),
    ("posets.enumerate_linear_extensions_peak_mb", "MB"),
    ("posets.labelings", "count"),
    ("kreweras.enumerate_paths_s", "s"),
    ("kreweras.walks", "count"),
    ("kreweras.bijection_maps_s", "s"),
    ("cli.main_self_s", "s"),
    ("cli.main_peak_mb", "MB"),
    ("cli.stdout_mb", "MB"),
)


# -- operations ---------------------------------------------------------------

Outputs = dict  # label -> captured standard output of that operation


@dataclass
class Op:
    """One command: ``shrubstat ARGV`` (or ``routes.py ARGV``) plus the check
    of its output, which may consult the other outputs of the round."""

    label: str
    argv: list[str]
    check: Callable[[str, Outputs], None]
    kind: str = "cli"


def coeff_label(stat: str, n: int) -> str:
    return f"coeff {stat} n={n}"


def coeff(stat: str, n: int) -> Op:
    def check(text: str, outputs: Outputs) -> None:
        values = checks.int_payload(checks.json_record(text, "coeff"))
        if stat == "minris":
            ris = checks.json_record(outputs[coeff_label("ris", n)], "coeff")
            checks.require(len(values) == 1, "minris must be a constant")
            checks.check_min_rise(n, values[0], checks.int_payload(ris))
        else:
            checks.check_rise_poly(stat, n, values)

    argv = ["coeff", "--stat", stat, "--n", str(n), "--order", str(n)]
    return Op(coeff_label(stat, n), argv + ["--format", "json"], check)


def verify(stat: str, max_n: int) -> Op:
    def check(text: str, outputs: Outputs) -> None:
        rows = checks.json_record(text, "verify")["payload"]
        want = [[str(n), "PASS"] for n in range(1, max_n + 1)]
        checks.require(rows == want, f"verify {stat} rows {rows}")

    argv = ["verify", "--stat", stat, "--max-n", str(max_n), "--format", "json"]
    return Op(f"verify {stat} max_n={max_n}", argv, check)


def seq_label(name: str) -> str:
    return f"seq {name}"


def seq(name: str, count: int) -> Op:
    first = 1 if name in ("ITF", "IBF", "ILF", "IAF") else 0

    def check(text: str, outputs: Outputs) -> None:
        terms = checks.int_payload(checks.json_record(text, "seq"))
        checks.require(len(terms) == count, f"seq {name}: {len(terms)} terms")
        checks.check_sequence(name, terms, first)
        if name == "IAF":  # adjacent-increasing chains are counted by LA
            la = checks.int_payload(checks.json_record(outputs[seq_label("LA")], "seq"))
            checks.require(terms[:-1] == la[1:], "IAF differs from LA")

    argv = ["seq", "--name", name, "--count", str(count), "--format", "json"]
    return Op(seq_label(name), argv, check)


def ode_check(order: int) -> Op:
    def check(text: str, outputs: Outputs) -> None:
        rows = checks.json_record(text, "ode-check")["payload"]
        want = [[k, "zero"] for k in "AESB"] + [["series-vs-recurrence", "ok"]]
        checks.require(rows == want, f"ode-check rows {rows}")

    return Op("ode-check", ["ode-check", "--order", str(order), "--format", "json"], check)


def extensions_label(family: str, n: int, mode: str) -> str:
    return f"extensions {family} n={n} {mode}"


def extensions_count(family: str, n: int) -> Op:
    def check(text: str, outputs: Outputs) -> None:
        (value,) = checks.int_payload(checks.json_record(text, "extensions"))
        if family == "ISF":
            want = checks.isf(n)
        elif family == "IBF":
            want = checks.ibf(n)
        elif family == "L":
            want = checks.ilf(n)
        elif seq_label("L" + family) in outputs:  # down-set DP vs. recurrence
            terms = checks.json_record(outputs[seq_label("L" + family)], "seq")
            want = checks.int_payload(terms)[n]
        else:
            checks.check_sequence("L" + family, [value], n)
            want = value
        checks.require(value == want, f"{family} at n={n}: {value}, want {want}")

    argv = ["extensions", "--family", family, "--n", str(n), "--mode", "count"]
    return Op(
        extensions_label(family, n, "count"),
        argv + ["--force", "--format", "json"],
        check,
    )


def extensions_list(family: str, n: int) -> Op:
    def check(text: str, outputs: Outputs) -> None:
        found = checks.check_labelings(family, n, text)
        record = checks.json_record(
            outputs[extensions_label(family, n, "count")], "extensions"
        )
        (want,) = checks.int_payload(record)
        checks.require(found == want, f"listed {found} labelings, count mode says {want}")

    argv = ["extensions", "--family", family, "--n", str(n), "--mode", "list"]
    return Op(extensions_label(family, n, "list"), argv, check)


def paths(n: int, listing: bool) -> Op:
    def check(text: str, outputs: Outputs) -> None:
        if listing:
            found = checks.check_walks(n, text)
        else:
            (found,) = checks.int_payload(checks.json_record(text, "paths"))
        checks.require(found == checks.ilf(n), f"{found} walks, want {checks.ilf(n)}")

    argv = ["paths", "--n", str(n)] + (["--list"] if listing else ["--format", "json"])
    return Op(f"paths n={n} {'list' if listing else 'count'}", argv, check)


def bijection(n: int) -> Op:
    def check(text: str, outputs: Outputs) -> None:
        rows = checks.json_record(text, "bijection")["payload"]
        count = str(checks.ilf(n))
        want = [["extensions", count], ["paths", count], ["formula", count]]
        checks.require(rows == want + [["bijective", "yes"]], f"bijection rows {rows}")

    return Op(f"bijection n={n}", ["bijection", "--n", str(n), "--format", "json"], check)


def routes(n: int) -> Op:
    def check(text: str, outputs: Outputs) -> None:
        polys = json.loads(text)
        checks.require(sorted(polys) == ["ris", "risB", "risL", "risT"], "route keys")
        for stat, values in polys.items():
            reciprocal = checks.json_record(outputs[coeff_label(stat, n)], "coeff")
            checks.require(
                values == reciprocal["payload"],
                f"{stat} at n={n}: library route differs from coeff",
            )
            checks.check_rise_poly(stat, n, [int(v) for v in values])

    return Op(f"routes n={n}", ["--n", str(n)], check, kind="routes")


# -- workloads ----------------------------------------------------------------


def sweep_ops(rng: random.Random) -> list[Op]:
    """verify at n = 4 for one statistic (the 5 913 600-forest sweep), at
    n = 3 for the others, and the n = 4 polynomials for the identities."""
    big = rng.choice(GF_STATS)
    ops = [verify(stat, 4 if stat == big else 3) for stat in GF_STATS]
    return ops + [coeff(stat, 4) for stat in GF_STATS]


def counting_ops(rng: random.Random) -> list[Op]:
    """Series builders at t^120, the sequences to 120 terms, the ODE check,
    every poset family counted at n = 7 and 8, and the n = 6 walks counted."""
    n = 40
    ops = [coeff(stat, n) for stat in GF_STATS] + [routes(n)]
    ops += [seq(name, 120) for name in SEQUENCES]
    ops.append(ode_check(90))
    ops += [extensions_count(f, m) for f in checks.FAMILIES for m in (7, 8)]
    return ops + [paths(6, listing=False)]


def listing_ops(rng: random.Random) -> list[Op]:
    """Materialised labelings and walks, and the bijection round trip."""
    return [
        extensions_list("A", 4),
        extensions_count("A", 4),
        paths(6, listing=True),
        bijection(4),
    ]


WORKLOADS = {"sweep": sweep_ops, "counting": counting_ops, "listing": listing_ops}


# -- running ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SHRUBSTAT_MAX_N", None)  # the default guards apply
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small process that starts every command (see launcher.py)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )

    def run(self, cmd: list[str], stdout: Path, timeout: float) -> dict:
        """Run one command to its end; its wall and CPU seconds, max RSS
        (KiB) and exit code."""
        request = {
            "cmd": cmd,
            "stdout": str(stdout),
            "stderr": str(stdout.with_suffix(".err")),
            "timeout": timeout,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def calibrated_s(replies: list) -> list[float]:
    """Each command's CPU seconds at the reference speed: its CPU time
    times ``REF_UNIT_S`` over the CPU cost of a reference unit while it
    ran.  A command too short to see a whole unit takes the pooled cost
    of the others'."""
    units = sum(r["ref_units"] for r in replies)
    if not units:
        raise RuntimeError("no reference unit completed during the commands")
    pooled = sum(r["ref_cpu_s"] for r in replies) / units
    return [
        r["cpu_s"] * REF_UNIT_S / (r["ref_cpu_s"] / r["ref_units"] if r["ref_units"] else pooled)
        for r in replies
    ]


def setup_probes(launcher: Launcher, probes: int) -> list:
    """Fresh interpreters importing the CLI and building its parser; the
    launcher's reply for each."""
    code = "import shrubstat.cli as cli; cli.build_parser()"
    replies = []
    for _ in range(probes):
        reply = launcher.run([sys.executable, "-c", code], OUT / "setup.out", 60.0)
        if reply["rc"] != 0:
            raise RuntimeError(f"setup probe exited {reply['rc']}")
        replies.append(reply)
    return replies


@dataclass
class Round:
    commands: list  # the launcher's reply for each command, with its label
    failed: int
    traces: list

    @property
    def wall_s(self) -> float:
        return sum(c["wall_s"] for c in self.commands)

    @property
    def calibrated_s(self) -> float:
        return sum(calibrated_s(self.commands))

    @property
    def peak_kb(self) -> int:
        return max(c["maxrss_kb"] for c in self.commands)


def run_round(ops: list[Op], trace: bool, launcher: Launcher, started: float) -> Round:
    outputs: Outputs = {}
    codes, commands, traces = {}, [], []
    for i, op in enumerate(ops):
        stdout = OUT / f"op{i:02d}.out"
        if op.kind == "routes":
            base = [str(HERE / "routes.py")]
        else:
            base = ["-m", "shrubstat"]
        if trace:
            trace_file = OUT / f"op{i:02d}.trace.json"
            base = [str(HERE / "trace_child.py"), str(trace_file), str(stdout), op.kind]
        cmd = [sys.executable, *base, *op.argv]
        timeout = max(5.0, DEADLINE_S - (perf() - started))
        reply = launcher.run(cmd, stdout, timeout)
        codes[op.label] = reply["rc"]
        commands.append({"label": op.label, **reply})
        outputs[op.label] = stdout.read_text()
        if trace and codes[op.label] == 0:
            traces.append(json.loads(trace_file.read_text()))
    failed = 0
    for op in ops:
        try:
            checks.require(codes[op.label] == 0, f"exit code {codes[op.label]}")
            op.check(outputs[op.label], outputs)
        except Exception as exc:  # any check that cannot pass fails its command
            failed += 1
            print(f"FAIL {op.label}: {exc!r}", file=sys.stderr)
    return Round(commands, failed, traces)


def layer_metrics(traces: list) -> dict:
    """Per-layer figures of one round, summed (peaks: largest) over its
    commands."""
    layers: dict = {}
    for trace in traces:
        for name, layer in trace["layers"].items():
            agg = layers.setdefault(
                name, {"self_s": 0.0, "calls": 0, "count": 0, "peak_bytes": 0}
            )
            for key in ("self_s", "calls", "count"):
                agg[key] += layer[key]
            agg["peak_bytes"] = max(agg["peak_bytes"], layer["peak_bytes"])

    def get(name: str, key: str):
        return layers.get(name, {}).get(key, 0)

    swept = get("forests.rise_distribution", "count")
    sweep_s = get("forests.rise_distribution", "self_s")
    out = {
        "setup.import_s": statistics.median(t["import_s"] for t in traces),
        "forests.forests_swept": swept,
        "forests.forests_per_s": swept / sweep_s if sweep_s else 0.0,
        "polynomial.xpoly_calls": get("polynomial.xpoly", "calls"),
        "posets.enumerate_linear_extensions_peak_mb": get(
            "posets.enumerate_linear_extensions", "peak_bytes"
        )
        / MB,
        "posets.labelings": get("posets.enumerate_linear_extensions", "count"),
        "kreweras.walks": get("kreweras.enumerate_paths", "count"),
        "cli.main_peak_mb": max(t["main_peak_kb"] for t in traces) / 1024,
        "cli.stdout_mb": sum(t["stdout_bytes"] for t in traces) / MB,
    }
    for name, _ in PER_LAYER:
        if name not in out:  # the self time of the span named "<name>" less "_s"
            layer = "cli.main" if name == "cli.main_self_s" else name[: -len("_s")]
            out[name] = get(layer, "self_s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="shrubstat benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shrubstat" / "cli.py").is_file():
        print(f"error: no shrubstat source under {SRC}", file=sys.stderr)
        return 2
    started = perf()
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    ops = WORKLOADS[args.workload](rng)
    rng.shuffle(ops)
    rounds: list[Round] = []
    probes = 0 if args.trace else SETUP_PROBES // 2
    with Launcher(child_env()) as launcher:
        setup_probes(launcher, 1)  # warm-up: fills the bytecode cache
        setup = setup_probes(launcher, probes)
        measuring = perf()
        while True:
            rounds.append(run_round(ops, bool(args.trace), launcher, started))
            elapsed = perf() - measuring
            if elapsed + elapsed / len(rounds) > args.seconds or elapsed > DEADLINE_S / 2:
                break
        setup += setup_probes(launcher, probes)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        per_round = [layer_metrics(r.traces) for r in rounds if r.traces]
        metrics = {
            name: {
                "value": statistics.median(m[name] for m in per_round) if per_round else 0,
                "unit": unit,
            }
            for name, unit in PER_LAYER
        }
    else:
        metrics = {
            "calibrated_s": {
                "value": statistics.median(r.calibrated_s for r in rounds),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": statistics.median(r.peak_kb for r in rounds) / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(calibrated_s(setup)), "unit": "s"},
        }
    result = {
        "correct": failed == 0,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    details = {"result": result, "setup": setup, "rounds": [r.commands for r in rounds]}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(details))
    print(
        f"{args.workload}: {len(rounds)} round(s) of {len(ops)} commands, "
        f"command wall {statistics.median(r.wall_s for r in rounds):.3f} s a round, "
        f"calibrated {statistics.median(r.calibrated_s for r in rounds):.3f} s, "
        f"{perf() - started:.1f} s in all",
        file=sys.stderr,
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
