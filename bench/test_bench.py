"""Tests of the benchmark's own parts.

Each checker accepts the program's output at small n and rejects a
corrupted copy of it; the tracer's self and busy times add up; and
BENCHMARK.json names what run.py prints.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import checks
import run

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from shrubstat import cli  # noqa: E402


def shrubstat(capsys, *argv: str) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def payload(capsys, *argv: str) -> list[int]:
    return checks.int_payload(json.loads(shrubstat(capsys, *argv, "--format", "json")))


def test_closed_forms_at_small_n():
    assert [checks.forests(n) for n in (1, 2, 3)] == [2, 80, 13440]
    assert [checks.itf(n) for n in (1, 2, 3)] == [2, 4, 8]
    assert [checks.ibf(n) for n in (1, 2, 3)] == [2, 40, 2240]
    assert [checks.ilf(n) for n in (1, 2, 6)] == [2, 16, 835584]
    assert [checks.isf(n) for n in (1, 2, 3)] == [2, 10, 80]


@pytest.mark.parametrize("stat", run.STATS)
def test_rise_poly_accepts_program_output(capsys, stat):
    for n in range(1, 16):
        coeffs = payload(capsys, "coeff", "--stat", stat, "--n", str(n), "--order", "15")
        checks.check_rise_poly(stat, n, coeffs)


@pytest.mark.parametrize("stat", run.STATS)
def test_rise_poly_rejects_off_by_one(capsys, stat):
    coeffs = payload(capsys, "coeff", "--stat", stat, "--n", "4")
    k = len(coeffs) - 1
    bumped = coeffs[:k] + [coeffs[k] + 1]
    with pytest.raises(checks.CheckError, match="sum to"):
        checks.check_rise_poly(stat, 4, bumped)
    shifted = coeffs[: k - 1] + [coeffs[k - 1] - 1, coeffs[k] + 1]
    with pytest.raises(checks.CheckError, match="first moment"):
        checks.check_rise_poly(stat, 4, shifted)


def test_min_rise(capsys):
    for n in range(1, 6):
        ris = payload(capsys, "coeff", "--stat", "ris", "--n", str(n))
        (value,) = payload(capsys, "coeff", "--stat", "minris", "--n", str(n))
        checks.check_min_rise(n, value, ris)
        with pytest.raises(checks.CheckError):
            checks.check_min_rise(n, value + 1, ris)


@pytest.mark.parametrize("name", run.SEQUENCES)
def test_sequence(capsys, name):
    terms = payload(capsys, "seq", "--name", name, "--count", "8")
    first = 1 if name in ("ITF", "IBF", "ILF", "IAF") else 0
    checks.check_sequence(name, terms, first)
    terms[2] -= 1
    with pytest.raises(checks.CheckError):
        checks.check_sequence(name, terms, first)


def walks_text(capsys, n: int) -> str:
    return shrubstat(capsys, "paths", "--n", str(n), "--list")


def test_walks_accept_program_output(capsys):
    for n in range(1, 5):
        assert checks.check_walks(n, walks_text(capsys, n)) == checks.ilf(n)


def test_walks_reject_bad_prefix(capsys):
    words = walks_text(capsys, 3).splitlines()
    words[0] = "W" + words[0][:3] + words[0][4:]  # NNNWWWSSS -> WNNNWWSSS
    with pytest.raises(checks.CheckError, match="prefix condition"):
        checks.check_walks(3, "\n".join(words) + "\n")
    with pytest.raises(checks.CheckError, match="prefix condition"):
        checks.check_walks(1, "NSW\nNWW\n")  # three steps, unequal counts


def test_walks_reject_duplicate_and_disorder(capsys):
    words = walks_text(capsys, 3).splitlines()
    for corrupt in (
        words[:5] + [words[4]] + words[5:],  # a walk twice
        words[:5] + [words[6], words[5]] + words[7:],  # two walks swapped
    ):
        with pytest.raises(checks.CheckError, match="duplicated or out of order"):
            checks.check_walks(3, "\n".join(corrupt) + "\n")


def test_walks_reject_malformed(capsys):
    words = walks_text(capsys, 2).splitlines()
    with pytest.raises(checks.CheckError, match="steps"):
        checks.check_walks(2, "\n".join(words + ["NWS"]) + "\n")
    with pytest.raises(checks.CheckError, match="letter"):
        checks.check_walks(2, "\n".join(words[:-1] + ["NNWWSX"]) + "\n")


def labelings_text(capsys, family: str, n: int) -> str:
    return shrubstat(capsys, "extensions", "--family", family, "--n", str(n), "--mode", "list")


@pytest.mark.parametrize("family", checks.FAMILIES)
def test_labelings_accept_program_output(capsys, family):
    for n in (1, 2):
        (count,) = payload(capsys, "extensions", "--family", family, "--n", str(n))
        assert checks.check_labelings(family, n, labelings_text(capsys, family, n)) == count


def test_labeling_counts_match_closed_forms(capsys):
    for n in range(1, 6):
        for family, count in (("ISF", checks.isf), ("IBF", checks.ibf), ("L", checks.ilf)):
            assert payload(capsys, "extensions", "--family", family, "--n", str(n)) == [
                count(n)
            ]


@pytest.mark.parametrize("family", checks.FAMILIES)
def test_labelings_reject_broken_cover(capsys, family):
    rows = [line.split("  ") for line in labelings_text(capsys, family, 2).splitlines()]
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]  # root above its left leaf
    text = "".join("  ".join(row) + "\n" for row in rows)
    with pytest.raises(checks.CheckError, match="cover"):
        checks.check_labelings(family, 2, text)


def test_labelings_reject_duplicate_and_disorder(capsys):
    lines = labelings_text(capsys, "A", 2).splitlines()
    for corrupt in (
        lines[:3] + [lines[2]] + lines[3:],  # a labeling twice
        lines[:3] + [lines[4], lines[3]] + lines[5:],  # two labelings swapped
    ):
        with pytest.raises(checks.CheckError, match="duplicated or out of order"):
            checks.check_labelings("A", 2, "\n".join(corrupt) + "\n")


def test_labelings_reject_malformed(capsys):
    lines = labelings_text(capsys, "A", 2).splitlines()
    row = lines[0].split("  ")
    repeated = "  ".join([row[1]] + row[1:])
    with pytest.raises(checks.CheckError, match="repeats a label"):
        checks.check_labelings("A", 2, "\n".join([repeated] + lines[1:]) + "\n")
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_labelings("A", 2, lines[0].replace("6", "7") + "\n")
    with pytest.raises(checks.CheckError, match="per line"):
        checks.check_labelings("A", 2, lines[0] + "  " + lines[1] + "\n")


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["calibrated_s", "peak_rss_mb", "setup_s"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_calibration_scales_cpu_time_by_reference_unit_cost():
    replies = [
        {"cpu_s": 3.0, "ref_units": 100, "ref_cpu_s": 0.2},  # units at half speed
        {"cpu_s": 1.0, "ref_units": 0, "ref_cpu_s": 0.0},  # too short to see a unit
        {"cpu_s": 2.0, "ref_units": 100, "ref_cpu_s": 0.1},
    ]
    pooled = 0.3 / 200
    assert run.calibrated_s(replies) == pytest.approx(
        [3.0 * run.REF_UNIT_S / 0.002, 1.0 * run.REF_UNIT_S / pooled, 2.0 * run.REF_UNIT_S / 0.001]
    )


def test_tracer_self_time_and_generator_busy_time(monkeypatch):
    import trace_child

    now = [0.0]
    monkeypatch.setattr(trace_child, "perf", lambda: now[0])

    def spend(seconds):
        now[0] += seconds

    tracer = trace_child.Tracer()
    inner = tracer.call("inner", lambda: spend(2.0))

    def items():
        for i in range(3):
            spend(1.0)
            yield i

    items = tracer.generator("items", items)

    def outer():
        inner()
        spend(0.5)
        for _ in items():
            spend(10.0)  # the consumer's time between items

    tracer.call("outer", outer)()
    layers = tracer.summary()
    assert layers["inner"] == {"self_s": 2.0, "calls": 1, "count": 0, "peak_bytes": 0}
    assert layers["items"]["self_s"] == 3.0 and layers["items"]["count"] == 3
    assert layers["outer"]["self_s"] == 30.5
