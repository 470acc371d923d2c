import json
import os
import subprocess
import sys

import pytest

from shrubstat import XPoly, enumerate_paths, path_word
from shrubstat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeff_text(capsys):
    code, out, _ = run(capsys, "coeff", "--stat", "risT", "--n", "2")
    assert code == 0
    assert out == "76 + 4x\n"


def test_coeff_csv(capsys):
    code, out, _ = run(capsys, "coeff", "--stat", "risA", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "3194,7052,3194\n"


def test_coeff_json_and_round_trip(capsys):
    code, out, _ = run(capsys, "coeff", "--stat", "ris", "--n", "0", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "command": "coeff",
        "params": {"n": 0, "order": 6, "stat": "ris"},
        "payload": ["1"],
        "status": "ok",
    }
    assert json.dumps(record, sort_keys=True) == out.strip()


def test_coeff_out_of_range(capsys):
    code, _, err = run(capsys, "coeff", "--stat", "ris", "--n", "9")
    assert code == 2
    assert "out of range" in err


def test_coeff_unknown_stat_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["coeff", "--stat", "bogus", "--n", "1"])
    assert exc.value.code == 2


def test_seq(capsys):
    code, out, _ = run(capsys, "seq", "--name", "LS", "--count", "4")
    assert code == 0
    assert out == "1, 5, 169, 19241\n"
    code, out, _ = run(capsys, "seq", "--name", "LE", "--count", "4")
    assert out == "1, 3, 99, 11259\n"
    code, out, _ = run(capsys, "seq", "--name", "ITF", "--count", "3")
    assert out == "2, 4, 8\n"
    code, out, _ = run(capsys, "seq", "--name", "IAF", "--count", "3", "--format", "csv")
    assert out == "2,40,3194\n"
    code, _, _ = run(capsys, "seq", "--name", "LA", "--count", "0")
    assert code == 2


def test_seq_big_terms_are_decimal_strings(capsys):
    code, out, _ = run(capsys, "seq", "--name", "LB", "--count", "11", "--format", "json")
    record = json.loads(out)
    assert record["payload"][-1] == "1208025937371403268201735037"


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--stat", "risB", "--max-n", "2")
    assert code == 0
    assert out == "1  PASS\n2  PASS\n"
    code, out, _ = run(capsys, "verify", "--stat", "risL", "--max-n", "1")
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--stat", "minris", "--max-n", "2", "--format", "json"
    )
    record = json.loads(out)
    assert record["status"] == "ok"
    assert record["payload"] == [["1", "PASS"], ["2", "PASS"]]


def test_verify_guard(capsys, monkeypatch):
    code, _, err = run(capsys, "verify", "--stat", "ris", "--max-n", "5")
    assert code == 2 and "guard" in err
    monkeypatch.setenv("SHRUBSTAT_MAX_N", "2")
    code, _, err = run(capsys, "verify", "--stat", "ris", "--max-n", "3")
    assert code == 2
    monkeypatch.setenv("SHRUBSTAT_MAX_N", "3")
    code, _, _ = run(capsys, "verify", "--stat", "ris", "--max-n", "3")
    assert code == 0
    for bad in ("abc", "-3"):
        monkeypatch.setenv("SHRUBSTAT_MAX_N", bad)
        code, out, err = run(capsys, "verify", "--stat", "ris", "--max-n", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: SHRUBSTAT_MAX_N")


def test_verify_detects_mismatch(capsys, monkeypatch):
    from shrubstat import cli as cli_module

    monkeypatch.setattr(
        cli_module.forests,
        "rise_distribution",
        lambda stat, n, max_shrubs=4: XPoly((1,)),
    )
    code, out, _ = run(capsys, "verify", "--stat", "risB", "--max-n", "2")
    assert code == 1
    assert "FAIL" in out


def test_paths(capsys):
    code, out, _ = run(capsys, "paths", "--n", "2")
    assert code == 0 and out == "16\n"
    code, out, _ = run(capsys, "paths", "--n", "1", "--list")
    assert out == "NWS\nNSW\n"
    code, out, _ = run(capsys, "paths", "--n", "1", "--list", "--format", "json")
    assert json.loads(out)["payload"] == ["NWS", "NSW"]
    code, _, err = run(capsys, "paths", "--n", "7")
    assert code == 2 and "guard" in err


# labelings of family A at n = 2, one string of labels per line
A2_LABELINGS = (
    "123456 123465 124356 124365 125364 132456 132465 134256 134265 135264 "
    "142356 142365 143256 143265 145263 152346 152364 153246 153264 154263 "
    "162345 162354 163245 163254 164253 234156 234165 235164 243156 243165 "
    "245163 253146 253164 254163 263145 263154 264153 345162 354162 364152"
).split()
PATHS_2 = (
    "NNWWSS NNWSWS NNWSSW NNSWWS NNSWSW NNSSWW NWNWSS NWNSWS "
    "NWNSSW NWSNWS NWSNSW NSNWWS NSNWSW NSNSWW NSWNWS NSWNSW"
).split()


def test_list_output_is_unchanged_by_streaming(capsys):
    listing = ("extensions", "--family", "A", "--n", "2", "--mode", "list")
    code, out, _ = run(capsys, *listing)
    assert code == 0
    assert out == "".join("  ".join(row) + "\n" for row in A2_LABELINGS)
    code, out, _ = run(capsys, *listing, "--format", "csv")
    assert out == "".join(",".join(row) + "\n" for row in A2_LABELINGS)
    code, out, _ = run(capsys, "paths", "--n", "2", "--list")
    assert code == 0 and out == "\n".join(PATHS_2) + "\n"
    code, out, _ = run(capsys, "paths", "--n", "2", "--list", "--format", "csv")
    assert code == 0 and out == ",".join(PATHS_2) + "\n"


@pytest.mark.parametrize("n", [3, 5])  # 192 walks, and 46 592 over several batches
def test_walk_listings_match_the_library(capsys, n):
    words = [path_word(p) for p in enumerate_paths(n)]
    code, out, _ = run(capsys, "paths", "--n", str(n), "--list", "--format", "csv")
    assert code == 0 and out == ",".join(words) + "\n"
    code, out, _ = run(capsys, "paths", "--n", str(n), "--list")
    assert code == 0 and out == "".join(w + "\n" for w in words)


@pytest.mark.parametrize(
    "argv",
    [
        ("extensions", "--family", "A", "--n", "400", "--mode", "list"),
        ("extensions", "--family", "A", "--n", "400", "--mode", "count"),
        ("paths", "--n", "400", "--list"),
    ],
)
def test_recursion_error_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--force")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "recursion" in err


def test_arithmetic_error_exits_1(capsys, monkeypatch):
    from shrubstat import counts

    monkeypatch.setattr(counts, "factorial", lambda m: 1)
    code, out, err = run(capsys, "seq", "--name", "IBF", "--count", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "IBF(1)" in err


def test_bijection(capsys):
    code, out, _ = run(capsys, "bijection", "--n", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "ok"
    assert ["extensions", "16"] in record["payload"]
    assert ["bijective", "yes"] in record["payload"]


def test_extensions_count_and_list(capsys):
    code, out, _ = run(capsys, "extensions", "--family", "B", "--n", "1")
    assert code == 0 and out == "9\n"
    code, out, _ = run(
        capsys, "extensions", "--family", "ISF", "--n", "1", "--mode", "list"
    )
    assert out == "1  2  3\n1  3  2\n"
    code, out, _ = run(
        capsys,
        "extensions",
        "--family",
        "L",
        "--n",
        "2",
        "--mode",
        "list",
        "--format",
        "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 16 and rows[0].count(",") == 5
    code, _, _ = run(capsys, "extensions", "--family", "A", "--n", "0")
    assert code == 0


def test_extensions_guard(capsys):
    code, _, err = run(capsys, "extensions", "--family", "B", "--n", "9")
    assert code == 2 and "guard" in err
    code, out, _ = run(capsys, "extensions", "--family", "ISF", "--n", "8", "--force")
    assert code == 0  # prod_k (3k-1) for k=1..8
    assert out.strip() == str(2 * 5 * 8 * 11 * 14 * 17 * 20 * 23)


def test_ode_check(capsys):
    code, out, _ = run(capsys, "ode-check", "--order", "11")
    assert code == 0
    assert "series-vs-recurrence  ok" in out
    code, _, _ = run(capsys, "ode-check", "--order", "0")
    assert code == 2


def test_determinism(capsys):
    first = run(capsys, "coeff", "--stat", "risB", "--n", "4", "--format", "json")
    second = run(capsys, "coeff", "--stat", "risB", "--n", "4", "--format", "json")
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shrubstat", "seq", "--name", "LA", "--count", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1, 2, 40\n"


def test_closed_pipe_exits_0_quietly():
    # a reader that stops early, as ``| head -1`` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "shrubstat", "paths", "--n", "5", "--list"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stdout.readline() == "NNNNNWWWWWSSSSS\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()  # no-op once it has exited
        err = proc.stderr.read()
        proc.stderr.close()
    assert code == 0 and err == ""

    # a pipe closed before the command starts: block-buffered output that
    # would otherwise fail only in the interpreter's exit-time flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "shrubstat", "seq", "--name", "LA", "--count", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0 and done.stderr == b""
