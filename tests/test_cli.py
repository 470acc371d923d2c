import argparse
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubstat import (
    XPoly,
    build_adjacent_poset,
    enumerate_linear_extensions,
    enumerate_paths,
    path_word,
    posets,
)
from shrubstat.cli import build_parser, main


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


def test_coeff_builds_only_to_n(capsys):
    argv = ("coeff", "--stat", "ris", "--n", "2")
    start = time.process_time()
    code, out, _ = run(capsys, *argv, "--order", "160")
    assert time.process_time() - start < 5  # building to t^480 takes about 60 s
    assert (code, out) == run(capsys, *argv, "--order", "2")[:2]
    assert out == "16x^2 + 39x^3 + 24x^4 + x^5\n"
    code, out, _ = run(capsys, *argv, "--order", "160", "--format", "json")
    assert code == 0 and json.loads(out)["params"]["order"] == 160
    code, _, err = run(capsys, "coeff", "--stat", "ris", "--n", "3", "--order", "2")
    assert code == 2 and "out of range" in err


def test_coeff_n_0_at_order_0(capsys):
    code, out, err = run(capsys, "coeff", "--stat", "ris", "--n", "0", "--order", "0")
    assert (code, out, err) == (0, "1\n", "")
    assert (code, out) == run(capsys, "coeff", "--stat", "ris", "--n", "0")[:2]
    argv = ("coeff", "--stat", "minris", "--n", "0", "--order", "0", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["payload"] == ["1"]


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


def test_seq_prints_terms_past_the_int_to_str_limit(capsys):
    # Python >= 3.11 refuses str() of an int over 4300 digits by default
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    try:
        code, out, err = run(capsys, "seq", "--name", "ITF", "--count", "15000")
        assert (code, err) == (0, "")
        last = out.rstrip("\n").rsplit(", ", 1)[-1]
        assert len(last) == 4516 and int(last) == 2**15000
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


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


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_verify_rejects_max_n_below_1(capsys, max_n):
    code, out, err = run(capsys, "verify", "--stat", "ris", "--max-n", max_n)
    assert (code, out, err) == (2, "", "error: max-n must be >= 1\n")


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


def test_verify_detects_a_minimal_ascent_mismatch(capsys, monkeypatch):
    # the brute-force side of minris is an int, compared with the polynomial
    from shrubstat import cli as cli_module

    monkeypatch.setattr(
        cli_module.forests, "min_rise_count", lambda n, max_shrubs=4: 0
    )
    code, out, _ = run(capsys, "verify", "--stat", "minris", "--max-n", "2")
    assert code == 1
    assert out == "1  FAIL\n2  FAIL\nFAIL\n"


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


def test_list_output_as_json(capsys):
    listing = ("extensions", "--family", "A", "--n", "2", "--mode", "list")
    code, out, _ = run(capsys, *listing, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["params"] == {"family": "A", "mode": "list", "n": 2}
    assert record["payload"] == [list(row) for row in A2_LABELINGS]
    assert record["status"] == "ok"


def _a3_rows():
    poset = build_adjacent_poset("A", 3)
    return [[str(v) for v in lab] for lab in enumerate_linear_extensions(poset)]


@pytest.mark.parametrize(
    "argv, params, payload",
    [
        (
            "paths --n 4 --list",
            {"n": 4, "list": True},
            lambda: [path_word(p) for p in enumerate_paths(4)],
        ),
        (  # 46 592 walks, over several write batches
            "paths --n 5 --list",
            {"n": 5, "list": True},
            lambda: [path_word(p) for p in enumerate_paths(5)],
        ),
        (
            "extensions --family A --n 3 --mode list",
            {"family": "A", "n": 3, "mode": "list"},
            _a3_rows,
        ),
        (
            "coeff --stat risA --n 3",
            {"stat": "risA", "n": 3, "order": 6},
            lambda: ["3194", "7052", "3194"],
        ),
    ],
)
def test_streamed_json_equals_one_dump(capsys, argv, params, payload):
    code, out, _ = run(capsys, *argv.split(), "--format", "json")
    assert code == 0
    record = {
        "command": argv.split()[0],
        "params": params,
        "payload": payload(),
        "status": "ok",
    }
    assert out == json.dumps(record, sort_keys=True) + "\n"


def test_json_listing_error_on_first_row_writes_nothing(capsys):
    argv = ("extensions", "--family", "A", "--n", "400", "--mode", "list")
    code, out, err = run(capsys, *argv, "--force", "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "recursion" in err


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


def test_poset_past_the_recursion_limit_exits_2(capsys, monkeypatch):
    # refused by size before the per-element cover masks are built
    def no_masks(poset):
        raise AssertionError("_cover_masks ran")

    monkeypatch.setattr(posets, "_cover_masks", no_masks)
    code, out, err = run(capsys, "extensions", "--family", "A", "--n", "400", "--force")
    assert code == 2 and out == ""
    assert err.startswith("error: n is too large for this command (")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "1200 elements" in err


@pytest.mark.parametrize(
    "max_n, argv",
    [
        (None, "coeff --stat ris --n 3 --order 1"),
        (None, "seq --name LB --count 0"),
        (None, "ode-check --order 0"),
        (None, "extensions --family E --n -1"),
        (None, "verify --stat ris --max-n 5"),
        ("abc", "verify --stat ris"),
    ],
)
def test_usage_error_is_one_stderr_line(capsys, monkeypatch, max_n, argv):
    monkeypatch.delenv("SHRUBSTAT_MAX_N", raising=False)
    if max_n is not None:
        monkeypatch.setenv("SHRUBSTAT_MAX_N", max_n)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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


@pytest.mark.parametrize(
    "argv, params",
    [
        (("seq", "--name", "LB", "--count", "3"), {"count": 3, "name": "LB"}),
        (
            ("verify", "--stat", "risB", "--max-n", "2", "--force"),
            {"max_n": 2, "stat": "risB"},
        ),
        (("bijection", "--n", "2"), {"n": 2}),
        (("ode-check", "--order", "5"), {"order": 5}),
        (("paths", "--n", "2"), {"list": False, "n": 2}),
    ],
)
def test_json_params_are_the_parsed_arguments(capsys, argv, params):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["command"] == argv[0]
    # dumped, so that a bool param is told apart from an int
    assert json.dumps(record["params"]) == json.dumps(params)


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


def test_memory_error_exits_2(capsys, monkeypatch):
    from shrubstat import counts

    def out_of_memory(order):
        raise MemoryError

    monkeypatch.setattr(counts, "ode_residuals", out_of_memory)
    code, out, err = run(capsys, "ode-check", "--order", "100000000000")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


#: The parser of each command, by name.
(_COMMANDS,) = (
    a.choices
    for a in build_parser()._actions
    if isinstance(a, argparse._SubParsersAction)
)


@st.composite
def cli_argv(draw):
    """An argv the parser accepts, without --format: a command, then each
    of its options, required ones always and optional ones or not, with
    a choice, an int from -3 to 3, or (for a flag) nothing."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for action in _COMMANDS[command]._actions:
        option = action.option_strings[-1]
        if option in ("--help", "--format"):
            continue
        if not action.required and not draw(st.booleans()):
            continue
        argv.append(option)
        if action.choices:
            argv.append(draw(st.sampled_from(list(action.choices))))
        elif action.nargs != 0:  # every valued option is an int
            argv.append(str(draw(st.integers(-3, 3))))
    return argv


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(cli_argv(), st.sampled_from([None, "", "abc", "-3", "0", "2"]))
def test_cli_contract_holds_for_every_argv(argv, max_n):
    saved = os.environ.pop("SHRUBSTAT_MAX_N", None)
    try:
        if max_n is not None:
            os.environ["SHRUBSTAT_MAX_N"] = max_n
        runs = {f: _capture([*argv, "--format", f]) for f in ("text", "json", "csv")}
    finally:
        os.environ.pop("SHRUBSTAT_MAX_N", None)
        if saved is not None:
            os.environ["SHRUBSTAT_MAX_N"] = saved
    codes = {code for code, _, _ in runs.values()}
    assert len(codes) == 1 and codes <= {0, 1, 2}
    code = codes.pop()
    for _, out, err in runs.values():
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert err.endswith("\n")
        else:
            assert err == ""
    if code == 2:
        return
    json_out = runs["json"][1]
    assert json_out.count("\n") == 1 and json_out.endswith("\n")
    record = json.loads(json_out)
    assert sorted(record) == ["command", "params", "payload", "status"]
    assert record["command"] == argv[0]
    assert record["status"] == ("ok" if code == 0 else "fail")
    payload = record["payload"]
    # one row of strings, or rows of strings
    rows = [payload] if all(isinstance(p, str) for p in payload) else payload
    assert all(isinstance(row, list) for row in rows)
    assert all(isinstance(token, str) for row in rows for token in row)
    assert runs["csv"][1].splitlines() == [",".join(row) for row in rows]
