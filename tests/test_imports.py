"""Start-up cost: a command loads only the layers it runs.

Each probe runs in a fresh interpreter with ``src`` on ``PYTHONPATH`` and
reports the modules it has loaded; modules that a bare interpreter of the
same environment already holds (site hooks) are not counted against it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shrubstat

ROOT = Path(__file__).resolve().parents[1]

#: The probe's statements, then the loaded module names as JSON on stderr.
_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)"


def loaded_after(code: str) -> set[str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.fixture(scope="module")
def baseline() -> set[str]:
    return loaded_after("pass")


def test_package_import_loads_no_layer(baseline):
    loaded = loaded_after("import shrubstat") - baseline
    assert sorted(m for m in loaded if m.startswith("shrubstat")) == ["shrubstat"]


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "--name", "LB", "--count", "5"],
        ["extensions", "--family", "L", "--n", "3", "--mode", "count"],
        ["paths", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_skips_series_forests_and_dataclasses(baseline, argv):
    loaded = loaded_after(f"from shrubstat.cli import main\nmain({argv!r})") - baseline
    assert not {"shrubstat.series", "shrubstat.forests", "dataclasses"} & loaded
    assert "json" not in loaded  # text output


def test_seq_loads_no_polynomial(baseline):
    argv = ["seq", "--name", "LB", "--count", "5"]
    loaded = loaded_after(f"from shrubstat.cli import main\nmain({argv!r})") - baseline
    assert not {"shrubstat.polynomial", "fractions"} & loaded


_CLI = "from shrubstat.cli import main\nmain({!r})"


@pytest.mark.parametrize(
    "code",
    [
        _CLI.format(["coeff", "--stat", "ris", "--n", "2"]),
        _CLI.format(["verify", "--stat", "risB", "--max-n", "2"]),
        _CLI.format(["ode-check", "--order", "5"]),
        "from shrubstat import series\nseries.rise_gf_via_fraction(2)",
        "from shrubstat import series\nseries.closed_form_gf('risB', 2)",
    ],
    ids=["coeff", "verify", "ode-check", "rise_gf_via_fraction", "closed_form_gf"],
)
def test_polynomial_commands_load_neither_fractions_nor_decimal(baseline, code):
    assert not {"fractions", "decimal"} & (loaded_after(code) - baseline)


def test_only_rise_gf_loads_the_interpolation():
    # the fraction form and the closed forms (the library routes of
    # bench/routes.py) divide over XPoly and need no interpolation
    routes = "from shrubstat import series\n"
    routes += "series.rise_gf_via_fraction(2)\nseries.closed_form_gf('risT', 2)"
    assert "shrubstat.interpolation" not in loaded_after(routes)
    reciprocal = "from shrubstat import series\nseries.rise_gf('risA', 2)"
    assert "shrubstat.interpolation" in loaded_after(reciprocal)


def test_only_labeling_listings_load_the_renderer():
    # every other command leaves it uncompiled, so their start-up and
    # peak memory do not grow with it
    for argv in (
        ["extensions", "--family", "A", "--n", "2", "--mode", "count"],
        ["bijection", "--n", "1"],
        ["coeff", "--stat", "ris", "--n", "1"],
    ):
        assert "shrubstat.render" not in loaded_after(_CLI.format(argv))
    listing = ["extensions", "--family", "A", "--n", "1", "--mode", "list"]
    assert "shrubstat.render" in loaded_after(_CLI.format(listing))


def test_start_path_loads_only_what_it_names(baseline):
    def package_modules(code: str) -> list[str]:
        loaded = loaded_after(code) - baseline
        return sorted(m for m in loaded if m.startswith("shrubstat"))

    argv = ["seq", "--name", "LB", "--count", "5"]
    assert package_modules(f"from shrubstat.cli import main\nmain({argv!r})") == [
        "shrubstat",
        "shrubstat.cli",
        "shrubstat.counts",
        "shrubstat.names",
    ]
    guard_and_kinds = "from shrubstat import GuardExceeded, RiseKind"
    assert package_modules(guard_and_kinds) == ["shrubstat", "shrubstat.names"]


def test_every_public_name_resolves():
    for name in shrubstat.__all__:
        value = getattr(shrubstat, name)
        module = sys.modules[value.__module__]
        assert getattr(module, name) is value
    assert set(shrubstat.__all__) <= set(dir(shrubstat))


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from shrubstat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(shrubstat.__all__)


def test_layer_modules_are_package_attributes():
    from shrubstat import cli, series

    assert shrubstat.series is series
    with pytest.raises(AttributeError):
        shrubstat.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name
