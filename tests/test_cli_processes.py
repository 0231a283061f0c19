"""Whole profact processes, one fresh interpreter per call.

The CliRunner tests run where every library module is already loaded, so
they cannot see which modules a command loads, nor a fault in how an error
that only a freshly loaded module defines finds its exit code.  These tests
assert codes, error lines and module sets, never timings.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from profact import cli

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "profact" / "fixtures"


def environment(**extra):
    env = {key: value for key, value in os.environ.items() if key != "PROFACT_ELEMENT_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update(extra)
    return env


def python(*argv, **extra):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=environment(**extra), timeout=300
    )


def fixture(name):
    return str(FIXTURES / name)


TOWERS = ["-F", fixture("merge_tower_F.json"), "-G", fixture("merge_tower_G.json")]


@pytest.mark.parametrize(
    "args, extra, code, error",
    [
        (["reedy", fixture("identity_over_v.json")], {}, 0, None),
        (["cofinalize", fixture("parallel_pair.json")], {}, 1, "category is not directed (axiom 3"),
        (
            ["merge", *TOWERS, "-p", fixture("merge_p.json"), "-q", fixture("merge_q.json")],
            {},
            1,
            "not colim-equal at 'b0'",
        ),
        (
            ["cofinalize", fixture("chain3.json")],
            {"PROFACT_ELEMENT_CAP": "1"},
            2,
            "budget exceeded: more than 1 tower elements",
        ),
        (["reedy", "no_such_file.json"], {}, 3, "no_such_file.json: file not found"),
        (["reedy", fixture("broken_naturality.json")], {}, 3, "naturality fails on 't' >= 'x0'"),
        # usage errors are malformed input: 3, not click's 2, which a budget blow-up gives
        (
            ["cofinalize", fixture("chain3.json"), "--levels", "abc"],
            {},
            3,
            "Invalid value for '--levels': 'abc' is not a valid integer",
        ),
        (["suite", "--seed", "x"], {}, 3, "Invalid value for '--seed': 'x' is not a valid integer"),
        (["reedy"], {}, 3, "Missing argument 'INPUT_PATH'"),
        (["reedy", "a", "b"], {}, 3, "Got unexpected extra argument (b)"),
        (["reedy", "--bogus", "x"], {}, 3, "No such option '--bogus'"),
        (["check", "nope", "x"], {}, 3, "'nope' is not one of 'directed-category'"),
        (["nosuch"], {}, 3, "No such command 'nosuch'"),
        (["--bogus"], {}, 3, "No such option '--bogus'"),
    ],
    ids=[
        "reedy",
        "cofinalize-error",
        "merge-unequal",
        "budget",
        "missing-file",
        "parse-error",
        "usage-bad-int",
        "usage-suite-seed",
        "usage-missing-argument",
        "usage-extra-argument",
        "usage-unknown-option",
        "usage-bad-choice",
        "usage-unknown-command",
        "usage-unknown-group-option",
    ],
)
def test_exit_code_in_a_fresh_interpreter(args, extra, code, error):
    result = python("-m", "profact.cli", *args, **extra)
    assert result.returncode == code, result.stderr
    if error is None:
        assert result.stderr == ""
        assert result.stdout == Path(fixture("reedy_identity_over_v.json")).read_text()
    else:
        assert result.stderr.startswith("error: ")
        assert error in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("args", [["--help"], ["reedy", "--help"]])
def test_help_exits_0_with_the_usage_text(args):
    # click ends --help with an exit that the usage-error line lets through
    result = python("-m", "profact.cli", *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("Usage: ") and result.stderr == ""


def test_every_error_in_the_table_is_a_distinct_class():
    # the lookup walks an error's classes in order; with no entry below
    # another, it gives the code the table states for each class
    classes = {}
    for name, code in cli._EXIT_CODES.items():
        module, _, attr = name.rpartition(".")
        kind = getattr(importlib.import_module(module), attr)
        assert issubclass(kind, Exception)
        assert cli._exit_code(kind("message")) == code
        classes[name] = kind
    for name, kind in classes.items():
        for other_name, other in classes.items():
            assert other_name == name or not issubclass(kind, other), (name, other_name)
    assert cli._exit_code(ValueError("message")) is None


BASE = ["profact", "profact.base", "profact.cli", "profact.poset", "profact.serialize"]

LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'profact')"

# runs one command through profact.cli:main, the console script's entry
# point, and prints its exit code and the profact modules then loaded
RUN_AND_LIST = f"""
import json, sys
from profact.cli import main
try:
    main(sys.argv[1:], prog_name="profact")
except SystemExit as exc:
    print(json.dumps([exc.code, {LOADED}]))
"""


def test_importing_the_command_line_loads_five_modules():
    # perfbench/tracing.py counts calls in profact.base, so it must stay
    result = python("-c", f"import sys, profact.cli; print({LOADED})")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr(BASE)


@pytest.mark.parametrize(
    "args, modules",
    [
        (["reedy", fixture("identity_over_v.json")], ["diagrams", "factorize"]),
        (["cofinalize", fixture("chain2.json"), "--levels", "2", "--reysha-cap", "2"], ["category", "cofinalize"]),
        (["check", "directed-poset", None], []),
        (
            ["chi", "-f", fixture("chi_f.json"), "-t", fixture("chi_t.json"), "-p", fixture("chi_pm.json")],
            ["diagrams", "factorize"],
        ),
        (
            ["merge", *TOWERS, "-p", fixture("merge_p.json"), "-q", fixture("merge_p.json")],
            ["diagrams", "factorize", "procalc"],
        ),
    ],
    ids=["reedy", "cofinalize", "check-directed-poset", "chi", "merge"],
)
def test_a_command_loads_only_its_modules(tmp_path, args, modules):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"elements": ["a", "b", "c"], "le": [["a", "c"], ["b", "c"]]}))
    args = [str(poset) if arg is None else arg for arg in args]
    result = python("-c", RUN_AND_LIST, *args, "-o", os.devnull)
    assert result.returncode == 0, result.stderr
    code, loaded = json.loads(result.stdout)
    assert code == 0
    assert loaded == sorted(BASE + [f"profact.{name}" for name in modules])


def test_a_non_ascii_id_reads_and_writes_the_same_in_the_c_locale(tmp_path):
    # JSON text is UTF-8 whatever the locale: under LC_ALL=C without UTF-8
    # mode, open() would decode and encode it as ASCII
    doc = tmp_path / "chain.json"
    doc.write_text(Path(fixture("chain2.json")).read_text().replace("y", "ü"), encoding="utf-8")
    args = ["-m", "profact.cli", "cofinalize", str(doc), "--levels", "1", "--reysha-cap", "1"]

    def run(utf8, *extra_args, **extra):
        result = subprocess.run(
            [sys.executable, "-X", f"utf8={utf8}", *args, *extra_args],
            capture_output=True,
            env=environment(**extra),
            timeout=300,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        return result.stdout

    expected = run(1)
    assert "ü".encode() in expected
    c_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    assert run(0, **c_locale) == expected
    out = tmp_path / "out.json"
    assert run(0, "-o", str(out), **c_locale) == b""
    assert out.read_bytes() == expected
