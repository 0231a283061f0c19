"""Whole profact processes, one fresh interpreter per call.

The in-process tests (conftest.invoke) run where every library module is
already loaded, so they cannot see which modules a command loads, nor a
fault in how an error that only a freshly loaded module defines finds its
exit code.  These tests assert codes, error lines and module sets, never
timings.
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


# command lines with the exit code and standard error that click 8.4.0
# gave them: the parser keeps its syntax and its usage lines byte for byte
USAGE = {
    "chi-long-aliases": (
        ["chi", "--source-arrow", fixture("chi_f.json"), "--target-arrow", fixture("chi_t.json")]
        + ["--pre-morphism", fixture("chi_pm.json"), "--output", os.devnull],
        0,
        "",
    ),
    "merge-long-aliases": (
        ["merge", "--source-tower", fixture("merge_tower_F.json"), "--target-tower", fixture("merge_tower_G.json")]
        + ["--first", fixture("merge_p.json"), "--second", fixture("merge_p.json"), f"-o{os.devnull}"],
        0,
        "",
    ),
    "format-equals": (
        ["check", "directed-category", fixture("chain3.json"), "--format=text", f"--output={os.devnull}"],
        0,
        "",
    ),
    "missing-option": (["chi", "-f", "a"], 3, "error: Missing option '-t' / '--target-arrow'.\n"),
    "missing-value": (["reedy", "a", "-o"], 3, "error: Option '-o' requires an argument.\n"),
    "bad-format": (
        ["reedy", "--format", "xml", "a"],
        3,
        "error: Invalid value for '--format': 'xml' is not one of 'json', 'text'.\n",
    ),
    "bad-cls": (
        ["check", "special", "a", "--cls", "Q"],
        3,
        "error: Invalid value for '--cls': 'Q' is not one of 'N', 'M'.\n",
    ),
    "bad-check": (
        ["check", "nope", "a"],
        3,
        "error: Invalid value for '{directed-category|directed-poset|levelwise|special|pm-valid|pm-leq}': 'nope' is not"
        " one of 'directed-category', 'directed-poset', 'levelwise', 'special', 'pm-valid', 'pm-leq'.\n",
    ),
    "missing-check": (
        ["check"],
        3,
        "error: Missing argument '{directed-category|directed-poset|levelwise|special|pm-valid|pm-leq}'. Choose from:\n"
        "\tdirected-category,\n\tdirected-poset,\n\tlevelwise,\n\tspecial,\n\tpm-valid,\n\tpm-leq\n",
    ),
    "bad-levels": (
        ["cofinalize", "a", "--levels", "abc"],
        3,
        "error: Invalid value for '--levels': 'abc' is not a valid integer.\n",
    ),
    "bad-reysha-cap": (
        ["cofinalize", "--reysha-cap=1.5", "a"],
        3,
        "error: Invalid value for '--reysha-cap': '1.5' is not a valid integer.\n",
    ),
    "bad-seed": (["suite", "--seed", "x"], 3, "error: Invalid value for '--seed': 'x' is not a valid integer.\n"),
    # options are checked in the order given, before the arguments
    "bad-cases-first": (
        ["suite", "--cases", "x", "--seed", "y"],
        3,
        "error: Invalid value for '--cases': 'x' is not a valid integer.\n",
    ),
    "bad-poset-max": (
        ["suite", "--poset-max", "z"],
        3,
        "error: Invalid value for '--poset-max': 'z' is not a valid integer.\n",
    ),
    "bad-set-max": (
        ["suite", "--set-max", ""],
        3,
        "error: Invalid value for '--set-max': '' is not a valid integer.\n",
    ),
    "option-before-argument": (
        ["cofinalize", "--levels", "abc"],
        3,
        "error: Invalid value for '--levels': 'abc' is not a valid integer.\n",
    ),
    "close-option": (["reedy", "--outpt", "f", "a"], 3, "error: No such option '--outpt'. Did you mean '--output'?\n"),
    "close-options": (
        ["suite", "--see"],
        3,
        "error: No such option '--see'. (Did you mean one of: '--cases', '--seed'?)\n",
    ),
    "unknown-short-option": (["reedy", "-x", "a"], 3, "error: No such option '-x'.\n"),
    "close-command": (["reedi"], 3, "error: No such command 'reedi'. Did you mean 'reedy'?\n"),
    "extra-arguments": (["reedy", "a", "b", "c"], 3, "error: Got unexpected extra arguments (b c)\n"),
    "help-with-value": (["reedy", "--help=1"], 3, "error: Option '--help' does not take a value.\n"),
    "missing-command": (["--"], 3, "error: Missing command.\n"),
    # a command name that looks like an option is read as one
    "option-after-dashdash": (["--", "-x", "reedy"], 3, "error: No such option '-x'.\n"),
    "help-after-dashdash": (["--", "--help"], 0, ""),
}


@pytest.mark.parametrize("name", list(USAGE))
def test_a_command_line_gets_clicks_exit_code_and_usage_line(name):
    args, code, stderr = USAGE[name]
    result = python("-m", "profact.cli", *args)
    assert (result.returncode, result.stderr) == (code, stderr)


COMMANDS = ["reedy", "chi", "lift", "cofinalize", "merge", "check", "suite"]


@pytest.mark.parametrize("args", [["--help"], *([command, "--help"] for command in COMMANDS)])
def test_help_exits_0_with_the_usage_text(args):
    result = python("-m", "profact.cli", *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("Usage: ") and result.stderr == ""


def test_a_bare_call_is_a_usage_error_whose_line_is_the_help():
    help_text = python("-m", "profact.cli", "--help").stdout
    assert help_text.startswith("Usage: python -m profact.cli [OPTIONS] COMMAND [ARGS]...\n")
    bare = python("-m", "profact.cli")
    assert (bare.returncode, bare.stderr) == (3, f"error: {help_text}")


def test_a_closed_stdout_exits_1_without_a_traceback():
    # as in `profact suite | head -1`: the reader of the pipe has gone
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "profact.cli", "reedy", fixture("identity_over_v.json")],
            stdout=write,
            stderr=subprocess.PIPE,
            env=environment(),
            timeout=300,
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, b"")


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
    # perfbench/tracing.py counts calls in profact.base, so it must stay;
    # and nothing outside the standard library and profact loads with them
    new = "sorted({m.split('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names))"
    result = python("-c", f"import sys; before = set(sys.modules); import profact.cli; print({LOADED}, {new})")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"{BASE!r} ['profact']"


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
    # an error line names the path as it was given, in UTF-8
    missing = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "profact.cli", "reedy", "ü_missing.json"],
        capture_output=True,
        env=environment(**c_locale),
        cwd=tmp_path,
        timeout=300,
    )
    assert (missing.returncode, missing.stdout) == (3, b"")
    assert missing.stderr == "error: ü_missing.json: file not found\n".encode()


@pytest.mark.parametrize(
    "name, old, new, args, path, message",
    [
        (
            "chain2.json",
            "y",
            "\\ud800y",
            ["cofinalize", "--levels", "1", "--reysha-cap", "1"],
            ".objects[1]",
            "object id '\\ud800y' holds a surrogate code point",
        ),
        (
            "identity_over_v.json",
            '"a"',
            '"\\udcffa"',
            ["reedy"],
            ".source.objects.x0[0]",
            "element id '\\udcffa' holds a surrogate code point",
        ),
    ],
    ids=["cofinalize", "reedy"],
)
def test_an_id_holding_a_surrogate_is_a_parse_error(tmp_path, name, old, new, args, path, message):
    # json.load reads the escape \ud800 as a lone surrogate, which UTF-8
    # cannot encode: written to a real stdout, such an id ended in a
    # UnicodeEncodeError or in bytes that are not UTF-8.  invoke writes to
    # a StringIO, which takes any str, so only a process shows it
    doc = tmp_path / name
    doc.write_text(Path(fixture(name)).read_text().replace(old, new), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "profact.cli", args[0], str(doc), *args[1:]],
        capture_output=True,
        env=environment(),
        timeout=300,
    )
    assert (result.returncode, result.stdout) == (3, b"")
    assert result.stderr == f"error: {doc}{path}: {message}\n".encode()
