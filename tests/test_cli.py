import json
from importlib import resources

import pytest
from click.testing import CliRunner

from profact.cli import main


def fixture(name):
    return str(resources.files("profact").joinpath("fixtures", name))


@pytest.fixture
def runner():
    return CliRunner()


def test_reedy_success_matches_golden(runner):
    result = runner.invoke(main, ["reedy", fixture("identity_over_v.json")])
    assert result.exit_code == 0
    golden = resources.files("profact").joinpath("fixtures", "reedy_identity_over_v.json").read_text()
    assert json.loads(result.output) == json.loads(golden)


def test_reedy_missing_file_is_parse_error(runner):
    result = runner.invoke(main, ["reedy", "no_such_file.json"])
    assert result.exit_code == 3
    assert "file not found" in result.output


def test_reedy_invalid_input_is_parse_error(runner):
    result = runner.invoke(main, ["reedy", fixture("broken_naturality.json")])
    assert result.exit_code == 3
    assert "naturality" in result.output


def test_reedy_malformed_json(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    result = runner.invoke(main, ["reedy", str(bad)])
    assert result.exit_code == 3
    assert "line 1" in result.output


def test_reedy_text_format_and_output_file(runner, tmp_path):
    out = tmp_path / "report.txt"
    result = runner.invoke(
        main,
        ["reedy", fixture("identity_over_v.json"), "--format", "text", "-o", str(out)],
    )
    assert result.exit_code == 0
    assert "report.composite_equals_input: True" in out.read_text()


def test_lift_success(runner):
    result = runner.invoke(main, ["lift", fixture("lift_over_v.json")])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert all(payload["report"].values())


def test_chi_success(runner):
    result = runner.invoke(
        main,
        [
            "chi",
            "-f", fixture("chi_f.json"),
            "-t", fixture("chi_t.json"),
            "-p", fixture("chi_pm.json"),
        ],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)["report"]
    assert report == {"left_rectangle": True, "natural": True, "right_rectangle": True}


def test_cofinalize_success(runner):
    result = runner.invoke(
        main, ["cofinalize", fixture("one_object.json"), "--levels", "1", "--reysha-cap", "2"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["report"]["directed"] is True
    assert all(r["connectivity"] != "refuted" for r in payload["report"]["cofinality"])


def test_cofinalize_rejects_non_directed(runner):
    result = runner.invoke(main, ["cofinalize", fixture("parallel_pair.json")])
    assert result.exit_code == 1


def test_cofinalize_rejects_object_named_like_a_cone(runner, tmp_path):
    data = json.loads(resources.files("profact").joinpath("fixtures", "one_object.json").read_text())
    text = json.dumps(data).replace('"i"', '"c1_0"')
    clash = tmp_path / "clash.json"
    clash.write_text(text)
    result = runner.invoke(main, ["cofinalize", str(clash), "--levels", "1"])
    assert result.exit_code == 1
    assert "'c1_0' clashes" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_cofinalize_budget_exit(runner, monkeypatch):
    monkeypatch.setenv("PROFACT_ELEMENT_CAP", "5")
    result = runner.invoke(main, ["cofinalize", fixture("one_object.json"), "--levels", "2"])
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["abc", "", "0", "-3", "1.5"])
def test_cofinalize_bad_element_cap_is_parse_error(runner, monkeypatch, value):
    monkeypatch.setenv("PROFACT_ELEMENT_CAP", value)
    result = runner.invoke(main, ["cofinalize", fixture("chain2.json")])
    assert result.exit_code == 3
    assert f"PROFACT_ELEMENT_CAP must be a positive integer, got {value!r}" in result.output


@pytest.mark.parametrize("option", ["--levels", "--reysha-cap"])
def test_cofinalize_negative_option_is_parse_error(runner, option):
    result = runner.invoke(main, ["cofinalize", fixture("chain2.json"), option, "-1"])
    assert result.exit_code == 3
    assert f"{option} must be a non-negative integer, got -1" in result.output


@pytest.mark.parametrize(
    "option, value, expected",
    [
        ("--cases", "-1", "--cases must be a non-negative integer, got -1"),
        ("--poset-max", "-2", "--poset-max must be a positive integer, got -2"),
        ("--set-max", "0", "--set-max must be a positive integer, got 0"),
    ],
)
def test_suite_out_of_range_option_is_parse_error(runner, option, value, expected):
    result = runner.invoke(main, ["suite", "--cases", "2", option, value])
    assert result.exit_code == 3
    assert f"error: {expected}" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("cases", ["0", "2"])
def test_suite_smallest_sizes_pass(runner, cases):
    result = runner.invoke(main, ["suite", "--cases", cases, "--poset-max", "1", "--set-max", "1"])
    assert result.exit_code == 0, result.output


def test_merge_same_premorphism(runner):
    result = runner.invoke(
        main,
        [
            "merge",
            "-F", fixture("merge_tower_F.json"),
            "-G", fixture("merge_tower_G.json"),
            "-p", fixture("merge_p.json"),
            "-q", fixture("merge_p.json"),
        ],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["report"] == {"dominates_first": True, "dominates_second": True}


def test_merge_result_reads_back_as_a_pre_morphism(runner, tmp_path):
    towers = ["-F", fixture("merge_tower_F.json"), "-G", fixture("merge_tower_G.json")]
    merged = runner.invoke(
        main, ["merge", *towers, "-p", fixture("merge_p.json"), "-q", fixture("merge_p.json")]
    )
    assert merged.exit_code == 0
    result = tmp_path / "result.json"
    result.write_text(json.dumps(json.loads(merged.output)["result"]))
    checked = runner.invoke(main, ["check", "pm-valid", str(result), *towers])
    assert checked.exit_code == 0
    assert json.loads(checked.output)["valid"] is True


def test_merge_different_components_fails(runner):
    result = runner.invoke(
        main,
        [
            "merge",
            "-F", fixture("merge_tower_F.json"),
            "-G", fixture("merge_tower_G.json"),
            "-p", fixture("merge_p.json"),
            "-q", fixture("merge_q.json"),
        ],
    )
    assert result.exit_code == 1
    assert "not colim-equal" in result.output


def test_check_directed_category_with_witness(runner):
    result = runner.invoke(main, ["check", "directed-category", fixture("parallel_pair.json")])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["directed"] is False
    assert payload["witness"]["axiom"] == 3


def test_check_directed_category_true(runner):
    result = runner.invoke(main, ["check", "directed-category", fixture("chain3.json")])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"directed": True, "schema_version": 1}


def test_check_special(runner):
    result = runner.invoke(main, ["check", "special", fixture("identity_over_v.json")])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["special"] is True and payload["class"] == "M"


def test_check_pm_valid(runner):
    result = runner.invoke(
        main,
        [
            "check", "pm-valid", fixture("merge_p.json"),
            "-F", fixture("merge_tower_F.json"),
            "-G", fixture("merge_tower_G.json"),
        ],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["valid"] is True


def test_check_pm_leq_reflexive(runner):
    result = runner.invoke(
        main,
        [
            "check", "pm-leq", fixture("merge_p.json"),
            "-F", fixture("merge_tower_F.json"),
            "-G", fixture("merge_tower_G.json"),
            "-q", fixture("merge_p.json"),
        ],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["leq"] is True


def test_check_pm_leq_requires_second(runner):
    result = runner.invoke(
        main,
        [
            "check", "pm-leq", fixture("merge_p.json"),
            "-F", fixture("merge_tower_F.json"),
            "-G", fixture("merge_tower_G.json"),
        ],
    )
    assert result.exit_code == 3


def test_suite_deterministic(runner):
    first = runner.invoke(main, ["suite", "--seed", "11", "--cases", "3"])
    second = runner.invoke(main, ["suite", "--seed", "11", "--cases", "3"])
    assert first.exit_code == 0
    assert first.output == second.output
    payload = json.loads(first.output)
    assert payload["seed"] == 11 and payload["all_pass"] is True


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


TOWERS = ["-F", fixture("merge_tower_F.json"), "-G", fixture("merge_tower_G.json")]


@pytest.mark.parametrize(
    "args",
    [
        ["reedy", fixture("identity_over_v.json")],
        ["chi", "-f", fixture("chi_f.json"), "-t", fixture("chi_t.json"), "-p", fixture("chi_pm.json")],
        ["lift", fixture("lift_over_v.json")],
        ["cofinalize", fixture("chain2.json"), "--levels", "1"],
        ["merge", *TOWERS, "-p", fixture("merge_p.json"), "-q", fixture("merge_p.json")],
        ["check", "directed-category", fixture("chain3.json")],
        ["check", "directed-poset", None],
        ["check", "levelwise", fixture("identity_over_v.json")],
        ["check", "special", fixture("identity_over_v.json")],
        ["check", "pm-valid", fixture("merge_p.json"), *TOWERS],
        ["check", "pm-leq", fixture("merge_p.json"), *TOWERS, "-q", fixture("merge_p.json")],
        ["suite", "--cases", "1"],
    ],
    ids=[
        "reedy", "chi", "lift", "cofinalize", "merge", "directed-category", "directed-poset",
        "levelwise", "special", "pm-valid", "pm-leq", "suite",
    ],
)
def test_text_format_carries_the_schema_version(runner, tmp_path, args):
    poset = write_json(tmp_path, "poset.json", {"elements": ["a", "b"], "le": [["a", "b"]]})
    args = [poset if arg is None else arg for arg in args]
    result = runner.invoke(main, [*args, "--format", "text"])
    assert result.exit_code == 0, result.output
    assert "schema_version: 1" in result.output.splitlines()


def test_text_format_prints_an_empty_value(runner, tmp_path):
    # a category with no objects fails axiom 1 with an empty detail
    empty = write_json(
        tmp_path, "empty.json", {"objects": [], "morphisms": [], "src": {}, "tgt": {}, "identities": {}}
    )
    as_json = runner.invoke(main, ["check", "directed-category", empty])
    assert json.loads(as_json.output)["witness"] == {"axiom": 1, "detail": []}
    as_text = runner.invoke(main, ["check", "directed-category", empty, "--format", "text"])
    assert as_text.output.splitlines() == [
        "directed: False", "schema_version: 1", "witness.axiom: 1", "witness.detail: []",
    ]
    # every law of a passing suite has an empty failures list
    suite = runner.invoke(main, ["suite", "--cases", "1", "--format", "text"]).output.splitlines()
    laws = json.loads(runner.invoke(main, ["suite", "--cases", "1"]).output)["results"]
    assert [line for line in suite if line.endswith(".failures: []")] == [
        f"results.{law}.failures: []" for law in sorted(laws)
    ]


def test_text_format_prints_an_empty_dict(capsys):
    from profact.cli import _emit

    _emit({"a": {}, "b": [{}, []], "c": {"d": 0}}, None, "text")
    assert capsys.readouterr().out.splitlines() == ["a: {}", "b.0: {}", "b.1: []", "c.d: 0", "schema_version: 1"]


def chain_diagram(lower, upper, objects, arrow):
    """A diagram over the chain lower < upper."""
    return {
        "poset": {"elements": [lower, upper], "le": [[lower, upper]]},
        "objects": objects,
        "arrows": [{"from": upper, "to": lower, "map": arrow}],
    }


def test_chi_non_strict_index_map_is_verification_failure(runner, tmp_path):
    arrow = {
        "source": chain_diagram("0", "1", {"0": ["e0"], "1": ["e1"]}, {"e1": "e0"}),
        "target": chain_diagram("0", "1", {"0": ["y0"], "1": ["y1"]}, {"y1": "y0"}),
        "components": {"0": {"e0": "y0"}, "1": {"e1": "y1"}},
    }
    pm = {
        "alpha": {"0": "1", "1": "1"},
        "phi": {"0": {"e1": "e0"}, "1": {"e1": "e1"}},
        "psi": {"0": {"y1": "y0"}, "1": {"y1": "y1"}},
    }
    f = write_json(tmp_path, "f.json", arrow)
    result = runner.invoke(main, ["chi", "-f", f, "-t", f, "-p", write_json(tmp_path, "pm.json", pm)])
    assert result.exit_code == 1
    assert "error: index map is not strictly increasing on '0' < '1'" in result.output


def test_lift_against_non_special_map_is_verification_failure(runner, tmp_path):
    point = {"elements": ["p"]}
    problem = {
        "left": {"source": ["a"], "target": ["a"], "map": {"a": "a"}},
        "right": {
            "source": {"poset": point, "objects": {"p": ["x"]}},
            "target": {"poset": point, "objects": {"p": ["y1", "y2"]}},
            "components": {"p": {"x": "y1"}},
        },
        "top": {"p": {"a": "x"}},
        "bottom": {"p": {"a": "y1"}},
    }
    result = runner.invoke(main, ["lift", write_json(tmp_path, "problem.json", problem)])
    assert result.exit_code == 1
    assert "error: right transformation is not special surjective" in result.output


@pytest.mark.parametrize("key, entry", [("left", "map"), ("top", "t")])
def test_lift_map_given_as_pairs_is_parse_error(runner, tmp_path, key, entry):
    # every assignment is a JSON object: a list of pairs is refused for
    # the left map as it is for a cone component
    problem = json.loads(resources.files("profact").joinpath("fixtures", "lift_over_v.json").read_text())
    problem[key][entry] = [list(pair) for pair in problem[key][entry].items()]
    path = write_json(tmp_path, "problem.json", problem)
    result = runner.invoke(main, ["lift", path])
    assert result.exit_code == 3
    assert f"error: {path}.{key}.{entry}: expected an assignment object" in result.output


def test_merge_out_of_truncation_is_exhausted(runner, tmp_path):
    # p and q differ on x at a0 and agree from a1 on, so b0 settles on a1,
    # the top of F's truncation, and b1 finds no index strictly above it
    F = {"diagram": chain_diagram("a0", "a1", {"a0": ["w", "x"], "a1": ["u"]}, {"u": "w"})}
    G = {"diagram": chain_diagram("b0", "b1", {"b0": ["g", "h"], "b1": ["g1"]}, {"g1": "g"})}
    alpha = {"b0": "a0", "b1": "a1"}
    p = {"alpha": alpha, "phi": {"b0": {"w": "g", "x": "g"}, "b1": {"u": "g1"}}}
    q = {"alpha": alpha, "phi": {"b0": {"w": "g", "x": "h"}, "b1": {"u": "g1"}}}
    towers = ["-F", write_json(tmp_path, "F.json", F), "-G", write_json(tmp_path, "G.json", G)]
    pms = ["-p", write_json(tmp_path, "p.json", p), "-q", write_json(tmp_path, "q.json", q)]
    for path in pms[1::2]:
        checked = runner.invoke(main, ["check", "pm-valid", path, *towers])
        assert json.loads(checked.output)["valid"] is True
    result = runner.invoke(main, ["merge", *towers, *pms])
    assert result.exit_code == 2
    assert "error: truncation exhausted: no index above 'a1' clears ['a1']" in result.output


def test_merge_invalid_pre_morphism_is_verification_failure(runner, tmp_path):
    # a natural family over an index map that is not strictly increasing
    G = {"diagram": chain_diagram("b0", "b1", {"b0": ["g"], "b1": ["g1"]}, {"g1": "g"})}
    pm = {"alpha": {"b0": "a0", "b1": "a0"}, "phi": {"b0": {"u": "g", "v": "g"}, "b1": {"u": "g1", "v": "g1"}}}
    towers = ["-F", fixture("merge_tower_F.json"), "-G", write_json(tmp_path, "G.json", G)]
    path = write_json(tmp_path, "pm.json", pm)
    checked = runner.invoke(main, ["check", "pm-valid", path, *towers])
    assert json.loads(checked.output)["valid"] is False
    result = runner.invoke(main, ["merge", *towers, "-p", path, "-q", path])
    assert result.exit_code == 1
    assert "error: index map is not strictly increasing on 'b0' < 'b1'" in result.output


def test_check_pm_leq_refuses_an_invalid_pre_morphism(runner, tmp_path):
    # p collapses both of G's indices onto a1, so it is not a pre-morphism:
    # pm-leq refuses it as merge does, rather than ordering it
    F = {"diagram": chain_diagram("a0", "a1", {"a0": ["u", "v"], "a1": ["u", "v"]}, {"u": "u", "v": "v"})}
    G = {"diagram": chain_diagram("b0", "b1", {"b0": ["u", "v"], "b1": ["u", "v"]}, {"u": "u", "v": "v"})}
    same = {"u": "u", "v": "v"}
    p = {"alpha": {"b0": "a1", "b1": "a1"}, "phi": {"b0": same, "b1": same}}
    towers = ["-F", write_json(tmp_path, "F.json", F), "-G", write_json(tmp_path, "G.json", G)]
    path = write_json(tmp_path, "p.json", p)
    checked = runner.invoke(main, ["check", "pm-valid", path, *towers])
    assert (checked.exit_code, json.loads(checked.output)) == (0, {"valid": False, "schema_version": 1})
    merged = runner.invoke(main, ["merge", *towers, "-p", path, "-q", path])
    result = runner.invoke(main, ["check", "pm-leq", path, *towers, "-q", path])
    for outcome in (merged, result):
        assert outcome.exit_code == 1
        assert "error: index map is not strictly increasing on 'b0' < 'b1'" in outcome.output
    assert "leq" not in result.output
