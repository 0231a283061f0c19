"""Malformed documents end in exit code 3 with a JSON path, never in a
traceback."""

import copy
import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import invoke


def fixture(name):
    return str(resources.files("profact").joinpath("fixtures", name))


def load(name):
    return json.loads(resources.files("profact").joinpath("fixtures", name).read_text())


def run(args):
    result = invoke(args)
    # an uncaught exception leaves something other than SystemExit behind
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    return result


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _arrow_from_list(doc):
    doc["source"]["arrows"][0]["from"] = ["a"]


def _carrier_element_list(doc):
    doc["source"]["objects"]["t"][0] = ["a"]


def _component_value_list(doc):
    doc["components"]["t"]["a"] = ["z"]


def _arrows_not_a_list(doc):
    doc["source"]["arrows"] = 5


@pytest.mark.parametrize(
    "corrupt, path",
    [
        (_arrow_from_list, ".source.arrows[0]"),
        (_carrier_element_list, ".source.objects.t"),
        (_component_value_list, ".components.t"),
        (_arrows_not_a_list, ".source.arrows"),
    ],
)
def test_malformed_reedy_input_is_parse_error(tmp_path, corrupt, path):
    doc = load("identity_over_v.json")
    corrupt(doc)
    bad = _write(tmp_path, "bad.json", doc)
    result = run(["reedy", bad])
    assert result.exit_code == 3
    assert f"{bad}{path}:" in result.output


def test_a_fiber_that_is_no_list_names_its_path_once(tmp_path):
    doc = load("identity_over_v.json")
    doc["source"]["objects"]["t"] = "ab"
    bad = _write(tmp_path, "bad.json", doc)
    result = run(["reedy", bad])
    assert result.exit_code == 3
    assert result.stderr == f"error: {bad}.source.objects.t: expected a list of element ids\n"


def test_chi_index_outside_source_poset_is_parse_error(tmp_path):
    pm = load("chi_pm.json")
    pm["alpha"]["e0"] = "zz"
    bad = _write(tmp_path, "pm.json", pm)
    result = run(["chi", "-f", fixture("chi_f.json"), "-t", fixture("chi_t.json"), "-p", bad])
    assert result.exit_code == 3
    assert f"{bad}.alpha: unknown index 'zz'" in result.output


def _id_positions(node, trail=()):
    """Every place an element id sits in a document: its string leaves."""
    if isinstance(node, str):
        yield trail
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _id_positions(value, trail + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _id_positions(value, trail + (i,))


IDENTITY = load("identity_over_v.json")
NON_STRING_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(position=st.sampled_from(list(_id_positions(IDENTITY))), value=NON_STRING_JSON)
def test_non_string_id_is_parse_error(tmp_path_factory, position, value):
    doc = copy.deepcopy(IDENTITY)
    node = doc
    for step in position[:-1]:
        node = node[step]
    node[position[-1]] = value
    bad = _write(tmp_path_factory.mktemp("doc"), "bad.json", doc)
    assert run(["reedy", bad]).exit_code == 3


def _unknown_identity(doc):
    doc["identities"]["x"] = "nope"


def _unknown_composite(doc):
    doc["compose"][1][2] = "nope"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_unknown_identity, "missing or ill-typed identity on 'x'"),
        (_unknown_composite, "composite 'nope' of ('x>=y', 'x>=x') is not a morphism"),
    ],
)
def test_unknown_morphism_in_category_is_parse_error(tmp_path, corrupt, message):
    doc = load("chain2.json")
    corrupt(doc)
    bad = _write(tmp_path, "bad.json", doc)
    result = run(["cofinalize", bad])
    assert result.exit_code == 3
    assert f"{bad}: {message}" in result.output


@pytest.mark.parametrize(
    "what, doc, path",
    [
        ("directed-poset", {"elements": "ab"}, ".elements"),
        ("directed-poset", {"elements": ["a", "b"], "le": "ab"}, ".le"),
        ("directed-category", {**load("chain2.json"), "objects": "xy"}, ".objects"),
        ("directed-category", {**load("chain2.json"), "morphisms": "x>=x"}, ".morphisms"),
        ("directed-poset", {"elements": [1, 2], "le": [[1, 2]]}, ".elements"),
        ("directed-poset", {"elements": [["a"], "b"]}, ".elements"),
        ("directed-poset", {"elements": ["a", "b"], "le": [5]}, ".le[0]"),
        ("directed-poset", {"elements": ["a", "b"], "le": [["a", "b"], ["a"]]}, ".le[1]"),
        ("directed-poset", {"elements": ["a", "b"], "le": [["a", "b", "a"]]}, ".le[0]"),
        ("directed-poset", {"elements": ["a", "b"], "le": [["a", 2]]}, ".le[0]"),
        ("directed-category", {**load("chain2.json"), "objects": [["x"], "y"]}, ".objects"),
        ("directed-category", {**load("chain2.json"), "objects": [1, "y"]}, ".objects"),
        ("directed-category", {**load("chain2.json"), "morphisms": [["x>=x"]]}, ".morphisms"),
        ("directed-category", {**load("chain2.json"), "morphisms": ["x>=x", 2]}, ".morphisms"),
    ],
)
def test_string_for_a_list_of_ids_is_parse_error(tmp_path, what, doc, path):
    bad = _write(tmp_path, "bad.json", doc)
    result = run(["check", what, bad])
    assert result.exit_code == 3
    assert f"{bad}{path}: expected a list of" in result.output


def _directory(tmp_path):
    path = tmp_path / "input"
    path.mkdir()
    return path


def _utf16(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    return path


def _deep(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    return path


@pytest.mark.parametrize(
    "make, message",
    [
        (_directory, "cannot read the file"),
        (_utf16, "not UTF-8 text"),
        (_deep, "invalid JSON: nested too deeply"),
    ],
)
def test_unreadable_input_file_is_parse_error(tmp_path, make, message):
    path = str(make(tmp_path))
    result = run(["check", "directed-poset", path])
    assert result.exit_code == 3
    assert f"{path}: {message}" in result.output


def test_unwritable_output_file_is_exit_3(tmp_path):
    out = str(tmp_path / "missing" / "out.json")
    result = run(["reedy", fixture("identity_over_v.json"), "-o", out])
    assert result.exit_code == 3
    assert f"{out}: cannot write the file" in result.output


def test_chi_ignores_indices_outside_the_target(tmp_path):
    doc = load("chi_pm.json")
    doc["alpha"]["zz"] = "e0"
    pm = _write(tmp_path, "pm.json", doc)
    result = invoke(["chi", "-f", fixture("chi_f.json"), "-t", fixture("chi_t.json"), "-p", pm])
    assert result.exit_code == 0
    golden = Path(__file__).parent / "golden" / "chi.stdout"
    assert result.stdout_bytes == golden.read_bytes()


@pytest.mark.parametrize(
    "table, path, message",
    [
        ({"a": 1}, ".compose", "expected a list of rows of three morphism ids"),
        ([["x>=x", ["a"], "x>=x"]], ".compose[0]", "a row must be three morphism ids"),
        ([None], ".compose[0]", "a row must be three morphism ids"),
    ],
)
def test_malformed_composition_table_is_parse_error(tmp_path, table, path, message):
    bad = _write(tmp_path, "bad.json", {**load("chain2.json"), "compose": table})
    result = run(["cofinalize", bad])
    assert result.exit_code == 3
    assert f"{bad}{path}: {message}" in result.output
