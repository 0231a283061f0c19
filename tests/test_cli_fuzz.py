"""Structural fuzzing of every fixture through the command line.

Each example takes one fixture document, deletes a key or a list item,
swaps a value for one of another JSON type, or wraps a value in a list,
and runs a command that reads it.  The command must end with an exit code
from 0 to 3 and no traceback, and with 3 exactly when one of its inputs no
longer parses.
"""

import copy
import json
from importlib import resources

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from profact import serialize
from profact.cli import main
from profact.serialize import ParseError


def fixture(name):
    return str(resources.files("profact").joinpath("fixtures", name))


def load(name):
    return json.loads(resources.files("profact").joinpath("fixtures", name).read_text())


def _pro(name):
    return serialize.pro_object_from_json(load(name))


def _merge_towers(F_doc, G_doc):
    F, G = serialize.pro_object_from_json(F_doc), serialize.pro_object_from_json(G_doc)
    for name in ("merge_p.json", "merge_q.json"):
        serialize.pre_morphism_from_json(load(name), F, G)


def _pre_morphism(doc):
    serialize.pre_morphism_from_json(doc, _pro("merge_tower_F.json"), _pro("merge_tower_G.json"))


def _chi_pre_morphism(doc):
    f, t = (serialize.nattrans_from_json(load(name)) for name in ("chi_f.json", "chi_t.json"))
    serialize.arrow_pre_morphism_from_json(doc, f, t)


TOWERS = ["-F", fixture("merge_tower_F.json"), "-G", fixture("merge_tower_G.json")]
MERGE_PQ = ["-p", fixture("merge_p.json"), "-q", fixture("merge_q.json")]

# fixture -> (command reading the mutated copy at path, the parsers that
# command runs on it, raising ParseError when an input does not parse;
# the other inputs are fixtures, which parse)
CASES = {}
for name in (
    "identity_over_v.json",
    "broken_naturality.json",
    "chi_f.json",
    "chi_t.json",
    "reedy_identity_over_v.json",
):
    CASES[name] = [
        (lambda path: ["reedy", path], serialize.nattrans_from_json),
        (lambda path: ["check", "levelwise", path], serialize.nattrans_from_json),
    ]
for name in ("one_object.json", "chain2.json", "chain3.json", "vee.json", "parallel_pair.json"):
    CASES[name] = [
        (lambda path: ["cofinalize", path, "--levels", "1", "--reysha-cap", "2"], serialize.category_from_json),
        (lambda path: ["check", "directed-category", path], serialize.category_from_json),
    ]
CASES["lift_over_v.json"] = [(lambda path: ["lift", path], serialize.lifting_problem_from_json)]
CASES["merge_tower_F.json"] = [
    (
        lambda path: ["merge", "-F", path, "-G", fixture("merge_tower_G.json"), *MERGE_PQ],
        lambda doc: _merge_towers(doc, load("merge_tower_G.json")),
    )
]
CASES["merge_tower_G.json"] = [
    (
        lambda path: ["merge", "-F", fixture("merge_tower_F.json"), "-G", path, *MERGE_PQ],
        lambda doc: _merge_towers(load("merge_tower_F.json"), doc),
    )
]
CASES["merge_p.json"] = [
    (lambda path: ["merge", *TOWERS, "-p", path, "-q", fixture("merge_p.json")], _pre_morphism),
    (lambda path: ["check", "pm-leq", path, *TOWERS, "-q", fixture("merge_q.json")], _pre_morphism),
]
CASES["merge_q.json"] = [
    (lambda path: ["merge", *TOWERS, "-p", fixture("merge_p.json"), "-q", path], _pre_morphism),
    (lambda path: ["check", "pm-valid", path, *TOWERS], _pre_morphism),
]
CASES["chi_pm.json"] = [
    (
        lambda path: ["chi", "-f", fixture("chi_f.json"), "-t", fixture("chi_t.json"), "-p", path],
        _chi_pre_morphism,
    )
]


def test_every_fixture_is_fuzzed():
    assert set(CASES) == {p.name for p in resources.files("profact").joinpath("fixtures").iterdir()}


# one value of each JSON type
OTHER_TYPES = [None, True, 7, 1.5, "x", [], {}]


# the keys a document's schema names; any other key is an id
SCHEMA_KEYS = {
    "alpha", "arrows", "bottom", "components", "compose", "diagram", "elements", "from",
    "height_cap", "identities", "le", "left", "map", "mid", "morphisms", "objects", "phi",
    "poset", "psi", "report", "right", "schema_version", "source", "src", "target", "tgt",
    "to", "top",
}


def _positions(node, trail=()):
    """Every position in a document, the root first, except that only the
    first item of a list and the first entry of a dict keyed by ids is
    entered: the others have the same structure."""
    yield trail
    if isinstance(node, dict):
        items = list(node.items())
        if not set(node) <= SCHEMA_KEYS:
            items = items[:1]
        for key, value in items:
            yield from _positions(value, trail + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node[:1]):
            yield from _positions(value, trail + (i,))


def _mutate(doc, position, kind, replacement):
    """doc with the value at position deleted, replaced, or wrapped in a
    list; the root is never deleted."""
    if not position:
        return [doc] if kind == "wrap" else replacement
    doc = copy.deepcopy(doc)
    parent = doc
    for step in position[:-1]:
        parent = parent[step]
    last = position[-1]
    if kind == "delete":
        del parent[last]
    elif kind == "wrap":
        parent[last] = [parent[last]]
    else:
        parent[last] = replacement
    return doc


def _value_at(doc, position):
    for step in position:
        doc = doc[step]
    return doc


@st.composite
def mutated_cases(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    command, parse = draw(st.sampled_from(CASES[name]))
    doc = load(name)
    position = draw(st.sampled_from(list(_positions(doc))))
    kind = draw(st.sampled_from(["delete", "swap", "wrap"] if position else ["swap", "wrap"]))
    current = _value_at(doc, position)
    replacement = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(current)]))
    return command, parse, _mutate(doc, position, kind, replacement)


@settings(max_examples=400, deadline=None)
@given(case=mutated_cases())
def test_mutated_fixture_exits_with_a_documented_code(tmp_path_factory, case):
    command, parse, doc = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    try:
        parse(doc)
        parses = True
    except ParseError:
        parses = False
    result = CliRunner().invoke(main, command(str(path)))
    # an uncaught exception leaves something other than SystemExit behind
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    if parses:
        assert result.exit_code in (0, 1, 2), result.output
    else:
        assert result.exit_code == 3, result.output
