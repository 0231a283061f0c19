"""Each law check on a one-fault input: the exact message it raises, or the
report it returns.  The checks walk the strict pairs x > y x-major, and the
chains x >= y >= z, in canonical order; these cases pin which failure is
reported first."""

import json
from importlib import resources

import pytest

from profact import serialize
from profact.base import BaseObject, identity, morphism
from profact.diagrams import Diagram, NatTrans
from profact.factorize import PreMorphism, check_pre_morphism, chi_construct, reedy, verify_chi
from profact.lifting import ConeLift, LiftingProblem
from profact.poset import FinPoset
from profact.procalc import ProObject, RawMorphism, is_raw_morphism

TWO = BaseObject(("0", "1"))
SWAP = morphism(TWO, TWO, {"0": "1", "1": "0"})
# c < b < a, listed bottom first
CHAIN = FinPoset.make(("c", "b", "a"), [("c", "b"), ("b", "a")])
# two chains a < b and c < d
TWO_CHAINS = FinPoset.make(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
# s < t
PAIR = FinPoset.make(("s", "t"), [("s", "t")])


def flat(shape, arrows=()):
    """TWO at every element, identity arrows except the ones given."""
    every = {(x, y): identity(TWO) for x in shape.elements for y in shape.strict_downset(x)}
    return Diagram.make(shape, {x: TWO for x in shape.elements}, {**every, **dict(arrows)})


def identities(shape, swapped=()):
    return {x: SWAP if x in swapped else identity(TWO) for x in shape.elements}


def raised(check):
    try:
        check()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def pre_morphism(alpha, phi_swapped=(), psi_swapped=()):
    X = flat(TWO_CHAINS)
    families = [
        ("top", X, X, identities(TWO_CHAINS, phi_swapped)),
        ("bottom", X, X, identities(TWO_CHAINS, psi_swapped)),
    ]
    return raised(lambda: check_pre_morphism(alpha, families))


IDENTITY_ALPHA = {x: x for x in TWO_CHAINS.elements}
A = BaseObject(("a",))
B = BaseObject(("a", "b"))


def lifting_problem(top, bottom):
    """An identity transformation over s < t against A -> B; top and bottom
    give each cone component's values."""
    right = NatTrans.make(flat(PAIR), flat(PAIR), identities(PAIR))
    left = morphism(A, B, {"a": "a"})
    return LiftingProblem(
        left,
        right,
        {t: morphism(A, TWO, values) for t, values in top.items()},
        {t: morphism(B, TWO, values) for t, values in bottom.items()},
    )


BOTTOM_INCOMPATIBLE = lifting_problem(
    {"s": {"a": "0"}, "t": {"a": "0"}}, {"s": {"a": "0", "b": "1"}, "t": {"a": "0", "b": "0"}}
)


def chi_report():
    """The fixture middle map with one value moved inside its fiber of the
    right map: both rectangles still commute, naturality does not."""
    load = lambda name: json.loads(resources.files("profact").joinpath("fixtures", name).read_text())
    f = serialize.nattrans_from_json(load("chi_f.json"))
    t = serialize.nattrans_from_json(load("chi_t.json"))
    pm = serialize.arrow_pre_morphism_from_json(load("chi_pm.json"), f, t)
    rf_f, rf_t = reedy(f), reedy(t)
    chim = chi_construct(f, t, pm, rf_f, rf_t)
    low = chim.chi["e0"]
    moved = morphism(low.source, low.target, {**low.mapping, "t:p0": "s:o:xe0_1"})
    return verify_chi(PreMorphism(chim.alpha, {"chi": {**chim.chi, "e0": moved}}), pm, rf_f, rf_t)


def raw_report():
    """Two representatives at one index that differ there, the only index."""
    point = FinPoset.make(("i",))
    F = ProObject(point, Diagram.make(point, {"i": TWO}), 1)
    G = ProObject(PAIR, flat(PAIR), 2)
    return is_raw_morphism(F, G, RawMorphism({"s": ("i", SWAP), "t": ("i", identity(TWO))}))


CASES = {
    "diagram_functoriality": (
        lambda: raised(lambda: flat(CHAIN, {("a", "c"): SWAP})),
        "DiagramError: functoriality fails along 'a' >= 'b' >= 'c'",
    ),
    # an idempotent at (x, x) passes every chain through x; it is named
    # before any chain is walked
    "diagram_identity": (
        lambda: raised(
            lambda: Diagram.make(
                FinPoset.make(("x",)), {"x": TWO}, {("x", "x"): morphism(TWO, TWO, {"0": "0", "1": "0"})}
            )
        ),
        "DiagramError: arrow for pair 'x' >= 'x' is not the identity",
    ),
    "diagram_arrow_outside_shape": (
        lambda: raised(lambda: Diagram.make(FinPoset.make(("x",)), {"x": TWO}, {("zz", "x"): identity(TWO)})),
        "DiagramError: arrow present for pair ('zz', 'x') outside the shape",
    ),
    # the scan of the shape's pairs still reports its faults first
    "diagram_non_comparable_before_outside": (
        lambda: raised(
            lambda: flat(TWO_CHAINS, {("zz", "a"): identity(TWO), ("a", "c"): identity(TWO)})
        ),
        "DiagramError: arrow present for non-comparable pair ('a', 'c')",
    ),
    # a fails against both c and b; c comes first in the canonical order
    "nattrans_naturality": (
        lambda: raised(lambda: NatTrans.make(flat(CHAIN), flat(CHAIN), identities(CHAIN, "a"))),
        "DiagramError: naturality fails on 'a' >= 'c'",
    ),
    "pre_morphism_not_increasing": (
        lambda: pre_morphism({**IDENTITY_ALPHA, "b": "a"}),
        "FactorizeError: index map is not strictly increasing on 'a' < 'b'",
    ),
    "pre_morphism_top_not_natural": (
        lambda: pre_morphism(IDENTITY_ALPHA, phi_swapped="d"),
        "FactorizeError: top family not natural on 'd' >= 'c'",
    ),
    "pre_morphism_bottom_not_natural": (
        lambda: pre_morphism(IDENTITY_ALPHA, psi_swapped="b"),
        "FactorizeError: bottom family not natural on 'b' >= 'a'",
    ),
    # top fails on the later pair, bottom on the earlier: pairs come first
    "pre_morphism_pair_major": (
        lambda: pre_morphism(IDENTITY_ALPHA, phi_swapped="d", psi_swapped="b"),
        "FactorizeError: bottom family not natural on 'b' >= 'a'",
    ),
    "lifting_top_cone": (
        lambda: raised(
            lifting_problem(
                {"s": {"a": "1"}, "t": {"a": "0"}}, {"s": {"a": "1", "b": "0"}, "t": {"a": "0", "b": "0"}}
            ).validate
        ),
        "LiftingError: top cone incompatible on 't' >= 's'",
    ),
    "lifting_bottom_cone": (
        lambda: raised(BOTTOM_INCOMPATIBLE.validate),
        "LiftingError: bottom cone incompatible on 't' >= 's'",
    ),
    "cone_lift_compatible": (
        lambda: ConeLift(dict(BOTTOM_INCOMPATIBLE.bottom)).verify(BOTTOM_INCOMPATIBLE),
        {"upper_triangles": True, "lower_triangles": True, "cone_compatible": False},
    ),
    "chi_natural": (
        chi_report,
        {"left_rectangle": True, "right_rectangle": True, "natural": False},
    ),
    "raw_morphism": (raw_report, False),
}


@pytest.mark.parametrize("name", list(CASES))
def test_law_check_reports_its_first_failure(name):
    build, expected = CASES[name]
    assert build() == expected
