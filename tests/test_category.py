import json
import random
from importlib import resources

import pytest

from profact.category import (
    CategoryError,
    FinCategory,
    is_directed_category,
    poset_as_category,
)
from profact.poset import FinPoset, Reysha
from profact.randgen import random_directed_poset
from profact.serialize import category_from_json

CONE_POINT = "∞"


def parallel_pair():
    """The category with two objects and two parallel non-identity arrows."""
    text = resources.files("profact").joinpath("fixtures", "parallel_pair.json").read_text()
    return category_from_json(json.loads(text))


def category_poset_elements(cat: FinCategory) -> FinPoset | None:
    """Recover a poset presentation if every hom set has at most one arrow."""
    pairs = []
    for u in cat.objects:
        for v in cat.objects:
            homs = cat.hom(u, v)
            if len(homs) > 1:
                return None
            if homs and u != v:
                if cat.hom(v, u):
                    return None
                pairs.append((v, u))  # arrow u -> v means v <= u
    return FinPoset.make(cat.objects, pairs)


def cone_extend(reysha: Reysha) -> FinCategory:
    """Adjoin a fresh initial object to a Reysha viewed as a category.

    The new object has exactly one morphism to every other object; the
    empty Reysha yields the one-object category on the cone point.
    """
    base = poset_as_category(reysha.parent.restrict(reysha.members))
    if CONE_POINT in base.objects:
        raise CategoryError(f"element id {CONE_POINT!r} is reserved for the cone point")
    objects = (CONE_POINT,) + base.objects
    cone_name = lambda c: f"{CONE_POINT}->{c}"
    morphisms = tuple(cone_name(c) for c in objects) + base.morphisms
    src = dict(base.src)
    tgt = dict(base.tgt)
    for c in objects:
        src[cone_name(c)] = CONE_POINT
        tgt[cone_name(c)] = c
    compose = dict(base.compose_table)
    identities = dict(base.identities)
    identities[CONE_POINT] = cone_name(CONE_POINT)
    for m in morphisms:
        if src[m] == CONE_POINT:
            compose[(m, cone_name(CONE_POINT))] = m
    for m in base.morphisms:
        compose[(m, cone_name(base.src[m]))] = cone_name(base.tgt[m])
    return FinCategory.make(objects, morphisms, src, tgt, compose, identities)


def test_construction_validates_units_and_associativity():
    with pytest.raises(CategoryError):
        FinCategory.make(("x",), ("id_x",), {"id_x": "x"}, {"id_x": "x"}, {}, {"x": "id_x"})


def test_poset_as_category_round_trip():
    chain = FinPoset.make(("a", "b"), [("a", "b")])
    cat = poset_as_category(chain)
    assert set(cat.objects) == {"a", "b"}
    assert cat.hom("b", "a") == ("b>=a",)
    assert cat.hom("a", "b") == ()
    recovered = category_poset_elements(cat)
    assert recovered is not None
    assert recovered.le_pairs == chain.le_pairs


def test_parallel_pair_not_a_poset_category():
    assert category_poset_elements(parallel_pair()) is None


def test_directedness_of_poset_categories():
    vee = poset_as_category(FinPoset.make(("x0", "x1", "t"), [("x0", "t"), ("x1", "t")]))
    directed, witness = is_directed_category(vee)
    assert directed and witness is None


def test_parallel_pair_fails_axiom_three():
    directed, witness = is_directed_category(parallel_pair())
    assert not directed
    assert witness.axiom == 3
    assert set(witness.detail) == {"f", "g"}


def test_two_unbounded_objects_fail_axiom_two():
    discrete = poset_as_category(FinPoset.make(("a", "b")))
    directed, witness = is_directed_category(discrete)
    assert not directed
    assert witness.axiom == 2


def test_empty_category_fails_axiom_one():
    empty = FinCategory.make((), (), {}, {}, {}, {})
    directed, witness = is_directed_category(empty)
    assert not directed
    assert witness.axiom == 1


def test_cone_extend_adds_initial_object():
    vee = FinPoset.make(("x0", "x1", "t"), [("x0", "t"), ("x1", "t")])
    extended = cone_extend(Reysha(vee, ("x0", "x1")))
    assert CONE_POINT in extended.objects
    for obj in extended.objects:
        assert len(extended.hom(CONE_POINT, obj)) == 1
    assert extended.hom("x0", CONE_POINT) == ()


def test_cone_extend_empty_reysha():
    vee = FinPoset.make(("x0", "x1", "t"), [("x0", "t"), ("x1", "t")])
    extended = cone_extend(Reysha(vee, ()))
    assert extended.objects == (CONE_POINT,)
    assert len(extended.morphisms) == 1


def hom_categories():
    fixtures = ("one_object.json", "chain2.json", "chain3.json", "vee.json", "parallel_pair.json")
    cats = [
        pytest.param(category_from_json(json.loads(resources.files("profact").joinpath("fixtures", name).read_text())), id=name)
        for name in fixtures
    ]
    rng = random.Random(15)
    cats += [pytest.param(poset_as_category(random_directed_poset(rng, 5)), id=f"random{k}") for k in range(20)]
    return cats


@pytest.mark.parametrize("cat", hom_categories())
def test_hom_equals_the_scan_over_morphisms(cat):
    # hom reads a table built on first use; cone names follow its order
    for x in cat.objects + ("unknown",):
        for y in cat.objects + ("unknown",):
            scan = tuple(m for m in cat.morphisms if cat.src[m] == x and cat.tgt[m] == y)
            assert cat.hom(x, y) == scan
