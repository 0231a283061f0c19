import dataclasses
import json
import random
from importlib import resources

import pytest

from profact.category import FinCategory, poset_as_category
from profact.cofinalize import (
    BudgetExceeded,
    CofinalizeError,
    _over_category,
    build_tower,
    check_cofinality,
    check_tower_directedness,
)
from profact.poset import FinPoset
from profact.randgen import random_directed_poset
from profact.serialize import category_from_json


def load_category(name):
    text = resources.files("profact").joinpath("fixtures", name).read_text()
    return category_from_json(json.loads(text))


def one_object():
    return load_category("one_object.json")


def chain2():
    return load_category("chain2.json")


def chain3():
    return load_category("chain3.json")


def test_level_zero_is_object_antichain():
    tower = build_tower(chain2(), levels=0)
    assert tuple(tower.top.elements) == tuple(chain2().objects)
    assert all(a == b for a, b in tower.top.le_pairs)
    assert all(tower.verify().values())


def test_one_object_first_level_has_three_elements():
    tower = build_tower(one_object(), levels=1, reysha_cap=2)
    assert len(tower.top.elements) == 3
    # one original object, one cone over the empty subset, one over {i}
    cones = sorted(tower.cones.values(), key=lambda c: len(c.members))
    assert [c.members for c in cones] == [(), ("i",)]
    assert all(c.apex == "i" for c in cones)
    assert all(tower.verify().values())


def test_full_subset_cone_over_two_chain():
    tower = build_tower(chain2(), levels=1, reysha_cap=2)
    full = [c for c in tower.cones.values() if set(c.members) == {"x", "y"}]
    # only the lower object of the chain admits legs to both
    assert [c.apex for c in full] == ["x"]
    assert full[0].legs == {"x": "x>=x", "y": "x>=y"}


def test_cone_elements_sit_above_their_members():
    tower = build_tower(chain3(), levels=2, reysha_cap=2, element_cap=10**5)
    for name, cone in tower.cones.items():
        assert set(cone.members) <= set(tower.levels[cone.level - 1].elements)
        for m in cone.members:
            assert tower.top.lt(m, name)


def test_projection_laws_on_chain3():
    tower = build_tower(chain3(), levels=2, reysha_cap=2, element_cap=10**5)
    assert tower.verify() == {
        "projection_typed": True,
        "projection_functorial": True,
        "levels_coherent": True,
    }


def idempotent_monoid():
    """One object with an identity and an idempotent: directed, and with two
    parallel morphisms, so a projection entry can be wrong yet well typed."""
    return FinCategory.make(
        ["i"],
        ["1", "e"],
        {"1": "i", "e": "i"},
        {"1": "i", "e": "i"},
        {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"},
        {"i": "1"},
    )


def test_verify_catches_a_corrupted_composite():
    tower = build_tower(idempotent_monoid(), levels=2, reysha_cap=2)
    assert all(tower.verify().values())
    top = tower.top
    c, c2, c3 = next(
        (c, c2, c3)
        for c in top.elements
        for c2 in top.elements
        for c3 in top.elements
        if top.lt(c3, c2) and top.lt(c2, c)
    )
    wrong = "e" if tower.mor_map[(c, c3)] == "1" else "1"
    corrupted = dataclasses.replace(tower, mor_map={**tower.mor_map, (c, c3): wrong})
    verdicts = corrupted.verify()
    assert verdicts["projection_typed"] is True
    assert verdicts["projection_functorial"] is False


def test_directedness_holds_at_matching_cap():
    tower = build_tower(one_object(), levels=2, reysha_cap=2)
    assert check_tower_directedness(tower)


def test_directedness_fails_when_checked_past_build_cap():
    # cones were only adjoined over singletons, so the pair {x, y} of the
    # penultimate level has no upper bound at the top
    tower = build_tower(chain2(), levels=1, reysha_cap=1)
    assert check_tower_directedness(tower)
    assert not check_tower_directedness(tower, reysha_cap=2)


def test_cofinality_one_object_true():
    for levels in (1, 2):
        tower = build_tower(one_object(), levels=levels, reysha_cap=2)
        (report,) = check_cofinality(tower)
        assert report.object == "i"
        assert report.nonempty and report.verdict == "true"


def test_cofinality_chain3_never_refuted():
    tower = build_tower(chain3(), levels=2, reysha_cap=2, element_cap=10**5)
    reports = check_cofinality(tower)
    assert len(reports) == len(chain3().objects)
    for report in reports:
        assert report.nonempty
        assert report.verdict in ("true", "inconclusive")


def test_zigzag_witnesses_are_edges():
    tower = build_tower(chain2(), levels=1, reysha_cap=2)
    for report in check_cofinality(tower):
        for (c2, m2), (c, m) in report.zigzag:
            assert tower.top.le(c, c2)
            assert tower.source.compose(m, tower.mor_map[(c2, c)]) == m2


def test_non_directed_category_rejected():
    with pytest.raises(CofinalizeError):
        build_tower(load_category("parallel_pair.json"))


def test_object_named_like_a_cone_rejected():
    # level 1 names the cone over the empty Reysha c1_0
    clash = poset_as_category(FinPoset.make(["c1_0"], []))
    with pytest.raises(CofinalizeError, match="'c1_0' clashes"):
        build_tower(clash, levels=1)
    # a name no level reaches is fine
    tower = build_tower(poset_as_category(FinPoset.make(["c2_0"], [])), levels=1)
    assert tower.top.elements.count("c2_0") == 1


def test_budget_cap():
    with pytest.raises(BudgetExceeded):
        build_tower(one_object(), levels=2, reysha_cap=2, element_cap=5)


def pairwise_over_category(tower, i):
    """The over-category of i as a scan of every pair of its objects."""
    objects = [
        (c, m)
        for c in tower.top.elements
        for m in tower.source.morphisms
        if tower.source.src[m] == tower.obj_map[c] and tower.source.tgt[m] == i
    ]
    edges = [
        ((c2, m2), (c, m))
        for c2, m2 in objects
        for c, m in objects
        if tower.top.le(c, c2)
        and (c2, c) in tower.mor_map
        and tower.source.compose(m, tower.mor_map[(c2, c)]) == m2
    ]
    return objects, edges


DIRECTED = ("one_object.json", "chain2.json", "chain3.json", "vee.json")


def random_directed_categories(count):
    rng = random.Random(2024)
    return [poset_as_category(random_directed_poset(rng, 4)) for _ in range(count)]


@pytest.mark.parametrize(
    "category, cap",
    [pytest.param(load_category(name), cap, id=f"{name}-{cap}") for name in DIRECTED for cap in (2, 3)]
    + [pytest.param(idempotent_monoid(), cap, id=f"idempotent_monoid-{cap}") for cap in (2, 3)]
    + [pytest.param(cat, 2, id=f"random{k}-2") for k, cat in enumerate(random_directed_categories(12))],
)
def test_over_category_matches_the_pairwise_scan(category, cap):
    tower = build_tower(category, levels=2, reysha_cap=cap)
    for i in category.objects:
        assert _over_category(tower, i) == pairwise_over_category(tower, i)
