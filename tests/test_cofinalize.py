import dataclasses
import itertools
import json
import random
from importlib import resources

import pytest

from profact.category import FinCategory, poset_as_category
from profact.cofinalize import (
    BudgetExceeded,
    CofinalizeError,
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
    cones = sorted(tower.top.elements[1:], key=lambda c: len(tower.top.strict_downset(c)))
    assert [tower.top.strict_downset(c) for c in cones] == [(), ("i",)]
    assert all(tower.obj_map[c] == "i" for c in cones)
    assert all(tower.verify().values())


def test_full_subset_cone_over_two_chain():
    tower = build_tower(chain2(), levels=1, reysha_cap=2)
    top = tower.top
    full = [c for c in top.elements if set(top.strict_downset(c)) == {"x", "y"}]
    # only the lower object of the chain admits legs to both
    assert [tower.obj_map[c] for c in full] == ["x"]
    assert {m: tower.mor_map[(full[0], m)] for m in top.strict_downset(full[0])} == {"x": "x>=x", "y": "x>=y"}


def test_cone_elements_sit_above_their_members():
    tower = build_tower(chain3(), levels=2, reysha_cap=2, element_cap=10**5)
    for n, (below, level) in enumerate(zip(tower.levels, tower.levels[1:]), start=1):
        for name in level.elements[len(below.elements):]:
            assert name.startswith(f"c{n}_")
            members = tower.top.strict_downset(name)
            assert set(members) <= set(below.elements)
            for m in members:
                assert tower.top.lt(m, name)
                assert (name, m) in tower.mor_map


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
    """The over-category of i as a scan of every pair of its objects, with
    no edge from an object at c to one at c itself."""
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
        if tower.top.lt(c, c2)
        and (c2, c) in tower.mor_map
        and tower.source.compose(m, tower.mor_map[(c2, c)]) == m2
    ]
    return objects, edges


DIRECTED = ("one_object.json", "chain2.json", "chain3.json", "vee.json")


def random_directed_categories(count):
    rng = random.Random(2024)
    return [poset_as_category(random_directed_poset(rng, 4)) for _ in range(count)]


def pairwise_reports(tower):
    """(object, nonempty, verdict, components) for each object, from a
    union-find over each over-category's own pairwise scan."""
    base = set(tower.base.elements)
    reports = []
    for i in tower.source.objects:
        objects, edges = pairwise_over_category(tower, i)
        parent = {o: o for o in objects}

        def find(o):
            while parent[o] != o:
                o = parent[o]
            return o

        for a, b in edges:
            parent[find(a)] = find(b)
        roots = {find(o) for o in objects if o[0] in base}
        verdict = "true" if len(roots) == 1 else "inconclusive"
        reports.append((i, bool(roots), verdict, len(roots)))
    return reports


def swapped_leg_towers(count):
    """Two-level towers over the one-object idempotent monoid at caps 1-3,
    each strict leg swapped for the other morphism, e for 1 with
    probability 0.9 and 1 for e with 0.1: still well typed, but no longer
    functorial, and with fewer e legs to join them some over-categories
    split."""
    rng = random.Random(2025)
    towers = []
    for k in range(count):
        tower = build_tower(idempotent_monoid(), levels=2, reysha_cap=1 + k % 3)
        swap = {}
        for p in tower.top.strict_pairs():
            leg = tower.mor_map[p]
            if rng.random() < (0.9 if leg == "e" else 0.1):
                swap[p] = "1" if leg == "e" else "e"
        towers.append(dataclasses.replace(tower, mor_map={**tower.mor_map, **swap}))
    return towers


def legs_out_of_another_object(cap):
    """A two-level tower over chain2 with every leg x>=y swapped for y>=y,
    which ends at y but starts at the wrong object."""
    tower = build_tower(chain2(), levels=2, reysha_cap=cap)
    swap = {p: "y>=y" for p in tower.top.strict_pairs() if tower.mor_map[p] == "x>=y"}
    return dataclasses.replace(tower, mor_map={**tower.mor_map, **swap})


def test_swapped_leg_towers_split_the_over_category():
    # so the comparison below also meets over-categories in 2-4 pieces
    components = [report[3] for tower in swapped_leg_towers(9) for report in pairwise_reports(tower)]
    assert components == [3, 1, 1, 4, 1, 1, 2, 1, 1]


@pytest.mark.parametrize(
    "tower",
    [
        pytest.param(build_tower(load_category(name), levels=2, reysha_cap=cap), id=f"{name}-{cap}")
        for name in DIRECTED
        for cap in (2, 3)
    ]
    + [
        pytest.param(build_tower(idempotent_monoid(), levels=2, reysha_cap=cap), id=f"idempotent_monoid-{cap}")
        for cap in (2, 3)
    ]
    + [
        pytest.param(build_tower(cat, levels=2, reysha_cap=2), id=f"random{k}-2")
        for k, cat in enumerate(random_directed_categories(12))
    ]
    + [pytest.param(tower, id=f"swapped_legs{k}") for k, tower in enumerate(swapped_leg_towers(9))]
    + [pytest.param(legs_out_of_another_object(cap), id=f"legs_out_of_y-{cap}") for cap in (1, 2, 3)],
)
def test_over_category_matches_the_pairwise_scan(tower):
    reports = [(r.object, r.nonempty, r.verdict, r.components) for r in check_cofinality(tower)]
    assert reports == pairwise_reports(tower)


def directed_towers():
    """Towers over the directed fixtures at build caps 0-3 and over random
    directed posets at caps 0-2, all two levels high."""
    towers = [
        pytest.param(build_tower(load_category(name), levels=2, reysha_cap=cap), id=f"{name}-{cap}")
        for name in DIRECTED
        for cap in range(4)
    ]
    towers += [
        pytest.param(build_tower(cat, levels=2, reysha_cap=cap), id=f"random{k}-{cap}")
        for k, cat in enumerate(random_directed_categories(12))
        for cap in range(3)
    ]
    return towers


@pytest.mark.parametrize("tower", directed_towers())
def test_each_level_equals_the_poset_closed_from_scratch(tower):
    for level in tower.levels:
        closed = FinPoset.make(level.elements, level.le_pairs)
        assert level.elements == closed.elements
        assert level.le_pairs == closed.le_pairs
        for x in level.elements:
            assert level.index(x) == closed.index(x)
            assert level.downset(x) == closed.downset(x)
            assert level.strict_downset(x) == closed.strict_downset(x)
            assert level.degree(x) == closed.degree(x)
        assert level.in_degree_order() == closed.in_degree_order()
        assert all((x in level) == (x in closed) for x in tower.top.elements)


def has_upper_bounds_bruteforce(tower, cap):
    """Some top element lies above every member of each Reysha of the
    penultimate level, by a scan of the whole top level."""
    base = tower.levels[-2] if len(tower.levels) > 1 else tower.levels[-1]
    top = tower.top
    return all(
        any(all(top.le(m, c) for m in reysha.members) for c in top.elements)
        for reysha in base.reyshas(max_size=cap)
    )


@pytest.mark.parametrize("tower", directed_towers())
def test_directedness_matches_the_bruteforce_scan(tower):
    # check caps below, at and above the build cap
    for cap in range(5):
        assert check_tower_directedness(tower, cap) == has_upper_bounds_bruteforce(tower, cap)


def test_directedness_false_past_the_build_cap_on_vee():
    tower = build_tower(load_category("vee.json"), levels=2, reysha_cap=1)
    assert check_tower_directedness(tower)
    assert not check_tower_directedness(tower, 2)
    assert not has_upper_bounds_bruteforce(tower, 2)


@pytest.mark.parametrize("change", ["gain", "lose"])
def test_verify_catches_a_lower_level_with_another_order(change):
    tower = build_tower(chain2(), levels=2, reysha_cap=2)
    assert all(tower.verify().values())
    level = tower.levels[1]
    if change == "lose":
        # a cone over a singleton covers its one member
        cone = next(c for c in level.elements if len(level.strict_downset(c)) == 1)
        pairs = level.le_pairs - {(level.strict_downset(cone)[0], cone)}
    else:
        x, y = next(
            (x, y)
            for x, y in itertools.combinations(level.elements, 2)
            if not level.le(x, y) and not level.le(y, x)
        )
        pairs = level.le_pairs | {(x, y)}
    changed = FinPoset.make(level.elements, pairs)
    assert changed.le_pairs != level.le_pairs
    corrupted = dataclasses.replace(tower, levels=(tower.levels[0], changed, tower.levels[2]))
    assert corrupted.verify() == {
        "projection_typed": True,
        "projection_functorial": True,
        "levels_coherent": False,
    }
