import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profact.base import BaseMorphism, BaseObject, compose, identity, morphism
from profact.diagrams import Diagram
from profact.factorize import check_arrow_pre_morphism
from profact.poset import FinPoset, is_directed_poset
from profact.procalc import (
    PreMorphism,
    ProCalcError,
    ProObject,
    RawMorphism,
    TruncationExhausted,
    dominate,
    eq_in_colim,
    is_pre_morphism,
    pm_compose,
    pm_identity,
    pm_leq,
    restrict,
    straighten,
)
from profact.randgen import (
    random_arrow_pre_morphism,
    random_nattrans,
    random_poset,
    random_pre_morphism,
    random_pro_object,
    refine_arrow_pre_morphism,
    refine_pre_morphism,
)
from profact.report import PROPERTIES
from profact.serialize import diagram_to_json, pre_morphism_from_json, pre_morphism_to_json, pro_object_from_json


def chain_tower():
    """A tower over a chain of height 4 whose fibers merge going down."""
    ch = FinPoset.make(("0", "1", "2", "3"), [("0", "1"), ("1", "2"), ("2", "3")])
    two = BaseObject(("u", "v"))
    one = BaseObject(("w",))
    fibers = {"0": one, "1": one, "2": two, "3": two}
    arrows = {}
    for x in ch.elements:
        for y in ch.elements:
            if ch.lt(y, x):
                if fibers[y] is one:
                    arrows[(x, y)] = morphism(fibers[x], one, {c: "w" for c in fibers[x].carrier})
                else:
                    arrows[(x, y)] = identity(two)
    return ProObject(Diagram.make(ch, fibers, arrows))


def connected_component_directed_check(
    F: ProObject, G: ProObject, sample: list[PreMorphism]
) -> bool:
    """True iff every pair in the sample admits a common upper bound
    within the truncation."""
    for i, p in enumerate(sample):
        for q in sample[i + 1 :]:
            try:
                r = dominate(F, G, p, q)
            except (ProCalcError, TruncationExhausted):
                return False
            if not (pm_leq(F, p, r) and pm_leq(F, q, r)):
                return False
    return True


def point_tower(fiber):
    pt = FinPoset.make(("b",))
    return ProObject(Diagram.make(pt, {"b": fiber}))


def test_pro_object_requires_directed_shape():
    anti = FinPoset.make(("a", "b"))
    one = BaseObject(("w",))
    with pytest.raises(ProCalcError):
        ProObject(Diagram.make(anti, {"a": one, "b": one}))


def test_eq_in_colim_reflexive():
    F = chain_tower()
    u = identity(F.at("0"))
    equal, witness = eq_in_colim(F.diagram, "0", u, "0", u)
    assert equal and witness == "0"


def test_eq_in_colim_finds_merge_point():
    F = chain_tower()
    two, one = F.at("2"), F.at("0")
    u = morphism(two, one, {"u": "w", "v": "w"})
    # the two distinct endomorphisms of the top fiber agree after the
    # fibers merge at index 1
    a = identity(two)
    b = morphism(two, two, {"u": "v", "v": "u"})
    z = BaseObject(("z",))
    p = morphism(two, z, {"u": "z", "v": "z"})
    equal, witness = eq_in_colim(F.diagram, "2", compose(p, a), "2", compose(p, b))
    assert equal and witness == "2"


def test_eq_in_colim_no_bound_in_truncation():
    F = chain_tower()
    two = F.at("2")
    z = BaseObject(("z1", "z2"))
    u = morphism(two, z, {"u": "z1", "v": "z2"})
    v = morphism(two, z, {"u": "z2", "v": "z1"})
    equal, witness = eq_in_colim(F.diagram, "2", u, "2", v)
    assert not equal and witness is None


def test_is_pre_morphism_rejects_non_strict_alpha():
    F = chain_tower()
    ch2 = FinPoset.make(("b0", "b1"), [("b0", "b1")])
    one = BaseObject(("w",))
    G = ProObject(Diagram.make(ch2, {"b0": one, "b1": one}, {("b1", "b0"): identity(one)}))
    collapse = {"b0": morphism(F.at("1"), one, {"w": "w"}), "b1": morphism(F.at("1"), one, {"w": "w"})}
    assert not is_pre_morphism(F, G, {"b0": "1", "b1": "1"}, collapse)
    assert is_pre_morphism(
        F,
        G,
        {"b0": "0", "b1": "1"},
        {"b0": morphism(F.at("0"), one, {"w": "w"}), "b1": morphism(F.at("1"), one, {"w": "w"})},
    )


def test_pm_order_laws_randomized():
    rng = random.Random(7)
    for _ in range(30):
        F = random_pro_object(rng, 5, 3)
        G, p = random_pre_morphism(rng, F)
        q = refine_pre_morphism(rng, F, G, p)
        assert pm_leq(F, p, p)
        assert pm_leq(F, p, q)
        if pm_leq(F, q, p):
            assert q.alpha == p.alpha and q.phi == p.phi
        r = refine_pre_morphism(rng, F, G, q)
        assert pm_leq(F, p, r)  # transitivity along a refinement chain


def test_pm_compose_units_and_associativity():
    rng = random.Random(13)
    for _ in range(15):
        F = random_pro_object(rng, 4, 2)
        G, p = random_pre_morphism(rng, F, max_junk=1)
        H, q = random_pre_morphism(rng, G, max_junk=1)
        K, r = random_pre_morphism(rng, H, max_junk=1)
        assert pm_compose(p, pm_identity(F)) == p
        assert pm_compose(pm_identity(G), p) == p
        assert pm_compose(r, pm_compose(q, p)) == pm_compose(pm_compose(r, q), p)


def test_pm_compose_monotone_both_sides():
    rng = random.Random(19)
    for _ in range(15):
        F = random_pro_object(rng, 4, 2)
        G, p = random_pre_morphism(rng, F, max_junk=1)
        p2 = refine_pre_morphism(rng, F, G, p)
        H, q = random_pre_morphism(rng, G, max_junk=1)
        q2 = refine_pre_morphism(rng, G, H, q)
        assert pm_leq(F, pm_compose(q, p), pm_compose(q, p2))
        assert pm_leq(F, pm_compose(q, p), pm_compose(q2, p))


def test_straighten_valid_raw_keeps_low_indices():
    F = chain_tower()
    one = BaseObject(("w",))
    ch2 = FinPoset.make(("b0", "b1"), [("b0", "b1")])
    G = ProObject(Diagram.make(ch2, {"b0": one, "b1": one}, {("b1", "b0"): identity(one)}))
    raw = RawMorphism(
        {
            "b0": ("0", morphism(F.at("0"), one, {"w": "w"})),
            "b1": ("1", morphism(F.at("1"), one, {"w": "w"})),
        }
    )
    pm = straighten(F, G, raw)
    assert pm.alpha == {"b0": "0", "b1": "1"}


def test_straighten_constant_index_reindexes_upward():
    F = chain_tower()
    one = BaseObject(("w",))
    ch2 = FinPoset.make(("b0", "b1"), [("b0", "b1")])
    G = ProObject(Diagram.make(ch2, {"b0": one, "b1": one}, {("b1", "b0"): identity(one)}))
    raw = RawMorphism(
        {
            "b0": ("0", morphism(F.at("0"), one, {"w": "w"})),
            "b1": ("0", morphism(F.at("0"), one, {"w": "w"})),
        }
    )
    pm = straighten(F, G, raw)
    assert is_pre_morphism(F, G, pm.alpha, pm.phi)
    assert F.shape.lt(pm.alpha["b0"], pm.alpha["b1"])


def test_straighten_randomized_round_trip():
    rng = random.Random(37)
    for _ in range(25):
        ok, detail = PROPERTIES["straighten_round_trip"](rng, 5, 3)
        assert ok, detail


def test_straighten_truncation_exhausted():
    F = chain_tower()
    one = BaseObject(("w",))
    ch2 = FinPoset.make(("b0", "b1"), [("b0", "b1")])
    G = ProObject(Diagram.make(ch2, {"b0": one, "b1": one}, {("b1", "b0"): identity(one)}))
    top_map = morphism(F.at("3"), one, {"u": "w", "v": "w"})
    raw = RawMorphism({"b0": ("3", top_map), "b1": ("3", top_map)})
    with pytest.raises(TruncationExhausted):
        straighten(F, G, raw)


def test_dominate_comparable_pair_returns_upper():
    F = chain_tower()
    one = BaseObject(("w",))
    G = point_tower(one)
    p = PreMorphism({"b": "0"}, {"phi": {"b": identity(one)}})
    q = PreMorphism({"b": "2"}, {"phi": {"b": morphism(F.at("2"), one, {"u": "w", "v": "w"})}})
    r = dominate(F, G, p, q)
    assert pm_leq(F, p, r) and pm_leq(F, q, r)


def test_dominate_equal_inputs_returns_same():
    F = chain_tower()
    one = BaseObject(("w",))
    G = point_tower(one)
    p = PreMorphism({"b": "0"}, {"phi": {"b": identity(one)}})
    r = dominate(F, G, p, p)
    assert r == p


def test_dominate_not_colim_equal():
    F = chain_tower()
    two = BaseObject(("z1", "z2"))
    G = point_tower(two)
    p = PreMorphism({"b": "2"}, {"phi": {"b": morphism(F.at("2"), two, {"u": "z1", "v": "z2"})}})
    q = PreMorphism({"b": "2"}, {"phi": {"b": morphism(F.at("2"), two, {"u": "z2", "v": "z1"})}})
    with pytest.raises(ProCalcError, match="not colim-equal"):
        dominate(F, G, p, q)


def test_dominate_randomized_bounds():
    rng = random.Random(43)
    for _ in range(25):
        ok, detail = PROPERTIES["dominate_bounds"](rng, 5, 3)
        assert ok, detail


def test_connected_component_check():
    F = chain_tower()
    one = BaseObject(("w",))
    G = point_tower(one)
    p = PreMorphism({"b": "0"}, {"phi": {"b": identity(one)}})
    q = PreMorphism({"b": "2"}, {"phi": {"b": morphism(F.at("2"), one, {"u": "w", "v": "w"})}})
    assert connected_component_directed_check(F, G, [p])
    assert connected_component_directed_check(F, G, [p, q])
    two = BaseObject(("z1", "z2"))
    G2 = point_tower(two)
    p2 = PreMorphism({"b": "2"}, {"phi": {"b": morphism(F.at("2"), two, {"u": "z1", "v": "z2"})}})
    q2 = PreMorphism({"b": "2"}, {"phi": {"b": morphism(F.at("2"), two, {"u": "z2", "v": "z1"})}})
    assert not connected_component_directed_check(F, G2, [p2, q2])


def test_pre_morphism_json_round_trip():
    rng = random.Random(61)
    for _ in range(40):
        F = random_pro_object(rng, 4, 3)
        G, pm = random_pre_morphism(rng, F)
        assert pre_morphism_from_json(pre_morphism_to_json(pm), F, G) == pm


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_pro_object_json_round_trip(seed):
    F = random_pro_object(random.Random(seed), 4, 3)
    assert pro_object_from_json({"diagram": diagram_to_json(F.diagram)}) == F


def test_tower_height_cap_key_is_ignored():
    # a tower's finite directed shape is its own truncation, so a
    # "height_cap" key is one more ignored key, whatever its value
    document = {"diagram": diagram_to_json(chain_tower().diagram)}
    F = pro_object_from_json(document)
    for cap in ("x", 1.5, True, None, [1], 0):
        assert pro_object_from_json({**document, "height_cap": cap}) == F


def test_pm_laws_on_arrow_pre_morphisms_over_any_poset():
    # restriction, the order, composition and identity read only the
    # families' source diagrams, so they hold for maps of arrow objects over
    # posets that are not directed, where no ProObject exists
    rng = random.Random(71)
    undirected = moved = reassigned = 0
    for _ in range(100):
        f = random_nattrans(rng, random_poset(rng, 6), 2)
        undirected += not is_directed_poset(f.shape)
        t, pm = random_arrow_pre_morphism(rng, f)
        refined = refine_arrow_pre_morphism(rng, f, t, pm)
        moved += refined.alpha != pm.alpha
        sources = {"phi": f.source, "psi": f.target}
        assert restrict(pm, pm.alpha, sources) == pm
        assert pm_leq(sources, pm, refined)
        # a psi component reassigned through the checked constructor: the
        # order reads both families, not phi alone
        movable = [(b, m) for b, m in refined.psi.items() if m.source.carrier and len(m.target.carrier) > 1]
        if movable:
            b, m = movable[0]
            x = m.source.carrier[0]
            other = next(y for y in m.target.carrier if y != m(x))
            psi = {**refined.psi, b: BaseMorphism(m.source, m.target, {**m.mapping, x: other})}
            assert not pm_leq(sources, pm, PreMorphism(refined.alpha, {"phi": refined.phi, "psi": psi}))
            reassigned += 1
        assert pm_compose(pm, pm_identity(sources)) == pm
        assert pm_compose(pm_identity({"phi": t.source, "psi": t.target}), pm) == pm
        w, pm2 = random_arrow_pre_morphism(rng, t)
        check_arrow_pre_morphism(pm_compose(pm2, pm), f, w)
    assert undirected >= 30 and moved >= 10 and reassigned >= 90
