import dataclasses
import itertools
import random
from collections import Counter

import pytest

from conftest import all_maps
from profact.base import TARGET_TAG, BaseMorphism, BaseObject, compose, factorize_base, identity, lift_base, morphism
from profact import diagrams, factorize
from profact.diagrams import (
    Diagram,
    NatTrans,
    cone_into_limit,
    is_levelwise,
    is_special,
    matching_pullback,
    reindex_nattrans,
)
from profact.factorize import (
    FactorizeError,
    PreMorphism,
    ReedyFactorization,
    chi_construct,
    functorial_factorization_pro,
    reedy,
    verify_chi,
)
from profact.lifting import LiftingProblem, lift_against_special
from profact.poset import FinPoset
from profact.randgen import (
    random_arrow_pre_morphism,
    random_nattrans,
    random_poset,
    refine_arrow_pre_morphism,
)
from profact.report import PROPERTIES


def vee_identity():
    v = FinPoset.make(("x0", "x1", "t"), [("x0", "t"), ("x1", "t")])
    ab = BaseObject(("a", "b"))
    const = Diagram.make(
        v,
        {x: ab for x in v.elements},
        {(x, y): identity(ab) for x in v.elements for y in v.elements if v.le(y, x)},
    )
    return NatTrans.make(const, const, {x: identity(ab) for x in v.elements})


def chain_arrow():
    ch = FinPoset.make(("0", "1"), [("0", "1")])
    e1, e0 = BaseObject(("e",)), BaseObject(("e0",))
    f1, f0 = BaseObject(("y1",)), BaseObject(("y0",))
    src = Diagram.make(ch, {"1": e1, "0": e0}, {("1", "0"): morphism(e1, e0, {"e": "e0"})})
    tgt = Diagram.make(ch, {"1": f1, "0": f0}, {("1", "0"): morphism(f1, f0, {"y1": "y0"})})
    return NatTrans.make(
        src, tgt, {"1": morphism(e1, f1, {"e": "y1"}), "0": morphism(e0, f0, {"e0": "y0"})}
    )


def test_reedy_on_single_point_equals_base_factorization():
    pt = FinPoset.make(("p",))
    x, y = BaseObject(("1", "2")), BaseObject(("z",))
    f = morphism(x, y, {"1": "z", "2": "z"})
    nt = NatTrans.make(
        Diagram.make(pt, {"p": x}), Diagram.make(pt, {"p": y}), {"p": f}
    )
    rf = reedy(nt)
    triple = factorize_base(f)
    # the matching pullback at a minimal element is the fiber itself up to
    # the positional relabeling of its carrier, so the factorization agrees
    # with the plain one modulo that renaming
    assert len(rf.mid.at("p")) == len(triple.mid)
    assert rf.left.at("p").mapping == triple.left.mapping
    assert compose(rf.right.at("p"), rf.left.at("p")) == f


def test_reedy_identity_over_vee():
    rf = reedy(vee_identity())
    assert rf.report == {
        "composite_equals_input": True,
        "left_levelwise_injective": True,
        "right_special_surjective": True,
    }


def test_reedy_invariants_randomized():
    rng = random.Random(3)
    for _ in range(40):
        nt = random_nattrans(rng, random_poset(rng, 5), 4)
        rf = reedy(nt)
        for x in nt.shape.elements:
            assert compose(rf.right.at(x), rf.left.at(x)) == nt.at(x)
        assert is_levelwise(rf.left, "N")
        assert is_special(rf.right, "M")


def test_reedy_determinism():
    rng1, rng2 = random.Random(9), random.Random(9)
    nt1 = random_nattrans(rng1, random_poset(rng1, 5), 4)
    nt2 = random_nattrans(rng2, random_poset(rng2, 5), 4)
    rf1, rf2 = reedy(nt1), reedy(nt2)
    assert rf1.mid.objects == rf2.mid.objects
    assert rf1.left.components == rf2.left.components
    assert rf1.right.components == rf2.right.components


def test_reedy_restriction_coherence_randomized():
    rng = random.Random(17)
    for _ in range(15):
        nt = random_nattrans(rng, random_poset(rng, 4), 3)
        full = reedy(nt)
        for members in nt.shape.reyshas():
            sub = reedy(reindex_nattrans(nt, {x: x for x in members}, nt.shape.restrict(members)))
            for x in members:
                assert full.mid.at(x) == sub.mid.at(x)
                assert full.left.at(x) == sub.left.at(x)
                assert full.right.at(x) == sub.right.at(x)


def test_verify_gives_the_report_without_the_construction_details():
    # verify reads the three transformations alone: dropping the
    # construction's StepData changes nothing
    rng = random.Random(181)
    for _ in range(50):
        nt = random_nattrans(rng, random_poset(rng, 5), 3)
        rf = reedy(nt)
        assert rf.verify() == rf.report
        assert ReedyFactorization(nt, rf.mid, rf.left, rf.right).verify() == rf.report


def special_bruteforce(nt):
    """Whether every pair (compatible family of the source below x, d in
    the target at x) on which the components and the target's arrows agree
    is the image of a source element, at every x: each family is found by
    walking all value tuples on the strict downset."""
    shape, source, target = nt.shape, nt.source, nt.target
    for x in shape.elements:
        below = shape.strict_downset(x)
        hit = {
            (tuple(source.arrow(x, s)(e) for s in below), nt.at(x)(e)) for e in source.at(x).carrier
        }
        for values in itertools.product(*(source.at(s).carrier for s in below)):
            family = dict(zip(below, values))
            if any(source.arrow(s, s2)(family[s]) != family[s2] for s in below for s2 in shape.strict_downset(s)):
                continue
            for d in target.at(x).carrier:
                over_d = all(nt.at(s)(family[s]) == target.arrow(x, s)(d) for s in below)
                if over_d and (values, d) not in hit:
                    return False
    return True


def test_is_special_verdicts_match_the_bruteforce_walk_both_ways():
    rng = random.Random(182)
    verdicts = Counter()
    for _ in range(50):
        nt = random_nattrans(rng, random_poset(rng, 5), 3)
        expected = special_bruteforce(nt)
        verdicts[expected] += 1
        assert is_special(nt, "M") == expected
        special = reedy(nt).right
        assert is_special(special, "M") and special_bruteforce(special)
    assert verdicts[True] and verdicts[False]


SMALL_POSETS = [
    FinPoset.make(()),
    FinPoset.make(("0",)),
    FinPoset.make(("0", "1")),
    FinPoset.make(("0", "1"), [("0", "1")]),
    FinPoset.make(("0", "1"), [("1", "0")]),
]
SMALL_FIBERS = [BaseObject(("a",)), BaseObject(("a", "b"))]


def all_diagrams(shape, fibers):
    """Every diagram over shape with the given fibers."""
    pairs = list(shape.strict_pairs())
    for fiber_choice in itertools.product(fibers, repeat=len(shape.elements)):
        objects = dict(zip(shape.elements, fiber_choice))
        for arrows in itertools.product(*(list(all_maps(objects[x], objects[y])) for x, y in pairs)):
            yield Diagram.make(shape, objects, dict(zip(pairs, arrows)))


def all_transformations(shape):
    """Every transformation over shape with fibers of one or two points."""
    layers = list(all_diagrams(shape, SMALL_FIBERS))
    for source, target in itertools.product(layers, repeat=2):
        maps = [list(all_maps(source.at(x), target.at(x))) for x in shape.elements]
        for components in itertools.product(*maps):
            components = dict(zip(shape.elements, components))
            if all(
                compose(components[y], source.arrow(x, y)) == compose(target.arrow(x, y), components[x])
                for x, y in shape.strict_pairs()
            ):
                yield NatTrans.make(source, target, components)


def relative_injective_bruteforce(nt):
    """Whether the relative matching map is injective at every x: no two
    source elements have the same values below x and the same image."""
    for x in nt.shape.elements:
        below = nt.shape.strict_downset(x)
        rows = {(tuple(nt.source.arrow(x, s)(e) for s in below), nt.at(x)(e)) for e in nt.source.at(x).carrier}
        if len(rows) != len(nt.source.at(x)):
            return False
    return True


def all_cones(apex, diagram):
    """Every compatible cone of maps apex -> diagram(t)."""
    shape = diagram.shape
    for legs in itertools.product(*(list(all_maps(apex, diagram.at(t))) for t in shape.elements)):
        cone = dict(zip(shape.elements, legs))
        if all(compose(diagram.arrow(t, s), cone[t]) == cone[s] for t, s in shape.strict_pairs()):
            yield cone


def small_squares(f):
    """Every lifting problem of an injection g: A -> B with |B| <= 2
    against f."""
    points = ("u", "v")
    for size_b in range(3):
        B = BaseObject(points[:size_b])
        bottoms = list(all_cones(B, f.target))
        for size_a in range(size_b + 1):
            A = BaseObject(tuple(f"a{i}" for i in range(size_a)))
            tops = list(all_cones(A, f.source))
            for image in itertools.permutations(points[:size_b], size_a):
                g = morphism(A, B, dict(zip(A.carrier, image)))
                for top, bottom in itertools.product(tops, bottoms):
                    if all(compose(f.at(t), top[t]) == compose(bottom[t], g) for t in f.shape.elements):
                        yield LiftingProblem(g, f, top, bottom)


def lift_reference(problem):
    """The cone of lifts taken through the full matching pullback at every
    element: the relative map and the bottom map into it through
    cone_into_limit, then lift_base."""
    f, B = problem.right, problem.left.target
    lifts = {}
    for t in f.shape.in_degree_order():
        pb = matching_pullback(f.source, f.components, f.target, t)
        below = f.shape.strict_downset(t)
        relative = cone_into_limit(f.source.at(t), {**{s: f.source.arrow(t, s) for s in below}, t: f.at(t)}, pb)
        into_pb = cone_into_limit(B, {**{s: lifts[s] for s in below}, t: problem.bottom[t]}, pb)
        lifts[t] = lift_base(problem.left, relative, problem.top[t], into_pb)
    return lifts


def test_special_walk_and_lift_on_every_small_transformation():
    # every transformation over each poset of at most two elements with
    # fibers of one or two points; for each special surjection, every
    # square of an injection into a B of at most two points
    verdicts, squares = Counter(), 0
    for shape in SMALL_POSETS:
        for nt in all_transformations(shape):
            special = special_bruteforce(nt)
            assert is_special(nt, "M") == special
            assert is_special(nt, "N") == relative_injective_bruteforce(nt)
            verdicts[special, is_special(nt, "N")] += 1
            if not special:
                continue
            for problem in small_squares(nt):
                squares += 1
                assert lift_against_special(problem).components == lift_reference(problem)
    assert all(verdicts[key] for key in itertools.product((True, False), repeat=2))
    assert sum(verdicts.values()) == 453 and squares == 2082


def test_mid_object_cardinality_two_chain():
    f = chain_arrow()
    rf = reedy(f)
    # the mid object is the source fiber plus the matching pullback: the
    # target fiber at the bottom, both middle elements over y0 at the top
    sizes = {x: len(rf.details[x].pullback[0]) for x in f.shape.elements}
    assert sizes == {"0": 1, "1": 2}
    for x in f.shape.elements:
        assert len(rf.mid.at(x)) == len(f.source.at(x)) + sizes[x]
        assert rf.details[x].pullback == matching_pullback(rf.mid, rf.right.components, f.target, x)


def test_chi_identity_pre_morphism_gives_identity():
    f = chain_arrow()
    rf = reedy(f)
    pm = PreMorphism(
        {x: x for x in f.shape.elements},
        {
            "phi": {x: identity(f.source.at(x)) for x in f.shape.elements},
            "psi": {x: identity(f.target.at(x)) for x in f.shape.elements},
        },
    )
    chim = chi_construct(pm, rf, rf)
    for x in f.shape.elements:
        assert chim.chi[x] == identity(rf.mid.at(x))


def test_chi_rectangles_randomized():
    rng = random.Random(23)
    for _ in range(15):
        f = random_nattrans(rng, random_poset(rng, 4), 3)
        t, pm = random_arrow_pre_morphism(rng, f)
        rf_f, rf_t = reedy(f), reedy(t)
        chim = chi_construct(pm, rf_f, rf_t)
        verdicts = verify_chi(chim, pm, rf_f, rf_t)
        assert all(verdicts.values()), verdicts


def test_chi_composition_randomized():
    rng = random.Random(29)
    for _ in range(10):
        ok, detail = PROPERTIES["chi_composition_law"](rng, 4, 3)
        assert ok, detail


def test_chi_monotone_pair_agrees_after_right_leg():
    # the two candidate middle maps for an ordered pair of pre-morphisms
    # always agree once composed with the surjective leg, even where they
    # differ on the nose (test_chi_monotone_counterexample_on_chain pins a
    # minimal case; docs/monotonicity.md has the analysis)
    rng = random.Random(31)
    for _ in range(20):
        f = random_nattrans(rng, random_poset(rng, 4), 3)
        t, pm = random_arrow_pre_morphism(rng, f)
        pm2 = refine_arrow_pre_morphism(rng, f, t, pm)
        rf_f, rf_t = reedy(f), reedy(t)
        lo = chi_construct(pm, rf_f, rf_t)
        hi = chi_construct(pm2, rf_f, rf_t)
        for b in pm.alpha:
            lhs = compose(rf_t.right.at(b), hi.chi[b])
            rhs = compose(
                rf_t.right.at(b),
                compose(lo.chi[b], rf_f.mid.arrow(pm2.alpha[b], pm.alpha[b])),
            )
            assert lhs == rhs


def test_chi_monotone_counterexample_on_chain():
    # the smallest ordered pair pm <= pm2 whose middle maps differ on the
    # nose: t is f over the bottom "0", pm is the identity there and pm2
    # reads it off the top "1"; "1" is the chain's top, so no further
    # refinement can reconcile them (docs/monotonicity.md)
    f = chain_arrow()
    t = reindex_nattrans(f, {"0": "0"}, f.shape.restrict(("0",)))
    pm = PreMorphism(
        {"0": "0"}, {"phi": {"0": identity(f.source.at("0"))}, "psi": {"0": identity(f.target.at("0"))}}
    )
    pm2 = PreMorphism(
        {"0": "1"}, {"phi": {"0": f.source.arrow("1", "0")}, "psi": {"0": f.target.arrow("1", "0")}}
    )
    rf_f, rf_t = reedy(f), reedy(t)
    lo = chi_construct(pm, rf_f, rf_t)
    hi = chi_construct(pm2, rf_f, rf_t)
    restricted = PreMorphism(pm2.alpha, {"chi": {"0": compose(lo.chi["0"], rf_f.mid.arrow("1", "0"))}})
    differ = {
        e: (hi.chi["0"](e), restricted.chi["0"](e))
        for e in rf_f.mid.at("1").carrier
        if hi.chi["0"](e) != restricted.chi["0"](e)
    }
    assert differ == {"t:p0": ("t:p0", "s:e0")}
    assert all(verify_chi(hi, pm2, rf_f, rf_t).values())
    assert all(verify_chi(restricted, pm2, rf_f, rf_t).values())
    right = rf_t.right.at("0")
    assert compose(right, hi.chi["0"]) == compose(right, restricted.chi["0"])


def test_chi_rejects_non_strict_index_map():
    f = chain_arrow()
    pm = PreMorphism(
        {"0": "1", "1": "1"},
        {
            "phi": {"0": morphism(f.source.at("1"), f.source.at("0"), {"e": "e0"}), "1": identity(f.source.at("1"))},
            "psi": {"0": morphism(f.target.at("1"), f.target.at("0"), {"y1": "y0"}), "1": identity(f.target.at("1"))},
        },
    )
    rf = reedy(f)
    with pytest.raises(FactorizeError):
        chi_construct(pm, rf, rf)


def test_chi_against_another_arrows_factorization_has_no_induced_map():
    # pm is a pre-morphism into t, but the factorization handed in is that
    # of another arrow t2 over the same shape.  chi_construct checks pm
    # against the arrow the factorization factors, so t2's own is refused.
    # Relabelled as t's, its matching pullbacks do not receive psi, so the
    # map k between the pullbacks does not exist
    rng = random.Random(5)
    for _ in range(20):
        f = random_nattrans(rng, random_poset(rng, 3), 3)
        t, pm = random_arrow_pre_morphism(rng, f)
        t2 = random_nattrans(rng, t.shape, 3)
        rf_f, rf_t2 = reedy(f), reedy(t2)
        with pytest.raises(FactorizeError, match="ill-typed top component at"):
            chi_construct(pm, rf_f, rf_t2)
        with pytest.raises(FactorizeError, match="induced pullback map undefined at"):
            chi_construct(pm, rf_f, dataclasses.replace(rf_t2, input=t))


def test_functorial_factorization_single_arrow():
    # each arrow's factorization in the section is the arrow's own
    rng = random.Random(7)
    for _ in range(5):
        f = random_nattrans(rng, random_poset(rng, 4), 3)
        t, pm = random_arrow_pre_morphism(rng, f)
        rf_f, rf_t, _ = functorial_factorization_pro(f, t, pm)
        assert rf_f == reedy(f) and rf_t == reedy(t)
        assert all(rf_f.report.values()) and all(rf_t.report.values())


def test_functorial_factorization_with_morphism():
    f = chain_arrow()
    pm = PreMorphism(
        {x: x for x in f.shape.elements},
        {
            "phi": {x: identity(f.source.at(x)) for x in f.shape.elements},
            "psi": {x: identity(f.target.at(x)) for x in f.shape.elements},
        },
    )
    rf_f, rf_t, chim = functorial_factorization_pro(f, f, pm)
    assert all(verify_chi(chim, pm, rf_f, rf_t).values())


def _reassigned(m, x, value):
    """m with x sent to value instead, through the checked constructor."""
    return BaseMorphism(m.source, m.target, {**m.mapping, x: value})


def _corruptions(seed, find):
    """Factorizations of random inputs and a corruption find() locates in
    each, until 20 have one."""
    rng = random.Random(seed)
    found = 0
    while found < 20:
        f = random_nattrans(rng, random_poset(rng, 4), 3)
        rf = reedy(f)
        where = find(f, rf)
        if where is not None:
            found += 1
            yield f, rf, where


def _breaks_right(f, rf):
    # a middle element outside the left map's image, sent to another value
    # that some arrow of the target tells apart, so composites still agree
    for x in f.shape.elements:
        right = rf.right.at(x)
        for s in f.shape.strict_downset(x):
            arrow = f.target.arrow(x, s)
            for e in rf.mid.at(x).carrier:
                if not e.startswith(TARGET_TAG):
                    continue
                for y in f.target.at(x).carrier:
                    if arrow(y) != arrow(right(e)):
                        return x, e, y
    return None


def _breaks_mid(f, rf):
    # one value of a middle arrow moved to an element the right map tells apart
    for x in f.shape.elements:
        for s in f.shape.strict_downset(x):
            arrow, right = rf.mid.arrow(x, s), rf.right.at(s)
            for e in rf.mid.at(x).carrier:
                for v in rf.mid.at(s).carrier:
                    if right(v) != right(arrow(e)):
                        return x, s, e, v
    return None


def test_verify_rejects_a_corrupted_right_component():
    for f, rf, (x, e, y) in _corruptions(41, _breaks_right):
        corrupted = dict(rf.right.components)
        corrupted[x] = _reassigned(rf.right.at(x), e, y)
        right = NatTrans(rf.mid, f.target, corrupted)
        # the constructor's StepData rides along; verify must not read it
        report = ReedyFactorization(f, rf.mid, rf.left, right, rf.details).verify()
        assert report["composite_equals_input"] and report["left_levelwise_injective"]
        assert not report["right_special_surjective"]


def test_verify_rejects_a_corrupted_mid_arrow():
    for f, rf, (x, s, e, v) in _corruptions(43, _breaks_mid):
        arrows = dict(rf.mid.arrows)
        arrows[(x, s)] = _reassigned(rf.mid.arrow(x, s), e, v)
        mid = Diagram(f.shape, rf.mid.objects, arrows)
        left = NatTrans(f.source, mid, rf.left.components)
        right = NatTrans(mid, f.target, rf.right.components)
        report = ReedyFactorization(f, mid, left, right, rf.details).verify()
        assert report["composite_equals_input"] and report["left_levelwise_injective"]
        assert not report["right_special_surjective"]


def test_constructed_maps_pass_the_public_checks():
    # compose, pullback and the limit maps build their results unchecked;
    # every map they put into a factorization must pass the checked
    # constructor all the same
    rng = random.Random(47)
    for _ in range(30):
        f = random_nattrans(rng, random_poset(rng, 5), 3)
        rf = reedy(f)
        maps = [*rf.mid.arrows.values(), *rf.left.components.values(), *rf.right.components.values()]
        for step in rf.details.values():
            maps += [*step.pullback[1].values(), step.into_pullback]
        for m in maps:
            assert BaseMorphism(m.source, m.target, dict(m.mapping)) == m


def test_verify_shares_nothing_with_the_construction(monkeypatch):
    # the construction takes one matching pullback per element of the
    # growing middle diagram.  verify takes its own matching data at every
    # element: a join of its own on rf.mid at each element with a strict
    # downset, a carrier and an index with no projection maps, and no
    # pullback at all at a minimal element.  Neither takes a matching limit
    rng = random.Random(59)
    inputs = [random_nattrans(rng, random_poset(rng, 5), 3) for _ in range(10)]

    def spy(module, name):
        calls = []
        original = getattr(module, name)

        def record(*args):
            calls.append((*args, original(*args)))
            return calls[-1][-1]

        monkeypatch.setattr(module, name, record)
        return calls

    def refuse(*args):
        raise AssertionError("a matching limit was taken")

    built = spy(factorize, "matching_pullback")
    joins = spy(diagrams, "_matching_join")
    assembled = spy(diagrams, "_from_columns")
    walked = spy(diagrams, "matching_data")
    monkeypatch.setattr(diagrams, "limit_over_poset", refuse)
    monkeypatch.setattr(diagrams, "_limit", refuse)
    for f in inputs:
        calls = (built, joins, assembled, walked)
        for c in calls:
            c.clear()
        rf = reedy(f)
        assert all(rf.report.values())
        order = list(f.shape.in_degree_order())
        inner = [x for x in order if f.shape.strict_downset(x)]
        # the construction's pullbacks, each assembled with its projections
        assert [c[3] for c in built] == [c[1][-1] for c in assembled] == order
        assert [c[3] for c in joins[: len(order)]] == order
        for (upper, _, lower, x, pb), assembly in zip(built, assembled):
            assert upper is not rf.mid and lower is f.target
            assert pb is rf.details[x].pullback and pb is assembly[-1]
        # verify's: its own joins on rf.mid, and no projection maps
        assert len(assembled) == len(order) and len(joins) == len(order) + len(inner)
        assert [c[1] for c in walked] == order and all(c[0] is rf.right for c in walked)
        checked = dict(zip(inner, joins[len(order) :]))
        for nt, x, (pb, relative) in walked:
            if x not in checked:
                assert pb is None and relative is rf.right.at(x)
                continue
            mid, components, target, _, columns = checked[x]
            assert mid is rf.mid and components is rf.right.components and target is f.target
            assert pb[1] == {} and pb is not rf.details[x].pullback
            assert pb[0] == rf.details[x].pullback[0] and pb.index == rf.details[x].pullback.index
            assert dict(zip(zip(*columns), pb[0].carrier)) == pb.index[1]
        # the report again, read off the finished factorization alone
        for c in calls:
            c.clear()
        assert rf.verify() == rf.report
        assert not built and not assembled
        assert [c[3] for c in joins] == inner and all(c[0] is rf.mid for c in joins)
        assert [c[1] for c in walked] == order
