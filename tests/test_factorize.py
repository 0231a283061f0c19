import random
from collections import Counter

import pytest

from profact.base import TARGET_TAG, BaseMorphism, BaseObject, compose, factorize_base, identity, morphism
from profact import diagrams
from profact.diagrams import Diagram, NatTrans, PartialDiagram, is_levelwise, is_special
from profact.factorize import (
    FactorizeError,
    PreMorphism,
    ReedyFactorization,
    chi_construct,
    functorial_factorization_pro,
    reedy,
    verify_chi,
)
from profact.poset import FinPoset, Reysha
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
        for reysha in nt.shape.reyshas():
            sub = reedy(nt.restrict(reysha))
            for x in reysha.members:
                assert full.mid.at(x) == sub.mid.at(x)
                assert full.left.at(x) == sub.left.at(x)
                assert full.right.at(x) == sub.right.at(x)


def test_verify_with_a_fresh_memo_gives_the_report():
    # reedy verifies through its construction's memo of f.target; a fresh
    # memo takes every limit of f.target and every fiber's map again
    rng = random.Random(181)
    for _ in range(50):
        nt = random_nattrans(rng, random_poset(rng, 5), 3)
        rf = reedy(nt)
        assert rf.verify(PartialDiagram.of(nt.target)) == rf.report


def test_a_shared_target_memo_keeps_each_walks_verdict():
    # the memo holds the target's matching limits and its fibers' maps into
    # them, which depend on the target alone: a walk of one transformation
    # into it cannot hand a verdict to a walk of another
    rng = random.Random(182)
    verdicts = Counter()
    for _ in range(50):
        nt = random_nattrans(rng, random_poset(rng, 5), 3)
        special = reedy(nt).right
        expected = is_special(nt, "M")
        verdicts[expected] += 1
        memo = PartialDiagram.of(nt.target)
        assert is_special(special, "M", target=memo)
        assert is_special(nt, "M", target=memo) == expected
        memo = PartialDiagram.of(nt.target)
        assert is_special(nt, "M", target=memo) == expected
        assert is_special(special, "M", target=memo)
    assert verdicts[True] and verdicts[False]


def test_mid_object_cardinality_two_chain():
    f = chain_arrow()
    rf = reedy(f)
    # at the top the mid object is the source fiber plus the pullback carrier
    pullback_size = len(rf.details["1"].pullback[0])
    assert len(rf.mid.at("1")) == len(f.source.at("1")) + pullback_size


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
    chim = chi_construct(f, f, pm, rf, rf)
    for x in f.shape.elements:
        assert chim.chi[x] == identity(rf.mid.at(x))


def test_chi_rectangles_randomized():
    rng = random.Random(23)
    for _ in range(15):
        f = random_nattrans(rng, random_poset(rng, 4), 3)
        t, pm = random_arrow_pre_morphism(rng, f)
        rf_f, rf_t = reedy(f), reedy(t)
        chim = chi_construct(f, t, pm, rf_f, rf_t)
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
        lo = chi_construct(f, t, pm, rf_f, rf_t)
        hi = chi_construct(f, t, pm2, rf_f, rf_t)
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
    t = f.restrict(Reysha(f.shape, ("0",)))
    pm = PreMorphism(
        {"0": "0"}, {"phi": {"0": identity(f.source.at("0"))}, "psi": {"0": identity(f.target.at("0"))}}
    )
    pm2 = PreMorphism(
        {"0": "1"}, {"phi": {"0": f.source.arrow("1", "0")}, "psi": {"0": f.target.arrow("1", "0")}}
    )
    rf_f, rf_t = reedy(f), reedy(t)
    lo = chi_construct(f, t, pm, rf_f, rf_t)
    hi = chi_construct(f, t, pm2, rf_f, rf_t)
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
    with pytest.raises(FactorizeError):
        chi_construct(f, f, pm)


def test_chi_against_another_arrows_factorization_has_no_induced_map():
    # pm is a pre-morphism into t, but the factorization handed in is that
    # of another arrow t2 over the same shape: its matching pullbacks do not
    # receive psi, so the map k between the pullbacks does not exist
    rng = random.Random(5)
    for _ in range(20):
        f = random_nattrans(rng, random_poset(rng, 3), 3)
        t, pm = random_arrow_pre_morphism(rng, f)
        t2 = random_nattrans(rng, t.shape, 3)
        with pytest.raises(FactorizeError, match="induced pullback map undefined at"):
            chi_construct(f, t, pm, reedy(f), reedy(t2))


def test_functorial_factorization_single_arrow():
    f = chain_arrow()
    rf, rf_t, chim = functorial_factorization_pro(f)
    assert rf_t is None and chim is None
    assert all(rf.report.values())


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
            maps += [*step.limit[1].values(), *step.pullback[1:], step.into_pullback]
        for m in maps:
            assert BaseMorphism(m.source, m.target, dict(m.mapping)) == m


def test_verify_shares_only_the_input_target_limits(monkeypatch):
    # the construction takes every limit of the middle diagram and of
    # f.target; verify takes the middle ones again and reuses f.target's
    rng = random.Random(59)
    inputs = [random_nattrans(rng, random_poset(rng, 5), 3) for _ in range(10)]
    limit_over_poset = diagrams.limit_over_poset
    calls = []
    monkeypatch.setattr(diagrams, "limit_over_poset", lambda d: calls.append(d) or limit_over_poset(d))
    for f in inputs:
        calls.clear()
        rf = reedy(f)
        assert all(rf.report.values())
        strict = {f.shape.strict_downset(x) for x in f.shape.elements}
        # the empty strict downset has no fiber to tell the diagrams apart
        assert sum(1 for d in calls if not d.shape.elements) == 3
        layers = Counter(
            (d.shape.elements, "target" if d.at(d.shape.elements[0]) is f.target.at(d.shape.elements[0]) else "mid")
            for d in calls
            if d.shape.elements
        )
        assert layers == Counter({(s, "mid"): 2 for s in strict if s} | {(s, "target"): 1 for s in strict if s})
