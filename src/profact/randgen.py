"""Seeded random generators for posets, diagrams, transformations and
pre-morphisms.

Everything here is driven by a caller-supplied random.Random, so identical
seeds give identical structures.  Diagrams and transformations are built in
degree order by choosing random maps into the appropriate (matching) limit,
which makes functoriality and naturality hold by construction.  The
constructors re-check them, except where diagrams.reindex restricts a
structure along the index map it has checked.
"""

from __future__ import annotations

import random

from .base import BaseMorphism, BaseObject, compose
from .diagrams import Diagram, NatTrans, attach, cone_into_limit, limit_over_poset, matching_limit, matching_pullback
from .diagrams import reindex, reindex_nattrans
from .factorize import PreMorphism, check_arrow_pre_morphism
from .poset import FinPoset
from .procalc import ProObject, RawMorphism, restrict


def random_poset(rng: random.Random, max_elems: int) -> FinPoset:
    n = rng.randint(1, max_elems)
    elements = tuple(f"e{i}" for i in range(n))
    pairs = [
        (elements[i], elements[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.45
    ]
    return FinPoset.make(elements, pairs)


def random_subposet(rng: random.Random, poset: FinPoset) -> tuple[FinPoset, dict[str, str]]:
    """A nonempty induced subposet together with the inclusion index map."""
    size = rng.randint(1, len(poset.elements))
    members = sorted(rng.sample(poset.elements, size), key=poset.index)
    sub = poset.restrict(members)
    return sub, {x: x for x in members}


def random_object(rng: random.Random, max_size: int, prefix: str) -> BaseObject:
    return BaseObject(tuple(f"{prefix}{i}" for i in range(rng.randint(1, max_size))))


def random_map(rng: random.Random, source: BaseObject, target: BaseObject) -> BaseMorphism:
    if source.carrier and not target.carrier:
        raise ValueError("no map into an empty target from a nonempty source")
    return BaseMorphism(
        source, target, {x: rng.choice(target.carrier) for x in source.carrier}
    )


def random_injection(rng: random.Random, source: BaseObject, target: BaseObject) -> BaseMorphism:
    values = rng.sample(target.carrier, len(source.carrier))
    return BaseMorphism(source, target, dict(zip(source.carrier, values)))


def _estimated_cost_ok(shape: FinPoset, fiber_sizes: dict[str, int]) -> bool:
    """Whether a cheap upper bound on the intermediate limit sizes the Reedy
    construction would see over this shape stays within 20000, so that
    pathological antichain-heavy inputs are resampled, not ground through."""
    bound: dict[str, int] = {}
    for x in shape.in_degree_order():
        strict = shape.strict_downset(x)
        maximal = [s for s in strict if not any(shape.lt(s, s2) for s2 in strict)]
        lim = 1
        for m in maximal:
            lim *= bound[m]
        if lim > 20000:
            return False
        bound[x] = fiber_sizes[x] + lim * fiber_sizes[x] + 1
    return True


def random_diagram(
    rng: random.Random, shape: FinPoset, max_fiber: int, prefix: str = "d"
) -> Diagram:
    """Random functor: each fiber maps randomly into the limit of the part
    already built below it."""
    built = Diagram(shape, {}, {})
    for x in shape.in_degree_order():
        lim_obj, projections = matching_limit(built, x)
        size = rng.randint(1, max_fiber) if lim_obj.carrier else 0
        fiber = BaseObject(tuple(f"{prefix}{x}_{i}" for i in range(size)))
        into = random_map(rng, fiber, lim_obj) if fiber.carrier else BaseMorphism(fiber, lim_obj, {})
        attach(built, x, fiber, into, projections)
    return Diagram.make(shape, built.objects, built.arrows)


def random_nattrans(rng: random.Random, shape: FinPoset, max_fiber: int) -> NatTrans:
    """Random transformation: target first, then the source jointly with
    the components via random maps into the matching pullbacks."""
    while True:
        target = random_diagram(rng, shape, max_fiber, prefix="y")
        if _estimated_cost_ok(shape, {x: len(target.at(x)) for x in shape.elements}):
            break
    built = Diagram(shape, {}, {})
    components: dict[str, BaseMorphism] = {}
    for x in shape.in_degree_order():
        carrier, projections = matching_pullback(built, components, target, x)
        # the draws index the pullback fiber-major: its rows sorted stably
        # by their element of target(x)
        position = {d: i for i, d in enumerate(target.at(x).carrier)}
        to_target = projections[x].mapping
        rows = sorted(carrier.carrier, key=lambda p: position[to_target[p]])
        size = rng.randint(1, max_fiber) if rows else 0
        fiber = BaseObject(tuple(f"x{x}_{i}" for i in range(size)))
        into = BaseMorphism(fiber, carrier, {e: rng.choice(rows) for e in fiber.carrier})
        attach(built, x, fiber, into, projections)
        components[x] = compose(projections[x], into)
    source = Diagram.make(shape, built.objects, built.arrows)
    return NatTrans.make(source, target, components)


def junk_extend(
    rng: random.Random, source: Diagram, max_junk: int = 2, prefix: str = "n"
) -> tuple[Diagram, NatTrans]:
    """A random natural transformation out of a fixed source: each target
    fiber is the source fiber plus freshly chosen junk mapped into the
    limit of the part below."""
    shape = source.shape
    built = Diagram(shape, {}, {})
    components: dict[str, BaseMorphism] = {}
    for b in shape.in_degree_order():
        limit = matching_limit(built, b)
        junk_size = rng.randint(0, max_junk) if limit[0].carrier else 0
        originals = tuple("o:" + x for x in source.at(b).carrier)
        junk = tuple(f"{prefix}:{i}" for i in range(junk_size))
        fiber = BaseObject(originals + junk)
        components[b] = BaseMorphism(
            source.at(b), fiber, {x: "o:" + x for x in source.at(b).carrier}
        )
        # an original goes where its image below goes; a junk element anywhere
        legs = {s: compose(components[s], source.arrow(b, s)) for s in shape.strict_downset(b)}
        families = cone_into_limit(source.at(b), legs, limit).mapping
        into = {"o:" + x: families[x] for x in source.at(b).carrier}
        into.update({j: rng.choice(limit[0].carrier) for j in junk})
        attach(built, b, fiber, BaseMorphism(fiber, limit[0], into), limit[1])
    extended = Diagram.make(shape, built.objects, built.arrows)
    return extended, NatTrans.make(source, extended, components)


def pushout_diagram(
    into_left: NatTrans, into_right: NatTrans
) -> tuple[Diagram, NatTrans, NatTrans]:
    """The levelwise pushout of a span of transformations, with the two
    canonical inclusions."""
    if into_left.source is not into_right.source and into_left.source != into_right.source:
        raise ValueError("span legs must share a source")
    shape = into_left.shape
    left, right = into_left.target, into_right.target
    classes: dict[str, dict[str, str]] = {}
    objects: dict[str, BaseObject] = {}
    for b in shape.elements:
        tagged = ["l:" + x for x in left.at(b).carrier] + ["r:" + y for y in right.at(b).carrier]
        parent = {t: t for t in tagged}

        def find(t):
            while parent[t] != t:
                parent[t] = parent[parent[t]]
                t = parent[t]
            return t

        for e in into_left.source.at(b).carrier:
            a, c = find("l:" + into_left.at(b)(e)), find("r:" + into_right.at(b)(e))
            if a != c:
                parent[a] = c
        label: dict[str, str] = {}
        for t in tagged:
            root = find(t)
            if root not in label:
                label[root] = f"q{len(label)}"
        classes[b] = {t: label[find(t)] for t in tagged}
        objects[b] = BaseObject(tuple(dict.fromkeys(classes[b][t] for t in tagged)))
    legs = (("l:", left), ("r:", right))
    arrows: dict[tuple[str, str], BaseMorphism] = {}
    for b, b2 in shape.strict_pairs():
        mapping: dict[str, str] = {}
        for tag, leg in legs:
            for x in leg.at(b).carrier:
                value = classes[b2][tag + leg.arrow(b, b2)(x)]
                if mapping.setdefault(classes[b][tag + x], value) != value:
                    raise ValueError("pushout arrow ill-defined")
        arrows[(b, b2)] = BaseMorphism(objects[b], objects[b2], mapping)
    pushout = Diagram.make(shape, objects, arrows)
    in_left, in_right = (
        NatTrans.make(
            leg,
            pushout,
            {
                b: BaseMorphism(leg.at(b), objects[b], {x: classes[b][tag + x] for x in leg.at(b).carrier})
                for b in shape.elements
            },
        )
        for tag, leg in legs
    )
    return pushout, in_left, in_right


def random_arrow_pre_morphism(rng: random.Random, f: NatTrans) -> tuple[NatTrans, PreMorphism]:
    """A random target arrow object plus a valid pre-morphism from f to it.

    The index map is a random subposet inclusion; the top layer is a junk
    extension of the reindexed source; the bottom layer is a junk extension
    of the pushout, which makes the square commute by construction.
    """
    b_shape, alpha = random_subposet(rng, f.shape)
    f_alpha = reindex_nattrans(f, alpha, b_shape)
    top_diagram, phi = junk_extend(rng, f_alpha.source, prefix="k")
    pushed, in_top, in_bottom = pushout_diagram(phi, f_alpha)
    bottom_diagram, theta = junk_extend(rng, pushed, prefix="g")
    t = NatTrans.make(
        top_diagram,
        bottom_diagram,
        {b: compose(theta.at(b), in_top.at(b)) for b in b_shape.elements},
    )
    pm = PreMorphism(
        dict(alpha),
        {
            "phi": {b: phi.at(b) for b in b_shape.elements},
            "psi": {b: compose(theta.at(b), in_bottom.at(b)) for b in b_shape.elements},
        },
    )
    check_arrow_pre_morphism(pm, f, t)
    return t, pm


def _refined_alpha(
    rng: random.Random, a_shape: FinPoset, b_shape: FinPoset, alpha: dict[str, str]
) -> dict[str, str]:
    """A random strictly increasing index map at or above alpha, drawn in
    degree order; alpha itself when eight attempts all reach an element
    with nothing eligible."""
    for _ in range(8):
        refined: dict[str, str] = {}
        for b in b_shape.in_degree_order():
            eligible = [
                a
                for a in a_shape.upset(alpha[b])
                if all(a_shape.lt(refined[b2], a) for b2 in b_shape.strict_downset(b))
            ]
            if not eligible:
                break
            refined[b] = rng.choice(eligible)
        else:
            return refined
    return dict(alpha)


def refine_arrow_pre_morphism(
    rng: random.Random, f: NatTrans, t: NatTrans, pm: PreMorphism
) -> PreMorphism:
    """A pre-morphism above pm: the index map moves up and the components
    factor through the restriction arrows."""
    alpha = _refined_alpha(rng, f.shape, t.shape, pm.alpha)
    refined = restrict(pm, alpha, {"phi": f.source, "psi": f.target})
    check_arrow_pre_morphism(refined, f, t)
    return refined


def _with_top(poset: FinPoset) -> FinPoset:
    """poset with the maximum "etop" adjoined, hence directed."""
    return FinPoset.make(
        poset.elements + ("etop",), list(poset.le_pairs) + [(x, "etop") for x in poset.elements]
    )


def random_directed_poset(rng: random.Random, max_elems: int) -> FinPoset:
    """A random poset with a maximum adjoined, hence directed."""
    return _with_top(random_poset(rng, max(1, max_elems - 1)))


def random_pro_object(rng: random.Random, max_elems: int, max_fiber: int) -> ProObject:
    shape = random_directed_poset(rng, max_elems)
    diagram = random_diagram(rng, shape, max_fiber, prefix="f")
    return ProObject(diagram)


def random_pre_morphism(
    rng: random.Random, F: ProObject, max_junk: int = 2
) -> tuple[ProObject, PreMorphism]:
    """A random target tower and a valid pre-morphism from F to it."""
    b_shape, alpha = random_subposet(rng, F.shape)
    # a subposet of a directed poset need not be directed; keep the maximum
    if "etop" not in b_shape:
        b_shape = _with_top(b_shape)
        alpha = dict(alpha)
        alpha["etop"] = "etop"
    reindexed = reindex(F.diagram, alpha, b_shape)
    target, theta = junk_extend(rng, reindexed, max_junk, prefix="g")
    G = ProObject(target)
    pm = PreMorphism(dict(alpha), {"phi": {b: theta.at(b) for b in b_shape.elements}})
    return G, pm


def refine_pre_morphism(
    rng: random.Random, F: ProObject, G: ProObject, pm: PreMorphism
) -> PreMorphism:
    return restrict(pm, _refined_alpha(rng, F.shape, G.shape, pm.alpha), F)


def random_special_problem(rng: random.Random, poset_max: int, set_max: int):
    """A solvable lifting problem: an injection against the special
    surjective part of a random factorization, with cones drawn from the
    limits of the two layers."""
    from .factorize import reedy
    from .lifting import LiftingProblem

    shape = random_poset(rng, poset_max)
    nt = random_nattrans(rng, shape, set_max)
    rf = reedy(nt)
    special = rf.right
    lim_mid = limit_over_poset(rf.mid)
    lim_tgt = limit_over_poset(nt.target)
    a_size = rng.randint(0, 2) if lim_mid[0].carrier else 0
    extra = rng.randint(0, 2) if lim_tgt[0].carrier else 0
    A = BaseObject(tuple(f"a{i}" for i in range(a_size)))
    B = BaseObject(tuple(f"b{i}" for i in range(a_size + extra)))
    g = BaseMorphism(A, B, {f"a{i}": f"b{i}" for i in range(a_size)})
    anchor = {x: rng.choice(lim_mid[0].carrier) for x in A.carrier}
    free = {b: rng.choice(lim_tgt[0].carrier) for b in B.carrier[a_size:]}
    top = {}
    bottom = {}
    for t in shape.elements:
        top[t] = BaseMorphism(A, rf.mid.at(t), {x: lim_mid[1][t](anchor[x]) for x in A.carrier})
        mapping = {f"b{i}": special.at(t)(top[t](f"a{i}")) for i in range(a_size)}
        mapping.update({b: lim_tgt[1][t](free[b]) for b in B.carrier[a_size:]})
        bottom[t] = BaseMorphism(B, nt.target.at(t), mapping)
    return LiftingProblem(g, special, top, bottom)


def random_raw_morphism(
    rng: random.Random, F: ProObject, G: ProObject, pm: PreMorphism
) -> RawMorphism:
    """Scramble a valid pre-morphism into raw representative data by
    re-indexing each component independently (no monotonicity kept)."""
    alpha = {b: rng.choice(F.shape.upset(pm.alpha[b])) for b in G.shape.elements}
    moved = restrict(pm, alpha, F)
    return RawMorphism({b: (a, moved.phi[b]) for b, a in alpha.items()})
