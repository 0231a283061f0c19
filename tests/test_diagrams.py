import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profact.base import TERMINAL, BaseObject, identity, is_in_m, is_in_n, morphism, pullback
from profact.diagrams import (
    Diagram,
    DiagramError,
    NatTrans,
    NotSpecial,
    attach,
    cone_into_limit,
    is_levelwise,
    is_special,
    limit_map,
    limit_over_poset,
    matching_data,
    matching_limit,
    matching_pullback,
    special_matching_data,
)
from profact.lifting import LiftingError, LiftingProblem, lift_against_special
from profact.poset import FinPoset, Reysha
from profact.randgen import random_diagram, random_nattrans, random_poset
from profact.serialize import nattrans_from_json, nattrans_to_json


def vee():
    return FinPoset.make(("x0", "x1", "t"), [("x0", "t"), ("x1", "t")])


def constant_diagram(shape, fiber):
    return Diagram.make(
        shape,
        {x: fiber for x in shape.elements},
        {(x, y): identity(fiber) for x in shape.elements for y in shape.elements if shape.le(y, x)},
    )


def test_diagram_validates_functoriality():
    chain = FinPoset.make(("a", "b", "c"), [("a", "b"), ("b", "c")])
    ab = BaseObject(("1", "2"))
    swap = morphism(ab, ab, {"1": "2", "2": "1"})
    with pytest.raises(DiagramError):
        Diagram.make(
            chain,
            {x: ab for x in chain.elements},
            {("c", "b"): identity(ab), ("b", "a"): identity(ab), ("c", "a"): swap},
        )


def test_diagram_missing_arrow_rejected():
    chain = FinPoset.make(("a", "b"), [("a", "b")])
    ab = BaseObject(("1",))
    with pytest.raises(DiagramError):
        Diagram.make(chain, {x: ab for x in chain.elements}, {})


def test_nattrans_validates_naturality():
    shape = FinPoset.make(("a", "b"), [("a", "b")])
    ab = BaseObject(("1", "2"))
    const = constant_diagram(shape, ab)
    swap = morphism(ab, ab, {"1": "2", "2": "1"})
    with pytest.raises(DiagramError):
        NatTrans.make(const, const, {"a": identity(ab), "b": swap})


def limit_bruteforce(diagram):
    """Independent oracle: enumerate all compatible families directly."""
    shape = diagram.shape
    families = []
    for values in itertools.product(*(diagram.at(x).carrier for x in shape.elements)):
        family = dict(zip(shape.elements, values))
        if all(
            diagram.arrow(x, y)(family[x]) == family[y]
            for x in shape.elements
            for y in shape.elements
            if shape.lt(y, x)
        ):
            families.append(family)
    return families


def test_limit_over_vee_matches_bruteforce():
    ab = BaseObject(("a", "b"))
    diagram = constant_diagram(vee(), ab)
    lim, proj = limit_over_poset(diagram)
    realized = [{x: proj[x](e) for x in vee().elements} for e in lim.carrier]
    oracle = limit_bruteforce(diagram)
    assert sorted(realized, key=str) == sorted(oracle, key=str)
    assert len(lim) == 2


def test_limit_over_random_diagrams_matches_bruteforce():
    rng = random.Random(5)
    for _ in range(20):
        diagram = random_diagram(rng, random_poset(rng, 4), 3)
        lim, proj = limit_over_poset(diagram)
        realized = [{x: proj[x](e) for x in diagram.shape.elements} for e in lim.carrier]
        assert sorted(realized, key=str) == sorted(limit_bruteforce(diagram), key=str)


def test_limit_of_empty_shape_is_terminal():
    empty = Diagram.make(FinPoset.make(()), {}, {})
    lim, proj = limit_over_poset(empty)
    assert len(lim) == 1
    assert proj == {}


def test_limit_map_rejects_incompatible_components():
    shape = FinPoset.make(("a",))
    one = BaseObject(("1",))
    two = BaseObject(("1", "2"))
    d_one = constant_diagram(shape, one)
    d_two = constant_diagram(shape, two)
    lim_one = limit_over_poset(d_one)
    lim_two = limit_over_poset(d_two)
    f = limit_map(lim_one, lim_two, {"a": morphism(one, two, {"1": "2"})})
    assert lim_two[1]["a"](f(lim_one[0].carrier[0])) == "2"


def test_levelwise_predicates():
    ab = BaseObject(("a", "b"))
    const = constant_diagram(vee(), ab)
    ident = NatTrans.make(const, const, {x: identity(ab) for x in vee().elements})
    assert is_levelwise(ident, "N")
    assert is_levelwise(ident, "M")


def test_identity_is_special():
    ab = BaseObject(("a", "b"))
    const = constant_diagram(vee(), ab)
    ident = NatTrans.make(const, const, {x: identity(ab) for x in vee().elements})
    assert is_special(ident, "M")


def test_relative_matching_map_at_minimal_element_is_component():
    ab = BaseObject(("a", "b"))
    const = constant_diagram(vee(), ab)
    ident = NatTrans.make(const, const, {x: identity(ab) for x in vee().elements})
    pb, rel = matching_data(ident, "x0")
    # the strict downset is empty, so the matching pullback is the fiber:
    # none is built, and the relative map is the component itself
    assert pb is None and rel is ident.at("x0")
    assert is_in_n(rel) and is_in_m(rel)


def test_special_can_fail_while_levelwise_holds():
    # constant source, target collapsing down the chain: every component is
    # surjective, but at the top the matching pullback contains all four
    # pairs while the relative matching map only reaches the diagonal
    chain = FinPoset.make(("0", "1"), [("0", "1")])
    ab = BaseObject(("a", "b"))
    one = BaseObject(("z",))
    src = Diagram.make(chain, {"0": ab, "1": ab}, {("1", "0"): identity(ab)})
    tgt = Diagram.make(chain, {"0": one, "1": ab}, {("1", "0"): morphism(ab, one, {"a": "z", "b": "z"})})
    nt = NatTrans.make(
        src,
        tgt,
        {"1": identity(ab), "0": morphism(ab, one, {"a": "z", "b": "z"})},
    )
    assert is_levelwise(nt, "M")
    assert not is_special(nt, "M")


def test_matching_data_over_random_transformations():
    rng = random.Random(12)
    for _ in range(10):
        nt = random_nattrans(rng, random_poset(rng, 4), 3)
        for x in nt.shape.elements:
            pb, relative = matching_data(nt, x)
            below = nt.shape.strict_downset(x)
            if not below:
                assert pb is None and relative is nt.at(x)
                continue
            # a carrier and an index, and no projection maps
            (carrier, projections), (order, families) = pb, pb.index
            assert projections == {} and order == (*below, x)
            assert relative.source == nt.source.at(x) and relative.target == carrier
            assert sorted(families.values(), key=carrier.carrier.index) == list(carrier.carrier)
            rows = {p: key for key, p in families.items()}
            for e in nt.source.at(x).carrier:
                assert rows[relative(e)] == (*(nt.source.arrow(x, s)(e) for s in below), nt.at(x)(e))


def induced_into_pullback(pb, to_f_source, to_g_source):
    """The canonical map into a pullback from a compatible span: each w
    goes to the point over (to_f_source(w), to_g_source(w))."""
    carrier, proj_f, proj_g = pb
    lookup = {(proj_f(p), proj_g(p)): p for p in carrier.carrier}
    source = to_f_source.source
    return morphism(source, carrier, {w: lookup[to_f_source(w), to_g_source(w)] for w in source.carrier})


def test_induced_into_pullback():
    x = BaseObject(("x1", "x2"))
    z = BaseObject(("z",))
    f = morphism(x, z, {"x1": "z", "x2": "z"})
    pb = pullback(f, f)
    diagonal = induced_into_pullback(pb, identity(x), identity(x))
    carrier, proj_f, proj_g = pb
    for e in x.carrier:
        assert proj_f(diagonal(e)) == e
        assert proj_g(diagonal(e)) == e


def pullback_reference(nt, x):
    """The matching pullback at x as the old path took it: the whole
    matching limit of the source, the map of limits into the target's, then
    the pullback against the target fiber's map into its matching limit.
    Returns its carrier ids, each id's row (family's values below x, d),
    and each source element's row under the relative map."""
    below = Reysha(nt.shape, nt.shape.strict_downset(x))
    source_limit = limit_over_poset(nt.source.restrict(below))
    target_limit = limit_over_poset(nt.target.restrict(below))
    legs = {s: nt.target.arrow(x, s) for s in below.members}
    fiber_map = cone_into_limit(nt.target.at(x), legs, target_limit)
    pb = pullback(limit_map(source_limit, target_limit, nt.components), fiber_map)
    carrier, to_limit, to_fiber = pb
    rows = {p: (tuple(source_limit[1][s](to_limit(p)) for s in below.members), to_fiber(p)) for p in carrier.carrier}
    into_limit = cone_into_limit(nt.source.at(x), {s: nt.source.arrow(x, s) for s in below.members}, source_limit)
    relative = induced_into_pullback(pb, into_limit, nt.at(x))
    return carrier.carrier, rows, {e: rows[relative(e)] for e in nt.source.at(x).carrier}


def test_matching_pullback_equals_the_pullback_of_the_matching_limits():
    rng = random.Random(1901)
    for _ in range(200):
        nt = random_nattrans(rng, random_poset(rng, 5), 3)
        for x in nt.shape.elements:
            pb = matching_pullback(nt.source, nt.components, nt.target, x)
            carrier, projections = pb
            below = nt.shape.strict_downset(x)
            rows = {p: (tuple(projections[s](p) for s in below), projections[x](p)) for p in carrier.carrier}
            ids, expected, relative_rows = pullback_reference(nt, x)
            # the same ids with the same rows, in the same order
            assert carrier.carrier == ids
            assert list(rows.items()) == list(expected.items())
            # the relative map sends each source element to the same (family,
            # d); at a minimal element it is the component, into d itself
            walked, relative = matching_data(nt, x)
            if walked is None:
                rows = {d: ((), d) for d in nt.target.at(x).carrier}
            else:
                assert walked[0] == carrier and walked.index == pb.index
            assert {e: rows[relative(e)] for e in nt.source.at(x).carrier} == relative_rows


def test_matching_pullback_at_a_minimal_element_is_the_lower_fiber():
    # what the join builds over an empty strict downset: one row per d in
    # lower(x)'s carrier order, a single projection to lower(x), and an
    # index keyed by d alone
    rng = random.Random(2401)
    minimal = 0
    for _ in range(200):
        nt = random_nattrans(rng, random_poset(rng, 5), 3)
        for x in nt.shape.elements:
            if nt.shape.strict_downset(x):
                continue
            minimal += 1
            pb = matching_pullback(nt.source, nt.components, nt.target, x)
            carrier, projections = pb
            fiber = nt.target.at(x)
            ids = tuple(f"p{i}" for i in range(len(fiber.carrier)))
            assert carrier == BaseObject(ids)
            assert list(projections) == [x]
            assert projections[x].source == carrier and projections[x].target == fiber
            assert list(projections[x].mapping.items()) == list(zip(ids, fiber.carrier))
            order, families = pb.index
            assert order == (x,)
            assert list(families.items()) == [((d,), p) for p, d in zip(ids, fiber.carrier)]
    assert minimal == 339


def test_matching_pullback_refuses_legs_that_are_no_cone_or_lie_over_another_d():
    # 0 < 1 < t, the identity on a constant diagram: P(t) holds the
    # families (a, a) and (b, b) below t, each over its own value at t
    shape = FinPoset.make(("0", "1", "t"), [("0", "1"), ("1", "t")])
    ab = BaseObject(("a", "b"))
    const = constant_diagram(shape, ab)
    ident = {x: identity(ab) for x in shape.elements}
    pb = matching_pullback(const, ident, const, "t")
    assert [[pb[1][s](p) for s in ("0", "1", "t")] for p in pb[0].carrier] == [["a", "a", "a"], ["b", "b", "b"]]
    assert cone_into_limit(ab, ident, pb).mapping == {"a": "p0", "b": "p1"}
    swap = morphism(ab, ab, {"a": "b", "b": "a"})
    # the legs at 0 and 1 disagree along 1 >= 0: no cone below t
    with pytest.raises(DiagramError, match="the legs do not form a cone"):
        cone_into_limit(ab, {"0": identity(ab), "1": swap, "t": identity(ab)}, pb)
    # a cone below t that lies over another d
    with pytest.raises(DiagramError, match="the legs do not form a cone"):
        cone_into_limit(ab, {"0": identity(ab), "1": identity(ab), "t": swap}, pb)
    # a component of the wrong type is refused before its values are read
    other = BaseObject(("a", "b", "c"))
    with pytest.raises(DiagramError, match="ill-typed component at '0'"):
        matching_pullback(const, {**ident, "0": morphism(ab, other, {"a": "a", "b": "b"})}, const, "t")


def test_is_special_refuses_a_component_with_another_target():
    # a < b, constant diagrams on X and Y; the component at a lands in Z,
    # which is not the target fiber Y, though its values lie in Y
    chain = FinPoset.make(("a", "b"), [("a", "b")])
    xs, ys, zs = BaseObject(("x0", "x1")), BaseObject(("y0",)), BaseObject(("y0", "y1"))
    src = Diagram.make(chain, {"a": xs, "b": xs}, {("b", "a"): identity(xs)})
    tgt = Diagram.make(chain, {"a": ys, "b": ys}, {("b", "a"): identity(ys)})
    bad = NatTrans(
        src, tgt, {"a": morphism(xs, zs, {"x0": "y0", "x1": "y0"}), "b": morphism(xs, ys, {"x0": "y0", "x1": "y0"})}
    )
    assert not is_special(bad, "M")
    with pytest.raises(NotSpecial, match="no relative matching map at 'a'"):
        next(special_matching_data(bad, "M"))
    empty = BaseObject(())
    problem = LiftingProblem(
        morphism(empty, empty, {}),
        bad,
        {t: morphism(empty, xs, {}) for t in chain.elements},
        {t: morphism(empty, ys, {}) for t in chain.elements},
    )
    with pytest.raises(LiftingError):
        lift_against_special(problem)


def test_elements_with_one_strict_downset_have_one_matching_limit():
    # x0 < t1 and x0 < t2: the two tops have the strict downset (x0,)
    shape = FinPoset.make(("x0", "t1", "t2"), [("x0", "t1"), ("x0", "t2")])
    diagram = random_diagram(random.Random(3), shape, 3)
    first = matching_limit(diagram, "t1")
    assert matching_limit(diagram, "t2") == first
    below = diagram.restrict(Reysha(shape, ("x0",)))
    assert first == limit_over_poset(below)


def test_limit_follows_the_maximal_elements_in_canonical_order():
    # the maximal elements t and u come first and last, x0 < t between
    shape = FinPoset.make(("t", "x0", "u"), [("x0", "t")])
    ab, p, cd = BaseObject(("a", "b")), BaseObject(("p",)), BaseObject(("c", "d"))
    diagram = Diagram.make(
        shape, {"t": ab, "x0": p, "u": cd}, {("t", "x0"): morphism(ab, p, {"a": "p", "b": "p"})}
    )
    lim, proj = limit_over_poset(diagram)
    assert lim.carrier == ("l0", "l1", "l2", "l3")
    assert [(proj["t"](e), proj["u"](e)) for e in lim.carrier] == [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]


def test_matching_limit_equals_the_restricted_limit_and_its_cone_check_stays_exact():
    # 0 < 1 < t and 0 < 1 < u: t and u have the strict downset (0, 1)
    shape = FinPoset.make(("0", "1", "t", "u"), [("0", "1"), ("1", "t"), ("1", "u")])
    ab = BaseObject(("a", "b"))
    diagram = constant_diagram(shape, ab)
    limit = matching_limit(diagram, "t")
    assert matching_limit(diagram, "u") == limit
    restricted = limit_over_poset(diagram.restrict(Reysha(shape, ("0", "1"))))
    assert restricted == limit and restricted.index == limit.index
    cone = {"0": identity(ab), "1": identity(ab)}
    assert cone_into_limit(ab, cone, limit) == cone_into_limit(ab, cone, restricted)
    assert cone_into_limit(ab, cone, limit).mapping == {"a": "l0", "b": "l1"}
    # the legs disagree along 1 >= 0
    swapped = {"0": identity(ab), "1": morphism(ab, ab, {"a": "b", "b": "a"})}
    with pytest.raises(DiagramError, match="the legs do not form a cone"):
        cone_into_limit(ab, swapped, limit)


def test_attach_writes_each_arrow_as_a_projection_after_the_map_into_the_limit():
    ab, p = BaseObject(("a", "b")), BaseObject(("p", "q"))
    built = Diagram(vee(), {}, {})
    attach(built, "x0", ab, morphism(ab, TERMINAL, {"a": "*", "b": "*"}), {})
    attach(built, "x1", ab, morphism(ab, TERMINAL, {"a": "*", "b": "*"}), {})
    limit = matching_limit(built, "t")
    # the families (x0, x1) in order: (a, a), (a, b), (b, a), (b, b)
    into = morphism(p, limit[0], {"p": "l1", "q": "l2"})
    attach(built, "t", p, into, limit[1])
    assert built.objects["t"] is p
    assert built.arrows[("t", "t")] == identity(p)
    assert built.arrows[("t", "x0")].mapping == {"p": "a", "q": "b"}
    assert built.arrows[("t", "x1")].mapping == {"p": "b", "q": "a"}
    assert Diagram.make(vee(), built.objects, built.arrows).arrows == built.arrows


def test_special_walk_stops_at_a_square_that_does_not_commute():
    # built without NatTrans.make: the square on 1 >= 0 does not commute
    chain = FinPoset.make(("0", "1"), [("0", "1")])
    ab = BaseObject(("a", "b"))
    const = Diagram.make(chain, {"0": ab, "1": ab}, {("1", "0"): identity(ab)})
    swap = morphism(ab, ab, {"a": "b", "b": "a"})
    nt = NatTrans(const, const, {"0": swap, "1": identity(ab)})
    walk = special_matching_data(nt, "M")
    assert next(walk)[0] == "0"
    with pytest.raises(NotSpecial, match="no relative matching map at '1'"):
        next(walk)
    assert not is_special(nt, "M")


def limit_reference(diagram):
    """Every compatible family over the maximal fibers, in lexicographic
    order of their values there: the carrier ids and, per element, the
    projection's (id, value) list that limit_over_poset should give."""
    shape = diagram.shape
    if not shape.elements:
        return ("*",), {}
    maximal = [m for m in shape.elements if not any(shape.lt(m, y) for y in shape.elements)]
    families = []
    for values in itertools.product(*(diagram.at(m).carrier for m in maximal)):
        family = {}
        for m, v in zip(maximal, values):
            for y in shape.elements:
                if shape.le(y, m):
                    family.setdefault(y, set()).add(diagram.arrow(m, y)(v))
        if all(len(seen) == 1 for seen in family.values()):
            families.append({y: seen.pop() for y, seen in family.items()})
    carrier = tuple(f"l{i}" for i in range(len(families)))
    return carrier, {x: [(e, family[x]) for e, family in zip(carrier, families)] for x in shape.elements}


@st.composite
def shaped_diagrams(draw):
    """Diagrams over the empty shape, antichains (with empty fibers too),
    chains and random posets."""
    kind = draw(st.sampled_from(["empty", "antichain", "chain", "random"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    elements = tuple(f"e{i}" for i in range(draw(st.integers(min_value=1, max_value=5))))
    if kind == "empty":
        return Diagram.make(FinPoset.make(()), {})
    if kind == "antichain":
        sizes = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=len(elements), max_size=len(elements)))
        fibers = {x: BaseObject(tuple(f"{x}_{i}" for i in range(k))) for x, k in zip(elements, sizes)}
        return Diagram.make(FinPoset.make(elements), fibers)
    if kind == "chain":
        shape = FinPoset.make(elements, list(zip(elements, elements[1:])))
    else:
        shape = random_poset(rng, 5)
    return random_diagram(rng, shape, 3)


def index_off_projections(limit):
    """The elements of the limit's shape, and the carrier element of each
    family of its projections' values on them."""
    carrier, projections = limit
    order = tuple(projections)
    if not order:
        return order, {(): e for e in carrier.carrier}
    columns = [[projections[x].mapping[e] for e in carrier.carrier] for x in order]
    return order, dict(zip(zip(*columns), carrier.carrier))


@settings(max_examples=300, deadline=None)
@given(diagram=shaped_diagrams())
def test_limit_equals_the_lexicographic_reference(diagram):
    limit = limit_over_poset(diagram)
    lim, proj = limit
    assert limit.index == index_off_projections(limit)
    carrier, columns = limit_reference(diagram)
    assert lim.carrier == carrier
    assert list(proj) == list(diagram.shape.elements)
    for x, column in columns.items():
        assert proj[x].source == lim and proj[x].target == diagram.at(x)
        assert list(proj[x].mapping.items()) == column
    # each matching limit, taken without restricting, is the limit of the
    # restriction to the strict downset, projection by projection
    shape = diagram.shape
    for x in shape.elements:
        got = matching_limit(diagram, x)
        expected = limit_over_poset(diagram.restrict(Reysha(shape, shape.strict_downset(x))))
        assert got[0] == expected[0]
        assert [(s, p, list(p.mapping.items())) for s, p in got[1].items()] == [
            (s, p, list(p.mapping.items())) for s, p in expected[1].items()
        ]
        assert got.index == expected.index == index_off_projections(got)


def test_legs_that_are_not_a_cone_are_rejected_with_and_without_an_index():
    ab = BaseObject(("a", "b"))
    limit = limit_over_poset(constant_diagram(vee(), ab))
    swap = morphism(ab, ab, {"a": "b", "b": "a"})
    # the legs at x0 and t agree along t >= x0, the leg at x1 does not
    legs = {"x0": identity(ab), "x1": swap, "t": identity(ab)}
    # twice: a refused cone leaves the limit's index as it was
    for _ in range(2):
        with pytest.raises(DiagramError, match="the legs do not form a cone"):
            cone_into_limit(ab, legs, limit)
        with pytest.raises(DiagramError, match="the legs do not form a cone"):
            limit_map(limit, limit, legs)


@pytest.mark.parametrize("size", [0, 1, 3])
def test_every_apex_element_maps_into_the_terminal_limit(size):
    apex = BaseObject(tuple(f"w{i}" for i in range(size)))
    diagram = constant_diagram(vee(), apex)
    # x0 is minimal: its matching limit is over the empty shape
    terminal = matching_limit(diagram, "x0")
    assert terminal == limit_over_poset(Diagram.make(FinPoset.make(()), {}))
    # twice: each lookup only reads the index the limit was built with
    for _ in range(2):
        into = cone_into_limit(apex, {}, terminal)
        assert into.target == terminal[0]
        assert into.mapping == {w: "*" for w in apex.carrier}
    source = matching_limit(diagram, "t")
    assert limit_map(source, terminal, {}).mapping == {e: "*" for e in source[0].carrier}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_nattrans_json_round_trip(seed):
    rng = random.Random(seed)
    nt = random_nattrans(rng, random_poset(rng, 4), 3)
    assert nattrans_from_json(nattrans_to_json(nt)) == nt
