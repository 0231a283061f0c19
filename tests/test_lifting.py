import itertools
import random
from dataclasses import dataclass, field

import pytest

from profact.base import BaseMorphism, BaseObject, compose, factorize_base, identity, is_in_m, lift_base, morphism
from profact import diagrams, lifting
from profact.diagrams import Diagram, NatTrans, is_levelwise
from profact.lifting import (
    SEARCH_CAP,
    LiftingError,
    LiftingProblem,
    has_lift_bruteforce,
    lift_against_special,
)
from profact.poset import FinPoset
from profact.randgen import random_special_problem


@dataclass(frozen=True)
class RetractDiagram:
    """h exhibited as a retract of the surjective part of its factorization."""

    arrow: BaseMorphism  # h: X -> Y
    surjection: BaseMorphism  # p: mid -> Y
    section: BaseMorphism  # q: X -> mid
    retraction: BaseMorphism  # k: mid -> X
    report: dict[str, bool] = field(compare=False, default_factory=dict)

    def verify(self) -> dict[str, bool]:
        return {
            "section_retracts": compose(self.retraction, self.section) == identity(self.arrow.source),
            "left_square": compose(self.surjection, self.section) == self.arrow,
            "right_square": compose(self.arrow, self.retraction) == self.surjection,
        }


def retract_exhibitor(h: BaseMorphism) -> RetractDiagram:
    """Exhibit h as a retract of the surjection in its canonical factorization.

    Requires h to have the right lifting property against its own
    factorization's injective part.
    """
    triple = factorize_base(h)
    ok, k = has_lift_bruteforce(triple.left, h, identity(h.source), triple.right)
    if not ok:
        raise LiftingError("arrow lacks the right lifting property against its injective part")
    diagram = RetractDiagram(h, triple.right, triple.left, k)
    object.__setattr__(diagram, "report", diagram.verify())
    return diagram


def solve_square_levelwise(
    left: NatTrans,
    right: BaseMorphism,
    t0: str,
    top: BaseMorphism,
    bottom: BaseMorphism,
) -> dict[str, BaseMorphism]:
    """Lift a levelwise-injective tower against a surjection, given a level
    through which the square factors.

    Returns the base lift at the representative level composed with the
    structural maps, one component per element above the representative.
    """
    if t0 not in left.shape:
        raise LiftingError(f"unknown representative level {t0!r}")
    if not is_levelwise(left, "N"):
        raise LiftingError("tower is not levelwise injective")
    if not is_in_m(right):
        raise LiftingError("right map is not surjective")
    if top.source != left.source.at(t0) or bottom.source != left.target.at(t0):
        raise LiftingError("square components not typed at the representative level")
    base = lift_base(left.at(t0), right, top, bottom)
    return {
        t: compose(base, left.target.arrow(t, t0))
        for t in left.shape.elements
        if left.shape.le(t0, t)
    }


def test_bruteforce_injective_vs_surjective_always_lifts():
    a, b = BaseObject(("a1",)), BaseObject(("b1", "b2"))
    x, y = BaseObject(("x1", "x2")), BaseObject(("y",))
    g = morphism(a, b, {"a1": "b1"})
    f = morphism(x, y, {"x1": "y", "x2": "y"})
    top = morphism(a, x, {"a1": "x1"})
    bottom = morphism(b, y, {"b1": "y", "b2": "y"})
    found, witness = has_lift_bruteforce(g, f, top, bottom)
    assert found
    assert compose(witness, g) == top
    assert compose(f, witness) == bottom


def test_bruteforce_counterexample_square():
    empty = BaseObject(())
    one = BaseObject(("1",))
    g = morphism(empty, one, {})
    f = morphism(BaseObject(("u",)), BaseObject(("v", "w")), {"u": "v"})
    found, witness = has_lift_bruteforce(g, f, morphism(empty, f.source, {}), morphism(one, f.target, {"1": "w"}))
    assert not found and witness is None


def test_bruteforce_identity_right_map():
    a, b = BaseObject(("a1",)), BaseObject(("b1",))
    x = BaseObject(("x1", "x2"))
    g = morphism(a, b, {"a1": "b1"})
    top = morphism(a, x, {"a1": "x2"})
    bottom = morphism(b, x, {"b1": "x2"})
    found, witness = has_lift_bruteforce(g, identity(x), top, bottom)
    assert found and witness == bottom


def test_bruteforce_rejects_non_commuting_square():
    one = BaseObject(("1",))
    two = BaseObject(("a", "b"))
    with pytest.raises(LiftingError):
        has_lift_bruteforce(
            identity(one),
            identity(two),
            morphism(one, two, {"1": "a"}),
            morphism(one, two, {"1": "b"}),
        )


def test_bruteforce_refuses_a_square_whose_outer_endpoints_differ():
    # the composites agree as assignments, but the top starts at another A
    # or the bottom ends at another Y: the same points in another order
    a, a_reordered = BaseObject(("1", "2")), BaseObject(("2", "1"))
    x = BaseObject(("u", "v"))
    y, y_reordered = BaseObject(("p", "q")), BaseObject(("q", "p"))
    g = morphism(a, a, {"1": "1", "2": "2"})
    f = morphism(x, y, {"u": "p", "v": "q"})
    top, bottom = {"1": "u", "2": "v"}, {"1": "p", "2": "q"}
    assert has_lift_bruteforce(g, f, morphism(a, x, top), morphism(a, y, bottom))[0]
    with pytest.raises(LiftingError, match="^lifting square does not commute$"):
        has_lift_bruteforce(g, f, morphism(a_reordered, x, top), morphism(a, y, bottom))
    with pytest.raises(LiftingError, match="^lifting square does not commute$"):
        has_lift_bruteforce(g, f, morphism(a, x, top), morphism(a, y_reordered, bottom))


def _first_lift_over_all_maps(g, f, top, bottom):
    """The first lift among all maps B -> X in product order, or None."""
    domain = g.target.carrier
    for values in itertools.product(f.source.carrier, repeat=len(domain)):
        lift = dict(zip(domain, values))
        if all(lift[g(a)] == top(a) for a in g.source.carrier) and all(
            f(lift[b]) == bottom(b) for b in domain
        ):
            return lift
    return None


def _random_square(rng, max_a=2):
    """A commuting square g: A -> B, f: X -> Y of small random maps, or
    None when no top map A -> X makes the drawn maps commute.  A has at
    most max_a points and never more than B."""

    def carrier(name, size):
        return BaseObject(tuple(f"{name}{i}" for i in range(size)))

    def drawn(source, target):
        return morphism(source, target, {e: rng.choice(target.carrier) for e in source.carrier})

    b, x, y = carrier("b", rng.randint(0, 3)), carrier("x", rng.randint(1, 4)), carrier("y", rng.randint(1, 3))
    a = carrier("a", rng.randint(0, min(max_a, len(b))))
    g, f, bottom = drawn(a, b), drawn(x, y), drawn(b, y)
    top = {}
    for e in a.carrier:
        over = [c for c in x.carrier if f(c) == bottom(g(e))]
        if not over:
            return None
        top[e] = rng.choice(over)
    return g, f, morphism(a, x, top), bottom


@pytest.mark.parametrize("seed, max_a", [(29, 2), (31, 3)])
def test_bruteforce_witness_is_the_first_over_all_maps(seed, max_a):
    # the oracle builds only the least admissible map; it must be the first
    # lift of the walk over every map B -> X.  With max_a 3, A can be as
    # large as B, so g can be non-injective and tops can disagree
    rng = random.Random(seed)
    checked = solvable = 0
    while checked < 300:
        square = _random_square(rng, max_a)
        if square is None:
            continue
        checked += 1
        expected = _first_lift_over_all_maps(*square)
        found, witness = has_lift_bruteforce(*square)
        assert found == (expected is not None)
        if found:
            solvable += 1
            assert witness.mapping == expected
    assert 0 < solvable < checked


def single_point_problem():
    pt = FinPoset.make(("p",))
    a, b = BaseObject(("a1",)), BaseObject(("b1", "b2"))
    x, y = BaseObject(("x1", "x2")), BaseObject(("y",))
    g = morphism(a, b, {"a1": "b1"})
    f = morphism(x, y, {"x1": "y", "x2": "y"})
    nt = NatTrans.make(Diagram.make(pt, {"p": x}), Diagram.make(pt, {"p": y}), {"p": f})
    return LiftingProblem(
        g,
        nt,
        {"p": morphism(a, x, {"a1": "x1"})},
        {"p": morphism(b, y, {"b1": "y", "b2": "y"})},
    )


def test_single_point_reduces_to_base_lift():
    problem = single_point_problem()
    cone = lift_against_special(problem)
    assert all(cone.verify(problem).values())
    found, _ = has_lift_bruteforce(
        problem.left, problem.right.at("p"), problem.top["p"], problem.bottom["p"]
    )
    assert found


def test_two_chain_identity_transformation():
    ch = FinPoset.make(("0", "1"), [("0", "1")])
    x = BaseObject(("x1", "x2"))
    diag = Diagram.make(ch, {"0": x, "1": x}, {("1", "0"): identity(x)})
    ident = NatTrans.make(diag, diag, {t: identity(x) for t in ch.elements})
    a, b = BaseObject(("a1",)), BaseObject(("b1", "b2"))
    g = morphism(a, b, {"a1": "b1"})
    top = {t: morphism(a, x, {"a1": "x1"}) for t in ch.elements}
    bottom = {t: morphism(b, x, {"b1": "x1", "b2": "x2"}) for t in ch.elements}
    problem = LiftingProblem(g, ident, top, bottom)
    cone = lift_against_special(problem)
    assert all(cone.verify(problem).values())
    # constant down the chain
    assert cone.components["0"] == cone.components["1"]


def test_randomized_special_problems_with_oracle_crosscheck():
    rng = random.Random(41)
    for _ in range(25):
        problem = random_special_problem(rng, 4, 3)
        cone = lift_against_special(problem)
        assert all(cone.verify(problem).values())
        for t in problem.right.shape.elements:
            found, _ = has_lift_bruteforce(problem.left, problem.right.at(t), problem.top[t], problem.bottom[t])
            assert found


def test_lift_rejects_non_special_right():
    ch = FinPoset.make(("0", "1"), [("0", "1")])
    ab = BaseObject(("a", "b"))
    one = BaseObject(("z",))
    src = Diagram.make(ch, {"0": ab, "1": ab}, {("1", "0"): identity(ab)})
    tgt = Diagram.make(ch, {"0": one, "1": ab}, {("1", "0"): morphism(ab, one, {"a": "z", "b": "z"})})
    nt = NatTrans.make(src, tgt, {"1": identity(ab), "0": morphism(ab, one, {"a": "z", "b": "z"})})
    empty = BaseObject(())
    problem = LiftingProblem(
        morphism(empty, empty, {}),
        nt,
        {t: morphism(empty, ab, {}) for t in ch.elements},
        {t: morphism(empty, one, {}) for t in ch.elements},
    )
    with pytest.raises(LiftingError):
        lift_against_special(problem)


def test_lift_takes_each_matching_limit_once(monkeypatch):
    # the specialness check and the lift share one walk, which takes one
    # join per element with a strict downset: the right map's matching
    # pullback, in degree order, as a carrier and an index.  No projection
    # map, no pullback at a minimal element and no matching limit is built
    rng = random.Random(53)
    problems = [random_special_problem(rng, 5, 3) for _ in range(10)]
    join = diagrams._matching_join
    calls = []

    def refuse(*args):
        raise AssertionError("a matching limit or a projection map was built")

    monkeypatch.setattr(diagrams, "_matching_join", lambda *args: calls.append(args) or join(*args))
    for name in ("limit_over_poset", "_limit", "matching_pullback", "_from_columns"):
        monkeypatch.setattr(diagrams, name, refuse)
    minimal = joined = 0
    for problem in problems:
        calls.clear()
        cone = lift_against_special(problem)
        assert all(cone.verify(problem).values())
        f = problem.right
        inner = [x for x in f.shape.in_degree_order() if f.shape.strict_downset(x)]
        minimal += len(f.shape.elements) - len(inner)
        joined += len(inner)
        assert calls == [(f.source, f.components, f.target, x) for x in inner]
    assert minimal and joined


def test_lift_rejects_right_family_whose_squares_do_not_commute():
    # built without NatTrans.make: every component is a bijection, but the
    # square on 1 >= 0 does not commute, so there are no relative
    # matching maps
    ch = FinPoset.make(("0", "1"), [("0", "1")])
    ab = BaseObject(("a", "b"))
    const = Diagram.make(ch, {"0": ab, "1": ab}, {("1", "0"): identity(ab)})
    swap = morphism(ab, ab, {"a": "b", "b": "a"})
    right = NatTrans(const, const, {"0": swap, "1": identity(ab)})
    empty = BaseObject(())
    problem = LiftingProblem(
        morphism(empty, empty, {}),
        right,
        {t: morphism(empty, ab, {}) for t in ch.elements},
        {t: morphism(empty, ab, {}) for t in ch.elements},
    )
    with pytest.raises(LiftingError, match="^right transformation is not special surjective$"):
        lift_against_special(problem)


def test_retract_exhibitor_surjective():
    x, y = BaseObject(("1", "2")), BaseObject(("p",))
    h = morphism(x, y, {"1": "p", "2": "p"})
    diagram = retract_exhibitor(h)
    assert diagram.report == {
        "section_retracts": True,
        "left_square": True,
        "right_square": True,
    }
    assert is_in_m(diagram.surjection)


def test_retract_exhibitor_identity():
    x = BaseObject(("1", "2"))
    diagram = retract_exhibitor(identity(x))
    assert all(diagram.report.values())


def test_retract_exhibitor_rejects_without_rlp():
    # injective but not surjective: the bottom can reach the missed point
    h = morphism(BaseObject(("1",)), BaseObject(("p", "q")), {"1": "p"})
    with pytest.raises(LiftingError):
        retract_exhibitor(h)


def test_solve_square_levelwise_single_point():
    pt = FinPoset.make(("p",))
    x, y = BaseObject(("x1", "x2")), BaseObject(("y",))
    diag = Diagram.make(pt, {"p": x})
    tower = NatTrans.make(diag, diag, {"p": identity(x)})
    f = morphism(x, y, {"x1": "y", "x2": "y"})
    lift = solve_square_levelwise(tower, f, "p", identity(x), morphism(x, y, {"x1": "y", "x2": "y"}))
    assert set(lift) == {"p"}
    assert compose(f, lift["p"]) == morphism(x, y, {"x1": "y", "x2": "y"})


def test_solve_square_levelwise_composes_with_restriction():
    ch = FinPoset.make(("0", "1"), [("0", "1")])
    x, y = BaseObject(("x1", "x2")), BaseObject(("y",))
    diag = Diagram.make(ch, {"0": x, "1": x}, {("1", "0"): identity(x)})
    tower = NatTrans.make(diag, diag, {t: identity(x) for t in ch.elements})
    f = morphism(x, y, {"x1": "y", "x2": "y"})
    bottom = morphism(x, y, {"x1": "y", "x2": "y"})
    lift = solve_square_levelwise(tower, f, "0", identity(x), bottom)
    assert lift["1"] == compose(lift["0"], diag.arrow("1", "0"))


def test_solve_square_levelwise_identity_right():
    pt = FinPoset.make(("p",))
    x = BaseObject(("x1", "x2"))
    diag = Diagram.make(pt, {"p": x})
    tower = NatTrans.make(diag, diag, {"p": identity(x)})
    bottom = morphism(x, x, {"x1": "x2", "x2": "x1"})
    lift = solve_square_levelwise(tower, identity(x), "p", bottom, bottom)
    assert lift["p"] == bottom


def _counting_builds(monkeypatch):
    """Count the candidate maps has_lift_bruteforce builds."""
    built = []

    def counted(source, target, mapping):
        built.append(mapping)
        return BaseMorphism(source, target, mapping)

    monkeypatch.setattr(lifting, "BaseMorphism", counted)
    return built


def test_bruteforce_fixes_the_image_of_g(monkeypatch):
    # g hits 11 of B's 12 points and each preimage of f is all of X: the
    # walk over all maps B -> X reaches the lift late, the pruned walk
    # builds it first
    x, y = BaseObject(("x0", "x1", "x2")), BaseObject(("y",))
    a = BaseObject(tuple(f"a{i}" for i in range(11)))
    b = BaseObject(tuple(f"b{i}" for i in range(12)))
    g = morphism(a, b, {f"a{i}": f"b{i + 1}" for i in range(11)})
    f = morphism(x, y, {c: "y" for c in x.carrier})
    top = morphism(a, x, {f"a{i}": f"x{(i + 1) % 3}" for i in range(11)})
    bottom = morphism(b, y, {c: "y" for c in b.carrier})
    expected = _first_lift_over_all_maps(g, f, top, bottom)
    built = _counting_builds(monkeypatch)
    found, witness = has_lift_bruteforce(g, f, top, bottom)
    assert found and witness.mapping == expected
    assert built == [expected]


def test_bruteforce_disagreeing_tops_over_one_point(monkeypatch):
    # g sends a1 and a2 to b1, but top sends them to different points, so
    # no map h has h(g(a)) = top(a) for both
    x, y = BaseObject(("x1", "x2")), BaseObject(("y",))
    a, b = BaseObject(("a1", "a2")), BaseObject(("b1", "b2"))
    g = morphism(a, b, {"a1": "b1", "a2": "b1"})
    f = morphism(x, y, {"x1": "y", "x2": "y"})
    top = morphism(a, x, {"a1": "x1", "a2": "x2"})
    bottom = morphism(b, y, {"b1": "y", "b2": "y"})
    built = _counting_builds(monkeypatch)
    assert has_lift_bruteforce(g, f, top, bottom) == (False, None)
    assert built == []


def _rank_over_all_maps(witness, x):
    """How many maps B -> X come before the witness in product order."""
    rank = 0
    for value in witness.mapping.values():
        rank = rank * len(x.carrier) + x.carrier.index(value)
    return rank


def test_bruteforce_cap():
    # |X| ** 3 maps B -> X: 100 ** 3 is SEARCH_CAP itself, 101 ** 3 is past
    # it; g is empty, so the least map of all is the lift either way
    assert SEARCH_CAP == 100**3
    one = BaseObject(("y",))
    b = BaseObject(("b1", "b2", "b3"))
    g = morphism(BaseObject(()), b, {})

    def square(size):
        big = BaseObject(tuple(f"x{i}" for i in range(size)))
        f = morphism(big, one, {c: "y" for c in big.carrier})
        return g, f, morphism(g.source, big, {}), morphism(b, one, {c: "y" for c in b.carrier})

    for size in (100, 101):
        found, witness = has_lift_bruteforce(*square(size))
        assert found and witness.mapping == _first_lift_over_all_maps(*square(size))
        assert _rank_over_all_maps(witness, witness.target) == 0


def test_bruteforce_cap_counts_all_maps_not_the_walk():
    # g is a bijection, so one map extends the top, and 101 ** 3 maps B -> X
    # exceed the cap; the lift is built all the same, and the walk over all
    # maps reaches it after 103 others
    big = BaseObject(tuple(f"x{i}" for i in range(101)))
    one = BaseObject(("y",))
    a, b = BaseObject(("a1", "a2", "a3")), BaseObject(("b1", "b2", "b3"))
    g = morphism(a, b, {"a1": "b1", "a2": "b2", "a3": "b3"})
    f = morphism(big, one, {c: "y" for c in big.carrier})
    top = morphism(a, big, {"a1": "x0", "a2": "x1", "a3": "x2"})
    bottom = morphism(b, one, {c: "y" for c in b.carrier})
    assert len(big.carrier) ** len(b.carrier) > SEARCH_CAP
    found, witness = has_lift_bruteforce(g, f, top, bottom)
    assert found and witness.mapping == _first_lift_over_all_maps(g, f, top, bottom)
    assert _rank_over_all_maps(witness, big) == 103


def _all_maps(source, target):
    """Every map source -> target, in product order over target's carrier."""
    for values in itertools.product(target.carrier, repeat=len(source.carrier)):
        yield morphism(source, target, dict(zip(source.carrier, values)))


def _square_sides(sizes):
    """Every g: A -> B, f: X -> Y, top: A -> X and bottom: B -> Y with the
    given carrier sizes, one list per side of the square."""
    a, b, x, y = (BaseObject(tuple(f"{name}{i}" for i in range(n))) for name, n in zip("abxy", sizes))
    return [list(_all_maps(a, b)), list(_all_maps(x, y)), list(_all_maps(a, x)), list(_all_maps(b, y))]


def _meets_definition(g, f, top, bottom):
    """Assert the oracle's answer on one square against the definition:
    LiftingError when the square does not commute, else (True, h) for the
    first map h: B -> X that meets both triangles, else (False, None).
    Returns which of the three it was."""
    if any(f(top(e)) != bottom(g(e)) for e in g.source.carrier):
        with pytest.raises(LiftingError, match="^lifting square does not commute$"):
            has_lift_bruteforce(g, f, top, bottom)
        return "not commuting"
    expected = _first_lift_over_all_maps(g, f, top, bottom)
    if expected is None:
        assert has_lift_bruteforce(g, f, top, bottom) == (False, None)
        return "no lift"
    assert has_lift_bruteforce(g, f, top, bottom) == (True, morphism(g.target, f.source, expected))
    return "lift"


def _misses_a_bottom_value(g, f, top, bottom):
    return any(bottom(e) not in f.mapping.values() for e in g.target.carrier)


def _tops_disagree_over_one_point(g, f, top, bottom):
    return any(
        g(e) == g(e2) and top(e) != top(e2) for e, e2 in itertools.combinations(g.source.carrier, 2)
    )


def test_bruteforce_meets_its_definition_on_every_small_square():
    # every square with |A| <= 1, |B| <= 2 and |X|, |Y| <= 2
    outcomes = {"not commuting": 0, "no lift": 0, "lift": 0}
    missing = 0
    for sizes in itertools.product(range(2), range(3), range(3), range(3)):
        for square in itertools.product(*_square_sides(sizes)):
            outcome = _meets_definition(*square)
            outcomes[outcome] += 1
            missing += outcome == "no lift" and _misses_a_bottom_value(*square)
    # 168 squares in all; with |A| <= 1 a b in g's image always has a value,
    # so a square with no lift is one whose f misses a bottom value
    assert outcomes == {"not commuting": 50, "no lift": 36, "lift": 82}
    assert missing == 36


def test_bruteforce_meets_its_definition_on_sampled_squares():
    # a seeded sample of squares with |A| <= 2 and |B|, |X|, |Y| <= 3
    rng = random.Random(37)
    outcomes = {"not commuting": 0, "no lift": 0, "lift": 0}
    disagreeing = missing = 0
    while sum(outcomes.values()) < 2000:
        sides = _square_sides((rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)))
        if not all(sides):
            continue
        square = [rng.choice(maps) for maps in sides]
        outcome = _meets_definition(*square)
        outcomes[outcome] += 1
        if outcome != "not commuting":
            disagreeing += _tops_disagree_over_one_point(*square)
            missing += _misses_a_bottom_value(*square)
    assert all(outcomes.values())
    assert disagreeing and missing
