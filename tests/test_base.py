import itertools
import random

import pytest

from profact.base import (
    BaseError,
    BaseMorphism,
    BaseObject,
    SOURCE_TAG,
    TARGET_TAG,
    compose,
    factorize_base,
    factorize_mid_map,
    identity,
    is_in_m,
    is_in_n,
    lift_base,
    morphism,
    pullback,
)


def test_morphism_totality_enforced():
    ab = BaseObject(("a", "b"))
    with pytest.raises(BaseError):
        BaseMorphism(ab, ab, {"a": "a"})
    with pytest.raises(BaseError):
        BaseMorphism(ab, ab, {"a": "a", "b": "z"})
    with pytest.raises(BaseError):
        BaseMorphism(ab, ab, {"a": "a", "b": "b", "c": "a"})


def test_classes():
    ab = BaseObject(("a", "b"))
    single = BaseObject(("x",))
    inj = morphism(single, ab, {"x": "a"})
    surj = morphism(ab, single, {"a": "x", "b": "x"})
    assert is_in_n(inj) and not is_in_m(inj)
    assert is_in_m(surj) and not is_in_n(surj)
    assert is_in_n(identity(ab)) and is_in_m(identity(ab))


def test_pullback_matches_bruteforce():
    x = BaseObject(("x1", "x2"))
    y = BaseObject(("y1", "y2", "y3"))
    z = BaseObject(("z1", "z2"))
    f = morphism(x, z, {"x1": "z1", "x2": "z2"})
    g = morphism(y, z, {"y1": "z1", "y2": "z1", "y3": "z2"})
    carrier, proj_f, proj_g = pullback(f, g)
    pairs = {(proj_f(p), proj_g(p)) for p in carrier.carrier}
    expected = {(a, b) for a in x.carrier for b in y.carrier if f(a) == g(b)}
    assert pairs == expected
    assert len(carrier) == len(expected)


def test_factorize_base_shape():
    x = BaseObject(("1", "2"))
    y = BaseObject(("p",))
    f = morphism(x, y, {"1": "p", "2": "p"})
    triple = factorize_base(f)
    assert len(triple.mid) == 3
    assert set(triple.mid.carrier) == {SOURCE_TAG + "1", SOURCE_TAG + "2", TARGET_TAG + "p"}
    assert is_in_n(triple.left)
    assert is_in_m(triple.right)
    assert compose(triple.right, triple.left) == f


def test_factorize_base_identity_behaviour():
    x = BaseObject(("a",))
    triple = factorize_base(identity(x))
    assert compose(triple.right, triple.left) == identity(x)


def test_mid_map_functor_laws():
    x = BaseObject(("1", "2"))
    y = BaseObject(("p", "q"))
    f = morphism(x, y, {"1": "p", "2": "q"})
    assert factorize_mid_map(f, f, identity(x), identity(y)) == identity(factorize_base(f).mid)
    z = BaseObject(("r",))
    g = morphism(y, z, {"p": "r", "q": "r"})
    w = BaseObject(("s",))
    h = morphism(z, w, {"r": "s"})
    first = factorize_mid_map(f, g, f, g)
    second = factorize_mid_map(g, h, g, h)
    assert compose(second, first) == factorize_mid_map(f, h, compose(g, f), compose(h, g))


def test_mid_map_rejects_non_square():
    x = BaseObject(("1",))
    y = BaseObject(("p", "q"))
    f = morphism(x, y, {"1": "p"})
    with pytest.raises(BaseError):
        factorize_mid_map(f, f, identity(x), morphism(y, y, {"p": "q", "q": "p"}))


def random_square(rng):
    """A commuting square (top, bottom): f -> t of random finite sets."""
    def obj(prefix, low):
        return BaseObject(tuple(f"{prefix}{i}" for i in range(rng.randint(low, 4))))

    x, y, x2, y2 = obj("x", 1), obj("y", 1), obj("u", 1), obj("v", 2)
    t = morphism(x2, y2, {u: rng.choice(y2.carrier) for u in x2.carrier})
    image = sorted(set(t.mapping.values()))
    bottom = morphism(y, y2, {v: rng.choice(image) for v in y.carrier})
    f = morphism(x, y, {a: rng.choice(y.carrier) for a in x.carrier})
    top = morphism(
        x, x2, {a: rng.choice([u for u in x2.carrier if t(u) == bottom(f(a))]) for a in x.carrier}
    )
    return f, t, top, bottom


def checked_mid_map(f, t, top, bottom):
    mapping = {SOURCE_TAG + x: SOURCE_TAG + top(x) for x in f.source.carrier}
    mapping.update({TARGET_TAG + y: TARGET_TAG + bottom(y) for y in f.target.carrier})
    return BaseMorphism(factorize_base(f).mid, factorize_base(t).mid, mapping)


def test_mid_map_matches_checked_construction():
    rng = random.Random(1404)
    for _ in range(200):
        f, t, top, bottom = random_square(rng)
        result = factorize_mid_map(f, t, top, bottom)
        expected = checked_mid_map(f, t, top, bottom)
        assert result == expected
        assert list(result.mapping.items()) == list(expected.mapping.items())
        # a square that no longer commutes at one point is refused
        a = rng.choice(f.source.carrier)
        other = next(v for v in t.target.carrier if v != bottom(f(a)))
        bent = morphism(f.target, t.target, {**bottom.mapping, f(a): other})
        with pytest.raises(BaseError):
            factorize_mid_map(f, t, top, bent)


def test_mid_map_rejects_a_top_map_from_a_reordered_source():
    # the two composites agree as assignments, but one starts at the
    # same elements in another carrier order, which is another object
    x, x_reordered = BaseObject(("1", "2")), BaseObject(("2", "1"))
    y = BaseObject(("p", "q"))
    f = morphism(x, y, {"1": "p", "2": "q"})
    with pytest.raises(BaseError):
        factorize_mid_map(f, f, morphism(x_reordered, x, {"1": "1", "2": "2"}), identity(y))


def test_lift_base_tie_break():
    a = BaseObject(())
    b = BaseObject(("1", "2"))
    x = BaseObject(("p", "q"))
    y = BaseObject(("z",))
    g = morphism(a, b, {})
    f = morphism(x, y, {"p": "z", "q": "z"})
    lift = lift_base(g, f, morphism(a, x, {}), morphism(b, y, {"1": "z", "2": "z"}))
    # off the image of g the least preimage in carrier order is chosen
    assert lift.mapping == {"1": "p", "2": "p"}


def test_lift_base_solves_every_injective_vs_surjective_square():
    a = BaseObject(("a1",))
    b = BaseObject(("b1", "b2"))
    x = BaseObject(("x1", "x2", "x3"))
    y = BaseObject(("y1", "y2"))
    g = morphism(a, b, {"a1": "b2"})
    f = morphism(x, y, {"x1": "y1", "x2": "y2", "x3": "y1"})
    for top_choice in x.carrier:
        top = morphism(a, x, {"a1": top_choice})
        bottom_vals = {"b2": f(top_choice)}
        for other in y.carrier:
            bottom = morphism(b, y, {"b1": other, **bottom_vals})
            lift = lift_base(g, f, top, bottom)
            assert compose(lift, g) == top
            assert compose(f, lift) == bottom


def test_lift_base_rejects_wrong_classes():
    two = BaseObject(("1", "2"))
    one = BaseObject(("p",))
    collapse = morphism(two, one, {"1": "p", "2": "p"})
    with pytest.raises(BaseError):
        lift_base(collapse, collapse, collapse, identity(one))


def _all_maps(source, target):
    """Every map source -> target, in product order over target's carrier."""
    for values in itertools.product(target.carrier, repeat=len(source.carrier)):
        yield morphism(source, target, dict(zip(source.carrier, values)))


def test_lift_base_meets_its_definition_on_every_small_square():
    # every commuting square with g injective and f surjective, |A| <= 1,
    # |B| <= 2, |X| <= 3 and |Y| <= 2.  X's carrier runs against the order
    # of its ids, so "least in carrier order" is not "least id"
    squares = 0
    for size_a, size_b, size_x, size_y in itertools.product(range(2), range(3), range(4), range(3)):
        a, b, y = (BaseObject(tuple(f"{name}{i}" for i in range(n))) for name, n in zip("aby", (size_a, size_b, size_y)))
        x = BaseObject(tuple(f"x{i}" for i in reversed(range(size_x))))
        for g, f in itertools.product(_all_maps(a, b), _all_maps(x, y)):
            if not (is_in_n(g) and is_in_m(f)):
                continue
            for top, bottom in itertools.product(_all_maps(a, x), _all_maps(b, y)):
                if compose(f, top) != compose(bottom, g):
                    continue
                squares += 1
                # top(a) on g's image, elsewhere the least preimage of bottom(b)
                expected = {e: next(c for c in x.carrier if f(c) == bottom(e)) for e in b.carrier}
                expected.update({g(e): top(e) for e in a.carrier})
                lift = lift_base(g, f, top, bottom)
                assert lift == BaseMorphism(b, x, expected)
                assert list(lift.mapping) == list(b.carrier)
    assert squares == 194


def test_lift_base_refusals_keep_their_messages():
    a, a_reordered = BaseObject(("1", "2")), BaseObject(("2", "1"))
    b = BaseObject(("1", "2", "3"))
    x = BaseObject(("u", "v"))
    y, y_reordered = BaseObject(("p", "q")), BaseObject(("q", "p"))
    g = morphism(a, b, {"1": "1", "2": "2"})
    f = morphism(x, y, {"u": "p", "v": "q"})
    top = {"1": "u", "2": "v"}
    bottom = {"1": "p", "2": "q", "3": "q"}
    assert lift_base(g, f, morphism(a, x, top), morphism(b, y, bottom)).mapping == {"1": "u", "2": "v", "3": "v"}
    collapse = morphism(a, BaseObject(("1",)), {"1": "1", "2": "1"})
    with pytest.raises(BaseError, match="^left map is not injective$"):
        lift_base(collapse, f, morphism(a, x, top), morphism(BaseObject(("1",)), y, {"1": "p"}))
    into = morphism(BaseObject(("u",)), y, {"u": "p"})
    with pytest.raises(BaseError, match="^right map is not surjective$"):
        lift_base(g, into, morphism(a, into.source, {"1": "u", "2": "u"}), morphism(b, y, bottom))
    with pytest.raises(BaseError, match="^lifting square does not commute$"):
        lift_base(g, f, morphism(a, x, top), morphism(b, y, {**bottom, "2": "p"}))
    # the composites agree as assignments, but one starts at another A or
    # ends at another Y: the same points in another carrier order
    with pytest.raises(BaseError, match="^lifting square does not commute$"):
        lift_base(g, f, morphism(a_reordered, x, top), morphism(b, y, bottom))
    with pytest.raises(BaseError, match="^lifting square does not commute$"):
        lift_base(g, f, morphism(a, x, top), morphism(b, y_reordered, bottom))
