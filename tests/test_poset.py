import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profact.poset import FinPoset, PosetError, Reysha, is_directed_poset
from profact.randgen import random_poset


def vee():
    return FinPoset.make(("x0", "x1", "t"), [("x0", "t"), ("x1", "t")])


def test_closure_and_order():
    chain = FinPoset.make(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert chain.le("a", "c")
    assert chain.lt("a", "c")
    assert not chain.le("c", "a")
    assert chain.le("b", "b")


def test_cycle_rejected():
    with pytest.raises(PosetError):
        FinPoset.make(("a", "b"), [("a", "b"), ("b", "a")])


def test_duplicate_elements_rejected():
    with pytest.raises(PosetError):
        FinPoset.make(("a", "a"))


def test_degrees_and_levels():
    v = vee()
    assert v.degree("x0") == 0
    assert v.degree("x1") == 0
    assert v.degree("t") == 1


def test_degree_longest_chain():
    # a diamond plus a shortcut: the degree follows the longest chain
    p = FinPoset.make(("a", "b", "c", "d"), [("a", "b"), ("b", "d"), ("a", "d"), ("a", "c"), ("c", "d")])
    assert p.degree("d") == 2


def test_downsets():
    v = vee()
    assert v.downset("t") == ("x0", "x1", "t")
    assert v.strict_downset("t") == ("x0", "x1")
    assert v.strict_downset("x0") == ()


def test_reysha_validation():
    v = vee()
    assert v.is_downward_closed(("x0",))
    assert v.is_downward_closed(())
    assert not v.is_downward_closed(("t",))
    with pytest.raises(PosetError):
        Reysha(v, ("t",))


def test_reysha_canonical_member_order():
    v = vee()
    assert Reysha(v, ("x1", "x0")).members == ("x0", "x1")


def test_reyshas_enumeration_matches_bruteforce():
    v = vee()
    expected = [
        combo
        for r in range(4)
        for combo in itertools.combinations(v.elements, r)
        if all(y in combo for x in combo for y in v.elements if v.lt(y, x))
    ]
    assert [r.members for r in v.reyshas()] == expected
    assert [r.members for r in v.reyshas(max_size=1)] == [(), ("x0",), ("x1",)]


def test_principal_downset():
    v = vee()
    assert Reysha(v, v.downset("t")).members == ("x0", "x1", "t")


def test_restrict():
    v = vee()
    sub = v.restrict(("x0", "t"))
    assert sub.elements == ("x0", "t")
    assert sub.lt("x0", "t")


def test_directedness():
    assert is_directed_poset(FinPoset.make(("a",)))
    assert is_directed_poset(vee())
    assert not is_directed_poset(FinPoset.make(("a", "b")))
    assert not is_directed_poset(FinPoset.make((), ()))


def test_directedness_meets_its_definition_on_every_small_poset():
    # every edge set over i < j on n <= 5 elements, against the definition:
    # nonempty, and every pair has an upper bound
    posets = directed = 0
    for n in range(6):
        elements = tuple(str(i) for i in range(n))
        edges = list(itertools.combinations(elements, 2))
        for chosen in itertools.product((False, True), repeat=len(edges)):
            poset = FinPoset.make(elements, [e for e, keep in zip(edges, chosen) if keep])
            expected = bool(elements) and all(
                any(poset.le(x, c) and poset.le(y, c) for c in elements) for x in elements for y in elements
            )
            assert is_directed_poset(poset) == expected, poset
            posets += 1
            directed += expected
    assert (posets, directed) == (1100, 341)


def test_in_degree_order():
    v = vee()
    assert v.in_degree_order() == ("x0", "x1", "t")


def shuffled_poset(seed):
    """A random poset whose canonical order is shuffled, so that it is
    seldom a linear extension of the order."""
    rng = random.Random(seed)
    poset = random_poset(rng, 7)
    elements = list(poset.elements)
    rng.shuffle(elements)
    return rng, FinPoset.make(elements, poset.le_pairs)


def filtered_combinations(poset, max_size):
    """The downward closed subsets as itertools.combinations lists them."""
    largest = len(poset.elements) if max_size is None else min(len(poset.elements), max_size)
    return [
        combo
        for r in range(largest + 1)
        for combo in itertools.combinations(poset.elements, r)
        if all(y in combo for x in combo for y in poset.elements if poset.lt(y, x))
    ]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), max_size=st.none() | st.integers(min_value=-1, max_value=8))
def test_reyshas_match_filtered_combinations(seed, max_size):
    _, poset = shuffled_poset(seed)
    reyshas = list(poset.reyshas(max_size=max_size))
    assert [r.members for r in reyshas] == filtered_combinations(poset, max_size)
    # the unchecked path builds what the checked constructor builds
    assert reyshas == [Reysha(poset, r.members) for r in reyshas]


def labelled_posets(n):
    """Every partial order on the elements "0", ..., str(n - 1), each kept
    in that element order, which is seldom a linear extension of it."""
    elements = tuple(str(i) for i in range(n))
    pairs = list(itertools.permutations(elements, 2))
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        lt = {p for p, keep in zip(pairs, chosen) if keep}
        if all((y, x) not in lt for x, y in lt) and all(
            (x, z) in lt for x, y in lt for y2, z in lt if y == y2 and x != z
        ):
            yield FinPoset.make(elements, lt)


def test_reyshas_match_filtered_combinations_on_every_small_poset():
    posets = 0
    for n in range(5):
        for poset in labelled_posets(n):
            for max_size in (None, *range(-1, 6)):
                reyshas = [r.members for r in poset.reyshas(max_size=max_size)]
                assert reyshas == filtered_combinations(poset, max_size), (poset, max_size)
            posets += 1
    # 1 + 1 + 3 + 19 + 219 labelled posets on 0-4 elements
    assert posets == 243


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_upper_bounds_match_the_pairwise_scan(seed):
    rng, poset = shuffled_poset(seed)
    for _ in range(10):
        members = rng.sample(poset.elements, rng.randint(0, len(poset.elements)))
        if rng.random() < 0.1:
            members.append("unknown")
        expected = tuple(c for c in poset.elements if all(poset.le(m, c) for m in members))
        assert poset.upper_bounds(members) == expected


def test_upsets():
    v = vee()
    assert v.upset("x0") == ("x0", "t")
    assert v.upset("t") == ("t",)
    assert v.upset("unknown") == ()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_restriction_to_a_reysha_keeps_every_downset(seed):
    # a Reysha holds each member's downset, so the restriction reads the
    # same downsets, degrees and degree order as the parent
    poset = random_poset(random.Random(seed), 6)
    for reysha in poset.reyshas():
        sub = poset.restrict(reysha.members)
        assert sub.elements == reysha.members
        assert sub.le_pairs == {(y, x) for x in reysha.members for y in poset.downset(x)}
        for x in sub.elements:
            assert sub.downset(x) == poset.downset(x)
            assert sub.strict_downset(x) == poset.strict_downset(x)
            assert sub.degree(x) == poset.degree(x)
        assert sub.in_degree_order() == tuple(x for x in poset.in_degree_order() if x in reysha.members)
