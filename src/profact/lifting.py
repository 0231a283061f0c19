"""Lifting problems: a brute-force oracle and the degree-recursive lift
against special surjective transformations."""

from __future__ import annotations

from dataclasses import dataclass

from .base import (
    BaseMorphism,
    compose,
    composite_mapping,
    is_in_n,
    lift_base,
)
from .diagrams import (
    NatTrans,
    NotSpecial,
    cone_into_limit,
    special_matching_data,
)


class LiftingError(ValueError):
    pass


# only the bound by which the lift benchmark picks its problems: it keeps
# those whose |X| ** |B| maps B -> X an exhaustive search could walk
SEARCH_CAP = 10**6


@dataclass(frozen=True)
class LiftingProblem:
    """A square (or cone of squares) asking for a diagonal filler.

    left is a single map g: A -> B; right is a transformation over a poset;
    top and bottom are compatible cones from A and B into its two layers.
    """

    left: BaseMorphism
    right: NatTrans
    top: dict[str, BaseMorphism]
    bottom: dict[str, BaseMorphism]

    def validate(self) -> None:
        # the endpoints are checked first, so each law compares mappings
        shape = self.right.shape
        for t in shape.elements:
            top = self.top.get(t)
            bottom = self.bottom.get(t)
            if top is None or top.source != self.left.source or top.target != self.right.source.at(t):
                raise LiftingError(f"missing or ill-typed top cone component at {t!r}")
            if bottom is None or bottom.source != self.left.target or bottom.target != self.right.target.at(t):
                raise LiftingError(f"missing or ill-typed bottom cone component at {t!r}")
            if composite_mapping(self.right.at(t), top) != composite_mapping(bottom, self.left):
                raise LiftingError(f"lifting square does not commute at {t!r}")
        for t, s in shape.strict_pairs():
            if composite_mapping(self.right.source.arrow(t, s), self.top[t]) != self.top[s].mapping:
                raise LiftingError(f"top cone incompatible on {t!r} >= {s!r}")
            if composite_mapping(self.right.target.arrow(t, s), self.bottom[t]) != self.bottom[s].mapping:
                raise LiftingError(f"bottom cone incompatible on {t!r} >= {s!r}")


@dataclass(frozen=True)
class ConeLift:
    components: dict[str, BaseMorphism]

    def verify(self, problem: LiftingProblem) -> dict[str, bool]:
        right, left = problem.right, problem.left
        shape = right.shape
        # a component that is missing or not B -> right.source(t) fails
        # every triangle and compatibility check it takes part in
        lifts = {
            t: h
            for t, h in self.components.items()
            if t in shape and h.source == left.target and h.target == right.source.at(t)
        }
        upper = all(t in lifts and compose(lifts[t], left) == problem.top[t] for t in shape.elements)
        lower = all(t in lifts and compose(right.at(t), lifts[t]) == problem.bottom[t] for t in shape.elements)
        compatible = all(
            t in lifts and s in lifts and compose(right.source.arrow(t, s), lifts[t]) == lifts[s]
            for t, s in shape.strict_pairs()
        )
        return {"upper_triangles": upper, "lower_triangles": lower, "cone_compatible": compatible}


def has_lift_bruteforce(
    g: BaseMorphism,
    f: BaseMorphism,
    top: BaseMorphism,
    bottom: BaseMorphism,
) -> tuple[bool, BaseMorphism | None]:
    """Decide a single lifting square by building its least admissible map.

    A lift h sends each b into the preimage f^-1(bottom(b)) and each g(a)
    to top(a), a point of that preimage since the square commutes.  So a b
    in g's image takes only that point, or none when two a over it have
    different top values, and any other b takes its first preimage in X's
    carrier order, read from a table of each point's least preimage built
    in one pass over X.  The conditions on each b are independent, so
    every admissible map is a lift, and the least one is the first lift in
    the order of all maps B -> X.  It takes O(|A| + |B| + |X|) steps,
    however many maps B -> X there are.
    """
    # composite_mapping checks that top ends at f's source and bottom
    # starts at g's target; with the other two endpoints equal, the square
    # commutes iff the mappings agree
    f_top, bottom_g = composite_mapping(f, top), composite_mapping(bottom, g)
    if top.source != g.source or bottom.target != f.target or f_top != bottom_g:
        raise LiftingError("lifting square does not commute")
    domain = g.target.carrier
    values: dict[str, str] = {}
    for a in g.source.carrier:
        if values.setdefault(g(a), top(a)) != top(a):
            return False, None
    # the least x over each point: the first x in X's order overwrites last
    preimage = {f(x): x for x in reversed(f.source.carrier)}
    for b in domain:
        if b not in values:
            values[b] = preimage.get(bottom(b))
            if values[b] is None:
                return False, None
    lift = BaseMorphism(g.target, f.source, {b: values[b] for b in domain})
    if composite_mapping(lift, g) == top.mapping and composite_mapping(f, lift) == bottom.mapping:
        return True, lift
    return False, None


def lift_against_special(problem: LiftingProblem) -> ConeLift:
    """Build a compatible cone of lifts in degree order.

    At each element the already-built lifts and the bottom component
    assemble into a map to the matching pullback, and the base lift against
    the relative matching map fills the square.  At a minimal element the
    matching pullback is the target's fiber, the bottom component is the
    map into it and the component of the right map is the relative map.
    The one matching walk both checks that the right map is special and
    supplies the data: an element's lift needs only the elements below it,
    all already found special.
    """
    problem.validate()
    if not is_in_n(problem.left):
        raise LiftingError("left map is not injective")
    f = problem.right
    shape = f.shape
    lifts: dict[str, BaseMorphism] = {}
    try:
        for t, (pb, relative) in special_matching_data(f, "M"):
            if pb is None:
                into_pb = problem.bottom[t]
            else:
                legs = {s: lifts[s] for s in shape.strict_downset(t)}
                legs[t] = problem.bottom[t]
                into_pb = cone_into_limit(problem.left.target, legs, pb)
            lifts[t] = lift_base(problem.left, relative, problem.top[t], into_pb)
    except NotSpecial as exc:
        raise LiftingError("right transformation is not special surjective") from exc
    return ConeLift(lifts)
