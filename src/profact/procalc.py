"""The pre-morphism calculus on finite towers, whose finite directed shape
is the truncation: validity, the partial order, composition, straightening
of raw representative data, and the common-dominator merge.

Maps between towers are presented by a strictly increasing index map plus a
natural family of components: a factorize.PreMorphism with the one family
phi.  Restriction, order, composition and identity read one source diagram
per family, so they serve arrow objects and middle maps over any poset too.
Equality of representatives is only ever decided up to restriction to a
common higher index, so every search here is bounded by the truncation and
can fail with a dedicated error rather than silently looping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import BaseMorphism, compose, identity
from .diagrams import Diagram
from .factorize import FactorizeError, PreMorphism, check_pre_morphism
from .poset import FinPoset, is_directed_poset


class ProCalcError(ValueError):
    pass


class TruncationExhausted(RuntimeError):
    """No witness index exists within the truncated shape."""


@dataclass(frozen=True)
class ProObject:
    """A diagram over a finite directed poset, which is its own truncation."""

    diagram: Diagram

    def __post_init__(self) -> None:
        if not is_directed_poset(self.shape):
            raise ProCalcError("shape is not directed")

    @property
    def shape(self) -> FinPoset:
        return self.diagram.shape

    def at(self, a: str):
        return self.diagram.at(a)

    def arrow(self, a: str, a2: str) -> BaseMorphism:
        return self.diagram.arrow(a, a2)


@dataclass(frozen=True)
class RawMorphism:
    """Per-element representatives with no monotonicity requirement."""

    rep: dict[str, tuple[str, BaseMorphism]]


def eq_in_colim(
    F: Diagram, a1: str, u: BaseMorphism, a2: str, v: BaseMorphism
) -> tuple[bool, str | None]:
    """Decide whether two maps out of fibers of F agree after restriction
    to some common higher index; returns the least witness in canonical
    order, or (False, None) when none exists within the truncation."""
    shape = F.shape
    if u.target != v.target:
        return False, None
    for a in shape.upper_bounds((a1, a2)):
        if compose(u, F.arrow(a, a1)) == compose(v, F.arrow(a, a2)):
            return True, a
    return False, None


def is_pre_morphism(F: ProObject, G: ProObject, alpha: dict[str, str], phi: dict[str, BaseMorphism]) -> bool:
    try:
        check_pre_morphism(alpha, [("tower", F.diagram, G.diagram, phi)])
    except FactorizeError:
        return False
    return True


def _by_family(sources: dict[str, Diagram] | ProObject) -> dict[str, Diagram | ProObject]:
    """sources by family name; a ProObject is the source of phi, the one
    family of a map of towers."""
    return {"phi": sources} if isinstance(sources, ProObject) else sources


def restrict(p: PreMorphism, alpha: dict[str, str], sources: dict[str, Diagram] | ProObject) -> PreMorphism:
    """p moved up to an index map alpha >= p.alpha: each component after
    its source's restriction arrow."""
    by_family = _by_family(sources)
    families = {
        name: {b: compose(comps[b], by_family[name].arrow(a, p.alpha[b])) for b, a in alpha.items()}
        for name, comps in p.families.items()
    }
    return PreMorphism(alpha, families)


def pm_leq(sources: dict[str, Diagram] | ProObject, p: PreMorphism, q: PreMorphism) -> bool:
    """p <= q iff q is a restriction of p to higher indices."""
    a_shape = next(iter(_by_family(sources).values())).shape
    return all(a_shape.le(p.alpha[b], a) for b, a in q.alpha.items()) and restrict(p, q.alpha, sources) == q


def pm_compose(q: PreMorphism, p: PreMorphism) -> PreMorphism:
    """Compose pre-morphisms p: F -> G and q: G -> H, family by family."""
    alpha = {c: p.alpha[q.alpha[c]] for c in q.alpha}
    families = {
        name: {c: compose(comps[c], p.families[name][q.alpha[c]]) for c in q.alpha}
        for name, comps in q.families.items()
    }
    return PreMorphism(alpha, families)


def pm_identity(sources: dict[str, Diagram] | ProObject) -> PreMorphism:
    """The identity pre-morphism of the families' source diagrams."""
    by_family = _by_family(sources)
    elements = next(iter(by_family.values())).shape.elements
    return PreMorphism(
        {a: a for a in elements},
        {name: {a: identity(source.at(a)) for a in elements} for name, source in by_family.items()},
    )


def is_raw_morphism(F: ProObject, G: ProObject, raw: RawMorphism) -> bool:
    for b in G.shape.elements:
        entry = raw.rep.get(b)
        if entry is None:
            return False
        a, m = entry
        if a not in F.shape or m.source != F.at(a) or m.target != G.at(b):
            return False
    for b, b2 in G.shape.strict_pairs():
        a, m = raw.rep[b]
        a2, m2 = raw.rep[b2]
        ok, _ = eq_in_colim(F.diagram, a, compose(G.arrow(b, b2), m), a2, m2)
        if not ok:
            return False
    return True


def _least_successor(a_shape: FinPoset, at_least: str, strictly_above: list[str]) -> str:
    """The least index usable as the next value of a strictly increasing
    index map: at or above the accumulated bound, strictly above every
    already-assigned lower value."""
    for a in a_shape.upset(at_least):
        if all(a_shape.lt(s, a) for s in strictly_above):
            return a
    raise TruncationExhausted(
        f"truncation exhausted: no index above {at_least!r} clears {strictly_above!r}"
    )


def _build_component(
    F: ProObject,
    G: ProObject,
    b: str,
    start_index: str,
    start_map: BaseMorphism,
    alpha: dict[str, str],
    phi: dict[str, BaseMorphism],
) -> tuple[str, BaseMorphism]:
    """The inner induction shared by straightening and merging: push the
    candidate representative up until it is natural against every
    already-built lower component, then settle on a strict successor."""
    cur_a, cur_m = start_index, start_map
    lower = G.shape.strict_downset(b)
    for b2 in lower:
        ok, witness = eq_in_colim(
            F.diagram, cur_a, compose(G.arrow(b, b2), cur_m), alpha[b2], phi[b2]
        )
        if not ok:
            raise TruncationExhausted(
                f"truncation exhausted: no equalizing bound for {b!r} against {b2!r}"
            )
        cur_m = compose(cur_m, F.arrow(witness, cur_a))
        cur_a = witness
    final = _least_successor(F.shape, cur_a, [alpha[b2] for b2 in lower])
    return final, compose(cur_m, F.arrow(final, cur_a))


def straighten(F: ProObject, G: ProObject, raw: RawMorphism) -> PreMorphism:
    """Turn per-element representatives into a strict pre-morphism by a
    degree-ordered recursion, re-indexing upward as needed."""
    if not is_raw_morphism(F, G, raw):
        raise ProCalcError("invalid raw morphism")
    alpha: dict[str, str] = {}
    phi: dict[str, BaseMorphism] = {}
    for b in G.shape.in_degree_order():
        a, m = raw.rep[b]
        alpha[b], phi[b] = _build_component(F, G, b, a, m, alpha, phi)
    return PreMorphism(alpha, {"phi": phi})


def dominate(F: ProObject, G: ProObject, p: PreMorphism, q: PreMorphism) -> PreMorphism:
    """A common upper bound of two pre-morphisms presenting the same map.

    Raises ProCalcError("not colim-equal ...") when some pair of components
    fails to agree at any common index, and TruncationExhausted when the
    truncation lacks room for the recursion.
    """
    alpha: dict[str, str] = {}
    phi: dict[str, BaseMorphism] = {}
    for b in G.shape.in_degree_order():
        ok, a0 = eq_in_colim(F.diagram, p.alpha[b], p.phi[b], q.alpha[b], q.phi[b])
        if not ok:
            raise ProCalcError(f"not colim-equal at {b!r}")
        merged = compose(p.phi[b], F.arrow(a0, p.alpha[b]))
        alpha[b], phi[b] = _build_component(F, G, b, a0, merged, alpha, phi)
    return PreMorphism(alpha, {"phi": phi})
