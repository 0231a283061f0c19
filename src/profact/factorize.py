"""Reedy factorizations of poset-indexed transformations, and the induced
action on arrows presented by index-reparametrizing pre-morphisms.

Every transformation f: C -> D over a finite poset factors as a levelwise
injective map into a middle diagram followed by a special surjective map.
The middle fiber at each element is produced by the base factorization of
the canonical map into the matching pullback, so the whole construction is
deterministic and restriction-coherent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import (
    BaseError,
    BaseMorphism,
    compose,
    composite_mapping,
    factorize_base,
    factorize_mid_map,
)
from .diagrams import (
    Diagram,
    DiagramError,
    Limit,
    NatTrans,
    attach,
    into_limit,
    is_levelwise,
    is_special,
    matching_pullback,
)


class FactorizeError(ValueError):
    pass


@dataclass(frozen=True)
class StepData:
    """Per-element bookkeeping: the matching pullback and the map into it."""

    pullback: Limit  # P(x), projecting to H(s) for s < x and to D(x) under x
    into_pullback: BaseMorphism  # C(x) -> P(x)


@dataclass(frozen=True)
class ReedyFactorization:
    input: NatTrans
    mid: Diagram
    left: NatTrans  # levelwise injective
    right: NatTrans  # special surjective
    details: dict[str, StepData] = field(compare=False, repr=False, default_factory=dict)
    report: dict[str, bool] = field(compare=False, default_factory=dict)

    def verify(self) -> dict[str, bool]:
        """The report, taken from the three transformations alone: nothing
        of the construction is shared, every matching pullback is taken
        again."""
        left, right, given = self.left.components, self.right.components, self.input.components
        # composite_mapping checks that left ends where right starts; with
        # the outer ends compared too, equal mappings mean equal maps
        composite = all(
            left[x].source == given[x].source
            and right[x].target == given[x].target
            and composite_mapping(right[x], left[x]) == given[x].mapping
            for x in self.input.shape.elements
        )
        return {
            "composite_equals_input": composite,
            "left_levelwise_injective": is_levelwise(self.left, "N"),
            "right_special_surjective": is_special(self.right, "M"),
        }


def _step(
    f: NatTrans,
    mid: Diagram,
    left: dict[str, BaseMorphism],
    right: dict[str, BaseMorphism],
    details: dict[str, StepData],
    x: str,
) -> None:
    """Extend a partial factorization to one more element whose strict
    downset is already covered; mid is the middle diagram built so far."""
    pb = matching_pullback(mid, right, f.target, x)
    apex, projections = f.source.at(x), pb[1]
    # the legs are read as columns in apex's carrier order, as the index wants
    columns = [composite_mapping(left[s], f.source.arrow(x, s)).values() for s in f.shape.strict_downset(x)]
    columns.append(map(f.at(x).mapping.__getitem__, apex.carrier))
    u = into_limit(apex, columns, pb)
    triple = factorize_base(u)
    attach(mid, x, triple.mid, triple.right, projections)
    left[x] = triple.left
    right[x] = compose(projections[x], triple.right)
    details[x] = StepData(pb, u)


def reedy(f: NatTrans) -> ReedyFactorization:
    """Factor f into a levelwise-injective map followed by a special
    surjective map, running _step in (degree, canonical) order."""
    mid = Diagram(f.shape, {}, {})
    left: dict[str, BaseMorphism] = {}
    right: dict[str, BaseMorphism] = {}
    details: dict[str, StepData] = {}
    for x in f.shape.in_degree_order():
        _step(f, mid, left, right, details, x)
    # rebinding mid frees the unchecked middle diagram before verification
    mid = Diagram.make(f.shape, mid.objects, mid.arrows)
    left_nt = NatTrans.make(f.source, mid, left)
    right_nt = NatTrans.make(mid, f.target, right)
    rf = ReedyFactorization(f, mid, left_nt, right_nt, details)
    object.__setattr__(rf, "report", rf.verify())
    return rf


@dataclass(frozen=True)
class PreMorphism:
    """An index map alpha: B -> A plus named families of components
    X(alpha(b)) -> Y(b), read as attributes: pm.phi for towers, pm.phi and
    pm.psi for arrow objects, chim.chi for a middle map."""

    alpha: dict[str, str]
    families: dict[str, dict[str, BaseMorphism]]

    def __post_init__(self) -> None:
        # each family is an instance attribute too, as fast to read as a
        # field: chi_construct reads pm.phi[b] and pm.psi[b] at every b
        self.__dict__.update(self.families)


def _natural_at(alpha: dict[str, str], source: Diagram, target: Diagram, components: dict, b: str, b2: str) -> bool:
    """Whether components X(alpha(-)) -> Y(-) commute with X's and Y's arrows
    along b >= b2.  The components must be typed, so the two sides are
    compared by their mappings."""
    left = composite_mapping(components[b2], source.arrow(alpha[b], alpha[b2]))
    return left == composite_mapping(target.arrow(b, b2), components[b])


def check_pre_morphism(
    alpha: dict[str, str],
    families: list[tuple[str, Diagram, Diagram, dict[str, BaseMorphism]]],
) -> None:
    """Check a pre-morphism: a strictly increasing index map alpha: B -> A
    plus, for each named family (name, X over A, Y over B, components), a
    natural family of components X(alpha(b)) -> Y(b).

    Raises FactorizeError naming the first failure.
    """
    a_shape, b_shape = families[0][1].shape, families[0][2].shape
    for b in b_shape.elements:
        if alpha.get(b) not in a_shape:
            raise FactorizeError(f"index map undefined or out of range at {b!r}")
    for b, b2 in b_shape.strict_pairs():
        if not a_shape.lt(alpha[b2], alpha[b]):
            raise FactorizeError(f"index map is not strictly increasing on {b2!r} < {b!r}")
    for b in b_shape.elements:
        for name, source, target, components in families:
            comp = components.get(b)
            if comp is None or comp.source != source.at(alpha[b]) or comp.target != target.at(b):
                raise FactorizeError(f"ill-typed {name} component at {b!r}")
    for b, b2 in b_shape.strict_pairs():
        for name, source, target, components in families:
            if not _natural_at(alpha, source, target, components, b, b2):
                raise FactorizeError(f"{name} family not natural on {b!r} >= {b2!r}")


def check_arrow_pre_morphism(pm: PreMorphism, f: NatTrans, t: NatTrans) -> None:
    """Check a pre-morphism between arrow objects f: E -> F over A and
    t: K -> G over B: the families phi: E(alpha(b)) -> K(b) and
    psi: F(alpha(b)) -> G(b) are natural and their squares commute."""
    check_pre_morphism(pm.alpha, [("top", f.source, t.source, pm.phi), ("bottom", f.target, t.target, pm.psi)])
    # the components are typed by now, so each square compares mappings
    for b in t.shape.elements:
        if composite_mapping(pm.psi[b], f.at(pm.alpha[b])) != composite_mapping(t.at(b), pm.phi[b]):
            raise FactorizeError(f"component square does not commute at {b!r}")


def verify_chi(
    chim: PreMorphism, pm: PreMorphism, rf_f: ReedyFactorization, rf_t: ReedyFactorization
) -> dict[str, bool]:
    """The report of a middle map chi: H_f(alpha(b)) -> H_t(b) for pm: its
    rectangles against the left and right legs, and its naturality in b."""
    alpha, chi = chim.alpha, chim.chi
    # the left rectangle fails for a chi[b] whose target is not H_t(b) and
    # raises for one whose source is not H_f(alpha(b)), so naturality
    # compares mappings only
    top = all(compose(chi[b], rf_f.left.at(alpha[b])) == compose(rf_t.left.at(b), pm.phi[b]) for b in chi)
    bottom = all(compose(pm.psi[b], rf_f.right.at(alpha[b])) == compose(rf_t.right.at(b), chi[b]) for b in chi)
    natural = all(_natural_at(alpha, rf_f.mid, rf_t.mid, chi, b, b2) for b, b2 in rf_t.input.shape.strict_pairs())
    return {"left_rectangle": top, "right_rectangle": bottom, "natural": natural}


def chi_construct(pm: PreMorphism, rf_f: ReedyFactorization, rf_t: ReedyFactorization) -> PreMorphism:
    """Build the middle component family of pm: f -> t, where rf_f and rf_t
    factor f and t, by degree recursion over the target index poset, using
    the strict base functoriality at each step.

    At b over a = alpha(b), the map k between the matching pullbacks is
    induced by chi below b after the projections and by psi after the
    projection to F(a); FactorizeError when those legs do not form a cone
    over the target's matching cospan."""
    check_arrow_pre_morphism(pm, rf_f.input, rf_t.input)
    b_shape = rf_t.input.shape
    chi: dict[str, BaseMorphism] = {}
    for b in b_shape.in_degree_order():
        sd_f = rf_f.details[pm.alpha[b]]
        sd_t = rf_t.details[b]
        carrier_f, proj_f = sd_f.pullback
        try:
            columns = [composite_mapping(chi[b2], proj_f[pm.alpha[b2]]).values() for b2 in b_shape.strict_downset(b)]
            columns.append(composite_mapping(pm.psi[b], proj_f[pm.alpha[b]]).values())
            k = into_limit(carrier_f, columns, sd_t.pullback)
        except (BaseError, DiagramError):
            raise FactorizeError(f"induced pullback map undefined at {b!r}") from None
        chi[b] = factorize_mid_map(sd_f.into_pullback, sd_t.into_pullback, pm.phi[b], k)
    return PreMorphism(dict(pm.alpha), {"chi": chi})


def functorial_factorization_pro(
    f: NatTrans, t: NatTrans, pm: PreMorphism
) -> tuple[ReedyFactorization, ReedyFactorization, PreMorphism]:
    """The arrow-level section: factor both arrow objects and produce the
    middle map of the pre-morphism between them."""
    rf_f, rf_t = reedy(f), reedy(t)
    return rf_f, rf_t, chi_construct(pm, rf_f, rf_t)
