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
    BaseObject,
    compose,
    composite_mapping,
    factorize_base,
    factorize_mid_map,
    induced_into_pullback,
    pullback,
)
from .diagrams import (
    Diagram,
    DiagramError,
    Limit,
    NatTrans,
    PartialDiagram,
    cone_into_limit,
    is_levelwise,
    is_special,
    matching_object,
)


class FactorizeError(ValueError):
    pass


@dataclass(frozen=True)
class StepData:
    """Per-element bookkeeping: the middle diagram's matching limit, the
    matching pullback and the map into it."""

    limit: Limit  # of H over the strict downset of x
    pullback: tuple[BaseObject, BaseMorphism, BaseMorphism]  # (carrier, to limit, to D(x))
    into_pullback: BaseMorphism  # C(x) -> pullback


@dataclass(frozen=True)
class ReedyFactorization:
    input: NatTrans
    mid: Diagram
    left: NatTrans  # levelwise injective
    right: NatTrans  # special surjective
    details: dict[str, StepData] = field(compare=False, repr=False, default_factory=dict)
    report: dict[str, bool] = field(compare=False, default_factory=dict)

    def verify(self, target: PartialDiagram | None = None) -> dict[str, bool]:
        """target, when given, is the construction's memo of the input
        diagram self.input.target, whose matching limits and fibers' maps
        into them depend on that diagram alone.  Nothing else is shared:
        every limit of the middle diagram, and each middle fiber's map
        into it, is taken here."""
        shape = self.input.shape
        composite = all(
            compose(self.right.at(x), self.left.at(x)) == self.input.at(x) for x in shape.elements
        )
        return {
            "composite_equals_input": composite,
            "left_levelwise_injective": is_levelwise(self.left, "N"),
            "right_special_surjective": is_special(self.right, "M", target),
        }


def _step(
    f: NatTrans,
    target: PartialDiagram,
    mid: PartialDiagram,
    left: dict[str, BaseMorphism],
    right: dict[str, BaseMorphism],
    details: dict[str, StepData],
    x: str,
) -> None:
    """Extend a partial factorization to one more element whose strict
    downset is already covered; target is f.target and mid the middle
    diagram built so far, each with its memo of matching limits."""
    lim_mid, mid_to_tgt, fiber_to_tgt = matching_object(mid, target, right, x)
    # the limit leg goes first: the middle fibers' carrier ids follow it
    pb = pullback(mid_to_tgt, fiber_to_tgt)
    _, proj_lim, proj_fiber = pb
    legs = {s: compose(left[s], f.source.arrow(x, s)) for s in f.shape.strict_downset(x)}
    u = induced_into_pullback(pb, cone_into_limit(f.source.at(x), legs, lim_mid), f.at(x))
    triple = factorize_base(u)
    mid.attach(x, triple.mid, compose(proj_lim, triple.right))
    left[x] = triple.left
    right[x] = compose(proj_fiber, triple.right)
    details[x] = StepData(lim_mid, pb, u)


def _construct(f: NatTrans, target: PartialDiagram):
    """Run _step over every element in (degree, canonical) order; target is
    PartialDiagram.of(f.target).  The middle diagram's memo is local to this
    call, so it is gone before the result is assembled and verified."""
    mid = PartialDiagram(f.shape)
    left: dict[str, BaseMorphism] = {}
    right: dict[str, BaseMorphism] = {}
    details: dict[str, StepData] = {}
    for x in f.shape.in_degree_order():
        _step(f, target, mid, left, right, details, x)
    return mid.objects, mid.arrows, left, right, details


def reedy(f: NatTrans) -> ReedyFactorization:
    """Factor f into a levelwise-injective map followed by a special
    surjective map, processing elements in (degree, canonical) order.  The
    matching limits of f.target, and its fibers' maps into them, are taken
    once, for the construction and its verification alike."""
    target = PartialDiagram.of(f.target)
    mid_objects, mid_arrows, left, right, details = _construct(f, target)
    mid = Diagram.make(f.shape, mid_objects, mid_arrows)
    left_nt = NatTrans.make(f.source, mid, left)
    right_nt = NatTrans.make(mid, f.target, right)
    rf = ReedyFactorization(f, mid, left_nt, right_nt, details)
    object.__setattr__(rf, "report", rf.verify(target))
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


def chi_construct(
    f: NatTrans,
    t: NatTrans,
    pm: PreMorphism,
    rf_f: ReedyFactorization | None = None,
    rf_t: ReedyFactorization | None = None,
) -> PreMorphism:
    """Build the middle component family by degree recursion over the
    target index poset, using the strict base functoriality at each step.

    At b over a = alpha(b), the map k between the matching pullbacks is
    induced by chi below b after the limit leg and by psi after the fiber
    leg; FactorizeError when that span does not commute."""
    check_arrow_pre_morphism(pm, f, t)
    rf_f = rf_f if rf_f is not None else reedy(f)
    rf_t = rf_t if rf_t is not None else reedy(t)
    b_shape = t.shape
    chi: dict[str, BaseMorphism] = {}
    for b in b_shape.in_degree_order():
        sd_f = rf_f.details[pm.alpha[b]]
        sd_t = rf_t.details[b]
        carrier_f, to_limit_f, to_fiber_f = sd_f.pullback
        proj_f = sd_f.limit[1]
        legs = {
            b2: compose(chi[b2], compose(proj_f[pm.alpha[b2]], to_limit_f)) for b2 in b_shape.strict_downset(b)
        }
        try:
            into_limit = cone_into_limit(carrier_f, legs, sd_t.limit)
            k = induced_into_pullback(sd_t.pullback, into_limit, compose(pm.psi[b], to_fiber_f))
        except (BaseError, DiagramError):
            raise FactorizeError(f"induced pullback map undefined at {b!r}") from None
        chi[b] = factorize_mid_map(sd_f.into_pullback, sd_t.into_pullback, pm.phi[b], k)
    return PreMorphism(dict(pm.alpha), {"chi": chi})


def functorial_factorization_pro(
    f: NatTrans,
    t: NatTrans | None = None,
    pm: PreMorphism | None = None,
) -> tuple[ReedyFactorization, ReedyFactorization | None, PreMorphism | None]:
    """The arrow-level section: factor both arrow objects and, when a
    pre-morphism between them is given, produce the middle map."""
    rf_f = reedy(f)
    if t is None or pm is None:
        return rf_f, None, None
    rf_t = reedy(t)
    chim = chi_construct(f, t, pm, rf_f, rf_t)
    return rf_f, rf_t, chim
