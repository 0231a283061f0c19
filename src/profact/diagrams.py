"""Diagrams over finite posets valued in finite sets, and their transformations.

Order convention: the poset gives a single morphism u -> v iff u >= v, so a
diagram carries a map at(x) -> at(y) for every pair x >= y.  Arrows are
stored for all comparable pairs and functoriality is checked exhaustively.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .base import (
    BaseError,
    BaseMorphism,
    BaseObject,
    TERMINAL,
    compose,
    composite_mapping,
    identity,
    induced_into_pullback,
    is_in_m,
    is_in_n,
    pullback,
)
from .poset import FinPoset, Reysha


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class Diagram:
    shape: FinPoset
    objects: dict[str, BaseObject]
    arrows: dict[tuple[str, str], BaseMorphism]  # (x, y) with x >= y: at(x) -> at(y)

    @staticmethod
    def make(
        shape: FinPoset,
        objects: dict[str, BaseObject],
        arrows: dict[tuple[str, str], BaseMorphism] | None = None,
    ) -> "Diagram":
        arrows = dict(arrows or {})
        for x in shape.elements:
            if x not in objects:
                raise DiagramError(f"no fiber assigned to element {x!r}")
            arrows.setdefault((x, x), identity(objects[x]))
        diagram = Diagram(shape, dict(objects), arrows)
        diagram._validate()
        return diagram

    def _validate(self) -> None:
        # every pair, not only the comparable ones: an arrow on a
        # non-comparable pair, or on a pair outside the shape, is a fault too
        for x in self.shape.elements:
            for y in self.shape.elements:
                if self.shape.le(y, x):
                    arr = self.arrows.get((x, y))
                    if arr is None:
                        raise DiagramError(f"missing arrow for pair {x!r} >= {y!r}")
                    if arr.source != self.objects[x] or arr.target != self.objects[y]:
                        raise DiagramError(f"ill-typed arrow for pair {x!r} >= {y!r}")
                elif (x, y) in self.arrows:
                    raise DiagramError(f"arrow present for non-comparable pair ({x!r}, {y!r})")
        for x, y in self.arrows:
            if x not in self.shape or y not in self.shape:
                raise DiagramError(f"arrow present for pair ({x!r}, {y!r}) outside the shape")
        # the arrows are typed by now, so each law compares mappings.  A
        # chain through a repeated element is a composite with an identity,
        # so once every (x, x) arrow is one only the strict chains remain
        arrows = self.arrows
        for x in self.shape.elements:
            if any(e != v for e, v in arrows[(x, x)].mapping.items()):
                raise DiagramError(f"arrow for pair {x!r} >= {x!r} is not the identity")
        for x, y, z in self.shape.strict_chains():
            if composite_mapping(arrows[(y, z)], arrows[(x, y)]) != arrows[(x, z)].mapping:
                raise DiagramError(f"functoriality fails along {x!r} >= {y!r} >= {z!r}")

    def at(self, x: str) -> BaseObject:
        return self.objects[x]

    def arrow(self, x: str, y: str) -> BaseMorphism:
        return self.arrows[(x, y)]

    def restrict(self, reysha: Reysha) -> "Diagram":
        if reysha.parent != self.shape:
            raise DiagramError("Reysha belongs to a different poset")
        return _restriction(self, self.shape._restrict_downward(reysha.members))


def _restriction(diagram: Diagram | PartialDiagram, shape: FinPoset) -> Diagram:
    """The part of a Diagram or PartialDiagram over shape, which is its own
    shape restricted to a downward closed subset.

    The restriction of a functor is a functor, so it is built without
    Diagram.make's checks; its arrows are read off the downsets of shape.
    """
    objects, arrows = diagram.objects, diagram.arrows
    return Diagram(
        shape,
        {x: objects[x] for x in shape.elements},
        {(x, y): arrows[(x, y)] for x in shape.elements for y in shape.downset(x)},
    )


@dataclass(frozen=True)
class NatTrans:
    source: Diagram
    target: Diagram
    components: dict[str, BaseMorphism]

    @staticmethod
    def make(source: Diagram, target: Diagram, components: dict[str, BaseMorphism]) -> "NatTrans":
        nt = NatTrans(source, target, dict(components))
        nt._validate()
        return nt

    def _validate(self) -> None:
        if self.source.shape != self.target.shape:
            raise DiagramError("source and target diagrams have different shapes")
        for x in self.source.shape.elements:
            comp = self.components.get(x)
            if comp is None or comp.source != self.source.at(x) or comp.target != self.target.at(x):
                raise DiagramError(f"missing or ill-typed component at {x!r}")
        # the components are typed by now, so each square compares mappings
        for x, y in self.source.shape.strict_pairs():
            left = composite_mapping(self.components[y], self.source.arrow(x, y))
            right = composite_mapping(self.target.arrow(x, y), self.components[x])
            if left != right:
                raise DiagramError(f"naturality fails on {x!r} >= {y!r}")

    def at(self, x: str) -> BaseMorphism:
        return self.components[x]

    @property
    def shape(self) -> FinPoset:
        return self.source.shape

    def restrict(self, reysha: Reysha) -> "NatTrans":
        """The restriction of a natural transformation is natural, so it is
        built without NatTrans.make's checks."""
        source = self.source.restrict(reysha)
        return NatTrans(
            source,
            _restriction(self.target, source.shape),
            {x: self.components[x] for x in reysha.members},
        )


class Limit(tuple):
    """A limit's carrier and its projections, read as that pair.

    index is what cone_into_limit looks a cone's legs up in: the elements
    of the limit's shape, and the carrier element of each compatible
    family of values on them.  It is built on first use, since many limits
    are never mapped into; a limit that a memo shares shares its index.
    """

    # a plain property: functools.cached_property takes a lock on first
    # access on Python 3.11 and earlier
    _index = None

    @property
    def index(self) -> tuple[tuple[str, ...], dict[tuple[str, ...], str]]:
        if self._index is None:
            carrier, projections = self
            order = tuple(projections)
            if not order:
                self._index = order, {(): e for e in carrier.carrier}
            else:
                columns = [[projections[x].mapping[e] for e in carrier.carrier] for x in order]
                self._index = order, dict(zip(zip(*columns), carrier.carrier))
        return self._index


def limit_over_poset(diagram: Diagram) -> Limit:
    """The limit of a diagram over a finite poset: all compatible families.

    The empty shape yields the terminal one-point object.  Carrier ids are
    positional ("l0", "l1", ...) in the canonical enumeration order, which
    is the lexicographic order on the values at the maximal elements
    (everything else is determined by the arrows).

    The families are built as an ordered join: the maximal fibers are added
    one at a time, each bucketed by its values on the elements that earlier
    maximals already fix, so only compatible extensions are ever visited.
    Extending each partial family by its bucket in carrier order keeps the
    lexicographic order.  A family is the tuple of its values at the
    maximal elements; every element reads its value through the first
    maximal element above it.
    """
    shape = diagram.shape
    if not shape.elements:
        return Limit((TERMINAL, {}))
    # an element is maximal iff it lies in no strict downset
    covered = {y for x in shape.elements for y in shape.strict_downset(x)}
    maximal = [x for x in shape.elements if x not in covered]
    # element -> (position of the first maximal element above it, the
    # arrow's mapping from that maximal fiber)
    through: dict[str, tuple[int, dict[str, str]]] = {}
    families: list[tuple[str, ...]] = [()]
    for i, m in enumerate(maximal):
        fiber = diagram.at(m).carrier
        below = [(y, diagram.arrow(m, y).mapping) for y in shape.downset(m)]
        joined = [(y, mapping) for y, mapping in below if y in through]
        if joined:
            buckets: dict[tuple[str, ...], list[str]] = {}
            for key, v in zip(zip(*[[mapping[e] for e in fiber] for _, mapping in joined]), fiber):
                buckets.setdefault(key, []).append(v)
            fixed = zip(*[_values_through(through[y], families) for y, _ in joined])
            families = [family + (v,) for family, key in zip(families, fixed) for v in buckets.get(key, ())]
        else:
            families = [family + (v,) for family in families for v in fiber]
        for y, mapping in below:
            through.setdefault(y, (i, mapping))
    ids = tuple([f"l{i}" for i in range(len(families))])
    carrier = BaseObject(ids)
    projections = {
        x: BaseMorphism._trusted(carrier, diagram.at(x), dict(zip(ids, _values_through(through[x], families))))
        for x in shape.elements
    }
    return Limit((carrier, projections))


def _values_through(through: tuple[int, dict[str, str]], families: list[tuple[str, ...]]) -> list[str]:
    """Each family's value at an element, read through the maximal value
    at position through[0] and the arrow mapping through[1]."""
    position, mapping = through
    return [mapping[family[position]] for family in families]


def _into_limit(apex: BaseObject, columns: list[Iterable[str]], limit: Limit, families: dict) -> BaseMorphism:
    """The map apex -> limit sending each apex element to the family of its
    entries in columns, one column per element of the index's order.  With
    no columns (the terminal limit) every key is ()."""
    keys = zip(*columns) if columns else itertools.repeat((), len(apex.carrier))
    try:
        mapping = {e: families[key] for e, key in zip(apex.carrier, keys)}
    except KeyError:
        raise DiagramError("the legs do not form a cone over the limit's diagram") from None
    return BaseMorphism._trusted(apex, limit[0], mapping)


def cone_into_limit(apex: BaseObject, legs: dict[str, BaseMorphism], limit: Limit) -> BaseMorphism:
    """The map into a limit induced by a cone of legs apex -> D(s)."""
    order, families = limit.index
    return _into_limit(apex, [[legs[x].mapping[e] for e in apex.carrier] for x in order], limit, families)


def limit_map(source_limit: Limit, target_limit: Limit, components: dict[str, BaseMorphism]) -> BaseMorphism:
    """The map of limits induced by levelwise maps commuting with the
    arrows.  Each leg is the component after the source projection, read
    as a column."""
    src_obj, src_proj = source_limit
    order, families = target_limit.index
    columns = [composite_mapping(components[x], src_proj[x]).values() for x in order]
    return _into_limit(src_obj, columns, target_limit, families)


class PartialDiagram:
    """A diagram that may still be growing element by element, with each
    matching limit computed once per strict downset and each fiber's map
    into its matching limit computed once per element.

    objects and arrows are the caller's dicts and are read as they grow;
    attach adds an element.  An element is added only after its whole
    strict downset, and nothing added earlier changes, so a limit over a
    strict downset stays valid and two elements with the same strict
    downset share it, together with its index.  A fiber's map into its
    limit depends on the diagram alone, never on a transformation into or
    out of it, so every walk that shares the memo may read it.  The memo
    lives as long as this object: a construction builds one and drops it
    when done.
    """

    def __init__(
        self,
        shape: FinPoset,
        objects: dict[str, BaseObject] | None = None,
        arrows: dict[tuple[str, str], BaseMorphism] | None = None,
    ) -> None:
        self.shape = shape
        self.objects = {} if objects is None else objects
        self.arrows = {} if arrows is None else arrows
        self._limits: dict[tuple[str, ...], Limit] = {}
        self._fiber_maps: dict[str, BaseMorphism] = {}

    @staticmethod
    def of(diagram: Diagram) -> "PartialDiagram":
        return PartialDiagram(diagram.shape, diagram.objects, diagram.arrows)

    def matching_limit(self, x: str) -> Limit:
        """The limit of the diagram restricted to the strict downset of x."""
        strict = self.shape.strict_downset(x)
        limit = self._limits.get(strict)
        if limit is None:
            below = _restriction(self, self.shape._restrict_downward(strict))
            limit = self._limits[strict] = limit_over_poset(below)
        return limit

    def fiber_map(self, x: str) -> BaseMorphism:
        """The map from the fiber at x into matching_limit(x) whose legs are
        the arrows out of x; x must already be added."""
        into = self._fiber_maps.get(x)
        if into is None:
            legs = {s: self.arrows[(x, s)] for s in self.shape.strict_downset(x)}
            into = self._fiber_maps[x] = cone_into_limit(self.objects[x], legs, self.matching_limit(x))
        return into

    def attach(self, x: str, fiber: BaseObject, into: BaseMorphism) -> None:
        """Add x with its fiber and into: fiber -> matching_limit(x).  The
        arrow to each s below x is the projection to s after into, which
        keeps the grown diagram a functor."""
        projections = self.matching_limit(x)[1]
        self.objects[x] = fiber
        self.arrows[(x, x)] = identity(fiber)
        for s in self.shape.strict_downset(x):
            self.arrows[(x, s)] = compose(projections[s], into)


def matching_object(
    source: PartialDiagram,
    target: PartialDiagram,
    components: dict[str, BaseMorphism],
    x: str,
) -> tuple[Limit, BaseMorphism, BaseMorphism]:
    """The source matching limit at x and the cospan whose pullback is the
    matching object of a transformation into target.

    source needs to be built at least up to below x, target at least up to
    x, and components at least on the strict downset of x.  Returns
    (source matching limit, the map of matching limits induced by the
    components, the target fiber's map into the target matching limit).
    Each caller takes the pullback with its own leg order, since carrier
    ids follow that order.
    """
    src_limit = source.matching_limit(x)
    tgt_limit = target.matching_limit(x)
    limit_of_components = limit_map(src_limit, tgt_limit, components)
    return src_limit, limit_of_components, target.fiber_map(x)


def is_levelwise(nt: NatTrans, cls: str) -> bool:
    """True iff every component lies in the named class ("N" or "M")."""
    pred = {"N": is_in_n, "M": is_in_m}[cls]
    return all(pred(nt.at(x)) for x in nt.shape.elements)


def matching_data(
    nt: NatTrans, x: str, source: PartialDiagram | None = None, target: PartialDiagram | None = None
):
    """The matching pullback at x and the relative map into it.

    source and target, when given, are PartialDiagram.of(nt.source) and
    PartialDiagram.of(nt.target) kept across the elements of one walk, so
    their matching limits and fibers' maps are computed once.  Returns
    (source matching limit, pullback as (carrier, projection to target
    fiber, projection to the source matching limit), relative map
    source.at(x) -> pullback).
    """
    source = PartialDiagram.of(nt.source) if source is None else source
    target = PartialDiagram.of(nt.target) if target is None else target
    src_limit, limit_of_components, fiber_to_limit = matching_object(source, target, nt.components, x)
    pb = pullback(fiber_to_limit, limit_of_components)
    relative = induced_into_pullback(pb, nt.at(x), source.fiber_map(x))
    return src_limit, pb, relative


class NotSpecial(DiagramError):
    """A relative matching map lies outside the class, or the family has
    none because its squares do not commute."""


def special_matching_data(nt: NatTrans, cls: str = "M", target: PartialDiagram | None = None):
    """The one walk that checks specialness: (x, matching_data at x) for
    each element in degree order, over one pair of memos (target as for
    matching_data).  Raises NotSpecial at the first element whose
    relative matching map is outside the class or does not exist, as for a
    family built without NatTrans.make whose squares do not commute.
    """
    pred = {"N": is_in_n, "M": is_in_m}[cls]
    source = PartialDiagram.of(nt.source)
    target = PartialDiagram.of(nt.target) if target is None else target
    for x in nt.shape.in_degree_order():
        try:
            data = matching_data(nt, x, source, target)
        except (BaseError, DiagramError) as exc:
            raise NotSpecial(f"no relative matching map at {x!r}") from exc
        if not pred(data[2]):
            raise NotSpecial(f"the relative matching map at {x!r} is not in {cls}")
        yield x, data


def is_special(nt: NatTrans, cls: str = "M", target: PartialDiagram | None = None) -> bool:
    """True iff the relative matching map lies in the class at every element.

    A family whose squares do not commute, which only a structure built
    without NatTrans.make can be, has no relative matching maps and is not
    special.  target is as for matching_data; nt.source's limits are
    always taken here.
    """
    try:
        for _ in special_matching_data(nt, cls, target=target):
            pass
    except NotSpecial:
        return False
    return True
