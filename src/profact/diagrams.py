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
    CLASSES,
    TERMINAL,
    compose,
    composite_mapping,
    identity,
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
        """The restriction of a functor is a functor, so it is built without
        Diagram.make's checks; its arrows are read off the downsets of the
        restricted shape, which are the members' own."""
        if reysha.parent != self.shape:
            raise DiagramError("Reysha belongs to a different poset")
        shape = self.shape.restrict(reysha.members)
        return Diagram(
            shape,
            {x: self.objects[x] for x in shape.elements},
            {(x, y): self.arrows[(x, y)] for x in shape.elements for y in shape.downset(x)},
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
        return NatTrans(
            self.source.restrict(reysha),
            self.target.restrict(reysha),
            {x: self.components[x] for x in reysha.members},
        )


class Limit(tuple):
    """A limit's carrier and its projections, read as that pair.

    index is what cone_into_limit looks a cone's legs up in: the elements
    of the limit's shape, and the carrier element of each compatible
    family of values on them.  Each builder sets it from the value columns
    the limit is built from.  The pullback matching_data returns has the
    index and an empty dict of projections, since no caller reads them.
    """

    index: tuple[tuple[str, ...], dict[tuple[str, ...], str]]


def limit_over_poset(diagram: Diagram) -> Limit:
    """The limit of a diagram over a finite poset: all compatible families.

    The empty shape yields the terminal one-point object.  Carrier ids are
    positional ("l0", "l1", ...) in the canonical enumeration order, which
    is the lexicographic order on the values at the maximal elements
    (everything else is determined by the arrows).
    """
    return _limit(diagram, diagram.shape.elements)


def matching_limit(diagram: Diagram, x: str) -> Limit:
    """The limit of the diagram restricted to the strict downset of x,
    taken without restricting: the diagram need only be built below x."""
    return _limit(diagram, diagram.shape.strict_downset(x))


def _limit(diagram: Diagram, members: tuple[str, ...]) -> Limit:
    """The limit over members, a downward closed subset of the shape in
    canonical order, with a projection to each member.

    The families are built as an ordered join: the maximal fibers are added
    one at a time, each bucketed by its values on the elements that earlier
    maximals already fix, so only compatible extensions are ever visited.
    Extending each partial family by its bucket in carrier order keeps the
    lexicographic order.  A family is the tuple of its values at the
    maximal elements; every element reads its value through the first
    maximal element above it.
    """
    if not members:
        limit = Limit((TERMINAL, {}))
        limit.index = (), {(): "*"}
        return limit
    shape = diagram.shape
    # a member is maximal iff it lies in no member's strict downset
    covered = {y for x in members for y in shape.strict_downset(x)}
    maximal = [x for x in members if x not in covered]
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
    columns = [_values_through(through[x], families) for x in members]
    return _from_columns("l", members, [diagram.at(x) for x in members], columns)


def _indexed(prefix: str, order: tuple[str, ...], columns: list[list[str]]) -> Limit:
    """The Limit whose i-th element, prefix + str(i), has the i-th value of
    each column, with the index read off the columns and no projections:
    all that into_limit and cone_into_limit read."""
    ids = tuple([f"{prefix}{i}" for i in range(len(columns[0]))])
    limit = Limit((BaseObject(ids), {}))
    limit.index = order, dict(zip(zip(*columns), ids))
    return limit


def _from_columns(prefix: str, order: tuple[str, ...], fibers: list[BaseObject], columns: list[list[str]]) -> Limit:
    """_indexed's Limit with its projections: the one to the fiber of
    order[k] is read off columns[k]."""
    limit = _indexed(prefix, order, columns)
    carrier, projections = limit
    ids = carrier.carrier
    for s, o, c in zip(order, fibers, columns):
        projections[s] = BaseMorphism._trusted(carrier, o, dict(zip(ids, c)))
    return limit


def _values_through(through: tuple[int, dict[str, str]], families: list[tuple[str, ...]]) -> list[str]:
    """Each family's value at an element, read through the maximal value
    at position through[0] and the arrow mapping through[1]."""
    position, mapping = through
    return [mapping[family[position]] for family in families]


def into_limit(apex: BaseObject, columns: list[Iterable[str]], limit: Limit) -> BaseMorphism:
    """The map apex -> limit sending each apex element to the family of its
    entries in columns: one column per element of the index's order, each
    in apex's carrier order.  With no columns (the terminal limit) every
    key is ()."""
    families = limit.index[1]
    keys = zip(*columns) if columns else itertools.repeat((), len(apex.carrier))
    try:
        mapping = {e: families[key] for e, key in zip(apex.carrier, keys)}
    except KeyError:
        raise DiagramError("the legs do not form a cone over the limit's diagram") from None
    return BaseMorphism._trusted(apex, limit[0], mapping)


def cone_into_limit(apex: BaseObject, legs: dict[str, BaseMorphism], limit: Limit) -> BaseMorphism:
    """The map into a limit induced by a cone of legs apex -> D(s)."""
    return into_limit(apex, [[legs[x].mapping[e] for e in apex.carrier] for x in limit.index[0]], limit)


def limit_map(source_limit: Limit, target_limit: Limit, components: dict[str, BaseMorphism]) -> BaseMorphism:
    """The map of limits induced by levelwise maps commuting with the
    arrows.  Each leg is the component after the source projection, read
    as a column."""
    src_obj, src_proj = source_limit
    columns = [composite_mapping(components[x], src_proj[x]).values() for x in target_limit.index[0]]
    return into_limit(src_obj, columns, target_limit)


def matching_pullback(upper: Diagram, components: dict[str, BaseMorphism], lower: Diagram, x: str) -> Limit:
    """The matching pullback P(x) = M_x upper ×_{M_x lower} lower(x) of the
    components upper(s) -> lower(s) at the elements s below x.

    upper and lower are diagrams over one shape, upper built at least below
    x and lower at least up to x.  A row is a pair (family, d) of a
    compatible family of upper over the strict downset of x and a d in
    lower(x) with the same image in every lower(s).  Rows come
    family-major, the families in limit_over_poset's lexicographic order
    and each family's d in lower(x)'s carrier order, with ids p0, p1, ....
    The result is the Limit with a projection to upper(s) for each s below
    x and one to lower(x) under x itself, so its index is keyed by the
    values at every s below x and then d, and a leg family that is no
    cone, or lies over another d, is missing from it.
    """
    below = upper.shape.strict_downset(x)
    fibers = [upper.objects[s] for s in below] + [lower.objects[x]]
    return _from_columns("p", (*below, x), fibers, _matching_join(upper, components, lower, x))


def _matching_join(upper: Diagram, components: dict[str, BaseMorphism], lower: Diagram, x: str) -> list[list[str]]:
    """The rows of matching_pullback's P(x), in its order, as columns of
    values: one for each s below x, then one of d.

    Neither M_x upper nor the map of limits is built.  limit_over_poset's
    ordered join runs over the strict downset, and after each maximal
    element keeps only the partial families whose image under the
    components is the image of some d so far: lower(x) is grouped by its
    values below x, maximal element by maximal element, before the join.
    """
    shape = upper.shape
    below = shape.strict_downset(x)
    if not below:
        # at a minimal element P(x) is lower(x) itself, as the join builds it
        return [list(lower.objects[x].carrier)]
    # the types first: the join reads each component's values by id
    for s in below:
        comp = components.get(s)
        if comp is None or comp.source != upper.objects[s] or comp.target != lower.objects[s]:
            raise DiagramError(f"missing or ill-typed component at {s!r}")
    covered = {y for s in below for y in shape.strict_downset(s)}
    # per maximal element: the elements earlier ones fix, and those it fixes first
    stages = []
    fixed: set[str] = set()
    for m in [s for s in below if s not in covered]:
        down = [(y, upper.arrows[(m, y)].mapping) for y in shape.downset(m)]
        stages.append((m, [a for a in down if a[0] in fixed], [a for a in down if a[0] not in fixed]))
        fixed.update(shape.downset(m))
    # lower(x) grouped stage by stage: node (parent, values at the
    # elements the stage fixes first) -> child, each d under its last node
    children: dict[tuple, int] = {}
    leaves: dict[int, list[str]] = {}
    fiber_x = lower.objects[x].carrier
    stage_columns = [
        list(zip(*[[lower.arrows[(x, y)].mapping[d] for d in fiber_x] for y, _ in fresh])) for _, _, fresh in stages
    ]
    for i, d in enumerate(fiber_x):
        node = 0
        for column in stage_columns:
            node = children.setdefault((node, column[i]), len(children) + 1)
        leaves.setdefault(node, []).append(d)
    through: dict[str, tuple[int, dict[str, str]]] = {}
    families: list[tuple[str, ...]] = [()]
    nodes = [0]
    for i, (m, joined, fresh) in enumerate(stages):
        fiber = upper.objects[m].carrier
        # each value's image under the components where the stage fixes it first
        images = zip(*[[components[y].mapping[mapping[v]] for v in fiber] for y, mapping in fresh])
        if joined:
            buckets: dict[tuple[str, ...], list[tuple[str, tuple]]] = {}
            for key, v, image in zip(zip(*[[mapping[e] for e in fiber] for _, mapping in joined]), fiber, images):
                buckets.setdefault(key, []).append((v, image))
            keys = zip(*[_values_through(through[y], families) for y, _ in joined])
            extensions = [buckets.get(key, ()) for key in keys]
        else:
            extensions = itertools.repeat(list(zip(fiber, images)), len(families))
        grown: list[tuple[str, ...]] = []
        grown_nodes: list[int] = []
        for family, node, candidates in zip(families, nodes, extensions):
            for v, image in candidates:
                child = children.get((node, image))
                if child is not None:
                    grown.append(family + (v,))
                    grown_nodes.append(child)
        families, nodes = grown, grown_nodes
        for y, mapping in fresh:
            through[y] = (i, mapping)
    rows = [(family, d) for family, node in zip(families, nodes) for d in leaves.get(node, ())]
    columns = [_values_through(through[s], [family for family, _ in rows]) for s in below]
    columns.append([d for _, d in rows])
    return columns


def attach(
    diagram: Diagram, x: str, fiber: BaseObject, into: BaseMorphism, projections: dict[str, BaseMorphism]
) -> None:
    """Add x with its fiber to a diagram under construction, an unchecked
    Diagram(shape, {}, {}) grown in degree order.  into: fiber -> L maps
    into any L with the given projections to each fiber below x, as a
    matching limit or matching pullback has.  The arrow to each s below x
    is the projection to s after into, which keeps the grown diagram a
    functor."""
    diagram.objects[x] = fiber
    diagram.arrows[(x, x)] = identity(fiber)
    for s in diagram.shape.strict_downset(x):
        diagram.arrows[(x, s)] = compose(projections[s], into)


def is_levelwise(nt: NatTrans, cls: str) -> bool:
    """True iff every component lies in the named class ("N" or "M")."""
    pred = CLASSES[cls]
    return all(pred(nt.at(x)) for x in nt.shape.elements)


def matching_data(nt: NatTrans, x: str) -> tuple[Limit | None, BaseMorphism]:
    """The matching pullback P(x) at x and the relative map C(x) -> P(x),
    whose legs are the source's arrows out of x and the component at x.

    P(x) has matching_pullback's carrier and index but no projections.  At
    a minimal element P(x) is the target's fiber and the relative map is
    the component itself, so no pullback is built and None stands in its
    place.  Every walk takes its own: nothing is shared with a construction
    or another walk.
    """
    comp, source = nt.components.get(x), nt.source
    if comp is None or comp.source != source.at(x) or comp.target != nt.target.at(x):
        raise DiagramError(f"missing or ill-typed component at {x!r}")
    below = nt.shape.strict_downset(x)
    if not below:
        return None, comp
    pb = _indexed("p", (*below, x), _matching_join(source, nt.components, nt.target, x))
    legs = {s: source.arrows[(x, s)] for s in below}
    legs[x] = comp
    return pb, cone_into_limit(source.at(x), legs, pb)


class NotSpecial(DiagramError):
    """A relative matching map lies outside the class, or the family has
    none because a component is ill-typed or its squares do not commute."""


def special_matching_data(nt: NatTrans, cls: str = "M"):
    """The one walk that checks specialness: (x, matching_data at x) for
    each element in degree order.  Raises NotSpecial at the first element
    whose relative matching map is outside the class or does not exist, as
    for a family built without NatTrans.make that is ill-typed or whose
    squares do not commute.
    """
    pred = CLASSES[cls]
    for x in nt.shape.in_degree_order():
        try:
            data = matching_data(nt, x)
        except (BaseError, DiagramError) as exc:
            raise NotSpecial(f"no relative matching map at {x!r}") from exc
        if not pred(data[1]):
            raise NotSpecial(f"the relative matching map at {x!r} is not in {cls}")
        yield x, data


def is_special(nt: NatTrans, cls: str = "M") -> bool:
    """True iff the relative matching map lies in the class at every element.

    A family that is ill-typed or whose squares do not commute, which only
    a structure built without NatTrans.make can be, has no relative
    matching maps and is not special.
    """
    try:
        for _ in special_matching_data(nt, cls):
            pass
    except NotSpecial:
        return False
    return True
