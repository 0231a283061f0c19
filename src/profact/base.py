"""The base category: finite sets, with injections-then-surjections factorization.

The mid object of the functorial factorization is the tagged disjoint union
of source and target, so the construction is strictly functorial and all
outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class BaseError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class BaseObject:
    """A finite set with a canonical carrier order."""

    carrier: tuple[str, ...]
    _members: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        members = frozenset(self.carrier)
        if len(members) != len(self.carrier):
            raise BaseError("duplicate element ids in carrier")
        object.__setattr__(self, "_members", members)

    def __contains__(self, x: str) -> bool:
        return x in self._members

    def __len__(self) -> int:
        return len(self.carrier)


TERMINAL = BaseObject(("*",))


@dataclass(frozen=True, slots=True)
class BaseMorphism:
    source: BaseObject
    target: BaseObject
    mapping: dict[str, str]

    def __post_init__(self) -> None:
        if set(self.mapping) != set(self.source.carrier):
            raise BaseError("assignment is not total on the source carrier")
        for v in self.mapping.values():
            if v not in self.target:
                raise BaseError(f"assignment value {v!r} outside target carrier")

    @classmethod
    def _trusted(cls, source: BaseObject, target: BaseObject, mapping: dict[str, str]) -> "BaseMorphism":
        """A morphism whose mapping is total and lands in the target by
        construction: the results of compose, identity, the pullback maps,
        the base factorization and its mid maps, and the limit maps.  It
        skips the checks; the public constructor keeps them."""
        morphism = object.__new__(cls)
        _set_source(morphism, source)
        _set_target(morphism, target)
        _set_mapping(morphism, mapping)
        return morphism

    def __call__(self, x: str) -> str:
        return self.mapping[x]


# the slots' member descriptors set a field directly, past the frozen
# __setattr__, in half the time object.__setattr__ takes
_set_source = BaseMorphism.source.__set__
_set_target = BaseMorphism.target.__set__
_set_mapping = BaseMorphism.mapping.__set__


def identity(obj: BaseObject) -> BaseMorphism:
    return BaseMorphism._trusted(obj, obj, {x: x for x in obj.carrier})


def morphism(source: BaseObject, target: BaseObject, mapping: dict[str, str]) -> BaseMorphism:
    return BaseMorphism(source, target, dict(mapping))


def compose(g: BaseMorphism, f: BaseMorphism) -> BaseMorphism:
    return BaseMorphism._trusted(f.source, g.target, composite_mapping(g, f))


def composite_mapping(g: BaseMorphism, f: BaseMorphism) -> dict[str, str]:
    """The mapping of compose(g, f), in the carrier order of f's source,
    without building the composite."""
    # the same object is the common case, and skips the carrier comparison
    if f.target is not g.source and f.target != g.source:
        raise BaseError("composition mismatch: target of inner differs from source of outer")
    f_map, g_map = f.mapping, g.mapping
    return {x: g_map[f_map[x]] for x in f.source.carrier}


def is_in_n(f: BaseMorphism) -> bool:
    """Left class membership: injectivity."""
    values = list(f.mapping.values())
    return len(set(values)) == len(values)


def is_in_m(f: BaseMorphism) -> bool:
    """Right class membership: surjectivity."""
    return set(f.mapping.values()) == set(f.target.carrier)


# the two classes by the names is_levelwise, is_special and check --cls take
CLASSES = {"N": is_in_n, "M": is_in_m}


def pullback(f: BaseMorphism, g: BaseMorphism) -> tuple[BaseObject, BaseMorphism, BaseMorphism]:
    """The fiber product of f: X -> Z and g: Y -> Z with coordinate projections.

    Carrier ids are positional ("p0", "p1", ...) in the canonical
    (X-major, Y-minor) enumeration order.
    """
    if f.target != g.target:
        raise BaseError("pullback legs must share a target")
    g_map, f_map = g.mapping, f.mapping
    fiber: dict[str, list[str]] = {}
    for y in g.source.carrier:
        fiber.setdefault(g_map[y], []).append(y)
    # the two coordinate columns of the pairs
    xs: list[str] = []
    ys: list[str] = []
    for x in f.source.carrier:
        matches = fiber.get(f_map[x])
        if matches:
            xs += [x] * len(matches)
            ys += matches
    ids = tuple([f"p{i}" for i in range(len(xs))])
    carrier = BaseObject(ids)
    proj_f = BaseMorphism._trusted(carrier, f.source, dict(zip(ids, xs)))
    proj_g = BaseMorphism._trusted(carrier, g.source, dict(zip(ids, ys)))
    return carrier, proj_f, proj_g


SOURCE_TAG = "s:"
TARGET_TAG = "t:"


@dataclass(frozen=True)
class FactorizationTriple:
    mid: BaseObject
    left: BaseMorphism
    right: BaseMorphism


def _tagged_sum(f: BaseMorphism) -> BaseObject:
    """The mid object of factorize_base(f): source ⊔ target, tagged."""
    return BaseObject(
        tuple(SOURCE_TAG + x for x in f.source.carrier) + tuple(TARGET_TAG + y for y in f.target.carrier)
    )


def factorize_base(f: BaseMorphism) -> FactorizationTriple:
    """Factor f as an injection followed by a surjection via the tagged sum.

    mid = source ⊔ target; left is the source inclusion, right collapses
    the source part along f and is the identity on the target part.
    """
    source, target = f.source.carrier, f.target.carrier
    # the tagged ids, built once for the mid object and both legs
    source_ids = [SOURCE_TAG + x for x in source]
    target_ids = [TARGET_TAG + y for y in target]
    mid = BaseObject(tuple(source_ids + target_ids))
    left = BaseMorphism._trusted(f.source, mid, dict(zip(source, source_ids)))
    right_map = dict(zip(source_ids, map(f.mapping.__getitem__, source)))
    right_map.update(zip(target_ids, target))
    right = BaseMorphism._trusted(mid, f.target, right_map)
    return FactorizationTriple(mid, left, right)


def factorize_mid_map(
    f: BaseMorphism, t: BaseMorphism, top: BaseMorphism, bottom: BaseMorphism
) -> BaseMorphism:
    """The functorial action on a commuting square (top, bottom): f -> t.

    Requires top: src(f) -> src(t) and bottom: tgt(f) -> tgt(t) with
    t∘top = bottom∘f; returns the induced map between the mid objects.
    """
    # composite_mapping checks that top ends at src(t) and bottom starts at
    # tgt(f); with top starting at src(f) and bottom ending at tgt(t), the
    # square commutes iff the mappings agree, and the map below is total
    t_top, bottom_f = composite_mapping(t, top), composite_mapping(bottom, f)
    if top.source != f.source or bottom.target != t.target or t_top != bottom_f:
        raise BaseError("square does not commute")
    top_map, bottom_map = top.mapping, bottom.mapping
    mapping = {SOURCE_TAG + x: SOURCE_TAG + top_map[x] for x in f.source.carrier}
    mapping.update({TARGET_TAG + y: TARGET_TAG + bottom_map[y] for y in f.target.carrier})
    return BaseMorphism._trusted(_tagged_sum(f), _tagged_sum(t), mapping)


def lift_base(
    g: BaseMorphism, f: BaseMorphism, top: BaseMorphism, bottom: BaseMorphism
) -> BaseMorphism:
    """Solve the lifting problem for g injective against f surjective.

    Off the image of g, the lift picks the least f-preimage (in carrier
    order) of the bottom value, so outputs are reproducible.  The least
    preimages come from one table, built in a single pass over f's source.
    """
    if not is_in_n(g):
        raise BaseError("left map is not injective")
    if not is_in_m(f):
        raise BaseError("right map is not surjective")
    # as in factorize_mid_map: composite_mapping checks the inner
    # endpoints, and the outer ones are compared before the mappings
    f_top, bottom_g = composite_mapping(f, top), composite_mapping(bottom, g)
    if top.source != g.source or bottom.target != f.target or f_top != bottom_g:
        raise BaseError("lifting square does not commute")
    image = {g(a): a for a in g.source.carrier}
    # the least x over each point: the first x in f's source overwrites last
    preimage = {f(x): x for x in reversed(f.source.carrier)}
    mapping = {}
    for b in g.target.carrier:
        if b in image:
            mapping[b] = top(image[b])
        else:
            mapping[b] = preimage[bottom(b)]
    return BaseMorphism(g.target, f.source, mapping)
