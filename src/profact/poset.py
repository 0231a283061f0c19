"""Finite posets with precomputed order closure, degree levels and Reyshas.

Element ids are strings.  The stored relation is always the full
reflexive-transitive closure of whatever generating pairs were given;
cycles are rejected at construction time.  Iteration order everywhere is
the canonical (input) element order, so all derived enumerations are
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


class PosetError(ValueError):
    pass


def _transitive_closure(elements: Sequence[str], pairs: Iterable[tuple[str, str]]) -> set[tuple[str, str]]:
    below: dict[str, set[str]] = {x: {x} for x in elements}
    for x, y in pairs:
        if x not in below or y not in below:
            raise PosetError(f"relation pair ({x!r}, {y!r}) mentions unknown element")
        below[y].add(x)
    # Floyd-Warshall style saturation; posets here are tiny.
    changed = True
    while changed:
        changed = False
        for y in elements:
            acc = set(below[y])
            for x in list(below[y]):
                acc |= below[x]
            if acc != below[y]:
                below[y] = acc
                changed = True
    return {(x, y) for y in elements for x in below[y]}


@dataclass(frozen=True)
class FinPoset:
    """A finite poset: canonical element list plus closed le relation."""

    elements: tuple[str, ...]
    le_pairs: frozenset[tuple[str, str]]
    _index: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    _degree: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    _down: dict[str, tuple[str, ...]] = field(default_factory=dict, compare=False, repr=False)
    _strict: dict[str, tuple[str, ...]] = field(default_factory=dict, compare=False, repr=False)
    # built on first use: most posets never ask for an upper bound
    _up: dict[str, tuple[str, ...]] | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def make(elements: Sequence[str], pairs: Iterable[tuple[str, str]] = ()) -> "FinPoset":
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise PosetError("duplicate element ids")
        return FinPoset._closed(elements, _transitive_closure(elements, pairs))

    @staticmethod
    def _closed(elements: tuple[str, ...], closed: Iterable[tuple[str, str]]) -> "FinPoset":
        """The poset on distinct elements whose le relation closed is
        already reflexive and transitive over them."""
        closed = frozenset(closed)
        index = {x: i for i, x in enumerate(elements)}
        below: dict[str, list[str]] = {x: [] for x in elements}
        for x, y in closed:
            if x != y and (y, x) in closed:
                raise PosetError(f"antisymmetry failure: cycle through {x!r} and {y!r}")
            below[y].append(x)
        down = {x: tuple(sorted(below[x], key=index.__getitem__)) for x in elements}
        strict = {x: tuple(y for y in down[x] if y != x) for x in elements}
        # Longest chain ending at x; y < x has the smaller downset, so it
        # comes first in this order.
        degree: dict[str, int] = {}
        for x in sorted(elements, key=lambda x: len(down[x])):
            degree[x] = 1 + max((degree[y] for y in strict[x]), default=-1)
        return FinPoset._stored(elements, closed, index, degree, down, strict)

    @staticmethod
    def _stored(elements, le_pairs, index, degree, down, strict) -> "FinPoset":
        """The poset with the given relation and derived tables, unchecked."""
        poset = object.__new__(FinPoset)
        object.__setattr__(poset, "elements", elements)
        object.__setattr__(poset, "le_pairs", le_pairs)
        object.__setattr__(poset, "_index", index)
        object.__setattr__(poset, "_degree", degree)
        object.__setattr__(poset, "_down", down)
        object.__setattr__(poset, "_strict", strict)
        object.__setattr__(poset, "_up", None)
        return poset

    def __contains__(self, x: str) -> bool:
        return x in self._index

    def index(self, x: str) -> int:
        return self._index[x]

    def le(self, x: str, y: str) -> bool:
        return (x, y) in self.le_pairs

    def lt(self, x: str, y: str) -> bool:
        return x != y and (x, y) in self.le_pairs

    def degree(self, x: str) -> int:
        """Length of the longest chain ending at x."""
        if x not in self._index:
            raise PosetError(f"unknown element {x!r}")
        return self._degree[x]

    def max_degree(self) -> int:
        return max(self._degree.values(), default=-1)

    def downset(self, x: str) -> tuple[str, ...]:
        return self._down.get(x, ())

    def strict_downset(self, x: str) -> tuple[str, ...]:
        return self._strict.get(x, ())

    def strict_pairs(self) -> Iterator[tuple[str, str]]:
        """Every pair x > y: x in canonical order, then y in canonical order."""
        for x in self.elements:
            for y in self._strict[x]:
                yield x, y

    def chains(self) -> Iterator[tuple[str, str, str]]:
        """Every chain x >= y >= z: x in canonical order, then y through
        the downset of x, then z through the downset of y."""
        for x in self.elements:
            for y in self._down[x]:
                for z in self._down[y]:
                    yield x, y, z

    def upset(self, x: str) -> tuple[str, ...]:
        """Every y >= x, in canonical order."""
        if self._up is None:
            up: dict[str, list[str]] = {y: [] for y in self.elements}
            for y in self.elements:
                for z in self._down[y]:
                    up[z].append(y)
            object.__setattr__(self, "_up", {z: tuple(ys) for z, ys in up.items()})
        return self._up.get(x, ())

    def upper_bounds(self, members: Iterable[str]) -> tuple[str, ...]:
        """Every element above all members, in canonical order: the
        members' upsets intersected."""
        members = tuple(members)
        if not members:
            return self.elements
        smallest = min((self.upset(m) for m in members), key=len)
        le_pairs = self.le_pairs
        return tuple(c for c in smallest if all((m, c) in le_pairs for m in members))

    def is_downward_closed(self, members: Iterable[str]) -> bool:
        member_set = set(members)
        if not all(x in self._index for x in member_set):
            raise PosetError("subset mentions unknown elements")
        return all(y in member_set for x in member_set for y in self._strict[x])

    def reyshas(self, max_size: int | None = None) -> Iterator["Reysha"]:
        """All downward closed subsets, in canonical subset order: by size,
        then by canonical positions, as itertools.combinations lists them.

        The sets of size r + 1 are those of size r with one element added
        whose strict downset is already inside: removing a maximal element
        from a downward closed set leaves one.
        """
        elements = self.elements
        largest = len(elements) if max_size is None else min(len(elements), max_size)
        # bit i stands for elements[i]
        below = [sum(1 << self._index[y] for y in self._strict[x]) for x in elements]
        level: list[tuple[int, ...]] = [()]
        for r in range(largest + 1):
            for combo in level:
                yield Reysha._trusted(self, tuple(elements[i] for i in combo))
            if r == largest:
                return
            grown: set[tuple[int, ...]] = set()
            for combo in level:
                mask = sum(1 << i for i in combo)
                for i, strict in enumerate(below):
                    if not mask & (1 << i) and not strict & ~mask:
                        grown.add(tuple(sorted(combo + (i,))))
            level = sorted(grown)

    def restrict(self, members: Iterable[str]) -> "FinPoset":
        member_set = set(members)
        elems = tuple(x for x in self.elements if x in member_set)
        # a restriction of a closed relation is closed
        pairs = [(x, y) for (x, y) in self.le_pairs if x in member_set and y in member_set]
        return FinPoset._closed(elems, pairs)

    def _restrict_downward(self, members: tuple[str, ...]) -> "FinPoset":
        """restrict for members that are downward closed and in canonical
        order, as a Reysha's are.  A member's downset, strict downset and
        degree lie inside such a set, so each is copied, not recomputed,
        and the relation is not re-closed."""
        down, strict, degree = self._down, self._strict, self._degree
        le_pairs: list[tuple[str, str]] = []
        index, sub_degree, sub_down, sub_strict = {}, {}, {}, {}
        for i, x in enumerate(members):
            index[x] = i
            sub_degree[x] = degree[x]
            below = sub_down[x] = down[x]
            sub_strict[x] = strict[x]
            le_pairs += [(y, x) for y in below]
        return FinPoset._stored(members, frozenset(le_pairs), index, sub_degree, sub_down, sub_strict)

    def in_degree_order(self) -> tuple[str, ...]:
        """Elements sorted by (degree, canonical position)."""
        return tuple(sorted(self.elements, key=lambda x: (self._degree[x], self._index[x])))


@dataclass(frozen=True)
class Reysha:
    """A downward closed subset of a poset."""

    parent: FinPoset
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        member_set = set(self.members)
        ordered = tuple(x for x in self.parent.elements if x in member_set)
        if len(member_set) != len(self.members):
            raise PosetError("duplicate members in Reysha")
        object.__setattr__(self, "members", ordered)
        if not self.parent.is_downward_closed(ordered):
            raise PosetError(f"subset {self.members} is not downward closed")

    @classmethod
    def _trusted(cls, parent: FinPoset, members: tuple[str, ...]) -> "Reysha":
        """A Reysha whose members are downward closed and in canonical
        order by construction, as FinPoset.reyshas builds them.  It skips
        the checks; the public constructor keeps them."""
        reysha = object.__new__(cls)
        object.__setattr__(reysha, "parent", parent)
        object.__setattr__(reysha, "members", members)
        return reysha

    def __contains__(self, x: str) -> bool:
        return x in set(self.members)

    def __len__(self) -> int:
        return len(self.members)



def is_directed_poset(poset: FinPoset) -> bool:
    """Nonempty, and every pair (hence every finite Reysha) has an upper bound."""
    if not poset.elements:
        return False
    for x, y in itertools.combinations_with_replacement(poset.elements, 2):
        if not poset.upper_bounds((x, y)):
            return False
    return True
