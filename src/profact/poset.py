"""Finite posets with a stored order closure, degree levels and Reyshas.

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


def _transitive_closure(elements: Sequence[str], pairs: Iterable[tuple[str, str]]) -> dict[str, set[str]]:
    """Each element's set of elements below it, itself included."""
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
    return below


@dataclass(frozen=True)
class FinPoset:
    """A finite poset: canonical element list plus closed le relation."""

    elements: tuple[str, ...]
    le_pairs: frozenset[tuple[str, str]]
    _index: dict[str, int] = field(compare=False, repr=False)
    _down: dict[str, tuple[str, ...]] = field(compare=False, repr=False)
    _strict: dict[str, tuple[str, ...]] = field(compare=False, repr=False)
    # built on first use: most posets never ask for an upper bound, and
    # the limit and tower code never asks for a degree
    _up: dict[str, tuple[str, ...]] | None = field(default=None, compare=False, repr=False)
    _degree: dict[str, int] | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def make(elements: Sequence[str], pairs: Iterable[tuple[str, str]] = ()) -> "FinPoset":
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise PosetError("duplicate element ids")
        below = _transitive_closure(elements, pairs)
        index = {x: i for i, x in enumerate(elements)}
        down = {x: tuple(sorted(below[x], key=index.__getitem__)) for x in elements}
        for y in elements:
            for x in down[y]:
                if x != y and y in below[x]:
                    raise PosetError(f"antisymmetry failure: cycle through {x!r} and {y!r}")
        return FinPoset._from_downsets(elements, down)

    @staticmethod
    def _from_downsets(elements: tuple[str, ...], down: dict[str, tuple[str, ...]]) -> "FinPoset":
        """The poset on distinct elements in which x lies above exactly
        down[x], given in canonical order; unchecked, so down must be
        reflexive, transitive and antisymmetric."""
        return FinPoset(
            elements,
            frozenset((y, x) for x in elements for y in down[x]),
            {x: i for i, x in enumerate(elements)},
            down,
            {x: tuple(y for y in down[x] if y != x) for x in elements},
        )

    def _extended(self, new: Sequence[tuple[str, tuple[str, ...]]]) -> "FinPoset":
        """This poset with each (name, members) of new added above exactly
        members, which are downward closed here and in canonical order.
        An element's downset stays as it was; names are taken as given."""
        down = dict(self._down)
        for name, members in new:
            down[name] = members + (name,)
        return FinPoset._from_downsets(self.elements + tuple(name for name, _ in new), down)

    def __contains__(self, x: str) -> bool:
        return x in self._index

    def index(self, x: str) -> int:
        return self._index[x]

    def le(self, x: str, y: str) -> bool:
        return (x, y) in self.le_pairs

    def lt(self, x: str, y: str) -> bool:
        return x != y and (x, y) in self.le_pairs

    def _degrees(self) -> dict[str, int]:
        if self._degree is None:
            # Longest chain ending at x; y < x has the smaller downset, so
            # it comes first in this order.
            degree: dict[str, int] = {}
            for x in sorted(self.elements, key=lambda x: len(self._down[x])):
                degree[x] = 1 + max((degree[y] for y in self._strict[x]), default=-1)
            object.__setattr__(self, "_degree", degree)
        return self._degree

    def degree(self, x: str) -> int:
        """Length of the longest chain ending at x."""
        if x not in self._index:
            raise PosetError(f"unknown element {x!r}")
        return self._degrees()[x]

    def max_degree(self) -> int:
        return max(self._degrees().values(), default=-1)

    def downset(self, x: str) -> tuple[str, ...]:
        return self._down.get(x, ())

    def strict_downset(self, x: str) -> tuple[str, ...]:
        return self._strict.get(x, ())

    def strict_pairs(self) -> Iterator[tuple[str, str]]:
        """Every pair x > y: x in canonical order, then y in canonical order."""
        for x in self.elements:
            for y in self._strict[x]:
                yield x, y

    def strict_chains(self) -> Iterator[tuple[str, str, str]]:
        """Every chain x > y > z, in the order of chains."""
        strict = self._strict
        for x in self.elements:
            for y in strict[x]:
                for z in strict[y]:
                    yield x, y, z

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
        down = self._down
        return FinPoset._from_downsets(elems, {x: tuple(y for y in down[x] if y in member_set) for x in elems})

    def _restrict_downward(self, members: tuple[str, ...]) -> "FinPoset":
        """restrict for members that are downward closed and in canonical
        order, as a Reysha's are.  A member's downset and strict downset
        lie inside such a set, so each is copied, not recomputed."""
        down, strict = self._down, self._strict
        return FinPoset(
            members,
            frozenset((y, x) for x in members for y in down[x]),
            {x: i for i, x in enumerate(members)},
            {x: down[x] for x in members},
            {x: strict[x] for x in members},
        )

    def in_degree_order(self) -> tuple[str, ...]:
        """Elements sorted by (degree, canonical position)."""
        degree = self._degrees()
        return tuple(sorted(self.elements, key=lambda x: (degree[x], self._index[x])))


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
