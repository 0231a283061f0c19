"""Finite posets with a stored order closure, degree levels and Reyshas.

Element ids are strings.  The stored relation is always the full
reflexive-transitive closure of whatever generating pairs were given;
cycles are rejected at construction time.  Iteration order everywhere is
the canonical (input) element order, so all derived enumerations are
deterministic.
"""

from __future__ import annotations

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
        An element's downset stays as it was, so this poset's tables are
        copied and only the new entries added; names are taken as given."""
        index, down, strict = dict(self._index), dict(self._down), dict(self._strict)
        for name, members in new:
            index[name] = len(index)
            down[name] = members + (name,)
            strict[name] = members
        return FinPoset(
            self.elements + tuple(name for name, _ in new),
            self.le_pairs.union((y, name) for name, members in new for y in down[name]),
            index,
            down,
            strict,
        )

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

    def reyshas(self, max_size: int | None = None) -> Iterator[tuple[str, ...]]:
        """All Reyshas, the downward closed subsets, each as its members in
        canonical order, in canonical subset order: by size, then by canonical
        positions, as itertools.combinations lists them.

        The sets of size r + 1 are those of size r with one element added
        whose strict downset is already inside: removing a maximal element
        from a downward closed set leaves one.
        """
        elements = self.elements
        largest = len(elements) if max_size is None else min(len(elements), max_size)
        index = self._index
        # bit i stands for elements[i]; each element with its strict downset
        table = [(1 << i, sum(1 << index[y] for y in self._strict[x])) for i, x in enumerate(elements)]
        # the sets of one size: their canonical positions, each with its mask
        level: list[tuple[tuple[int, ...], int]] = [((), 0)]
        for r in range(largest + 1):
            for combo, _ in level:
                yield tuple(elements[i] for i in combo)
            if r == largest:
                return
            grown: dict[int, tuple[int, ...]] = {}
            for combo, mask in level:
                for i, (bit, strict) in enumerate(table):
                    if not mask & bit and not strict & ~mask and mask | bit not in grown:
                        grown[mask | bit] = tuple(sorted(combo + (i,)))
            level = sorted((combo, mask) for mask, combo in grown.items())

    def restrict(self, members: Iterable[str]) -> "FinPoset":
        member_set = set(members)
        elems = tuple(x for x in self.elements if x in member_set)
        # a restriction of a closed relation is closed
        down = self._down
        return FinPoset._from_downsets(elems, {x: tuple(y for y in down[x] if y in member_set) for x in elems})

    def in_degree_order(self) -> tuple[str, ...]:
        """Elements sorted by (degree, canonical position)."""
        degree = self._degrees()
        return tuple(sorted(self.elements, key=lambda x: (degree[x], self._index[x])))


def is_directed_poset(poset: FinPoset) -> bool:
    """Nonempty, and every pair has an upper bound.  For a finite poset that
    is having a greatest element: bounding pairs one after another bounds
    all the elements, and a greatest element bounds every pair."""
    return any(len(poset.downset(x)) == len(poset.elements) for x in poset.elements)
