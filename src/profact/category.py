"""Small finite categories and the directedness axioms.

A poset is viewed as a category with a single morphism u -> v iff u >= v.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .poset import FinPoset


class CategoryError(ValueError):
    pass


@dataclass(frozen=True)
class FinCategory:
    """Objects, named morphisms, a total composition table and identities.

    Associativity and unit laws are checked exhaustively on construction.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: dict[str, str]
    tgt: dict[str, str]
    compose_table: dict[tuple[str, str], str]  # (g, f) with tgt(f) == src(g)
    identities: dict[str, str]
    # built on first use, like FinPoset's upsets
    _homs: dict[tuple[str, str], tuple[str, ...]] | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def make(
        objects,
        morphisms,
        src,
        tgt,
        compose_table,
        identities,
    ) -> "FinCategory":
        cat = FinCategory(
            tuple(objects), tuple(morphisms), dict(src), dict(tgt), dict(compose_table), dict(identities)
        )
        cat._validate()
        return cat

    def _validate(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise CategoryError("duplicate object ids")
        morphisms = set(self.morphisms)
        if len(morphisms) != len(self.morphisms):
            raise CategoryError("duplicate morphism ids")
        for m in self.morphisms:
            if self.src.get(m) not in self.objects or self.tgt.get(m) not in self.objects:
                raise CategoryError(f"morphism {m!r} has unknown source or target")
        for x in self.objects:
            i = self.identities.get(x)
            if i not in morphisms or self.src[i] != x or self.tgt[i] != x:
                raise CategoryError(f"missing or ill-typed identity on {x!r}")
        for g, f in itertools.product(self.morphisms, repeat=2):
            if self.tgt[f] == self.src[g]:
                h = self.compose_table.get((g, f))
                if h is None:
                    raise CategoryError(f"composition table missing entry for ({g!r}, {f!r})")
                if h not in morphisms:
                    raise CategoryError(f"composite {h!r} of ({g!r}, {f!r}) is not a morphism")
                if self.src[h] != self.src[f] or self.tgt[h] != self.tgt[g]:
                    raise CategoryError(f"ill-typed composite {h!r} of ({g!r}, {f!r})")
            elif (g, f) in self.compose_table:
                raise CategoryError(f"composition table has entry for non-composable ({g!r}, {f!r})")
        for f in self.morphisms:
            if self.compose(f, self.identities[self.src[f]]) != f:
                raise CategoryError(f"right unit law fails for {f!r}")
            if self.compose(self.identities[self.tgt[f]], f) != f:
                raise CategoryError(f"left unit law fails for {f!r}")
        for h, g, f in itertools.product(self.morphisms, repeat=3):
            if self.tgt[f] == self.src[g] and self.tgt[g] == self.src[h]:
                if self.compose(h, self.compose(g, f)) != self.compose(self.compose(h, g), f):
                    raise CategoryError(f"associativity fails on ({h!r}, {g!r}, {f!r})")

    def compose(self, g: str, f: str) -> str:
        if self.tgt[f] != self.src[g]:
            raise CategoryError(f"cannot compose {g!r} after {f!r}")
        return self.compose_table[(g, f)]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        """The morphisms x -> y, in morphism order."""
        if self._homs is None:
            homs: dict[tuple[str, str], tuple[str, ...]] = {}
            for m in self.morphisms:
                key = (self.src[m], self.tgt[m])
                homs[key] = homs.get(key, ()) + (m,)
            object.__setattr__(self, "_homs", homs)
        return self._homs.get((x, y), ())

    def identity(self, x: str) -> str:
        return self.identities[x]


@dataclass(frozen=True)
class DirectednessWitness:
    axiom: int
    detail: tuple[str, ...]


def is_directed_category(cat: FinCategory) -> tuple[bool, DirectednessWitness | None]:
    """Exhaustively check the three directedness axioms.

    On failure the witness names the violated axiom and the offending
    objects or morphisms.
    """
    if not cat.objects:
        return False, DirectednessWitness(1, ())
    for s, t in itertools.combinations_with_replacement(cat.objects, 2):
        dominated = any(cat.hom(u, s) and cat.hom(u, t) for u in cat.objects)
        if not dominated:
            return False, DirectednessWitness(2, (s, t))
    for f, g in itertools.combinations(cat.morphisms, 2):
        if cat.src[f] != cat.src[g] or cat.tgt[f] != cat.tgt[g]:
            continue
        s = cat.src[f]
        equalized = any(
            cat.compose(f, h) == cat.compose(g, h)
            for u in cat.objects
            for h in cat.hom(u, s)
        )
        if not equalized:
            return False, DirectednessWitness(3, (f, g))
    return True, None


def poset_as_category(poset: FinPoset) -> FinCategory:
    """The category with a single morphism u -> v iff u >= v."""
    name = lambda u, v: f"{u}>={v}"
    morphisms = [name(u, v) for (v, u) in sorted(poset.le_pairs, key=lambda p: (poset.index(p[1]), poset.index(p[0])))]
    src = {name(u, v): u for (v, u) in poset.le_pairs}
    tgt = {name(u, v): v for (v, u) in poset.le_pairs}
    compose = {}
    for v, u in poset.le_pairs:  # u >= v
        for w in poset.elements:
            if poset.le(w, v):
                compose[(name(v, w), name(u, v))] = name(u, w)
    identities = {x: name(x, x) for x in poset.elements}
    return FinCategory.make(poset.elements, morphisms, src, tgt, compose, identities)
