"""Level-by-level construction of a directed index poset over a small
category, together with directedness and cofinality checks.

Level zero is the object set as an antichain.  Each later level adjoins,
for every small downward closed subset of the previous level, every cone
under it: an apex object plus a compatible family of legs.  The projection
functor sends a new element to its apex and the order relation to its legs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .category import FinCategory, is_directed_category
from .poset import FinPoset


class CofinalizeError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """The level enumeration grew past the configured element cap."""


ELEMENT_CAP = 10**4


@dataclass(frozen=True)
class CofinalTower:
    """Levels of cones over source.  A cone c of a later level has the
    members top.strict_downset(c), the apex obj_map[c] and the leg
    mor_map[(c, m)] to each member m."""

    source: FinCategory
    levels: tuple[FinPoset, ...]
    obj_map: dict[str, str]  # element -> object of the source category
    mor_map: dict[tuple[str, str], str]  # (c, c') with c >= c' -> morphism
    reysha_cap: int = 3

    @property
    def top(self) -> FinPoset:
        return self.levels[-1]

    @property
    def base(self) -> FinPoset:
        """The penultimate level, or the only one."""
        return self.levels[-2] if len(self.levels) > 1 else self.levels[-1]

    def verify(self) -> dict[str, bool]:
        top = self.top
        typed = all(
            self.source.src[self.mor_map[(c, c2)]] == self.obj_map[c]
            and self.source.tgt[self.mor_map[(c, c2)]] == self.obj_map[c2]
            for c in top.elements
            for c2 in top.downset(c)
        )
        # a chain through a repeated element is a composite with an
        # identity, so once every (c, c) leg is one only strict chains
        # remain.  Legs that do not compose have no functoriality to check
        functorial = typed and all(
            self.mor_map[(c, c)] == self.source.identity(self.obj_map[c]) for c in top.elements
        ) and all(
            self.source.compose(self.mor_map[(c2, c3)], self.mor_map[(c, c2)])
            == self.mor_map[(c, c3)]
            for c, c2, c3 in top.strict_chains()
        )
        # the order big induces on small's elements, read off big's downsets
        coherent = all(
            set(small.elements) <= set(big.elements)
            and {(y, x) for x in small.elements for y in big.downset(x) if y in small} == small.le_pairs
            for small, big in zip(self.levels, self.levels[1:])
        )
        return {"projection_typed": typed, "projection_functorial": functorial, "levels_coherent": coherent}


def build_tower(
    I: FinCategory,
    levels: int = 2,
    reysha_cap: int = 3,
    element_cap: int = ELEMENT_CAP,
) -> CofinalTower:
    directed, witness = is_directed_category(I)
    if not directed:
        raise CofinalizeError(f"category is not directed (axiom {witness.axiom}, {witness.detail})")
    obj_map = {o: o for o in I.objects}
    mor_map = {(o, o): I.identity(o) for o in I.objects}
    level_posets = [FinPoset.make(I.objects)]
    for n in range(1, levels + 1):
        prev = level_posets[-1]
        # each level extends the one before: a new cone lies above exactly
        # the members of its Reysha, which is downward closed in prev
        new: list[tuple[str, tuple[str, ...]]] = []
        homs = {apex: {c: I.hom(apex, obj_map[c]) for c in prev.elements} for apex in I.objects}
        for reysha in prev.reyshas(max_size=reysha_cap):
            members = reysha.members
            for apex in I.objects:
                leg_choices = [homs[apex][c] for c in members]
                if not all(leg_choices):
                    continue
                for legs in itertools.product(*leg_choices):
                    legs_by = dict(zip(members, legs))
                    if not all(
                        I.compose(mor_map[(c, c2)], legs_by[c]) == legs_by[c2]
                        for c in members
                        for c2 in prev.strict_downset(c)
                    ):
                        continue
                    name = f"c{n}_{len(new)}"
                    if name in obj_map:
                        # _extended takes the element ids as given
                        raise CofinalizeError(f"object id {name!r} clashes with a cone element's name")
                    new.append((name, members))
                    if len(prev.elements) + len(new) > element_cap:
                        raise BudgetExceeded(
                            f"budget exceeded: more than {element_cap} tower elements"
                        )
                    obj_map[name] = apex
                    mor_map[(name, name)] = I.identity(apex)
                    for c in members:
                        mor_map[(name, c)] = legs_by[c]
        level_posets.append(prev._extended(new))
    return CofinalTower(I, tuple(level_posets), obj_map, mor_map, reysha_cap)


def check_tower_directedness(tower: CofinalTower, reysha_cap: int | None = None) -> bool:
    """Every small downward closed subset of the penultimate level has an
    upper bound in the final level."""
    cap = tower.reysha_cap if reysha_cap is None else reysha_cap
    top = tower.top
    # c bounds its own strict downset, so a Reysha equal to one has an
    # upper bound without a search
    bounded = {top.strict_downset(c) for c in top.elements}
    for reysha in tower.base.reyshas(max_size=cap):
        if reysha.members not in bounded and not top.upper_bounds(reysha.members):
            return False
    return True


@dataclass(frozen=True)
class OverCategoryReport:
    """The projection's over-category at object, read on the penultimate
    level: whether it has objects there, and in how many components."""

    object: str
    nonempty: bool
    verdict: str  # "true" or "inconclusive"
    components: int


def check_cofinality(tower: CofinalTower) -> list[OverCategoryReport]:
    """For each object: is the over-category of the projection nonempty and
    connected at this truncation?

    Connectivity is judged on the objects indexed by the penultimate level;
    the paths joining them may pass through elements adjoined at the final
    level.
    Disconnection is never refuted: components may merge once higher levels
    adjoin equalizing cones, so a multi-component answer is "inconclusive".
    """
    top, source, obj_map, mor_map = tower.top, tower.source, tower.obj_map, tower.mor_map
    out: dict[str, list[str]] = {x: [] for x in source.objects}
    slot = {}  # a morphism's place among those out of its source
    for m in source.morphisms:
        slot[m] = len(out[source.src[m]])
        out[source.src[m]].append(m)
    # the pair (c, m), m out of obj_map[c], is number first[c] + slot[m]
    first, count = {}, 0
    for c in top.elements:
        first[c] = count
        count += len(out[obj_map[c]])
    parent = list(range(count))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    # one partition of all the pairs: (c2, m2) and (c, m) are joined when
    # c < c2 and m2 is m after the leg of c2 > c.  Composing keeps m's
    # target, so the components of the over-category at i are the classes
    # of the pairs whose m ends at i.  c = c2 is left out: through the
    # identity leg it joins a pair only to itself.  A leg out of another
    # object than obj_map[c2] joins nothing, as in the over-category
    for c2 in top.elements:
        for c in top.strict_downset(c2):
            leg = mor_map[(c2, c)]
            if source.src[leg] != obj_map[c2]:
                continue
            for m in out[obj_map[c]]:
                ra, rb = find(first[c2] + slot[source.compose(m, leg)]), find(first[c] + slot[m])
                if ra != rb:
                    parent[ra] = rb
    roots: dict[str, set[int]] = {i: set() for i in source.objects}
    for c in tower.base.elements:
        for m in out[obj_map[c]]:
            roots[source.tgt[m]].add(find(first[c] + slot[m]))
    return [
        OverCategoryReport(i, bool(roots[i]), "true" if len(roots[i]) == 1 else "inconclusive", len(roots[i]))
        for i in source.objects
    ]
