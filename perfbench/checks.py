"""Output checks, run outside the timed region.

Each check works on the plain dicts of the outputs and recomputes what it
needs itself; none calls profact's own verifiers or its limit code.  A check
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import itertools
import json


def _reedy_problems(tag: str, nt, rf) -> list[str]:
    shape, mid, target = nt.shape, rf.mid, nt.target
    problems = []
    for x in shape.elements:
        left = rf.left.at(x).mapping
        right = rf.right.at(x).mapping
        want = nt.at(x).mapping
        if set(right) != set(mid.at(x).carrier) or not set(left.values()) <= set(right):
            problems.append(f"{tag}: legs at {x!r} are not typed through the middle fiber")
            continue
        if {a: right[left[a]] for a in want} != want:
            problems.append(f"{tag}: right . left differs from the input at {x!r}")
        if len(set(left.values())) != len(left):
            problems.append(f"{tag}: left is not injective at {x!r}")
    for x in shape.elements:
        if not _relative_map_surjective(shape, mid, target, rf.right, x):
            problems.append(f"{tag}: right is not special surjective at {x!r}")
    return problems


def _families(shape, diagram, members: list[str]) -> list[dict[str, str]]:
    """Compatible families of the diagram over `members`, a downward closed
    set listed so that smaller elements come first: each family is extended
    one element at a time and filtered by the arrows to the elements below."""
    families: list[dict[str, str]] = [{}]
    for k, s in enumerate(members):
        below = [(s2, diagram.arrow(s, s2).mapping) for s2 in members[:k] if shape.lt(s2, s)]
        families = [
            {**family, s: h}
            for family in families
            for h in diagram.at(s).carrier
            if all(arrow[h] == family[s2] for s2, arrow in below)
        ]
    return families


def _relative_map_surjective(shape, mid, target, right, x: str) -> bool:
    """Is H(x) -> D(x) x_{lim D} lim H onto, where the limits are over the
    strict downset of x?"""
    strict = sorted(
        (s for s in shape.elements if shape.lt(s, x)),
        key=lambda s: sum(1 for u in shape.elements if shape.lt(u, s)),
    )
    right_x = right.at(x).mapping
    reached = {
        (right_x[e], tuple(mid.arrow(x, s).mapping[e] for s in strict)) for e in mid.at(x).carrier
    }
    by_restriction: dict[tuple, list[str]] = {}
    for d in target.at(x).carrier:
        key = tuple(target.arrow(x, s).mapping[d] for s in strict)
        by_restriction.setdefault(key, []).append(d)
    for family in _families(shape, mid, strict):
        key = tuple(right.at(s).mapping[family[s]] for s in strict)
        values = tuple(family[s] for s in strict)
        for d in by_restriction.get(key, ()):
            if (d, values) not in reached:
                return False
    return True


def check_factor(item, output) -> list[str]:
    f, t, pm = item
    rf_f, rf_t, chim = output
    problems = _reedy_problems("f", f, rf_f) + _reedy_problems("t", t, rf_t)
    if problems:
        return problems
    if chim.alpha != pm.alpha:
        return ["middle map has another index map"]
    b_shape = t.shape
    for b in b_shape.elements:
        a = pm.alpha[b]
        chi = chim.chi[b].mapping
        if set(chi) != set(rf_f.mid.at(a).carrier) or not set(chi.values()) <= set(rf_t.mid.at(b).carrier):
            problems.append(f"middle map at {b!r} is not typed")
            continue
        left_f, left_t = rf_f.left.at(a).mapping, rf_t.left.at(b).mapping
        phi = pm.phi[b].mapping
        if any(chi[left_f[e]] != left_t[phi[e]] for e in phi):
            problems.append(f"left rectangle fails at {b!r}")
        right_f, right_t = rf_f.right.at(a).mapping, rf_t.right.at(b).mapping
        psi = pm.psi[b].mapping
        if any(psi[right_f[m]] != right_t[chi[m]] for m in chi):
            problems.append(f"right rectangle fails at {b!r}")
    for b in b_shape.elements:
        for b2 in b_shape.elements:
            if problems or not b_shape.lt(b2, b):
                continue
            chi, chi2 = chim.chi[b].mapping, chim.chi[b2].mapping
            down_f = rf_f.mid.arrow(pm.alpha[b], pm.alpha[b2]).mapping
            down_t = rf_t.mid.arrow(b, b2).mapping
            if any(chi2[down_f[m]] != down_t[chi[m]] for m in chi):
                problems.append(f"middle map not natural on {b!r} >= {b2!r}")
    return problems


def check_lift(problem, output) -> list[str]:
    cone, oracle = output
    shape, right = problem.right.shape, problem.right
    g = problem.left.mapping
    problems = []
    for t in shape.elements:
        c = cone.components[t].mapping
        f = right.at(t).mapping
        top, bottom = problem.top[t].mapping, problem.bottom[t].mapping
        if set(c) != set(problem.left.target.carrier):
            problems.append(f"cone component at {t!r} is not total")
            continue
        if {a: c[g[a]] for a in g} != top:
            problems.append(f"upper triangle fails at {t!r}")
        if {b: f[c[b]] for b in c} != bottom:
            problems.append(f"lower triangle fails at {t!r}")
        for s in shape.elements:
            if shape.lt(s, t):
                arrow = right.source.arrow(t, s).mapping
                if {b: arrow[c[b]] for b in c} != cone.components[s].mapping:
                    problems.append(f"cone incompatible on {t!r} >= {s!r}")
        found, lift = oracle[t]
        if not found:
            problems.append(f"oracle finds no lift at {t!r}")
            continue
        h = lift.mapping
        if {a: h[g[a]] for a in g} != top or {b: f[h[b]] for b in h} != bottom:
            problems.append(f"oracle's map does not commute at {t!r}")
    return problems


def _level_one_size(cat, cap: int) -> int:
    """The objects plus every cone over a set of at most `cap` objects
    (level zero is an antichain, so every leg family is compatible)."""
    hom: dict[tuple[str, str], int] = {}
    for m in cat.morphisms:
        key = (cat.src[m], cat.tgt[m])
        hom[key] = hom.get(key, 0) + 1
    total = len(cat.objects)
    for size in range(cap + 1):
        for members in itertools.combinations(cat.objects, size):
            for apex in cat.objects:
                legs = 1
                for o in members:
                    legs *= hom.get((apex, o), 0)
                total += legs
    return total


def check_towers(item, output) -> list[str]:
    _, cat, cap = item
    tower, verdicts, directed, reports = output
    problems = []
    if not all(verdicts.values()):
        problems.append(f"tower report {verdicts}")
    if directed is not True:
        problems.append("tower reported not directed")
    top = tower.top
    obj, mor = tower.obj_map, tower.mor_map
    ups: dict[str, list[str]] = {c: [] for c in top.elements}
    downs: dict[str, list[str]] = {c: [] for c in top.elements}
    for low, high in top.le_pairs:
        ups[low].append(high)
        downs[high].append(low)
    for c2 in top.elements:
        for c in ups[c2]:
            m = mor[(c, c2)]
            if cat.src[m] != obj[c] or cat.tgt[m] != obj[c2]:
                problems.append(f"projection of {c!r} >= {c2!r} is not typed")
                return problems
            for c3 in downs[c2]:
                if cat.compose_table[(mor[(c2, c3)], m)] != mor[(c, c3)]:
                    problems.append(f"projection not functorial on {c!r} >= {c2!r} >= {c3!r}")
                    return problems
    want = _level_one_size(cat, cap)
    if len(tower.levels[1].elements) != want:
        problems.append(f"level one has {len(tower.levels[1].elements)} elements, expected {want}")
    base = tower.levels[-2].elements
    if [r.object for r in reports] != list(cat.objects):
        problems.append("cofinality reports do not cover the objects")
    for report in reports:
        reachable = any(cat.src[m] == obj[c] and cat.tgt[m] == report.object for c in base for m in cat.morphisms)
        if not reachable or not report.nonempty:
            problems.append(f"over-category of {report.object!r} is empty")
    return problems


def _report_flags(payload, path: str = "") -> list[tuple[str, object]]:
    if isinstance(payload, dict):
        return [flag for key, value in payload.items() for flag in _report_flags(value, f"{path}.{key}")]
    if isinstance(payload, list):
        return [flag for i, value in enumerate(payload) for flag in _report_flags(value, f"{path}[{i}]")]
    return [(path, payload)] if isinstance(payload, bool) else []


def check_cli(call, output) -> list[str]:
    code, stdout = output
    if code != call.code or code != 0:
        return []
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"{call.label}: stdout is not JSON"]
    problems = [
        f"{call.label}: report flag {path} is false"
        for path, value in _report_flags(payload.get("report", {}), "report")
        if value is not True
    ]
    problems += [
        f"{call.label}: {key} is {payload.get(key)!r}, expected {value!r}"
        for key, value in call.expect.items()
        if payload.get(key) != value
    ]
    return problems
