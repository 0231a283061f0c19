"""The randomized property suite: one seeded run over every module's laws,
aggregated into a deterministic report."""

from __future__ import annotations

import random
from typing import Any, Callable

from .base import identity
from .diagrams import reindex_nattrans
from .factorize import chi_construct, reedy
from .lifting import has_lift_bruteforce, lift_against_special
from .procalc import (
    TruncationExhausted,
    dominate,
    eq_in_colim,
    is_pre_morphism,
    is_raw_morphism,
    pm_compose,
    pm_identity,
    pm_leq,
    straighten,
)
from .randgen import (
    random_arrow_pre_morphism,
    random_nattrans,
    random_poset,
    random_pre_morphism,
    random_pro_object,
    random_raw_morphism,
    random_special_problem,
    refine_pre_morphism,
)


def _check_reedy(rng: random.Random, poset_max: int, set_max: int) -> tuple[bool, str]:
    nt = random_nattrans(rng, random_poset(rng, poset_max), set_max)
    rf = reedy(nt)
    if not all(rf.report.values()):
        return False, f"factorization report {rf.report}"
    return True, ""


def _check_restriction_coherence(rng: random.Random, poset_max: int, set_max: int) -> tuple[bool, str]:
    nt = random_nattrans(rng, random_poset(rng, min(poset_max, 4)), min(set_max, 3))
    members = rng.choice(list(nt.shape.reyshas()))
    full = reedy(nt)
    sub = reedy(reindex_nattrans(nt, {x: x for x in members}, nt.shape.restrict(members)))
    for x in members:
        if full.mid.at(x) != sub.mid.at(x) or full.left.at(x) != sub.left.at(x) or full.right.at(x) != sub.right.at(x):
            return False, f"restriction differs at {x!r} for {members}"
    return True, ""


def _check_chi_identity(rng: random.Random, poset_max: int, set_max: int) -> tuple[bool, str]:
    nt = random_nattrans(rng, random_poset(rng, min(poset_max, 4)), min(set_max, 3))
    rf = reedy(nt)
    pm = pm_identity({"phi": nt.source, "psi": nt.target})
    chim = chi_construct(pm, rf, rf)
    for x in nt.shape.elements:
        if chim.chi[x] != identity(rf.mid.at(x)):
            return False, f"non-identity middle component at {x!r}"
    return True, ""


def _check_chi_composition(rng: random.Random, poset_max: int, set_max: int) -> tuple[bool, str]:
    f = random_nattrans(rng, random_poset(rng, min(poset_max, 4)), min(set_max, 3))
    t, pm1 = random_arrow_pre_morphism(rng, f)
    w, pm2 = random_arrow_pre_morphism(rng, t)
    rf_f, rf_t, rf_w = reedy(f), reedy(t), reedy(w)
    c1 = chi_construct(pm1, rf_f, rf_t)
    c2 = chi_construct(pm2, rf_t, rf_w)
    c12 = chi_construct(pm_compose(pm2, pm1), rf_f, rf_w)
    c21 = pm_compose(c2, c1)
    for c in pm2.alpha:
        if c12.chi[c] != c21.chi[c]:
            return False, f"composite middle map differs at {c!r}"
    return True, ""


def _check_lifting(rng: random.Random, poset_max: int, set_max: int) -> tuple[bool, str]:
    problem = random_special_problem(rng, min(poset_max, 5), min(set_max, 3))
    cone = lift_against_special(problem)
    verdicts = cone.verify(problem)
    if not all(verdicts.values()):
        return False, f"cone verification {verdicts}"
    for t in problem.right.shape.elements:
        found, _ = has_lift_bruteforce(
            problem.left, problem.right.at(t), problem.top[t], problem.bottom[t]
        )
        if not found:
            return False, f"oracle finds no lift at {t!r}"
    return True, ""


def _check_pm_order(rng: random.Random, poset_max: int, set_max: int) -> tuple[bool, str]:
    F = random_pro_object(rng, min(poset_max, 5), min(set_max, 3))
    G, p = random_pre_morphism(rng, F)
    q = refine_pre_morphism(rng, F, G, p)
    if not is_pre_morphism(F, G, p.alpha, p.phi) or not is_pre_morphism(F, G, q.alpha, q.phi):
        return False, "generator produced an invalid pre-morphism"
    if not pm_leq(F, p, p):
        return False, "order is not reflexive"
    if not pm_leq(F, p, q):
        return False, "refinement is not above the original"
    if pm_leq(F, q, p) and q != p:
        return False, "antisymmetry violated"
    if pm_compose(pm_identity(G), p) != p:
        return False, "left unit law fails"
    if pm_compose(p, pm_identity(F)) != p:
        return False, "right unit law fails"
    return True, ""


def _check_pm_monotone_compose(rng: random.Random, poset_max: int, set_max: int) -> tuple[bool, str]:
    F = random_pro_object(rng, min(poset_max, 4), min(set_max, 3))
    G, p = random_pre_morphism(rng, F)
    p2 = refine_pre_morphism(rng, F, G, p)
    H, r = random_pre_morphism(rng, G)
    r2 = refine_pre_morphism(rng, G, H, r)
    if not pm_leq(F, pm_compose(r, p), pm_compose(r, p2)):
        return False, "composition not monotone in the first argument"
    if not pm_leq(F, pm_compose(r, p), pm_compose(r2, p)):
        return False, "composition not monotone in the second argument"
    return True, ""


def _check_pm_associativity(rng: random.Random, poset_max: int, set_max: int) -> tuple[bool, str]:
    F = random_pro_object(rng, min(poset_max, 4), min(set_max, 2))
    G, p = random_pre_morphism(rng, F, max_junk=1)
    H, q = random_pre_morphism(rng, G, max_junk=1)
    K, r = random_pre_morphism(rng, H, max_junk=1)
    lhs = pm_compose(r, pm_compose(q, p))
    rhs = pm_compose(pm_compose(r, q), p)
    if lhs != rhs:
        return False, "associativity fails"
    return True, ""


def _check_straighten(rng: random.Random, poset_max: int, set_max: int) -> tuple[bool, str]:
    F = random_pro_object(rng, min(poset_max, 5), min(set_max, 3))
    G, pm = random_pre_morphism(rng, F)
    raw = random_raw_morphism(rng, F, G, pm)
    if not is_raw_morphism(F, G, raw):
        return False, "generator produced invalid raw data"
    try:
        st = straighten(F, G, raw)
    except TruncationExhausted:
        return True, ""
    if not is_pre_morphism(F, G, st.alpha, st.phi):
        return False, "straightened output is not a valid pre-morphism"
    for b in G.shape.elements:
        a, m = raw.rep[b]
        equal, _ = eq_in_colim(F.diagram, st.alpha[b], st.phi[b], a, m)
        if not equal:
            return False, f"straightened component not colim-equal at {b!r}"
    return True, ""


def _check_dominate(rng: random.Random, poset_max: int, set_max: int) -> tuple[bool, str]:
    F = random_pro_object(rng, min(poset_max, 5), min(set_max, 3))
    G, p = random_pre_morphism(rng, F)
    q = refine_pre_morphism(rng, F, G, p)
    try:
        r = dominate(F, G, p, q)
    except TruncationExhausted:
        return True, ""
    if not (pm_leq(F, p, r) and pm_leq(F, q, r)):
        return False, "merge output does not dominate both inputs"
    return True, ""


PROPERTIES: dict[str, Callable[[random.Random, int, int], tuple[bool, str]]] = {
    "reedy_factorization": _check_reedy,
    "reedy_restriction_coherence": _check_restriction_coherence,
    "chi_identity_law": _check_chi_identity,
    "chi_composition_law": _check_chi_composition,
    "lift_against_special": _check_lifting,
    "pre_morphism_order_laws": _check_pm_order,
    "pre_morphism_compose_monotone": _check_pm_monotone_compose,
    "pre_morphism_associativity": _check_pm_associativity,
    "straighten_round_trip": _check_straighten,
    "dominate_bounds": _check_dominate,
}


def property_suite(seed: int, cases: int, poset_max: int = 5, set_max: int = 4) -> dict[str, Any]:
    """Run every registered law on `cases` fresh random instances each."""
    results: dict[str, Any] = {}
    total = 0
    for name, check in PROPERTIES.items():
        passed = 0
        failures = []
        for i in range(cases):
            rng = random.Random(f"{seed}:{name}:{i}")
            ok, detail = check(rng, poset_max, set_max)
            total += 1
            if ok:
                passed += 1
            else:
                failures.append({"case": i, "detail": detail})
        results[name] = {"cases": cases, "passed": passed, "failures": failures}
    return {
        "seed": seed,
        "sizes": {"poset_max": poset_max, "set_max": set_max},
        "resource_usage": {"total_cases": total},
        "results": results,
        "all_pass": all(r["passed"] == r["cases"] for r in results.values()),
    }
