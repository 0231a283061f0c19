"""In-process byte-identity guard.

The golden corpus pins whole command-line calls; this pins the library's
own results on a fixed set of inputs at acceptance-1 sizes: both Reedy
factorizations of each arrow pre-morphism and its middle map, emitted as
the command line emits them.  The digest was computed before matching
limits were memoized and compositions stopped re-validating their results;
a change to any output byte changes it.  A second digest pins cofinal
towers with their directedness and cofinality reports, and a third the
cone lifts against special surjections with their reports.
"""

import hashlib
import json
import random
from importlib import resources

from profact.category import poset_as_category
from profact.cofinalize import build_tower, check_cofinality, check_tower_directedness
from profact.factorize import functorial_factorization_pro, verify_chi
from profact.lifting import lift_against_special
from profact.randgen import (
    random_arrow_pre_morphism,
    random_directed_poset,
    random_nattrans,
    random_poset,
    random_special_problem,
)
from profact.serialize import category_from_json, chi_to_json, cone_lift_to_json, dumps, reedy_to_json, tower_to_json

PINNED = "b3c3e7d19abcacc320bc80e3ee20b6e758e589909adbe36ad6d3fdd7f805783b"
# computed while _over_category, upper_bounds and reyshas still scanned
# every pair or subset
PINNED_TOWERS = "ec3b1ae100524a847939117824281a422f965dfa54c29c8746bbc95141756c2d"
# computed while lift_against_special still checked specialness in a
# matching pass of its own
PINNED_LIFTS = "5e87b8209660c24aecaa6b7c38940e46d2644bf531743f758a11f817b4213e90"


def test_factorizations_and_middle_maps_are_byte_identical():
    rng = random.Random(101)
    digest = hashlib.sha256()
    for _ in range(150):
        f = random_nattrans(rng, random_poset(rng, 6), 5)
        t, pm = random_arrow_pre_morphism(rng, f)
        rf_f, rf_t, chim = functorial_factorization_pro(f, t, pm)
        digest.update(dumps(reedy_to_json(rf_f)).encode())
        digest.update(dumps(reedy_to_json(rf_t)).encode())
        digest.update(dumps(chi_to_json(chim, verify_chi(chim, pm, rf_f, rf_t))).encode())
    assert digest.hexdigest() == PINNED


def test_towers_and_their_reports_are_byte_identical():
    """The directed fixtures and twelve seeded random directed posets, each
    at Reysha caps 2 and 3, emitted as `profact cofinalize` emits them."""
    load = lambda name: json.loads(resources.files("profact").joinpath("fixtures", name).read_text())
    categories = [category_from_json(load(name)) for name in ("one_object.json", "chain2.json", "chain3.json", "vee.json")]
    rng = random.Random(303)
    categories += [poset_as_category(random_directed_poset(rng, 3)) for _ in range(12)]
    digest = hashlib.sha256()
    for category in categories:
        for cap in (2, 3):
            tower = build_tower(category, levels=2, reysha_cap=cap)
            payload = tower_to_json(tower, tower.verify(), check_cofinality(tower), check_tower_directedness(tower))
            digest.update(dumps(payload).encode())
    assert digest.hexdigest() == PINNED_TOWERS


def test_lifts_against_special_surjections_are_byte_identical():
    rng = random.Random(505)
    digest = hashlib.sha256()
    for _ in range(300):
        problem = random_special_problem(rng, 5, 4)
        cone = lift_against_special(problem)
        digest.update(dumps(cone_lift_to_json(cone, cone.verify(problem))).encode())
    assert digest.hexdigest() == PINNED_LIFTS
