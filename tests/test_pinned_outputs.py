"""In-process byte-identity guard.

The golden corpus pins whole command-line calls; this pins the library's
own results on a fixed set of inputs at acceptance-1 sizes: both Reedy
factorizations of each arrow pre-morphism and its middle map, emitted as
the command line emits them.  The digest was computed before matching
limits were memoized and compositions stopped re-validating their results;
a change to any output byte changes it.
"""

import hashlib
import random

from profact.factorize import functorial_factorization_pro
from profact.randgen import random_arrow_pre_morphism, random_nattrans, random_poset
from profact.serialize import chi_to_json, dumps, reedy_to_json

PINNED = "b3c3e7d19abcacc320bc80e3ee20b6e758e589909adbe36ad6d3fdd7f805783b"


def test_factorizations_and_middle_maps_are_byte_identical():
    rng = random.Random(101)
    digest = hashlib.sha256()
    for _ in range(150):
        f = random_nattrans(rng, random_poset(rng, 6), 5)
        t, pm = random_arrow_pre_morphism(rng, f)
        rf_f, rf_t, chim = functorial_factorization_pro(f, t, pm)
        digest.update(dumps(reedy_to_json(rf_f)).encode())
        digest.update(dumps(reedy_to_json(rf_t)).encode())
        digest.update(dumps(chi_to_json(chim, chim.verify(pm, rf_f, rf_t))).encode())
    assert digest.hexdigest() == PINNED
