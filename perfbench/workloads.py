"""The four workloads: how each makes its inputs from a seed, what one
operation is, and a canonical encoding of the inputs for their digest.

Inputs are made before timing starts.  Each workload draws from profact's
seeded generators and keeps a draw only while the stratum it falls in still
has room, so every seed gives the same mix of sizes; see README "Workloads".
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import resource
import sys
import time
from dataclasses import dataclass, field

import calibrate
import checks
import launch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "profact", "fixtures")
OUT = os.path.join(ROOT, ".perfbench-out")

DIRECTED_FIXTURES = ("one_object.json", "chain2.json", "chain3.json", "vee.json")
# draws between two calibration samples during set-up
TICK_EVERY = 25


def _morphism(m) -> list:
    return [list(m.source.carrier), list(m.target.carrier), sorted(m.mapping.items())]


def _poset(p) -> list:
    return [list(p.elements), sorted(p.le_pairs)]


def _diagram(d) -> list:
    return [
        _poset(d.shape),
        {x: list(d.at(x).carrier) for x in d.shape.elements},
        sorted([list(pair), sorted(m.mapping.items())] for pair, m in d.arrows.items()),
    ]


def _nattrans(nt) -> list:
    return [
        _diagram(nt.source),
        _diagram(nt.target),
        {x: sorted(nt.at(x).mapping.items()) for x in nt.shape.elements},
    ]


def _category(c) -> list:
    return [
        list(c.objects),
        list(c.morphisms),
        c.src,
        c.tgt,
        sorted([g, f, h] for (g, f), h in c.compose_table.items()),
        c.identities,
    ]


def digest(encoded) -> str:
    text = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class InProcess:
    """A workload whose operations run in this process.

    Its inputs are drawn one at a time from a seeded generator; a draw is
    kept while its stratum, stratum(draw), still has room in QUOTA.  Every
    round of the timed phase gets inputs of its own, from its own
    generator, so no operation of a run repeats an earlier one's input
    unless the generator itself repeats it.
    """

    child_calibration = False
    fresh_rounds = True
    # at least this many operations a run, so that op_ms_p90 has ten
    # samples beyond it
    MIN_OPS = 100
    QUOTA: dict = {}
    # draws made in the set-up even when the strata fill sooner, so that
    # set-up does the same work for every seed; the kept inputs are the
    # same as without them
    SETUP_DRAWS = 0

    def generate(self, seed: int, rnd: int = 0, limit: int | None = None, min_draws: int = 0, tick=None) -> list:
        """The inputs of round `rnd`: the first QUOTA[key] draws of each
        stratum key, in draw order; with `limit`, only the first `limit`.
        `tick()` is called before every TICK_EVERY-th draw."""
        rng = random.Random(f"{self.name}:{seed}:{rnd}")
        room = dict(self.QUOTA)
        total = limit if limit is not None else sum(room.values())
        inputs: list = []
        draws = 0
        while len(inputs) < total or draws < min_draws:
            if tick is not None and draws % TICK_EVERY == 0:
                tick()
            draw = self.draw(rng)
            draws += 1
            key = self.stratum(draw)
            if len(inputs) < total and room.get(key):
                room[key] -= 1
                inputs.append(self.make(rng, draw, rnd, len(inputs)))
        return inputs

    def make(self, rng, draw, rnd: int, k: int):
        """The input made of a kept draw, the k-th of round `rnd`."""
        return draw

    def measure(self, item):
        """Run one operation; returns (output, ok, cpu ns, wall ns)."""
        wall = time.perf_counter_ns()
        cpu = time.process_time_ns()
        output, ok = self.attempt(item)
        cpu = time.process_time_ns() - cpu
        wall = time.perf_counter_ns() - wall
        return output, ok, cpu, wall

    def attempt(self, item):
        """(output, ok) of one operation.  An operation that raises has
        failed, and its output is the exception."""
        try:
            return self.run(item), True
        except Exception as exc:  # noqa: BLE001  (counted in `failed`)
            return exc, False

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Factor(InProcess):
    """functorial_factorization_pro(f, t, pm) at the acceptance-1 sizes.

    f is drawn over random_poset(rng, 6) with fibers up to 5, and (t, pm)
    from random_arrow_pre_morphism(f).  Strata: the number of order pairs
    of the index poset, which sets most of an operation's cost, with
    QUOTA[pairs] inputs each.  The quotas follow the frequencies
    random_poset(rng, 6) gives (frequencies.py, 20,000 draws), so the mix
    is the generator's own, without its sampling spread.
    """

    name = "factor"
    calibrate_every = 4
    QUOTA = {
        1: 152, 2: 83, 3: 90, 4: 64, 5: 56, 6: 63, 7: 46, 8: 41, 9: 44, 10: 44, 11: 37, 12: 31,
        13: 32, 14: 29, 15: 25, 16: 19, 17: 16, 18: 12, 19: 10, 20: 4, 21: 2,
    }

    def draw(self, rng):
        from profact import randgen

        return randgen.random_poset(rng, 6)

    def stratum(self, shape) -> int:
        return len(shape.le_pairs)

    def make(self, rng, shape, rnd: int, k: int):
        from profact import randgen

        f = randgen.random_nattrans(rng, shape, 5)
        t, pm = randgen.random_arrow_pre_morphism(rng, f)
        return f, t, pm

    def encode(self, inputs) -> list:
        return [
            [
                _nattrans(f),
                _nattrans(t),
                [sorted(pm.alpha.items()), {b: _morphism(m) for b, m in pm.phi.items()},
                 {b: _morphism(m) for b, m in pm.psi.items()}],
            ]
            for f, t, pm in inputs
        ]

    def run(self, item):
        from profact import factorize

        f, t, pm = item
        return factorize.functorial_factorization_pro(f, t, pm)

    def check(self, item, output) -> list[str]:
        return checks.check_factor(item, output)


def oracle_candidates(problem) -> int:
    """Maps B -> X that has_lift_bruteforce tries before its first lift,
    summed over the elements: the rank of the least lift in the
    itertools.product order, plus one.  Computed from the problem alone."""
    g = problem.left
    image = {g.mapping[a]: a for a in g.source.carrier}
    total = 0
    for t in problem.right.shape.elements:
        f = problem.right.at(t)
        codomain = f.source.carrier
        rank = 0
        for b in g.target.carrier:
            wanted = problem.bottom[t].mapping[b]
            fixed = problem.top[t].mapping[image[b]] if b in image else None
            chosen = next(
                i
                for i, x in enumerate(codomain)
                if f.mapping[x] == wanted and (fixed is None or x == fixed)
            )
            rank = rank * len(codomain) + chosen
        total += rank + 1
    return total


class Lift(InProcess):
    """lift_against_special, then has_lift_bruteforce at every element.

    Problems come from random_special_problem(rng, 5, 4), kept only when
    every element's search space fits the oracle's default cap (the
    acceptance-2 filter).  Strata: a problem whose oracle_candidates lie in
    octave 9 to 12 goes by its octave; a lighter one goes by its number of
    poset elements, which sets the cost of lift_against_special, and its
    band of three octaves.  Problems past octave 12 are left out (see
    README).  The quotas follow the frequencies the generator gives
    (frequencies.py), rounded to 400 problems a round.
    """

    name = "lift"
    calibrate_every = 4
    QUOTA = {
        **{(1, 0): 43, (1, 1): 25, (1, 2): 12},
        **{(2, 0): 27, (2, 1): 28, (2, 2): 19},
        **{(3, 0): 21, (3, 1): 28, (3, 2): 20},
        **{(4, 0): 18, (4, 1): 24, (4, 2): 21},
        **{(5, 0): 21, (5, 1): 19, (5, 2): 18},
        ("octave", 9): 20,
        ("octave", 10): 16,
        ("octave", 11): 11,
        ("octave", 12): 9,
    }
    SETUP_DRAWS = 900

    def draw(self, rng):
        from profact import randgen

        return randgen.random_special_problem(rng, 5, 4)

    def stratum(self, problem):
        from profact.lifting import SEARCH_CAP

        size_b = len(problem.left.target)
        if any(len(problem.right.source.at(t)) ** size_b > SEARCH_CAP for t in problem.right.shape.elements):
            return None
        octave = oracle_candidates(problem).bit_length() - 1
        if octave > 12:
            return None
        if octave >= 9:
            return ("octave", octave)
        return (len(problem.right.shape.elements), octave // 3)

    def encode(self, inputs) -> list:
        return [
            [
                _morphism(p.left),
                _nattrans(p.right),
                {t: _morphism(m) for t, m in p.top.items()},
                {t: _morphism(m) for t, m in p.bottom.items()},
            ]
            for p in inputs
        ]

    def run(self, problem):
        from profact import lifting

        cone = lifting.lift_against_special(problem)
        oracle = {
            t: lifting.has_lift_bruteforce(
                problem.left, problem.right.at(t), problem.top[t], problem.bottom[t]
            )
            for t in problem.right.shape.elements
        }
        return cone, oracle

    def check(self, item, output) -> list[str]:
        return checks.check_lift(item, output)


def order_profile(poset) -> tuple:
    """The sorted (downset size, upset size) pairs of a poset's elements,
    which tell apart the directed posets of up to four elements."""
    return tuple(
        sorted(
            (sum(1 for y in poset.elements if poset.le(y, x)), sum(1 for y in poset.elements if poset.le(x, y)))
            for x in poset.elements
        )
    )


def _relabel(cat, prefix: str):
    """A copy of a category with every object and morphism name prefixed.
    A common prefix keeps the names in the same order."""
    from profact.category import FinCategory

    name = lambda x: prefix + x
    return FinCategory.make(
        [name(o) for o in cat.objects],
        [name(m) for m in cat.morphisms],
        {name(m): name(o) for m, o in cat.src.items()},
        {name(m): name(o) for m, o in cat.tgt.items()},
        {(name(g), name(f)): name(h) for (g, f), h in cat.compose_table.items()},
        {name(o): name(m) for o, m in cat.identities.items()},
    )


class Towers(InProcess):
    """build_tower at 2 levels, CofinalTower.verify,
    check_tower_directedness and check_cofinality.

    Inputs: the directed fixtures at Reysha caps 2 and 3, plus
    poset_as_category of random_directed_poset(rng, 4).  Strata: the
    order profile of the random poset, which random_directed_poset(rng, 4)
    gives eight of; the quotas follow the frequencies the generator gives
    (frequencies.py), at the caps CAPS[elements].  Four-element posets
    stay at cap 2 (see README).  Every input's names carry its round and
    place, so no two inputs of a run are equal by value: the generator
    itself gives one two-element poset only.
    """

    name = "towers"
    calibrate_every = 1
    # op_ms_p90 falls among the four-element chains, the group just below
    # the three-element chains at cap 3.  With 20 posets a round and three
    # rounds it fell on the slowest of three such operations and spread by
    # 9% between seeds; with 23 posets and four rounds (184 operations) it
    # falls inside a group of eight.
    MIN_OPS = 150
    QUOTA = {
        ((1, 2), (2, 1)): 8,
        ((1, 2), (1, 2), (3, 1)): 4,
        ((1, 3), (2, 2), (3, 1)): 3,
        ((1, 2), (1, 3), (2, 2), (4, 1)): 3,
        ((1, 4), (2, 3), (3, 2), (4, 1)): 2,
        ((1, 2), (1, 2), (1, 2), (4, 1)): 1,
        ((1, 4), (2, 2), (2, 2), (4, 1)): 1,
        ((1, 3), (1, 3), (3, 2), (4, 1)): 1,
    }
    CAPS = {2: (2, 3), 3: (2, 3), 4: (2,)}

    def generate(self, seed: int, rnd: int = 0, limit: int | None = None, min_draws: int = 0, tick=None) -> list:
        """The fixtures, then the random posets, each at its caps."""
        from profact.serialize import category_from_json

        inputs = []
        for name in DIRECTED_FIXTURES:
            with open(os.path.join(FIXTURES, name)) as handle:
                cat = _relabel(category_from_json(json.load(handle)), f"r{rnd}:")
            inputs.extend((name, cat, cap) for cap in (2, 3))
        for label, cat in super().generate(seed, rnd, limit, min_draws, tick):
            inputs.extend((label, cat, cap) for cap in self.CAPS[len(cat.objects)])
        return inputs

    def draw(self, rng):
        from profact import randgen

        return randgen.random_directed_poset(rng, 4)

    def stratum(self, poset) -> tuple:
        return order_profile(poset)

    def make(self, rng, poset, rnd: int, k: int):
        from profact.category import poset_as_category
        from profact.poset import FinPoset

        name = lambda x: f"r{rnd}p{k}:{x}"
        renamed = FinPoset.make([name(x) for x in poset.elements], [(name(x), name(y)) for x, y in poset.le_pairs])
        return f"random {order_profile(poset)}", poset_as_category(renamed)

    def encode(self, inputs) -> list:
        return [[label, _category(cat), cap] for label, cat, cap in inputs]

    def run(self, item):
        from profact import cofinalize

        _, cat, cap = item
        tower = cofinalize.build_tower(cat, levels=2, reysha_cap=cap)
        verdicts = tower.verify()
        directed = cofinalize.check_tower_directedness(tower)
        reports = cofinalize.check_cofinality(tower)
        return tower, verdicts, directed, reports

    def check(self, item, output) -> list[str]:
        return checks.check_towers(item, output)


@dataclass(frozen=True)
class Call:
    """One profact command line call and what it must give."""

    label: str
    args: list[str]
    code: int
    expect: dict = field(default_factory=dict)


def _write(directory: str, name: str, payload) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        if isinstance(payload, str):
            handle.write(payload)
        else:
            json.dump(payload, handle, sort_keys=True, indent=1)
    return path


class Cli:
    """Whole `python -m profact.cli` calls, one at a time.

    One round covers every subcommand on the bundled fixtures, a seeded
    chi input set and seeded reedy and directed-poset documents, and five
    malformed documents.  The seed changes only the seeded documents and
    the suite seed, so every round has the same calls and expected codes.
    """

    name = "cli"
    # calls are timed as child processes, so calibration samples are too
    calibrate_every = 3
    SETUP_DRAWS = 0
    child_calibration = True
    # every round makes the same calls, so `failed` is the same share of
    # every run; later rounds must repeat the first round's stdout
    fresh_rounds = False
    MIN_OPS = 100

    def __init__(self) -> None:
        self._peak_kib = 0
        self._env = self.environment()

    def generate(self, seed: int, rnd: int = 0, limit: int | None = None, min_draws: int = 0, tick=None) -> list:
        """The whole round, the same for every round; it is cheap, so
        `limit` does not shorten it, and it makes no draws to tick."""
        from profact import randgen, serialize

        rng = random.Random(f"cli:{seed}")
        f = randgen.random_nattrans(rng, randgen.random_poset(rng, 4), 3)
        t, pm = randgen.random_arrow_pre_morphism(rng, f)
        poset = randgen.random_directed_poset(rng, 5)
        directory = os.path.join(OUT, f"cli-{seed}")
        os.makedirs(directory, exist_ok=True)
        fx = lambda name: os.path.join(FIXTURES, name)
        with open(fx("identity_over_v.json")) as handle:
            identity = json.load(handle)
        unhashable = copy.deepcopy(identity)
        unhashable["source"]["arrows"][0]["from"] = ["a"]
        missing_key = copy.deepcopy(identity)
        del missing_key["components"]
        docs = {
            "f.json": serialize.nattrans_to_json(f),
            "t.json": serialize.nattrans_to_json(t),
            "pm.json": {
                "alpha": dict(pm.alpha),
                "phi": {b: dict(m.mapping) for b, m in pm.phi.items()},
                "psi": {b: dict(m.mapping) for b, m in pm.psi.items()},
            },
            "poset.json": serialize.poset_to_json(poset),
            "bad.json": '{"source": {"poset": ',
            "missing_key.json": missing_key,
            "unhashable.json": unhashable,
        }
        path = {name: _write(directory, name, doc) for name, doc in docs.items()}
        towers = ["-F", fx("merge_tower_F.json"), "-G", fx("merge_tower_G.json")]
        calls = [
            Call("reedy identity_over_v", ["reedy", fx("identity_over_v.json")], 0),
            Call("reedy seeded f", ["reedy", path["f.json"]], 0),
            Call("reedy seeded t", ["reedy", path["t.json"]], 0),
            Call("chi seeded", ["chi", "-f", path["f.json"], "-t", path["t.json"], "-p", path["pm.json"]], 0),
            Call("lift lift_over_v", ["lift", fx("lift_over_v.json")], 0),
            Call("cofinalize one_object 1/2", ["cofinalize", fx("one_object.json"), "--levels", "1", "--reysha-cap", "2"], 0),
            Call("cofinalize one_object", ["cofinalize", fx("one_object.json")], 0),
            Call("cofinalize chain2", ["cofinalize", fx("chain2.json")], 0),
            Call("cofinalize chain3", ["cofinalize", fx("chain3.json")], 0),
            Call("cofinalize chain3 2/2", ["cofinalize", fx("chain3.json"), "--reysha-cap", "2"], 0),
            Call("cofinalize vee 2/2", ["cofinalize", fx("vee.json"), "--reysha-cap", "2"], 0),
            Call("cofinalize parallel_pair", ["cofinalize", fx("parallel_pair.json")], 1),
            Call("merge p p", ["merge", *towers, "-p", fx("merge_p.json"), "-q", fx("merge_p.json")], 0),
            Call("merge p q", ["merge", *towers, "-p", fx("merge_p.json"), "-q", fx("merge_q.json")], 1),
            Call("check directed-category parallel_pair",
                 ["check", "directed-category", fx("parallel_pair.json")], 0, {"directed": False}),
            Call("check directed-category chain3",
                 ["check", "directed-category", fx("chain3.json")], 0, {"directed": True}),
            Call("check directed-poset seeded", ["check", "directed-poset", path["poset.json"]], 0, {"directed": True}),
            Call("check levelwise identity_over_v",
                 ["check", "levelwise", fx("identity_over_v.json")], 0, {"levelwise": True}),
            Call("check special identity_over_v",
                 ["check", "special", fx("identity_over_v.json")], 0, {"special": True}),
            Call("check pm-valid", ["check", "pm-valid", fx("merge_p.json"), *towers], 0, {"valid": True}),
            Call("check pm-leq", ["check", "pm-leq", fx("merge_p.json"), *towers, "-q", fx("merge_q.json")],
                 0, {"leq": False}),
            Call("suite seeded", ["suite", "--seed", str(seed), "--cases", "1", "--poset-max", "3", "--set-max", "3"],
                 0, {"all_pass": True}),
            Call("reedy missing file", ["reedy", os.path.join(directory, "missing.json")], 3),
            Call("reedy bad JSON", ["reedy", path["bad.json"]], 3),
            Call("reedy missing key", ["reedy", path["missing_key.json"]], 3),
            Call("reedy broken_naturality", ["reedy", fx("broken_naturality.json")], 3),
            Call("reedy unhashable id", ["reedy", path["unhashable.json"]], 3),
        ]
        return calls

    def encode(self, calls) -> list:
        encoded = []
        for call in calls:
            files = {}
            for arg in call.args:
                if os.path.isfile(arg):
                    with open(arg, "rb") as handle:
                        files[os.path.basename(arg)] = hashlib.sha256(handle.read()).hexdigest()
            args = [os.path.basename(a) if os.sep in a else a for a in call.args]
            encoded.append([call.label, args, call.code, call.expect, files])
        return encoded

    def environment(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def measure(self, call):
        """Run one call as a child process; its CPU time and peak RSS come
        from the child's rusage."""
        argv = [sys.executable, "-m", "profact.cli", *call.args]
        code, cpu, rss_kib, stdout, wall = calibrate.run_child(argv, env=self._env, cwd=ROOT, capture_dir=OUT)
        self._peak_kib = max(self._peak_kib, rss_kib)
        return (code, stdout), code == call.code, cpu, wall

    def peak_rss_kib(self) -> int:
        return self._peak_kib

    def attempt(self, call):
        """The same call in this process, for the traced run."""
        output = launch.run_in_process(call.args)
        return output, output[0] == call.code

    def check(self, call, output) -> list[str]:
        return checks.check_cli(call, output)


WORKLOADS = {w.name: w for w in (Factor(), Lift(), Towers(), Cli())}
