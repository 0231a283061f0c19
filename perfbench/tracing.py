"""Spans and counters at profact's layer boundaries, for the traced run.

install() replaces each traced function wherever a profact module binds it
(for example limit_over_poset in diagrams, factorize, lifting and randgen)
and uninstall() puts the originals back.  The untraced run never calls
install(), so it runs the program as a user does.

A span records the operation id, its own id, its parent's id, the layer name
and its start and end in process CPU nanoseconds.  Spans stay in memory
until the run writes them out.  base.compose and BaseMorphism construction
are too hot for spans and are only counted.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Layer name -> (module, attribute path) of every function traced by a span.
SPANS: dict[str, list[tuple[str, str]]] = {
    "base.pullback": [("profact.base", "pullback")],
    "diagrams.limit_over_poset": [("profact.diagrams", "limit_over_poset")],
    "diagrams.limit_map": [("profact.diagrams", "limit_map")],
    "diagrams.matching_data": [("profact.diagrams", "matching_data")],
    "diagrams.is_special": [("profact.diagrams", "is_special")],
    "diagrams.Diagram.make": [("profact.diagrams", "Diagram.make")],
    "diagrams.NatTrans.make": [("profact.diagrams", "NatTrans.make")],
    "factorize.reedy": [("profact.factorize", "reedy")],
    "factorize.chi_construct": [("profact.factorize", "chi_construct")],
    "lifting.lift_against_special": [("profact.lifting", "lift_against_special")],
    "lifting.has_lift_bruteforce": [("profact.lifting", "has_lift_bruteforce")],
    "cofinalize.build_tower": [("profact.cofinalize", "build_tower")],
    "cofinalize.CofinalTower.verify": [("profact.cofinalize", "CofinalTower.verify")],
    "cofinalize.check_cofinality": [("profact.cofinalize", "check_cofinality")],
    "cofinalize.check_tower_directedness": [("profact.cofinalize", "check_tower_directedness")],
    "category.is_directed_category": [("profact.category", "is_directed_category")],
    "poset.FinPoset.make": [("profact.poset", "FinPoset.make")],
    "poset.FinPoset.reyshas": [("profact.poset", "FinPoset.reyshas")],
    "procalc.dominate": [("profact.procalc", "dominate")],
    "procalc.straighten": [("profact.procalc", "straighten")],
    "report.property_suite": [("profact.report", "property_suite")],
    "serialize.parse": [("profact.cli", "_load")]
    + [
        ("profact.serialize", name)
        for name in (
            "poset_from_json",
            "object_from_json",
            "morphism_from_json",
            "diagram_from_json",
            "nattrans_from_json",
            "category_from_json",
            "arrow_pre_morphism_from_json",
            "lifting_problem_from_json",
            "pro_object_from_json",
            "pre_morphism_from_json",
        )
    ],
    "serialize.emit": [("profact.cli", "_emit")],
    "randgen": [
        ("profact.randgen", name)
        for name in (
            "random_poset",
            "random_subposet",
            "random_object",
            "random_map",
            "random_injection",
            "random_diagram",
            "random_nattrans",
            "reindex",
            "junk_extend",
            "pushout_diagram",
            "random_arrow_pre_morphism",
            "refine_arrow_pre_morphism",
            "random_directed_poset",
            "random_pro_object",
            "random_pre_morphism",
            "refine_pre_morphism",
            "random_special_problem",
            "random_raw_morphism",
        )
    ],
}

# Counter name -> (module, attribute path) of every function only counted.
COUNTERS: dict[str, tuple[str, str]] = {
    "base.BaseMorphism": ("profact.base", "BaseMorphism.__post_init__"),
    "base.compose": ("profact.base", "compose"),
}

# Layers whose arguments or results are kept for counts taken after the run.
KEEP = {
    "base.pullback",
    "diagrams.limit_over_poset",
    "factorize.reedy",
    "lifting.has_lift_bruteforce",
    "cofinalize.build_tower",
    "cofinalize.CofinalTower.verify",
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget everything recorded so far; wrappers stay installed."""
        self.spans.clear()
        self.self_ns.clear()
        self.calls.clear()
        self.kept.clear()

    def _span(self, name: str, fn):
        clock = time.process_time_ns
        stack = self._stack
        spans = self.spans
        keep = name in KEEP

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans.append((self.op, span_id, parent, name, start, end))
            if keep:
                self.kept[name].append((args, result))
            return result

        return wrapper

    def _generator_span(self, name: str, fn):
        """Times each resumption of a generator as one span."""
        step = self._span(name, next)

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module: str, path: str, make_wrapper) -> None:
        owner, attr = _resolve(module, path)
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            original = raw.__func__
            wrapped = staticmethod(make_wrapper(original))
        else:
            original = raw
            wrapped = make_wrapper(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # a module-level function: rebind it in every profact module that
        # holds it, since each caller looks the name up in its own globals
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "profact" or mod_name.startswith("profact.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        for name, targets in SPANS.items():
            for module, path in targets:
                if module not in sys.modules:
                    continue
                owner, attr = _resolve(module, path)
                fn = getattr(owner, attr)
                if inspect.isgeneratorfunction(fn):
                    self._replace(module, path, lambda f, n=name: self._generator_span(n, f))
                else:
                    self._replace(module, path, lambda f, n=name: self._span(n, f))
        for name, (module, path) in COUNTERS.items():
            self._replace(module, path, lambda f, n=name: self._counter(n, f))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("# op span parent name start_ns end_ns\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _limit_key(diagram) -> tuple:
    """The value of a diagram: shape, fibers and arrow maps."""
    shape = diagram.shape
    return (
        shape.elements,
        tuple(sorted(shape.le_pairs)),
        tuple(diagram.at(x).carrier for x in shape.elements),
        tuple(
            tuple(sorted(diagram.arrow(x, y).mapping.items()))
            for x in shape.elements
            for y in shape.elements
            if shape.le(y, x)
        ),
    )


def _oracle_counts(args, result) -> tuple[int, int]:
    """Maps tried by has_lift_bruteforce up to the lift it returned, and how
    many of them lie in the product of the preimages f^-1(bottom(b)).

    The oracle walks maps B -> X in itertools.product order over X's
    carrier, so the returned lift's rank in that order gives the count.
    """
    g, f, _top, bottom = args[:4]
    found, lift = result
    domain, codomain = g.target.carrier, f.source.carrier
    admissible = [[x for x in codomain if f.mapping[x] == bottom.mapping[b]] for b in domain]
    if not found:
        total = len(codomain) ** len(domain)
        inside = 1
        for values in admissible:
            inside *= len(values)
        return total, inside
    position = {x: i for i, x in enumerate(codomain)}
    rank = 0
    inside = 1  # the lift itself
    for k, b in enumerate(domain):
        chosen = position[lift.mapping[b]]
        rank = rank * len(codomain) + chosen
        below = sum(1 for x in admissible[k] if position[x] < chosen)
        rest = 1
        for values in admissible[k + 1 :]:
            rest *= len(values)
        inside += below * rest
    return rank + 1, inside


def _tower_counts(tower) -> tuple[int, int]:
    """n**3 for the top level, and how many triples are chains c >= c2 >= c3."""
    top = tower.top
    n = len(top.elements)
    ups: Counter[str] = Counter()
    downs: Counter[str] = Counter()
    for low, high in top.le_pairs:
        ups[low] += 1
        downs[high] += 1
    chains = sum(ups[c] * downs[c] for c in top.elements)
    return n**3, chains


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, float]:
    """Per-layer figures of the traced phase; times are calibrated ms."""
    ms = {name: tracer.self_ns[name] / 1e6 * scale for name in SPANS}
    calls = tracer.calls
    kept = tracer.kept
    limits = kept["diagrams.limit_over_poset"]
    seen: set = set()
    repeats = 0
    for (diagram,), _ in limits:
        key = _limit_key(diagram)
        repeats += key in seen
        seen.add(key)
    oracle = [_oracle_counts(args, result) for args, result in kept["lifting.has_lift_bruteforce"]]
    tried = sum(t for t, _ in oracle)
    towers = [_tower_counts(args[0]) for args, _ in kept["cofinalize.CofinalTower.verify"]]
    triples = sum(t for t, _ in towers)
    return {
        "base.BaseMorphism.count": calls["base.BaseMorphism"],
        "base.compose.count": calls["base.compose"],
        "base.pullback.ms": ms["base.pullback"],
        "base.pullback.elements": sum(len(r[0].carrier) for _, r in kept["base.pullback"]),
        "diagrams.limit_over_poset.count": calls["diagrams.limit_over_poset"],
        "diagrams.limit_over_poset.ms": ms["diagrams.limit_over_poset"],
        "diagrams.limit_over_poset.elements": sum(len(r[0].carrier) for _, r in limits),
        "diagrams.limit_over_poset.repeat_share": repeats / len(limits) if limits else 0.0,
        "diagrams.limit_map.ms": ms["diagrams.limit_map"],
        "diagrams.matching_data.ms": ms["diagrams.matching_data"],
        "diagrams.is_special.ms": ms["diagrams.is_special"],
        "diagrams.Diagram.make.ms": ms["diagrams.Diagram.make"],
        "diagrams.NatTrans.make.ms": ms["diagrams.NatTrans.make"],
        "factorize.reedy.ms": ms["factorize.reedy"],
        "factorize.reedy.mid_elements": sum(
            sum(len(rf.mid.at(x)) for x in rf.mid.shape.elements) for _, rf in kept["factorize.reedy"]
        ),
        "factorize.chi_construct.ms": ms["factorize.chi_construct"],
        "lifting.lift_against_special.ms": ms["lifting.lift_against_special"],
        "lifting.has_lift_bruteforce.ms": ms["lifting.has_lift_bruteforce"],
        "lifting.has_lift_bruteforce.candidates": tried,
        "lifting.has_lift_bruteforce.admissible_share": (
            sum(i for _, i in oracle) / tried if tried else 0.0
        ),
        "cofinalize.build_tower.ms": ms["cofinalize.build_tower"],
        "cofinalize.build_tower.elements": sum(
            len(tower.top.elements) for _, tower in kept["cofinalize.build_tower"]
        ),
        "cofinalize.CofinalTower.verify.ms": ms["cofinalize.CofinalTower.verify"],
        "cofinalize.CofinalTower.verify.triples": triples,
        "cofinalize.CofinalTower.verify.chain_share": (
            sum(c for _, c in towers) / triples if triples else 0.0
        ),
        "cofinalize.check_cofinality.ms": ms["cofinalize.check_cofinality"],
        "cofinalize.check_tower_directedness.ms": ms["cofinalize.check_tower_directedness"],
        "category.is_directed_category.ms": ms["category.is_directed_category"],
        "poset.FinPoset.make.ms": ms["poset.FinPoset.make"],
        "poset.FinPoset.reyshas.ms": ms["poset.FinPoset.reyshas"],
        "procalc.dominate.ms": ms["procalc.dominate"],
        "procalc.straighten.ms": ms["procalc.straighten"],
        "report.property_suite.ms": ms["report.property_suite"],
        "serialize.parse_ms": ms["serialize.parse"],
        "serialize.emit_ms": ms["serialize.emit"],
    }
