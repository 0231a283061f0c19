"""The traced benchmark run wraps profact functions by name; every name it
lists must still exist, or `perfbench/run.py --trace 1` stops with an
AttributeError.  The calls whose arguments it reads must keep their
shape, or its per-layer counts go blind."""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

from profact import base, diagrams
from profact.factorize import reedy
from profact.lifting import lift_against_special
from profact.randgen import random_nattrans, random_poset, random_special_problem

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    targets = [t for group in tracing.SPANS.values() for t in group]
    targets += list(tracing.COUNTERS.values())
    for module, path in targets:
        # each module is imported here, since the command line loads only
        # the modules a command needs
        importlib.import_module(module)
        owner, attr = tracing._resolve(module, path)
        assert hasattr(owner, attr), f"{module}.{path}"


def spy_on_every_binding(monkeypatch, module, name):
    """Record every call of module.name, in each profact module that binds
    it, as the traced run's wrappers do."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("profact") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)
    return calls


def test_reedy_takes_every_matching_limit_through_the_traced_call(monkeypatch):
    """The traced run counts diagrams.limit_over_poset and base.pullback
    calls, reads each limit call's one positional Diagram, and times the
    specialness walk by its diagrams.matching_data span.  reedy and
    lift_against_special call neither counted function: the construction
    takes every matching pullback in one join, and the walk calls
    matching_data once an element, which joins at each element with a
    strict downset.  The generators take their matching limits without
    limit_over_poset, and random_special_problem's two whole limits pass
    one Diagram each."""
    limits = spy_on_every_binding(monkeypatch, diagrams, "limit_over_poset")
    pullbacks = spy_on_every_binding(monkeypatch, base, "pullback")
    joins = spy_on_every_binding(monkeypatch, diagrams, "_matching_join")
    walked = spy_on_every_binding(monkeypatch, diagrams, "matching_data")
    rng = random.Random(1805)
    for i in range(200):
        f = random_nattrans(rng, random_poset(rng, 5), 3)
        problem = random_special_problem(rng, 5, 3) if i % 4 == 0 else None
        assert bool(limits) == (problem is not None)
        assert all(len(a) == 1 and not k and isinstance(a[0], diagrams.Diagram) for a, k in limits)
        limits.clear()
        joins.clear()
        walked.clear()
        reedy(f)
        # one join per element in the construction, and one per element
        # with a strict downset in its check, whose walk visits them all
        inner = [x for x in f.shape.elements if f.shape.strict_downset(x)]
        assert len(joins) == len(f.shape.elements) + len(inner)
        assert len(walked) == len(f.shape.elements)
        if problem is not None:
            joins.clear()
            walked.clear()
            lift_against_special(problem)
            shape = problem.right.shape
            assert len(joins) == len([x for x in shape.elements if shape.strict_downset(x)])
            assert len(walked) == len(shape.elements)
        assert not limits and not pullbacks
