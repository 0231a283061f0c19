"""The traced benchmark run wraps profact functions by name; every name it
lists must still exist, or `perfbench/run.py --trace 1` stops with an
AttributeError.  The calls whose arguments it reads must keep their
shape, or its per-layer counts go blind."""

import importlib
import importlib.util
import random
from pathlib import Path

from profact import diagrams
from profact.factorize import reedy
from profact.randgen import random_nattrans, random_poset

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


def test_reedy_takes_every_matching_limit_through_the_traced_call(monkeypatch):
    """The traced run counts diagrams.limit_over_poset calls and reads each
    call's one positional Diagram.  So reedy takes every matching limit
    through that call: once per distinct strict downset of f.shape in each
    of its three memos, those of f.target, of the construction's middle
    diagram and of the verifier's middle diagram."""
    calls = []
    original = diagrams.limit_over_poset

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(diagrams, "limit_over_poset", spy)
    rng = random.Random(1805)
    for _ in range(200):
        f = random_nattrans(rng, random_poset(rng, 5), 3)
        calls.clear()
        reedy(f)
        assert all(len(args) == 1 and not kwargs and isinstance(args[0], diagrams.Diagram) for args, kwargs in calls)
        downsets = {f.shape.strict_downset(x) for x in f.shape.elements}
        assert len(calls) == 3 * len(downsets)
