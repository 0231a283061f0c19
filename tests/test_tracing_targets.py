"""The traced benchmark run wraps profact functions by name; every name it
lists must still exist, or `perfbench/run.py --trace 1` stops with an
AttributeError."""

import importlib
import importlib.util
from pathlib import Path

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
