"""A fixed calibration routine for CPU-time measurements.

The routine is pure Python and calls no profact code, but does the same kind
of work: it builds small frozen dataclasses, checks them with set
comparisons, and composes dict maps.  Its CPU time follows the speed the
machine gives this process at the moment, so a measured time scaled by
REFERENCE_MS / routine time reads as if taken on the reference machine.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

# Median CPU time of one routine() call on the reference machine
# (2-core x86-64 container, CPython 3.11.7); see README "Calibration".
REFERENCE_MS = 1.06
# Median CPU time, user plus system, of one child_sample() process there:
# interpreter start-up, this module's import and CHILD_ROUNDS routine() calls.
REFERENCE_CHILD_MS = 112.0
CHILD_ROUNDS = 10


@dataclass(frozen=True)
class _Set:
    carrier: tuple[str, ...]
    members: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.carrier))


@dataclass(frozen=True)
class _Map:
    source: _Set
    target: _Set
    mapping: dict[str, str]

    def __post_init__(self) -> None:
        if set(self.mapping) != self.source.members:
            raise ValueError("map is not total")
        for value in self.mapping.values():
            if value not in self.target.members:
                raise ValueError("value outside target")


def _compose(g: _Map, f: _Map) -> _Map:
    return _Map(f.source, g.target, {x: g.mapping[f.mapping[x]] for x in f.source.carrier})


def routine(rounds: int = 2) -> int:
    """A fixed amount of work; the result only keeps it from being skipped."""
    sets = [_Set(tuple(f"s{k}_{i}" for i in range(60 + k % 5))) for k in range(8)]
    acc = 0
    for r in range(rounds):
        maps = []
        for a, b in zip(sets, sets[1:]):
            mapping = {x: b.carrier[(i * 7 + r) % len(b.carrier)] for i, x in enumerate(a.carrier)}
            maps.append(_Map(a, b, mapping))
        composite = maps[0]
        for m in maps[1:]:
            composite = _compose(m, composite)
        fibers: dict[str, list[str]] = {}
        for x in composite.source.carrier:
            fibers.setdefault(composite.mapping[x], []).append(x)
        acc += len(fibers)
        acc += sum(1 for m in maps if m == _Map(m.source, m.target, dict(m.mapping)))
    return acc


def sample() -> int:
    """CPU nanoseconds of one routine() call."""
    start = time.process_time_ns()
    routine()
    return time.process_time_ns() - start


def run_child(
    argv: list[str], env: dict | None = None, cwd: str | None = None, capture_dir: str | None = None
) -> tuple[int, int, int, bytes, int]:
    """Run one child process to its end.  Returns its exit code, its CPU
    ns (user plus system, from its rusage), its peak RSS in KiB, its
    standard output and the wall ns it took.  Standard output is kept in
    a temporary file under `capture_dir`, or thrown away without one."""
    import contextlib
    import subprocess
    import tempfile

    with contextlib.ExitStack() as stack:
        out = stack.enter_context(tempfile.TemporaryFile(dir=capture_dir)) if capture_dir else None
        wall = time.perf_counter_ns()
        child = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL if out is None else out,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=cwd,
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter_ns() - wall
        child.returncode = os.waitstatus_to_exitcode(status)
        stdout = b""
        if out is not None:
            out.seek(0)
            stdout = out.read()
    cpu = round((usage.ru_utime + usage.ru_stime) * 1e9)
    return child.returncode, cpu, usage.ru_maxrss, stdout, wall


def child_sample() -> int:
    """CPU nanoseconds of a fresh interpreter that runs the routine, read
    from its rusage as a command-line call's time is.  A child's start-up
    follows the machine differently from this process's own work."""
    here = os.path.dirname(os.path.abspath(__file__))
    argv = [sys.executable, "-c", "import calibrate; calibrate.child_main()"]
    return run_child(argv, env={**os.environ, "PYTHONPATH": here})[1]


class Calibration:
    """Calibration samples taken on a schedule fixed by operation index.

    sample_before(i) is called before operation i; every `every` operations
    it takes one sample.  scale(i) is REFERENCE_MS over the mean of the two
    samples that bracket operation i's block: the one taken before it and
    the next one.  Wider windows tracked the machine worse (see README).
    """

    def __init__(self, every: int, child: bool = False) -> None:
        self.every = every
        self.take = child_sample if child else sample
        self.reference_ms = REFERENCE_CHILD_MS if child else REFERENCE_MS
        self.samples_ns: list[int] = []

    def sample_before(self, i: int) -> None:
        if i % self.every == 0:
            self.samples_ns.append(self.take())

    def close(self) -> None:
        """One more sample after the last operation."""
        self.samples_ns.append(self.take())

    def scale(self, i: int) -> float:
        block = i // self.every
        return self.reference_ms * 1e6 / _median(self.samples_ns[block : block + 2])

    def median_ms(self) -> float:
        return _median(self.samples_ns) / 1e6


def scale_of(samples_ns: list[int]) -> float:
    """The scale factor for a stretch of work bracketed by these samples."""
    return REFERENCE_MS * 1e6 / _median(samples_ns)


def _median(values: list[int]) -> float:
    # statistics is imported here, so that a child sample does not load it
    import statistics

    return statistics.median(values)


def _report(name: str, times: list[int], reference: float) -> None:
    import statistics

    quartiles = statistics.quantiles(times, n=4)
    print(
        f"{name} median {statistics.median(times) / 1e6:.4f} ms, "
        f"quartiles {quartiles[0] / 1e6:.4f}-{quartiles[2] / 1e6:.4f} ms, "
        f"reference {reference} ms"
    )


def child_main() -> None:
    for _ in range(CHILD_ROUNDS):
        routine()


if __name__ == "__main__":
    # The medians here, to compare with the reference constants.
    _report("routine()", [sample() for _ in range(2000)], REFERENCE_MS)
    _report("child", [child_sample() for _ in range(100)], REFERENCE_CHILD_MS)
