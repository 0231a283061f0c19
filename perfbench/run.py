#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a profact checkout.  With --trace 0 it times the
workload for at least S seconds of operations and at least the workload's
MIN_OPS operations, in whole rounds, and prints the end-to-end metrics.  Each
round of an in-process workload has inputs of its own; cli repeats one
round of calls.
With --trace 1 it runs one untraced and one traced round and prints the
per-layer metrics.  The last line of standard output is the result; the
line before it holds the raw CPU and wall figures and the calibration
times.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (first, so the set-up samples see no profact import)

_START_SAMPLES = [calibrate.sample() for _ in range(8)]

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "ratio"
    return "count"


def _quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics' inclusive method)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as handle:
        return json.load(handle)


def _setup(workload, seed: int):
    """Make the inputs, then check them against the pinned digests.

    Returns (inputs, set-up CPU ns, calibration samples).  The CPU time runs
    from process start to the end of input generation and leaves out the
    calibration samples, which are taken at the start, during generation
    and at its end; the digest checks come after it."""
    from workloads import digest

    during: list[int] = []
    inputs = workload.generate(seed, min_draws=workload.SETUP_DRAWS, tick=lambda: during.append(calibrate.sample()))
    cpu = time.process_time_ns() - sum(_START_SAMPLES) - sum(during)
    end_samples = [calibrate.sample() for _ in range(8)]
    pins = _pins()
    default = pins["default_seed"]
    canary = digest(workload.encode(workload.generate(default, limit=pins["canary_size"])))
    if canary != pins["canary"][workload.name]:
        sys.exit(f"inputs differ from the pinned canary of {workload.name} (got {canary}); see README")
    if seed == default:
        full = digest(workload.encode(inputs))
        if full != pins["digest"][workload.name]:
            sys.exit(f"inputs differ from the pinned digest of {workload.name} (got {full}); see README")
    return inputs, cpu, _START_SAMPLES + during + end_samples


def _child_setups(args, count: int) -> list[dict]:
    """Repeat the whole set-up in fresh processes."""
    results = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True,
            text=True,
            timeout=150,
            check=True,
        )
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def _generate_apart(workload, seed: int, rnd: int) -> list:
    """Round `rnd`'s inputs, made in a forked child and read back.  So
    neither the generator's transient memory nor its own calls into
    profact (which fill the limit cache) reach this process."""
    path = os.path.join(OUT, f"round-{workload.name}-{seed}-{rnd}-{os.getpid()}.pickle")
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(path, "wb") as handle:
                pickle.dump(workload.generate(seed, rnd), handle, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"generating round {rnd} of {workload.name} failed")
    with open(path, "rb") as handle:
        inputs = pickle.load(handle)
    os.remove(path)
    return inputs


def _timed(workload, seed: int, inputs, seconds: float):
    """Whole rounds until `seconds` of measured time and the workload's
    MIN_OPS operations.  An in-process workload makes each later round's inputs
    afresh before the round, and every output is checked as it comes; cli
    repeats the first round's calls, checks the first round's outputs and
    compares every later round's with them.  Generation and checks lie
    outside the measured time."""
    cal = calibrate.Calibration(workload.calibrate_every, child=workload.child_calibration)
    records = []  # (cpu ns, wall ns, ok)
    problems: list[str] = []
    first: list = []
    measured_ns = 0
    i = 0
    rounds = 0
    while rounds == 0 or measured_ns < seconds * 1e9 or i < workload.MIN_OPS:
        if rounds and workload.fresh_rounds:
            # the last round's inputs go first, so that peak RSS holds one round
            inputs.clear()
            inputs = _generate_apart(workload, seed, rounds)
        for k, item in enumerate(inputs):
            start = time.perf_counter_ns()
            cal.sample_before(i)
            output, ok, cpu, wall = workload.measure(item)
            measured_ns += time.perf_counter_ns() - start
            records.append((cpu, wall, ok))
            if workload.fresh_rounds or rounds == 0:
                if ok:
                    problems += workload.check(item, output)
                if not workload.fresh_rounds:
                    first.append(output)
            elif output != first[k]:
                problems.append(f"operation {k} gave another output in round {rounds + 1}")
            i += 1
        rounds += 1
    cal.close()
    return records, cal, rounds, problems


def _end_to_end(args, workload, inputs, setup_cpu, setup_samples):
    first_round = len(inputs)
    records, cal, rounds, problems = _timed(workload, args.seed, inputs, args.seconds)
    scaled = [cpu * cal.scale(i) for i, (cpu, _, _) in enumerate(records)]
    total_ns = sum(scaled)
    failed = sum(1 for _, _, ok in records if not ok)
    # a failed operation misses any latency limit: it sorts last, at the
    # time of the slowest operation of the run
    latencies = [t for t, (_, _, ok) in zip(scaled, records) if ok] + [max(scaled)] * failed
    setups = [setup_cpu * calibrate.scale_of(setup_samples)] + [
        child["setup_cpu_ns"] * calibrate.scale_of(child["samples_ns"])
        for child in _child_setups(args, SETUP_REPEATS - 1)
    ]
    metrics = {
        "ops_per_s": (len(records) - failed) / (total_ns / 1e9),
        "op_ms_p50": _quantile(latencies, 0.5) / 1e6,
        "op_ms_p90": _quantile(latencies, 0.9) / 1e6,
        "setup_s": statistics.median(setups) / 1e9,
        "peak_rss_mib": workload.peak_rss_kib() / 1024,
    }
    raw_cpu = [cpu for cpu, _, _ in records]
    raw_wall = [wall for _, wall, _ in records]
    raw = {
        "rounds": rounds,
        "inputs_first_round": first_round,
        "timed_cpu_s": sum(raw_cpu) / 1e9,
        "timed_wall_s": sum(raw_wall) / 1e9,
        "op_ms_p50_cpu": statistics.median(raw_cpu) / 1e6,
        "op_ms_p50_wall": statistics.median(raw_wall) / 1e6,
        "calibration_ms_median": cal.median_ms(),
        "calibration_samples": len(cal.samples_ns),
        "reference_ms": cal.reference_ms,
        "largest_op_share": max(scaled) / total_ns,
        "setup_s_each": [s / 1e9 for s in setups],
        "setup_cpu_s_parent": setup_cpu / 1e9,
        "setup_calibration_ms_parent": statistics.median(setup_samples) / 1e6,
    }
    raw["per_op"] = {"cpu_ns": raw_cpu, "ok": [ok for _, _, ok in records], "calibration_ns": cal.samples_ns,
                     "every": cal.every}
    return metrics, raw, len(records), failed, problems


def _child_cpu(argv: list[str], env: dict) -> tuple[int, bytes]:
    """CPU ns of one child process, and its standard output."""
    code, cpu, _, stdout, _ = calibrate.run_child(argv, env=env, capture_dir=OUT)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return cpu, stdout


def _cli_layers(workload) -> dict[str, float]:
    """Start-up and import of the profact command, each the median of five
    child processes, scaled by child calibration samples taken among them."""
    env = workload.environment()
    python = sys.executable
    samples = [calibrate.child_sample()]
    bare, imported = [], []
    for _ in range(5):
        bare.append(_child_cpu([python, "-c", "pass"], env)[0])
        imported.append(_child_cpu([python, "-c", "import profact.cli"], env)[0])
        samples.append(calibrate.child_sample())
    scale = calibrate.REFERENCE_CHILD_MS * 1e6 / statistics.median(samples)
    count = "import sys; n = len(sys.modules); import profact.cli; print(len(sys.modules) - n)"
    modules = int(_child_cpu([python, "-c", count], env)[1])
    startup = statistics.median(bare)
    return {
        "cli.startup_ms": startup / 1e6 * scale,
        "cli.import_ms": (statistics.median(imported) - startup) / 1e6 * scale,
        "cli.import_modules": modules,
    }


def _in_process_round(workload, inputs, tracer=None):
    """One round in this process; returns (outputs, oks, cpu ns each)."""
    outputs, oks, cpus = [], [], []
    for i, item in enumerate(inputs):
        if tracer is not None:
            tracer.op = i
        start = time.process_time_ns()
        output, ok = workload.attempt(item)
        cpus.append(time.process_time_ns() - start)
        outputs.append(output)
        oks.append(ok)
    return outputs, oks, cpus


def _per_layer(args, workload, tracer, inputs, setup_samples):
    import tracing

    randgen_ns = tracer.self_ns["randgen"]
    tracer.uninstall()
    tracer.reset()
    before = [calibrate.sample() for _ in range(8)]
    _, _, plain = _in_process_round(workload, inputs)
    middle = [calibrate.sample() for _ in range(8)]
    tracer.install()
    outputs, oks, traced = _in_process_round(workload, inputs, tracer)
    tracer.uninstall()
    after = [calibrate.sample() for _ in range(8)]
    scale = calibrate.scale_of(before + middle + after)
    problems = [p for item, out, ok in zip(inputs, outputs, oks) if ok for p in workload.check(item, out)]
    metrics = tracing.layer_metrics(tracer, scale)
    metrics.update({"cli.startup_ms": 0.0, "cli.import_ms": 0.0, "cli.import_modules": 0, "cli.work_ms": 0.0})
    if workload.name == "cli":
        metrics.update(_cli_layers(workload))
        metrics["cli.work_ms"] = statistics.median(plain) / 1e6 * scale
    metrics["randgen.ms"] = randgen_ns / 1e6 * calibrate.scale_of(setup_samples)
    metrics["trace.overhead_s"] = (sum(traced) - sum(plain)) / 1e9 * scale
    raw = {
        "untraced_cpu_s": sum(plain) / 1e9,
        "traced_cpu_s": sum(traced) / 1e9,
        "calibration_ms_median": statistics.median(before + middle + after) / 1e6,
        "reference_ms": calibrate.REFERENCE_MS,
        "spans": len(tracer.spans),
    }
    tracer.write(os.path.join(OUT, f"trace-{workload.name}-{args.seed}.jsonl"))
    return metrics, raw, len(inputs), oks.count(False), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--digest", action="store_true", help="print the digest of the inputs and stop")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "profact", "__init__.py")):
        print(f"error: no profact sources under {ROOT}/src; run from a profact checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)

    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.digest:
        pins = _pins()
        inputs = workload.generate(args.seed)
        canary = workload.generate(pins["default_seed"], limit=pins["canary_size"])
        print(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "inputs": len(inputs),
            "digest": digest(workload.encode(inputs)),
            "canary": digest(workload.encode(canary)),
        }))
        return 0

    tracer = None
    if args.trace:
        import profact  # noqa: F401  (every module but the command line)
        import profact.cli  # noqa: F401
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs, setup_cpu, setup_samples = _setup(workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_cpu_ns": setup_cpu, "samples_ns": setup_samples}))
        return 0

    if tracer is None:
        metrics, raw, attempted, failed, problems = _end_to_end(args, workload, inputs, setup_cpu, setup_samples)
        units = END_TO_END_UNITS
    else:
        metrics, raw, attempted, failed, problems = _per_layer(args, workload, tracer, inputs, setup_samples)
        units = {name: _unit(name) for name in metrics}
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    name = f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump({"raw": raw, **result}, handle, indent=1)
    print(json.dumps({"raw": {k: v for k, v in raw.items() if k != "per_op"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
