#!/usr/bin/env python3
"""How often a workload's generator gives each stratum, and the quotas
proportional to those frequencies.

    python3 perfbench/frequencies.py lift --draws 8000 --total 400

Run from the root of a profact checkout.  Draws come from
random.Random("frequencies:<workload>"), not from any benchmark seed.
Draws whose stratum is None are left out of the workload; their share is
printed first.  The quotas are rounded to --total by largest remainder.
"""

from __future__ import annotations

import argparse
import collections
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def proportional(counts: dict, total: int) -> dict:
    """Integer quotas summing to `total`, by largest remainder."""
    kept = sum(counts.values())
    exact = {key: count * total / kept for key, count in counts.items()}
    quotas = {key: int(value) for key, value in exact.items()}
    by_remainder = sorted(exact, key=lambda key: (quotas[key] - exact[key], str(key)))
    for key in by_remainder[: total - sum(quotas.values())]:
        quotas[key] += 1
    return quotas


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=["factor", "lift", "towers"])
    parser.add_argument("--draws", type=int, default=8000)
    parser.add_argument("--total", type=int, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    rng = random.Random(f"frequencies:{workload.name}")
    counts = collections.Counter(workload.stratum(workload.draw(rng)) for _ in range(args.draws))
    left_out = counts.pop(None, 0)
    print(f"{args.draws} draws; left out {left_out} ({left_out / args.draws:.2%})")
    quotas = proportional(counts, args.total)
    kept = sum(counts.values())
    for key in sorted(counts, key=str):
        print(f"{key!s:45} {counts[key]:6} {counts[key] / kept:8.2%}  quota {quotas[key]}")
    print(dict(sorted(quotas.items(), key=lambda kv: str(kv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
