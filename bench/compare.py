"""Compare two checkouts of covfn with alternating pairs of benchmark runs.

    python3 bench/compare.py BASE_DIR CHANGE_DIR --workload estimate-wide [--seed 100]

Both directories must hold the same ``bench/`` and ``BENCHMARK.json``
(copy them into each), so the two sides differ only in ``src/`` and run
for the same ``run_seconds``.  Pair i of ten runs both sides on seed
``seed + i``, the base first in even pairs and the change first in odd
ones.  For every end-to-end metric it prints each side's median and
quartiles, the base's own spread, and the share of pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import benchmark_spec

PAIRS = 10


def run_side(root, workload, seed) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True, timeout=600)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        raise SystemExit(f"{root}: {line['failed']} of {line['attempted']} ops failed")
    return {k: v["value"] for k, v in line["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=100)
    args = ap.parse_args(argv)
    spec = benchmark_spec()
    base, change = [], []
    for i in range(PAIRS):
        sides = [(args.base, base), (args.change, change)]
        for root, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run_side(root, args.workload, args.seed + i))
    print(f"{args.workload}: {PAIRS} alternating pairs, {spec['run_seconds']} s runs")
    for m in spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        qb, qc = statistics.quantiles(b, n=4), statistics.quantiles(c, n=4)
        sign = -1.0 if m["better"] == "lower" else 1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        print(f"  {name} ({unit}): base {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
              f"  change {qc[1]:.5g} [{qc[0]:.5g}, {qc[2]:.5g}]"
              f"  base spread {qb[2] - qb[0]:.3g}  change won {wins}/{len(b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
