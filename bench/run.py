"""covfn benchmark: one workload, end-to-end or traced, from a checkout's root.

    python3 bench/run.py --workload estimate-tall --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, both modes

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer ones with ``--trace 1``.  Every metric is also printed to stderr
by name with its unit, followed by the environment it was measured in.
The full record, per-op samples and spans included, is written under
``.bench_work/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

from scipy.stats import binom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORK = os.path.join(ROOT, ".bench_work")

SIGMA = "spiked:1,2"
BLAS_THREADS = 1  # pinned so a run does not depend on how busy the other core is
RUN_TIMEOUT_S = 160
# Share of each tail of a binomial coverage band.
TAIL = 1e-6
# Replicates pooled for the run's coverage check.  Fixed, so that the band
# does not narrow past the method's own finite-n coverage as ops get faster.
POOLED_REPLICATES = 300

# Why each workload is here is in bench/README.md.
WORKLOADS = {
    "estimate-tall": {"command": "estimate", "n": 5000, "d": 20, "fn": "log",
                      "B": "rank1:0", "k": 1, "N": 200, "alpha": 0.05},
    "estimate-wide": {"command": "estimate", "n": 200, "d": 50, "fn": "log",
                      "B": "rank1:0", "k": 3, "N": 200, "alpha": 0.05},
    "simulate-coverage": {"command": "simulate", "d": 10, "n": 500, "k": 1,
                          "fn": "square", "B": "rank1:0", "sigma": SIGMA,
                          "M": 10, "N": 200, "alpha": 0.05},
}

# Metrics that go to the record and stderr only.  The median op time and
# the run's throughput follow the host's speed, which drifts by 15-30% over
# minutes, too closely to bound; a layer that only some workloads run reads
# 0 on every run of the others, which is not a measurement.
UNBOUNDED_E2E = {"op_p50_s": "s", "chain_steps_per_s": "1/s"}
WORKLOAD_LAYERS = {
    "sampling.gaussian_sample_s": "s", "experiments.replicate_s": "s",
    "experiments.run_coverage_self_s": "s", "cli.load_data_csv_s": "s",
}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json asks of a run."""
    metrics = benchmark_spec()["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def sigma_diag(d: int) -> list:
    """Diagonal of the spiked SIGMA: the spikes first, then the base value."""
    base, *spikes = (float(t) for t in SIGMA.partition(":")[2].split(","))
    return spikes + [base] * (d - len(spikes))


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def coverage_band(m: int, alpha: float) -> list:
    """Where the coverage of m replicates, Binomial(m, 1 - alpha)/m, lies
    but for TAIL of each tail."""
    p = 1.0 - alpha
    return [binom.ppf(TAIL, m, p) / m, binom.isf(TAIL, m, p) / m]


def make_job(spec, seed, seconds, trace, workdir) -> dict:
    params = dict(spec)
    command = params.pop("command")
    job = {"command": command, "params": params, "seed": seed,
           "seconds": seconds, "trace": trace, "workdir": workdir,
           "sigma_diag": sigma_diag(params["d"])}
    if command == "estimate":
        # <log(Sigma), e_0 e_0^T> for B = rank1:0.
        job["truth"] = math.log(job["sigma_diag"][0])
    else:
        job["coverage_band"] = coverage_band(params["M"], params["alpha"])
    return job


def environment(result) -> dict:
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), "")
    return {
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_effect": result.get("blas_threads_in_effect"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": result.get("numpy"),
        "scipy": result.get("scipy"), "commit": commit or "unknown",
    }


def low(xs) -> float:
    """10th percentile.  Contention from the rest of the host only ever adds
    time, so a low quantile of many repeats is steadier than their median."""
    return statistics.quantiles(xs, n=10, method="inclusive")[0] if len(xs) > 1 else xs[0]


def end_to_end(spec, result) -> dict:
    ops = result["ops"]
    walls = [r["wall_s"] for r in ops]
    per_op = spec["N"] * spec["k"] * spec.get("M", 1)
    ratios = [x for r in ops for x in r["mc_se_ratios"]]
    return {
        "setup_s": low(result["setup_s"]),
        "op_p10_s": low(walls),
        "op_p50_s": statistics.median(walls),
        "chain_steps_per_s": per_op * len(ops) / sum(walls),
        "peak_rss_mb": result["peak_rss_mb"],
        "mc_se_ratio": statistics.median(ratios),
    }


def per_layer(result) -> dict:
    ops = result["ops"]
    layers = {k: statistics.median(v) for k, v in result["layers"].items()}
    traced = statistics.median(r["wall_s"] for r in ops if r["traced"])
    layers["trace.op_s"] = statistics.median(r["wall_s"] for r in ops if not r["traced"])
    layers["trace.overhead_s"] = traced - layers["trace.op_s"]
    return layers


def check_pooled(ops, spec) -> dict:
    """Pool the replicates of the first ops that passed their own check, up
    to POOLED_REPLICATES, and check the pooled coverage.  One op's band is
    wide; the pooled one catches a coverage off by a few percent either way."""
    m = spec["M"]
    passed = [r for r in ops if r["failure"] is None][:POOLED_REPLICATES // m]
    total = m * len(passed)
    rec = {"op": "pooled", "replicates": total, "failure": None}
    if not total:
        rec["failure"] = "no op gave a coverage to pool"
        return rec
    rec["coverage"] = sum(round(r["coverage"] * m) for r in passed) / total
    lo, hi = coverage_band(total, spec["alpha"])
    if not lo <= rec["coverage"] <= hi:
        rec["failure"] = (f"pooled coverage {rec['coverage']:.4g} of {total} "
                          f"replicates outside [{lo:.4g}, {hi:.4g}]")
    return rec


def checks(result) -> list:
    """The measured ops, the repeat and, for simulate, the pooled check."""
    return result["ops"] + [r for r in (result["repeat"], result.get("pooled")) if r]


def count_failures(result) -> tuple[int, int]:
    """(attempted, failed) over every check of the run."""
    done = checks(result)
    return len(done), sum(r["failure"] is not None for r in done)


def run_workload(name, spec, seed, seconds, trace) -> tuple[dict, dict]:
    """Run one workload; return (the result line, the full record)."""
    env = child_env()
    tag = f"{name}-s{seed}-t{trace}-{os.getpid()}"
    workdir = os.path.join(WORK, tag)
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    try:
        job = make_job(spec, seed, seconds, trace, workdir)
        job["spans_path"] = os.path.join(WORK, "results", tag + ".spans.json")
        job_path = os.path.join(workdir, "job.json")
        res_path = os.path.join(workdir, "result.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                        job_path, res_path], env=env, check=True,
                       timeout=RUN_TIMEOUT_S)
        with open(res_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if spec["command"] == "simulate":
            result["pooled"] = check_pooled(result["ops"], spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = count_failures(result)
    shown = metric_units(trace)
    if trace:
        metrics, units = per_layer(result), {**shown, **WORKLOAD_LAYERS}
    else:
        metrics, units = end_to_end(spec, result), {**shown, **UNBOUNDED_E2E}
    line = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in shown.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "spec": spec, "environment": environment(result),
        "failed_frac": failed / attempted, "result": line,
        "all_metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()
                        if k in shown or metrics.get(k)},  # skip layers not run
        "worker": result,
    }
    with open(os.path.join(WORK, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return line, record


def report(record, out=sys.stderr):
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} ==", file=out)
    for name, m in record["all_metrics"].items():
        print(f"  {name:45s} {m['value']:<14.6g} {m['unit']}", file=out)
    line = record["result"]
    print(f"  {'failed_frac':45s} {record['failed_frac']:<14.6g} "
          f"({line['failed']} of {line['attempted']} ops)", file=out)
    for op in checks(record["worker"]):
        if op["failure"]:
            print(f"  op {op['op']} failed: {op['failure']}", file=out)
    for key, val in record["environment"].items():
        print(f"  env {key} = {val}", file=out)


def main(argv=None, workloads=None) -> int:
    workloads = workloads or WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.seconds = args.seconds or benchmark_spec()["run_seconds"]
    if not os.path.isfile(os.path.join(ROOT, "src", "covfn", "cli.py")):
        print(f"error: no covfn sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload != "all":
        line, record = run_workload(args.workload, workloads[args.workload],
                                    args.seed, args.seconds, args.trace)
        report(record)
        print(json.dumps(line))
        return 0
    for name, spec in workloads.items():
        for trace in (0, 1):
            line, record = run_workload(name, spec, args.seed, args.seconds, trace)
            report(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
