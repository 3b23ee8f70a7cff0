"""Workload process: runs covfn CLI ops in a closed loop and checks each one.

Usage: python3 bench/worker.py JOB.json RESULT.json

``bench/run.py`` writes the job and starts this process with ``src`` on
PYTHONPATH and the BLAS pools pinned.  The process imports covfn once, then
makes one ``covfn.cli.run_cli`` call after another until the job's seconds
are spent.  Inputs are generated between ops, outside the timed region, and
every op gets its own derived seed and data, so no result can be reused.
In an untraced run, fresh processes that import covfn are timed between
ops (``setup_s``).  After the window the first op is repeated to check
byte-identity.

With ``trace`` set, odd ops run under the tracer and even ops without it;
the per-layer numbers come from the traced ops and the tracing overhead is
the difference between the two groups' median wall times.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback

import covfn.cli
import covfn.estimators
import numpy as np
import scipy

from tracer import Span, Tracer, rebind, self_times


# Seconds between set-up probes, so that they sample the whole run.
PROBE_EVERY_S = 1.5
_PROBE = ("import time; t = time.perf_counter(); import covfn.cli; "
          "print(time.perf_counter() - t)")


def setup_probe() -> float:
    """Time a fresh process takes to import covfn.cli, numpy and scipy
    included, timed inside that process."""
    return float(subprocess.run([sys.executable, "-c", _PROBE], check=True,
                                capture_output=True, text=True, timeout=60).stdout)


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_000 + i


def write_inputs(job: dict, i: int) -> list:
    """Write op ``i``'s input files; return the CLI argv for the op."""
    wdir, p = job["workdir"], job["params"]
    seed = op_seed(job["seed"], i)
    if job["command"] == "estimate":
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((p["n"], p["d"])) * np.sqrt(job["sigma_diag"])
        path = os.path.join(wdir, f"data{i}.csv")
        np.savetxt(path, x, fmt="%.17g", delimiter=",")
        return ["estimate", "--data", path, "--fn", p["fn"], "--B", p["B"],
                "--k", str(p["k"]), "--chains", str(p["N"]),
                "--alpha", str(p["alpha"]), "--seed", str(seed),
                "--format", "json", "--out", os.path.join(wdir, "out.json")]
    path = os.path.join(wdir, f"sim{i}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("experiment=coverage\n")
        for key in ("d", "n", "k", "fn", "B", "sigma", "M", "N", "alpha"):
            fh.write(f"{key}={p[key]}\n")
        fh.write(f"seed={seed}\n")
    return ["simulate", "--config", path, "--format", "csv",
            "--out", os.path.join(wdir, "out.csv")]


def check_estimate(text: str, job: dict) -> str | None:
    """None when the op's JSON output is right, else the reason it is not."""
    p = job["params"]
    obj = json.loads(text)
    row = dict(zip(obj["columns"], obj["rows"][0]))
    for key in ("n", "d", "k", "chains"):
        want = p["N"] if key == "chains" else p[key]
        if row[key] != want:
            return f"{key} is {row[key]}, expected {want}"
    # The renderer writes a non-finite float as the string "nan" or "inf".
    value, shat = float(row["functional_value"]), float(row["sigma_hat"])
    if not (math.isfinite(value) and math.isfinite(shat) and shat > 0):
        return f"value {value!r} or sigma_hat {shat!r} is not finite and positive"
    limit = 5.0 * shat / math.sqrt(p["n"])
    truth = job["truth"]
    if abs(value - truth) > limit:
        return f"value {value!r} is not within {limit:.3g} of truth {truth:.6g}"
    return None


def _simulate_row(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if len(lines) != 2:
        raise ValueError(f"expected a header and one row, got {len(lines)} lines")
    return dict(zip(lines[0].split(","), (float(v) for v in lines[1].split(","))))


def check_simulate(text: str, job: dict) -> str | None:
    """None when the coverage table is right, else the reason it is not."""
    p = job["params"]
    row = _simulate_row(text)
    if row["M"] != p["M"]:
        return f"M is {row['M']}, expected {p['M']}"
    lo, hi = job["coverage_band"]
    if not lo <= row["coverage"] <= hi:
        return f"coverage {row['coverage']} outside [{lo:.4g}, {hi:.4g}]"
    if not math.isfinite(row["ks_stat"]):
        return f"KS statistic {row['ks_stat']} is not finite"
    return None


def run_op(job, i, argv, tracer, reports) -> dict:
    """One timed CLI invocation followed by its (untimed) correctness check."""
    out = argv[-1]
    if os.path.exists(out):
        os.remove(out)
    first_report = len(reports)
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        if tracer:
            code = tracer.op(i, covfn.cli.run_cli, argv)
        else:
            code = covfn.cli.run_cli(argv)
    except Exception:  # an op that crashes is a failed op, not a failed run
        code, reason = None, traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    rec = {"op": i, "wall_s": wall, "exit": code, "traced": bool(tracer),
           "mc_se_ratios": reports[first_report:]}
    if code == 0:
        check = check_estimate if job["command"] == "estimate" else check_simulate
        try:
            with open(out, "rb") as fh:
                rec["output"] = fh.read()
            text = rec["output"].decode("utf-8")
            reason = check(text, job)
            if reason is None and job["command"] == "simulate":
                rec["coverage"] = _simulate_row(text)["coverage"]
        except (OSError, ValueError, TypeError, KeyError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
    elif code is not None:
        reason = f"exit code {code}"
    rec["failure"] = reason
    return rec


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def layer_metrics(spans, op_ids) -> dict:
    """Per-layer numbers of each traced op, as a dict of name -> list."""
    selfs = self_times(spans)
    by_op = {op: [] for op in op_ids}
    for j, s in enumerate(spans):
        by_op[s.op].append(j)
    per_op = {}
    for idx in by_op.values():
        tot, slf, cnt, num = {}, {}, {}, {}
        for j in idx:
            s = spans[j]
            tot[s.name] = tot.get(s.name, 0.0) + (s.end - s.start)
            slf[s.name] = slf.get(s.name, 0.0) + selfs[j]
            cnt[s.name] = cnt.get(s.name, 0.0) + s.count
            num[s.name] = num.get(s.name, 0) + 1
        load_s = tot.get("cli.load_data_csv", 0.0) + tot.get("cli.load_config", 0.0)
        load_bytes = cnt.get("cli.load_data_csv", 0.0) + cnt.get("cli.load_config", 0.0)
        # A replicate runs from drawing its data to the end of its estimate.
        reps, start = [], None
        for j in idx:
            s = spans[j]
            if s.parent < 0 or spans[s.parent].name != "experiments.run_coverage":
                continue
            if s.name == "sampling.gaussian_sample":
                start = s.start
            elif s.name == "estimators.bias_reduced_estimate" and start is not None:
                reps.append(s.end - start)
                start = None
        vals = {
            "sampling.normals_drawn": cnt.get("sampling.draw", 0.0),
            "sampling.draw_s": tot.get("sampling.draw", 0.0),
            "sampling.draw_bytes_computed": 8.0 * cnt.get("sampling.draw", 0.0),
            "sampling.rngstreams_built": float(num.get("sampling.rngstream", 0)),
            "sampling.rngstream_s": tot.get("sampling.rngstream", 0.0),
            "estimators.bias_reduced_estimate_self_s":
                slf.get("estimators.bias_reduced_estimate", 0.0),
            "linalg.eigh_matrices": cnt.get("linalg.eigh", 0.0),
            "linalg.eigh_s": tot.get("linalg.eigh", 0.0),
            "estimators.sigma_f_s": tot.get("estimators.sigma_f", 0.0),
            "sampling.sample_covariance_s": tot.get("sampling.sample_covariance", 0.0),
            "sampling.gaussian_sample_s": tot.get("sampling.gaussian_sample", 0.0),
            "cli.load_input_s": load_s,
            "cli.load_data_csv_s": tot.get("cli.load_data_csv", 0.0),
            "cli.parse_mb_per_s": load_bytes / 1e6 / load_s if load_s else 0.0,
            "cli.render_s": tot.get("cli.render", 0.0),
            "cli.run_cli_self_s": slf.get("cli.run_cli", 0.0),
            "experiments.run_coverage_self_s": slf.get("experiments.run_coverage", 0.0),
            "experiments.replicate_s": statistics.median(reps) if reps else 0.0,
        }
        for name, v in vals.items():
            per_op.setdefault(name, []).append(v)
    return per_op


def run_job(job: dict) -> dict:
    """The closed loop, the byte-identity repeat and the traced-run summary."""
    reports = []
    original = covfn.estimators.bias_reduced_estimate

    def capture(*args, **kwargs):
        rep = original(*args, **kwargs)
        reports.append(rep.mc_stderr / (rep.sigma_hat / math.sqrt(rep.n)))
        return rep

    undo = rebind("covfn.estimators", "bias_reduced_estimate", capture)
    tracer = Tracer() if job["trace"] else None
    ops, probes = [], []
    try:
        start = last_probe = time.perf_counter()
        # A traced run needs one untraced and one traced op at least.
        while ((now := time.perf_counter()) - start < job["seconds"]
               or len(ops) < 2 * job["trace"]):
            if not job["trace"] and (not probes or now - last_probe >= PROBE_EVERY_S):
                probes.append(setup_probe())
                last_probe = now
            i = len(ops)
            argv = write_inputs(job, i)
            ops.append(run_op(job, i, argv, tracer if i % 2 else None, reports))
            os.remove(argv[2])
        again = run_op(job, len(ops), write_inputs(job, 0), None, reports)
        if again["failure"] is None and again["output"] != ops[0].get("output"):
            again["failure"] = "repeating op 0 with its seed changed the output"
    finally:
        for owner, attr, fn in undo:
            setattr(owner, attr, fn)
    result = {
        "ops": [{k: v for k, v in r.items() if k != "output"} for r in ops],
        "repeat": {k: v for k, v in again.items() if k != "output"},
        "setup_s": probes,
        "blas_threads_in_effect": _blas_threads(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        traced = [r["op"] for r in ops if r["traced"]]
        result["layers"] = layer_metrics(tracer.spans, traced)
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span.__dataclass_fields__),
                       "spans": [list(vars(s).values()) for s in tracer.spans]}, fh)
    return result


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
