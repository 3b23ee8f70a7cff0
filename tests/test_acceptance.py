"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here; nothing is calibrated at run
time."""

import math

import numpy as np
import pytest

from covfn.cli import run_cli
from covfn.estimators import (
    bias_reduced_estimate,
    hockey_stick_weight_ints,
)
from covfn.experiments import (
    ExperimentConfig,
    fit_loglog_slope,
    run_coverage,
    run_opnorm,
    run_quadform,
)
from covfn.functions import get_function
from covfn.sampling import RngStream, gaussian_sample, psd_factor
from covfn.symmat import apply_scalar_function, as_symmat, eigh, frechet_derivative
from covfn.wishart_oracle import quad_wishart_oracle
from test_estimators import brute_force_weights
from conftest import random_orthogonal, random_sym


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_derivative_correctness():
    """Loewner-matrix derivative vs central differences, 5 functions."""
    rng = np.random.default_rng(101)
    d = 15
    q = random_orthogonal(rng, d)
    sigma = q @ np.diag(rng.uniform(0.5, 3.0, d)) @ q.T
    dec = eigh(sigma)
    fns = [
        get_function("square"),
        get_function("cube"),
        get_function("log"),
        get_function("exp"),
        get_function("smoothstep", 1.0, 2.0, 0.4),
    ]
    h_step = 1e-5
    worst = 0.0
    for f in fns:
        for _ in range(20):
            h = random_sym(rng, d)
            h /= np.linalg.norm(h)
            df = frechet_derivative(dec, f, h).entries
            fp = apply_scalar_function(eigh(sigma + h_step * h), f).entries
            fm = apply_scalar_function(eigh(sigma - h_step * h), f).entries
            fd = (fp - fm) / (2 * h_step)
            rel = np.abs(fd - df).max() / (1.0 + np.abs(df).max())
            worst = max(worst, rel)
    _report(1, worst <= 1e-6, f"max relative derivative error {worst:.3g} <= 1e-6")


def test_criterion_2_quadratic_bias_identity():
    """Mean of S^2 - Sigma^2 matches (tr(Sigma) Sigma + Sigma^2)/n."""
    sigma = np.diag([1.0, 2.0, 3.0])
    n, m = 50, 2 * 10**5
    root = psd_factor(sigma)
    expected = (np.trace(sigma) * sigma + sigma @ sigma) / n
    acc = np.zeros((3, 3))
    acc2 = np.zeros((3, 3))
    stream = RngStream(202)
    chunk = 10**4
    for start in range(0, m, chunk):
        z = stream.standard_normal(chunk, n, 3)
        x = z @ root.T
        s = np.einsum("rni,rnj->rij", x, x) / n
        s2 = s @ s
        acc += s2.sum(axis=0)
        acc2 += (s2**2).sum(axis=0)
    mean = acc / m
    stderr = np.sqrt((acc2 / m - mean**2) / m)
    bias = mean - sigma @ sigma
    dev = np.abs(bias - expected) / stderr
    _report(2, dev.max() <= 5.0,
            f"max entrywise deviation {dev.max():.2f} MC stderr (limit 5)")


def test_criterion_3_weight_oracle():
    exact = all(hockey_stick_weight_ints(k) == brute_force_weights(k)
                for k in range(7))
    sums = all(sum(hockey_stick_weight_ints(k)) == 1 for k in range(63))
    _report(3, exact and sums,
            "weights match brute-force expansion (k<=6) and sum to 1 (k<=62)")


def test_criterion_4_k0_degeneracy():
    from covfn.estimators import plugin_estimate
    from covfn.sampling import DataMatrix
    rng = np.random.default_rng(404)
    fns = [get_function("identity"), get_function("square"), get_function("exp")]
    ok = True
    for case in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(d + 1, 40))
        x = DataMatrix(rng.standard_normal((n, d)))
        b = random_sym(rng, d)
        f = fns[case % len(fns)]
        r0 = bias_reduced_estimate(x, f, b, 0, 100, RngStream(case))
        rp = plugin_estimate(x, f, b)
        ok &= (r0.functional_value == rp.functional_value
               and r0.sigma_hat == rp.sigma_hat
               and r0.ci == rp.ci
               and r0.mc_stderr == 0.0)
    _report(4, ok, "k=0 estimate identical to plug-in on 100 random inputs")


def test_criterion_5_bias_reduction_rate():
    sigma = np.diag(np.linspace(1.0, 2.0, 10))
    b = np.zeros((10, 10))
    b[0, 0] = 1.0
    ns = [50, 100, 200, 400, 800]
    worst = 0.0
    for k in (0, 1, 2):
        vals = [abs(float(np.sum(quad_wishart_oracle(sigma, n, k).entries * b)))
                for n in ns]
        slope, _ = fit_loglog_slope(ns, vals)
        worst = max(worst, abs(slope + (k + 1)))
    _report(5, worst <= 0.05,
            f"max |slope + (k+1)| = {worst:.3g} over k in {{0,1,2}} (limit 0.05)")


def test_criterion_6_mc_oracle_agreement():
    sigma = np.diag(np.linspace(1.0, 2.0, 5))
    b = np.zeros((5, 5))
    b[0, 0] = 1.0
    f = get_function("square")
    n, k, m, nchains = 100, 1, 5000, 200
    root = psd_factor(sigma)
    base = RngStream(606)
    vals = np.empty(m)
    for r in range(m):
        data = gaussian_sample(root, n, base.spawn(2 * r))
        rep = bias_reduced_estimate(data, f, b, k, nchains, base.spawn(2 * r + 1))
        vals[r] = rep.functional_value
    truth = float(np.sum((sigma @ sigma) * b))
    bias_mc = vals.mean() - truth
    stderr = vals.std(ddof=1) / math.sqrt(m)
    bias_exact = float(np.sum(quad_wishart_oracle(sigma, n, k).entries * b))
    dev = abs(bias_mc - bias_exact) / stderr
    _report(6, dev <= 5.0,
            f"MC bias {bias_mc:.2e} vs oracle {bias_exact:.2e}, "
            f"deviation {dev:.2f} stderr (limit 5)")


def test_criterion_7_normal_approximation_and_coverage():
    cfg = ExperimentConfig(
        experiment="coverage", d=10, n=(500,), k=(1,), fn="square",
        b="rank1:0", sigma="spiked:1,2", m=2000, nchains=200,
        alpha=0.05, seed=707,
    )
    (row,) = run_coverage(cfg).rows
    coverage, ks = row[4], row[5]
    ok = ks <= 0.06 and 0.92 <= coverage <= 0.975
    _report(7, ok,
            f"KS to normal {ks:.4f} (limit 0.06), "
            f"95% CI coverage {coverage:.4f} (band [0.92, 0.975])")


def test_criterion_8_operator_norm_concentration():
    cfg = ExperimentConfig(experiment="opnorm", d=(5, 20, 80), n=(200,),
                           m=500, sigma="identity", seed=808)
    table = run_opnorm(cfg)
    ratios = {row[0]: row[5] for row in table.rows}
    ok = all(0.5 <= r <= 4.0 for r in ratios.values())
    _report(8, ok, "mean opnorm error / benchmark per d: "
            + ", ".join(f"d={d}: {r:.2f}" for d, r in ratios.items())
            + " (band [0.5, 4])")


def test_criterion_9_quadratic_form_law():
    cfg = ExperimentConfig(experiment="quadform", d=5, m=3, b="random",
                           sigma="random_spd", seed=909)
    table = run_quadform(cfg)
    stats = [(row[1], row[2]) for row in table.rows]
    ok = all(s < c for s, c in stats)
    _report(9, ok, "two-sample KS stats "
            + ", ".join(f"{s:.4f}" for s, _ in stats)
            + f" all below critical {stats[0][1]:.4f}")


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(1010)
    data = tmp_path / "data.csv"
    data.write_text("\n".join(
        ",".join(repr(float(v)) for v in row)
        for row in rng.standard_normal((60, 4))) + "\n")
    base = ["estimate", "--data", str(data), "--fn", "square",
            "--B", "identity", "--k", "1", "--chains", "100", "--format", "csv"]
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert run_cli(base + ["--seed", "5", "--out", str(a)]) == 0
    assert run_cli(base + ["--seed", "5", "--out", str(b)]) == 0
    assert run_cli(base + ["--seed", "6", "--out", str(c)]) == 0

    cfg = tmp_path / "cfg.txt"
    cfg.write_text("experiment=quadform\nd=4\nM=2\nB=random\n"
                   "sigma=random_spd\nseed=4\n")
    s1, s2, s3 = (tmp_path / name for name in ("s1.csv", "s2.csv", "s3.csv"))
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(s1)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(s2)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--set", "seed=5",
                    "--out", str(s3)]) == 0
    ok = (a.read_bytes() == b.read_bytes()
          and a.read_bytes() != c.read_bytes()
          and s1.read_bytes() == s2.read_bytes()
          and s1.read_bytes() != s3.read_bytes())
    _report(10, ok, "same seed: byte-identical outputs; new seed: outputs differ")
