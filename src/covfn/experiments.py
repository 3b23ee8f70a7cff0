"""Simulation studies: bias decay, CI coverage and normal approximation,
operator-norm concentration, and the Gaussian quadratic-form identity.

Every experiment is a pure function of an :class:`ExperimentConfig`
(including its seed): grid cells and replicates own derived rng streams,
so runs are reproducible and growing the replicate count M only extends
the replicate set without disturbing earlier draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from . import __version__
from .errors import UsageError
from .estimators import MAX_K, bias_reduced_estimate, sigma_f
from .functions import ScalarFunction, parse_function_spec
from .sampling import (
    RngStream,
    gaussian_sample,
    load_data_csv,
    psd_factor,
    sample_covariance,
)
from .symmat import (
    SymMat,
    apply_scalar_function,
    effective_rank,
    eigh,
    schatten_norm,
    trace_inner_product,
)
from .wishart_oracle import quad_wishart_oracle

__all__ = [
    "ExperimentConfig",
    "ResultTable",
    "build_b",
    "build_sigma",
    "run_experiment",
    "run_bias_scaling",
    "run_coverage",
    "run_opnorm",
    "run_quadform",
    "normal_cdf",
    "ks_distance_to_normal",
    "two_sample_ks",
    "fit_loglog_slope",
]

EXPERIMENTS = ("bias_scaling", "coverage", "opnorm", "quadform")  # run_<name>

QUADFORM_DRAWS = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    d: tuple = (10,)
    n: tuple = (100,)
    k: tuple = (0,)
    fn: str = "square"
    b: str = "rank1:0"
    sigma: str = "identity"
    m: int = 100
    nchains: int = 100
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise UsageError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        for name in ("d", "n", "k"):
            vals = getattr(self, name)
            if isinstance(vals, (int, np.integer)):
                vals = (int(vals),)
            object.__setattr__(self, name, tuple(int(v) for v in vals))
        if min(self.m, self.nchains, *self.d, *self.n) < 1:
            raise UsageError("M, N, d and n must be >= 1")
        if not all(0 <= k <= MAX_K for k in self.k):
            raise UsageError(f"k must be in [0, {MAX_K}], got {self.k}")
        if not 0 < self.alpha < 1:
            raise UsageError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.experiment in ("bias_scaling", "quadform") and len(self.d) != 1:
            raise UsageError(f"{self.experiment} takes a single d, got {self.d}")

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "d": list(self.d), "n": list(self.n), "k": list(self.k),
            "fn": self.fn, "B": self.b, "sigma": self.sigma,
            "M": self.m, "N": self.nchains,
            "alpha": self.alpha, "seed": self.seed,
        }


@dataclass(frozen=True)
class ResultTable:
    columns: tuple
    rows: tuple
    meta: dict = field(default_factory=dict)


def _spec_numbers(rest: str, spec: str) -> np.ndarray:
    """The comma-separated finite numbers after a spec's ``name:``."""
    try:
        vals = np.array([float(t) for t in rest.split(",")])
    except ValueError:
        raise UsageError(f"bad number in spec {spec!r}") from None
    if not np.all(np.isfinite(vals)):
        raise UsageError(f"non-finite number in spec {spec!r}")
    return vals


def build_b(spec: str, d: int, normalize: bool = True):
    """Build a test matrix from a spec string; returns (SymMat, factor).

    Specs: ``identity`` (I/d when normalized), ``rank1:IDX``,
    ``rank1vec:u1,...,ud``, ``file:PATH`` (a d-by-d CSV).  When
    ``normalize`` is set the result is scaled to nuclear norm at most 1
    and the applied factor returned.
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name == "identity":
        b = np.eye(d)
    elif name == "rank1":
        try:
            idx = int(rest)
        except ValueError:
            raise UsageError(f"bad rank1 index in B spec {spec!r}") from None
        if not (0 <= idx < d):
            raise UsageError(f"rank1 index {idx} outside [0, {d})")
        b = np.zeros((d, d))
        b[idx, idx] = 1.0
    elif name == "rank1vec":
        u = _spec_numbers(rest, spec)
        if u.shape != (d,):
            raise UsageError(f"rank1vec needs {d} components, got {u.size}")
        b = np.outer(u, u)
    elif name == "file":
        b = load_data_csv(rest).rows
        if b.shape[0] != b.shape[1]:
            raise UsageError(f"B file must hold a square matrix, got {b.shape}")
        if b.shape[0] != d:
            raise UsageError(f"B file is {b.shape[0]}x{b.shape[0]}, data dim is {d}")
    else:
        raise UsageError(f"unknown B spec {spec!r}")
    factor = 1.0
    if normalize:
        nuc = schatten_norm(b, 1)
        if nuc > 1.0:
            factor = 1.0 / nuc
            b = b * factor
    return SymMat(b), factor


def build_sigma(spec: str, d: int) -> SymMat:
    """Build a covariance from a spec string.

    Specs: ``identity``, ``diag:v1,...``, ``linspace:lo,hi``,
    ``spiked:base,s1,...`` (spikes first, then base entries).
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name == "identity":
        return SymMat(np.eye(d))
    if name == "diag":
        vals = _spec_numbers(rest, spec)
        if vals.size != d:
            raise UsageError(f"diag spec has {vals.size} entries, d = {d}")
        return SymMat(np.diag(vals))
    if name == "linspace":
        ends = _spec_numbers(rest, spec)
        if ends.size != 2:
            raise UsageError(f"linspace needs lo,hi, got {spec!r}")
        return SymMat(np.diag(np.linspace(ends[0], ends[1], d)))
    if name == "spiked":
        toks = _spec_numbers(rest, spec)
        base, spikes = toks[0], toks[1:]
        if len(spikes) > d:
            raise UsageError("more spikes than dimensions")
        vals = np.full(d, base)
        vals[: len(spikes)] = spikes
        return SymMat(np.diag(vals))
    raise UsageError(f"unknown sigma spec {spec!r}")


def normal_cdf(x):
    """Standard normal CDF (absolute error well below 1e-7)."""
    return ndtr(np.asarray(x, dtype=float))


def ks_distance_to_normal(sample) -> float:
    """One-sample KS distance of a sample to the standard normal."""
    x = np.sort(np.asarray(sample, dtype=float))
    m = x.size
    cdf = normal_cdf(x)
    i = np.arange(1, m + 1)
    return float(max((i / m - cdf).max(), (cdf - (i - 1) / m).max()))


def two_sample_ks(a, b) -> float:
    """Two-sample KS statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def fit_loglog_slope(ns, values, stderrs=None):
    """Least-squares slope of log|value| against log n.

    Cells whose |value| is below 3 times its stderr are noise-dominated
    and excluded; returns (slope, used_mask).
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = np.abs(values) > 0
    if stderrs is not None:
        mask &= np.abs(values) > 3.0 * np.asarray(stderrs, dtype=float)
    if mask.sum() < 2:
        raise ValueError("fewer than two usable cells for the slope fit")
    slope = np.polyfit(np.log(ns[mask]), np.log(np.abs(values[mask])), 1)[0]
    return float(slope), mask


def _meta(cfg: ExperimentConfig) -> dict:
    return {
        "tool": "covfn",
        "version": __version__,
        "config": cfg.as_dict(),
        "seed": cfg.seed,
    }


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    # looked up at call time, so a runner rebound on this module is the one run
    return globals()[f"run_{cfg.experiment}"](cfg)


def _replicates(cfg: ExperimentConfig, f: ScalarFunction, b: SymMat, root,
                n: int, k: int, cell: RngStream) -> list:
    """The M order-k estimates of one grid cell.

    Replicate m draws its data from ``cell.spawn(2m)`` and its chains from
    ``cell.spawn(2m + 1)``.
    """
    reports = []
    for m in range(cfg.m):
        data = gaussian_sample(root, n, cell.spawn(2 * m))
        reports.append(bias_reduced_estimate(
            data, f, b, k, cfg.nchains, cell.spawn(2 * m + 1), cfg.alpha,
        ))
    return reports


def run_bias_scaling(cfg: ExperimentConfig) -> ResultTable:
    """Monte Carlo bias of the order-k estimator over an (n, k) grid.

    For f = square the exact Wishart-moment oracle bias is emitted next to
    the Monte Carlo estimate.
    """
    f = parse_function_spec(cfg.fn)
    d = cfg.d[0]
    sigma = build_sigma(cfg.sigma, d)
    b, _ = build_b(cfg.b, d)
    truth = trace_inner_product(apply_scalar_function(eigh(sigma), f), b)
    root = psd_factor(sigma)
    base = RngStream(cfg.seed)
    rows = []
    cell = 0
    for n in cfg.n:
        for k in cfg.k:
            cell += 1
            ests = _replicates(cfg, f, b, root, n, k, base.spawn(cell))
            vals = np.array([e.functional_value for e in ests])
            bias_mc = float(vals.mean() - truth)
            stderr = float(vals.std(ddof=1) / np.sqrt(cfg.m)) if cfg.m > 1 else 0.0
            if f.name == "square":
                bias_oracle = trace_inner_product(quad_wishart_oracle(sigma, n, k), b)
            else:
                bias_oracle = float("nan")
            rows.append([
                n, k, cfg.m, bias_mc, stderr, bias_oracle,
                float(np.log(n)),
                float(np.log(abs(bias_mc))) if bias_mc != 0 else float("-inf"),
            ])
    return ResultTable(
        columns=("n", "k", "M", "bias_mc", "stderr", "bias_oracle",
                 "log_n", "log_abs_bias"),
        rows=tuple(tuple(r) for r in rows),
        meta=_meta(cfg),
    )


def run_coverage(cfg: ExperimentConfig) -> ResultTable:
    """Normal approximation and CI coverage of the bias-reduced estimator.

    Standardized errors use the true asymptotic sigma_f(Sigma; B) (the
    quantity the limit theorem standardizes by); the coverage column uses
    each replicate's own plug-in CI, which is what a practitioner has.
    """
    f = parse_function_spec(cfg.fn)
    base = RngStream(cfg.seed)
    rows = []
    cell = 0
    for d in cfg.d:
        sigma = build_sigma(cfg.sigma, d)
        b, _ = build_b(cfg.b, d)
        truth = trace_inner_product(apply_scalar_function(eigh(sigma), f), b)
        sig_true = sigma_f(sigma, f, b)
        root = psd_factor(sigma)
        for n in cfg.n:
            for k in cfg.k:
                cell += 1
                ests = _replicates(cfg, f, b, root, n, k, base.spawn(cell))
                vals = np.array([e.functional_value for e in ests])
                std_errs = np.sqrt(n) * (vals - truth) / sig_true
                hits = sum(e.ci[0] <= truth <= e.ci[1] for e in ests)
                var = float(std_errs.var(ddof=1)) if cfg.m > 1 else 0.0
                rows.append([
                    d, n, k, cfg.m, hits / cfg.m,
                    ks_distance_to_normal(std_errs),
                    float(std_errs.mean()), var,
                ])
    return ResultTable(
        columns=("d", "n", "k", "M", "coverage", "ks_stat",
                 "mean_std_err", "var_std_err"),
        rows=tuple(tuple(r) for r in rows),
        meta=_meta(cfg),
    )


def run_opnorm(cfg: ExperimentConfig) -> ResultTable:
    """Mean operator-norm error of the sample covariance across (d, n),
    compared with the effective-rank benchmark
    ||Sigma|| (sqrt(r/n) or r/n, whichever is larger)."""
    base = RngStream(cfg.seed)
    rows = []
    cell = 0
    for d in cfg.d:
        sigma = build_sigma(cfg.sigma, d)
        r_eff = effective_rank(sigma)
        opnorm_sigma = schatten_norm(sigma, np.inf)
        root = psd_factor(sigma)
        for n in cfg.n:
            cell += 1
            cell_stream = base.spawn(cell)
            errs = np.empty(cfg.m)
            for m in range(cfg.m):
                data = gaussian_sample(root, n, cell_stream.spawn(m))
                diff = sample_covariance(data).entries - sigma.entries
                errs[m] = np.abs(np.linalg.eigvalsh(diff)).max()
            mean_err = float(errs.mean())
            benchmark = opnorm_sigma * max(np.sqrt(r_eff / n), r_eff / n)
            rows.append([
                d, n, cfg.m, mean_err, r_eff, mean_err / benchmark,
            ])
    return ResultTable(
        columns=("d", "n", "M", "mean_opnorm_err", "eff_rank", "ratio"),
        rows=tuple(tuple(r) for r in rows),
        meta=_meta(cfg),
    )


def run_quadform(cfg: ExperimentConfig) -> ResultTable:
    """Two-sample KS check of <A X, X> against the weighted chi-square
    representation with weights the eigenvalues of
    Sigma^{1/2} A Sigma^{1/2}."""
    d = cfg.d[0]
    base = RngStream(cfg.seed)
    critical = 1.95 * np.sqrt(2.0 / QUADFORM_DRAWS)
    rows = []
    for m in range(cfg.m):
        s = base.spawn(m)
        if cfg.sigma == "random_spd":
            g = s.standard_normal(d, d)
            sigma = SymMat(g @ g.T / d + 0.1 * np.eye(d))
        else:
            sigma = build_sigma(cfg.sigma, d)
        if cfg.b == "random":
            g = s.standard_normal(d, d)
            a = SymMat((g + g.T) / 2.0)
        else:
            a, _ = build_b(cfg.b, d, normalize=False)
        root = psd_factor(sigma)
        x = gaussian_sample(root, QUADFORM_DRAWS, s).rows
        lhs = np.einsum("ni,ij,nj->n", x, a.entries, x)
        lam = np.linalg.eigvalsh(root @ a.entries @ root)
        z = s.standard_normal(QUADFORM_DRAWS, d)
        rhs = (z**2) @ lam
        rows.append([m, two_sample_ks(lhs, rhs), critical, QUADFORM_DRAWS])
    return ResultTable(
        columns=("pair", "ks_stat", "critical_value", "draws_per_side"),
        rows=tuple(tuple(r) for r in rows),
        meta=_meta(cfg),
    )
