"""Simulation studies: bias decay, CI coverage and normal approximation,
operator-norm concentration, and the Gaussian quadratic-form identity.

Every experiment is a pure function of an :class:`ExperimentConfig`
(including its seed): grid cells and replicates own derived rng streams,
so runs are reproducible and growing the replicate count M only extends
the replicate set without disturbing earlier draws.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import __version__
from .errors import NumericOverflow, UsageError, ZeroMatrix, finite, overflow_stage
from .estimators import MAX_K, bias_reduced_estimate, sigma_f, valid_alpha
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
    _binade,
    check_domain,
    effective_rank,
    eigh,
    eigvalsh,
    spectral_terms,
    trace_inner_product,
)
from .wishart_oracle import quad_wishart_oracle

__all__ = [
    "CONFIG_KEYS",
    "ExperimentConfig",
    "ResultTable",
    "build_b",
    "build_matrix",
    "run_experiment",
    "run_bias_scaling",
    "run_coverage",
    "run_opnorm",
    "run_quadform",
    "normal_cdf",
    "ks_distance_to_normal",
    "two_sample_ks",
]

EXPERIMENTS = ("bias_scaling", "coverage", "opnorm", "quadform")  # run_<name>

QUADFORM_DRAWS = 10_000

# config file key -> ExperimentConfig field, in the order configs render
CONFIG_KEYS = {
    "experiment": "experiment", "d": "d", "n": "n", "k": "k", "fn": "fn",
    "B": "b", "sigma": "sigma", "M": "m", "N": "nchains", "alpha": "alpha",
    "seed": "seed",
}


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
        if not valid_alpha(self.alpha):
            raise UsageError(f"alpha must be in (2^-53, 1), got {self.alpha}")
        if self.experiment in ("bias_scaling", "quadform") and len(self.d) != 1:
            raise UsageError(f"{self.experiment} takes a single d, got {self.d}")

    def as_dict(self) -> dict:
        """The config by file key, in ``CONFIG_KEYS`` order; grids as lists."""
        out = {}
        for key, name in CONFIG_KEYS.items():
            val = getattr(self, name)
            out[key] = list(val) if isinstance(val, tuple) else val
        return out


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


def build_matrix(spec: str, d: int) -> np.ndarray:
    """The d-by-d matrix of a ``B`` or ``sigma`` spec string.

    Specs: ``identity``, ``diag:v1,...,vd``, ``linspace:lo,hi`` (a
    diagonal from lo to hi), ``spiked:base,s1,...`` (a diagonal, spikes
    first, then base entries), ``rank1:IDX`` (e_IDX e_IDX^T),
    ``rank1vec:u1,...,ud`` (u u^T) and ``file:PATH`` (a d-by-d CSV).
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name == "identity":
        return np.eye(d)
    if name == "rank1":
        try:
            idx = int(rest)
        except ValueError:
            raise UsageError(f"bad rank1 index in spec {spec!r}") from None
        if not (0 <= idx < d):
            raise UsageError(f"rank1 index {idx} outside [0, {d})")
        return np.diag(np.arange(d) == idx).astype(float)
    if name == "file":
        a = load_data_csv(rest).rows
        if a.shape[0] != a.shape[1]:
            raise UsageError(f"matrix file must hold a square matrix, got {a.shape}")
        if a.shape[0] != d:
            raise UsageError(f"matrix file is {a.shape[0]}x{a.shape[0]}, d is {d}")
        return a
    if name not in ("diag", "linspace", "spiked", "rank1vec"):
        raise UsageError(f"unknown matrix spec {spec!r}")
    vals = _spec_numbers(rest, spec)
    if name == "rank1vec":
        if vals.size != d:
            raise UsageError(f"rank1vec needs {d} components, got {vals.size}")
        return np.outer(vals, vals)
    if name == "diag" and vals.size != d:
        raise UsageError(f"diag spec has {vals.size} entries, d = {d}")
    if name == "linspace":
        if vals.size != 2:
            raise UsageError(f"linspace needs lo,hi, got {spec!r}")
        vals = np.linspace(vals[0], vals[1], d)
    if name == "spiked":
        base, spikes = vals[0], vals[1:]
        if len(spikes) > d:
            raise UsageError("more spikes than dimensions")
        vals = np.full(d, base)
        vals[: len(spikes)] = spikes
    return np.diag(vals)


def build_b(spec: str, d: int):
    """``build_matrix`` scaled to nuclear norm at most 1; returns
    (SymMat, the applied factor)."""
    b = build_matrix(spec, d)
    sym = SymMat(b)  # NumericOverflow for a non-finite entry
    try:
        nuc = float(np.abs(eigh(sym).eigenvalues).sum())
    except NumericOverflow:  # finite entries, an eigenvalue beyond them
        nuc = np.inf
    if not np.isfinite(nuc):
        raise NumericOverflow("the nuclear norm of B overflows floating "
                              "point; rescale B")
    factor = 1.0
    if nuc > 1.0:
        factor = 1.0 / nuc
        b = b * factor
    return SymMat(b), factor


def normal_cdf(x):
    """Standard normal CDF, elementwise (absolute error below 1e-15)."""
    return np.vectorize(NormalDist().cdf, otypes=[float])(x)[()]


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


def _table(cfg: ExperimentConfig, columns: str, rows) -> ResultTable:
    """A simulate result: space-separated ``columns``, the rows and the
    metadata (tool, version, config, seed)."""
    return ResultTable(
        columns=tuple(columns.split()),
        rows=tuple(tuple(r) for r in rows),
        meta={"tool": "covfn", "version": __version__,
              "config": cfg.as_dict(), "seed": cfg.seed},
    )


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    # looked up at call time, so a runner rebound on this module is the one run
    return globals()[f"run_{cfg.experiment}"](cfg)


def _cells(cfg: ExperimentConfig, *axes: str):
    """The grid over d and the config fields ``axes``, row-major, as
    (d, cells) per d, cells a list of (values, stream); cell i = 1, 2, ...
    owns ``RngStream(cfg.seed).spawn(i)``."""
    base = RngStream(cfg.seed)
    rest = list(itertools.product(*(getattr(cfg, a) for a in axes)))
    for j, d in enumerate(cfg.d):
        yield d, [(values, base.spawn(j * len(rest) + i))
                  for i, values in enumerate(rest, start=1)]


def _estimate_cells(cfg: ExperimentConfig, f: ScalarFunction):
    """The (d, n, k) grid as (d, sigma, its SpectralDecomp, B, <f(sigma), B>,
    cells) per d, set up once per d, with one decomposition of sigma.

    ``cells`` lazily yields ((n, k), estimates), the M order-k estimates of
    a cell: replicate m draws its data from ``cell.spawn(2m)`` and its
    chains from ``cell.spawn(2m + 1)``.  As with itertools.groupby, read a
    d's cells before moving on to the next d.
    """
    for d, cells in _cells(cfg, "n", "k"):
        with overflow_stage("true Sigma"):
            sigma = SymMat(build_matrix(cfg.sigma, d))
        b, _ = build_b(cfg.b, d)
        with overflow_stage("true Sigma"):
            dec = eigh(sigma)
            root = psd_factor(dec)  # NotPSD before f is taken of sigma
        with overflow_stage("f at the true Sigma"):
            check_domain(dec.eigenvalues, f, "eigenvalues")
            truth, _ = spectral_terms(dec.eigenvalues, dec.eigenvectors, f,
                                      b.entries, False)
            truth = float(finite(truth, "a matrix"))  # the matrix f(Sigma)
        yield d, sigma, dec, b, truth, (
            ((n, k), [
                bias_reduced_estimate(gaussian_sample(root, n, cell.spawn(2 * m)),
                                      f, b, k, cfg.nchains, cell.spawn(2 * m + 1),
                                      cfg.alpha)
                for m in range(cfg.m)
            ])
            for (n, k), cell in cells
        )


def run_bias_scaling(cfg: ExperimentConfig) -> ResultTable:
    """Monte Carlo bias of the order-k estimator over an (n, k) grid.

    For f = square the exact Wishart-moment oracle bias is emitted next to
    the Monte Carlo estimate.
    """
    f = parse_function_spec(cfg.fn)
    rows = []
    for _, sigma, _, b, truth, cells in _estimate_cells(cfg, f):
        for (n, k), ests in cells:
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
    return _table(cfg, "n k M bias_mc stderr bias_oracle log_n log_abs_bias",
                  rows)


def run_coverage(cfg: ExperimentConfig) -> ResultTable:
    """Normal approximation and CI coverage of the bias-reduced estimator.

    Standardized errors use the true asymptotic sigma_f(Sigma; B) (the
    quantity the limit theorem standardizes by); the coverage column uses
    each replicate's own plug-in CI, which is what a practitioner has.
    Raises ZeroMatrix when sigma_f(Sigma; B) is 0.
    """
    f = parse_function_spec(cfg.fn)
    rows = []
    for d, _, dec, b, truth, cells in _estimate_cells(cfg, f):
        sig_true = sigma_f(dec, f, b)
        if sig_true == 0:
            raise ZeroMatrix(
                f"sigma_f(Sigma; B) is 0 at d = {d}, so the errors cannot be "
                "standardized: Sigma^1/2 Df(Sigma; B) Sigma^1/2 is the zero matrix")
        for (n, k), ests in cells:
            vals = np.array([e.functional_value for e in ests])
            std_errs = np.sqrt(n) * (vals - truth) / sig_true
            hits = sum(e.ci[0] <= truth <= e.ci[1] for e in ests)
            var = float(std_errs.var(ddof=1)) if cfg.m > 1 else 0.0
            rows.append([
                d, n, k, cfg.m, hits / cfg.m,
                ks_distance_to_normal(std_errs),
                float(std_errs.mean()), var,
            ])
    return _table(cfg, "d n k M coverage ks_stat mean_std_err var_std_err",
                  rows)


def run_opnorm(cfg: ExperimentConfig) -> ResultTable:
    """Mean operator-norm error of the sample covariance across (d, n),
    compared with the effective-rank benchmark
    ||Sigma|| (sqrt(r/n) or r/n, whichever is larger)."""
    rows = []
    for d, cells in _cells(cfg, "n"):
        with overflow_stage("true Sigma"):
            sigma = SymMat(build_matrix(cfg.sigma, d))
            dec = eigh(sigma)
            r_eff = effective_rank(dec)
            opnorm_sigma = float(np.abs(dec.eigenvalues).max())
            root = psd_factor(dec)
        unit = _binade(opnorm_sigma)  # exact; errors and benchmark are in units of it
        for (n,), cell in cells:
            errs = np.empty(cfg.m)
            for m in range(cfg.m):
                data = gaussian_sample(root, n, cell.spawn(m))
                with overflow_stage("sample covariance"):
                    diff = sample_covariance(data).entries - sigma.entries
                with overflow_stage("operator-norm error"):
                    errs[m] = np.abs(eigvalsh(diff)).max() / unit
            mean_err = finite(float(errs.mean()) * unit, "the mean operator-norm error")
            benchmark = opnorm_sigma / unit * max(np.sqrt(r_eff / n), r_eff / n)
            rows.append([d, n, cfg.m, mean_err, r_eff, mean_err / unit / benchmark])
    return _table(cfg, "d n M mean_opnorm_err eff_rank ratio", rows)


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
            with overflow_stage("true Sigma"):
                sigma = SymMat(build_matrix(cfg.sigma, d))
        if cfg.b == "random":
            g = s.standard_normal(d, d)
            a = SymMat((g + g.T) / 2.0)
        else:
            a = SymMat(build_matrix(cfg.b, d))
        with overflow_stage("true Sigma"):
            root = psd_factor(sigma)
        x = gaussian_sample(root, QUADFORM_DRAWS, s).rows
        lhs = np.einsum("ni,ij,nj->n", x, a.entries, x)
        with overflow_stage("quadratic-form weights"):
            lam = eigvalsh(root @ a.entries @ root)
        z = s.standard_normal(QUADFORM_DRAWS, d)
        rhs = (z**2) @ lam
        rows.append([m, two_sample_ks(lhs, rhs), critical, QUADFORM_DRAWS])
    return _table(cfg, "pair ks_stat critical_value draws_per_side", rows)
