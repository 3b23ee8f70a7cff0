"""Plug-in and bias-reduced estimators of <f(Sigma), B>.

The bias-reduced estimator of order k averages, over N independent
bootstrap chains started at the sample covariance, the weighted
combination sum_i c_{k,i} <f(state_i), B> with hockey-stick weights
c_{k,i} = (-1)^i C(k+1, i+1); its conditional expectation removes the
first k orders of plug-in bias.  The plug-in estimator
<f(sample covariance), B> is the order-0 case: one chain that takes no
step, with weight 1.  The chains come as eigenpairs from
``sampling.chain_eigenpairs``, so f and the projections onto B are read
off the one decomposition of each state; a chain state outside f's
domain is an error, never dropped.  Confidence intervals use the
asymptotic standard deviation
sigma_f = sqrt(2) ||Sigma^{1/2} Df(Sigma;B) Sigma^{1/2}||_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import BadAlpha, DimMismatch, DomainError, NumericOverflow
from .functions import ScalarFunction
from .sampling import (
    DataMatrix,
    RngStream,
    chain_eigenpairs,
    sample_covariance,
)
from .symmat import (
    as_symmat,
    eigh,
    in_domain,
    loewner_first_difference,
    psd_sqrt,
)

__all__ = [
    "EstimateReport",
    "plugin_estimate",
    "sigma_f",
    "hockey_stick_weights",
    "hockey_stick_weight_ints",
    "bias_reduced_estimate",
    "confidence_interval",
    "MAX_K",
]

MAX_K = 62  # largest order whose chain weights C(k+1, i+1) fit in 64 bits


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with uncertainty and full provenance."""

    functional_value: float
    estimator_kind: str  # "plugin" at k = 0, else "bias_reduced"
    k: int
    mc_stderr: float
    sigma_hat: float
    ci: tuple
    alpha: float
    n: int
    d: int
    chains: int
    master_seed: int
    stream_id: int


def confidence_interval(point: float, sigma_hat: float, n: int, alpha: float) -> tuple:
    """Symmetric interval point +/- z_{1-alpha/2} * sigma_hat / sqrt(n)."""
    if not (0.0 < alpha < 1.0):
        raise BadAlpha(f"alpha must be in (0, 1), got {alpha}")
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    z = float(ndtri(1.0 - alpha / 2.0))
    half = z * sigma_hat / math.sqrt(n)
    return (point - half, point + half)


def _binade(a: np.ndarray) -> float:
    """Power of two at or below max |a| (1.0 if that is 0 or not finite).

    Dividing by it and multiplying back is exact, so a second moment taken
    of ``a / _binade(a)`` equals the unscaled one bit for bit wherever the
    unscaled one does not overflow, and is finite wherever the result is.
    """
    top = float(np.max(np.abs(a)))
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if 0.0 < top < math.inf else 1.0


def sigma_f(sigma, f: ScalarFunction, b) -> float:
    """Asymptotic std dev sqrt(2) ||Sigma^{1/2} Df(Sigma;B) Sigma^{1/2}||_2.

    Computed in the eigenbasis of Sigma, where both the square root
    (``symmat.psd_sqrt``, which raises NotPSD) and the Loewner-matrix
    derivative are exact on eigenvalues.  ``sigma`` may be given as its
    SpectralDecomp.  The norm is taken of entries scaled
    by a power of two, so it is finite wherever its value is; a value
    beyond floating point raises NumericOverflow.
    """
    dec = eigh(sigma)
    b = as_symmat(b)
    if dec.source_dim != b.dim:
        raise DimMismatch(f"dims {dec.source_dim} and {b.dim} differ")
    lam = dec.eigenvalues
    root = psd_sqrt(lam)
    loewner = loewner_first_difference(lam, f)
    u = dec.eigenvectors
    b_eig = u.T @ b.entries @ u
    df_eig = loewner * b_eig
    with np.errstate(over="ignore"):  # reported below
        sandwiched = root[:, None] * df_eig * root[None, :]
    scale = _binade(sandwiched)  # exact, so the norm cannot overflow
    out = math.sqrt(2.0) * float(np.linalg.norm(sandwiched / scale)) * scale
    if not math.isfinite(out):
        raise NumericOverflow(f"sigma_f of '{f.name}' overflows floating "
                              "point; rescale the data")
    return out


def hockey_stick_weight_ints(k: int) -> list:
    """Exact integer chain weights c_{k,i} = (-1)^i C(k+1, i+1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_K:
        raise OverflowError(f"weights exceed 64-bit integers for k > {MAX_K}")
    return [(-1) ** i * math.comb(k + 1, i + 1) for i in range(k + 1)]


def hockey_stick_weights(k: int) -> np.ndarray:
    """Chain weights as floats; computed in integer arithmetic, sum is 1."""
    return np.array(hockey_stick_weight_ints(k), dtype=float)


def plugin_estimate(x: DataMatrix, f: ScalarFunction, b,
                    alpha: float = 0.05) -> EstimateReport:
    """Plug-in estimate <f(sample covariance), B> with its CI: order 0."""
    return bias_reduced_estimate(x, f, b, 0, 0, RngStream(0), alpha)


def bias_reduced_estimate(x: DataMatrix, f: ScalarFunction, b, k: int,
                          nchains: int, rng: RngStream,
                          alpha: float = 0.05) -> EstimateReport:
    """Order-k bias-reduced estimate of <f(Sigma), B> via bootstrap chains.

    Simulates ``nchains`` independent chains of length k+1 from the sample
    covariance (step t of every chain draws from ``rng.spawn(2t - 1)`` and
    ``rng.spawn(2t)``, see ``chain_eigenpairs``), forms the weighted
    functional along each chain, and averages.  At k = 0 this is the
    plug-in: one chain that takes no step, draws nothing and is reported
    as zero chains.  The CI half-width uses sigma_hat / sqrt(n) only;
    Monte Carlo chain noise is reported separately as ``mc_stderr``.
    Raises DomainError when any chain state leaves f's domain, and
    NumericOverflow when f of a state, ``mc_stderr`` or sigma_f overflows.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k and nchains < 1:
        raise ValueError("need at least one chain when k >= 1")
    b = as_symmat(b)
    sigma_hat_mat = sample_covariance(x)
    if sigma_hat_mat.dim != b.dim:
        raise DimMismatch(f"data dim {sigma_hat_mat.dim}, B dim {b.dim}")
    start = eigh(sigma_hat_mat)  # shared by the chains and sigma_f
    lam, u = chain_eigenpairs(start, k, x.n, nchains if k else 1, rng)
    left = int(np.sum(~np.all(in_domain(lam, f), axis=(1, 2))))
    if left:
        lo, hi = f.domain
        raise DomainError(f"{left} of {len(lam)} chains left the domain "
                          f"({lo}, {hi}) of '{f.name}'")
    proj = np.sum(u * (b.entries @ u), axis=-2)  # u_m^T B u_m
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        vals = np.sum(f.eval(lam) * proj, axis=-1)  # <f(state_t), B> per chain
    if not np.all(np.isfinite(vals)):
        raise NumericOverflow(f"'{f.name}' of a chain state overflows floating "
                              "point; rescale the data")
    y = vals @ hockey_stick_weights(k)

    scale = _binade(y)
    z = y / scale  # exact; keeps the squares in y.std inside floating point
    value = float(z.mean()) * scale
    mc_stderr = float(z.std(ddof=1) / math.sqrt(z.size)) * scale if z.size > 1 else 0.0
    if not math.isfinite(mc_stderr):
        raise NumericOverflow("the Monte Carlo stderr overflows floating "
                              "point; rescale the data")
    shat = sigma_f(start, f, b)
    ci = confidence_interval(value, shat, x.n, alpha)
    return EstimateReport(
        functional_value=value, estimator_kind="bias_reduced" if k else "plugin",
        k=k, mc_stderr=mc_stderr, sigma_hat=shat, ci=ci, alpha=alpha,
        n=x.n, d=x.d, chains=nchains if k else 0,
        master_seed=rng.master_seed, stream_id=rng.stream_id,
    )
