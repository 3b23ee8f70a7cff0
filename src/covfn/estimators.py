"""The bias-reduced estimator of <f(Sigma), B> and its confidence interval.

The estimator of order k averages, over N independent bootstrap chains
S_0, ..., S_k started at the sample covariance S_0, the weighted
combination sum_i c_{k,i} <f(S_i), B> with hockey-stick weights
c_{k,i} = (-1)^i C(k+1, i+1); its conditional expectation removes the
first k orders of plug-in bias.  A chain is a martingale (E[S_t | S_{t-1}]
= S_{t-1}), so each step's linear term l_t = <S_t - S_{t-1}, D_{t-1}>,
D_{t-1} = Df(S_{t-1}; B), has mean exactly 0 and is subtracted with the
weight sum_{i>=t} c_{k,i} = (-1)^t C(k, t) as a control variate: the mean
is unchanged and the chain noise that the linear terms carry is gone.
The plug-in estimator <f(S_0), B> is the order-0 case: one chain that
takes no step, with weight 1.  ``sampling.chain_states`` hands each block
of states to the estimator, which keeps no state beyond the carry from
one step to the next: D_{t-1} scaled by a power of two, and l_t is
sum (S_t - S_{t-1}) o D_{t-1}.  For a polynomial f
(``ScalarFunction.coefficients``) <f(S_t), B> and D_t are sums of
products of S_t and B; every other f keeps each state's eigenvalues and
weights u_m^T B u_m, and takes D_t from its eigenpairs and Loewner matrix.
A chain state outside f's domain is an error, never dropped.  Confidence
intervals use the asymptotic standard deviation
sigma_f = sqrt(2) ||Sigma^{1/2} Df(Sigma;B) Sigma^{1/2}||_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import BadAlpha, DimMismatch, finite, overflow_stage
from .functions import ScalarFunction
from .sampling import (
    DataMatrix,
    RngStream,
    chain_states,
    sample_covariance,
)
from .symmat import (
    _binade,
    _frechet_eig,
    as_symmat,
    check_domain,
    eigh,
    in_domain,
    loewner_first_difference,
    psd_sqrt,
)

__all__ = [
    "EstimateReport",
    "sigma_f",
    "hockey_stick_weights",
    "hockey_stick_weight_ints",
    "bias_reduced_estimate",
    "confidence_interval",
    "MAX_K",
]

# The one bound on k.  The weights are exact ints; their float copies are exact
# to k = 55 (C(57, 28) > 2^53), and they fit a signed int64 up to k = 65.
MAX_K = 62


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
    """Symmetric interval point +/- z_{1-alpha/2} * sigma_hat / sqrt(n).

    sigma_hat is divided by a power of two for the product, so the
    half-width is finite wherever its value is; an interval beyond
    floating point raises NumericOverflow.
    """
    if not (0.0 < alpha < 1.0):
        raise BadAlpha(f"alpha must be in (0, 1), got {alpha}")
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    scale = _binade(sigma_hat)  # exact, so z * sigma_hat cannot overflow
    half = z * (sigma_hat / scale) / math.sqrt(n) * scale
    return finite((point - half, point + half), "the confidence interval")


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
    root = psd_sqrt(dec.eigenvalues)
    sandwiched = root[:, None] * _frechet_eig(dec, f, b) * root[None, :]
    scale = _binade(sandwiched)  # exact, so the norm cannot overflow
    out = math.sqrt(2.0) * float(np.linalg.norm(sandwiched / scale)) * scale
    return finite(out, f"sigma_f of '{f.name}'")


def hockey_stick_weight_ints(k: int) -> list:
    """Exact integer chain weights c_{k,i} = (-1)^i C(k+1, i+1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_K:
        raise OverflowError(f"k must be at most MAX_K = {MAX_K}, got {k}")
    return [(-1) ** i * math.comb(k + 1, i + 1) for i in range(k + 1)]


def hockey_stick_weights(k: int) -> np.ndarray:
    """Chain weights as floats; computed in integer arithmetic, sum is 1."""
    return np.array(hockey_stick_weight_ints(k), dtype=float)


def _weights(u, bu) -> np.ndarray:
    """u_m^T B u_m for each eigenvector u_m, the columns of each matrix of u,
    given bu = B u."""
    return np.sum(u * bu, axis=-2)


def _binade_split(s):
    """(S_hat, e), S = 2^e S_hat, 2^e at or below max |entry| of each S."""
    e = np.frexp(np.abs(s).max(axis=(-2, -1)))[1] - 1
    return np.ldexp(s, -e[..., None, None]), e


def _polynomial_contraction(s_hat, e, coefficients, b) -> np.ndarray:
    """<p(S), B> for each symmetric S = 2^e S_hat, p = sum_j c_j x^j.

    No decomposition: tr(S^j B) = sum S o (S^{j-1} B) for symmetric S.
    Each term is taken of S_hat and scaled back exactly, so it is finite
    wherever its value is.
    """
    power = b  # S_hat^{j-1} B
    out = np.full(e.shape, coefficients[0] * np.trace(b))
    for j, c in enumerate(coefficients[1:], start=1):
        if j > 1:
            power = s_hat @ power
        if c:
            out += c * np.ldexp(np.sum(s_hat * power, axis=(-2, -1)), j * e)
    return out


def _polynomial_derivative(s_hat, e, coefficients, b):
    """(D_hat, v) with Dp(S; B) = sum_j c_j sum_{a+b=j-1} S^a B S^b equal
    to 2^v D_hat, for each symmetric S = 2^e S_hat.

    No decomposition.  v = max(0, (deg p - 1) e) is the scale of the top
    term, so every term is taken of S_hat at a power of two at or below 1
    and D_hat is finite.
    """
    v = np.maximum((len(coefficients) - 2) * e, 0)
    power = m = b  # S_hat^{j-1} B and sum_{a+b=j-1} S_hat^a B S_hat^b
    out = np.zeros(s_hat.shape)
    for j, c in enumerate(coefficients[1:], start=1):
        if j > 1:
            power = s_hat @ power
            m = s_hat @ m + np.swapaxes(power, -1, -2)
        if c:
            out += c * np.ldexp(m, ((j - 1) * e - v)[..., None, None])
    return out, v


def bias_reduced_estimate(x: DataMatrix, f: ScalarFunction, b, k: int,
                          nchains: int, rng: RngStream,
                          alpha: float = 0.05) -> EstimateReport:
    """Order-k bias-reduced estimate of <f(Sigma), B> via bootstrap chains.

    Simulates ``nchains`` independent chains S_0, ..., S_k from the sample
    covariance S_0 (step t of every chain draws from ``rng.spawn(2t - 1)``
    and ``rng.spawn(2t)``, see ``chain_states``) and averages, over
    the chains,

        sum_i c_i <f(S_i), B> - sum_{t>=1} (-1)^t C(k, t) l_t,
        l_t = <S_t - S_{t-1}, Df(S_{t-1}; B)>;

    each l_t has mean 0 given S_{t-1}, and the second sum takes the chain
    noise of the linear terms out.  At k = 0 this is the plug-in: one chain
    that takes no step, draws nothing and is reported as zero chains.  The
    terms of S_0, and D_0, come from its eigenpairs, once.  A stepped
    state's terms, and for every state but the last its D, are taken in
    its block of the chain pass: from the state itself when f is a
    polynomial (domain R, so there is no chain domain check), and from its
    eigenpairs otherwise.  A chain's terms are summed at a power of two
    where their weighted sum could overflow.  The CI half-width uses
    sigma_hat / sqrt(n) only; Monte Carlo chain noise is reported
    separately as ``mc_stderr``.  Raises DomainError, before any chain is
    drawn, when S_0 lies outside f's domain, and after the draws when a
    chain state leaves it; and NumericOverflow, naming the stage, when the
    sample covariance, a chain state, f of a state, the chain combination,
    its linear terms, ``mc_stderr`` or sigma_f overflows.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k and nchains < 1:
        raise ValueError("need at least one chain when k >= 1")
    b = as_symmat(b)
    with overflow_stage("sample covariance"):
        sigma_hat_mat = sample_covariance(x)
        start = eigh(sigma_hat_mat)  # shared by the chains and sigma_f
    if sigma_hat_mat.dim != b.dim:
        raise DimMismatch(f"data dim {sigma_hat_mat.dim}, B dim {b.dim}")
    check_domain(start.eigenvalues, f, "eigenvalues of the sample covariance")
    nchains = nchains if k else 1
    vals = np.empty((nchains, k + 1))  # <f(S_i), B> per chain
    vals[:, 0] = np.sum(f.eval(start.eigenvalues) * _weights(
        start.eigenvectors, b.entries @ start.eigenvectors), axis=-1)
    lin = np.empty((nchains, k))  # l_t = <S_t - S_{t-1}, D_{t-1}> per chain
    if k:
        u0 = start.eigenvectors
        d0, unit = _binade_split(_frechet_eig(start, f, b))  # D_0 / 2^unit
        # a block's carry into step t is (D_hat, p, ep, u) with D_{t-1} =
        # 2^u D_hat and <S_{t-1}, D_hat> = 2^ep p; step 1 reads the start's
        first = (u0 @ d0 @ u0.T, start.eigenvalues @ np.diagonal(d0), 0, unit)
        lam, w = np.empty((2, nchains, k, x.d))  # eigenvalues and weights
        poly = f.coefficients

        def visit(lo, hi, t, s, carry):
            s_hat, e = _binade_split(s.entries)
            # l_t / 2^u = <S_t, D_hat> - <S_{t-1}, D_hat>, both taken at
            # 2^-top, so l_t is finite wherever its value is
            d_hat, p, ep, u = first if carry is None else carry
            top = np.maximum(e, ep)
            lin[lo:hi, t - 1] = np.ldexp(
                np.ldexp(np.sum(s_hat * d_hat, axis=(-2, -1)), e - top)
                - np.ldexp(p, ep - top), top + u)
            if poly is None:
                dec = eigh(s)
                bu = b.entries @ dec.eigenvectors
                lam[lo:hi, t - 1] = dec.eigenvalues
                w[lo:hi, t - 1] = _weights(dec.eigenvectors, bu)
            else:
                # |eigenvalue| <= d max |entry| < 2^(e + 1 + bits(d)), so only
                # these states can have one beyond floating point; eigh
                # raises for it
                big = e >= 1023 - x.d.bit_length()
                if big.any():
                    eigh(s.entries[big])
                vals[lo:hi, t] = _polynomial_contraction(s_hat, e, poly,
                                                         b.entries)
            if t == k:  # no step reads the last state's D
                return None
            if poly is None:  # D_t = U (L o U^T B U) U^T
                v, vt = dec.eigenvectors, np.swapaxes(dec.eigenvectors, -1, -2)
                # a state outside f's domain fails the check after the pass;
                # till then its L is formed on the start's eigenvalues
                inside = np.all(in_domain(dec.eigenvalues, f), axis=-1)
                grid = np.where(inside[:, None], dec.eigenvalues,
                                start.eigenvalues)
                d_eig, u = _binade_split(loewner_first_difference(grid, f)
                                         * (vt @ bu))
                d_hat = v @ d_eig @ vt
            else:
                d_hat, u = _polynomial_derivative(s_hat, e, poly, b.entries)
            return d_hat, np.sum(s_hat * d_hat, axis=(-2, -1)), e, u

        with overflow_stage("chain state"):
            chain_states(start, k, x.n, nchains, rng, visit)
        if poly is None:
            check_domain(lam, f, "chains")
            vals[:, 1:] = np.sum(f.eval(lam) * w, axis=-1)
    finite(vals, f"'{f.name}' of a chain state")
    # subtract sum_t l_t sum_{i>=t} c_i; these tail sums are (-1)^t C(k, t)
    c = hockey_stick_weights(k)
    tails = np.array([(-1) ** t * math.comb(k, t) for t in range(1, k + 1)],
                     dtype=float)
    # sum |c_i| + sum |tails_t| < 2^(k+2), so a row whose terms are below
    # 2^(1021 - k) cannot overflow; any other is summed at 2^-r and
    # scaled back exactly, so it is finite wherever its value is
    top = np.frexp(np.abs(np.concatenate([vals, lin], axis=1)).max(axis=1))[1]
    r = np.maximum(top + k + 2 - 1023, 0)
    part = np.ldexp(vals, -r[:, None]) @ c
    y = np.ldexp(part - np.ldexp(lin, -r[:, None]) @ tails, r)
    if not np.all(np.isfinite(y)):  # at k = 0, y is the finite <f(S_0), B>
        finite(np.ldexp(part, r), f"the chain combination of '{f.name}'")
        finite(y, f"linear term: the chain combination of '{f.name}' less "
               "its linear term")

    scale = _binade(y)
    z = y / scale  # exact; keeps the squares in y.std inside floating point
    value = float(z.mean()) * scale
    mc_stderr = float(z.std(ddof=1) / math.sqrt(z.size)) * scale if z.size > 1 else 0.0
    finite(mc_stderr, "the Monte Carlo stderr")
    shat = sigma_f(start, f, b)
    ci = confidence_interval(value, shat, x.n, alpha)
    return EstimateReport(
        functional_value=value, estimator_kind="bias_reduced" if k else "plugin",
        k=k, mc_stderr=mc_stderr, sigma_hat=shat, ci=ci, alpha=alpha,
        n=x.n, d=x.d, chains=nchains if k else 0,
        master_seed=rng.master_seed, stream_id=rng.stream_id,
    )
