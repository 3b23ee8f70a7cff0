"""Test-only helpers: closed forms and fits that only the tests call.

Each checks the package against an independent computation: the Gaussian
fourth-moment identities behind ``wishart_oracle``'s closed form, the
spectral matrix function f(A) formed as a matrix, the first-order Taylor
remainder of a spectral function, the plug-in estimate (the order-0
estimator) and the log-log slope of a bias against n.
``frechet_derivative`` rebuilds Df(A; H) from ``symmat.spectral_terms``,
the routine the chains and sigma_f run, so that checks of it check them.
``collect_states`` keeps the chain states that ``chain_states`` hands
over, which the package itself never does.
"""

import numpy as np

from covfn.errors import DimMismatch
from covfn.estimators import EstimateReport, bias_reduced_estimate
from covfn.functions import ScalarFunction
from covfn.sampling import DataMatrix, RngStream, chain_states
from covfn.symmat import (SpectralDecomp, SymMat, as_symmat, check_domain, eigh,
                          from_eigenpairs, spectral_terms)


def plugin_estimate(x: DataMatrix, f: ScalarFunction, b,
                    alpha: float = 0.05) -> EstimateReport:
    """Plug-in estimate <f(sample covariance), B> with its CI: order 0."""
    return bias_reduced_estimate(x, f, b, 0, 0, RngStream(0), alpha)


def collect_states(start, k: int, n: int, nchains: int, rng: RngStream,
                   calls: list = None) -> np.ndarray:
    """The stepped states S_1, ..., S_k of ``chain_states``' chains,
    (nchains, k, d, d), each row written by the block that holds it.

    Each call of ``visit`` appends (lo, hi, t, carry) to ``calls``, if
    given, and returns t, the carry that the block's next call receives.
    """
    d = eigh(start).eigenvalues.shape[-1]
    states = np.full((nchains, k, d, d), np.nan)

    def visit(lo, hi, t, s, carry):
        states[lo:hi, t - 1] = s.entries
        if calls is not None:
            calls.append((lo, hi, t, carry))
        return t

    chain_states(start, k, n, nchains, rng, visit)
    return states


def apply_scalar_function(d: SpectralDecomp, f: ScalarFunction) -> SymMat:
    """Spectral matrix function f(A) = U f(Lambda) U^T."""
    check_domain(d.eigenvalues, f, "eigenvalues")
    return SymMat(from_eigenpairs(f.eval(d.eigenvalues), d.eigenvectors))


def frechet_derivative(d: SpectralDecomp, f: ScalarFunction, h) -> SymMat:
    """Directional derivative Df(A; H) = U (L o U^T H U) U^T, for A
    decomposed as ``d``."""
    u = d.eigenvectors
    _, deriv = spectral_terms(d.eigenvalues, u, f, as_symmat(h).entries, True)
    return SymMat(u @ deriv @ u.T)


def taylor_remainder(a, h, f: ScalarFunction) -> SymMat:
    """First-order Taylor remainder f(A+H) - f(A) - Df(A; H)."""
    a = as_symmat(a)
    h = as_symmat(h)
    if a.dim != h.dim:
        raise DimMismatch(f"A has dim {a.dim}, H has dim {h.dim}")
    da = eigh(a)
    f_a_plus_h = apply_scalar_function(eigh(a.entries + h.entries), f)
    f_a = apply_scalar_function(da, f)
    df = frechet_derivative(da, f, h)
    return SymMat(f_a_plus_h.entries - f_a.entries - df.entries)


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


def expected_sandwich(sigma, a, n: int) -> SymMat:
    """E[S A S] = Sigma A Sigma + (Sigma A Sigma + tr(A Sigma) Sigma)/n."""
    s = as_symmat(sigma).entries
    a = as_symmat(a).entries
    sas = s @ a @ s
    return SymMat(sas + (sas + np.trace(a @ s) * s) / n)


def expected_trace_times_cov(sigma, n: int) -> SymMat:
    """E[tr(S) S] = tr(Sigma) Sigma + 2 Sigma^2 / n."""
    s = as_symmat(sigma).entries
    return SymMat(np.trace(s) * s + 2.0 * (s @ s) / n)


def expected_trace_of_square(sigma, n: int) -> float:
    """E[tr(S^2)] = (1 + 1/n) tr(Sigma^2) + (tr Sigma)^2 / n."""
    s = as_symmat(sigma).entries
    return float((1.0 + 1.0 / n) * np.trace(s @ s) + np.trace(s) ** 2 / n)


def expected_square_of_trace(sigma, n: int) -> float:
    """E[(tr S)^2] = (tr Sigma)^2 + 2 tr(Sigma^2) / n."""
    s = as_symmat(sigma).entries
    return float(np.trace(s) ** 2 + 2.0 * np.trace(s @ s) / n)
