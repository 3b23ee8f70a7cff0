"""Test-only helpers: closed forms and fits that only the tests call.

Each checks the package against an independent computation: the Gaussian
fourth-moment identities behind ``wishart_oracle``'s closed form, the
spectral matrix function f(A) formed as a matrix, the first-order Taylor
remainder of a spectral function, the plug-in estimate (the order-0
estimator) and the log-log slope of a bias against n.
``frechet_derivative`` rebuilds Df(A; H) from ``symmat.spectral_terms``
and ``symmat.loewner_first_difference``, the routines the chains and
sigma_f run, so that checks of it check them.  The d^3 tensor of second
divided differences (``loewner_second_difference``) is the oracle for
each chain step's second-order term, which the package takes with one
matrix product per state instead: ``step_terms`` contracts it with
``einsum``.
``collect_states`` keeps the chain states that ``chain_states`` hands
over, which the package itself never does.
"""

import numpy as np

from covfn.errors import DimMismatch
from covfn.estimators import EstimateReport, bias_reduced_estimate
from covfn.functions import ScalarFunction
from covfn.sampling import DataMatrix, RngStream, chain_states
from covfn.symmat import (LOEWNER_GAP, SpectralDecomp, SymMat, as_symmat,
                          check_domain, eigh, from_eigenpairs,
                          loewner_first_difference, spectral_terms)


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
    _, ht = spectral_terms(d.eigenvalues, u, f, as_symmat(h).entries, True)
    return SymMat(u @ (loewner_first_difference(d.eigenvalues, f) * ht) @ u.T)


def loewner_second_difference(eigs, f: ScalarFunction) -> np.ndarray:
    """Tensor of second divided differences F_ijl = f[l_i, l_j, l_l] of f
    on one eigenvalue grid.

    Each entry is (f[a, b] - f[b, c]) / (a - c) for the first pair (a, c)
    of (l_i, l_l), (l_i, l_j), (l_j, l_l) whose gap exceeds LOEWNER_GAP
    times max |eigs|, with b the third point and the first differences
    from ``loewner_first_difference`` (so a tied pair among a, b, c goes
    through f'); where all three are tied it is f''(mean) / 2.
    """
    eigs = np.asarray(eigs, dtype=float)
    first = loewner_first_difference(eigs, f)
    tol = LOEWNER_GAP * np.abs(eigs).max(initial=0.0)
    gap = eigs[:, None] - eigs[None, :]
    apart = np.abs(gap) > tol
    out = np.empty((eigs.size,) * 3)
    np.divide(first[:, :, None] - first, gap[:, None, :], out=out,
              where=apart[:, None, :])
    # the tied pairs (l_i, l_l), each against every l_j
    i, l = np.nonzero(~apart)
    tied = np.empty((i.size, eigs.size))
    ij = apart[i]
    np.divide(first[i, l][:, None] - first[:, l].T, gap[i], out=tied, where=ij)
    jl = apart[:, l].T & ~ij
    np.divide(first[i] - first[i, l][:, None], gap[:, l].T, out=tied, where=jl)
    rest = ~(ij | jl)
    tied[rest] = f.deriv2(((eigs[i, None] + eigs + eigs[l, None]) / 3.0)[rest]) / 2.0
    out[i, :, l] = tied
    return out


def step_terms(lam, u, f: ScalarFunction, b, n: int, s, drop_ties=True):
    """(l, q, E[q]) of a chain step from S = U diag(lam) U^T to each state
    S_t of a stack, from the tensor F of ``loewner_second_difference``:
    with Dt = U^T S_t U - diag(lam) and Bt = U^T B U, l = sum Dt o (L o
    Bt) and q = sum_ijl F_ijl Dt_ij Dt_jl Bt_li, less its tied pairs i != l
    (as ``LOEWNER_GAP`` decides them) when ``drop_ties``, and E[q] =
    (sum_i F_iii Bt_ii lam_i^2 + sum_ij F_iji Bt_ii lam_i lam_j) / n, the
    Wishart step's mean of q either way.  ``lam`` and ``u`` may be a
    stack, one S per state."""
    lam, u, s = np.asarray(lam), np.asarray(u), np.asarray(s)
    if lam.ndim == 1:
        lam, u = (np.broadcast_to(a, s.shape[:-2] + a.shape) for a in (lam, u))
    out = []
    for lam_r, u_r, s_r in zip(lam.reshape(-1, lam.shape[-1]),
                               u.reshape((-1,) + u.shape[-2:]),
                               s.reshape((-1,) + s.shape[-2:])):
        i = np.arange(lam_r.size)
        tied = np.abs(lam_r[:, None] - lam_r) <= LOEWNER_GAP * np.abs(lam_r).max()
        tied[i, i] = False
        tied &= drop_ties
        tensor = np.where(tied[:, None, :], 0.0, loewner_second_difference(lam_r, f))
        bt = u_r.T @ b @ u_r
        dt = u_r.T @ s_r @ u_r - np.diag(lam_r)
        lin = np.sum(dt * loewner_first_difference(lam_r, f) * bt)
        q = np.einsum("ij,ijl,jl,li->", dt, tensor, dt, bt)
        mean = (np.sum(tensor[i, i, i] * np.diag(bt) * lam_r**2)
                + np.einsum("iji,i,i,j->", tensor, np.diag(bt), lam_r, lam_r)) / n
        out.append((lin, q, mean))
    return tuple(np.reshape(v, s.shape[:-2]) for v in zip(*out))


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
