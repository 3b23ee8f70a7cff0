"""Exact bias of the order-k estimator for the quadratic matrix function.

For centered Gaussian data the expectation of any member of the family

    {S^2, tr(S) S, tr(S^2) I, (tr S)^2 I, S, tr(S) I, I}

(in the order of every coefficient vector here) under S -> sample
covariance of n draws from N(0, S) stays inside the family, with
coefficients affine in 1/n (Gaussian fourth-moment identities).  The
expectation therefore acts as a 7x7 matrix on coefficient vectors, the
bias operator is that matrix minus the identity, and the exact bias of
the order-k bias-reduced estimator of S^2 is (-1)^k (bias operator)^{k+1}
applied to the coefficients of S^2.  Used as ground truth in tests and
rate experiments.
"""

from __future__ import annotations

import numpy as np

from .estimators import MAX_K
from .symmat import SymMat, as_symmat

__all__ = [
    "wishart_transfer_matrix",
    "evaluate_quad_family",
    "quad_wishart_oracle",
]

def wishart_transfer_matrix(n: int) -> np.ndarray:
    """Matrix of the one-step expectation operator on the quadratic family.

    Column j holds the coefficients of E[basis_j(sample covariance)] in
    the same basis.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = np.eye(7)
    inv = 1.0 / n
    # E[S^2]        = (1 + 1/n) S^2 + (1/n) tr(S) S
    t[0, 0] = 1.0 + inv
    t[1, 0] = inv
    # E[tr(S) S]    = tr(S) S + (2/n) S^2
    t[0, 1] = 2.0 * inv
    # E[tr(S^2)]    = (1 + 1/n) tr(S^2) + (1/n) (tr S)^2
    t[2, 2] = 1.0 + inv
    t[3, 2] = inv
    # E[(tr S)^2]   = (tr S)^2 + (2/n) tr(S^2)
    t[2, 3] = 2.0 * inv
    # S, tr(S) I, I are fixed points (the sample covariance is unbiased)
    return t


def evaluate_quad_family(coefs, sigma) -> SymMat:
    """Evaluate a coefficient vector over the quadratic family at Sigma."""
    coefs = np.asarray(coefs, dtype=float)
    if coefs.shape != (7,):
        raise ValueError("expected 7 coefficients")
    s = as_symmat(sigma).entries
    d = s.shape[0]
    tr = float(np.trace(s))
    tr2 = float(np.trace(s @ s))
    eye = np.eye(d)
    out = (
        coefs[0] * (s @ s)
        + coefs[1] * tr * s
        + coefs[2] * tr2 * eye
        + coefs[3] * tr * tr * eye
        + coefs[4] * s
        + coefs[5] * tr * eye
        + coefs[6] * eye
    )
    return SymMat(out)


def quad_wishart_oracle(sigma, n: int, k: int) -> SymMat:
    """Exact bias E[f_k(sample covariance)] - Sigma^2 for f(x) = x^2.

    k = 0 reduces to the closed form (tr(Sigma) Sigma + Sigma^2) / n; each
    further order multiplies every coefficient by another 1/n factor.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 <= k <= MAX_K):
        raise ValueError(f"k must be in [0, {MAX_K}]")
    t = wishart_transfer_matrix(n)
    bias_op = t - np.eye(7)
    coefs = np.zeros(7)
    coefs[0] = 1.0  # f(x) = x^2
    coefs = np.linalg.matrix_power(bias_op, k + 1) @ coefs
    return evaluate_quad_family(((-1.0) ** k) * coefs, sigma)
