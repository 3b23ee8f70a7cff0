"""Exact bias of the order-k estimator for the quadratic matrix function.

With T g(Sigma) = E g(sample covariance of n draws from N(0, Sigma)) and
the bias operator B = T - I, the order-k estimator of f(Sigma) has bias
(-1)^k B^{k+1} f(Sigma) (arXiv:1710.09072).  For f(x) = x^2 the Gaussian
fourth-moment identities E[S^2] = Sigma^2 + (Sigma^2 + tr(Sigma) Sigma)/n
and E[tr(S) S] = tr(Sigma) Sigma + 2 Sigma^2/n show that B maps
span{Sigma^2, tr(Sigma) Sigma} to itself as (1/n) [[1, 2], [1, 0]], whose
eigenvalues are 2/n and -1/n.  With the Jacobsthal numbers
J_j = (2^j - (-1)^j)/3 = 0, 1, 1, 3, 5, 11, ... the order-k bias is

    (-1)^k (J_{k+2} Sigma^2 + J_{k+1} tr(Sigma) Sigma) / n^{k+1},

each coefficient one correctly rounded division of exact integers, which
cannot overflow.  Ground truth for tests and rate experiments.
"""

from __future__ import annotations

import numpy as np

from .estimators import MAX_K
from .symmat import SymMat, as_symmat

__all__ = ["quad_wishart_oracle"]


def quad_wishart_oracle(sigma, n: int, k: int) -> SymMat:
    """Exact bias E[f_k(sample covariance)] - Sigma^2 for f(x) = x^2; k = 0
    gives (Sigma^2 + tr(Sigma) Sigma) / n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 <= k <= MAX_K):
        raise ValueError(f"k must be in [0, {MAX_K}]")
    # n as a ratio of Python ints, whose powers cannot wrap as a numpy int's do
    num, den = float(n).as_integer_ratio()
    top, scale = den ** (k + 1), (-1) ** k * num ** (k + 1)
    a, b = ((2**j - (-1) ** j) // 3 * top / scale for j in (k + 2, k + 1))
    s = as_symmat(sigma).entries
    return SymMat(a * (s @ s) + b * float(np.trace(s)) * s)
