"""Dense symmetric matrices: eigendecomposition, spectral functions,
Loewner-matrix directional derivatives, Taylor remainders, Schatten norms
and effective rank.

All matrices here are real symmetric and carried by :class:`SymMat`, an
immutable wrapper around a ``numpy`` array.  Construction symmetrizes its
input (sample-covariance accumulation can leave last-bit asymmetry) and
rejects non-finite entries outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DomainError, EigFailure, NotPSD, ZeroMatrix
from .functions import ScalarFunction

# The one tolerance policy: each threshold is one of these constants times
# max |eigenvalue| of the matrix (or stack) at hand, so it is scale-free.
DOMAIN_MARGIN = 1e-12  # f's finite domain endpoints move inward by this
LOEWNER_GAP = 1e-8  # eigenvalues closer than this are tied in L(f)
PSD_TOL = 1e-10  # eigenvalues above minus this count as nonnegative

__all__ = [
    "SymMat",
    "SpectralDecomp",
    "as_symmat",
    "eigh",
    "check_psd",
    "psd_sqrt",
    "apply_scalar_function",
    "loewner_first_difference",
    "frechet_derivative",
    "taylor_remainder",
    "effective_rank",
    "schatten_norm",
    "trace_inner_product",
]


@dataclass(frozen=True)
class SymMat:
    """Immutable dense real symmetric d-by-d matrix."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix contains non-finite entries")
        if not np.array_equal(a, a.T):
            a = (a + a.T) / 2.0
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def as_symmat(a) -> SymMat:
    """Coerce an array-like (or pass through a SymMat) to :class:`SymMat`."""
    if isinstance(a, SymMat):
        return a
    return SymMat(np.asarray(a, dtype=float))


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a SymMat."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def source_dim(self) -> int:
        return self.eigenvalues.shape[0]


def eigh(a) -> SpectralDecomp:
    """Spectral decomposition of a symmetric matrix.

    Deterministic for a fixed input on one platform (LAPACK with a fixed
    reduction order).  Within degenerate eigenspaces the basis is
    arbitrary; downstream spectral operations are basis-invariant.  A
    SpectralDecomp passes through, so one decomposition can be shared.
    """
    if isinstance(a, SpectralDecomp):
        return a
    a = as_symmat(a)
    try:
        lam, u = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise EigFailure(str(exc)) from exc
    lam.setflags(write=False)
    u.setflags(write=False)
    return SpectralDecomp(eigenvalues=lam, eigenvectors=u)


def check_psd(eigs: np.ndarray) -> None:
    """Raise NotPSD unless each eigenvalue vector (last axis) is PSD.

    Each matrix is held to -PSD_TOL times its own max |eigenvalue|;
    ``psd_sqrt`` clips the negative rounding modes this lets through to zero.
    """
    low = eigs.min(axis=-1, initial=0.0)
    if np.any(low < -PSD_TOL * np.abs(eigs).max(axis=-1, initial=0.0)):
        raise NotPSD(f"minimum eigenvalue {low.min():g} below the PSD tolerance")


def psd_sqrt(eigs: np.ndarray) -> np.ndarray:
    """Square roots of PSD eigenvalues (a stack on the last axis).

    Raises NotPSD via ``check_psd``; the negative rounding modes it lets
    through are clipped to zero before the root is taken.
    """
    check_psd(eigs)
    return np.sqrt(np.maximum(eigs, 0.0))


def in_domain(eigs: np.ndarray, f: ScalarFunction) -> np.ndarray:
    """Elementwise mask of the eigenvalues inside f's open domain.

    The endpoints move inward by DOMAIN_MARGIN * max |eigs| over the whole
    array: a rank-deficient covariance yields eigenvalues around
    1e-16 * scale rather than exact zeros, so an eigenvalue this close to
    the boundary is treated as outside.
    """
    lo, hi = f.domain
    margin = DOMAIN_MARGIN * np.abs(eigs).max(initial=0.0)
    return (eigs > lo + margin) & (eigs < hi - margin)


def _check_domain(eigs: np.ndarray, f: ScalarFunction):
    bad = ~in_domain(eigs, f)
    if np.any(bad):
        lo, hi = f.domain
        raise DomainError(
            f"eigenvalue(s) {eigs[bad]} outside domain ({lo}, {hi}) of '{f.name}'"
        )


def apply_scalar_function(d: SpectralDecomp, f: ScalarFunction) -> SymMat:
    """Spectral matrix function f(A) = U f(Lambda) U^T."""
    _check_domain(d.eigenvalues, f)
    u = d.eigenvectors
    flam = f.eval(d.eigenvalues)
    return SymMat(u @ (flam[:, None] * u.T))


def loewner_first_difference(eigs, f: ScalarFunction) -> np.ndarray:
    """Matrix of first divided differences of f on an eigenvalue grid.

    Entry (i, j) is (f(l_i) - f(l_j)) / (l_i - l_j) when the gap exceeds
    LOEWNER_GAP * max |eigs|, else f'((l_i + l_j) / 2); the diagonal is
    f'(l_i).  On the zero grid only exact ties use f'.
    """
    eigs = np.asarray(eigs, dtype=float)
    _check_domain(eigs, f)
    tol = LOEWNER_GAP * np.abs(eigs).max(initial=0.0)
    li = eigs[:, None]
    lj = eigs[None, :]
    gap = li - lj
    close = np.abs(gap) <= tol
    # avoid 0/0 on the (near-)diagonal before patching it with f'
    safe_gap = np.where(close, 1.0, gap)
    fv = f.eval(eigs)
    quotients = (fv[:, None] - fv[None, :]) / safe_gap
    mid_deriv = f.deriv((li + lj) / 2.0)
    out = np.where(close, mid_deriv, quotients)
    return (out + out.T) / 2.0


def frechet_derivative(d: SpectralDecomp, f: ScalarFunction, h) -> SymMat:
    """Directional derivative Df(A; H) via the Loewner-matrix Schur product.

    In A's eigenbasis, Df(A; H) = L o (U^T H U) with L the matrix of first
    divided differences of f; linear in H and invariant under the basis
    choice inside degenerate eigenspaces.
    """
    h = as_symmat(h)
    if h.dim != d.source_dim:
        raise DimMismatch(f"H has dim {h.dim}, decomposition has {d.source_dim}")
    loewner = loewner_first_difference(d.eigenvalues, f)
    u = d.eigenvectors
    h_eig = u.T @ h.entries @ u
    return SymMat(u @ (loewner * h_eig) @ u.T)


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


def effective_rank(a) -> float:
    """tr(A) / ||A||_op for a nonzero PSD matrix; lies in [1, d]."""
    lam = eigh(a).eigenvalues
    opnorm = float(np.abs(lam).max())
    if opnorm == 0.0:
        raise ZeroMatrix("effective rank undefined for the zero matrix")
    check_psd(lam)
    return float(lam.sum()) / opnorm


def schatten_norm(a, p) -> float:
    """Schatten norm: p=1 nuclear, p=2 Hilbert-Schmidt, p=inf operator."""
    a = as_symmat(a)
    lam = eigh(a).eigenvalues
    if p == 1:
        return float(np.abs(lam).sum())
    if p == 2:
        return float(np.sqrt((lam**2).sum()))
    if p in (np.inf, float("inf"), "inf"):
        return float(np.abs(lam).max()) if lam.size else 0.0
    raise ValueError(f"unsupported Schatten order {p!r}; use 1, 2 or inf")


def trace_inner_product(a, b) -> float:
    """Hilbert-Schmidt inner product tr(AB) of two symmetric matrices."""
    a = as_symmat(a)
    b = as_symmat(b)
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} and {b.dim} differ")
    return float(np.sum(a.entries * b.entries))
