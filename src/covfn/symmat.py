"""Dense symmetric matrices: eigendecomposition, spectral functions,
Loewner-matrix directional derivatives, Schatten norms and effective rank.

All matrices here are real symmetric and carried by :class:`SymMat`, an
immutable wrapper around one ``numpy`` matrix or a stack of them; only
this module decomposes them (``eigh``, ``eigvalsh``) and rebuilds them
(``from_eigenpairs``).  Construction symmetrizes its input and raises
NumericOverflow on non-finite entries, which only overflow can produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DomainError, EigFailure, NotPSD, ZeroMatrix, finite
from .functions import ScalarFunction

# The one tolerance policy: each threshold is one of these constants times
# max |eigenvalue| of its own matrix, so it is scale-free.
DOMAIN_MARGIN = 1e-12  # f's finite domain endpoints move inward by this
LOEWNER_GAP = 1e-8  # eigenvalues closer than this are tied in L(f)
PSD_TOL = 1e-10  # eigenvalues above minus this count as nonnegative

__all__ = [
    "SymMat",
    "SpectralDecomp",
    "as_symmat",
    "eigh",
    "eigvalsh",
    "from_eigenpairs",
    "check_psd",
    "psd_sqrt",
    "in_domain",
    "check_domain",
    "apply_scalar_function",
    "loewner_first_difference",
    "frechet_derivative",
    "effective_rank",
    "schatten_norm",
    "trace_inner_product",
]


@dataclass(frozen=True)
class SymMat:
    """Immutable dense real symmetric d-by-d matrix, or a (..., d, d) stack."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
            raise DimMismatch(f"expected square matrices, got shape {a.shape}")
        finite(a, "a matrix")
        at = np.swapaxes(a, -1, -2)
        a = a.copy() if np.array_equal(a, at) else (a + at) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


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
        return self.eigenvalues.shape[-1]


def eigh(a) -> SpectralDecomp:
    """Spectral decomposition of a symmetric matrix or a stack of them.

    Deterministic for a fixed input on one platform (LAPACK with a fixed
    reduction order, one matrix of a stack at a time).  Within degenerate
    eigenspaces the basis is arbitrary; downstream spectral operations are
    basis-invariant.  A SpectralDecomp passes through, so one
    decomposition can be shared.  An eigenvalue beyond floating point
    (finite entries can have one) raises NumericOverflow.
    """
    if isinstance(a, SpectralDecomp):
        return a
    a = as_symmat(a)
    try:
        lam, u = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise EigFailure(str(exc)) from exc
    finite(lam, "an eigenvalue")
    lam.setflags(write=False)
    u.setflags(write=False)
    return SpectralDecomp(eigenvalues=lam, eigenvectors=u)


def eigvalsh(a) -> np.ndarray:
    """Eigenvalues (ascending) of a symmetric matrix or a stack of them.

    LAPACK's values-only driver, so they can differ from ``eigh``'s in the
    last bits.  An eigenvalue beyond floating point raises NumericOverflow,
    as in ``eigh``.
    """
    try:
        lam = np.linalg.eigvalsh(as_symmat(a).entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise EigFailure(str(exc)) from exc
    return finite(lam, "an eigenvalue")


def from_eigenpairs(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U diag(lam) U^T over any leading stack axes, as (U lam) U^T."""
    return (u * lam[..., None, :]) @ np.swapaxes(u, -1, -2)


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
    """Whether each eigenvalue lies inside f's domain, held to its own
    matrix's margin: the finite endpoints move inward by DOMAIN_MARGIN
    times that matrix's max |eigenvalue| (last axis), so a rank-deficient
    covariance, whose zero eigenvalues come out near 1e-16 * scale, is
    outside."""
    lo, hi = f.domain
    margin = DOMAIN_MARGIN * np.abs(eigs).max(axis=-1, keepdims=True, initial=0.0)
    return (eigs > lo + margin) & (eigs < hi - margin)


def check_domain(eigs: np.ndarray, f: ScalarFunction, what: str) -> None:
    """Raise DomainError counting the ``what`` (entries of the first axis:
    chains of a stack, eigenvalues of one matrix) outside f's domain, as
    ``in_domain`` decides it."""
    left = ~np.all(in_domain(eigs, f), axis=tuple(range(1, eigs.ndim)))
    if left.any():
        lo, hi = f.domain
        raise DomainError(f"{left.sum()} of {len(eigs)} {what} left the domain "
                          f"({lo}, {hi}) of '{f.name}'")


def apply_scalar_function(d: SpectralDecomp, f: ScalarFunction) -> SymMat:
    """Spectral matrix function f(A) = U f(Lambda) U^T."""
    check_domain(d.eigenvalues, f, "eigenvalues")
    return SymMat(from_eigenpairs(f.eval(d.eigenvalues), d.eigenvectors))


def loewner_first_difference(eigs, f: ScalarFunction) -> np.ndarray:
    """Matrix of first divided differences of f on an eigenvalue grid, or
    on each grid of a stack (last axis).

    Entry (i, j) is (f(l_i) - f(l_j)) / (l_i - l_j) when the gap exceeds
    LOEWNER_GAP times max |eigs| of its own grid, else f'((l_i + l_j) / 2);
    the diagonal is f'(l_i).  On the zero grid only exact ties use f'.
    """
    eigs = np.asarray(eigs, dtype=float)
    check_domain(eigs, f, "eigenvalues")
    tol = LOEWNER_GAP * np.abs(eigs).max(axis=-1, keepdims=True, initial=0.0)
    gap = eigs[..., :, None] - eigs[..., None, :]
    close = np.abs(gap) <= tol[..., None]
    fv = f.eval(eigs)
    # each entry and its transpose come out equal, so the matrix is symmetric
    out = np.empty(gap.shape)
    np.divide(fv[..., :, None] - fv[..., None, :], gap, out=out, where=~close)
    grid = np.broadcast_to(eigs[..., None], gap.shape)
    out[close] = f.deriv((grid[close] + np.swapaxes(grid, -1, -2)[close]) / 2.0)
    return out


def frechet_derivative(d: SpectralDecomp, f: ScalarFunction, h) -> SymMat:
    """Directional derivative Df(A; H) via the Loewner-matrix Schur product.

    In A's eigenbasis, Df(A; H) = L o (U^T H U) with L the matrix of first
    divided differences of f; linear in H and invariant under the basis
    choice inside degenerate eigenspaces.
    """
    u = d.eigenvectors
    return SymMat(u @ _frechet_eig(d, f, h) @ u.T)


def _frechet_eig(d: SpectralDecomp, f: ScalarFunction, h) -> np.ndarray:
    """Df(A; H) in A's eigenbasis, L o (U^T H U), for A decomposed as ``d``."""
    h = as_symmat(h)
    if h.dim != d.source_dim:
        raise DimMismatch(f"H has dim {h.dim}, decomposition has {d.source_dim}")
    u = d.eigenvectors
    return loewner_first_difference(d.eigenvalues, f) * (u.T @ h.entries @ u)


def _binade(a: np.ndarray) -> float:
    """Power of two at or below max |a| (1.0 if that is 0 or not finite).

    Dividing by it and multiplying back is exact, so a sum or second moment
    taken of ``a / _binade(a)`` equals the unscaled one bit for bit wherever
    the unscaled one does not overflow, and is finite wherever the result is.
    """
    top = float(np.max(np.abs(a)))
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if 0.0 < top < math.inf else 1.0


def effective_rank(a) -> float:
    """tr(A) / ||A||_op for a nonzero PSD matrix; lies in [1, d]."""
    lam = eigh(a).eigenvalues
    opnorm = float(np.abs(lam).max())
    if opnorm == 0.0:
        raise ZeroMatrix("effective rank undefined for the zero matrix")
    check_psd(lam)
    scale = _binade(lam)  # exact; keeps tr(A) / scale finite
    return float((lam / scale).sum()) / (opnorm / scale)


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
