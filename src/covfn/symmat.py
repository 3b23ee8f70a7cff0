"""Dense symmetric matrices: eigendecomposition, the spectral terms
<f(A), B> and B in A's eigenbasis, Loewner matrices, inverse gaps and
second divided differences, and effective rank.

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
    "loewner_first_difference",
    "loewner_differences",
    "spectral_terms",
    "effective_rank",
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


def loewner_differences(eigs, f: ScalarFunction):
    """(L, R, G) on an eigenvalue grid, or on each grid of a stack (last
    axis), for a second-order term: L the Loewner matrix, R_ij = 1 /
    (l_i - l_j) the inverse gaps, and G_ij = f[l_i, l_j, l_i] the second
    divided differences with a repeated point.

    A pair i != j whose gap exceeds LOEWNER_GAP times max |eigs| of its
    own grid takes L_ij = (f(l_i) - f(l_j)) R_ij and G_ij = (L_ii - L_ij)
    R_ij.  Every other pair, the diagonal included, is tied: R_ij = 0,
    L_ij = f'((l_i + l_j) / 2) as in ``loewner_first_difference``, and
    G_ij = f''((l_i + l_j + l_i) / 3) / 2.  Each inverse gap is formed
    once and serves both L and G.
    """
    eigs = np.asarray(eigs, dtype=float)
    check_domain(eigs, f, "eigenvalues")
    tol = LOEWNER_GAP * np.abs(eigs).max(axis=-1, initial=0.0)[..., None, None]
    gap = eigs[..., :, None] - eigs[..., None, :]
    i = np.arange(eigs.shape[-1])
    off = (gap <= tol) & (gap >= -tol)
    off[..., i, i] = False  # the tied pairs i != j
    tied = off.any()
    with np.errstate(divide="ignore"):
        inv = np.reciprocal(gap, out=gap)
    inv[..., i, i] = 0.0
    if tied:
        inv[off] = 0.0
    fv = f.eval(eigs)
    first = np.subtract(fv[..., :, None], fv[..., None, :])
    first *= inv
    first[..., i, i] = f.deriv(eigs)
    second = np.subtract(np.diagonal(first, axis1=-2, axis2=-1)[..., :, None], first)
    second *= inv
    second[..., i, i] = f.deriv2((eigs + eigs + eigs) / 3.0) / 2.0
    if tied:
        a = np.broadcast_to(eigs[..., None], off.shape)[off]
        b = np.broadcast_to(eigs[..., None, :], off.shape)[off]
        first[off] = f.deriv((a + b) / 2.0)
        second[off] = f.deriv2((a + b + a) / 3.0) / 2.0
    return first, inv, second


def spectral_terms(lam, u, f: ScalarFunction, b, project: bool):
    """(<f(A), B>, U^T B U) for each A = U diag(lam) U^T of a stack (or
    one A); the second entry, B in A's eigenbasis, is None unless
    ``project``.  ``loewner_first_difference(lam, f) * U^T B U`` is
    Df(A; B) in that basis.

    <f(A), B> is sum_m f(l_m) u_m^T B u_m, so f(A) itself is never formed.
    Each matrix of a stack gets the same products, in the same order, as
    it would alone.  ``b`` is a d-by-d array, and every eigenvalue must
    lie inside f's domain.
    """
    bu = b @ u
    bt = np.swapaxes(u, -1, -2) @ bu if project else None
    return np.sum(f.eval(lam) * np.sum(u * bu, axis=-2), axis=-1), bt


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


def trace_inner_product(a, b) -> float:
    """Hilbert-Schmidt inner product tr(AB) of two symmetric matrices."""
    a = as_symmat(a)
    b = as_symmat(b)
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} and {b.dim} differ")
    return float(np.sum(a.entries * b.entries))
