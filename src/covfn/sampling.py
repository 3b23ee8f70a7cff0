"""Seeded Gaussian sampling, sample covariances and the bootstrap-chain engine.

Randomness comes from counter-based Philox streams keyed by
(master_seed, stream_id): distinct keys give statistically independent
streams and every draw is a pure function of the key, so all Monte Carlo
output is reproducible bit-for-bit.  Normal variates use numpy's ziggurat
generator (``Generator.standard_normal``), fixed for this build.

``chain_eigenpairs`` is the one chain sampler.  A chain step is the
sample covariance of n Gaussian draws from the current state, i.e. one
Wishart draw.  It is taken in Bartlett form from at most d(d+1)/2
variates, so a step costs O(d^3) whatever n is, and every state is
decomposed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError, NumericOverflow, ParseError, RaggedRows
from .symmat import SymMat, check_psd, eigh

__all__ = [
    "RngStream",
    "PsdFactor",
    "DataMatrix",
    "load_data_csv",
    "psd_factor",
    "gaussian_sample",
    "sample_covariance",
    "chain_eigenpairs",
]

_MASK64 = (1 << 64) - 1


def _mix64(a: int, b: int) -> int:
    """SplitMix64-style finalizer combining two stream coordinates."""
    x = (a ^ (b * 0x9E3779B97F4A7C15)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass
class RngStream:
    """A single-owner random stream keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        bitgen = np.random.Philox(key=[self.master_seed & _MASK64,
                                       self.stream_id & _MASK64])
        self.gen = np.random.Generator(bitgen)

    def spawn(self, child: int) -> "RngStream":
        """Fresh, statistically independent stream for sub-task ``child``."""
        return RngStream(self.master_seed, _mix64(self.stream_id, child))

    def standard_normal(self, *shape) -> np.ndarray:
        return self.gen.standard_normal(shape)


@dataclass(frozen=True)
class PsdFactor:
    """Symmetric square root F with F F^T equal to the clipped input."""

    factor: np.ndarray
    clipped_mass: float

    @property
    def dim(self) -> int:
        return self.factor.shape[0]


def psd_factor(sigma) -> PsdFactor:
    """Symmetric square root of a PSD matrix, clipping tiny negative modes.

    Eigenvalues below zero are zeroed; their sum is recorded as
    ``clipped_mass``.  Raises NotPSD (via ``symmat.check_psd``) when an
    eigenvalue is below -PSD_TOL times the largest |eigenvalue|.
    """
    d = eigh(sigma)
    lam = d.eigenvalues
    check_psd(lam)
    clipped = np.maximum(lam, 0.0)
    u = d.eigenvectors
    f = u @ (np.sqrt(clipped)[:, None] * u.T)
    f = (f + f.T) / 2.0
    f.setflags(write=False)
    return PsdFactor(factor=f, clipped_mass=float(lam[lam < 0].sum()))


@dataclass(frozen=True)
class DataMatrix:
    """n observations of a d-vector, one per row."""

    rows: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.rows, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array of rows, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("need at least one observation")
        if not np.all(np.isfinite(a)):
            raise ValueError("data contains non-finite entries")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "rows", a)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


def load_data_csv(path: str, has_header: bool = False) -> DataMatrix:
    """Read a numeric UTF-8 CSV (rows = observations; a BOM is skipped)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    rows = []
    ncols = None
    start = 1 if has_header else 0
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 and has_header:
            continue
        if not line.strip():
            continue
        cells = line.split(",")
        if ncols is None:
            ncols = len(cells)
        elif len(cells) != ncols:
            raise RaggedRows(lineno, ncols, len(cells))
        row = []
        for colno, cell in enumerate(cells, start=1):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(lineno, colno, f"not a number: {cell!r}") from None
            if not math.isfinite(v):
                raise ParseError(lineno, colno, f"non-finite value: {cell!r}")
            row.append(v)
        rows.append(row)
    if not rows:
        raise ParseError(max(start, 1), 1, "no data rows")
    return DataMatrix(np.array(rows))


def gaussian_sample(f: PsdFactor, n: int, rng: RngStream) -> DataMatrix:
    """n i.i.d. draws of F Z with Z standard normal, i.e. N(0, F F^T)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = rng.standard_normal(n, f.dim)
    return DataMatrix(z @ f.factor.T)


def sample_covariance(x: DataMatrix) -> SymMat:
    """(1/n) X^T X; no mean-centering, the model is centered."""
    with np.errstate(over="ignore"):  # reported below as NumericOverflow
        a = x.rows.T @ x.rows / x.n
    if not np.all(np.isfinite(a)):
        raise NumericOverflow(
            "sample covariance overflows floating point; rescale the data")
    return SymMat(a)


def chain_eigenpairs(start, k: int, n: int,
                     streams: list) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the states of N bootstrap chains, one stream each.

    Every chain starts at ``start``; each step replaces the state S by the
    sample covariance of n draws from N(0, S), drawn as the Wishart
    F R^T R F / n with F the symmetric root of S and R the m-by-d
    (m = min(n, d)) upper-trapezoidal Bartlett factor of an n-by-d
    standard normal matrix: strictly-upper entries N(0, 1), row-major,
    then the diagonal sqrt(chi^2_{n-i}) for i < m, all from the chain's
    own stream.  R^T R has the law of Z^T Z for every n, n < d included.
    ``start`` may be given as its SpectralDecomp.  Each state is
    decomposed once; returns eigenvalues (N, k+1, d) and eigenvectors
    (N, k+1, d, d).  Raises NotPSD (via ``check_psd``) when a state to be
    stepped from is not PSD.
    """
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    start = eigh(start)
    nchains, d, m = len(streams), start.source_dim, min(n, start.source_dim)
    lam = np.empty((nchains, k + 1, d))
    u = np.empty((nchains, k + 1, d, d))
    cur_lam, cur_u = start.eigenvalues, start.eigenvectors  # one shared root
    lam[:, 0], u[:, 0] = cur_lam, cur_u
    upper = np.triu_indices(m, 1, d)
    diag = np.arange(m)
    dofs = n - diag
    bartlett = np.zeros((nchains, m, d))
    for t in range(1, k + 1):
        check_psd(cur_lam)
        root = (cur_u * np.sqrt(np.maximum(cur_lam, 0.0))[..., None, :]
                @ np.swapaxes(cur_u, -1, -2))
        for r, s in enumerate(streams):
            bartlett[r][upper] = s.standard_normal(upper[0].size)
            bartlett[r, diag, diag] = np.sqrt(s.gen.chisquare(dofs))
        g = bartlett @ root
        cur_lam, cur_u = np.linalg.eigh(np.swapaxes(g, -1, -2) @ g / n)
        lam[:, t], u[:, t] = cur_lam, cur_u
    return lam, u
