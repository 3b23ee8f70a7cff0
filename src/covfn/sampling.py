"""Seeded Gaussian sampling, sample covariances, and the bootstrap chain.

Randomness comes from counter-based Philox streams keyed by
(master_seed, stream_id): distinct keys give statistically independent
streams and every draw is a pure function of the key, so all Monte Carlo
output is reproducible bit-for-bit.  Normal variates use numpy's ziggurat
generator (``Generator.standard_normal``), fixed for this build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError, ParseError, RaggedRows
from .symmat import SymMat, as_symmat, check_psd, eigh

__all__ = [
    "RngStream",
    "PsdFactor",
    "DataMatrix",
    "load_data_csv",
    "ChainSegment",
    "psd_factor",
    "gaussian_sample",
    "sample_covariance",
    "bootstrap_chain",
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
    """Read a numeric CSV (rows = observations) into a DataMatrix."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
    a = x.rows.T @ x.rows / x.n
    return SymMat(a)


@dataclass(frozen=True)
class ChainSegment:
    """A realized bootstrap-chain trajectory of sample covariances.

    states[0] is the starting covariance; states[t] is the sample
    covariance of n_per_step draws from N(0, states[t-1]).
    """

    states: np.ndarray  # (k+1, d, d)
    n_per_step: int
    master_seed: int
    stream_id: int

    @property
    def start(self) -> SymMat:
        return SymMat(self.states[0])

    @property
    def length(self) -> int:
        return self.states.shape[0]

    def state(self, t: int) -> SymMat:
        return SymMat(self.states[t])


def bootstrap_chain(start, k: int, n: int, rng: RngStream) -> ChainSegment:
    """Simulate k bootstrap steps of the chain starting at ``start``.

    Each step resamples n centered Gaussian observations from the current
    state and replaces it by their sample covariance.  All randomness is
    drawn sequentially from ``rng``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    start = as_symmat(start)
    states = np.empty((k + 1, start.dim, start.dim))
    states[0] = start.entries
    current = start
    for t in range(1, k + 1):
        data = gaussian_sample(psd_factor(current), n, rng)
        current = sample_covariance(data)
        states[t] = current.entries
    states.setflags(write=False)
    return ChainSegment(
        states=states, n_per_step=n,
        master_seed=rng.master_seed, stream_id=rng.stream_id,
    )
