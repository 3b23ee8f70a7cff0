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
decomposed once.  Step t of all chains draws from two streams spawned
from the estimate's stream, ``spawn(2t - 1)`` for the normals and
``spawn(2t)`` for the chi-squares, each in one call and in chain-major
blocks: chain r's draws do not depend on the number of chains, and the
first t steps do not depend on the chain length.  After its draws, a step
is split into contiguous blocks of chains, one per CPU the process may
use, which run on a thread pool; numpy's matmul and ``eigh`` release the
GIL and work matrix by matrix, so the states do not depend on the split.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError, ParseError, RaggedRows
from .symmat import SymMat, eigh, from_eigenpairs, psd_sqrt

__all__ = [
    "RngStream",
    "DataMatrix",
    "load_data_csv",
    "psd_factor",
    "gaussian_sample",
    "sample_covariance",
    "chain_eigenpairs",
]

_MASK64 = (1 << 64) - 1

# A chain step runs in at most _WORKERS blocks (the CPUs this process may
# use) of at least MIN_BLOCK chains each; a smaller stack runs as one
# block in the calling thread, where no hand-off to the pool is paid.
MIN_BLOCK = 64
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None  # created on first use: concurrent.futures imports logging


def _forget_pool():
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # a forked child has none of the threads
    os.register_at_fork(after_in_child=_forget_pool)


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


def psd_factor(sigma) -> np.ndarray:
    """Symmetric square root F of a PSD matrix (or a stack, or either's
    SpectralDecomp), F F^T = sigma up to rounding, read-only.

    The eigenvalues go through ``symmat.psd_sqrt``, which clips tiny
    negative modes to zero and raises NotPSD when an eigenvalue is below
    -PSD_TOL times the largest |eigenvalue| of its matrix.
    """
    d = eigh(sigma)
    f = from_eigenpairs(psd_sqrt(d.eigenvalues), d.eigenvectors)
    f.setflags(write=False)
    return f


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
    """Read a numeric UTF-8 CSV (rows = observations; a BOM is skipped).

    ``np.loadtxt`` parses in C first.  Whatever it rejects, or reads as
    empty or non-finite, goes through ``_parse_csv_lines``, which accepts
    blank and whitespace-only lines and any cell ``float`` accepts, and
    reports the line and column of a bad cell.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    skip = 1 if has_header else 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                              skiprows=skip)
        except ValueError:
            rows = None
    if rows is None or not rows.size or not np.all(np.isfinite(rows)):
        rows = _parse_csv_lines(lines, skip)
    return DataMatrix(rows)


def _parse_csv_lines(lines: list, skip: int) -> np.ndarray:
    """Cell-by-cell CSV parse after ``skip`` header lines; blank lines are
    skipped.  Raises RaggedRows or ParseError with the 1-based location."""
    rows = []
    ncols = None
    for lineno, line in enumerate(lines[skip:], start=skip + 1):
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
        raise ParseError(max(skip, 1), 1, "no data rows")
    return np.array(rows)


def gaussian_sample(root: np.ndarray, n: int, rng: RngStream) -> DataMatrix:
    """n i.i.d. draws of F Z with Z standard normal and F = ``root`` (a
    ``psd_factor``), i.e. N(0, F F^T)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = rng.standard_normal(n, root.shape[0])
    return DataMatrix(z @ root.T)


def sample_covariance(x: DataMatrix) -> SymMat:
    """(1/n) X^T X; no mean-centering, the model is centered."""
    return SymMat(x.rows.T @ x.rows / x.n)


def _run_blocks(task, nchains: int) -> None:
    """Run ``task(lo, hi)`` over contiguous blocks covering range(nchains).

    Each block runs on the pool in a copy of the caller's context, so
    ``np.errstate`` reaches it.  With one block, or when any block
    raises, ``task(0, nchains)`` runs in the calling thread: the whole
    stack raises exactly what one serial pass raises, whichever block
    failed.
    """
    global _pool
    nblocks = max(1, min(_WORKERS, nchains // MIN_BLOCK))
    if nblocks > 1:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="covfn")
        futures = [_pool.submit(contextvars.copy_context().run, task,
                                i * nchains // nblocks,
                                (i + 1) * nchains // nblocks)
                   for i in range(nblocks)]
        if not any([f.exception() for f in futures]):  # waits for every block
            return
    task(0, nchains)


def chain_eigenpairs(start, k: int, n: int, nchains: int,
                     rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the states of ``nchains`` bootstrap chains.

    Every chain starts at ``start``; each step replaces the state S by the
    sample covariance of n draws from N(0, S), drawn as the Wishart
    F R^T R F / n with F the symmetric root of S and R the m-by-d
    (m = min(n, d)) upper-trapezoidal Bartlett factor of an n-by-d
    standard normal matrix: strictly-upper entries N(0, 1), row-major,
    and the diagonal sqrt(chi^2_{n-i}) for i < m.  R^T R has the law of
    Z^T Z for every n, n < d included.  Step t draws the normals of all
    chains in one call on ``rng.spawn(2t - 1)`` and the chi-squares in one
    call on ``rng.spawn(2t)``, chain after chain; numpy fills both
    sequentially, so chain r's draws do not depend on ``nchains`` and a
    run's first t steps do not depend on k.  At k = 0 nothing is drawn.
    The rest of a step runs in blocks of chains (``_run_blocks``), each
    block writing its own slice of the output, so no number depends on
    the number of blocks.  ``start`` may be given as its SpectralDecomp.
    Each state is decomposed once; returns eigenvalues (nchains, k+1, d) and
    eigenvectors (nchains, k+1, d, d).  Raises NotPSD when a state to be
    stepped from is not PSD and NumericOverflow when a state overflows.
    """
    if k < 0 or n < 1 or nchains < 1:
        raise ValueError("need k >= 0, n >= 1 and nchains >= 1")
    start = eigh(start)
    d, m = start.source_dim, min(n, start.source_dim)
    lam = np.empty((nchains, k + 1, d))
    u = np.empty((nchains, k + 1, d, d))
    lam[:, 0], u[:, 0] = start.eigenvalues, start.eigenvectors
    rows, cols = np.triu_indices(m, 1, d)
    diag = np.arange(m)
    dofs = np.tile(n - diag, nchains)
    bartlett = np.zeros((nchains, m, d))

    def step(t, sqrt_eigs, lo, hi):
        if t == 1:  # one shared root at the first step
            root = from_eigenpairs(sqrt_eigs, start.eigenvectors)
        else:
            root = from_eigenpairs(sqrt_eigs[lo:hi], u[lo:hi, t - 1])
        g = bartlett[lo:hi] @ root
        cur = eigh(np.swapaxes(g, -1, -2) @ g / n)
        lam[lo:hi, t], u[lo:hi, t] = cur.eigenvalues, cur.eigenvectors

    for t in range(1, k + 1):
        # checked on the whole stack, so NotPSD names its minimum
        sqrt_eigs = psd_sqrt(start.eigenvalues if t == 1 else lam[:, t - 1])
        bartlett[:, rows, cols] = rng.spawn(2 * t - 1).standard_normal(
            nchains, rows.size)
        bartlett[:, diag, diag] = np.sqrt(
            rng.spawn(2 * t).gen.chisquare(dofs)).reshape(nchains, m)
        _run_blocks(functools.partial(step, t, sqrt_eigs), nchains)
    return lam, u
