"""Seeded Gaussian sampling, sample covariances and the bootstrap-chain engine.

Randomness comes from counter-based Philox streams keyed by
(master_seed, stream_id): distinct keys give statistically independent
streams and every draw is a pure function of the key, so all Monte Carlo
output is reproducible bit-for-bit.  Normal variates use numpy's ziggurat
generator (``Generator.standard_normal``), fixed for this build.

``chain_states`` is the one chain sampler, and it knows nothing of f; the
estimator runs it only for an f that is not a polynomial.
Each step is one Wishart draw in Bartlett form applied to a factor the
chain carries, so only the start has a root and a step costs O(d^3)
whatever n is.  All draws come first, in the calling thread, from
streams keyed by step; then the chains run in contiguous blocks, at
most one per CPU the process may use and no more than their work pays
for, on a thread pool, and each block hands its states to the caller.
numpy's matmul and ``eigh`` work matrix by matrix, so no number depends
on the split nor on the number of chains.
"""

from __future__ import annotations

import contextvars
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError, ParseError, RaggedRows
from .symmat import SymMat, eigh, exponent, from_eigenpairs, psd_sqrt

__all__ = [
    "RngStream",
    "DataMatrix",
    "load_data_csv",
    "psd_factor",
    "gaussian_sample",
    "sample_covariance",
    "chain_states",
]

_MASK64 = (1 << 64) - 1

# A chain pass runs in at most _WORKERS blocks (the CPUs this process may
# use), each holding at least BLOCK_WORK of its chains' k d^3 work; a
# smaller pass runs as one block in the calling thread, where no hand-off
# to the pool is paid.  Fitted to bias_reduced_estimate at N = 200, k = 1:
# one block is faster up to d = 10, two are from d = 14 on.
BLOCK_WORK = 2**18
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
    return _gram(x.rows, x.n)


def _gram(a: np.ndarray, n: int) -> SymMat:
    """A^T A / n for a matrix A or each matrix of a stack.  Where rows *
    max|A|^2 could reach 2^1023, A is divided by a power of two and its
    Gram scaled back exactly, so it is finite wherever its value is; every
    other Gram is formed as is, whatever else is in the stack."""
    top = exponent(a)  # max|A| < 2^top
    e = (a.shape[-2].bit_length() + 2 * top - 1022) // 2
    if e.max() > 0:
        e = np.maximum(e, 0)[..., None, None]
        a = np.ldexp(a, -e)
        return SymMat(np.ldexp(np.swapaxes(a, -1, -2) @ a / n, 2 * e))
    return SymMat(np.swapaxes(a, -1, -2) @ a / n)


def _run_blocks(task, nchains: int, k: int, d: int) -> None:
    """Run ``task(lo, hi)`` over contiguous blocks covering range(nchains),
    chains of k steps on d-by-d states: min(_WORKERS, nchains, nchains k
    d^3 // BLOCK_WORK) blocks, at least one.

    Each block runs on the pool in a copy of the caller's context, so
    ``np.errstate`` reaches it.  With one block, or when any block
    raises, ``task(0, nchains)`` runs in the calling thread: the whole
    stack raises exactly what one serial pass raises, whichever block
    failed.
    """
    global _pool
    nblocks = max(1, min(_WORKERS, nchains, nchains * k * d**3 // BLOCK_WORK))
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


def chain_states(start, k: int, n: int, nchains: int, rng: RngStream,
                 visit) -> None:
    """Run ``nchains`` bootstrap chains k steps and hand over each state.

    Every chain starts at ``start``; each step replaces the state S by the
    sample covariance of n draws from N(0, S), a Wishart W(n, S)/n.  A
    chain carries a factor H with H^T H = S, so the start's is the only
    root: H = ``psd_factor(start)``, and a step takes G = R[:, :p] H (p
    the rows of H), the state G^T G / n and the factor G / sqrt(n).  R is
    the m-by-d (m = min(n, d)) upper-trapezoidal Bartlett factor of an
    n-by-d standard normal matrix: strictly-upper entries N(0, 1),
    row-major, and the diagonal sqrt(chi^2_{n-i}) for i < m; R[:, :p] is
    the Bartlett factor of an n-by-p one, so n < d keeps the law.  Step t
    draws the normals of all chains in one call on ``rng.spawn(2t - 1)``
    and the chi-squares in one call on ``rng.spawn(2t)``, chain after
    chain; numpy fills both sequentially, so chain r's draws do not
    depend on ``nchains`` and a run's first t steps do not depend on k.
    After all draws, one ``_run_blocks`` pass runs each block of chains
    lo..hi-1 through all k steps and calls ``carry = visit(lo, hi, t, s,
    carry)``, on the block's thread and in step order, with their states
    S_t as one SymMat stack (s.entries[r - lo] is chain r's) and what the
    block's call at step t - 1 returned (None at t = 1, also when the
    pass reruns serially); ``visit`` writes only rows lo..hi-1 of what it
    fills, so no number depends on the number of blocks.  At k = 0 nothing
    is drawn, no root is taken and ``visit`` is not called.  ``start`` may
    be given as its SpectralDecomp.  Raises NotPSD when k >= 1 and
    ``start`` is not PSD, NumericOverflow when an entry of a state
    overflows, and what ``visit`` raises, as one serial pass raises it.
    """
    if k < 0 or n < 1 or nchains < 1:
        raise ValueError("need k >= 0, n >= 1 and nchains >= 1")
    if k == 0:
        return
    root = psd_factor(start)
    d, m = root.shape[-1], min(n, root.shape[-1])
    rows, cols = np.triu_indices(m, 1, d)
    diag = np.arange(m)
    dofs = np.tile(n - diag, nchains)
    bartlett = np.zeros((k, nchains, m, d))
    for t, r in enumerate(bartlett, start=1):
        r[:, rows, cols] = rng.spawn(2 * t - 1).standard_normal(nchains,
                                                                rows.size)
        r[:, diag, diag] = np.sqrt(
            rng.spawn(2 * t).gen.chisquare(dofs)).reshape(nchains, m)

    def run(lo, hi):
        h, carry = root, None
        for t, r in enumerate(bartlett[:, lo:hi], start=1):
            g = r[..., :h.shape[-2]] @ h
            carry = visit(lo, hi, t, _gram(g, n), carry)
            h = g / math.sqrt(n)

    _run_blocks(run, nchains, k, d)
