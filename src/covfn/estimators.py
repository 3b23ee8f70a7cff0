"""The bias-reduced estimator of <f(Sigma), B> and its confidence interval.

The estimator of order k averages, over N independent bootstrap chains
S_0, ..., S_k started at the sample covariance S_0, the weighted
combination sum_i c_{k,i} <f(S_i), B> with hockey-stick weights
c_{k,i} = (-1)^i C(k+1, i+1); its conditional expectation removes the
first k orders of plug-in bias.  A chain is a martingale (E[S_t | S_{t-1}]
= S_{t-1}), so each step's linear term l_t = <S_t - S_{t-1}, D_{t-1}>,
D_{t-1} = Df(S_{t-1}; B), has mean exactly 0, and its second-order term
q_t = 1/2 <D^2 f(S_{t-1})[S_t - S_{t-1}, S_t - S_{t-1}], B> has a mean
that a Wishart step's second moments give exactly.  Each step subtracts
l_t + q_t - E[q_t | S_{t-1}] with the weight sum_{i>=t} c_{k,i} =
(-1)^t C(k, t) as a control variate: the mean is unchanged, and the
chain noise of the first two orders of every step is gone.

In S_{t-1}'s eigenbasis, with Dt = U^T S_t U - diag(lam), Bt = U^T B U
and F f's second divided differences on lam, q_t = sum_ijl F_ijl Dt_ij
Dt_jl Bt_li and E[q_t | S_{t-1}] = (sum_i F_iii Bt_ii lam_i^2 + sum_ij
F_iji Bt_ii lam_i lam_j) / n.  For i != l, F_ijl = (L_ij - L_jl) R_il,
with L the Loewner matrix and R_il = 1 / (lam_i - lam_l), so with P =
(L o Dt) Dt, one product per state, q_t = sum_{i != l} Bt_li (P -
P^T)_il R_il + sum_ij F_iji Bt_ii Dt_ij^2 (``_eig_step``); the d^3 tensor
F is never formed.  A tied pair i != l (a gap within LOEWNER_GAP) takes
R_il = 0 and drops out of q_t; the mean never reads such a pair, so the
difference keeps mean 0, as it does however F is rounded.  A polynomial
f (``ScalarFunction.coefficients``) takes l_t, q_t and the mean instead
from products of S_t - S_{t-1} and S_{t-1} in the original basis
(``_polynomial_step``), with no decomposition.  The plug-in estimator
<f(S_0), B> is the order-0 case: one chain that takes no step, with
weight 1.

``sampling.chain_states`` hands each block of states to the estimator,
which reduces each state S_t there, in one sweep, to <f(S_t), B>, the
terms of the step that reached it, and, for t < k, what the next step's
terms read: the state itself for a polynomial f, whose terms are sums of
products of S_t and B, and otherwise its eigenpairs and Bt
(``symmat.spectral_terms``, which also serves S_0, sigma_f and
``simulate``'s truth), whose eigenvalues are also kept for the domain
check.  A chain state outside f's domain is an error, never dropped.
Confidence intervals use the asymptotic standard deviation
sigma_f = sqrt(2) ||Sigma^{1/2} Df(Sigma;B) Sigma^{1/2}||_2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import BadAlpha, DimMismatch, finite, overflow_stage
from .functions import ScalarFunction
from .sampling import (
    DataMatrix,
    RngStream,
    chain_states,
    sample_covariance,
)
from .symmat import (
    _binade,
    as_symmat,
    check_domain,
    eigh,
    in_domain,
    loewner_differences,
    loewner_first_difference,
    psd_sqrt,
    spectral_terms,
)

__all__ = [
    "EstimateReport",
    "sigma_f",
    "hockey_stick_weights",
    "hockey_stick_weight_ints",
    "bias_reduced_estimate",
    "confidence_interval",
    "valid_alpha",
    "MAX_K",
]

# The one bound on k.  The weights are exact ints; their float copies are exact
# to k = 55 (C(57, 28) > 2^53), and they fit a signed int64 up to k = 65.
MAX_K = 62


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with uncertainty and full provenance."""

    functional_value: float
    estimator_kind: str  # "plugin" at k = 0, else "bias_reduced"
    k: int
    mc_stderr: float
    sigma_hat: float
    ci: tuple
    alpha: float
    n: int
    d: int
    chains: int
    master_seed: int
    stream_id: int


def valid_alpha(alpha: float) -> bool:
    """Whether alpha is a usable level: in (2^-53, 1).  At and below
    2^-53, 1 - alpha / 2 rounds to 1, whose normal quantile is infinite."""
    return 2.0**-53 < alpha < 1.0


def confidence_interval(point: float, sigma_hat: float, n: int, alpha: float) -> tuple:
    """Symmetric interval point +/- z_{1-alpha/2} * sigma_hat / sqrt(n).

    sigma_hat is divided by a power of two for the product, so the
    half-width is finite wherever its value is; an interval beyond
    floating point raises NumericOverflow.
    """
    if not valid_alpha(alpha):
        raise BadAlpha(f"alpha must be in (2^-53, 1), got {alpha}")
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    scale = _binade(sigma_hat)  # exact, so z * sigma_hat cannot overflow
    half = z * (sigma_hat / scale) / math.sqrt(n) * scale
    return finite((point - half, point + half), "the confidence interval")


def sigma_f(sigma, f: ScalarFunction, b) -> float:
    """Asymptotic std dev sqrt(2) ||Sigma^{1/2} Df(Sigma;B) Sigma^{1/2}||_2.

    Computed in the eigenbasis of Sigma, where both the square root
    (``symmat.psd_sqrt``, which raises NotPSD) and the Loewner-matrix
    derivative (``symmat.loewner_first_difference`` times B in that basis,
    from ``symmat.spectral_terms``) are exact on eigenvalues.
    ``sigma`` may be given as its SpectralDecomp; a B of another size
    raises DimMismatch.  The norm is taken of entries scaled
    by a power of two, so it is finite wherever its value is; a value
    beyond floating point raises NumericOverflow.
    """
    dec = eigh(sigma)
    b = as_symmat(b)
    if b.dim != len(dec.eigenvalues):
        raise DimMismatch(f"B has dim {b.dim}, Sigma has {len(dec.eigenvalues)}")
    root = psd_sqrt(dec.eigenvalues)
    lam = dec.eigenvalues
    deriv = loewner_first_difference(lam, f)  # DomainError before f is taken
    _, bt = spectral_terms(lam, dec.eigenvectors, f, b.entries, True)
    return _sigma_f(root, deriv * bt, f)


def _sigma_f(root, deriv, f: ScalarFunction) -> float:
    """sigma_f from the roots of Sigma's eigenvalues and Df(Sigma; B) in
    its eigenbasis."""
    sandwiched = root[:, None] * deriv * root[None, :]
    scale = _binade(sandwiched)  # exact, so the norm cannot overflow
    out = math.sqrt(2.0) * float(np.linalg.norm(sandwiched / scale)) * scale
    return finite(out, f"sigma_f of '{f.name}'")


def hockey_stick_weight_ints(k: int) -> list:
    """Exact integer chain weights c_{k,i} = (-1)^i C(k+1, i+1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_K:
        raise OverflowError(f"k must be at most MAX_K = {MAX_K}, got {k}")
    return [(-1) ** i * math.comb(k + 1, i + 1) for i in range(k + 1)]


def hockey_stick_weights(k: int) -> np.ndarray:
    """Chain weights as floats; computed in integer arithmetic, sum is 1."""
    return np.array(hockey_stick_weight_ints(k), dtype=float)


def _scale(m, x):
    """Multiply a matrix, or each matrix of a stack by its own integer x,
    by 2^x in place, with ``np.ldexp``'s values: a product with 2^x, which
    is exact, wherever that power is a normal float."""
    x = np.asarray(x)[..., None, None]
    if np.all(np.abs(x) <= 1022):
        np.multiply(m, np.ldexp(1.0, x), out=m)
    else:
        np.ldexp(m, x, out=m)


def _dot(a, b):
    """sum a o b for each pair of matrices of two stacks (or a stack and
    one matrix), a dot product per pair that forms no a o b."""
    d2 = a.shape[-1] * a.shape[-2]
    return np.vecdot(a.reshape(a.shape[:-2] + (d2,)), b.reshape(b.shape[:-2] + (d2,)))


def _exponent(m):
    """frexp's exponent of max |entry| of a matrix, or of each matrix of a
    stack, found with no |m| formed."""
    return np.frexp(np.maximum(m.max(axis=(-2, -1)), -m.min(axis=(-2, -1))))[1]


def _zero_nonfinite(m):
    """m with its entries beyond floating point set to 0, in place."""
    if not np.isfinite(m).all():
        np.copyto(m, 0.0, where=~np.isfinite(m))
    return m


def _binade_split(s):
    """(S_hat, e), S = 2^e S_hat, 2^e at or below max |entry| of each S."""
    e = np.frexp(np.abs(s).max(axis=(-2, -1)))[1] - 1
    return np.ldexp(s, -e[..., None, None]), e


def _polynomial_terms(s_hat, e, coefficients, b):
    """<p(S), B> for each symmetric S = 2^e S_hat, p = sum_j c_j x^j.

    One sweep, no decomposition: each S_hat^{j-1} B is formed once, and
    tr(S^j B) = sum S o (S^{j-1} B) for symmetric S.  Each term is taken
    of S_hat and scaled back exactly, so the value is finite wherever it
    is.
    """
    power = b  # S_hat^{j-1} B
    val = np.full(e.shape, coefficients[0] * np.trace(b))
    for j, c in enumerate(coefficients[1:], start=1):
        if j > 1:
            power = s_hat @ power
        if c:
            val += c * np.ldexp(np.sum(s_hat * power, axis=(-2, -1)), j * e)
    return val


def _eig_step(lam, u, bt, f: ScalarFunction, n: int, s):
    """A step's control variates l_t + q_t - E[q_t | S_{t-1}] (see the
    module docstring) for each state S_t of a stack, for an f that is not
    a polynomial, from the eigenpairs (lam, U) of the state S_{t-1} it
    stepped from and Bt = U^T B U: of one S_{t-1} that every state left,
    or of a stack of them, one per state.

    In S_{t-1}'s eigenbasis, with Dt = U^T S_t U - diag(lam) and L, R and
    G from ``symmat.loewner_differences``, each state takes one product,
    (L o Dt) Dt, and

        l_t + q_t = sum (L o Dt) o (Bt + 2 (Bt o R) Dt) + sum G o Bt_ii Dt^2,
        E[q_t | S_{t-1}] = sum_ij G_ij Bt_ii lam_i (lam_j + [i = j] lam_i) / n.

    Dt is taken at 2^-e, with 2^e at or below max |lam|, and L, Bt o R
    and G o Bt_ii are each divided by a power of two near their largest
    entry; each term is taken at a power of two that puts every term at
    one scale, so each value is a finite sum times a power of two.  An
    entry of Bt o R or G o Bt_ii beyond floating point is taken as 0,
    which costs variance and no bias.  For f of degree h, L, R and G are
    formed on lam / 2^e and scaled back by 2^(e (h - 1)), 2^-e and
    2^(e (h - 2)), so they have the same bits at every scale.  Each
    state's products are its own, so no number depends on the block.
    """
    e = np.frexp(np.abs(lam).max(axis=-1))[1] - 1
    lam_hat = np.ldexp(lam, -e[..., None])
    dt = np.swapaxes(u, -1, -2) @ s @ u
    _scale(dt, -e)  # Dt / 2^e
    i = np.arange(dt.shape[-1])
    dt[..., i, i] -= lam_hat
    grid, g, shift = ((lam, 0, 0.0) if f.degree is None
                      else (lam_hat, e, e * (f.degree - 2.0)))
    whole = np.floor(shift).astype(int)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        first, cross, diag = loewner_differences(grid, f)
        cross *= bt  # Bt o R
        diag *= np.diagonal(bt, axis1=-2, axis2=-1)[..., :, None]  # G o Bt_ii
    a, c, h = (_exponent(m) for m in (first, _zero_nonfinite(cross),
                                      _zero_nonfinite(diag)))
    # l_t, the cross term (with its factor 2) and the G term are sums of
    # products of Dt / 2^e with L / 2^a, (Bt o R) / 2^c and (G o Bt_ii) /
    # 2^h at 2^xl, 2^xc and 2^xd, in units of 2^(shift - whole); each is
    # taken at 2^top, the largest of them
    xl, xc, xd = e + g + whole + a, 2 * e + whole + a + c + 1, 2 * e + whole + h
    top = np.maximum(np.maximum(xl, xc), xd)
    _scale(first, -a)
    _scale(cross, xc - c - top)
    _scale(diag, xd - h - top)
    mean = (np.sum(lam_hat * (diag @ lam_hat[..., None])[..., 0], axis=-1)
            + np.sum(np.diagonal(diag, axis1=-2, axis2=-1) * lam_hat**2,
                     axis=-1)) / n
    y = _dot(diag * dt, dt) - mean
    del diag  # one (N, d, d) array fewer while the cross term is formed
    w = cross @ dt
    dt *= first  # (L o Dt) / 2^(a + e)
    y += _dot(dt, w) + np.ldexp(_dot(dt, bt), xl - top)
    return np.ldexp(y * 2.0 ** (shift - whole), top)


def _polynomial_step(s0, coefficients, b, n: int, s):
    """A step's control variates l_t + q_t - E[q_t | S_{t-1}] (see the
    module docstring) of a polynomial p = sum_j c_j x^j for each state S_t
    of a stack, from products of Dl = S_t - S_{t-1} in the original basis,
    with no decomposition: of one S_{t-1} that every state left, or of a
    stack of them, one per state.

    With M_r = sum_{a+c=r} S^a B S^c and W_i = sum_j c_j M_{j-2-i} of S =
    S_{t-1}, l_t = <Dl, W_-1> (W_-1 = Dp(S; B)) and q_t = sum_{i>=0}
    tr(Dl S^i Dl W_i); a Wishart step has E[Dl X Dl | S] = (S X S + tr(X
    S) S) / n for symmetric X, so E[q_t | S] = sum_{i>=0} (tr(S^(i+2) W_i)
    + tr(S^(i+1)) tr(S W_i)) / n.  Each state takes one product per W_i,
    i >= 0, and one per S^i, i >= 1, its own.  With S = 2^e S_hat, Dl is
    taken at 2^-e and c_j M_r, of scale 2^(e j), at powers of two that
    bring every term to one scale 2^top, so each value is a finite sum
    times a power of two.
    """
    s_hat, e = _binade_split(s0)
    deg = len(coefficients) - 1
    power, m = [np.eye(len(b)), s_hat], [b]  # S_hat^i and M_r of S_hat
    for r in range(1, deg):
        m.append(s_hat @ m[-1] + b @ power[r])
        power.append(s_hat @ power[r])
    parts = [[(e * j, c * m[j - 2 - i]) for j, c in enumerate(coefficients)
              if c and j >= i + 2] for i in range(-1, deg - 1)]
    top = functools.reduce(np.maximum, (
        x + np.frexp(np.abs(a).max(axis=(-2, -1)))[1] for p in parts for x, a in p))
    # W_-1, ..., W_(deg-2), divided by 2^top
    w = [sum(np.ldexp(a, (x - top)[..., None, None]) for x, a in p)
         for p in parts]
    mean = sum(np.sum(power[i + 2] * wi, axis=(-2, -1))
               + np.trace(power[i + 1], axis1=-2, axis2=-1)
               * np.sum(s_hat * wi, axis=(-2, -1))
               for i, wi in enumerate(w[1:])) / n
    dl = np.ldexp(s, -e[..., None, None]) - s_hat
    y = np.sum(dl * (w[0] + w[1] @ dl if deg > 1 else w[0]), axis=(-2, -1))
    for i in range(1, deg - 1):
        y += np.sum((dl @ power[i]) * (w[i + 1] @ dl), axis=(-2, -1))
    return np.ldexp(y - mean, top)


def bias_reduced_estimate(x: DataMatrix, f: ScalarFunction, b, k: int,
                          nchains: int, rng: RngStream,
                          alpha: float = 0.05) -> EstimateReport:
    """Order-k bias-reduced estimate of <f(Sigma), B> via bootstrap chains.

    Simulates ``nchains`` independent chains S_0, ..., S_k from the sample
    covariance S_0 (step t of every chain draws from ``rng.spawn(2t - 1)``
    and ``rng.spawn(2t)``, see ``chain_states``) and averages, over
    the chains,

        sum_i c_i <f(S_i), B>
            - sum_{t>=1} (-1)^t C(k, t) (l_t + q_t - E[q_t | S_{t-1}]),
        l_t = <S_t - S_{t-1}, Df(S_{t-1}; B)>,
        q_t = 1/2 <D^2 f(S_{t-1})[S_t - S_{t-1}, S_t - S_{t-1}], B>;

    given S_{t-1}, l_t has mean 0 and E[q_t | S_{t-1}] is q_t's exact
    mean, so each step's terms take its first- and second-order chain
    noise out and leave the mean as it is.  Each step's terms come from
    the state it left, in one call per block: ``_eig_step`` from that
    state's eigenpairs, with one product per state, (L o Dt) Dt, and no
    second-difference tensor, where a tied pair i != l of eigenvalues
    drops out of q_t (its mean never reads one); or ``_polynomial_step``
    from the state itself for a polynomial f.  At k = 0 this is the plug-in: one chain that takes
    no step, draws nothing and is reported as zero chains.  The terms of
    S_0, and D_0, which sigma_f reads, come from its eigenpairs, once.
    Each stepped state is reduced in one sweep in its block of the chain
    pass, to <f(S_t), B> and, for every state but the last, what the next
    step's terms read: the state itself when f is a polynomial (domain R,
    so there is no chain domain check), and otherwise its eigenpairs and
    B in their basis, whose eigenvalues are also kept for the one domain
    check after the pass.  A chain's terms are summed at a power
    of two where their weighted sum could overflow.  The CI half-width uses
    sigma_hat / sqrt(n) only; Monte Carlo chain noise is reported
    separately as ``mc_stderr``.  Raises DomainError, before any chain is
    drawn, when S_0 lies outside f's domain, and after the draws when a
    chain state leaves it; and NumericOverflow, naming the stage, when the
    sample covariance, a chain state, f of a state, the chain combination,
    its linear terms, ``mc_stderr`` or sigma_f overflows.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k and nchains < 1:
        raise ValueError("need at least one chain when k >= 1")
    b = as_symmat(b)
    with overflow_stage("sample covariance"):
        sigma_hat_mat = sample_covariance(x)
        start = eigh(sigma_hat_mat)  # shared by the chains and sigma_f
    if sigma_hat_mat.dim != b.dim:
        raise DimMismatch(f"data dim {sigma_hat_mat.dim}, B dim {b.dim}")
    check_domain(start.eigenvalues, f, "eigenvalues of the sample covariance")
    nchains = nchains if k else 1
    vals = np.empty((nchains, k + 1))  # <f(S_i), B> per chain
    lam0, u0 = start.eigenvalues, start.eigenvectors
    # B in S_0's eigenbasis gives D_0 = Df(S_0; B) there, which sigma_f
    # reads, and step 1's terms
    vals[:, 0], bt0 = spectral_terms(lam0, u0, f, b.entries, True)
    d0 = loewner_first_difference(lam0, f) * bt0
    lin = np.empty((nchains, k))  # l_t + q_t - E[q_t | S_{t-1}] per chain
    if k:
        poly = f.coefficients
        lam = np.empty((nchains, k, x.d))  # eigenvalues, for the domain check

        def visit(lo, hi, t, s, carry):
            # a block's carry into step t is what step t - 1 left of each of
            # its states: the eigenvalues (on the start's grid if outside
            # f's domain), eigenvectors and B in that eigenbasis, or for a
            # polynomial the state itself; every chain leaves S_0 at t = 1
            if poly is None:
                lin[lo:hi, t - 1] = _eig_step(*(carry or (lam0, u0, bt0)), f,
                                              x.n, s.entries)
                dec = eigh(s)
                v = dec.eigenvectors
                lam[lo:hi, t - 1] = dec.eigenvalues
                # a state outside f's domain fails the check after the pass;
                # till then f and L are taken on the start's eigenvalues
                inside = np.all(in_domain(dec.eigenvalues, f), axis=-1)
                grid = np.where(inside[:, None], dec.eigenvalues, lam0)
                vals[lo:hi, t], bt = spectral_terms(grid, v, f, b.entries, t < k)
                return grid, v, bt  # bt is None at t = k: no step reads it
            lin[lo:hi, t - 1] = _polynomial_step(
                sigma_hat_mat.entries if carry is None else carry, poly,
                b.entries, x.n, s.entries)
            s_hat, e = _binade_split(s.entries)
            # |eigenvalue| <= d max |entry| < 2^(e + 1 + bits(d)), so only
            # these states can have one past floating point: eigh raises
            big = e >= 1023 - x.d.bit_length()
            if big.any():
                eigh(s.entries[big])
            vals[lo:hi, t] = _polynomial_terms(s_hat, e, poly, b.entries)
            return s.entries

        with overflow_stage("chain state"):
            chain_states(start, k, x.n, nchains, rng, visit)
        if poly is None:
            check_domain(lam, f, "chains")
    finite(vals, f"'{f.name}' of a chain state")
    # subtract sum_t l_t sum_{i>=t} c_i; these tail sums are (-1)^t C(k, t)
    c = hockey_stick_weights(k)
    tails = np.array([(-1) ** t * math.comb(k, t) for t in range(1, k + 1)],
                     dtype=float)
    # sum |c_i| + sum |tails_t| < 2^(k+2), so a row whose terms are below
    # 2^(1021 - k) cannot overflow; any other is summed at 2^-r and
    # scaled back exactly, so it is finite wherever its value is
    top = np.frexp(np.abs(np.concatenate([vals, lin], axis=1)).max(axis=1))[1]
    r = np.maximum(top + k + 2 - 1023, 0)
    part = np.ldexp(vals, -r[:, None]) @ c
    y = np.ldexp(part - np.ldexp(lin, -r[:, None]) @ tails, r)
    if not np.all(np.isfinite(y)):  # at k = 0, y is the finite <f(S_0), B>
        finite(np.ldexp(part, r), f"the chain combination of '{f.name}'")
        finite(y, f"linear term: the chain combination of '{f.name}' less "
               "its linear term")

    scale = _binade(y)
    z = y / scale  # exact; keeps the squares in y.std inside floating point
    value = float(z.mean()) * scale
    mc_stderr = float(z.std(ddof=1) / math.sqrt(z.size)) * scale if z.size > 1 else 0.0
    finite(mc_stderr, "the Monte Carlo stderr")
    shat = _sigma_f(psd_sqrt(lam0), d0, f)
    ci = confidence_interval(value, shat, x.n, alpha)
    return EstimateReport(
        functional_value=value, estimator_kind="bias_reduced" if k else "plugin",
        k=k, mc_stderr=mc_stderr, sigma_hat=shat, ci=ci, alpha=alpha,
        n=x.n, d=x.d, chains=nchains if k else 0,
        master_seed=rng.master_seed, stream_id=rng.stream_id,
    )
