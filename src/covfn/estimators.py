"""The bias-reduced estimator of <f(Sigma), B> and its confidence interval.

The estimator of order k averages, over N independent bootstrap chains
S_0, ..., S_k started at the sample covariance S_0, the weighted
combination sum_i c_{k,i} <f(S_i), B> with hockey-stick weights
c_{k,i} = (-1)^i C(k+1, i+1); its conditional expectation removes the
first k orders of plug-in bias.  A chain is a martingale (E[S_t | S_{t-1}]
= S_{t-1}), so each step's linear term l_t = <S_t - S_{t-1}, D_{t-1}>,
D_{t-1} = Df(S_{t-1}; B), has mean exactly 0 and is subtracted with the
weight sum_{i>=t} c_{k,i} = (-1)^t C(k, t) as a control variate: the mean
is unchanged and the chain noise that the linear terms carry is gone.
Step 1 also subtracts, with the same weight -k, its second-order term
q_1 - E[q_1 | S_0], q_1 = 1/2 <D^2 f(S_0)[S_1 - S_0, S_1 - S_0], B>.  In
S_0's eigenbasis, with Dt = U^T S_1 U - diag(lam), Bt = U^T B U and F
f's second divided differences on lam, q_1 = sum_ijl F_ijl Dt_ij Dt_jl
Bt_li, and a Wishart step's second moments give its mean exactly:
E[q_1 | S_0] = (sum_i F_iii Bt_ii lam_i^2 + sum_ij F_iji Bt_ii lam_i
lam_j) / n.  That holds for any fixed F, so the difference has mean 0
however F is rounded; every chain starts at S_0, so F is formed once,
and l_1 = sum Dt o (L o Bt) is taken in the same contraction.  A
polynomial f (``ScalarFunction.coefficients``) takes l_1, q_1 and the
mean instead from products of S_1 - S_0 and S_0 in the original basis
(``_polynomial_first_step``), with no decomposition and no tensor.
The plug-in estimator <f(S_0), B> is the order-0 case: one chain that
takes no step, with weight 1.  ``sampling.chain_states`` hands each block
of states to the estimator, which reduces each state S_t there, in one
sweep, to <f(S_t), B>, for t >= 2 l_t = sum (S_t - S_{t-1}) o D_{t-1}
and, for t < k, D_t scaled by a power of two, the carry to the next
step.  For a polynomial f (``ScalarFunction.coefficients``) these are
sums of products of S_t and B; every other f takes them from S_t's eigenpairs
and Loewner matrix (``symmat.spectral_terms``, which also serves S_0 and
sigma_f), and keeps only its eigenvalues, for the domain check.
A chain state outside f's domain is an error, never dropped.  Confidence
intervals use the asymptotic standard deviation
sigma_f = sqrt(2) ||Sigma^{1/2} Df(Sigma;B) Sigma^{1/2}||_2.
"""

from __future__ import annotations

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
    loewner_second_difference,
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


def confidence_interval(point: float, sigma_hat: float, n: int, alpha: float) -> tuple:
    """Symmetric interval point +/- z_{1-alpha/2} * sigma_hat / sqrt(n).

    sigma_hat is divided by a power of two for the product, so the
    half-width is finite wherever its value is; an interval beyond
    floating point raises NumericOverflow.
    """
    if not (0.0 < alpha < 1.0):
        raise BadAlpha(f"alpha must be in (0, 1), got {alpha}")
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
    derivative (``symmat.spectral_terms``) are exact on eigenvalues.
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
    _, deriv = spectral_terms(dec.eigenvalues, dec.eigenvectors, f, b.entries, True)
    return _sigma_f(root, deriv, f)


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


def _binade_split(s):
    """(S_hat, e), S = 2^e S_hat, 2^e at or below max |entry| of each S."""
    e = np.frexp(np.abs(s).max(axis=(-2, -1)))[1] - 1
    return np.ldexp(s, -e[..., None, None]), e


def _polynomial_terms(s_hat, e, coefficients, b, derivative):
    """<p(S), B> for each symmetric S = 2^e S_hat, p = sum_j c_j x^j, and,
    when ``derivative``, (D_hat, v) with Dp(S; B) = sum_j c_j sum_{a+b=j-1}
    S^a B S^b equal to 2^v D_hat (else None).

    One sweep, no decomposition: each S_hat^{j-1} B is formed once, and
    tr(S^j B) = sum S o (S^{j-1} B) for symmetric S.  Each term is taken
    of S_hat and scaled back exactly, so the value is finite wherever it
    is; v = max(0, (deg p - 1) e) is the derivative's top scale, so D_hat
    is a sum of terms taken at powers of two at or below 1, and finite.
    """
    power = m = b  # S_hat^{j-1} B and sum_{a+b=j-1} S_hat^a B S_hat^b
    val = np.full(e.shape, coefficients[0] * np.trace(b))
    if derivative:
        v = np.maximum((len(coefficients) - 2) * e, 0)
        d_hat = np.zeros(s_hat.shape)
    for j, c in enumerate(coefficients[1:], start=1):
        if j > 1:
            power = s_hat @ power
            if derivative:
                m = s_hat @ m + np.swapaxes(power, -1, -2)
        if c:
            val += c * np.ldexp(np.sum(s_hat * power, axis=(-2, -1)), j * e)
            if derivative:
                d_hat += c * np.ldexp(m, ((j - 1) * e - v)[..., None, None])
    return val, (d_hat, v) if derivative else None


def _first_step(lam, u, d0, f: ScalarFunction, b, n: int):
    """Step 1's control variates l_1 + q_1 - E[q_1 | S_0] (see the module
    docstring) of S_0 = U diag(lam) U^T, for an f that is not a
    polynomial, as ``term(s)``: their sum for each state S_1 of a stack,
    both taken in S_0's eigenbasis, where l_1 = sum Dt o D0 with D0 =
    Df(S_0; B) in that basis.

    F o Bt and D0 are formed once.  Dt is taken at 2^-e, with 2^e at or
    below max |lam|, and F o Bt and D0 at powers of two that bring both
    terms to one scale, so each value is a finite sum times a power of
    two.  An entry of F o Bt beyond floating point is taken as 0, which
    costs variance and no bias.  For f of degree h, F(lam) = 2^(e (h - 2))
    F(lam / 2^e) is formed from the right side, so it is in floating
    point, with the same bits, at every scale.
    """
    e = np.frexp(np.abs(lam).max())[1] - 1
    lam_hat = np.ldexp(lam, -e)
    grid, shift = (lam, 0.0) if f.degree is None else (lam_hat, e * (f.degree - 2.0))
    whole = math.floor(shift)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # m[j] = (F_ijl Bt_li)_il, so q_1 = sum_j Dt[j] m[j] Dt[j]^T for
        # symmetric Dt
        m = np.swapaxes(loewner_second_difference(grid, f) * 2.0 ** (shift - whole)
                        * (u.T @ b @ u)[:, None, :], 0, 1)
    m = np.where(np.isfinite(m), m, 0.0)
    # with Dt_hat = Dt / 2^e, l_1 = 2^e sum Dt_hat o D0 and q_1 = 2^(2e +
    # whole) sum_j Dt_hat[j] m[j] Dt_hat[j]^T; both are taken at 2^top, the
    # larger of their scales, so each sum is finite
    em, ed = (np.frexp(np.abs(a).max())[1] for a in (m, d0))
    top = max(e + ed, 2 * e + whole + em)
    d0 = np.ldexp(d0, e - top)
    m = np.ascontiguousarray(np.ldexp(m, 2 * e + whole - top))
    diag = np.diagonal(m, axis1=1, axis2=2)  # (F_iji Bt_ii)_ji
    mean = (np.diagonal(diag) @ lam_hat**2 + lam_hat @ diag @ lam_hat) / n
    diag_hat = np.diag(lam_hat)

    def term(s):
        # each chain's products are its own: no number depends on the block
        dt = u.T @ np.ldexp(s, -e) @ u - diag_hat
        y = (dt[..., None, :] @ m)[..., 0, :] + d0
        return np.ldexp(np.sum(y * dt, axis=(-2, -1)) - mean, top)

    return term


def _polynomial_first_step(s0, coefficients, b, n: int):
    """Step 1's control variates l_1 + q_1 - E[q_1 | S_0] (see the module
    docstring) of a polynomial p = sum_j c_j x^j, as ``term(s)``: their
    sum for each state S_1 of a stack, from products of Dl = S_1 - S_0 in
    the original basis, with no decomposition.

    With M_r = sum_{a+c=r} S_0^a B S_0^c and W_i = sum_j c_j M_{j-2-i},
    l_1 = <Dl, W_-1> (W_-1 = Dp(S_0; B)) and q_1 = sum_{i>=0} tr(Dl S_0^i
    Dl W_i); a Wishart step has E[Dl X Dl | S_0] = (S_0 X S_0 + tr(X S_0)
    S_0) / n for symmetric X, so E[q_1 | S_0] = sum_{i>=0} (tr(S_0^(i+2)
    W_i) + tr(S_0^(i+1)) tr(S_0 W_i)) / n.  Each chain takes one product
    per W_i, i >= 0, and one per S_0^i, i >= 1, its own.  With S_0 = 2^e
    S_hat, Dl is taken at 2^-e and c_j M_r, of scale 2^(e j), at powers
    of two that bring every term to one scale 2^top, so each value is a
    finite sum times a power of two.
    """
    s_hat, e = _binade_split(s0)
    deg = len(coefficients) - 1
    power, m = [np.eye(len(b)), s_hat], [b]  # S_hat^i and M_r of S_hat
    for r in range(1, deg):
        m.append(s_hat @ m[-1] + b @ power[r])
        power.append(s_hat @ power[r])
    parts = [[(e * j, c * m[j - 2 - i]) for j, c in enumerate(coefficients)
              if c and j >= i + 2] for i in range(-1, deg - 1)]
    top = max(x + np.frexp(np.abs(a).max())[1] for p in parts for x, a in p)
    # W_-1, ..., W_(deg-2), divided by 2^top
    w = [sum(np.ldexp(a, x - top) for x, a in p) for p in parts]
    mean = sum(np.sum(power[i + 2] * wi) + np.trace(power[i + 1])
               * np.sum(s_hat * wi) for i, wi in enumerate(w[1:])) / n

    def term(s):
        # each chain's products are its own: no number depends on the block
        dl = np.ldexp(s, -e) - s_hat
        y = np.sum(dl * (w[0] + w[1] @ dl if deg > 1 else w[0]), axis=(-2, -1))
        for i in range(1, deg - 1):
            y += np.sum((dl @ power[i]) * (w[i + 1] @ dl), axis=(-2, -1))
        return np.ldexp(y - mean, top)

    return term


def bias_reduced_estimate(x: DataMatrix, f: ScalarFunction, b, k: int,
                          nchains: int, rng: RngStream,
                          alpha: float = 0.05) -> EstimateReport:
    """Order-k bias-reduced estimate of <f(Sigma), B> via bootstrap chains.

    Simulates ``nchains`` independent chains S_0, ..., S_k from the sample
    covariance S_0 (step t of every chain draws from ``rng.spawn(2t - 1)``
    and ``rng.spawn(2t)``, see ``chain_states``) and averages, over
    the chains,

        sum_i c_i <f(S_i), B> - sum_{t>=1} (-1)^t C(k, t) l_t
                           + k (q_1 - E[q_1 | S_0]),
        l_t = <S_t - S_{t-1}, Df(S_{t-1}; B)>;

    each l_t has mean 0 given S_{t-1}, and the second sum takes the chain
    noise of the linear terms out; the last term, the first step's
    second-order term less its exact mean (``_first_step``, or
    ``_polynomial_first_step`` for a polynomial f), takes out most of
    what step 1 leaves.  At k = 0 this is the plug-in: one chain
    that takes no step, draws nothing and is reported as zero chains.  The
    terms of S_0, and D_0, which sigma_f reads too, come from its
    eigenpairs, once.  A stepped
    state's terms, and for every state but the last its D, are taken in
    one sweep in its block of the chain pass: from the state itself when
    f is a polynomial (domain R, so there is no chain domain check), and
    from its eigenpairs otherwise, whose eigenvalues are kept for the one
    domain check after the pass.  A chain's terms are summed at a power
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
    # D_0 = Df(S_0; B) in S_0's eigenbasis serves sigma_f and the chains
    vals[:, 0], d0 = spectral_terms(lam0, u0, f, b.entries, True)
    lin = np.empty((nchains, k))  # l_t per chain; at t = 1, q_1 - E[q_1] too
    if k:
        poly = f.coefficients
        first_step = (_first_step(lam0, u0, d0, f, b.entries, x.n) if poly is None
                      else _polynomial_first_step(sigma_hat_mat.entries, poly,
                                                  b.entries, x.n))
        lam = np.empty((nchains, k, x.d))  # eigenvalues, for the domain check

        def visit(lo, hi, t, s, carry):
            s_hat, e = _binade_split(s.entries)
            if t == 1:
                lin[lo:hi, 0] = first_step(s.entries)
            else:
                # a block's carry into step t is (D_hat, p, ep, u) with
                # D_{t-1} = 2^u D_hat and <S_{t-1}, D_hat> = 2^ep p; l_t / 2^u
                # = <S_t, D_hat> - <S_{t-1}, D_hat>, both taken at 2^-top, so
                # l_t is finite wherever its value is
                d_hat, p, ep, u = carry
                top = np.maximum(e, ep)
                lin[lo:hi, t - 1] = np.ldexp(
                    np.ldexp(np.sum(s_hat * d_hat, axis=(-2, -1)), e - top)
                    - np.ldexp(p, ep - top), top + u)
            if poly is None:
                dec = eigh(s)
                v = dec.eigenvectors
                lam[lo:hi, t - 1] = dec.eigenvalues
                # a state outside f's domain fails the check after the pass;
                # till then f and L are taken on the start's eigenvalues
                inside = np.all(in_domain(dec.eigenvalues, f), axis=-1)
                grid = np.where(inside[:, None], dec.eigenvalues, lam0)
                vals[lo:hi, t], d_eig = spectral_terms(grid, v, f, b.entries, t < k)
                if t == k:  # no step reads the last state's D
                    return None
                # D_t = U (L o U^T B U) U^T
                d_eig, u = _binade_split(d_eig)
                d_hat = v @ d_eig @ np.swapaxes(v, -1, -2)
            else:
                # |eigenvalue| <= d max |entry| < 2^(e + 1 + bits(d)), so only
                # these states can have one past floating point: eigh raises
                big = e >= 1023 - x.d.bit_length()
                if big.any():
                    eigh(s.entries[big])
                vals[lo:hi, t], deriv = _polynomial_terms(
                    s_hat, e, poly, b.entries, t < k)
                if t == k:  # no step reads the last state's D
                    return None
                d_hat, u = deriv
            return d_hat, np.sum(s_hat * d_hat, axis=(-2, -1)), e, u

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
