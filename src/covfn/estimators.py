"""The bias-reduced estimator of <f(Sigma), B> and its confidence interval.

The estimator of order k is h_k(S_0) = sum_{j<=k} (I - T)^j f at the
sample covariance S_0, with T g(S) = E g(W(n, S) / n) the mean of one
Wishart step (arXiv:1710.09072); its mean removes the first k orders of
plug-in bias.  For a polynomial f (``ScalarFunction.coefficients``), T - I
maps the trace monomials of each degree to themselves (``_BIAS_MAP``), so
h_k(S_0) is taken exactly (``wishart_bias``) and draws nothing.  Any
other f averages, over N independent bootstrap chains S_0, ..., S_k
started at S_0, the weighted combination sum_i c_{k,i} <f(S_i), B> with
hockey-stick weights c_{k,i} = (-1)^i C(k+1, i+1), whose conditional
expectation is h_k(S_0).  A chain is a martingale (E[S_t | S_{t-1}] =
S_{t-1}), so each step's linear term l_t = <S_t - S_{t-1}, D_{t-1}>,
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
difference keeps mean 0, as it does however F is rounded.  The plug-in
estimator <f(S_0), B> is the order-0 case, which takes no chain.

``sampling.chain_states`` hands each block of states to the estimator,
which reduces each state S_t there, in one sweep, to <f(S_t), B>, the
terms of the step that reached it, and, for t < k, its eigenpairs and
Bt, which the next step's terms read (``symmat.spectral_terms``, which
also serves S_0 and ``simulate``'s truth); its eigenvalues are also kept
for the domain check.  A chain state outside f's domain is an error,
never dropped.  Confidence intervals use the asymptotic standard
deviation sigma_f = sqrt(2) ||Sigma^{1/2} Df(Sigma;B) Sigma^{1/2}||_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .errors import BadAlpha, DimMismatch, NumericOverflow, finite, overflow_stage
from .functions import ScalarFunction
from .sampling import (
    DataMatrix,
    RngStream,
    chain_states,
    sample_covariance,
)
from .symmat import (
    as_symmat,
    binade,
    check_domain,
    check_psd,
    eigh,
    exponent,
    in_domain,
    loewner_differences,
    rescale,
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
    "wishart_bias",
    "MAX_K",
]

# The one bound on k.  The weights are exact ints; their float copies are exact
# to k = 55 (C(57, 28) > 2^53), and they fit a signed int64 up to k = 65.
MAX_K = 62

# T - I, for T the mean of one Wishart step, on the trace monomials of
# degree h, times n^(h - 1): column m is the image of monomial m, in the
# order (S^2, tr(S) S) and (S^3, tr(S) S^2, tr(S^2) S, tr(S)^2 S).  Each
# column follows from Wick's theorem for S = W(n, Sigma) / n.
_BIAS_MAP = {
    2: lambda n: ((1, 2), (1, 0)),
    3: lambda n: ((3 * n + 4, 4 * n + 4, 4 * n + 4, 8),
                  (2 * n + 2, n + 2, 4, 4 * n),
                  (n + 1, 2, n, 2 * n),
                  (1, n, n, 0)),
}


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
    scale = binade(sigma_hat)  # exact, so z * sigma_hat cannot overflow
    half = z * (sigma_hat / scale) / math.sqrt(n) * scale
    return finite((point - half, point + half), "the confidence interval")


def sigma_f(sigma, f: ScalarFunction, b) -> float:
    """Asymptotic std dev sqrt(2) ||Sigma^{1/2} Df(Sigma;B) Sigma^{1/2}||_2.

    Computed in the eigenbasis of Sigma, on the grid of its eigenvalues
    that ``symmat.loewner_differences`` divides by 2^e (for f of degree h;
    else e = 0), as sqrt(2) 2^(e h) ||Lam^{1/2} (L o U^T B U) Lam^{1/2}||:
    the same bits at every scale.  ``sigma`` may be given as its
    SpectralDecomp; a B of another size raises DimMismatch, and negative
    eigenvalues NotPSD.  The norm is taken of entries divided by a power
    of two, scaled back once; a value beyond floating point, or a positive
    one that underflows to 0, raises NumericOverflow.
    """
    dec = eigh(sigma)
    b = as_symmat(b)
    lam, u = dec.eigenvalues, dec.eigenvectors
    if b.dim != len(lam):
        raise DimMismatch(f"B has dim {b.dim}, Sigma has {len(lam)}")
    check_psd(lam)  # NotPSD before the DomainError of a negative eigenvalue
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # DomainError before f is taken
        first, _, _, e = loewner_differences(lam, f)
    bt = u.T @ (b.entries @ u)
    root = np.sqrt(np.maximum(np.ldexp(lam, -e), 0.0))  # checked PSD above
    sandwiched = root[:, None] * (first * bt) * root[None, :]
    p = exponent(sandwiched) - 1  # 2^p at or below its largest entry
    norm = math.sqrt(2.0) * float(np.linalg.norm(np.ldexp(sandwiched, -p)))
    x = p + e * (f.degree or 0.0)  # e is 0 unless f has a degree
    with np.errstate(over="ignore"):
        out = float(np.ldexp(norm * 2.0 ** (x % 1), math.floor(x)))
    if out == 0.0 < norm:
        raise NumericOverflow(f"sigma_f of '{f.name}' underflows floating point; "
                              "rescale the data")
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


def _dot(a, b):
    """sum a o b for each pair of matrices of two stacks (or a stack and
    one matrix), a dot product per pair that forms no a o b."""
    d2 = a.shape[-1] * a.shape[-2]
    return np.vecdot(a.reshape(a.shape[:-2] + (d2,)), b.reshape(b.shape[:-2] + (d2,)))


def _zero_nonfinite(m):
    """m with its entries beyond floating point set to 0, in place."""
    if not np.isfinite(m).all():
        np.copyto(m, 0.0, where=~np.isfinite(m))
    return m


def _eig_step(lam, u, bt, f: ScalarFunction, n: int, s):
    """A step's control variates l_t + q_t - E[q_t | S_{t-1}] (see the
    module docstring) for each state S_t of a stack, from the eigenpairs
    (lam, U) of the state S_{t-1} it stepped from and Bt = U^T B U: of one
    S_{t-1} that every state left, or of a stack of them, one per state.

    In S_{t-1}'s eigenbasis, with Dt = U^T S_t U - diag(lam) and L, R and
    G from ``symmat.loewner_differences``, each state takes one product,
    (L o Dt) Dt, and

        l_t + q_t = sum (L o Dt) o (Bt + 2 (Bt o R) Dt) + sum G o Bt_ii Dt^2,
        E[q_t | S_{t-1}] = sum_ij G_ij Bt_ii lam_i (lam_j + [i = j] lam_i) / n.

    Dt is taken at 2^-e, with 2^e at or below max |lam|, and L, Bt o R
    and G o Bt_ii are each divided by a power of two near their largest
    entry; each term is taken at a power of two that puts every term at
    one scale.  The terms come back as (y, top), each state's value y
    2^top, so a value is a finite sum however far its power of two lies
    beyond floating point.  An entry of Bt o R or G o Bt_ii beyond
    floating point is taken as 0, which costs variance and no bias.  For
    f of degree h, ``loewner_differences`` forms L, R and G on lam / 2^g
    and they are scaled back by 2^(g (h - 1)), 2^-g and 2^(g (h - 2)),
    so they have the same bits at every scale.  Each state's products are
    its own, so no number depends on the block.
    """
    e = exponent(lam, 1) - 1
    lam_hat = np.ldexp(lam, -e[..., None])
    dt = np.swapaxes(u, -1, -2) @ s @ u
    rescale(dt, -e)  # Dt / 2^e
    i = np.arange(dt.shape[-1])
    dt[..., i, i] -= lam_hat
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        first, cross, diag, g = loewner_differences(lam, f)
        cross *= bt  # Bt o R
        diag *= np.diagonal(bt, axis1=-2, axis2=-1)[..., :, None]  # G o Bt_ii
    shift = g * ((f.degree or 0.0) - 2.0)  # g is 0 unless f has a degree
    whole = np.floor(shift).astype(int)
    a, c, h = (exponent(m) for m in (first, _zero_nonfinite(cross),
                                     _zero_nonfinite(diag)))
    # l_t, the cross term (with its factor 2) and the G term are sums of
    # products of Dt / 2^e with L / 2^a, (Bt o R) / 2^c and (G o Bt_ii) /
    # 2^h at 2^xl, 2^xc and 2^xd, in units of 2^(shift - whole); each is
    # taken at 2^top, the largest of them
    xl, xc, xd = e + g + whole + a, 2 * e + whole + a + c + 1, 2 * e + whole + h
    top = np.maximum(np.maximum(xl, xc), xd)
    rescale(first, -a)
    rescale(cross, xc - c - top)
    rescale(diag, xd - h - top)
    mean = (np.sum(lam_hat * (diag @ lam_hat[..., None])[..., 0], axis=-1)
            + np.sum(np.diagonal(diag, axis1=-2, axis2=-1) * lam_hat**2,
                     axis=-1)) / n
    y = _dot(diag * dt, dt) - mean
    del diag  # one (N, d, d) array fewer while the cross term is formed
    w = cross @ dt
    dt *= first  # (L o Dt) / 2^(a + e)
    y += _dot(dt, w) + np.ldexp(_dot(dt, bt), xl - top)
    return y * 2.0 ** (shift - whole), top


def wishart_bias(s, f: ScalarFunction, b, n: int, weights) -> float:
    """<sum_j w_j (T - I)^j f(S), B> for a polynomial f, w_j = weights[j - 1]
    for j = 1, 2, ..., with T the mean of one Wishart step, T g(S) = E
    g(W(n, S) / n): the order-k estimator's correction at weights (-1)^j,
    j <= k, and its bias (-1)^k (T - I)^(k+1) f(S) at 0, ..., 0, (-1)^k.

    T - I maps the trace monomials of each degree h to themselves, as
    n^(1 - h) times the integer matrix ``_BIAS_MAP[h](n)``, and is 0 on
    degrees 0 and 1.  The coefficients of sum_j w_j (T - I)^j f on the
    monomials are exact rationals, each rounded once.  The monomials are
    taken of S_hat = S / 2^e, 2^e at or below max |entry| of S, and each
    degree's sum is scaled back once by 2^(e h), so the value is finite
    wherever it is and has the same bits at every power-of-two scale of S.
    Beyond floating point it is inf, unchecked.
    """
    e = int(exponent(s)) - 1
    s_hat = np.ldexp(s, -e)
    s2 = s_hat @ s_hat
    p1, p2, t1 = np.sum(s_hat * b), np.sum(s2 * b), np.trace(s_hat)
    monomials = {2: (p2, t1 * p1),
                 3: (np.sum((s2 @ s_hat) * b), t1 * p2,
                     np.sum(s_hat * s_hat) * p1, t1 * t1 * p1)}
    total = 0.0
    for h, c in enumerate(f.coefficients):
        if not c or h not in _BIAS_MAP:
            continue
        m = _BIAS_MAP[h](n)
        # acc / n^(J (h - 1)) = sum_j w_j (T - I)^j on the first monomial,
        # with v = n^(j (h - 1)) (T - I)^j on it, all in integers
        v, acc = [1] + [0] * (len(m) - 1), [0] * len(m)
        for w in weights:
            v = [sum(a * x for a, x in zip(row, v)) for row in m]
            acc = [a * n ** (h - 1) + w * x for a, x in zip(acc, v)]
        den = Fraction(n) ** (len(weights) * (h - 1))
        coef = [float(Fraction(a) / den * Fraction(c)) for a in acc]
        with np.errstate(over="ignore"):
            total += np.ldexp(np.dot(coef, monomials[h]), e * h)
    return float(total)


def bias_reduced_estimate(x: DataMatrix, f: ScalarFunction, b, k: int,
                          nchains: int, rng: RngStream,
                          alpha: float = 0.05) -> EstimateReport:
    """Order-k bias-reduced estimate of <f(Sigma), B>, the mean of
    sum_{j<=k} (I - T)^j f at the sample covariance S_0.

    At k = 0 this is the plug-in <f(S_0), B>, and for a polynomial f it is
    the plug-in plus ``wishart_bias`` of S_0 at weights (-1)^j: either
    draws nothing and is reported as zero chains with ``mc_stderr`` 0.
    Any other f simulates ``nchains`` independent chains S_0, ..., S_k
    (step t of every chain draws from ``rng.spawn(2t - 1)`` and
    ``rng.spawn(2t)``, see ``chain_states``) and averages, over the
    chains,

        sum_i c_i <f(S_i), B>
            - sum_{t>=1} (-1)^t C(k, t) (l_t + q_t - E[q_t | S_{t-1}]),
        l_t = <S_t - S_{t-1}, Df(S_{t-1}; B)>,
        q_t = 1/2 <D^2 f(S_{t-1})[S_t - S_{t-1}, S_t - S_{t-1}], B>;

    given S_{t-1}, l_t has mean 0 and E[q_t | S_{t-1}] is q_t's exact
    mean, so each step's terms take its first- and second-order chain
    noise out and leave the mean as it is.  Each step's terms come from
    the eigenpairs of the state it left, in one ``_eig_step`` call per
    block, with one product per state, (L o Dt) Dt, and no
    second-difference tensor; a tied pair i != l of eigenvalues drops out
    of q_t (its mean never reads one).  The terms of S_0 come from its
    eigenpairs, once, and sigma_f from the same eigenpairs.
    Each stepped state is reduced in one sweep in its block of the chain
    pass, to <f(S_t), B> and, for every state but the last, its
    eigenpairs and B in their basis, which the next step's terms read;
    its eigenvalues are also kept for the one domain check after the
    pass.  A step's terms are carried as a mantissa and a power of two,
    and a chain's terms are summed at a power of two where their weighted
    sum could overflow.  The CI half-width uses sigma_hat / sqrt(n) only;
    Monte Carlo chain noise is reported separately as ``mc_stderr``.
    Raises DomainError, before any chain is drawn, when S_0 lies outside
    f's domain, and after the draws when a chain state leaves it; and
    NumericOverflow, naming the stage, when the sample covariance, a
    chain state, f of a state, the bias correction, the chain
    combination, its linear terms, ``mc_stderr`` or sigma_f overflows, or
    sigma_f underflows to 0.
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
    shat = sigma_f(start, f, b)
    chains = k > 0 and f.coefficients is None
    # <f(S_0), B>, and B in S_0's eigenbasis, which step 1's terms read
    plug, bt0 = spectral_terms(start.eigenvalues, start.eigenvectors, f,
                               b.entries, chains)
    if chains:
        value, mc_stderr = _chain_mean(start, bt0, plug, f, b, k, x.n,
                                       nchains, rng)
    else:  # h_k in closed form: the plug-in, or a polynomial's exact mean
        finite(plug, f"'{f.name}' of a chain state")
        correction = wishart_bias(sigma_hat_mat.entries, f, b.entries, x.n, [
            (-1) ** j for j in range(1, k + 1)]) if k else 0.0
        value = float(finite(plug + correction,
                             f"the bias correction of '{f.name}'"))
        mc_stderr, nchains = 0.0, 0
    ci = confidence_interval(value, shat, x.n, alpha)
    return EstimateReport(
        functional_value=value, estimator_kind="bias_reduced" if k else "plugin",
        k=k, mc_stderr=mc_stderr, sigma_hat=shat, ci=ci, alpha=alpha,
        n=x.n, d=x.d, chains=nchains,
        master_seed=rng.master_seed, stream_id=rng.stream_id,
    )


def _chain_mean(start, bt0, plug, f: ScalarFunction, b, k: int, n: int,
                nchains: int, rng: RngStream):
    """(mean, Monte Carlo stderr) of ``nchains`` chains' combinations, as
    ``bias_reduced_estimate`` describes them, from S_0's SpectralDecomp,
    B in its eigenbasis and <f(S_0), B>."""
    lam0, u0 = start.eigenvalues, start.eigenvectors
    vals = np.empty((nchains, k + 1))  # <f(S_i), B> per chain
    vals[:, 0] = plug
    # l_t + q_t - E[q_t | S_{t-1}] per chain, lin 2^top
    lin, top = np.empty((nchains, k)), np.empty((nchains, k), dtype=int)
    lam = np.empty((nchains, k, lam0.size))  # eigenvalues, for the domain check

    def visit(lo, hi, t, s, carry):
        # a block's carry into step t is what step t - 1 left of each of its
        # states: the eigenvalues (on the start's grid if outside f's
        # domain), eigenvectors and B in that eigenbasis; every chain leaves
        # S_0 at t = 1
        lin[lo:hi, t - 1], top[lo:hi, t - 1] = _eig_step(
            *(carry or (lam0, u0, bt0)), f, n, s.entries)
        dec = eigh(s)
        v = dec.eigenvectors
        lam[lo:hi, t - 1] = dec.eigenvalues
        # a state outside f's domain fails the check after the pass; till
        # then f and L are taken on the start's eigenvalues
        inside = np.all(in_domain(dec.eigenvalues, f), axis=-1)
        grid = np.where(inside[:, None], dec.eigenvalues, lam0)
        vals[lo:hi, t], bt = spectral_terms(grid, v, f, b.entries, t < k)
        return grid, v, bt  # bt is None at t = k: no step reads it

    with overflow_stage("chain state"):
        chain_states(start, k, n, nchains, rng, visit)
    check_domain(lam, f, "chains")
    finite(vals, f"'{f.name}' of a chain state")
    # subtract sum_t l_t sum_{i>=t} c_i; these tail sums are (-1)^t C(k, t)
    c = hockey_stick_weights(k)
    tails = np.array([(-1) ** t * math.comb(k, t) for t in range(1, k + 1)],
                     dtype=float)
    # sum |c_i| + sum |tails_t| < 2^(k+2), so a row whose terms are below
    # 2^(1021 - k) cannot overflow; any other is summed at 2^-r and
    # scaled back exactly, so it is finite wherever its value is.  Each
    # step's term lin 2^top is below 2^(frexp exponent of lin + top)
    high = np.where(lin == 0, 0, np.frexp(lin)[1] + top).max(axis=1, initial=0)
    r = np.maximum(np.maximum(exponent(vals, 1), high) + k + 2 - 1023, 0)
    part = np.ldexp(vals, -r[:, None]) @ c
    y = np.ldexp(part - np.ldexp(lin, top - r[:, None]) @ tails, r)
    if not np.all(np.isfinite(y)):
        finite(np.ldexp(part, r), f"the chain combination of '{f.name}'")
        finite(y, f"linear term: the chain combination of '{f.name}' less "
               "its linear term")

    scale = binade(y)
    z = y / scale  # exact; keeps the squares in y.std inside floating point
    mc_stderr = float(z.std(ddof=1) / math.sqrt(z.size)) * scale if z.size > 1 else 0.0
    return float(z.mean()) * scale, finite(mc_stderr, "the Monte Carlo stderr")
