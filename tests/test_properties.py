"""Equivariance properties of the estimators and the tolerance policy.

The paper's bounds depend on Sigma only through scale-free quantities, so
an estimate must follow the data through a change of units, a rotation or
a relabelling of coordinates, and be linear in B.  Every numerical
threshold is relative to max |eigenvalue|, which is what makes the scale
properties hold from 1e-8 to 1e8.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covfn.cli import run_cli
from covfn.errors import NotPSD, NumericOverflow
from covfn.estimators import bias_reduced_estimate, sigma_f
from covfn.functions import get_function, parse_function_spec
from covfn.sampling import DataMatrix, RngStream, psd_factor
from covfn.symmat import effective_rank
from conftest import random_orthogonal, random_sym
from helpers import collect_states, plugin_estimate

REL = 1e-9
CHAINS = 8

# reproducible, and no example database is written (see conftest.py)
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=25)


LOG = get_function("log")
FUNCTIONS = [get_function(*spec) for spec in
             [("identity",), ("square",), ("log",), ("power", 0.5), ("exp",)]]

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 6)
scales = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)


def _case(seed, d, n=20):
    """Data with a well-conditioned covariance and a symmetric B."""
    rng = np.random.default_rng(seed)
    root = random_orthogonal(rng, d) * rng.uniform(0.5, 2.0, size=d)
    x = rng.standard_normal((n, d)) @ root
    return rng, x, random_sym(rng, d)


def _plugin(x, f, b):
    return plugin_estimate(DataMatrix(x), f, b)


def _order1(x, f, b, seed):
    return bias_reduced_estimate(DataMatrix(x), f, b, 1, CHAINS, RngStream(seed))


def _bound(x, f, b):
    """||f(S)||_op ||B||_1, the size of the terms summed into <f(S), B>."""
    lam = np.linalg.eigvalsh(x.T @ x / x.shape[0])
    return np.abs(f.eval(lam)).max() * np.abs(np.linalg.eigvalsh(b)).sum()


def _close(a, b, scale=0.0):
    # an infinite a or b would pass the bound below as inf <= inf
    return (math.isfinite(a) and math.isfinite(b)
            and abs(a - b) <= REL * (abs(a) + abs(b) + scale))


@PROPERTY
@given(seed=seeds, d=dims, c=scales)
@example(seed=0, d=3, c=1e-8)
@example(seed=0, d=3, c=1e8)
def test_log_shifts_by_two_log_c_trace_b(seed, d, c):
    _, x, b = _case(seed, d)
    shift = 2.0 * math.log(c) * float(np.trace(b))
    for est in (lambda y: _plugin(y, LOG, b),
                lambda y: _order1(y, LOG, b, seed)):
        base, scaled = est(x), est(c * x)
        assert _close(scaled.functional_value - shift, base.functional_value,
                      _bound(c * x, LOG, b))
        assert _close(scaled.sigma_hat, base.sigma_hat)


@PROPERTY
@given(seed=seeds, d=dims, c=scales, p=st.sampled_from([0.5, -1.0, 1.5]))
@example(seed=0, d=3, c=1e-8, p=0.5)
def test_power_scales_by_c_to_the_2p(seed, d, c, p):
    _, x, b = _case(seed, d)
    f = get_function("power", p)
    factor = c ** (2.0 * p)
    for est in (lambda y: _plugin(y, f, b), lambda y: _order1(y, f, b, seed)):
        base, scaled = est(x), est(c * x)
        assert _close(scaled.functional_value / factor, base.functional_value)
        assert _close(scaled.sigma_hat / factor, base.sigma_hat)


# the degree h of each f: data scaled by c scales <f(S), B> by c^(2h), or
# for log shifts it by log(c^2) tr B
DEGREES = {"log": 0.0, "power:-1": -1.0, "power:0.5": 0.5, "power:2": 2.0,
           "identity": 1.0, "square": 2.0, "cube": 3.0}


@settings(PROPERTY, max_examples=80)
@given(seed=seeds, d=dims, j=st.integers(-500, 500),
       name=st.sampled_from(sorted(DEGREES)), k=st.integers(0, 1))
@example(seed=0, d=3, j=-500, name="power:-1", k=1)
@example(seed=0, d=3, j=500, name="power:-1", k=1)
@example(seed=0, d=3, j=-500, name="log", k=1)
@example(seed=0, d=3, j=250, name="power:2", k=0)
@example(seed=0, d=3, j=-250, name="square", k=1)
@example(seed=0, d=3, j=-200, name="cube", k=0)
@example(seed=0, d=3, j=200, name="cube", k=1)
def test_every_scale_2_to_the_j_gives_the_scaled_report_or_an_error(
        seed, d, j, name, k):
    # data scaled by c = 2^j: the report must be the one at c = 1 scaled
    # by c^(2h), to 1e-12 relative, wherever that is inside floating point
    # (the value, sigma_hat and the CI ends within 2^(+-1000)), and the
    # run must raise NumericOverflow wherever the value, sigma_hat or a CI
    # end would pass 2^1024, or sigma_hat would round to 0.  Between the
    # two, a subnormal answer may lose bits, but a sigma_hat of 0 never
    # stands in for a positive one.  The value and mc_stderr are sums of
    # chain values whose rounding is relative to their terms, of size
    # ``_bound`` (plus the shift, for log), so they are compared at it
    _, x, b = _case(seed, d)
    f = parse_function_spec(name)
    h = DEGREES[name]
    est = ((lambda y: _plugin(y, f, b)) if k == 0
           else (lambda y: _order1(y, f, b, seed)))
    with np.errstate(over="ignore", invalid="ignore"):
        base = est(x)
        try:
            got = est(2.0**j * x)
        except NumericOverflow:
            got = None
    shift = 2.0 * j * math.log(2.0) * float(np.trace(b)) if name == "log" else 0.0
    e = 2 * h * j  # the report scales by 2^e; e = 0 for log

    def scaled(v, plus=0.0):
        return math.ldexp(v, int(e)) * 2.0 ** (e % 1) + plus

    def log2(v, plus=0.0):  # log2 |scaled(v, plus)|, plus = 0 unless e = 0
        v += plus
        return math.log2(abs(v)) + e if v else -math.inf

    sizes = [log2(base.functional_value, shift), log2(base.sigma_hat),
             *(log2(v, shift) for v in base.ci)]
    if -1000 <= min(sizes) and max(sizes) <= 1000:
        assert got is not None
        value, sigma = scaled(base.functional_value, shift), scaled(base.sigma_hat)
        terms = scaled(_bound(x, f, b)) + abs(shift)
        assert abs(got.functional_value - value) <= 1e-12 * (abs(value) + terms)
        assert got.sigma_hat == pytest.approx(sigma, rel=1e-12)
        mc = scaled(base.mc_stderr)
        assert abs(got.mc_stderr - mc) <= 1e-12 * (mc + terms)
        for end, want in zip(got.ci, base.ci):
            want = scaled(want, shift)
            assert abs(end - want) <= 1e-12 * (abs(want) + terms + sigma)
    elif max(sizes) >= 1024 or -math.inf < sizes[1] < -1075:
        assert got is None
    elif got is not None:
        assert all(map(math.isfinite, (got.functional_value, got.mc_stderr,
                                       got.sigma_hat, *got.ci)))
        assert got.sigma_hat > 0 or base.sigma_hat == 0


@PROPERTY
@given(seed=seeds, d=dims)
def test_square_scales_by_c_to_the_4_at_1e50(seed, d):
    # sigma_f and mc_stderr are near c^4 = 1e200, but the squares of the
    # entries they are taken over are near c^8 and overflow; at order 1
    # every chain of square gives <S^2, B> less its exact Wishart bias, so
    # mc_stderr is rounding of those terms and is compared at their size
    _, x, b = _case(seed, d)
    square, c = get_function("square"), 1e50
    factor = c**4
    for est in (lambda y: _plugin(y, square, b),
                lambda y: _order1(y, square, b, seed)):
        base, scaled = est(x), est(c * x)
        assert all(map(math.isfinite, (scaled.sigma_hat, scaled.mc_stderr)))
        assert _close(scaled.functional_value / factor, base.functional_value,
                      _bound(x, square, b))
        assert _close(scaled.sigma_hat / factor, base.sigma_hat)
        assert _close(scaled.mc_stderr / factor, base.mc_stderr,
                      _bound(x, square, b))


@PROPERTY
@given(seed=seeds, d=dims, fi=st.integers(0, len(FUNCTIONS) - 1))
def test_rotation_and_permutation_leave_value_and_sigma_f(seed, d, fi):
    rng, x, b = _case(seed, d)
    f = FUNCTIONS[fi]
    base = _plugin(x, f, b)
    q = random_orthogonal(rng, d)
    perm = rng.permutation(d)
    for xt, bt in ((x @ q.T, q @ b @ q.T),
                   (x[:, perm], b[np.ix_(perm, perm)])):
        moved = _plugin(xt, f, bt)
        assert _close(moved.functional_value, base.functional_value,
                      _bound(x, f, b))
        assert _close(moved.sigma_hat, base.sigma_hat)


@PROPERTY
@given(seed=seeds, d=dims, fi=st.integers(0, len(FUNCTIONS) - 1),
       a1=st.floats(-3.0, 3.0), a2=st.floats(-3.0, 3.0))
def test_value_is_linear_in_b(seed, d, fi, a1, a2):
    rng, x, b1 = _case(seed, d)
    b2 = random_sym(rng, d)
    f = FUNCTIONS[fi]
    for est in (lambda b: _plugin(x, f, b).functional_value,
                lambda b: _order1(x, f, b, seed).functional_value):
        combo = a1 * est(b1) + a2 * est(b2)
        assert _close(est(a1 * b1 + a2 * b2), combo,
                      abs(a1) * _bound(x, f, b1) + abs(a2) * _bound(x, f, b2))


def test_same_matrix_is_not_psd_everywhere():
    a = np.diag([1.0, -1e-9])
    with pytest.raises(NotPSD):
        psd_factor(a)
    with pytest.raises(NotPSD):
        sigma_f(a, LOG, np.eye(2))
    with pytest.raises(NotPSD):
        effective_rank(a)
    with pytest.raises(NotPSD):
        collect_states(a, 1, 10, 2, RngStream(0))


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_rounding_negative_mode_is_clipped_at_every_scale(scale):
    a = scale * np.diag([1.0, -1e-12])
    np.testing.assert_allclose(psd_factor(a), np.diag([math.sqrt(scale), 0.0]),
                               rtol=1e-12)
    square = get_function("square")
    assert sigma_f(a, square, np.eye(2)) == pytest.approx(
        math.sqrt(2.0) * 2.0 * scale**2, rel=1e-9)
    assert effective_rank(a) == pytest.approx(1.0)


def test_tiny_unit_csv_estimates_log_and_sqrt(tmp_path):
    rng = np.random.default_rng(3)
    x = 1e-7 * rng.standard_normal((50, 3)) * np.array([1.0, 2.0, 3.0])
    p = tmp_path / "tiny.csv"
    np.savetxt(p, x, delimiter=",", fmt="%.17g")
    for fn in ("log", "power:0.5"):
        for k in ("0", "1"):
            assert run_cli(["estimate", "--data", str(p), "--fn", fn,
                            "--k", k, "--chains", "20",
                            "--out", str(tmp_path / "rep.json")]) == 0


@pytest.mark.parametrize("name", ["identity", "log"])
@pytest.mark.parametrize("k", [0, 1])
def test_gram_matrices_beyond_max_over_n_stay_finite(name, k):
    # data scaled by 2^506 put S near 2^1012 I = 4.4e304 I, so X^T X and
    # each chain step's G^T G (near n S, n = 5000) are beyond floating
    # point, while S, the chain states and every answer are not
    z = np.random.default_rng(5).standard_normal((5000, 2))
    base, big = (bias_reduced_estimate(DataMatrix(c * z), get_function(name),
                                       np.eye(2) / 2, k, 20, RngStream(3))
                 for c in (1.0, 2.0 ** 506))
    if name == "identity":
        want, unit = base.functional_value * 2.0 ** 1012, 2.0 ** 1012
    else:  # <log(c S), I/2> = <log S, I/2> + log c
        want, unit = base.functional_value + 1012 * math.log(2.0), 1.0
    assert big.functional_value == pytest.approx(want, rel=1e-12)
    assert big.sigma_hat == pytest.approx(base.sigma_hat * unit, rel=1e-12)
    assert all(map(math.isfinite, (big.mc_stderr, *big.ci)))
