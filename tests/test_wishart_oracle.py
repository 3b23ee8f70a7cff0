from fractions import Fraction

import numpy as np
import pytest

from covfn.estimators import MAX_K, bias_reduced_estimate
from covfn.functions import get_function
from covfn.sampling import RngStream, gaussian_sample, psd_factor
from covfn.symmat import trace_inner_product
from covfn.wishart_oracle import quad_wishart_oracle
from conftest import random_spd, random_sym
from helpers import (
    expected_sandwich,
    expected_square_of_trace,
    expected_trace_of_square,
    expected_trace_times_cov,
)


def _sample_covariances(sigma, n, m, seed):
    """m i.i.d. sample covariances of n Gaussian draws, stacked (m, d, d)."""
    d = sigma.shape[0]
    root = psd_factor(sigma)
    z = RngStream(seed).standard_normal(m, n, d)
    x = z @ root.T
    return np.einsum("rni,rnj->rij", x, x) / n


class TestClosedForms:
    def test_k0_is_paper_closed_form(self, np_rng):
        sigma = random_spd(np_rng, 4)
        n = 37
        out = quad_wishart_oracle(sigma, n, 0).entries
        expected = (np.trace(sigma) * sigma + sigma @ sigma) / n
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_identity_small_case(self):
        out = quad_wishart_oracle(np.eye(2), 10, 0).entries
        np.testing.assert_allclose(out, 0.3 * np.eye(2), atol=1e-14)

    def test_k1_closed_form(self, np_rng):
        # composing the bias operator by hand:
        # bias_1 = -(3 S^2 + tr(S) S) / n^2, bias_2 = +(5 S^2 + 3 tr(S) S) / n^3,
        # bias_3 = -(11 S^2 + 5 tr(S) S) / n^4
        sigma = random_spd(np_rng, 3)
        n = 29
        for k, a, b in ((1, 3.0, 1.0), (2, 5.0, 3.0), (3, 11.0, 5.0)):
            out = quad_wishart_oracle(sigma, n, k).entries
            expected = (-1) ** k * (a * sigma @ sigma
                                    + b * np.trace(sigma) * sigma) / n ** (k + 1)
            np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_matches_exact_rational_arithmetic(self):
        # the 2x2 recursion (a, b) -> ((a + 2b) / n, a / n) on the
        # coefficients of S^2 and tr(S) S, run in exact rationals
        diag = [0.3, 1.7, 2.9]
        exact_diag = [Fraction(x) for x in diag]
        tr = sum(exact_diag)
        for n in (3, 37, 101, 999):
            for k in (5, 20, 40, 62):
                a, b = Fraction(1), Fraction(0)
                for _ in range(k + 1):
                    a, b = (a + 2 * b) / n, a / n
                expected = [float((-1) ** k * (a * x * x + b * tr * x))
                            for x in exact_diag]
                # a numpy int n must not wrap at 64 bits
                out = quad_wishart_oracle(np.diag(diag), np.int64(n), k).entries
                np.testing.assert_allclose(out, np.diag(expected), rtol=1e-15,
                                           atol=0)

    def test_higher_orders_gain_a_power_of_n(self, np_rng):
        # scaling n by c must scale the order-k bias by c^-(k+1)
        sigma = random_spd(np_rng, 3)
        for k in range(4):
            b1 = quad_wishart_oracle(sigma, 100, k).entries
            b2 = quad_wishart_oracle(sigma, 1000, k).entries
            ratio = np.abs(b1).max() / np.abs(b2).max()
            assert ratio == pytest.approx(10.0 ** (k + 1), rel=0.05)

    def test_finite_at_the_largest_order(self):
        for n in (1, 50):
            out = quad_wishart_oracle(np.eye(2), n, MAX_K).entries
            assert np.all(np.isfinite(out)) and np.any(out != 0.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            quad_wishart_oracle(np.eye(2), 0, 0)
        with pytest.raises(ValueError):
            quad_wishart_oracle(np.eye(2), 10, MAX_K + 1)


_MC_M = 10**6
_MC_N = 7


@pytest.fixture(scope="module")
def covs():
    rng = np.random.default_rng(8675309)
    sigma = random_spd(rng, 3, lo=0.5, hi=2.0)
    return sigma, _sample_covariances(sigma, _MC_N, _MC_M, 424242)


class TestMonteCarloValidation:
    """Validate the fourth-moment identities behind the oracle against a
    high-replicate Monte Carlo oracle (5 stderr), d = 3."""

    M = _MC_M
    N = _MC_N

    def test_sandwich_moment(self, covs):
        sigma, s = covs
        rng = np.random.default_rng(99)
        a = random_sym(rng, 3)
        samples = np.einsum("rij,jk,rkl->ril", s, a, s)
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(self.M)
        expected = expected_sandwich(sigma, a, self.N).entries
        assert np.all(np.abs(mean - expected) <= 5.0 * stderr)

    def test_trace_times_cov_moment(self, covs):
        sigma, s = covs
        samples = np.einsum("rii->r", s)[:, None, None] * s
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(self.M)
        expected = expected_trace_times_cov(sigma, self.N).entries
        assert np.all(np.abs(mean - expected) <= 5.0 * stderr)

    def test_trace_of_square_moment(self, covs):
        sigma, s = covs
        samples = np.einsum("rij,rji->r", s, s)
        mean = samples.mean()
        stderr = samples.std(ddof=1) / np.sqrt(self.M)
        assert abs(mean - expected_trace_of_square(sigma, self.N)) <= 5.0 * stderr

    def test_square_of_trace_moment(self, covs):
        sigma, s = covs
        samples = np.einsum("rii->r", s) ** 2
        mean = samples.mean()
        stderr = samples.std(ddof=1) / np.sqrt(self.M)
        assert abs(mean - expected_square_of_trace(sigma, self.N)) <= 5.0 * stderr

    def test_oracle_matches_the_moment_functions(self, np_rng):
        # B = T - I applied once and twice through the moment identities
        # validated above: B S^2 = E[S^2] - S^2, B (tr(S) S) = E[tr(S) S]
        # - tr(S) S, and B^2 S^2 = (B S^2 + B (tr(S) S)) / n
        sigma = random_spd(np_rng, 3)
        n = 13
        bias_sq = expected_sandwich(sigma, np.eye(3), n).entries - sigma @ sigma
        bias_tr = (expected_trace_times_cov(sigma, n).entries
                   - np.trace(sigma) * sigma)
        np.testing.assert_allclose(quad_wishart_oracle(sigma, n, 0).entries,
                                   bias_sq, rtol=1e-12)
        np.testing.assert_allclose(quad_wishart_oracle(sigma, n, 1).entries,
                                   -(bias_sq + bias_tr) / n, rtol=1e-12)


class TestOracleAgainstEstimator:
    def test_mc_bias_matches_oracle(self):
        # moderate-size version of the full agreement check: d=2, n=50,
        # k=1, compare the MC-estimated bias of the estimator to the
        # exact oracle within 5 combined stderr
        sigma = np.diag([1.0, 2.0])
        b = np.diag([1.0, 0.0])
        f = get_function("square")
        n, k, m, nchains = 50, 1, 3000, 100
        root = psd_factor(sigma)
        base = RngStream(777)
        vals = np.empty(m)
        for r in range(m):
            data = gaussian_sample(root, n, base.spawn(2 * r))
            rep = bias_reduced_estimate(data, f, b, k, nchains,
                                        base.spawn(2 * r + 1))
            vals[r] = rep.functional_value
        truth = trace_inner_product(sigma @ sigma, b)
        bias_mc = vals.mean() - truth
        stderr = vals.std(ddof=1) / np.sqrt(m)
        bias_exact = trace_inner_product(quad_wishart_oracle(sigma, n, k), b)
        assert abs(bias_mc - bias_exact) <= 5.0 * stderr
