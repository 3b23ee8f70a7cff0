import numpy as np
import pytest

from covfn.estimators import bias_reduced_estimate
from covfn.functions import get_function
from covfn.sampling import RngStream, gaussian_sample, psd_factor
from covfn.symmat import trace_inner_product
from covfn.wishart_oracle import (
    evaluate_quad_family,
    expected_sandwich,
    expected_square_of_trace,
    expected_trace_of_square,
    expected_trace_times_cov,
    quad_wishart_oracle,
    wishart_transfer_matrix,
)
from conftest import random_spd, random_sym


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
        # composing the bias operator twice by hand:
        # bias_1 = -(tr(S) S + 3 S^2) / n^2
        sigma = random_spd(np_rng, 3)
        n = 29
        out = quad_wishart_oracle(sigma, n, 1).entries
        expected = -(np.trace(sigma) * sigma + 3.0 * sigma @ sigma) / n**2
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_higher_orders_gain_a_power_of_n(self, np_rng):
        # scaling n by c must scale the order-k bias by c^-(k+1)
        sigma = random_spd(np_rng, 3)
        for k in range(4):
            b1 = quad_wishart_oracle(sigma, 100, k).entries
            b2 = quad_wishart_oracle(sigma, 1000, k).entries
            ratio = np.abs(b1).max() / np.abs(b2).max()
            assert ratio == pytest.approx(10.0 ** (k + 1), rel=0.05)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            quad_wishart_oracle(np.eye(2), 0, 0)
        with pytest.raises(ValueError):
            quad_wishart_oracle(np.eye(2), 10, 21)


class TestEvaluateFamily:
    def test_basis_evaluation(self, np_rng):
        sigma = random_spd(np_rng, 3)
        s = sigma
        tr = np.trace(s)
        tr2 = np.trace(s @ s)
        combos = np.eye(7)
        expected = [
            s @ s, tr * s, tr2 * np.eye(3), tr**2 * np.eye(3),
            s, tr * np.eye(3), np.eye(3),
        ]
        for coefs, want in zip(combos, expected):
            np.testing.assert_allclose(
                evaluate_quad_family(coefs, sigma).entries, want, rtol=1e-12)


_MC_M = 10**6
_MC_N = 7


@pytest.fixture(scope="module")
def covs():
    rng = np.random.default_rng(8675309)
    sigma = random_spd(rng, 3, lo=0.5, hi=2.0)
    return sigma, _sample_covariances(sigma, _MC_N, _MC_M, 424242)


class TestMonteCarloValidation:
    """Validate every coefficient of the one-step expectation map against
    a high-replicate Monte Carlo oracle (5 stderr), d = 3."""

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

    def test_transfer_matrix_consistent_with_moment_functions(self, np_rng):
        # the 7x7 map must agree with the standalone closed forms on the
        # first four basis elements
        sigma = random_spd(np_rng, 3)
        n = 13
        t = wishart_transfer_matrix(n)
        for col, direct in (
            (0, lambda: expected_sandwich(sigma, np.eye(3), n).entries),
            (1, lambda: expected_trace_times_cov(sigma, n).entries),
            (2, lambda: expected_trace_of_square(sigma, n) * np.eye(3)),
            (3, lambda: expected_square_of_trace(sigma, n) * np.eye(3)),
        ):
            coefs = np.zeros(7)
            coefs[col] = 1.0
            via_matrix = evaluate_quad_family(t @ coefs, sigma).entries
            np.testing.assert_allclose(via_matrix, direct(), rtol=1e-12)


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
