import math

import numpy as np
import pytest

from covfn.errors import BadAlpha, DomainError
from covfn.estimators import (
    bias_reduced_estimate,
    confidence_interval,
    hockey_stick_weight_ints,
    hockey_stick_weights,
    plugin_estimate,
    sigma_f,
)
from covfn.functions import get_function
from covfn.sampling import (
    DataMatrix,
    RngStream,
    chain_eigenpairs,
    gaussian_sample,
    psd_factor,
    sample_covariance,
)
from covfn.symmat import apply_scalar_function, eigh, trace_inner_product
from conftest import from_eigenpairs, random_spd, random_sym

IDENTITY = get_function("identity")
SQUARE = get_function("square")
LOG = get_function("log")


def brute_force_weights(k):
    """Collapse sum_j (-1)^j (bias operator)^j onto one chain directly.

    The j-th term expands over chain states as
    sum_{i<=j} (-1)^{j-i} C(j, i) f(state_i); collecting state i across j
    gives the weight of state i.
    """
    weights = [0] * (k + 1)
    for j in range(k + 1):
        for i in range(j + 1):
            weights[i] += (-1) ** j * (-1) ** (j - i) * math.comb(j, i)
    return weights


class TestHockeyStickWeights:
    def test_first_values(self):
        assert hockey_stick_weight_ints(0) == [1]
        assert hockey_stick_weight_ints(1) == [2, -1]
        assert hockey_stick_weight_ints(2) == [3, -3, 1]

    @pytest.mark.parametrize("k", range(7))
    def test_matches_brute_force_expansion(self, k):
        assert hockey_stick_weight_ints(k) == brute_force_weights(k)

    def test_sums_to_one_exactly(self):
        for k in range(63):
            assert sum(hockey_stick_weight_ints(k)) == 1

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            hockey_stick_weight_ints(63)
        with pytest.raises(ValueError):
            hockey_stick_weights(-1)


class TestConfidenceInterval:
    def test_one_sigma_level(self):
        alpha = 2 * (1 - 0.8413447460685429)  # so that z = 1
        lo, hi = confidence_interval(0.0, 1.0, 1, alpha)
        assert lo == pytest.approx(-1.0, abs=1e-8)
        assert hi == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_sigma(self):
        assert confidence_interval(5.0, 0.0, 37, 0.5) == (5.0, 5.0)

    def test_standard_95(self):
        lo, hi = confidence_interval(0.0, 2.0, 100, 0.05)
        assert hi == pytest.approx(1.9599639845400545 * 2.0 / 10.0, abs=1e-6)
        assert hi == pytest.approx(0.392, abs=5e-4)
        assert lo == -hi

    def test_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(BadAlpha):
                confidence_interval(0.0, 1.0, 10, alpha)


class TestSigmaF:
    def test_identity_function_at_identity(self, np_rng):
        b = random_sym(np_rng, 4)
        expected = np.sqrt(2.0) * np.linalg.norm(b)
        assert sigma_f(np.eye(4), IDENTITY, b) == pytest.approx(expected, rel=1e-12)

    def test_square_at_identity(self, np_rng):
        b = random_sym(np_rng, 4)
        expected = 2.0 * np.sqrt(2.0) * np.linalg.norm(b)
        assert sigma_f(np.eye(4), SQUARE, b) == pytest.approx(expected, rel=1e-12)

    def test_log_hand_evaluation(self):
        b = np.diag([1.0, 0.0])
        assert sigma_f(np.diag([1.0, 4.0]), LOG, b) == pytest.approx(np.sqrt(2.0),
                                                                     rel=1e-12)
        assert sigma_f(eigh(np.diag([1.0, 4.0])), LOG, b) == pytest.approx(
            np.sqrt(2.0), rel=1e-12)

    def test_homogeneous_in_b(self, np_rng):
        sigma = random_spd(np_rng, 5)
        b = random_sym(np_rng, 5)
        for c in (3.0, -0.25):
            assert sigma_f(sigma, LOG, c * b) == pytest.approx(
                abs(c) * sigma_f(sigma, LOG, b), rel=1e-12)

    def test_identity_function_general_sigma(self, np_rng):
        sigma = random_spd(np_rng, 5)
        b = random_sym(np_rng, 5)
        root = psd_factor(sigma)
        expected = np.sqrt(2.0) * np.linalg.norm(root @ b @ root)
        assert sigma_f(sigma, IDENTITY, b) == pytest.approx(expected, rel=1e-9)

    def test_matches_finite_difference_derivative(self, np_rng):
        # cross-check the Loewner route against a finite-difference Df
        sigma = random_spd(np_rng, 4, lo=1.0, hi=2.0)
        b = random_sym(np_rng, 4)
        h = 1e-6
        fp = apply_scalar_function(eigh(sigma + h * b), LOG).entries
        fm = apply_scalar_function(eigh(sigma - h * b), LOG).entries
        df = (fp - fm) / (2 * h)
        root = psd_factor(sigma)
        expected = np.sqrt(2.0) * np.linalg.norm(root @ df @ root)
        assert sigma_f(sigma, LOG, b) == pytest.approx(expected, rel=1e-5)


class TestPluginEstimate:
    def test_identity_picks_covariance_entry(self, np_rng):
        x = DataMatrix(np_rng.standard_normal((20, 3)))
        b = np.zeros((3, 3))
        b[0, 0] = 1.0
        rep = plugin_estimate(x, IDENTITY, b)
        assert rep.functional_value == pytest.approx(
            sample_covariance(x).entries[0, 0], rel=1e-12)
        assert rep.estimator_kind == "plugin"
        assert rep.mc_stderr == 0.0
        lo, hi = rep.ci
        assert lo <= rep.functional_value <= hi

    def test_single_row_square_trace(self, np_rng):
        row = np_rng.standard_normal(4)
        rep = plugin_estimate(DataMatrix(row[None, :]), SQUARE, np.eye(4))
        assert rep.functional_value == pytest.approx(np.sum(row**2) ** 2, rel=1e-10)

    def test_log_singular_covariance_rejected(self, np_rng):
        # n < d makes the sample covariance singular
        x = DataMatrix(np_rng.standard_normal((2, 4)))
        with pytest.raises(DomainError):
            plugin_estimate(x, LOG, np.eye(4) / 4)


class TestBiasReducedEstimate:
    def test_k0_equals_plugin_exactly(self, np_rng):
        for case in range(100):
            d = int(np_rng.integers(2, 6))
            n = int(np_rng.integers(d + 1, 30))
            x = DataMatrix(np_rng.standard_normal((n, d)))
            b = random_sym(np_rng, d)
            f = (IDENTITY, SQUARE, get_function("exp"))[case % 3]
            rep0 = bias_reduced_estimate(x, f, b, 0, 50, RngStream(case))
            repp = plugin_estimate(x, f, b)
            assert rep0.functional_value == repp.functional_value
            assert rep0.sigma_hat == repp.sigma_hat
            assert rep0.ci == repp.ci
            assert rep0.mc_stderr == 0.0

    def test_linear_functional_is_unbiased(self, np_rng):
        # identity f: every chain step preserves the expectation, so the
        # weighted combination deviates from <cov, B> only by MC noise
        sigma = np.diag([1.0, 2.0, 0.5])
        x = gaussian_sample(psd_factor(sigma), 200, RngStream(3))
        b = np.diag([1.0, 1.0, 0.0]) / 2.0
        target = trace_inner_product(sample_covariance(x), b)
        rep = bias_reduced_estimate(x, IDENTITY, b, 2, 400, RngStream(4))
        assert abs(rep.functional_value - target) <= 5.0 * rep.mc_stderr

    def test_chains_are_batch_invariant(self, np_rng):
        # chain r of a batch equals chain r of a batch of r chains, the
        # first t steps of a chain do not depend on its length, and the
        # report is the weighted chain mean with its standard error
        x = DataMatrix(np_rng.standard_normal((30, 3)))
        b = random_sym(np_rng, 3)
        k, nchains = 2, 8
        rng = RngStream(55)
        start = sample_covariance(x)
        lam, u = chain_eigenpairs(start, k, 30, nchains, rng)
        for r in range(1, nchains + 1):
            lam_r, u_r = chain_eigenpairs(start, k, 30, r, rng)
            np.testing.assert_array_equal(lam_r[r - 1], lam[r - 1])
            np.testing.assert_array_equal(u_r[r - 1], u[r - 1])
        lam3, u3 = chain_eigenpairs(start, 3, 30, nchains, rng)
        for t in range(4):
            lam_t, u_t = chain_eigenpairs(start, t, 30, nchains, rng)
            np.testing.assert_array_equal(lam3[:, :t + 1], lam_t)
            np.testing.assert_array_equal(u3[:, :t + 1], u_t)
        weights = hockey_stick_weights(k)
        ys = []
        for r in range(nchains):
            states = from_eigenpairs(lam[r], u[r])
            vals = [trace_inner_product(apply_scalar_function(eigh(st), SQUARE), b)
                    for st in states]
            ys.append(float(np.dot(weights, vals)))
        rep = bias_reduced_estimate(x, SQUARE, b, k, nchains, rng)
        assert rep.functional_value == pytest.approx(np.mean(ys), rel=1e-12)
        assert rep.mc_stderr == pytest.approx(
            np.std(ys, ddof=1) / np.sqrt(nchains), rel=1e-12)

    def test_domain_failures_abort(self, np_rng):
        # n < d: every chain state is singular, so log fails on all chains
        x = DataMatrix(np_rng.standard_normal((2, 3)))
        with pytest.raises(DomainError):
            bias_reduced_estimate(x, LOG, np.eye(3) / 3, 1, 20, RngStream(0))

    def test_any_chain_leaving_the_domain_raises(self):
        # Sigma_hat = diag(1, 1e-6) from n = 2 rows: on RngStream(7), 2 of
        # the 200 order-1 chains step to a state whose small eigenvalue is
        # below log's domain margin.  Dropping them would condition the
        # chain mean.
        x = DataMatrix(np.sqrt(2.0) * np.array([[1.0, 0.0], [0.0, 1e-3]]))
        assert plugin_estimate(x, LOG, np.eye(2) / 2).functional_value == (
            pytest.approx(-3.0 * np.log(10.0)))
        with pytest.raises(DomainError, match="2 of 200 chains .* 'log'"):
            bias_reduced_estimate(x, LOG, np.eye(2) / 2, 1, 200, RngStream(7))

    def test_report_provenance(self, np_rng):
        x = DataMatrix(np_rng.standard_normal((25, 2)))
        rep = bias_reduced_estimate(x, SQUARE, np.eye(2) / 2, 1, 30,
                                    RngStream(99, 7), alpha=0.1)
        assert (rep.n, rep.d, rep.k, rep.chains) == (25, 2, 1, 30)
        assert rep.master_seed == 99 and rep.stream_id == 7
        assert rep.alpha == 0.1
        lo, hi = rep.ci
        assert lo <= rep.functional_value <= hi

    def test_reproducible(self, np_rng):
        x = DataMatrix(np_rng.standard_normal((25, 2)))
        r1 = bias_reduced_estimate(x, SQUARE, np.eye(2) / 2, 1, 30, RngStream(5))
        r2 = bias_reduced_estimate(x, SQUARE, np.eye(2) / 2, 1, 30, RngStream(5))
        assert r1.functional_value == r2.functional_value
        assert r1.mc_stderr == r2.mc_stderr
