import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import covfn.estimators
import covfn.sampling
import covfn.symmat
from covfn.errors import BadAlpha, DomainError, NumericOverflow
from covfn.estimators import (
    MAX_K,
    _eig_step,
    bias_reduced_estimate,
    confidence_interval,
    hockey_stick_weight_ints,
    hockey_stick_weights,
    sigma_f,
)
from covfn.functions import get_function, parse_function_spec
from covfn.sampling import (
    DataMatrix,
    RngStream,
    gaussian_sample,
    psd_factor,
    sample_covariance,
)
from covfn.symmat import (
    check_domain,
    eigh,
    spectral_terms,
    trace_inner_product,
)
from conftest import random_orthogonal, random_spd, random_sym
from helpers import (apply_scalar_function, collect_states, frechet_derivative,
                     loewner_first_difference, plugin_estimate,
                     quad_wishart_oracle, step_terms)

IDENTITY = get_function("identity")
SQUARE = get_function("square")
POWER2 = parse_function_spec("power:2")
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

    def test_tail_sums_are_signed_binomials(self):
        # the weight of step t's linear term is sum_{i>=t} c_{k,i}
        for k in range(63):
            ints = hockey_stick_weight_ints(k)
            assert [sum(ints[t:]) for t in range(k + 1)] == [
                (-1) ** t * math.comb(k, t) for t in range(k + 1)]

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            hockey_stick_weight_ints(63)
        with pytest.raises(ValueError):
            hockey_stick_weights(-1)


# Phi^{-1}(1 - alpha/2) at the double 1 - alpha/2, computed with mpmath at
# 50 digits
NORMAL_QUANTILES = {
    0.05: 1.9599639845400538,
    0.01: 2.5758293035489004,
    0.1: 1.6448536269514722,
    0.37: 0.896473364001916,
    1e-6: 4.891638475714779,
}


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
        for alpha, z in NORMAL_QUANTILES.items():
            lo, hi = confidence_interval(0.0, 1.0, 1, alpha)
            assert hi == pytest.approx(z, rel=2e-15) and lo == -hi, alpha

    def test_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.2, 1.5, 1e-300, 2.0**-53, float("nan")):
            with pytest.raises(BadAlpha):
                confidence_interval(0.0, 1.0, 10, alpha)

    def test_the_smallest_usable_alpha(self):
        # just above 2^-53, 1 - alpha/2 is the double below 1, whose
        # quantile is about 8.21
        lo, hi = confidence_interval(0.0, 1.0, 1, np.nextafter(2.0**-53, 1.0))
        assert 8.0 < hi < 8.5 and lo == -hi


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

    def test_no_sum_of_f_beyond_floating_point(self):
        # power:2 on data scaled by 2^256, with a B of mixed signs: f of the
        # largest eigenvalues is beyond floating point, and sigma_f, which
        # sums no <f(Sigma), B>, raises NumericOverflow before numpy can
        # warn of inf - inf (an error under this suite)
        z = np.random.default_rng(33).standard_normal((30, 3))
        a = np.random.default_rng(3).standard_normal((3, 3))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericOverflow, match="^sigma_f of 'power' over"):
                sigma_f(sample_covariance(DataMatrix(2.0**256 * z)),
                        parse_function_spec("power:2"), (a + a.T) / 2)


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


def one_product_terms(lam, u, f, b, n, s):
    """_eig_step's terms of the steps from U diag(lam) U^T to each state
    of s, with B in that basis formed as ``spectral_terms`` forms it, each
    y 2^top of its (y, top)."""
    return np.ldexp(*_eig_step(lam, u, np.swapaxes(u, -1, -2) @ (b @ u), f, n, s))


class TestOneProductStep:
    # each step's l_t + q_t - E[q_t] takes one product per state, (L o Dt)
    # Dt; the d^3 tensor of second differences, with its tied pairs i != l
    # taken out, is the oracle
    NAMES = ["log", "exp", "power:0.5", "power:-1", "smoothstep:0.5,2,0.5",
             "power:2"]

    @staticmethod
    def states(lam, u, n, nchains, seed):
        start = u @ np.diag(lam) @ u.T
        return collect_states(start, 2, n, nchains, RngStream(seed))

    @pytest.mark.parametrize("name", NAMES)
    def test_distinct_eigenvalues_give_the_tensors_terms(self, np_rng, name):
        f = parse_function_spec(name)
        d, n = 5, 12
        lam = np.array([0.6, 0.9, 1.3, 1.8, 2.4])
        u = random_orthogonal(np_rng, d)
        b = random_sym(np_rng, d)  # not diagonal
        states = self.states(lam, u, n, 40, 3)
        # step 1 from the one start, and step 2 from each chain's own S_1
        dec = eigh(states[:, 0])
        for lam_t, u_t, s in ((lam, u, states[:, 0]),
                              (dec.eigenvalues, dec.eigenvectors, states[:, 1])):
            lin, q, mean = step_terms(lam_t, u_t, f, b, n, s)
            scale = np.abs(lin) + np.abs(q) + np.abs(mean)
            np.testing.assert_allclose(one_product_terms(lam_t, u_t, f, b, n, s),
                                       lin + q - mean, rtol=1e-12,
                                       atol=1e-12 * scale.max())

    @pytest.mark.parametrize("name", ["log", "exp", "square"])
    def test_tied_pairs_drop_out(self, np_rng, name):
        # exactly repeated eigenvalues: the tied pair's terms are 0 in the
        # one-product form and are taken out of the oracle's tensor, whose
        # mean never read them
        f = dataclasses.replace(get_function(name), coefficients=None)
        d, n = 4, 12
        lam = np.array([1.0, 1.0, 2.0, 3.0])
        u = random_orthogonal(np_rng, d)
        b = random_sym(np_rng, d)
        s = self.states(lam, u, n, 40, 4)[:, 0]
        lin, q, mean = step_terms(lam, u, f, b, n, s)
        _, q_all, _ = step_terms(lam, u, f, b, n, s, drop_ties=False)
        assert np.abs(q - q_all).max() > 1e-3 * np.abs(q).max()
        np.testing.assert_allclose(one_product_terms(lam, u, f, b, n, s),
                                   lin + q - mean, rtol=1e-12,
                                   atol=1e-12 * np.abs(q_all).max())

    @pytest.mark.parametrize("name", ["exp", "square"])
    def test_zero_eigenvalues_with_fewer_rows_than_columns(self, np_rng, name):
        # n < d: S_0 has d - n eigenvalues at the rounding level, all tied,
        # and no step moves the state along their eigenvectors
        f = dataclasses.replace(get_function(name), coefficients=None)
        d, n = 6, 3
        x = DataMatrix(np_rng.standard_normal((n, d)))
        b = random_sym(np_rng, d)
        start = eigh(sample_covariance(x))
        lam, u = start.eigenvalues, start.eigenvectors
        assert np.abs(lam[:d - n]).max() < 1e-14 * lam.max()
        s = collect_states(start, 1, n, 40, RngStream(5))[:, 0]
        lin, q, mean = step_terms(lam, u, f, b, n, s)
        scale = np.abs(lin) + np.abs(q) + np.abs(mean)
        np.testing.assert_allclose(one_product_terms(lam, u, f, b, n, s),
                                   lin + q - mean, rtol=1e-12,
                                   atol=1e-12 * scale.max())

    @pytest.mark.parametrize("name", ["log", "exp"])
    @pytest.mark.parametrize("gap", [1e-7, 1e-5])
    def test_near_tied_eigenvalues_within_the_tensors_rounding(
            self, np_rng, name, gap):
        # a gap just past LOEWNER_GAP is divided, and both forms divide
        # first differences that agree to rounding by it: they agree to
        # about eps sum |Dt_ij Dt_jl Bt_li| (E_ij + E_jl) / |lam_i - lam_l|,
        # E_ij = |L_ij| + (|f(lam_i)| + |f(lam_j)|) / |lam_i - lam_j| the
        # rounding of L_ij.  The eigenvalues lie in [1, 2), where log's
        # grid is the eigenvalues themselves, as the tensor's is
        f = get_function(name)
        d, n = 4, 12
        lam = np.array([1.0, 1.0 + gap, 1.5, 1.9])
        u = random_orthogonal(np_rng, d)
        b = random_sym(np_rng, d)
        s = self.states(lam, u, n, 40, 6)[:, 0]
        lin, q, mean = step_terms(lam, u, f, b, n, s)
        dt = np.abs(u.T @ s @ u - np.diag(lam))
        bt = np.abs(u.T @ b @ u)
        gaps = np.abs(lam[:, None] - lam)
        inv = np.divide(1.0, gaps, out=np.zeros_like(gaps), where=gaps > 0)
        fv = np.abs(f.eval(lam))
        err = np.abs(loewner_first_difference(lam, f)) + (fv[:, None] + fv) * inv
        rounding = np.finfo(float).eps * (
            np.einsum("nij,njl,li,ij,il->n", dt, dt, bt, err, inv)
            + np.einsum("nij,njl,li,jl,il->n", dt, dt, bt, err, inv))
        got = one_product_terms(lam, u, f, b, n, s)
        assert np.all(np.abs(got - (lin + q - mean))
                      <= 4.0 * rounding + 1e-13 * np.abs(lin)), name
        # and the divided differences are what leaves the 1e-12 of the
        # distinct case: each is more than that here
        assert rounding.max() > 1e-12 * np.abs(lin + q - mean).max()

    @pytest.mark.parametrize("name", ["log", "power:0.5", "power:-1"])
    @pytest.mark.parametrize("j", [500, -500])
    def test_terms_scale_with_the_data_across_the_range(self, np_rng, name, j):
        # data scaled by 2^j scales S and each step by 2^(2j), and f of
        # degree h scales every term by 2^(2 j h): L, R and F_iji are taken
        # on the eigenvalues divided by a power of two, so the terms are
        # finite at data scales 2^(+-500) and agree with those at scale 1,
        # which the tensor gives
        f = parse_function_spec(name)
        d, n = 5, 12
        lam = np.array([0.6, 0.9, 1.3, 1.8, 2.4])
        u = random_orthogonal(np_rng, d)
        b = random_sym(np_rng, d)
        s = self.states(lam, u, n, 40, 7)[:, 0]
        one = one_product_terms(lam, u, f, b, n, s)
        c2 = 2.0 ** (2 * j)
        scaled = one_product_terms(lam * c2, u, f, b, n, s * c2)
        assert np.all(np.isfinite(scaled))
        np.testing.assert_allclose(scaled, one * 2.0 ** (2 * j * f.degree),
                                   rtol=1e-12, atol=0)
        lin, q, mean = step_terms(lam, u, f, b, n, s)
        np.testing.assert_allclose(one, lin + q - mean, rtol=1e-12,
                                   atol=1e-12 * np.abs(lin).max())


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
        # identity f: the linear term is the whole functional, so once it
        # is subtracted every chain gives <cov, B> up to rounding.  Without
        # its coefficients identity runs the chains
        sigma = np.diag([1.0, 2.0, 0.5])
        x = gaussian_sample(psd_factor(sigma), 200, RngStream(3))
        b = np.diag([1.0, 1.0, 0.0]) / 2.0
        target = trace_inner_product(sample_covariance(x), b)
        rep = bias_reduced_estimate(
            x, dataclasses.replace(IDENTITY, coefficients=None), b, 2, 400,
            RngStream(4))
        assert rep.functional_value == pytest.approx(target, rel=1e-12)
        assert rep.mc_stderr <= 1e-12 * abs(target)

    @pytest.mark.parametrize("f", [POWER2, LOG], ids=["power:2", "log"])
    def test_chains_are_batch_invariant(self, np_rng, f):
        # chain r of a batch equals chain r of a batch of r chains, the
        # first t steps of a chain do not depend on its length, and the
        # report is the weighted chain mean with its standard error
        x = DataMatrix(np_rng.standard_normal((30, 3)))
        b = random_sym(np_rng, 3)
        k, nchains = 2, 8
        rng = RngStream(55)
        start = sample_covariance(x)
        chains = collect_states(start, k, 30, nchains, rng)
        for r in range(1, nchains + 1):
            np.testing.assert_array_equal(
                collect_states(start, k, 30, r, rng)[r - 1], chains[r - 1])
        chains3 = collect_states(start, 3, 30, nchains, rng)
        for t in range(4):
            np.testing.assert_array_equal(
                chains3[:, :t], collect_states(start, t, 30, nchains, rng))
        weights = hockey_stick_weights(k)
        ys = []
        for r in range(nchains):
            states = [start.entries, *chains[r]]
            vals = [trace_inner_product(apply_scalar_function(eigh(st), f), b)
                    for st in states]
            # l_t = <S_t - S_{t-1}, Df(S_{t-1}; B)> and q_t - E[q_t | S_{t-1}]
            # from the tensor, weighted by sum_{i>=t} c_i
            lin = []
            for prev, st in zip(states, states[1:]):
                dec = eigh(prev)
                _, q, mean = step_terms(dec.eigenvalues, dec.eigenvectors, f, b,
                                        30, st)
                lin.append(trace_inner_product(
                    st - prev, frechet_derivative(dec, f, b)) + q - mean)
            ys.append(float(np.dot(weights, vals)) - sum(
                weights[t:].sum() * lin[t - 1] for t in range(1, k + 1)))
        rep = bias_reduced_estimate(x, f, b, k, nchains, rng)
        assert rep.functional_value == pytest.approx(np.mean(ys), rel=1e-12)
        assert rep.mc_stderr == pytest.approx(
            np.std(ys, ddof=1) / np.sqrt(nchains), rel=1e-12)

    def test_domain_failures_abort(self, np_rng):
        # n < d: the sample covariance is singular, so log fails on it
        x = DataMatrix(np_rng.standard_normal((2, 3)))
        with pytest.raises(DomainError, match="^1 of 3 eigenvalues of the "
                           "sample covariance left"):
            bias_reduced_estimate(x, LOG, np.eye(3) / 3, 1, 20, RngStream(0))

    def test_any_chain_leaving_the_domain_raises(self):
        # Sigma_hat = diag(1, 1e-8) from n = 2 rows: on RngStream(7), 4 of
        # the 200 order-1 chains step to a state whose small eigenvalue is
        # below log's domain margin.  Dropping them would condition the
        # chain mean.
        x = DataMatrix(np.sqrt(2.0) * np.array([[1.0, 0.0], [0.0, 1e-4]]))
        assert plugin_estimate(x, LOG, np.eye(2) / 2).functional_value == (
            pytest.approx(-4.0 * np.log(10.0)))
        with pytest.raises(DomainError, match="4 of 200 chains .* 'log'"):
            bias_reduced_estimate(x, LOG, np.eye(2) / 2, 1, 200, RngStream(7))

    @pytest.mark.parametrize("name", ["log", "power:0.5", "power:-1"])
    @pytest.mark.parametrize("k, left", [(1, 4), (2, 10), (3, 29)])
    def test_a_chain_leaving_the_domain_before_its_last_step_raises(
            self, name, k, left):
        # every state's <f(S_t), B>, and the states before the last one
        # also give the next step's D: f and its Loewner matrix are taken
        # only inside f's domain, so no numpy warning (an error under this
        # suite) comes before the one DomainError, which counts every chain
        # that left at any step, the last one included
        x = DataMatrix(np.sqrt(2.0) * np.array([[1.0, 0.0], [0.0, 1e-4]]))
        lam = eigh(collect_states(eigh(sample_covariance(x)), k, x.n, 200,
                                  RngStream(7))).eigenvalues
        if k >= 2:
            with pytest.raises(DomainError):  # a state before the last left
                check_domain(lam[:, :k - 1], LOG, "chains")
        with pytest.raises(DomainError, match=f"^{left} of 200 chains"):
            bias_reduced_estimate(x, parse_function_spec(name), np.eye(2) / 2,
                                  k, 200, RngStream(7))

    @pytest.mark.parametrize("name", ["log", "power:0.5", "power:-1"])
    def test_f_is_not_taken_of_a_last_state_outside_its_domain(self, name):
        # Sigma_hat has eigenvalues 1 and 1e-11 in a rotated basis.  On
        # RngStream(6), 62 of the 200 order-1 chains step out of the
        # domain, and the eigenvalues of their states include a negative
        # one and an exact 0, where each f warns (an error under this
        # suite); the in-block <f(S_1), B> must not see them
        c, s = np.cos(1.0), np.sin(1.0)
        rows = np.sqrt(2.0) * np.array([[1.0, 0.0], [0.0, np.sqrt(1e-11)]])
        x = DataMatrix(rows @ np.array([[c, s], [-s, c]]))
        lam = eigh(collect_states(eigh(sample_covariance(x)), 1, x.n, 200,
                                  RngStream(6))).eigenvalues
        assert lam.min() < 0 and np.any(lam == 0)
        with pytest.raises(DomainError, match="^62 of 200 chains"):
            bias_reduced_estimate(x, parse_function_spec(name), np.eye(2) / 2,
                                  1, 200, RngStream(6))

    def test_each_linear_term_has_mean_zero(self):
        # a chain is a martingale, so l_t = <S_t - S_{t-1}, Df(S_{t-1}; B)>
        # has mean 0 given S_{t-1}: over 20000 chains each step's mean is
        # within 5 standard errors of 0, while its spread is not 0
        d, n, k, nchains = 8, 40, 3, 20000
        sigma = np.diag(np.linspace(1.0, 3.0, d))
        x = gaussian_sample(psd_factor(sigma), n, RngStream(8))
        b = np.zeros((d, d))
        b[0, 0] = 1.0
        start = sample_covariance(x).entries
        states = collect_states(start, k, n, nchains, RngStream(9))
        prev = np.broadcast_to(start, states[:, 0].shape)
        for t in range(k):
            dec = eigh(prev)
            u = dec.eigenvectors
            ut = np.swapaxes(u, -1, -2)
            dmat = u @ (loewner_first_difference(dec.eigenvalues, LOG)
                        * (ut @ b @ u)) @ ut
            lin = np.sum((states[:, t] - prev) * dmat, axis=(-2, -1))
            se = lin.std(ddof=1) / np.sqrt(nchains)
            assert se > 0 and abs(lin.mean()) <= 5.0 * se, (t, lin.mean(), se)
            prev = states[:, t]

    @pytest.mark.parametrize("name", ["log", "exp", "square", "cube"])
    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_the_second_order_term_has_mean_zero(self, np_rng, name, t, tied):
        # a Wishart step's second moments are known, so q_t - E[q_t | S_{t-1}]
        # has mean 0: over 20000 chains its mean is within 5 standard errors
        # of 0, while q_t's own mean is not.  At t = 2 every chain steps
        # from its own S_1.  On the first 100 chains the step's one-product
        # terms give the tensor's values to rounding.  S_0 = I ties every
        # pair of its eigenvalues: their pairs i != l drop out of q_1, but
        # never entered its mean.  square and cube are taken without their
        # coefficients, which is how they run chains
        d, n, nchains = 4, 20, 20000
        f = dataclasses.replace(get_function(name), coefficients=None)
        if tied:  # S_0 = I exactly
            x = DataMatrix(np.repeat(2.0 * np.eye(d), n // d, axis=0))
        else:
            x = gaussian_sample(psd_factor(np.diag([0.5, 1.0, 1.5, 2.0])), n,
                                RngStream(8))
        b = random_sym(np_rng, d) + np.eye(d)  # not diagonal
        s0 = sample_covariance(x).entries
        states = collect_states(s0, t, n, nchains, RngStream(9))
        prev, st = (s0 if t == 1 else states[:, t - 2]), states[:, t - 1]
        dec = eigh(prev)
        lam, u = dec.eigenvalues, dec.eigenvectors
        _, bt = spectral_terms(lam, u, f, b, True)
        deriv = u @ (loewner_first_difference(lam, f) * bt) @ np.swapaxes(u, -1, -2)
        lin = np.sum((st - prev) * deriv, axis=(-2, -1))
        q_less_mean = np.ldexp(*_eig_step(lam, u, bt, f, n, st)) - lin
        few = slice(None) if t == 1 else slice(100)
        _, q, mean = step_terms(lam[few], u[few], f, b, n, st[:100])
        np.testing.assert_allclose(q_less_mean[:100], q - mean, rtol=0,
                                   atol=1e-12 * np.abs(q).max())
        se = q_less_mean.std(ddof=1) / np.sqrt(nchains)
        assert se > 0 and abs(q_less_mean.mean()) <= 5.0 * se, (
            q_less_mean.mean(), se)
        # E[q_t | S_{t-1}] of every chain, from the tensor's diagonal rows
        i = np.arange(d)
        lam_all = np.broadcast_to(lam, st.shape[:-1])
        _, _, g, e = covfn.symmat.loewner_differences(lam_all, f)
        g = g * (2.0 ** (e * ((f.degree or 0.0) - 2.0)))[:, None, None]
        means = np.sum(g * np.diagonal(np.broadcast_to(bt, st.shape), axis1=1,
                                       axis2=2)[:, :, None]
                       * (lam_all[:, :, None] * lam_all[:, None, :]
                          + np.where(i[:, None] == i, lam_all[:, :, None]**2, 0)),
                       axis=(1, 2)) / n
        np.testing.assert_allclose(means[:100], mean, rtol=1e-12)
        assert abs((q_less_mean + means).mean()) > 5.0 * se

    def test_identity_has_no_second_order_term(self, np_rng):
        # identity's second differences are 0, so a step's terms are its
        # linear term <S_t - S_{t-1}, B> alone, to rounding: the one-product
        # terms of identity without its coefficients, from the eigenpairs
        # of the state each chain left
        f = dataclasses.replace(IDENTITY, coefficients=None)
        d, n = 5, 12
        x = DataMatrix(np_rng.standard_normal((n, d)))
        b = random_sym(np_rng, d)
        s0 = sample_covariance(x).entries
        s1, s2 = np.moveaxis(collect_states(s0, 2, n, 50, RngStream(3)), 1, 0)
        for prev, st in ((s0, s1), (s1, s2)):
            dec = eigh(prev)
            _, bt = spectral_terms(dec.eigenvalues, dec.eigenvectors, f, b, True)
            lin = np.sum((st - prev) * b, axis=(1, 2))
            np.testing.assert_allclose(
                np.ldexp(*_eig_step(dec.eigenvalues, dec.eigenvectors, bt, f, n,
                                    st)),
                lin, rtol=0, atol=1e-12 * np.abs(lin).max())

    @pytest.mark.parametrize("name", ["square", "cube"])
    @pytest.mark.parametrize("n, d", [(30, 5), (6, 10)])
    @pytest.mark.parametrize("sign", [0, 1, -1])
    def test_order_one_exact_value_is_the_chains_mean(
            self, np_rng, name, n, d, sign):
        # square and cube take order 1 exactly; without their coefficients
        # (as power:2 and power:3, but defined where n < d too) they run
        # chains whose step terms come from second differences in S_0's
        # eigenbasis.  For square the step's second-order term is the
        # whole remainder, so every chain gives the exact value to
        # rounding; cube's chains lie within 4 of their stderr of it.  Also
        # with <f(S), B> scaled by about 2^500 and 2^-500
        f = get_function(name)
        c = 2.0 ** (sign * (500 // (2 * f.degree)))
        x = DataMatrix(c * np_rng.standard_normal((n, d)) * np.linspace(1, 3, d))
        b = random_sym(np_rng, d)  # not diagonal
        exact = bias_reduced_estimate(x, f, b, 1, 200, RngStream(5))
        chains = bias_reduced_estimate(
            x, dataclasses.replace(f, coefficients=None), b, 1, 200, RngStream(5))
        assert (exact.chains, exact.mc_stderr) == (0, 0.0)
        assert abs(exact.functional_value - chains.functional_value) <= (
            4.0 * chains.mc_stderr + 1e-12 * abs(exact.functional_value))
        if name == "square":
            assert chains.mc_stderr <= 1e-12 * abs(exact.functional_value)

    def test_order_one_square_is_the_plugin_less_its_exact_bias(self, np_rng):
        # for square, q_1 is the whole remainder <S_1^2 - S_0^2, B> - l_1, so
        # each chain gives <S_0^2, B> - E[q_1 | S_0], and E[q_1 | S_0] is the
        # order-0 bias of quad_wishart_oracle at Sigma = S_0
        d, n = 5, 60
        x = gaussian_sample(psd_factor(random_spd(np_rng, d)), n, RngStream(3))
        b = random_spd(np_rng, d)
        rep = bias_reduced_estimate(x, SQUARE, b, 1, 200, RngStream(4))
        s = sample_covariance(x).entries
        want = (trace_inner_product(s @ s, b)
                - trace_inner_product(quad_wishart_oracle(s, n, 0), b))
        assert rep.functional_value == pytest.approx(want, rel=1e-12)
        assert rep.mc_stderr <= 1e-12 * abs(rep.functional_value)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_the_start_has_one_loewner_product(self, monkeypatch, k):
        # sigma_f takes the start's Loewner matrix from the one routine,
        # and at k >= 1 step 1 takes the start's differences from it once
        # more; the chains' grids are stacks
        callers = []

        def spy(name):
            real = getattr(covfn.symmat, name)

            def call(eigs, f):
                if np.ndim(eigs) == 1:
                    callers.append((name, sys._getframe(1).f_code.co_name))
                return real(eigs, f)

            for module in (covfn.symmat, covfn.estimators):
                monkeypatch.setattr(module, name, call)

        spy("loewner_differences")
        x = DataMatrix(np.random.default_rng(1).standard_normal((30, 4)))
        bias_reduced_estimate(x, LOG, np.eye(4) / 4, k, 20, RngStream(2))
        assert callers == [
            ("loewner_differences", "sigma_f"),
            *[("loewner_differences", "_eig_step")] * (k > 0)]

    def test_a_chains_verdict_does_not_depend_on_the_other_chains(self):
        # chain r's draws do not depend on N, so neither may its verdict:
        # the count at N is the number of the first N chains that fail alone
        x = DataMatrix(np.sqrt(2.0) * np.array([[1.0, 0.0], [0.0, 1e-4]]))
        lam = eigh(collect_states(eigh(sample_covariance(x)), 1, x.n, 200,
                                  RngStream(7))).eigenvalues

        def fails_alone(r):
            try:
                check_domain(lam[r:r + 1], LOG, "chains")
            except DomainError:
                return True
            return False

        bad = [fails_alone(r) for r in range(200)]
        for nchains, left in zip((50, 100, 150, 200), (1, 2, 2, 4)):
            assert sum(bad[:nchains]) == left
            with pytest.raises(DomainError, match=f"^{left} of {nchains} chains"):
                bias_reduced_estimate(x, LOG, np.eye(2) / 2, 1, nchains,
                                      RngStream(7))

    @pytest.mark.parametrize("name", ["identity", "square", "cube"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n, d", [(30, 3), (12, 4)])
    def test_exact_value_lies_within_the_chains_stderr(
            self, np_rng, monkeypatch, name, k, n, d):
        # identity, square and cube take h_k(S_0) exactly, from T - I on
        # trace monomials, and decompose no chain state; without their
        # coefficients they run 20000 chains, in two blocks, whose mean
        # lies within 4 of their stderr of it.  identity, and square at
        # k = 1, are deterministic given the data: there the two differ by
        # rounding
        monkeypatch.setattr(covfn.sampling, "_WORKERS", 2)
        monkeypatch.setattr(covfn.sampling, "BLOCK_WORK", 1)
        decomposed = []

        def spy(a):
            if np.ndim(getattr(a, "entries", a)) == 3:
                decomposed.append(len(getattr(a, "entries", a)))
            return eigh(a)

        monkeypatch.setattr(covfn.estimators, "eigh", spy)
        f = get_function(name)
        x = DataMatrix(np_rng.standard_normal((n, d)) * np.linspace(1, 3, d))
        b = random_sym(np_rng, d)  # not diagonal
        exact = bias_reduced_estimate(x, f, b, k, 20000, RngStream(3))
        assert decomposed == []
        chains = bias_reduced_estimate(
            x, dataclasses.replace(f, coefficients=None), b, k, 20000,
            RngStream(3))
        assert sum(decomposed) == k * 20000
        assert abs(exact.functional_value - chains.functional_value) <= (
            4.0 * chains.mc_stderr + 1e-12 * abs(exact.functional_value))

    @pytest.mark.parametrize("name, h", [("identity", 1), ("square", 2),
                                         ("cube", 3)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_exact_value_is_finite_where_it_is(self, name, h, k):
        # data scaled by 2^j up to where the report leaves floating point:
        # the monomials are taken of S / 2^e and scaled back once, so the
        # report is the one at scale 1 times 2^(2 j h), to 1e-12 relative,
        # wherever that is below 2^1023, and the run raises NumericOverflow
        # wherever it is past 2^1024
        f = get_function(name)
        z = np.random.default_rng(1).standard_normal((4, 2))
        z[:, 1] = z[:, 0] + 0.01 * z[:, 1]
        b = np.eye(2) / 2
        base = bias_reduced_estimate(DataMatrix(z), f, b, k, 20, RngStream(0))
        report = np.array([base.functional_value, base.sigma_hat, *base.ci])
        outcomes = set()
        for j in range(1024 // (2 * h) - 8, 1024 // (2 * h) + 3):
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.ldexp(report, 2 * j * h)
                try:
                    got = bias_reduced_estimate(DataMatrix(2.0**j * z), f, b, k,
                                                20, RngStream(0))
                except NumericOverflow:
                    got = None
            if np.abs(want).max() < 2.0**1023:
                assert got is not None, j
                np.testing.assert_allclose(
                    [got.functional_value, got.sigma_hat, *got.ci], want,
                    rtol=1e-12, atol=1e-12 * np.abs(want).max())
                assert (got.chains, got.mc_stderr) == (0, 0.0)
                outcomes.add("finite")
            elif not np.all(np.isfinite(want)):
                assert got is None, j
                outcomes.add("raises")
        assert outcomes == {"finite", "raises"}

    @pytest.mark.parametrize("name", ["identity", "square", "cube"])
    def test_a_polynomial_draws_nothing(self, monkeypatch, name):
        # h_k of a polynomial is exact at every k: no chain is run and no
        # stream spawned, and the report says so
        def fail(*args):
            raise AssertionError("a chain was run or a stream spawned")

        monkeypatch.setattr(covfn.estimators, "chain_states", fail)
        monkeypatch.setattr(RngStream, "spawn", fail)
        x = DataMatrix(np.random.default_rng(4).standard_normal((20, 3)))
        for k in (1, 2, 3, MAX_K):
            rep = bias_reduced_estimate(x, get_function(name), np.eye(3) / 3, k,
                                        200, RngStream(1))
            assert (rep.chains, rep.mc_stderr) == (0, 0.0)
            assert rep.estimator_kind == "bias_reduced"
            assert np.isfinite(rep.functional_value)

    def test_report_provenance(self, np_rng):
        x = DataMatrix(np_rng.standard_normal((25, 2)))
        rep = bias_reduced_estimate(x, LOG, np.eye(2) / 2, 1, 30,
                                    RngStream(99, 7), alpha=0.1)
        assert (rep.n, rep.d, rep.k, rep.chains) == (25, 2, 1, 30)
        assert rep.master_seed == 99 and rep.stream_id == 7
        assert rep.alpha == 0.1
        lo, hi = rep.ci
        assert lo <= rep.functional_value <= hi

    def test_reproducible(self, np_rng):
        x = DataMatrix(np_rng.standard_normal((25, 2)))
        r1 = bias_reduced_estimate(x, LOG, np.eye(2) / 2, 1, 30, RngStream(5))
        r2 = bias_reduced_estimate(x, LOG, np.eye(2) / 2, 1, 30, RngStream(5))
        assert r1.functional_value == r2.functional_value
        assert r1.mc_stderr == r2.mc_stderr

    @pytest.mark.parametrize("name", ["power:2", "log"])
    def test_eight_threads_switching_fast_give_the_serial_report(
            self, monkeypatch, name):
        # each block's callback writes its own rows of the estimator's
        # shared term arrays, interleaved as finely as the interpreter allows
        x = DataMatrix(np.random.default_rng(2).standard_normal((30, 3)))
        args = (x, parse_function_spec(name), np.eye(3) / 3, 3, 400, RngStream(13))
        monkeypatch.setattr(covfn.sampling, "_WORKERS", 1)
        serial = bias_reduced_estimate(*args)
        monkeypatch.setattr(covfn.sampling, "_WORKERS", 8)
        monkeypatch.setattr(covfn.sampling, "BLOCK_WORK", 1)
        monkeypatch.setattr(covfn.sampling, "_pool", None)  # one of 8 threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert bias_reduced_estimate(*args) == serial
        finally:
            sys.setswitchinterval(interval)
            covfn.sampling._pool.shutdown()

    def test_only_the_draws_grow_with_k(self, monkeypatch):
        # every step's Bartlett factors, k N m d floats (m = min(n, d)), are
        # held at once; each state is reduced to its terms in its block, so
        # nothing else of size N d^2 is kept per step.  One block, so the
        # block's own buffers are the same at both k
        monkeypatch.setattr(covfn.sampling, "_WORKERS", 1)
        d, n, nchains = 50, 200, 200
        x = DataMatrix(np.random.default_rng(0).standard_normal((n, d)))
        peaks = []
        for k in (3, 10):
            tracemalloc.start()
            try:
                bias_reduced_estimate(x, LOG, np.eye(d) / d, k, nchains,
                                      RngStream(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bartlett = (10 - 3) * nchains * min(n, d) * d * 8  # 26.7 MiB
        assert peaks[1] - peaks[0] <= 1.25 * bartlett
