import numpy as np
import pytest

from covfn.errors import NotPSD
from covfn.sampling import (
    DataMatrix,
    RngStream,
    chain_eigenpairs,
    gaussian_sample,
    psd_factor,
    sample_covariance,
)
from covfn.symmat import SpectralDecomp, eigh, from_eigenpairs
from conftest import random_spd, random_sym
from helpers import expected_sandwich, expected_trace_of_square


class TestPsdFactor:
    def test_identity(self):
        pf = psd_factor(np.eye(4))
        np.testing.assert_allclose(pf, np.eye(4), atol=1e-12)

    def test_diagonal_sqrt(self):
        pf = psd_factor(np.diag([4.0, 0.0]))
        np.testing.assert_allclose(pf, np.diag([2.0, 0.0]), atol=1e-12)

    def test_clips_tiny_negative(self):
        pf = psd_factor(np.diag([1.0, -1e-12]))
        np.testing.assert_allclose(pf, np.diag([1.0, 0.0]), atol=1e-10)

    def test_rejects_genuinely_negative(self):
        with pytest.raises(NotPSD):
            psd_factor(np.diag([1.0, -0.5]))

    def test_factor_squares_back(self, np_rng):
        sigma = random_spd(np_rng, 6)
        pf = psd_factor(sigma)
        np.testing.assert_allclose(pf @ pf.T, sigma,
                                   rtol=1e-10, atol=1e-10)

    def test_stack_matches_one_call_per_matrix(self, np_rng):
        stack = np.array([random_spd(np_rng, 5) for _ in range(4)])
        roots = psd_factor(stack)
        assert roots.shape == stack.shape and not roots.flags.writeable
        for a, root in zip(stack, roots):
            np.testing.assert_array_equal(psd_factor(a), root)


class TestGaussianSample:
    def test_zero_factor_gives_zero_rows(self):
        pf = psd_factor(np.zeros((3, 3)))
        x = gaussian_sample(pf, 5, RngStream(1))
        np.testing.assert_array_equal(x.rows, np.zeros((5, 3)))

    def test_scalar_moments(self):
        n = 10**5
        x = gaussian_sample(psd_factor(np.eye(1)), n, RngStream(11))
        assert abs(x.rows.mean()) <= 4.0 / np.sqrt(n)
        assert 0.97 <= x.rows.var() <= 1.03

    def test_deterministic_for_fixed_stream(self):
        pf = psd_factor(np.diag([1.0, 2.0]))
        x1 = gaussian_sample(pf, 10, RngStream(5, 9))
        x2 = gaussian_sample(pf, 10, RngStream(5, 9))
        np.testing.assert_array_equal(x1.rows, x2.rows)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            gaussian_sample(psd_factor(np.eye(2)), 0, RngStream(0))


class TestSampleCovariance:
    def test_single_row_outer_product(self):
        x = DataMatrix(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(sample_covariance(x).entries,
                                   [[1.0, 2.0], [2.0, 4.0]])

    def test_two_unit_rows(self):
        x = DataMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(sample_covariance(x).entries,
                                   np.diag([0.5, 0.5]))

    def test_mc_consistency(self):
        sigma = np.diag([1.0, 2.0])
        x = gaussian_sample(psd_factor(sigma), 10**5, RngStream(21))
        shat = sample_covariance(x).entries
        # entrywise MC stderr of (1/n) sum x_i x_j
        stderr = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma))
                          + sigma**2) / 10**5)
        assert np.all(np.abs(shat - sigma) <= 5.0 * stderr)

    def test_unbiased_over_many_datasets(self):
        sigma = np.diag([1.0, 2.0, 0.5])
        n, m = 20, 10**4
        stream = RngStream(31)
        pf = psd_factor(sigma)
        acc = np.zeros((3, 3))
        acc2 = np.zeros((3, 3))
        for r in range(m):
            s = sample_covariance(gaussian_sample(pf, n, stream.spawn(r))).entries
            acc += s
            acc2 += s**2
        mean = acc / m
        stderr = np.sqrt((acc2 / m - mean**2) / m)
        assert np.all(np.abs(mean - sigma) <= 5.0 * stderr + 1e-12)


def chain_states(start, k, n, rng):
    """States (k+1, d, d) of one chain: the N=1 slice of the engine."""
    return from_eigenpairs(*chain_eigenpairs(start, k, n, 1, rng))[0]


class TestBootstrapChain:
    def test_zero_steps_consumes_no_randomness(self):
        rng = RngStream(3, 4)
        states = chain_states(np.eye(3), 0, 10, rng)
        assert states.shape == (1, 3, 3)
        np.testing.assert_array_equal(states[0], np.eye(3))
        # stream still at its origin: draws match a fresh stream
        np.testing.assert_array_equal(rng.standard_normal(4),
                                      RngStream(3, 4).standard_normal(4))

    def test_zero_start_is_absorbing(self):
        states = chain_states(np.zeros((2, 2)), 3, 5, RngStream(1))
        np.testing.assert_array_equal(states, np.zeros((4, 2, 2)))

    def test_concentration_at_large_n(self):
        states = chain_states(np.eye(5), 1, 10**5, RngStream(13))
        assert np.abs(states[1] - np.eye(5)).max() <= 0.05

    def test_reproducible_bit_identical(self):
        start = np.diag([1.0, 2.0])
        s1 = chain_eigenpairs(start, 3, 25, 4, RngStream(77, 5))
        s2 = chain_eigenpairs(start, 3, 25, 4, RngStream(77, 5))
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a, b)

    def test_states_stay_psd(self, np_rng):
        for run in range(1000):
            d = int(np_rng.integers(2, 9))
            n = d + 5
            k = int(np_rng.integers(0, 3))
            start = random_spd(np_rng, d, lo=0.2, hi=2.0)
            lam, _ = chain_eigenpairs(start, k, n, 1, RngStream(1000, run))
            for eigs in lam[0]:
                assert eigs.min() >= -1e-10 * max(1.0, np.abs(eigs).max())


class TestBartlettStep:
    @pytest.mark.parametrize("d, n", [(3, 7), (4, 2)])
    def test_moments_match_wishart_oracle(self, np_rng, d, n):
        # one step is a Wishart W_d(n, Sigma/n) for n >= d and n < d alike,
        # and a chain is a martingale: every state has mean Sigma
        sigma = random_spd(np_rng, d)
        a = random_sym(np_rng, d)
        m = 20000
        lam, u = chain_eigenpairs(sigma, 3, n, m, RngStream(8, d))
        s = from_eigenpairs(lam[:, 1], u[:, 1])
        for draws, exact in (
            (from_eigenpairs(lam[:, 1:], u[:, 1:]), sigma),
            (s @ a @ s, expected_sandwich(sigma, a, n).entries),
            (np.sum(s * s, axis=(1, 2)), expected_trace_of_square(sigma, n)),
        ):
            mean = draws.mean(axis=0)
            stderr = draws.std(axis=0, ddof=1) / np.sqrt(m)
            assert np.all(np.abs(mean - exact) <= 5.0 * stderr)

    @pytest.mark.parametrize("d, n", [(6, 9), (5, 3)])
    def test_step_root_is_psd_factor_of_the_state_stack(self, np_rng, d, n):
        # step 2 of every chain, taken by hand from psd_factor of the stack
        # of step-1 decompositions and step 2's documented draws, gives the
        # engine's step-2 eigenpairs bit for bit
        nchains, m = 4, min(n, d)
        lam, u = chain_eigenpairs(random_spd(np_rng, d), 2, n, nchains,
                                  RngStream(6))
        root = psd_factor(SpectralDecomp(lam[:, 1], u[:, 1]))
        rows, cols = np.triu_indices(m, 1, d)
        diag = np.arange(m)
        bartlett = np.zeros((nchains, m, d))
        bartlett[:, rows, cols] = RngStream(6).spawn(3).standard_normal(
            nchains, rows.size)
        bartlett[:, diag, diag] = np.sqrt(RngStream(6).spawn(4).gen.chisquare(
            np.tile(n - diag, nchains))).reshape(nchains, m)
        g = bartlett @ root
        step = eigh(np.swapaxes(g, -1, -2) @ g / n)
        np.testing.assert_array_equal(step.eigenvalues, lam[:, 2])
        np.testing.assert_array_equal(step.eigenvectors, u[:, 2])

    def test_step_draws_are_uncorrelated(self):
        # From Sigma = I each step's Bartlett factor R is the Cholesky
        # factor of n F^{-1} S F^{-1} (F the root of the state stepped
        # from), so the engine's own normals and chi-squares can be read
        # back: normals vs the chi-square stream, vs the next step's
        # normals, and vs the neighbouring chain's block.
        d, n, nchains = 3, 50, 3335
        lam, u = chain_eigenpairs(np.eye(d), 2, n, nchains, RngStream(4))
        s1 = from_eigenpairs(lam[:, 1], u[:, 1])
        s2 = from_eigenpairs(lam[:, 2], u[:, 2])
        inv_root = from_eigenpairs(1.0 / np.sqrt(lam[:, 1]), u[:, 1])
        rows, cols = np.triu_indices(d, 1)
        r1 = np.swapaxes(np.linalg.cholesky(n * s1), -1, -2)
        r2 = np.swapaxes(np.linalg.cholesky(n * inv_root @ s2 @ inv_root),
                         -1, -2)
        z1, z2 = r1[:, rows, cols], r2[:, rows, cols]
        chi1 = np.diagonal(r1, axis1=-2, axis2=-1) ** 2
        for a, b in ((z1, chi1), (z1, z2), (z1[:-1], z1[1:])):
            assert a.size >= 10**4
            assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 0.03
        # the correlations cannot see chi-squares drawn on the normals'
        # key, so step 1 is also pinned to its documented streams
        np.testing.assert_allclose(
            z1, RngStream(4).spawn(1).standard_normal(nchains, rows.size),
            rtol=1e-10)
        dofs = np.tile(n - np.arange(d), nchains)
        np.testing.assert_allclose(
            chi1, RngStream(4).spawn(2).gen.chisquare(dofs).reshape(nchains, d),
            rtol=1e-10)


class TestRngStream:
    def test_pure_function_of_key(self):
        a = RngStream(1, 2).standard_normal(8)
        b = RngStream(1, 2).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(1, 0).standard_normal(8)
        b = RngStream(1, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_stream_independence_proxy(self):
        a = RngStream(0, 0).standard_normal(10**4)
        b = RngStream(0, 1).standard_normal(10**4)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.03

    def test_spawn_is_deterministic_and_distinct(self):
        base = RngStream(9, 9)
        ids = {base.spawn(i).stream_id for i in range(100)}
        assert len(ids) == 100
        assert base.spawn(3).stream_id == RngStream(9, 9).spawn(3).stream_id
