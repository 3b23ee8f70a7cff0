import dataclasses
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

import covfn.sampling
from covfn.errors import NotPSD, NumericOverflow
from covfn.estimators import bias_reduced_estimate
from covfn.functions import get_function
from covfn.sampling import (
    DataMatrix,
    RngStream,
    _gram,
    _run_blocks,
    chain_states,
    gaussian_sample,
    psd_factor,
    sample_covariance,
)
from covfn.symmat import SymMat, eigh
from conftest import random_spd, random_sym
from helpers import collect_states, expected_sandwich, expected_trace_of_square


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

    def test_gram_beyond_max_over_n_is_scaled_back_exactly(self):
        # at 2^506 Z (n = 5000) X^T X overflows but X^T X / n does not; the
        # power-of-two scaling is exact, so S is 2^1012 times the unscaled
        # one bit for bit, and a product that fits is formed as is
        z = np.random.default_rng(5).standard_normal((5000, 2))
        s = sample_covariance(DataMatrix(z)).entries
        np.testing.assert_array_equal(s, SymMat(z.T @ z / 5000).entries)
        np.testing.assert_array_equal(
            sample_covariance(DataMatrix(2.0 ** 506 * z)).entries,
            2.0 ** 1012 * s)

    def test_each_gram_of_a_stack_takes_its_own_power_of_two(self):
        # so a chain state does not depend on the block it is formed in
        a = np.random.default_rng(6).standard_normal((3, 5000, 2))
        a[1] *= 2.0 ** 506
        s = _gram(a, 5000).entries
        for i in range(3):
            np.testing.assert_array_equal(s[i], _gram(a[i], 5000).entries)
        np.testing.assert_array_equal(
            s[1], 2.0 ** 1012 * _gram(a[1] / 2.0 ** 506, 5000).entries)
        assert np.isfinite(s).all()

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


def one_chain(start, k, n, rng):
    """Stepped states (k, d, d) of one chain: the N=1 slice of the engine."""
    return collect_states(start, k, n, 1, rng)[0]


class TestBootstrapChain:
    def test_zero_steps_consumes_no_randomness(self):
        rng = RngStream(3, 4)
        states = one_chain(np.eye(3), 0, 10, rng)
        assert states.shape == (0, 3, 3)
        # stream still at its origin: draws match a fresh stream
        np.testing.assert_array_equal(rng.standard_normal(4),
                                      RngStream(3, 4).standard_normal(4))

    def test_zero_start_is_absorbing(self):
        states = one_chain(np.zeros((2, 2)), 3, 5, RngStream(1))
        np.testing.assert_array_equal(states, np.zeros((3, 2, 2)))

    def test_concentration_at_large_n(self):
        states = one_chain(np.eye(5), 1, 10**5, RngStream(13))
        assert np.abs(states[0] - np.eye(5)).max() <= 0.05

    def test_reproducible_bit_identical(self):
        start = np.diag([1.0, 2.0])
        s1 = collect_states(start, 3, 25, 4, RngStream(77, 5))
        s2 = collect_states(start, 3, 25, 4, RngStream(77, 5))
        np.testing.assert_array_equal(s1, s2)

    def test_states_stay_psd(self, np_rng):
        for run in range(1000):
            d = int(np_rng.integers(2, 9))
            n = d + 5
            k = int(np_rng.integers(0, 3))
            start = random_spd(np_rng, d, lo=0.2, hi=2.0)
            states = collect_states(start, k, n, 1, RngStream(1000, run))
            for eigs in eigh(states[0]).eigenvalues:
                assert eigs.min() >= -1e-10 * max(1.0, np.abs(eigs).max())


class TestBartlettStep:
    @pytest.mark.parametrize("d, n", [(3, 7), (4, 2)])
    def test_moments_match_wishart_oracle(self, np_rng, d, n):
        # one step is a Wishart W_d(n, Sigma/n) for n >= d and n < d alike,
        # and a chain is a martingale: every state has mean Sigma
        sigma = random_spd(np_rng, d)
        a = random_sym(np_rng, d)
        m = 20000
        states = collect_states(sigma, 3, n, m, RngStream(8, d))
        s = states[:, 0]
        for draws, exact in (
            (states, sigma),
            (s @ a @ s, expected_sandwich(sigma, a, n).entries),
            (np.sum(s * s, axis=(1, 2)), expected_trace_of_square(sigma, n)),
        ):
            mean = draws.mean(axis=0)
            stderr = draws.std(axis=0, ddof=1) / np.sqrt(m)
            assert np.all(np.abs(mean - exact) <= 5.0 * stderr)

    @pytest.mark.parametrize("d, n", [(6, 9), (5, 3)])
    def test_steps_carry_the_factor_of_the_start(self, np_rng, d, n,
                                                 monkeypatch):
        # steps 1 and 2 of every chain, taken by hand from the documented
        # draws as g_1 = R_1 psd_factor(start) and g_2 = R_2[:, :, :p] g_1 /
        # sqrt(n) (p the rows of g_1), give the states the engine hands
        # over, bit for bit, in one block of 4 chains and in two blocks of
        # 129
        monkeypatch.setattr(covfn.sampling, "_WORKERS", 2)
        m = min(n, d)
        start = random_spd(np_rng, d)
        rows, cols = np.triu_indices(m, 1, d)
        diag = np.arange(m)
        for nchains in (4, 129):
            calls = []
            states = collect_states(start, 2, n, nchains, RngStream(6), calls)
            assert len(calls) == 2 * (1 if nchains < 128 else 2)
            h = psd_factor(start)
            for t in (1, 2):
                bartlett = np.zeros((nchains, m, d))
                bartlett[:, rows, cols] = RngStream(6).spawn(
                    2 * t - 1).standard_normal(nchains, rows.size)
                bartlett[:, diag, diag] = np.sqrt(
                    RngStream(6).spawn(2 * t).gen.chisquare(
                        np.tile(n - diag, nchains))).reshape(nchains, m)
                g = bartlett[:, :, :h.shape[-2]] @ h
                s = SymMat(np.swapaxes(g, -1, -2) @ g / n)
                np.testing.assert_array_equal(s.entries, states[:, t - 1])
                h = g / np.sqrt(n)
            assert h.shape == (nchains, m, d)

    def test_step_draws_are_uncorrelated(self):
        # From Sigma = I the start's root is I, so step 1's Bartlett factor
        # R_1 is the Cholesky factor of n S_1 and the factor it carries is
        # R_1 / sqrt(n); step 2's R_2 is then the Cholesky factor of
        # n^2 R_1^{-T} S_2 R_1^{-1}.  So the engine's own normals and
        # chi-squares can be read back: normals vs the chi-square stream,
        # vs the next step's normals, and vs the neighbouring chain's block.
        d, n, nchains = 3, 50, 3335
        s1, s2 = np.moveaxis(
            collect_states(np.eye(d), 2, n, nchains, RngStream(4)), 1, 0)
        rows, cols = np.triu_indices(d, 1)
        r1 = np.swapaxes(np.linalg.cholesky(n * s1), -1, -2)
        inv_r1 = np.linalg.inv(r1)
        r2 = np.swapaxes(np.linalg.cholesky(
            n * n * np.swapaxes(inv_r1, -1, -2) @ s2 @ inv_r1), -1, -2)
        z1, z2 = r1[:, rows, cols], r2[:, rows, cols]
        chi1 = np.diagonal(r1, axis1=-2, axis2=-1) ** 2
        chi2 = np.diagonal(r2, axis1=-2, axis2=-1) ** 2
        for a, b in ((z1, chi1), (z1, z2), (z1[:-1], z1[1:])):
            assert a.size >= 10**4
            assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 0.03
        # the correlations cannot see chi-squares drawn on the normals'
        # key, so both steps are also pinned to their documented streams
        dofs = np.tile(n - np.arange(d), nchains)
        for t, z, chi in ((1, z1, chi1), (2, z2, chi2)):
            np.testing.assert_allclose(
                z, RngStream(4).spawn(2 * t - 1).standard_normal(
                    nchains, rows.size), rtol=1e-10)
            np.testing.assert_allclose(
                chi, RngStream(4).spawn(2 * t).gen.chisquare(dofs).reshape(
                    nchains, d), rtol=1e-10)


class TestBlocks:
    @staticmethod
    def block_sizes(monkeypatch, workers, min_block, *args):
        """The states of chain_states(*args) with ``workers`` CPUs and
        blocks of at least ``min_block`` chains, and the sizes of the
        stacks handed over, block by block and step by step."""
        monkeypatch.setattr(covfn.sampling, "_WORKERS", workers)
        monkeypatch.setattr(covfn.sampling, "MIN_BLOCK", min_block)
        calls = []
        states = collect_states(*args, calls)
        # each block's carry is what its own previous step returned
        assert [carry for *_, t, carry in calls] == [
            t - 1 or None for *_, t, _ in calls]
        return states, sorted(hi - lo for lo, hi, *_ in calls)

    @pytest.mark.parametrize("nchains", [1, 63, 64, 65, 200, 201])
    def test_output_does_not_depend_on_the_blocks(self, np_rng, nchains,
                                                  monkeypatch):
        args = (random_spd(np_rng, 4), 3, 9, nchains, RngStream(12))
        states, sizes = self.block_sizes(monkeypatch, 1, 64, *args)
        assert sizes == [nchains] * 3
        for workers in (2, 3):
            for min_block in (1, 64):
                nblocks = max(1, min(workers, nchains // min_block))
                states_b, sizes = self.block_sizes(
                    monkeypatch, workers, min_block, *args)
                assert len(sizes) == 3 * nblocks and sum(sizes) == 3 * nchains
                np.testing.assert_array_equal(states_b, states)

    def test_eight_threads_switching_fast_write_every_row(self, np_rng,
                                                         monkeypatch):
        # more threads than CPUs, interleaved as finely as the interpreter
        # allows, each writing its own rows of the shared output
        args = (random_spd(np_rng, 3), 3, 5, 400, RngStream(13))
        states, _ = self.block_sizes(monkeypatch, 1, 64, *args)
        monkeypatch.setattr(covfn.sampling, "_pool", None)  # one of 8 threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                states_b, sizes = self.block_sizes(monkeypatch, 8, 1, *args)
                assert sizes == [50] * 24
                np.testing.assert_array_equal(states_b, states)
        finally:
            sys.setswitchinterval(interval)
            covfn.sampling._pool.shutdown()

    def test_a_failing_block_reruns_the_whole_stack_here(self, monkeypatch):
        # whichever block fails, the caller sees what the whole stack raises
        monkeypatch.setattr(covfn.sampling, "_WORKERS", 3)
        calls = []

        def task(lo, hi):
            calls.append((lo, hi, threading.current_thread()
                          is threading.main_thread()))
            if lo <= 150 < hi:
                raise NumericOverflow(f"chains {lo} to {hi}")

        with pytest.raises(NumericOverflow, match="^chains 0 to 200$"):
            _run_blocks(task, 200)
        assert sorted(calls[:3]) == [(0, 66, False), (66, 133, False),
                                     (133, 200, False)]
        assert calls[3:] == [(0, 200, True)]

    def test_the_serial_rerun_starts_its_carry_afresh(self, monkeypatch):
        # the second block fails on the pool, so the whole stack reruns in
        # this thread, with the carry None again at its first step
        monkeypatch.setattr(covfn.sampling, "_WORKERS", 2)
        calls = []

        def visit(lo, hi, t, s, carry):
            calls.append((lo, hi, t, carry))
            if lo and t == 2:
                raise NumericOverflow("second block")
            return lo, t

        chain_states(np.eye(3), 3, 9, 128, RngStream(0), visit)
        assert sorted(calls[:5]) == [(0, 64, 1, None), (0, 64, 2, (0, 1)),
                                     (0, 64, 3, (0, 2)), (64, 128, 1, None),
                                     (64, 128, 2, (64, 1))]
        assert calls[5:] == [(0, 128, 1, None), (0, 128, 2, (0, 1)),
                             (0, 128, 3, (0, 2))]

    def test_blocks_run_in_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(covfn.sampling, "_WORKERS", 2)
        seen = []

        def task(lo, hi):
            err = np.geterr()
            seen.append((err["over"], err["invalid"], threading.current_thread()
                         is threading.main_thread()))

        with np.errstate(over="ignore", invalid="raise"):
            _run_blocks(task, 200)
        assert seen == [("ignore", "raise", False)] * 2

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
    def test_a_forked_child_makes_its_own_pool(self, monkeypatch):
        # the parent's pool threads do not exist in a child forked from it
        monkeypatch.setattr(covfn.sampling, "_WORKERS", 2)
        args = (np.eye(5), 2, 20, 200, RngStream(1))
        states = collect_states(*args)  # the parent's pool now exists
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send_bytes(
            collect_states(*args).tobytes()))
        child.start()
        try:
            assert recv.poll(60), "the child's chain step hung"
            assert recv.recv_bytes() == states.tobytes()
            child.join(60)
            assert child.exitcode == 0
        finally:
            child.kill()

    def test_not_psd_start_names_its_minimum(self, monkeypatch):
        monkeypatch.setattr(covfn.sampling, "_WORKERS", 2)
        with pytest.raises(NotPSD, match=r"^minimum eigenvalue -2 below the "
                           r"PSD tolerance$"):
            collect_states(np.diag([1.0, -2.0, 3.0]), 2, 5, 200, RngStream(0))

    @pytest.mark.parametrize("seed, outcome", [
        (0, None), (3, "an eigenvalue overflows"), (6, "a matrix overflows")])
    def test_states_overflow_where_their_eigenpairs_do(self, seed, outcome):
        # a rank-one start with eigenvalue 1e308 and n = 1: each state is
        # c S_0 with c ~ chi^2_1-like, so an entry (c > 3.6) or only the
        # eigenvalue (c > 1.8) can leave floating point.  The sampler raises
        # for an entry and leaves an eigenvalue to the eigh of the states
        # it hands over; an estimate of identity, whose states are never
        # decomposed, stops at the same step with the same error as one
        # whose f reads them off eigenpairs
        x = DataMatrix(np.full((1, 2), np.sqrt(0.5e308)))
        start = sample_covariance(x)  # 0.5e308 in every entry
        identity = get_function("identity")
        with np.errstate(over="ignore", invalid="ignore"):
            if outcome is None:
                eigh(collect_states(start, 2, 1, 4, RngStream(seed)))
            else:
                with pytest.raises(NumericOverflow, match=f"^{outcome}"):
                    eigh(collect_states(start, 2, 1, 4, RngStream(seed)))
            errors = []
            for f in (identity, dataclasses.replace(identity, coefficients=None)):
                with pytest.raises(NumericOverflow) as exc:
                    bias_reduced_estimate(x, f, np.eye(2) / 2, 2, 4,
                                          RngStream(seed))
                errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("chain state: ") == (outcome is not None)
        if outcome is not None:
            assert errors[0].startswith(f"chain state: {outcome}")

    def test_only_a_stepped_start_needs_a_root(self, monkeypatch):
        # at k = 0 a start that is not PSD steps nowhere and nothing is
        # handed over; from k = 1 on its root is taken, and raises before
        # anything is drawn
        def no_draws(self, child):
            raise AssertionError("a stream was spawned")

        monkeypatch.setattr(RngStream, "spawn", no_draws)
        start = np.diag([1.0, -2.0, 3.0])
        calls = []
        states = collect_states(start, 0, 5, 3, RngStream(0), calls)
        assert states.shape == (3, 0, 3, 3) and calls == []
        for k in (1, 2):
            with pytest.raises(NotPSD):
                collect_states(start, k, 5, 3, RngStream(0))


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
