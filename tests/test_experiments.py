import numpy as np
import pytest

from covfn.errors import UsageError
from covfn.experiments import (
    ExperimentConfig,
    build_b,
    build_matrix,
    ks_distance_to_normal,
    normal_cdf,
    run_bias_scaling,
    run_coverage,
    run_experiment,
    run_opnorm,
    run_quadform,
    two_sample_ks,
)
from helpers import fit_loglog_slope


class TestSpecs:
    def test_build_b_identity_normalized(self):
        b, factor = build_b("identity", 4)
        np.testing.assert_allclose(b.entries, np.eye(4) / 4)
        assert factor == pytest.approx(0.25)
        assert np.abs(np.linalg.eigvalsh(b.entries)).sum() <= 1.0 + 1e-12

    def test_build_b_rank_one(self):
        b, factor = build_b("rank1:2", 4)
        assert factor == 1.0
        assert b.entries[2, 2] == 1.0 and np.abs(b.entries).sum() == 1.0

    def test_build_b_rank_one_vector(self):
        b, _ = build_b("rank1vec:3,4", 2)
        assert np.abs(np.linalg.eigvalsh(b.entries)).sum() == pytest.approx(1.0)

    def test_build_b_scales_by_the_nuclear_norm(self):
        # a negative eigenvalue counts by its absolute value
        b, factor = build_b("diag:1,-2", 2)
        assert factor == pytest.approx(1.0 / 3.0)
        np.testing.assert_allclose(b.entries, np.diag([1.0, -2.0]) / 3.0)

    def test_build_b_errors(self):
        with pytest.raises(UsageError):
            build_b("rank1:9", 3)
        with pytest.raises(UsageError):
            build_b("whatever", 3)
        for bad in ("rank1vec:1,a,2", "rank1vec:1,nan,2", "rank1vec:1,2"):
            with pytest.raises(UsageError):
                build_b(bad, 3)

    def test_build_b_from_file(self, tmp_path):
        p = tmp_path / "B.csv"
        p.write_text("1,0,0\n0,1,0\n0,0,1\n")
        b, factor = build_b(f"file:{p}", 3)
        ref, ref_factor = build_b("identity", 3)
        assert factor == ref_factor
        np.testing.assert_array_equal(b.entries, ref.entries)
        with pytest.raises(UsageError):
            build_b(f"file:{p}", 4)
        p.write_text("1,0\n0,1\n0,0\n")
        with pytest.raises(UsageError):
            build_b(f"file:{p}", 2)

    def test_build_sigma_variants(self):
        np.testing.assert_allclose(build_matrix("identity", 3), np.eye(3))
        np.testing.assert_allclose(build_matrix("diag:1,2,3", 3),
                                   np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(build_matrix("linspace:1,2", 3),
                                   np.diag([1.0, 1.5, 2.0]))
        np.testing.assert_allclose(build_matrix("spiked:1,2", 3),
                                   np.diag([2.0, 1.0, 1.0]))
        with pytest.raises(UsageError):
            build_matrix("diag:1,2", 3)
        for bad in ("linspace:1", "linspace:1,2,3", "spiked:", "diag:1,x,3"):
            with pytest.raises(UsageError):
                build_matrix(bad, 3)

    def test_config_validation(self):
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="nope")
        cfg = ExperimentConfig(experiment="opnorm", d=5)
        assert cfg.d == (5,)

    @pytest.mark.parametrize("experiment", ["bias_scaling", "quadform"])
    def test_single_d_experiments_reject_a_d_list(self, experiment):
        with pytest.raises(UsageError):
            ExperimentConfig(experiment=experiment, d=(3, 4))
        assert ExperimentConfig(experiment=experiment, d=(3,)).d == (3,)


class TestStatsHelpers:
    def test_normal_cdf_values(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)
        # Phi(x) computed with mpmath at 50 digits
        phi = {-8.0: 6.220960574271784e-16, -1.959963984540054: 0.025000000000000012,
               0.0: 0.5, 1.0: 0.8413447460685429, 8.0: 0.9999999999999993}
        for x, p in phi.items():
            assert normal_cdf(x) == pytest.approx(p, rel=0, abs=1e-15), x
        np.testing.assert_allclose(normal_cdf(list(phi)), list(phi.values()),
                                   rtol=0, atol=1e-15)

    def test_ks_to_normal_on_normal_sample(self):
        x = np.random.default_rng(0).standard_normal(10**4)
        assert ks_distance_to_normal(x) < 0.02

    def test_ks_to_normal_detects_shift(self):
        x = np.random.default_rng(0).standard_normal(10**4) + 1.0
        assert ks_distance_to_normal(x) > 0.3

    def test_two_sample_ks_identical(self):
        a = np.zeros(100)
        assert two_sample_ks(a, a) == 0.0

    def test_two_sample_ks_disjoint(self):
        assert two_sample_ks(np.zeros(50), np.ones(50)) == pytest.approx(1.0)

    def test_slope_fit_excludes_noise_cells(self):
        ns = [10, 20, 40, 80]
        vals = [1.0, 0.5, 0.25, 1e-9]
        errs = [1e-3, 1e-3, 1e-3, 1e-3]
        slope, mask = fit_loglog_slope(ns, vals, errs)
        assert mask.tolist() == [True, True, True, False]
        assert slope == pytest.approx(-1.0, abs=1e-9)


class TestBiasScaling:
    def test_single_cell_shape(self):
        cfg = ExperimentConfig(experiment="bias_scaling", d=3, n=(50,), k=(0,),
                               fn="square", sigma="identity", m=1, nchains=1,
                               seed=1)
        table = run_bias_scaling(cfg)
        assert len(table.rows) == 1
        assert table.columns[:2] == ("n", "k")

    def test_identity_function_unbiased_in_every_cell(self):
        cfg = ExperimentConfig(experiment="bias_scaling", d=3, n=(20, 40),
                               k=(0, 1), fn="identity", sigma="linspace:1,2",
                               m=200, nchains=30, seed=2)
        table = run_bias_scaling(cfg)
        for row in table.rows:
            bias, stderr = row[3], row[4]
            assert abs(bias) <= 5.0 * stderr

    def test_oracle_column_slope(self):
        cfg = ExperimentConfig(experiment="bias_scaling", d=4,
                               n=(50, 100, 200, 400), k=(0, 1), fn="square",
                               sigma="linspace:1,2", m=2, nchains=10, seed=3)
        table = run_bias_scaling(cfg)
        for k in (0, 1):
            rows = [r for r in table.rows if r[1] == k]
            slope, _ = fit_loglog_slope([r[0] for r in rows],
                                        [r[5] for r in rows])
            assert slope == pytest.approx(-(k + 1), abs=0.05)

    def test_deterministic(self):
        cfg = ExperimentConfig(experiment="bias_scaling", d=2, n=(30,), k=(1,),
                               fn="square", sigma="identity", m=20, nchains=10,
                               seed=4)
        assert run_bias_scaling(cfg).rows == run_bias_scaling(cfg).rows


class TestCoverage:
    def test_single_replicate_well_formed(self):
        cfg = ExperimentConfig(experiment="coverage", d=2, n=(50,), k=(0,),
                               fn="square", sigma="identity", m=1, nchains=1,
                               seed=5)
        table = run_coverage(cfg)
        (row,) = table.rows
        assert row[4] in (0.0, 1.0)

    def test_scalar_chi_square_case(self):
        # d=1, f=identity: the standardized error is a centered normalized
        # chi-square with n degrees of freedom, close to normal
        cfg = ExperimentConfig(experiment="coverage", d=1, n=(500,), k=(0,),
                               fn="identity", b="rank1:0", sigma="identity",
                               m=2000, nchains=1, seed=6)
        table = run_coverage(cfg)
        (row,) = table.rows
        ks = row[5]
        assert ks <= 0.05
        assert abs(row[6]) <= 0.15          # mean of standardized errors
        assert abs(row[7] - 1.0) <= 0.15    # variance of standardized errors


class TestOpnorm:
    def test_scalar_consistency(self):
        cfg = ExperimentConfig(experiment="opnorm", d=1, n=(10**6,), m=10,
                               sigma="identity", seed=7)
        table = run_opnorm(cfg)
        assert table.rows[0][3] <= 0.01

    def test_ratio_positive_and_finite(self):
        cfg = ExperimentConfig(experiment="opnorm", d=(5, 10), n=(100, 200),
                               m=20, sigma="identity", seed=8)
        for row in run_opnorm(cfg).rows:
            assert 0.0 < row[5] < np.inf


class TestQuadform:
    def test_zero_matrix_degenerate(self):
        cfg = ExperimentConfig(experiment="quadform", d=3, m=1,
                               b="rank1vec:0,0,0", sigma="identity", seed=9)
        # A = 0: both samples identically zero
        (row,) = run_quadform(cfg).rows
        assert row[1] == 0.0

    def test_identity_case_same_law(self):
        cfg = ExperimentConfig(experiment="quadform", d=4, m=2, b="identity",
                               sigma="identity", seed=10)
        for row in run_quadform(cfg).rows:
            assert row[1] < row[2]

    def test_replicates_extend_without_perturbing(self):
        small = ExperimentConfig(experiment="quadform", d=3, m=2, b="random",
                                 sigma="random_spd", seed=11)
        large = ExperimentConfig(experiment="quadform", d=3, m=5, b="random",
                                 sigma="random_spd", seed=11)
        assert run_quadform(small).rows == run_quadform(large).rows[:2]


def test_run_experiment_dispatch():
    cfg = ExperimentConfig(experiment="opnorm", d=2, n=(50,), m=5, seed=12)
    assert run_experiment(cfg).columns[0] == "d"


@pytest.mark.parametrize("experiment, ds", [
    ("opnorm", (3, 4)), ("coverage", (3, 4)), ("bias_scaling", (3,))])
def test_each_true_sigma_is_decomposed_once(monkeypatch, experiment, ds):
    # its effective rank, operator norm, root, <f(Sigma), B> and sigma_f
    # all read one eigh of Sigma per d
    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    run_experiment(ExperimentConfig(experiment, d=ds, n=(20,), k=(1,),
                                    fn="log", b="identity",
                                    sigma="linspace:1,2", m=2, nchains=5))
    sigmas = [build_matrix("linspace:1,2", d) for d in ds]
    assert [sum(c.shape == s.shape and np.array_equal(c, s) for c in calls)
            for s in sigmas] == [1] * len(ds)
