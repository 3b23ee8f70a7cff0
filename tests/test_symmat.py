import numpy as np
import pytest

from covfn.errors import (
    DimMismatch,
    DomainError,
    NotPSD,
    NumericOverflow,
    ZeroMatrix,
)
from covfn.estimators import sigma_f
from covfn.functions import get_function, parse_function_spec
from covfn.symmat import (
    LOEWNER_GAP,
    SymMat,
    as_symmat,
    check_domain,
    effective_rank,
    eigh,
    eigvalsh,
    from_eigenpairs,
    loewner_differences,
    spectral_terms,
    trace_inner_product,
)
from conftest import random_spd, random_sym
from helpers import (apply_scalar_function, frechet_derivative,
                     loewner_first_difference, loewner_matrix,
                     loewner_second_difference, taylor_remainder)

SQUARE = get_function("square")
CUBE = get_function("cube")
LOG = get_function("log")
EXP = get_function("exp")
IDENTITY = get_function("identity")


class TestSymMat:
    def test_symmetrizes_and_records(self):
        a = SymMat(np.array([[1.0, 2.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(a.entries, [[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(NumericOverflow):
            SymMat(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericOverflow):
            SymMat(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimMismatch):
            SymMat(np.ones((2, 3)))

    def test_immutable(self):
        a = as_symmat(np.eye(2))
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0


class TestStacks:
    def test_symmat_of_a_stack(self):
        a = np.array([[[1.0, 2.0], [0.0, 1.0]], [[3.0, 1.0], [1.0, 3.0]]])
        s = SymMat(a)
        assert s.dim == 2 and s.entries.shape == (2, 2, 2)
        np.testing.assert_array_equal(s.entries[0], [[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(s.entries[1], a[1])
        a[1, 0, 0] = np.inf
        with pytest.raises(NumericOverflow):
            SymMat(a)

    @pytest.mark.parametrize("d", [7, 40])
    def test_eigh_of_a_stack_is_one_call_per_matrix(self, np_rng, d):
        stack = np.array([random_sym(np_rng, d) for _ in range(6)])
        dec = eigh(stack)
        assert dec.eigenvalues.shape == (6, d)
        assert dec.eigenvectors.shape == (6, d, d)
        for i, a in enumerate(stack):
            one = eigh(a)
            np.testing.assert_array_equal(dec.eigenvalues[i], one.eigenvalues)
            np.testing.assert_array_equal(dec.eigenvectors[i], one.eigenvectors)

    def test_from_eigenpairs_rebuilds_a_stack(self, np_rng):
        stack = np.array([random_sym(np_rng, 5) for _ in range(3)])
        dec = eigh(stack)
        np.testing.assert_allclose(
            from_eigenpairs(dec.eigenvalues, dec.eigenvectors), stack,
            atol=1e-12)


class TestEigh:
    def test_diagonal_input(self):
        d = eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(d.eigenvalues, [1.0, 2.0, 3.0])
        # eigenvectors are signed permutation columns
        np.testing.assert_allclose(np.abs(d.eigenvectors).sum(axis=0), 1.0)
        assert eigh(d) is d  # a decomposition passes through

    def test_identity(self):
        d = eigh(np.eye(4))
        np.testing.assert_allclose(d.eigenvalues, 1.0)
        np.testing.assert_allclose(
            d.eigenvectors.T @ d.eigenvectors, np.eye(4), atol=1e-12
        )

    def test_2x2_closed_form(self):
        d = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(d.eigenvectors), 1 / np.sqrt(2), atol=1e-14)

    def test_reconstruction_and_orthonormality(self, np_rng):
        for _ in range(20):
            a = random_sym(np_rng, 8, scale=3.0)
            d = eigh(a)
            u, lam = d.eigenvectors, d.eigenvalues
            assert np.abs(u.T @ u - np.eye(8)).max() <= 1e-10
            err = np.abs(from_eigenpairs(lam, u) - as_symmat(a).entries).max()
            assert err <= 1e-10 * (1.0 + np.abs(a).max())
            assert np.all(np.diff(d.eigenvalues) >= 0)


class TestEigvalsh:
    def test_values_only_driver_bit_for_bit(self, np_rng):
        # the opnorm and quadform outputs rest on these bits, which eigh's
        # eigenvalues need not share
        stack = np.array([random_sym(np_rng, 6) for _ in range(50)])
        np.testing.assert_array_equal(eigvalsh(stack), np.linalg.eigvalsh(stack))
        for a in stack:
            np.testing.assert_array_equal(eigvalsh(a), np.linalg.eigvalsh(a))

    def test_eigenvalue_beyond_floating_point(self):
        with np.errstate(over="ignore"), pytest.raises(
                NumericOverflow, match="^an eigenvalue overflows"):
            eigvalsh(np.full((2, 2), 1e308))


class TestApplyScalarFunction:
    def test_square_diagonal(self):
        out = apply_scalar_function(eigh(np.diag([1.0, 4.0])), SQUARE)
        np.testing.assert_allclose(out.entries, np.diag([1.0, 16.0]), atol=1e-12)

    def test_identity_function_returns_input(self, np_rng):
        a = random_sym(np_rng, 6)
        out = apply_scalar_function(eigh(a), IDENTITY)
        np.testing.assert_allclose(out.entries, as_symmat(a).entries, rtol=1e-12,
                                   atol=1e-12)

    def test_log_of_exponential_diagonal(self):
        out = apply_scalar_function(eigh(np.diag([np.e, np.e**2])), LOG)
        np.testing.assert_allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-12)

    def test_log_of_singular_matrix_rejected(self):
        with pytest.raises(DomainError):
            apply_scalar_function(eigh(np.diag([1.0, 0.0])), LOG)


class TestCheckDomain:
    def test_each_margin_is_relative_to_its_own_matrix(self):
        # 3.4e-12 is about 1e5 above the rounding of a 0.115-scale matrix,
        # so the state is inside log's domain whatever its neighbours reach
        check_domain(np.array([[3.4e-12, 0.115]]), LOG, "chains")
        check_domain(np.array([[3.4e-12, 0.115], [1.0, 5.43]]), LOG, "chains")

    def test_counts_the_entries_of_the_first_axis(self):
        chains = np.array([[[1e-14, 0.115], [0.5, 1.0]],
                           [[1.0, 5.43], [2.0, 3.0]],
                           [[0.5, 1.0], [-1.0, 2.0]]])  # (chains, states, d)
        with pytest.raises(DomainError, match=r"^2 of 3 chains left the domain "
                           r"\(0\.0, inf\) of 'log'$"):
            check_domain(chains, LOG, "chains")
        with pytest.raises(DomainError, match="^2 of 3 eigenvalues left"):
            check_domain(np.array([0.0, 1.0, -1.0]), LOG, "eigenvalues")


class TestLoewner:
    # the Loewner matrix of loewner_differences, scaled back to the grid
    def test_square_divided_difference_is_sum(self):
        l = loewner_matrix(np.array([1.0, 2.0]), SQUARE)
        np.testing.assert_allclose(l, [[2.0, 3.0], [3.0, 4.0]], atol=1e-12)

    def test_degenerate_pair_uses_derivative(self):
        c = 1.7
        l = loewner_matrix(np.array([c, c]), LOG)
        np.testing.assert_allclose(l, np.full((2, 2), 1.0 / c), atol=1e-12)

    def test_log_pair(self):
        l = loewner_matrix(np.array([1.0, 3.0]), LOG)
        np.testing.assert_allclose(l[0, 1], np.log(3.0) / 2.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(l), [1.0, 1.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(l, l.T)


class TestLoewnerDifferences:
    # sigma_f and the second-order term of a chain step read L, the inverse
    # gaps R and G_ij = f[l_i, l_j, l_i]; each pair's first difference
    # divided by its gap and the d^3 tensor of the test helpers are their
    # oracles on the grid the routine takes them on: log and cube have a
    # degree, so theirs is divided by 2^e = 2, and exp's is the grid itself
    @pytest.mark.parametrize("f", [LOG, EXP, CUBE], ids=["log", "exp", "cube"])
    @pytest.mark.parametrize("lam", [[0.5, 1.25, 2.0, 3.5], [1.5, 1.5, 2.5],
                                     [1.5, 1.5 + 1e-12, 2.5],
                                     [1.0, 1.0 + 1e-6, 2.0]],
                             ids=["distinct", "tied", "within-gap", "near-tied"])
    def test_match_the_first_difference_and_the_tensor(self, f, lam):
        first, inv, second, e = loewner_differences(np.array(lam), f)
        assert e == (0 if f.degree is None else 1)
        lam = np.ldexp(lam, -e)
        np.testing.assert_allclose(first, loewner_first_difference(lam, f),
                                   rtol=1e-14)
        tensor = loewner_second_difference(lam, f)
        i = np.arange(lam.size)
        # a divided pair's G rounds like the tensor's entry, and a gap g
        # costs up to eps |L| / g of it
        tol = 4e-16 * np.abs(first).max() * np.abs(inv) + 1e-14 * np.abs(second)
        assert np.all(np.abs(second - tensor[i, :, i]) <= tol)
        gap = lam[:, None] - lam
        tied = np.abs(gap) <= LOEWNER_GAP * np.abs(lam).max()
        assert np.all(inv[tied] == 0.0)
        np.testing.assert_array_equal(inv[~tied], 1.0 / gap[~tied])

    def test_a_stack_gives_each_grid_its_own_bits(self, np_rng):
        lam = np.sort(np_rng.uniform(0.5, 3.0, (5, 6)), axis=1)
        lam[2, 1] = lam[2, 0]
        e = loewner_differences(lam[3], LOG)[3]
        lam[3] *= 2.0**-600  # a grid in a binade of its own
        stack = loewner_differences(lam, LOG)
        for r in range(5):
            for whole, one in zip(stack, loewner_differences(lam[r], LOG)):
                np.testing.assert_array_equal(whole[r], one)
        assert stack[3][3] == e - 600

    @pytest.mark.parametrize("name", ["log", "power:-1", "power:0.5", "cube"])
    @pytest.mark.parametrize("j", [-600, 600])
    def test_a_grid_of_degree_h_has_the_same_bits_at_every_scale(self, name, j):
        # a grid scaled by 2^j is divided by a power of two 2^j larger, so
        # L, R and G keep their bits and only e moves, by j
        f = parse_function_spec(name)
        lam = np.array([0.3, 0.7, 0.7, 1.9, 5.5])
        base, scaled = (loewner_differences(lam * c, f) for c in (1.0, 2.0**j))
        for one, other in zip(base[:3], scaled[:3]):
            np.testing.assert_array_equal(one, other)
        assert scaled[3] == base[3] + j

    def test_outside_the_domain_raises(self):
        with pytest.raises(DomainError):
            loewner_differences(np.array([-1.0, 1.0]), LOG)


class TestFrechetDerivative:
    def test_square_is_anticommutator(self, np_rng):
        a = random_spd(np_rng, 5)
        h = random_sym(np_rng, 5)
        df = frechet_derivative(eigh(a), SQUARE, h)
        np.testing.assert_allclose(df.entries, a @ h + h @ a, rtol=1e-10,
                                   atol=1e-12)

    def test_identity_function_returns_h(self, np_rng):
        a = random_spd(np_rng, 5)
        h = random_sym(np_rng, 5)
        df = frechet_derivative(eigh(a), IDENTITY, h)
        np.testing.assert_allclose(df.entries, h, rtol=1e-12, atol=1e-12)

    def test_cube_closed_form_and_finite_differences(self, np_rng):
        a = random_spd(np_rng, 5)
        h = random_sym(np_rng, 5)
        df = frechet_derivative(eigh(a), CUBE, h).entries
        closed = a @ a @ h + a @ h @ a + h @ a @ a
        np.testing.assert_allclose(df, closed, rtol=1e-9, atol=1e-11)
        fd = _central_difference(a, h, CUBE, 1e-5)
        assert np.abs(fd - df).max() <= 1e-6 * (1.0 + np.abs(df).max())

    def test_linearity(self, np_rng):
        a = random_spd(np_rng, 6)
        h1 = random_sym(np_rng, 6)
        h2 = random_sym(np_rng, 6)
        d = eigh(a)
        for f in (SQUARE, LOG, EXP):
            lhs = frechet_derivative(d, f, 2.5 * h1 - 1.25 * h2).entries
            rhs = (2.5 * frechet_derivative(d, f, h1).entries
                   - 1.25 * frechet_derivative(d, f, h2).entries)
            assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + np.abs(rhs).max())

    def test_self_adjointness(self, np_rng):
        a = random_spd(np_rng, 6)
        d = eigh(a)
        for f in (SQUARE, CUBE, LOG, EXP, get_function("smoothstep", 1.0, 2.0, 0.5)):
            h1 = random_sym(np_rng, 6)
            h2 = random_sym(np_rng, 6)
            lhs = trace_inner_product(frechet_derivative(d, f, h1), h2)
            rhs = trace_inner_product(h1, frechet_derivative(d, f, h2).entries)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))

    def test_basis_invariance_under_degeneracy(self, np_rng):
        # rotating inside the degenerate eigenspace leaves A fixed but can
        # flip which orthonormal basis eigh reports
        a = np.diag([1.0, 1.0, 2.0])
        theta = 0.83
        r = np.array([
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ])
        a2 = r @ a @ r.T
        h = random_sym(np_rng, 3)
        for f in (SQUARE, LOG, EXP):
            out1 = frechet_derivative(eigh(a), f, h).entries
            out2 = frechet_derivative(eigh(a2), f, h).entries
            assert np.abs(out1 - out2).max() <= 1e-10
            f1 = apply_scalar_function(eigh(a), f).entries
            f2 = apply_scalar_function(eigh(a2), f).entries
            assert np.abs(f1 - f2).max() <= 1e-10

    def test_finite_difference_error_scales_quadratically(self, np_rng):
        a = random_spd(np_rng, 5)
        h = random_sym(np_rng, 5, scale=0.5)
        df = frechet_derivative(eigh(a), EXP, h).entries
        e1 = np.abs(_central_difference(a, h, EXP, 1e-3) - df).max()
        e2 = np.abs(_central_difference(a, h, EXP, 2e-3) - df).max()
        assert 3.0 <= e2 / e1 <= 5.0

    def test_dim_mismatch(self, np_rng):
        with pytest.raises(DimMismatch):
            sigma_f(eigh(np.eye(3)), SQUARE, np.eye(2))


SPECTRAL_FS = (SQUARE, LOG, EXP, get_function("power", 0.5),
               get_function("smoothstep", 1.0, 2.0, 0.5))


class TestSpectralTerms:
    def test_a_stack_gives_each_matrix_its_own_bits(self, np_rng):
        # the chains reduce their states in blocks of any split, and no
        # number may depend on it
        dec = eigh(np.array([random_spd(np_rng, 6) for _ in range(5)]))
        b = random_sym(np_rng, 6)
        for f in SPECTRAL_FS:
            vals, bt = spectral_terms(dec.eigenvalues, dec.eigenvectors, f, b,
                                      True)
            for i in range(5):
                val, one = spectral_terms(dec.eigenvalues[i], dec.eigenvectors[i],
                                          f, b, True)
                assert vals[i] == val
                np.testing.assert_array_equal(bt[i], one)

    def test_value_is_the_inner_product_with_f_of_a(self, np_rng):
        a = random_spd(np_rng, 6)
        b = random_sym(np_rng, 6)
        d = eigh(a)
        for f in SPECTRAL_FS:
            val, _ = spectral_terms(d.eigenvalues, d.eigenvectors, f, b, False)
            ref = trace_inner_product(apply_scalar_function(d, f), b)
            assert val == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_derivative_matches_central_differences(self, np_rng):
        a = random_spd(np_rng, 6)
        b = as_symmat(random_sym(np_rng, 6)).entries
        d = eigh(a)
        u = d.eigenvectors
        for f in SPECTRAL_FS:
            _, bt = spectral_terms(d.eigenvalues, u, f, b, True)
            np.testing.assert_allclose(bt, u.T @ b @ u, rtol=0, atol=1e-14)
            deriv = loewner_matrix(d.eigenvalues, f) * bt
            fd = u.T @ _central_difference(a, b, f, 1e-5) @ u
            assert np.abs(deriv - fd).max() <= 1e-8 * (1.0 + np.abs(deriv).max())

    def test_no_projection_unless_asked(self, np_rng):
        d = eigh(random_spd(np_rng, 4))
        val, bt = spectral_terms(d.eigenvalues, d.eigenvectors, LOG, np.eye(4),
                                 False)
        assert bt is None
        assert val == pytest.approx(np.log(d.eigenvalues).sum(), rel=1e-13)

    def test_sigma_f_checks_the_domain_before_f_is_taken(self):
        # log of the zero eigenvalue would warn, an error under this suite
        with pytest.raises(DomainError):
            sigma_f(np.diag([1.0, 0.0]), LOG, np.eye(2))


def _central_difference(a, h, f, step):
    fp = apply_scalar_function(eigh(as_symmat(a).entries + step * h), f).entries
    fm = apply_scalar_function(eigh(as_symmat(a).entries - step * h), f).entries
    return (fp - fm) / (2 * step)


class TestTaylorRemainder:
    def test_square_remainder_is_h_squared(self, np_rng):
        a = random_sym(np_rng, 5)
        h = random_sym(np_rng, 5)
        rem = taylor_remainder(a, h, SQUARE)
        assert np.abs(rem.entries - h @ h).max() <= 1e-12 * (1 + np.abs(h @ h).max())

    def test_zero_direction(self, np_rng):
        a = random_spd(np_rng, 4)
        rem = taylor_remainder(a, np.zeros((4, 4)), LOG)
        np.testing.assert_allclose(rem.entries, 0.0, atol=1e-14)

    def test_log_remainder_quadratic_scaling(self, np_rng):
        a = random_spd(np_rng, 4, lo=1.0, hi=2.0)
        h = random_sym(np_rng, 4, scale=0.05)
        norms = []
        for i in range(4):
            rem = taylor_remainder(a, h / 2**i, LOG)
            norms.append(np.abs(rem.entries).max())
        ratios = [norms[i] / norms[i + 1] for i in range(3)]
        assert all(3.5 <= r <= 4.5 for r in ratios)


class TestEffectiveRank:
    def test_isotropic(self):
        assert effective_rank(2.5 * np.eye(7)) == pytest.approx(7.0)

    def test_rank_one(self):
        assert effective_rank(np.diag([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_diag_2_1_1(self):
        assert effective_rank(np.diag([2.0, 1.0, 1.0])) == pytest.approx(2.0)

    def test_finite_where_the_trace_overflows(self):
        assert effective_rank(np.diag([1e308, 1e308])) == 2.0

    def test_scale_invariance(self, np_rng):
        a = random_spd(np_rng, 6)
        assert effective_rank(a) == pytest.approx(effective_rank(17.0 * a),
                                                  rel=1e-12)

    def test_errors(self):
        with pytest.raises(ZeroMatrix):
            effective_rank(np.zeros((3, 3)))
        with pytest.raises(NotPSD):
            effective_rank(np.diag([1.0, -0.5]))


class TestTraceInnerProduct:
    def test_identity_pair(self):
        assert trace_inner_product(np.eye(5), np.eye(5)) == pytest.approx(5.0)

    def test_rank_one_picks_entry(self, np_rng):
        a = random_sym(np_rng, 4)
        b = np.zeros((4, 4))
        b[0, 0] = 1.0
        assert trace_inner_product(a, b) == pytest.approx(as_symmat(a).entries[0, 0])

    def test_symmetry(self, np_rng):
        for _ in range(10):
            a, b = random_sym(np_rng, 5), random_sym(np_rng, 5)
            assert trace_inner_product(a, b) == pytest.approx(
                trace_inner_product(b, a), rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            trace_inner_product(np.eye(2), np.eye(3))
