import itertools

import numpy as np
import pytest
from scipy.linalg import cho_solve

from drsplit.linalg import (
    DifferenceMap,
    EigenConvergenceError,
    LinearMap,
    NotPositiveDefiniteError,
    NotPsdError,
    eig_all,
    eig_pairs,
    scaled_norm,
    seminorm,
    spd_factor,
    spd_solve,
)
from drsplit.spectral import match_spectra


def random_spd(rng, dim, shift=1.0):
    g = rng.standard_normal((dim, dim))
    return g.T @ g + shift * np.eye(dim)


class TestSpdFactor:
    def test_identity(self):
        fac = spd_factor(np.eye(3))
        np.testing.assert_array_equal(fac.lower, np.eye(3))

    def test_diagonal(self):
        fac = spd_factor(np.diag([4.0, 9.0]))
        np.testing.assert_array_equal(fac.lower, np.diag([2.0, 3.0]))

    def test_multiply_back(self):
        # The factor must reproduce the input to relative 1e-12 entrywise.
        rng = np.random.default_rng(101)
        for _ in range(5):
            s = random_spd(rng, 20)
            fac = spd_factor(s)
            err = np.abs(fac.lower @ fac.lower.T - s).max()
            assert err <= 1e-12 * np.abs(s).max()

    def test_not_positive_definite_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            spd_factor(np.diag([1.0, -1.0]))
        assert info.value.pivot == 1
        with pytest.raises(NotPositiveDefiniteError) as info:
            spd_factor(np.zeros((3, 3)))
        assert info.value.pivot == 0

    def test_asymmetric_rejected(self):
        s = np.eye(2)
        s[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            spd_factor(s)


class TestSpdSolve:
    def test_identity(self):
        fac = spd_factor(np.eye(4))
        rhs = np.arange(4.0)
        np.testing.assert_array_equal(spd_solve(fac, rhs), rhs)

    def test_left_inverse(self):
        # solve(factor(S), S @ x) recovers x.
        rng = np.random.default_rng(7)
        for _ in range(5):
            s = random_spd(rng, 15)
            fac = spd_factor(s)
            x = rng.standard_normal(15)
            np.testing.assert_allclose(spd_solve(fac, s @ x), x, atol=1e-9, rtol=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(8)
        s = random_spd(rng, 30)
        fac = spd_factor(s)
        rhs = rng.standard_normal(30)
        x = spd_solve(fac, rhs)
        assert np.linalg.norm(s @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_dimension_mismatch(self):
        fac = spd_factor(np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            spd_solve(fac, np.ones(4))

    def test_matches_cho_solve_bitwise(self):
        rng = np.random.default_rng(9)
        for dim in (1, 7, 100):
            fac = spd_factor(random_spd(rng, dim))
            rhs = rng.standard_normal(dim)
            got = spd_solve(fac, rhs)
            want = cho_solve((fac.lower, True), rhs)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty_system(self):
        fac = spd_factor(np.eye(0))
        assert spd_solve(fac, np.ones(0)).shape == (0,)

    def test_rhs_not_overwritten(self):
        rng = np.random.default_rng(10)
        fac = spd_factor(random_spd(rng, 6))
        rhs = rng.standard_normal(6)
        kept = rhs.copy()
        spd_solve(fac, rhs)
        np.testing.assert_array_equal(rhs, kept)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_gives_nonfinite_solution(self, bad):
        # No finiteness scan, and no error: the solver detects divergence
        # from its step residual instead.
        rng = np.random.default_rng(11)
        fac = spd_factor(random_spd(rng, 5))
        rhs = rng.standard_normal(5)
        rhs[2] = bad
        x = spd_solve(fac, rhs)
        assert not np.all(np.isfinite(x))


class TestEig:
    def test_identity(self):
        vals = eig_all(np.eye(4))
        np.testing.assert_allclose(np.sort_complex(vals), np.ones(4))

    def test_rotation_pair(self):
        vals = eig_all(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sorted(vals, key=lambda z: z.imag), [-1j, 1j],
                                   atol=1e-14)

    def test_eigenpair_residuals(self):
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((30, 30))
        scale = np.linalg.norm(mat, 2)
        vals, vecs = eig_pairs(mat)
        for j in range(30):
            z = vecs[:, j] / np.linalg.norm(vecs[:, j])
            assert np.linalg.norm(mat @ z - vals[j] * z) <= 1e-8 * scale

    def test_count_and_trace(self):
        rng = np.random.default_rng(12)
        mat = rng.standard_normal((40, 40))
        vals = eig_all(mat)
        assert vals.size == 40
        scale = max(1.0, abs(np.trace(mat)))
        assert abs(vals.sum().real - np.trace(mat)) <= 1e-6 * scale
        assert abs(vals.sum().imag) <= 1e-6 * scale

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            eig_all(np.eye(501))

    def test_nonfinite_rejected(self):
        mat = np.eye(3)
        mat[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            eig_all(mat)

    @pytest.mark.parametrize("dim", [30, 50])
    def test_values_only_match_eig_pairs(self, dim):
        rng = np.random.default_rng(dim)
        mat = rng.standard_normal((dim, dim))
        scale = np.linalg.norm(mat, 2)
        assert match_spectra(eig_all(mat), eig_pairs(mat)[0]) <= 1e-10 * scale

    def test_eig_pairs_shares_the_guards(self):
        with pytest.raises(ValueError, match="exceeds"):
            eig_pairs(np.eye(501))
        with pytest.raises(ValueError, match="non-finite"):
            eig_pairs(np.diag([1.0, np.inf]))

    @pytest.mark.parametrize("func, routine", [(eig_all, "eigvals"), (eig_pairs, "eig")])
    def test_convergence_failure_is_typed(self, monkeypatch, func, routine):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, routine, fail)
        with pytest.raises(EigenConvergenceError, match="did not converge"):
            func(np.eye(3))


class TestSeminorm:
    def test_euclidean_metric(self):
        u = np.array([3.0, 4.0])
        assert seminorm(u, np.eye(2)) == pytest.approx(5.0)

    def test_rank_deficient_kernel(self):
        # (a, a) lies in the kernel of [[1, -1], [-1, 1]].
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert seminorm(np.array([2.5, 2.5]), m) == 0.0
        assert seminorm(np.array([1.0, 0.0]), m) == pytest.approx(1.0)

    def test_block_preconditioner_closed_form(self):
        # For M = [[D^-1, -I], [-I, D]] the seminorm of (u1, u2) is the
        # D-norm of D^-1 u1 - u2.
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = rng.uniform(0.2, 5.0, size=2)
            m = np.block([[np.diag(1.0 / d), -np.eye(2)],
                          [-np.eye(2), np.diag(d)]])
            u = rng.standard_normal(4)
            want = np.sqrt(np.sum(d * (u[:2] / d - u[2:]) ** 2))
            assert seminorm(u, m) == pytest.approx(want, abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(22)
        m = random_spd(rng, 6, shift=0.0)
        u = rng.standard_normal(6)
        for alpha in (-3.0, 0.5, 2.0):
            assert seminorm(alpha * u, m) == pytest.approx(
                abs(alpha) * seminorm(u, m), rel=1e-12)

    def test_complex_conjugate_pairing(self):
        z = np.array([1.0 + 2.0j, -1.0j])
        assert seminorm(z, np.eye(2)) == pytest.approx(np.sqrt(6.0))

    def test_not_psd(self):
        with pytest.raises(NotPsdError):
            seminorm(np.array([1.0]), np.array([[-1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            seminorm(np.ones(3), np.eye(2))


class TestLinearMap:
    def test_forward_adjoint(self):
        rng = np.random.default_rng(31)
        op = LinearMap(rng.standard_normal((5, 3)))
        x = rng.standard_normal(3)
        y = rng.standard_normal(5)
        assert op.matvec(x) @ y == pytest.approx(x @ op.rmatvec(y), rel=1e-12)

    def test_gram_caching(self):
        # The Gram matrix of the side schur factors: KK' for a wide K, K'K
        # for a tall one.
        wide = LinearMap(np.arange(6.0).reshape(2, 3))
        assert wide.gram is wide.gram
        np.testing.assert_array_equal(wide.gram, wide.mat @ wide.mat.T)
        tall = LinearMap(np.arange(6.0).reshape(3, 2))
        assert tall.gram is tall.gram
        np.testing.assert_array_equal(tall.gram, tall.mat.T @ tall.mat)

    def test_shape_checks(self):
        op = LinearMap(np.ones((2, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.matvec(np.ones(2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.rmatvec(np.ones(3))


class TestScaledNorm:
    def test_matches_plain_norm(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = rng.standard_normal(int(rng.integers(0, 40))) * 10.0 ** rng.uniform(-5, 5)
            b = rng.standard_normal(int(rng.integers(1, 40)))
            want = np.linalg.norm(np.concatenate([a, b]))
            assert scaled_norm(a, b) == pytest.approx(want, rel=1e-14)

    def test_no_overflow_for_finite_vectors(self):
        # The first sum overflows and numpy warns; the rescaled second sum
        # gives the finite norm.
        v = np.full(100, 1e300)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert scaled_norm(v) == pytest.approx(1e301, rel=1e-14)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert scaled_norm(np.full(4, 1e160), np.zeros(3)) == pytest.approx(2e160, rel=1e-14)

    def test_nonfinite_and_zero(self):
        assert scaled_norm(np.zeros(3), np.empty(0)) == 0.0
        assert np.isnan(scaled_norm(np.array([1.0, np.nan]), np.array([np.inf])))
        assert np.isnan(scaled_norm(np.array([np.inf]), np.array([np.nan])))
        assert scaled_norm(np.array([1.0, -np.inf])) == np.inf


class TestDifferenceMap:
    @pytest.mark.parametrize("n", [2, 3, 50, 501])
    def test_products_bitwise_equal_dense(self, n, dense_difference):
        rng = np.random.default_rng(n)
        d = DifferenceMap(n)
        dense = LinearMap(dense_difference(n))
        for _ in range(5):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8)
            y = rng.standard_normal(n - 1) * 10.0 ** rng.uniform(-8, 8)
            np.testing.assert_array_equal(d.matvec(x).view(np.int64),
                                          dense.matvec(x).view(np.int64))
            np.testing.assert_array_equal(d.rmatvec(y).view(np.int64),
                                          dense.rmatvec(y).view(np.int64))

    @pytest.mark.parametrize("n", [2, 4])
    def test_products_at_signed_zeros(self, n, dense_difference):
        # Equal in value; bitwise equal except for the sign of a zero entry.
        d = DifferenceMap(n)
        dense = LinearMap(dense_difference(n))

        def check(got, want):
            np.testing.assert_array_equal(got, want)
            nonzero = want != 0.0
            np.testing.assert_array_equal(got[nonzero].view(np.int64),
                                          want[nonzero].view(np.int64))

        values = (0.0, -0.0, 1.5)
        for x in itertools.product(values, repeat=n):
            check(d.matvec(np.array(x)), dense.matvec(np.array(x)))
        for y in itertools.product(values, repeat=n - 1):
            check(d.rmatvec(np.array(y)), dense.rmatvec(np.array(y)))

    def test_shape_without_dense_matrix(self):
        d = DifferenceMap(7)
        assert d.shape == (6, 7)
        d.matvec(np.ones(7))
        d.rmatvec(np.ones(6))
        assert not hasattr(d, "mat")

    def test_not_a_dense_map(self):
        # Nothing dense is inherited: no Gram matrix of an n x n product
        # hides behind the structured operator.
        d = DifferenceMap(3)
        assert not isinstance(d, LinearMap)
        assert not hasattr(d, "gram")

    def test_shape_checks(self):
        d = DifferenceMap(4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            d.matvec(np.ones(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            d.rmatvec(np.ones(4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            d.schur(1.0).solve(np.ones(4))
        with pytest.raises(ValueError):
            DifferenceMap(1)
        with pytest.raises(TypeError):
            DifferenceMap(5.5)

    def test_schur_factor_matches_dense(self, dense_difference):
        # n = 2 leaves a single row, where the LDLT factor has no
        # off-diagonal; ts spans twenty-four decades.
        rng = np.random.default_rng(43)
        for n in (9, 2):
            d = DifferenceMap(n)
            dense = dense_difference(n)
            for ts in (1e-6, 0.3, 1.0, 1e8, 1e-12, 1e12):
                fac = d.schur(ts)
                assert fac.ts == ts
                rhs = rng.standard_normal(n - 1)
                want = np.linalg.solve(np.eye(n - 1) + ts * dense @ dense.T, rhs)
                np.testing.assert_allclose(fac.solve(rhs), want,
                                           rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_schur_factor_rejects_nonfinite(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                DifferenceMap(5).schur(bad)

    @pytest.mark.parametrize("ts, pivot", [(-1.0, 0), (-0.3, 2)])
    def test_schur_not_positive_definite_reports_pivot(self, ts, pivot):
        # The first leading minor of I + ts*DD' that is not positive.
        with pytest.raises(NotPositiveDefiniteError) as info:
            DifferenceMap(5).schur(ts)
        assert info.value.pivot == pivot
