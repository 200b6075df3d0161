import itertools
import math

import numpy as np
import pytest
from scipy.linalg import cho_solve

from drsplit.linalg import (
    REFINE_COND,
    DifferenceMap,
    LinearMap,
    eig_all,
    eig_pairs,
    scaled_norm,
    scaled_norm_rows,
    seminorm,
    spd_factor,
    spd_solve,
)
from drsplit.spectral import match_spectra


def random_spd(rng, dim, shift=1.0):
    g = rng.standard_normal((dim, dim))
    return g.T @ g + shift * np.eye(dim)


def factor(gram, ts=1.0):
    """spd_factor of I + ts*gram, from gram's eigendecomposition."""
    return spd_factor(gram, np.linalg.eigh(gram), ts)


class TestSpdFactor:
    def test_identity(self):
        # A zero Gram matrix gives S = I for every ts.
        for ts in (0.0, 1.0, 1e300):
            fac = factor(np.zeros((3, 3)), ts)
            np.testing.assert_array_equal(fac.inverse, np.eye(3))

    def test_diagonal(self):
        # Powers of two invert exactly.
        fac = factor(np.diag([3.0, -0.5]))
        np.testing.assert_array_equal(fac.inverse, np.diag([0.25, 2.0]))

    def test_multiply_back(self):
        # The inverse times S is the identity to 1e-12.
        rng = np.random.default_rng(101)
        for _ in range(5):
            s = random_spd(rng, 20)
            fac = factor(s - np.eye(20))
            np.testing.assert_allclose(fac.inverse @ s, np.eye(20), rtol=0, atol=1e-12)

    def test_not_positive_definite_raises_linalg_error(self):
        # S = diag(-1, 2), S = 0, and S = 0 again from a negative ts.
        for gram, ts in ((np.diag([-2.0, 1.0]), 1.0), (-np.eye(3), 1.0),
                         (np.eye(2), -1.0)):
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                factor(gram, ts)

    def test_nonfinite_scaled_eigenvalues_raise(self):
        # ts*lam overflows although ts is finite; an infinite d would
        # otherwise give a zero inverse.
        for ts in (1e308, np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite entries"):
                factor(np.diag([1.0, 4.0]), ts)

    def test_matrix_formed_only_for_refinement(self):
        assert factor(np.diag([0.0, 4.0])).matrix is None
        fac = factor(np.diag([0.0, 4.0]), 1e4)
        np.testing.assert_array_equal(fac.matrix, np.diag([1.0, 1.0 + 4e4]))


class TestSpdSolve:
    def test_identity(self):
        fac = factor(np.zeros((4, 4)))
        rhs = np.arange(4.0)
        np.testing.assert_array_equal(spd_solve(fac, rhs), rhs)

    def test_left_inverse(self):
        # solve(factor(S), S @ x) recovers x.
        rng = np.random.default_rng(7)
        for _ in range(5):
            s = random_spd(rng, 15)
            fac = factor(s - np.eye(15))
            x = rng.standard_normal(15)
            np.testing.assert_allclose(spd_solve(fac, s @ x), x, atol=1e-9, rtol=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(8)
        gram = random_spd(rng, 30, shift=0.0)
        fac = factor(gram)
        rhs = rng.standard_normal(30)
        x = spd_solve(fac, rhs)
        assert np.linalg.norm(x + gram @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_dimension_mismatch(self):
        fac = factor(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            spd_solve(fac, np.ones(4))

    def test_matches_cho_solve_bitwise(self):
        # The solve is the product with the cached inverse, refined once
        # when the factor says so, bit for bit, and agrees with LAPACK's
        # triangular solves on a Cholesky factor of S to 1e-12 relative.
        rng = np.random.default_rng(9)
        refined = set()
        for dim, ts in ((1, 1.0), (7, 1.0), (100, 1.0), (100, 10.0)):
            gram = random_spd(rng, dim, shift=0.0)
            s = np.eye(dim) + ts * gram
            fac = factor(gram, ts)
            rhs = rng.standard_normal(dim)
            got = spd_solve(fac, rhs)
            want = fac.inverse @ rhs
            if fac.refine:
                np.testing.assert_array_equal(fac.matrix, s)
                want = want + fac.inverse @ (rhs - fac.matrix @ want)
            refined.add(fac.refine)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            ref = cho_solve((np.linalg.cholesky(s), True), rhs)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert refined == {False, True}

    def test_refines_only_when_ill_conditioned(self):
        # The flag is the 2-norm condition number of S against REFINE_COND.
        assert not factor(np.zeros((3, 3))).refine
        assert not factor(np.diag([0.0, REFINE_COND - 1.0])).refine
        assert factor(np.diag([0.0, 2.0 * REFINE_COND - 1.0])).refine
        # The same S from a different split of ts and the Gram matrix.
        assert factor(np.diag([0.0, 2.0 * REFINE_COND - 1.0]) / 8.0, 8.0).refine

    def test_empty_system(self):
        fac = factor(np.zeros((0, 0)))
        assert fac.dim == 0 and not fac.refine and fac.matrix is None
        assert spd_solve(fac, np.ones(0)).shape == (0,)

    def test_rhs_not_overwritten(self):
        rng = np.random.default_rng(10)
        fac = factor(random_spd(rng, 6, shift=0.0))
        rhs = rng.standard_normal(6)
        kept = rhs.copy()
        spd_solve(fac, rhs)
        np.testing.assert_array_equal(rhs, kept)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_gives_nonfinite_solution(self, bad):
        # No finiteness scan, and no error: the solver detects divergence
        # from its step residual instead.
        rng = np.random.default_rng(11)
        fac = factor(random_spd(rng, 5, shift=0.0))
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
        # numpy's own error passes through.
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, routine, fail)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
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
        with pytest.raises(ValueError, match="not positive semidefinite"):
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

    def test_eigendecomposition_cached(self, monkeypatch):
        # One eigh per operator, whatever the number of products factored.
        calls = []
        real = np.linalg.eigh

        def counting(mat):
            calls.append(mat)
            return real(mat)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        op = LinearMap(np.arange(6.0).reshape(3, 2))
        for ts in (1.0, 2.0, 1.0, 1e-3):
            op.schur(ts)
        assert len(calls) == 1 and calls[0] is op.gram
        assert op.gram_eig is op.gram_eig

    def test_overflowing_gram_rejected(self):
        # A finite K whose Gram matrix overflows cannot be factored.
        op = LinearMap(np.full((3, 2), 1e200))
        with np.errstate(over="ignore"):
            op.gram
        with pytest.raises(ValueError, match="Gram matrix has non-finite entries"):
            op.schur(1.0)

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7), (5, 5), (0, 3), (3, 0)],
                             ids=["tall", "wide", "square", "no-rows", "no-cols"])
    @pytest.mark.parametrize("view", [False, True], ids=["contiguous", "transposed-view"])
    def test_products_match_matmul_bitwise(self, shape, view):
        # ndarray.dot reaches the same BLAS product as @, bit for bit, also
        # on a transposed (Fortran-ordered) matrix and strided vectors.
        rng = np.random.default_rng(32)
        rows, cols = shape
        mat = rng.standard_normal((cols, rows)).T if view else rng.standard_normal(shape)
        x = rng.standard_normal((cols, 2))[:, 1] if view else rng.standard_normal(cols)
        y = rng.standard_normal((rows, 2))[:, 1] if view else rng.standard_normal(rows)
        op = LinearMap(mat)
        assert op.mat.flags.c_contiguous != (view and min(shape) > 1)
        np.testing.assert_array_equal(op.matvec(x).view(np.int64), (mat @ x).view(np.int64))
        np.testing.assert_array_equal(op.rmatvec(y).view(np.int64), (mat.T @ y).view(np.int64))

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7), (0, 3), (3, 0)],
                             ids=["tall", "wide", "no-rows", "no-cols"])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_stacks_match_rows_bitwise(self, shape, count):
        # Row i of a stacked product has the bits of row i's own product.
        rng = np.random.default_rng(33)
        rows, cols = shape
        op = LinearMap(rng.standard_normal(shape))
        xs, ys = rng.standard_normal((count, cols)), rng.standard_normal((count, rows))
        assert_rows_bitwise(op.matvec(xs), [op.matvec(x.copy()) for x in xs], (count, rows))
        assert_rows_bitwise(op.rmatvec(ys), [op.rmatvec(y.copy()) for y in ys], (count, cols))

    def test_shape_checks(self):
        op = LinearMap(np.ones((2, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.matvec(np.ones(2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.rmatvec(np.ones(3))
        for bad in (np.ones((4, 2)), np.ones((2, 2, 3))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                op.matvec(bad)
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.rmatvec(np.ones((4, 3)))


def assert_rows_bitwise(stack, rows, shape):
    assert stack.shape == shape
    want = np.array(rows).reshape(shape)
    np.testing.assert_array_equal(stack.view(np.int64), want.view(np.int64))


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

    def test_no_underflow_for_nonzero_vectors(self):
        # The squares underflow, to 0 or to subnormals; the rescaled second
        # sum gives the norm.
        assert scaled_norm(np.full(3, 1e-170)) == pytest.approx(np.sqrt(3) * 1e-170, rel=1e-14)
        assert scaled_norm(np.full(4, 1e-160), np.zeros(3)) == pytest.approx(2e-160, rel=1e-14)
        assert scaled_norm(np.zeros(2), np.array([0.0, 5e-324])) == 5e-324

    def test_normal_sums_keep_plain_bits(self):
        for v in (np.full(3, 1e-150), np.array([1e-154, 3e-170]), np.arange(5.0)):
            assert scaled_norm(v) == math.sqrt(v.dot(v))

    def test_rows_match_scaled_norm_bitwise(self):
        # Normal rows take the fast path; rows whose squares overflow
        # (1e160) or underflow (1e-170) are rescaled, as are NaN and inf
        # rows, each among normal rows.
        rng = np.random.default_rng(42)
        ps, qs = rng.standard_normal((6, 30)), rng.standard_normal((6, 7))
        assert_rows_bitwise(scaled_norm_rows(ps, qs), [scaled_norm(p, q) for p, q in zip(ps, qs)],
                            (6,))
        ps[1] *= 1e160
        qs[3] *= 1e-170
        ps[3] *= 1e-170
        ps[4, 2], qs[5, 0] = np.nan, np.inf
        with np.errstate(over="ignore"):
            want = [scaled_norm(p, q) for p, q in zip(ps, qs)]
            assert_rows_bitwise(scaled_norm_rows(ps, qs), want, (6,))
            assert_rows_bitwise(scaled_norm_rows(qs), [scaled_norm(q) for q in qs], (6,))
        assert np.isfinite(want[1]) and 0.0 < want[3] < 1e-160
        assert np.isnan(want[4]) and want[5] == np.inf
        assert_rows_bitwise(scaled_norm_rows(np.zeros((2, 3)), np.empty((2, 0))), [0.0, 0.0],
                            (2,))

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

    @pytest.mark.parametrize("n", [2, 500])
    def test_stacks_match_rows_bitwise(self, n):
        rng = np.random.default_rng(n + 7)
        d = DifferenceMap(n)
        for count in (1, 4):
            xs, ys = rng.standard_normal((count, n)), rng.standard_normal((count, n - 1))
            assert_rows_bitwise(d.matvec(xs), [d.matvec(x.copy()) for x in xs], (count, n - 1))
            assert_rows_bitwise(d.rmatvec(ys), [d.rmatvec(y.copy()) for y in ys], (count, n))

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
            d.matvec(np.ones((2, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            d.rmatvec(np.ones((2, 4)))
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

    @pytest.mark.parametrize("ts", [-1.0, -0.3])
    def test_schur_not_positive_definite_raises_linalg_error(self, ts):
        # I + ts*DD' has a nonpositive leading minor: the first at ts = -1,
        # the third at ts = -0.3.
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            DifferenceMap(5).schur(ts)
