import re

import numpy as np
import pytest

from drsplit import linalg, spectral
from drsplit.experiments import gen_monotone_pair, log_grid
from drsplit.spectral import (
    IdentityCheckError,
    LinearMonotonePair,
    disc_report,
    dr_update_matrix,
    iteration_matrix,
    match_spectra,
    monotonicity_ratio,
    optimal_local_stepsizes,
    radius_scan,
    spectral_radius,
)


class TestIterationMatrix:
    def test_zero_operators_give_identity(self):
        h = iteration_matrix(np.zeros((3, 3)), np.zeros((3, 3)), np.ones(3))
        np.testing.assert_array_equal(h, np.eye(3))
        f = dr_update_matrix(np.zeros((3, 3)), np.zeros((3, 3)), np.ones(3))
        np.testing.assert_array_equal(f, np.eye(3))

    def test_scalar_closed_form(self):
        # One-dimensional halves with slopes a and b: both maps reduce
        # to (1 + t^2 a b) / ((1 + t a)(1 + t b)).
        for a, b, t in [(1.0, 1.0, 1.0), (3.0, 0.5, 0.8), (2.0, 0.0, 1.3)]:
            want = (1 + t * t * a * b) / ((1 + t * a) * (1 + t * b))
            h = iteration_matrix([[a]], [[b]], [t])
            f = dr_update_matrix([[a]], [[b]], [t])
            assert h[0, 0] == pytest.approx(want, rel=1e-14)
            assert f[0, 0] == pytest.approx(want, rel=1e-14)

    def test_unit_slopes_at_unit_step_contract_by_half(self):
        h = iteration_matrix([[1.0]], [[1.0]], [1.0])
        assert h[0, 0] == 0.5

    def test_same_spectrum_as_update_matrix(self):
        # The two maps are similar, so their spectra must coincide well
        # below the eigensolver noise floor.
        rng = np.random.default_rng(61)
        for seed in range(5):
            pair = gen_monotone_pair(seed, half_dim=6)
            a = pair.block_diag_half()
            b = pair.skew_half()
            d = 10.0 ** rng.uniform(-1, 1, size=a.shape[0])
            h = iteration_matrix(a, b, d)
            f = dr_update_matrix(a, b, d)
            gap = match_spectra(np.linalg.eigvals(h), np.linalg.eigvals(f))
            assert gap <= 1e-8

    @pytest.mark.parametrize("call", [
        lambda pair, d: iteration_matrix(pair.block_diag_half(), pair.skew_half(), d),
        lambda pair, d: dr_update_matrix(pair.block_diag_half(), pair.skew_half(), d),
        lambda pair, d: monotonicity_ratio(pair.block_diag_half(), d, np.ones(6)),
        lambda pair, d: disc_report(pair, d),
    ], ids=["iteration_matrix", "dr_update_matrix", "monotonicity_ratio", "disc_report"])
    def test_matrix_preconditioner_rejected(self, call):
        # A preconditioner is the vector of its diagonal; even a positive
        # diagonal matrix is not a second form of it.
        pair = gen_monotone_pair(7, half_dim=3)
        with pytest.raises(ValueError, match=re.escape(
                "preconditioner diagonal shape (6, 6) does not match 6")):
            call(pair, np.eye(6))

    def test_preconditioner_validation(self):
        with pytest.raises(ValueError):
            iteration_matrix(np.eye(2), np.eye(2), [1.0, -1.0])
        with pytest.raises(ValueError):
            iteration_matrix(np.eye(2), np.eye(2),
                             np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            iteration_matrix(np.eye(2), np.eye(3), np.ones(2))

    @pytest.mark.parametrize("build", [iteration_matrix, dr_update_matrix])
    @pytest.mark.parametrize("which", ["a_mat", "b_mat"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_operator_rejected(self, build, which, bad):
        # A single bad entry would otherwise spread to an all-NaN matrix
        # that slips past the identity check.
        pair = gen_monotone_pair(1, half_dim=3)
        ops = {"a_mat": pair.block_diag_half(), "b_mat": pair.skew_half()}
        ops[which][2, 4] = bad
        with pytest.raises(ValueError, match=f"{which} has non-finite entries"):
            build(ops["a_mat"], ops["b_mat"], np.ones(6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_preconditioner_rejected(self, bad):
        # A non-finite step would otherwise reach the identity check as a
        # NaN gap and raise IdentityCheckError instead of a usage error.
        for build in (iteration_matrix, dr_update_matrix):
            with pytest.raises(ValueError, match="finite and positive"):
                build(np.eye(2), np.zeros((2, 2)), [1.0, bad])

    def test_empty_operators_rejected(self):
        for build in (iteration_matrix, dr_update_matrix):
            with pytest.raises(ValueError, match="nonempty"):
                build(np.zeros((0, 0)), np.zeros((0, 0)), np.ones(0))

    def test_overflowing_identity_check_raises(self):
        # Finite operators whose product DB DA overflows leave the gap NaN;
        # an unverified matrix must not be returned.
        big = 1e200
        b = np.zeros((3, 3))
        b[0, 1], b[1, 0] = big, -big
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IdentityCheckError, match="gap nan"):
                iteration_matrix(big * np.eye(3), b, np.ones(3))

    def test_planted_error_in_h_raises(self, monkeypatch):
        # Move every entry of the second solve's result, h, by
        # 1e-8 * max|h| with random signs: far above roundoff, and the
        # residual check must reject it at every pair of a small scan.
        rng = np.random.default_rng(63)
        plain_solve = np.linalg.solve
        calls = []

        def planted_solve(lhs, rhs):
            x = plain_solve(lhs, rhs)
            calls.append(None)
            if len(calls) % 2 == 0:
                x = x + 1e-8 * np.abs(x).max() * rng.choice([-1.0, 1.0], size=x.shape)
            return x

        pair = gen_monotone_pair(4, half_dim=5)
        a, b = pair.block_diag_half(), pair.skew_half()
        grid = log_grid(1e-3, 1e3, 5)
        monkeypatch.setattr(np.linalg, "solve", planted_solve)
        for t in grid:
            for s in grid:
                d = np.concatenate([np.full(5, t), np.full(5, s)])
                with pytest.raises(IdentityCheckError,
                                   match="iteration-matrix identity violated: gap"):
                    iteration_matrix(a, b, d)
        assert len(calls) == 2 * grid.size ** 2

    def test_singular_resolvent_raises(self):
        # a = -I at delta = 1 makes I + DA the zero matrix.
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            iteration_matrix(-np.eye(3), np.zeros((3, 3)), np.ones(3))

    def test_eigenvalues_only_match_eig_pairs(self):
        rng = np.random.default_rng(62)
        for seed in range(3):
            pair = gen_monotone_pair(seed, 25)
            d = 10.0 ** rng.uniform(-2, 2, size=50)
            h = iteration_matrix(pair.block_diag_half(), pair.skew_half(), d)
            scale = np.linalg.norm(h, 2)
            gap = match_spectra(linalg.eig_all(h), linalg.eig_pairs(h)[0])
            assert gap <= 1e-10 * scale


class TestMonotonicityRatio:
    def test_identity_operator_identity_metric(self):
        # <z, z> / (||z||^2 + ||z||^2) = 1/2 for any nonzero z.
        rng = np.random.default_rng(71)
        for _ in range(10):
            z = rng.standard_normal(5)
            assert monotonicity_ratio(np.eye(5), np.ones(5), z) == \
                pytest.approx(0.5, rel=1e-14)

    def test_skew_operator_gives_zero(self):
        rng = np.random.default_rng(72)
        g = rng.standard_normal((6, 6))
        skew = g - g.T
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert monotonicity_ratio(skew, np.ones(6), z) <= 1e-14

    def test_scale_invariance(self):
        rng = np.random.default_rng(73)
        g = rng.standard_normal((4, 4))
        a = g.T @ g
        d = rng.uniform(0.5, 2.0, size=4)
        z = rng.standard_normal(4)
        r1 = monotonicity_ratio(a, d, z)
        r2 = monotonicity_ratio(a, d, -3.7 * z)
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_nonmonotone_direction_raises(self):
        with pytest.raises(ValueError, match="not monotone"):
            monotonicity_ratio(-np.eye(2), np.ones(2), np.array([1.0, 0.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            monotonicity_ratio(np.eye(2), np.ones(2), np.zeros(2))


class TestDiscReport:
    def test_decoupled_unit_blocks(self):
        # No coupling and unit blocks: every eigenvalue is 1/(1 + step)
        # and sits dead center of its disc.
        pair = LinearMonotonePair(block_one=np.eye(1),
                                  block_two_inv=np.eye(1),
                                  coupling=np.zeros((1, 1)))
        report = disc_report(pair, np.ones(2))
        np.testing.assert_allclose(np.sort(report.eigenvalues.real),
                                   [0.5, 0.5], atol=1e-14)
        assert report.all_contained()
        assert report.spectral_radius == pytest.approx(0.5, abs=1e-14)

    def test_unit_eigenvalue_flagged_exempt(self):
        pair = LinearMonotonePair(block_one=np.zeros((1, 1)),
                                  block_two_inv=np.eye(1),
                                  coupling=np.zeros((1, 1)))
        report = disc_report(pair, np.ones(2))
        flags = {round(r.eigenvalue.real, 6): r.exempt for r in report.records}
        assert flags[1.0] is True
        assert report.all_contained()

    def test_random_instances_contained(self):
        # Both the outer half-disc and the per-eigenvector refinement,
        # in the squared form that keeps roundoff additive.
        for seed in range(5):
            pair = gen_monotone_pair(seed, half_dim=6)
            rng = np.random.default_rng(1000 + seed)
            d = 10.0 ** rng.uniform(-1, 1, size=2 * 6)
            report = disc_report(pair, d)
            assert report.all_contained()
            for rec in report.records:
                dist2 = abs(rec.eigenvalue - 0.5) ** 2
                assert dist2 <= 0.25 + 1e-8
                if not rec.exempt:
                    bound = 0.25 - rec.ratio / (1.0 + 2.0 * rec.ratio)
                    assert dist2 <= bound + 1e-8

    def test_preconditioner_checked_twice(self, monkeypatch):
        # Once in disc_report and once in iteration_matrix, not once more
        # per eigenvector; each ratio is still monotonicity_ratio's, bitwise.
        pair = gen_monotone_pair(0, half_dim=25)
        d = 10.0 ** np.random.default_rng(0).uniform(-1, 1, size=50)
        want = disc_report(pair, d)
        real = linalg.check_diagonal
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linalg, "check_diagonal", counting)
        report = disc_report(pair, d)
        assert len(calls) == 2
        assert report.records == want.records
        a = pair.block_diag_half()
        vecs = linalg.eig_pairs(iteration_matrix(a, pair.skew_half(), d))[1]
        for idx, rec in enumerate(report.records):
            assert rec.ratio == monotonicity_ratio(a, d, vecs[:, idx])

    def test_record_fields(self):
        pair = gen_monotone_pair(0, half_dim=3)
        report = disc_report(pair, np.ones(6))
        assert len(report.records) == 6
        for rec in report.records:
            assert 0.0 <= rec.ratio
            assert 0.0 <= rec.disc_radius <= 0.5


class TestOptimalStepsizes:
    def test_grid_oracle(self):
        # The claimed per-block stepsizes must beat every point of a
        # surrounding log grid in the monotonicity ratio at that vector.
        rng = np.random.default_rng(81)
        n, m = 4, 3
        g1 = rng.standard_normal((n, n))
        a1 = g1.T @ g1 + 0.1 * np.eye(n)
        g2 = rng.standard_normal((m, m))
        a2 = g2.T @ g2 + 0.1 * np.eye(m)
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(m)
        t_star, s_star = optimal_local_stepsizes(z1, z2, a1, a2)
        a = np.zeros((n + m, n + m))
        a[:n, :n] = a1
        a[n:, n:] = a2
        z = np.concatenate([z1, z2])

        def ratio(t, s):
            return monotonicity_ratio(
                a, np.concatenate([np.full(n, t), np.full(m, s)]), z)

        best = ratio(t_star, s_star)
        for t in np.geomspace(t_star / 10, t_star * 10, 9):
            for s in np.geomspace(s_star / 10, s_star * 10, 9):
                assert best >= ratio(t, s) - 1e-12

    def test_scalar_closed_form(self):
        t, s = optimal_local_stepsizes(np.array([2.0]), np.array([3.0]),
                                       np.array([[4.0]]), np.array([[0.5]]))
        assert t == pytest.approx(2.0 / 8.0)
        assert s == pytest.approx(3.0 / 1.5)

    def test_unbounded_raises(self):
        a1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        z1 = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="unbounded optimal stepsize"):
            optimal_local_stepsizes(z1, np.ones(1), a1, np.eye(1))


GENERAL_COUPLINGS = [((3, 5), 3), ((5, 3), 3), ((4, 6), 2), ((4, 4), 1), ((3, 5), 0)]
GENERAL_COUPLING_IDS = ["wide", "tall", "deficient-rect", "deficient-square", "zero"]


def general_pair(shape, rank):
    """A pair with an (m, n) = ``shape`` coupling of the given rank and
    random positive definite blocks; either dimension may be 0."""
    rng = np.random.default_rng(64 + rank)
    m, n = shape
    g1 = rng.standard_normal((n, n))
    g2 = rng.standard_normal((m, m))
    k = rng.uniform(size=(m, rank)) @ rng.uniform(size=(rank, n))
    return LinearMonotonePair(block_one=g1.T @ g1 + 0.1 * np.eye(n),
                              block_two_inv=np.linalg.inv(g2.T @ g2 + 0.1 * np.eye(m)),
                              coupling=k)


class TestRadiusScan:
    def test_row_order_and_best(self):
        pair = gen_monotone_pair(2, half_dim=4)
        t_grid = [0.5, 1.0, 2.0]
        s_grid = [0.7, 1.4]
        scan = radius_scan(pair, t_grid, s_grid)
        assert [(r.t, r.s) for r in scan.rows] == [
            (t, s) for t in t_grid for s in s_grid]
        assert scan.best.rho == min(r.rho for r in scan.rows)
        assert scan.best in scan.rows

    def test_grid_permutation_keeps_best(self):
        pair = gen_monotone_pair(3, half_dim=4)
        scan1 = radius_scan(pair, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0])
        scan2 = radius_scan(pair, [2.0, 0.5, 1.0], [1.0, 2.0, 0.5])
        assert scan1.best == scan2.best

    def test_rectangle_beats_diagonal(self):
        pair = gen_monotone_pair(4, half_dim=4)
        grid = np.geomspace(0.1, 10, 7)
        full = radius_scan(pair, grid, grid)
        diag = min(
            radius_scan(pair, [t], [t]).best.rho for t in grid)
        assert full.best.rho <= diag + 1e-15

    def test_spectral_radius_in_unit_interval(self):
        # Monotone halves keep every radius at or below 1.
        pair = gen_monotone_pair(5, half_dim=4)
        scan = radius_scan(pair, np.geomspace(0.01, 100, 5),
                           np.geomspace(0.01, 100, 5))
        for row in scan.rows:
            assert row.rho <= 1.0 + 1e-10

    def test_validation(self):
        pair = gen_monotone_pair(6, half_dim=3)
        with pytest.raises(ValueError):
            radius_scan(pair, [], [1.0])
        with pytest.raises(ValueError):
            radius_scan(pair, [1.0], [-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_grid_rejected(self, bad):
        # Named as a grid where the grids enter, not as the preconditioner
        # that a grid pair becomes.
        pair = gen_monotone_pair(6, half_dim=3)
        with pytest.raises(ValueError, match="t grid .* finite and positive"):
            radius_scan(pair, [1.0, bad], [1.0])
        with pytest.raises(ValueError, match="s grid .* finite and positive"):
            radius_scan(pair, [1.0], [bad])

    @pytest.mark.parametrize("half_dim", [2, 3])
    @pytest.mark.parametrize("grid", [[[1.0, 2.0]], [[1.0], [2.0]]], ids=["row", "column"])
    def test_two_dimensional_grid_rejected(self, half_dim, grid):
        # Named where the grid enters; inside the scan a row of it used to
        # meet np.full as a broadcast error or a failed scalar conversion.
        pair = gen_monotone_pair(0, half_dim)
        with pytest.raises(ValueError, match="t grid .* 1-D"):
            radius_scan(pair, grid, [1.0])
        with pytest.raises(ValueError, match="s grid .* 1-D"):
            radius_scan(pair, [1.0], grid)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scan_computes_no_eigenvectors(self, seed, monkeypatch):
        pair = gen_monotone_pair(seed, half_dim=25)
        grid = log_grid(1e-3, 1e3, 8)
        want = [(t, s, reference_radius(pair, t, s)) for t in grid for s in grid]
        want_best = min(want, key=lambda r: (r[2], r[0], r[1]))

        calls = {"spectral_radius": 0}

        def counted(name):
            real = getattr(spectral, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        def no_vectors(*args, **kwargs):
            raise AssertionError("eigenvectors computed on the scan path")

        # The benchmark laps and traces the scan through this module
        # attribute, one call per grid pair.
        for name in calls:
            monkeypatch.setattr(spectral, name, counted(name))
        monkeypatch.setattr(np.linalg, "eig", no_vectors)
        scan = radius_scan(pair, grid, grid)

        assert calls == {"spectral_radius": 64}
        assert [(r.t, r.s) for r in scan.rows] == [(t, s) for t, s, _ in want]
        for row, (_, _, rho) in zip(scan.rows, want):
            assert row.rho == pytest.approx(rho, rel=1e-12, abs=0.0)
        assert (scan.best.t, scan.best.s) == want_best[:2]


    @pytest.mark.parametrize("shape, rank", GENERAL_COUPLINGS, ids=GENERAL_COUPLING_IDS)
    def test_general_couplings_match_reference(self, shape, rank):
        # K of any shape and rank, not only the square full-rank K of
        # gen_monotone_pair: the thin SVD covers every shape and rank.
        pair = general_pair(shape, rank)
        assert np.linalg.matrix_rank(pair.coupling) == rank
        assert_scan_matches_reference(pair, log_grid(1e-6, 1e6, 7))

    @pytest.mark.parametrize("shape, rank", GENERAL_COUPLINGS + [((3, 0), 0), ((0, 3), 0)],
                             ids=GENERAL_COUPLING_IDS + ["no-primal", "no-dual"])
    def test_axis_norms_match_full_matrix_norms(self, shape, rank, monkeypatch):
        # The scan takes the bound's three operator norms per axis; they
        # must agree with the full-matrix norms that iteration_matrix takes
        # to 4 ulp, also when one block is empty and its row sums are too.
        pair = general_pair(shape, rank)
        real = spectral._check_identity
        checked = []

        def compare_norms(da, db, h, *norms):
            eye = np.eye(da.shape[0])
            for got, full in zip(norms, (eye + db, eye + da, eye - da)):
                want = np.linalg.norm(full, np.inf)
                assert abs(got - want) <= 4 * np.spacing(want)
            checked.append(None)
            real(da, db, h, *norms)

        monkeypatch.setattr(spectral, "_check_identity", compare_norms)
        grid = log_grid(1e-6, 1e6, 7)
        radius_scan(pair, grid, grid)
        assert len(checked) == grid.size ** 2

    def test_wide_grid_passes_identity_check(self):
        # Every pair of [1e-6, 1e6] passes the unchanged residual check.
        assert_scan_matches_reference(gen_monotone_pair(11, half_dim=25), log_grid(1e-6, 1e6, 7))

    def test_planted_error_in_axis_inverse_raises(self, monkeypatch):
        # Move every entry of each per-axis inverse by 1e-8 * max|entry|
        # with random signs, which moves h far above roundoff: the
        # residual check must reject it at every pair of a small grid.
        rng = np.random.default_rng(65)
        plain_inv = np.linalg.inv
        pair = gen_monotone_pair(4, half_dim=5)

        def planted_inv(mat):
            x = plain_inv(mat)
            return x + 1e-8 * np.abs(x).max() * rng.choice([-1.0, 1.0], size=x.shape)

        monkeypatch.setattr(np.linalg, "inv", planted_inv)
        for t in log_grid(1e-3, 1e3, 5):
            for s in log_grid(1e-3, 1e3, 5):
                with pytest.raises(IdentityCheckError,
                                   match="iteration-matrix identity violated: gap"):
                    radius_scan(pair, [t], [s])

    @pytest.mark.parametrize("s", [1e-6, 1e6])
    @pytest.mark.parametrize("t", [1e-6, 1e6])
    def test_planted_error_in_axis_inverse_raises_at_extreme_steps(self, t, s, monkeypatch):
        # The plant of the test above at the corners of [1e-6, 1e6], 1e-5
        # relative.  At t*s = 1 the bound's ||I + DB|| ||I + DA|| is about 5e13,
        # about 3e6 times ||(I + DB)(I + DA)||, so the check admits a 1e-8
        # plant there; 1e-5 is rejected by a factor of about 40.
        rng = np.random.default_rng(66)
        plain_inv = np.linalg.inv
        pair = gen_monotone_pair(4, half_dim=5)

        def planted_inv(mat):
            x = plain_inv(mat)
            return x + 1e-5 * np.abs(x).max() * rng.choice([-1.0, 1.0], size=x.shape)

        monkeypatch.setattr(np.linalg, "inv", planted_inv)
        with pytest.raises(IdentityCheckError, match="iteration-matrix identity violated: gap"):
            radius_scan(pair, [t], [s])

    def test_one_inverse_per_grid_value_and_no_solve(self, monkeypatch):
        # Factors are per grid value, matrices per pair: len(t) + len(s)
        # inversions, no LU solve, and one eigenvalue call per pair through
        # the module attribute.
        pair = gen_monotone_pair(7, half_dim=6)
        calls = {"inv": 0, "spectral_radius": 0}
        plain_inv = np.linalg.inv
        plain_radius = spectral.spectral_radius

        def counted_inv(mat):
            calls["inv"] += 1
            return plain_inv(mat)

        def counted_radius(mat):
            calls["spectral_radius"] += 1
            return plain_radius(mat)

        def no_solve(*args, **kwargs):
            raise AssertionError("LU solve on the scan path")

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        monkeypatch.setattr(spectral, "spectral_radius", counted_radius)
        radius_scan(pair, log_grid(1e-2, 1e2, 3), log_grid(1e-3, 1e3, 4))
        assert calls == {"inv": 3 + 4, "spectral_radius": 3 * 4}

    def test_singular_axis_resolvent_raises(self):
        # block_one = -I at t = 1 makes I + tA1 the zero matrix.
        pair = LinearMonotonePair(block_one=-np.eye(3), block_two_inv=np.eye(3),
                                  coupling=np.ones((3, 3)))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            radius_scan(pair, [0.5, 1.0], [1.0])

    @pytest.mark.parametrize("n, m, admitted", [(251, 250, False), (250, 250, True)])
    def test_size_checked_before_factoring(self, n, m, admitted, monkeypatch):
        # n + m above EIG_MAX_DIM is rejected before the SVD and the
        # per-axis inverses; at the limit the scan goes on to the SVD.
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(np.linalg, "svd", reached)
        monkeypatch.setattr(np.linalg, "inv", reached)
        pair = LinearMonotonePair(block_one=np.eye(n), block_two_inv=np.eye(m),
                                  coupling=np.zeros((m, n)))
        if admitted:
            with pytest.raises(Reached):
                radius_scan(pair, [1.0], [1.0])
        else:
            with pytest.raises(ValueError, match="matrix dimension 501 exceeds the supported 500"):
                radius_scan(pair, [1.0], [1.0])


def assert_scan_matches_reference(pair, grid):
    """Every row of a scan within 1e-12 relative of reference_radius, and the
    same best pair."""
    scan = radius_scan(pair, grid, grid)
    want = [(t, s, reference_radius(pair, t, s)) for t in grid for s in grid]
    assert [(r.t, r.s) for r in scan.rows] == [(t, s) for t, s, _ in want]
    for row, (_, _, rho) in zip(scan.rows, want):
        assert row.rho == pytest.approx(rho, rel=1e-12, abs=0.0)
    best = min(want, key=lambda r: (r[2], r[0], r[1]))
    assert (scan.best.t, scan.best.s) == best[:2]


def reference_radius(pair, t, s):
    """Plain restatement of a scan row: two dense solves, then the largest
    modulus from a full eigendecomposition."""
    a, b = pair.block_diag_half(), pair.skew_half()
    d = np.concatenate([np.full(pair.primal_dim, t), np.full(pair.dual_dim, s)])
    da = d[:, None] * a
    db = d[:, None] * b
    eye = np.eye(d.size)
    inner = np.linalg.solve(eye + db, eye - da)
    h = np.linalg.solve(eye + da, da + inner)
    return float(np.max(np.abs(np.linalg.eig(h)[0])))


class TestHelpers:
    def test_spectral_radius_known(self):
        assert spectral_radius(np.diag([0.2, -0.9])) == pytest.approx(0.9)

    def test_match_spectra_permutation(self):
        rng = np.random.default_rng(91)
        vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        shuffled = vals[rng.permutation(8)]
        assert match_spectra(vals, shuffled) == 0.0

    def test_match_spectra_perturbation(self):
        vals = np.array([1.0, 2.0, 3.0], dtype=complex)
        moved = vals + 1e-9
        assert match_spectra(vals, moved) == pytest.approx(1e-9, rel=1e-3)

    def test_match_spectra_size_mismatch(self):
        with pytest.raises(ValueError):
            match_spectra(np.ones(2), np.ones(3))

    def test_pair_validate(self):
        pair = gen_monotone_pair(9, half_dim=4)
        pair.validate()
        bad = LinearMonotonePair(block_one=-np.eye(2),
                                 block_two_inv=np.eye(2),
                                 coupling=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not monotone"):
            bad.validate()

    def test_pair_halves_shapes(self):
        pair = gen_monotone_pair(10, half_dim=3)
        a = pair.block_diag_half()
        b = pair.skew_half()
        assert a.shape == b.shape == (6, 6)
        np.testing.assert_array_equal(b, -b.T)
        np.testing.assert_array_equal(a[:3, 3:], np.zeros((3, 3)))
