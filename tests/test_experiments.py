import functools
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from drsplit.adaptive import ConstantPolicy, TsAdaptivePolicy
from drsplit.experiments import (
    gen_lad,
    gen_monotone_pair,
    gen_tv,
    log_grid,
    make_lad_problem,
    make_tv_problem,
    run_comparison,
)
from drsplit.linalg import DifferenceMap, LinearMap
from drsplit.operators import (
    prox_box_dual,
    prox_l1,
    prox_quadratic_fidelity,
    prox_shifted_l1_conj,
)
from drsplit.pddr import PdProblem, solve


class TestGenerators:
    def test_lad_deterministic(self):
        a1, p1 = gen_lad(7, m=20, n=10)
        a2, p2 = gen_lad(7, m=20, n=10)
        np.testing.assert_array_equal(a1.design, a2.design)
        np.testing.assert_array_equal(a1.observations, a2.observations)
        x = np.ones(10)
        assert p1.objective(x) == p2.objective(x)

    def test_lad_shapes_and_defaults(self):
        inst, prob = gen_lad(0)
        assert inst.design.shape == (200, 100)
        assert inst.observations.shape == (200,)
        assert inst.reg_weight == 1.0
        assert prob.primal_dim == 100 and prob.dual_dim == 200

    def test_lad_seed_changes_data(self):
        a1, _ = gen_lad(1, m=20, n=10)
        a2, _ = gen_lad(2, m=20, n=10)
        assert np.abs(a1.design - a2.design).max() > 0

    def test_lad_validation(self):
        with pytest.raises(ValueError):
            gen_lad(0, m=10, n=10)
        with pytest.raises(ValueError):
            make_lad_problem(np.ones((4, 2)), np.ones(4), 0.0)
        with pytest.raises(ValueError):
            make_lad_problem(np.ones((4, 2)), np.ones(3), 1.0)

    def test_tv_deterministic(self):
        i1, _ = gen_tv(3, n=100)
        i2, _ = gen_tv(3, n=100)
        np.testing.assert_array_equal(i1.noisy, i2.noisy)

    def test_tv_shapes(self):
        inst, prob = gen_tv(0)
        assert inst.noisy.shape == (500,)
        assert inst.difference.shape == (499, 500)
        assert prob.primal_dim == 500 and prob.dual_dim == 499

    def test_tv_noise_free(self):
        inst, _ = gen_tv(5, n=80, noise_level=0.0, plateaus=4,
                         amplitude=0.3)
        # Without noise the signal is piecewise constant: at most 3
        # nonzero forward differences and all levels within amplitude.
        jumps = np.diff(inst.noisy)
        assert np.count_nonzero(jumps) <= 3
        assert np.abs(inst.noisy).max() <= 0.3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [
        lambda bad: make_lad_problem(np.ones((4, 2)), np.ones(4), bad),
        lambda bad: make_tv_problem(np.ones(4), bad),
        lambda bad: gen_tv(0, n=10, noise_level=bad),
    ], ids=["make_lad_problem", "make_tv_problem", "gen_tv-noise"])
    def test_nonfinite_settings_rejected(self, entry, bad):
        # Rejected where they enter, not found as a non-finite iterate later.
        with pytest.raises(ValueError, match="finite"):
            entry(bad)

    @pytest.mark.parametrize("entry, message", [
        (lambda: make_lad_problem(np.ones((4, 2)), np.array([1.0, np.nan, 0.0, 0.0]), 1.0),
         "observations have non-finite entries"),
        (lambda: make_tv_problem(np.array([1.0, np.inf, 0.0]), 1.0),
         "signal has non-finite entries"),
    ], ids=["make_lad_problem", "make_tv_problem"])
    def test_nonfinite_data_rejected(self, entry, message):
        # Named where the data enters, not met as a diverged first sweep.
        with pytest.raises(ValueError, match=message):
            entry()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_tv_amplitude_rejected(self, bad):
        # Named before the generator draws anything; a NaN amplitude used
        # to reach rng.uniform and raise OverflowError.
        with pytest.raises(ValueError, match="amplitude"):
            gen_tv(0, n=10, amplitude=bad)

    def test_tv_validation(self):
        with pytest.raises(ValueError):
            gen_tv(0, n=1)
        with pytest.raises(ValueError):
            gen_tv(0, noise_level=-0.1)
        with pytest.raises(ValueError):
            gen_tv(0, plateaus=0)

    def test_monotone_pair_structure(self):
        pair = gen_monotone_pair(11, half_dim=8)
        pair.validate()
        assert pair.block_one.shape == (8, 8)
        assert pair.block_two_inv.shape == (8, 8)
        assert pair.coupling.shape == (8, 8)
        assert np.all(pair.coupling >= 0) and np.all(pair.coupling < 1)
        # block_two entered through its inverse, so the inverse is again
        # symmetric positive definite.
        vals = np.linalg.eigvalsh(0.5 * (pair.block_two_inv
                                         + pair.block_two_inv.T))
        assert vals.min() > 0

    def test_monotone_pair_deterministic(self):
        p1 = gen_monotone_pair(4, half_dim=5)
        p2 = gen_monotone_pair(4, half_dim=5)
        np.testing.assert_array_equal(p1.block_one, p2.block_one)
        np.testing.assert_array_equal(p1.coupling, p2.coupling)


class TestDifferenceMap:
    def test_known_matrix(self):
        # D times the j-th unit vector is the j-th column, D' times the
        # i-th unit vector the i-th row.
        d = DifferenceMap(4)
        want = np.array([[-1.0, 1.0, 0.0, 0.0],
                         [0.0, -1.0, 1.0, 0.0],
                         [0.0, 0.0, -1.0, 1.0]])
        for j, e in enumerate(np.eye(4)):
            np.testing.assert_array_equal(d.matvec(e), want[:, j])
        for i, e in enumerate(np.eye(3)):
            np.testing.assert_array_equal(d.rmatvec(e), want[i])

    def test_ramp_and_constant(self):
        d = DifferenceMap(6)
        np.testing.assert_array_equal(d.matvec(np.arange(6.0)), np.ones(5))
        np.testing.assert_array_equal(d.matvec(np.full(6, 2.5)), np.zeros(5))

    def test_too_short(self):
        with pytest.raises(ValueError):
            DifferenceMap(1)

    @pytest.mark.parametrize("policy", [TsAdaptivePolicy(), ConstantPolicy(1.1, 0.9)],
                             ids=["ts-adaptive", "constant"])
    def test_solves_agree_with_dense_coupling(self, policy, dense_difference):
        # The criterion-8 sweep through the banded solve and through the
        # same operator stored densely: equal up to rounding.
        for weight in (0.01, 0.1, 1.0, 10.0):
            _, prob = gen_tv(0, reg_weight=weight)
            dense = replace(prob, coupling=LinearMap(dense_difference(prob.primal_dim)))
            x, y, trace = solve(prob, policy, max_iter=1000, tol=0.0)
            x_d, y_d, trace_d = solve(dense, policy, max_iter=1000, tol=0.0)
            np.testing.assert_allclose(x, x_d, rtol=1e-10, atol=1e-10 * np.abs(x_d).max())
            np.testing.assert_allclose(y, y_d, rtol=1e-10, atol=1e-10 * np.abs(y_d).max())
            rows, rows_d = np.array(trace.rows), np.array(trace_d.rows)
            # k, objective, t and s relative; the residual is already a
            # relative step length that falls to rounding level, so it also
            # gets an absolute tolerance.
            np.testing.assert_allclose(rows[:, :4], rows_d[:, :4], rtol=1e-10)
            np.testing.assert_allclose(rows[:, 4], rows_d[:, 4], rtol=1e-10, atol=1e-12)

    def test_million_samples_without_dense_matrix(self):
        # The dense matrix would take 8 TB; the structured operator never
        # builds it.
        rng = np.random.default_rng(5)
        prob, diff = make_tv_problem(rng.standard_normal(10**6), 0.3)
        x, _, trace = solve(prob, TsAdaptivePolicy(), max_iter=5, tol=0.0)
        assert len(trace.rows) == 5 and np.all(np.isfinite(x))
        assert not hasattr(diff, "mat")


class TestObjectives:
    def test_lad_objective_by_hand(self):
        prob = make_lad_problem(np.eye(2), np.array([1.0, -1.0]), 2.0)
        # |x - b|_1 + 2|x|_1 at x = (0.5, 0): |0.5 - 1| + |0 + 1| + 2*0.5.
        assert prob.objective(np.array([0.5, 0.0])) == pytest.approx(2.5)

    def test_tv_objective_by_hand(self):
        prob, _ = make_tv_problem(np.array([1.0, 1.0, 0.0]), 3.0)
        # 0.5*||x - y||^2 + 3*||Dx||_1 at x = (1, 0, 0).
        assert prob.objective(np.array([1.0, 0.0, 0.0])) == \
            pytest.approx(0.5 + 3.0)

    def test_objectives_match_plain_numpy_bitwise(self):
        # The objectives reduce with np.add.reduce; the bits must be those
        # of the np.sum / ndarray.sum expressions they replace.
        rng = np.random.default_rng(17)
        a, b = rng.standard_normal((200, 100)), rng.standard_normal(200)
        noisy = rng.standard_normal(500)
        lad = make_lad_problem(a, b, 0.7)
        tv, _ = make_tv_problem(noisy, 0.3)
        for scale in (1e-8, 1.0, 1e8):
            x = rng.standard_normal(100) * scale
            want = float(np.abs(a @ x - b).sum() + 0.7 * np.abs(x).sum())
            assert np.float64(lad.objective(x)).view(np.int64) == \
                np.float64(want).view(np.int64)
            z = rng.standard_normal(500) * scale
            want = float(0.5 * np.sum((z - noisy) ** 2)
                         + 0.3 * np.abs(z[1:] - z[:-1]).sum())
            assert np.float64(tv.objective(z)).view(np.int64) == \
                np.float64(want).view(np.int64)

    def test_tv_constant_signal_solved_exactly(self):
        prob, _ = make_tv_problem(np.full(30, 0.7), 1.0)
        x, _, _ = solve(prob, ConstantPolicy(1.0, 1.0),
                        max_iter=2000, tol=0.0)
        np.testing.assert_allclose(x, np.full(30, 0.7), atol=1e-8)

    def test_tv_vanishing_penalty_recovers_data(self):
        inst, prob = gen_tv(0, n=60, reg_weight=1e-8)
        x, _, _ = solve(prob, ConstantPolicy(1.0, 1.0),
                        max_iter=4000, tol=0.0)
        assert np.linalg.norm(x - inst.noisy) <= 1e-4


def assert_same_solve_bits(prob, made, sweeps):
    (x, y, trace), (x0, y0, trace0) = (
        solve(p, TsAdaptivePolicy(), max_iter=sweeps, tol=0.0) for p in (prob, made))
    for got, want in [(x, x0), (y, y0), (np.array(trace.rows), np.array(trace0.rows))]:
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestPlainCallableProxes:
    # A prox is any callable (point, step) -> array: the public prox_*
    # functions, wired by hand, must run the generators' solves bit for bit.
    def test_lad(self):
        inst, made = gen_lad(41, reg_weight=1.0)
        a, b = inst.design, inst.observations
        prob = PdProblem(
            f_prox=prox_l1,
            gstar_prox=functools.partial(prox_shifted_l1_conj, shift=b),
            coupling=LinearMap(a),
            objective=made.objective,
        )
        assert_same_solve_bits(prob, made, 300)

    def test_tv(self):
        inst, made = gen_tv(42, reg_weight=0.3)
        z, w = inst.noisy, inst.reg_weight
        prob = PdProblem(
            f_prox=functools.partial(prox_quadratic_fidelity, data=z),
            gstar_prox=lambda v, step: prox_box_dual(v, w),
            coupling=DifferenceMap(z.size),
            objective=made.objective,
        )
        assert_same_solve_bits(prob, made, 300)


class TestLadOptimality:
    def test_against_linear_program(self):
        # Independent reference: the same problem as a linear program in
        # split variables, solved by a simplex/HiGHS backend.  The
        # splitting must match the LP optimum and produce a feasible
        # dual certificate with a vanishing duality gap.
        inst, prob = gen_lad(17, m=30, n=12)
        a, b = inst.design, inst.observations
        lam = inst.reg_weight
        m, n = a.shape
        cost = np.concatenate([lam * np.ones(2 * n), np.ones(2 * m)])
        aeq = np.hstack([a, -a, -np.eye(m), np.eye(m)])
        ref = linprog(cost, A_eq=aeq, b_eq=b, bounds=(0, None),
                      method="highs")
        assert ref.status == 0

        x, y, trace = solve(prob, TsAdaptivePolicy(), max_iter=8000, tol=0.0)
        obj = trace.rows[-1].objective
        assert obj <= ref.fun + 1e-6
        assert obj >= ref.fun - 1e-7
        assert np.abs(y).max() <= 1.0 + 1e-8
        assert np.abs(a.T @ y).max() <= lam + 1e-6
        assert abs(obj + b @ y) <= 1e-6


class TestGrids:
    def test_log_grid(self):
        g = log_grid(0.01, 100.0, 5)
        np.testing.assert_allclose(g, [1e-2, 1e-1, 1.0, 1e1, 1e2],
                                   rtol=1e-12)
        assert g[0] == 0.01 and g[-1] == 100.0

    def test_log_grid_single_point(self):
        np.testing.assert_array_equal(log_grid(2.0, 2.0, 1), [2.0])

    def test_log_grid_validation(self):
        with pytest.raises(ValueError):
            log_grid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            log_grid(2.0, 1.0, 3)
        with pytest.raises(ValueError):
            log_grid(1.0, 2.0, 0)

    @pytest.mark.parametrize("lo, hi", [(1.0, np.inf), (np.inf, np.inf), (np.nan, 1.0),
                                        (1.0, np.nan)])
    def test_log_grid_rejects_nonfinite(self, lo, hi):
        with pytest.raises(ValueError, match="lo <= hi < inf"):
            log_grid(lo, hi, 3)


class TestComparison:
    def test_one_trace_per_policy(self):
        _, prob = gen_lad(0, m=20, n=10)
        traces = run_comparison(
            prob,
            [ConstantPolicy(1.1, 1.1), TsAdaptivePolicy()],
            max_iter=50,
        )
        assert len(traces) == 2
        for trace in traces:
            assert len(trace.rows) == 50
            assert np.all(np.isfinite(trace.column("objective")))

    def test_identical_policies_identical_traces(self):
        _, prob = gen_lad(1, m=20, n=10)
        traces = run_comparison(
            prob, [ConstantPolicy(1.0, 1.0), ConstantPolicy(1.0, 1.0)],
            max_iter=30,
        )
        np.testing.assert_array_equal(traces[0].column("objective"),
                                      traces[1].column("objective"))

    def test_stepsize_columns_reflect_policy(self):
        _, prob = gen_lad(2, m=20, n=10)
        const, adaptive = run_comparison(
            prob, [ConstantPolicy(1.3, 0.6), TsAdaptivePolicy()],
            max_iter=40,
        )
        assert np.all(const.column("t") == 1.3)
        assert np.all(const.column("s") == 0.6)
        assert np.abs(np.diff(adaptive.column("t"))).max() > 0
