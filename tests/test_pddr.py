import gc
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from drsplit import linalg, pddr
from drsplit.adaptive import AdaptiveConfig, ConstantPolicy, TAdaptivePolicy, TsAdaptivePolicy
from drsplit.experiments import (
    gen_lad,
    gen_tv,
    log_grid,
    make_lad_problem,
    make_tv_problem,
    run_comparison,
)
from drsplit.linalg import DifferenceMap, LinearMap
from drsplit.operators import (
    quadratic_fidelity_prox,
    scaled_l1_prox,
    shifted_l1_conjugate_prox,
)
from drsplit.pddr import (
    DRState,
    PdProblem,
    SolveTrace,
    TraceRow,
    block_resolvent,
    coupling_block_resolvent,
    initial_state,
    objective_block_rows,
    pd_dr_step,
    preconditioned_dr_step,
    solve,
    stacked_prox_resolvent,
)
from drsplit.ppa_core import IterationDiverged


def lad_data(seed=0, m=12, n=8):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)), rng.standard_normal(m)


def lad_like(seed=0, m=12, n=8, weight=1.0):
    a, b = lad_data(seed, m, n)
    return PdProblem(
        f_prox=scaled_l1_prox(weight),
        gstar_prox=shifted_l1_conjugate_prox(b),
        coupling=LinearMap(a),
        objective=lambda xs: (np.abs(xs @ a.T - b).sum(axis=1)
                              + weight * np.abs(xs).sum(axis=1)),
    )


def quadratic_pair(seed=0, m=9, n=6):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    prob = PdProblem(
        f_prox=quadratic_fidelity_prox(np.zeros(n)),
        gstar_prox=lambda v, step: (v - step * b) / (1.0 + step),
        coupling=LinearMap(a),
        objective=lambda xs: (0.5 * (xs * xs).sum(axis=1)
                              + 0.5 * ((xs @ a.T - b) ** 2).sum(axis=1)),
    )
    target = np.linalg.solve(np.eye(n) + a.T @ a, a.T @ b)
    return prob, target


class TestBlockResolvent:
    def test_scalar_closed_form(self):
        # 1x1 coupling: u + t*k*v = r1, -s*k*u + v = r2 solves to
        # u = (r1 - t*k*r2) / (1 + t*s*k^2).
        k, t, s, r1, r2 = 2.0, 0.5, 0.25, 3.0, -1.0
        u, v, _ = block_resolvent(np.array([r1]), np.array([r2]), t, s,
                                  LinearMap(np.array([[k]])))
        assert u[0] == pytest.approx((r1 - t * k * r2) / (1 + t * s * k * k))
        assert v[0] == pytest.approx(r2 + s * k * u[0])

    @pytest.mark.parametrize("shape", [(4, 9), (9, 4), (6, 6)])
    def test_against_dense_solve(self, shape):
        # Both Schur branches must agree with a dense solve of the full
        # 2x2 block system.
        rng = np.random.default_rng(17)
        m, n = shape
        kmat = rng.standard_normal((m, n))
        t, s = 0.8, 1.7
        full = np.block([[np.eye(n), t * kmat.T], [-s * kmat, np.eye(m)]])
        r1 = rng.standard_normal(n)
        r2 = rng.standard_normal(m)
        u, v, _ = block_resolvent(r1, r2, t, s, LinearMap(kmat))
        want = np.linalg.solve(full, np.concatenate([r1, r2]))
        np.testing.assert_allclose(np.concatenate([u, v]), want, atol=1e-11)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 12))
            kmat = rng.standard_normal((m, n))
            t = float(rng.uniform(0.05, 5.0))
            s = float(rng.uniform(0.05, 5.0))
            r1 = rng.standard_normal(n)
            r2 = rng.standard_normal(m)
            u, v, _ = block_resolvent(r1, r2, t, s, LinearMap(kmat))
            scale = max(1.0, np.linalg.norm(r1), np.linalg.norm(r2))
            assert np.linalg.norm(u + t * kmat.T @ v - r1) <= 1e-10 * scale
            assert np.linalg.norm(-s * kmat @ u + v - r2) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [2, 3, 50, 500, 5000])
    def test_residual_bound_difference_map(self, n):
        # The banded Schur solve meets the block equations over the whole
        # stepsize envelope, t and s from the safeguard floor to the cap.
        rng = np.random.default_rng(n + 1)
        op = DifferenceMap(n)
        for _ in range(20):
            t, s = (float(v) for v in 10.0 ** rng.uniform(-6, 4, size=2))
            r1 = rng.standard_normal(n)
            r2 = rng.standard_normal(n - 1)
            u, v, fac = block_resolvent(r1, r2, t, s, op)
            assert fac.ts == t * s
            scale = max(1.0, np.linalg.norm(r1), np.linalg.norm(r2))
            assert np.linalg.norm(u + t * op.rmatvec(v) - r1) <= 1e-10 * scale
            assert np.linalg.norm(-s * op.matvec(u) + v - r2) <= 1e-10 * scale

    def test_cache_reuse_and_invalidation(self):
        # The coupling keeps its factor for exactly one t*s: equal products
        # share it, a product one ulp away gets its own.
        rng = np.random.default_rng(29)
        op = LinearMap(rng.standard_normal((5, 7)))
        r1 = rng.standard_normal(7)
        r2 = rng.standard_normal(5)
        _, _, fac = block_resolvent(r1, r2, 1.0, 2.0, op)
        _, _, fac2 = block_resolvent(r1, r2, 1.0, 2.0, op)
        assert fac2 is fac
        # Same product t*s, different split: the same factor.
        _, _, fac3 = block_resolvent(r1, r2, 2.0, 1.0, op)
        assert fac3 is fac
        s_next = float(np.nextafter(2.0, 3.0))
        _, _, fac4 = block_resolvent(r1, r2, 1.0, s_next, op)
        assert fac4 is not fac and fac4.ts == s_next
        _, _, fac5 = block_resolvent(r1, r2, 1.0, 2.5, op)
        assert fac5 is not fac4 and fac5.ts == 2.5

    def test_factor_count_constant_run(self, monkeypatch):
        calls = []
        real = linalg.spd_factor

        def counting(gram, eig, ts):
            calls.append(ts)
            return real(gram, eig, ts)

        monkeypatch.setattr(linalg, "spd_factor", counting)
        prob = lad_like(2)
        solve(prob, ConstantPolicy(1.1, 1.1), max_iter=30, tol=0.0)
        assert len(calls) == 1

    @staticmethod
    def count_factorizations(monkeypatch):
        """Record the shape of each eigh and the t*s of each spd_factor."""
        eighs, factored = [], []
        real_eigh, real_factor = np.linalg.eigh, linalg.spd_factor

        def counting_eigh(mat):
            eighs.append(mat.shape)
            return real_eigh(mat)

        def counting_factor(gram, eig, ts):
            factored.append(ts)
            return real_factor(gram, eig, ts)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(linalg, "spd_factor", counting_factor)
        return eighs, factored

    POLICIES = (ConstantPolicy(1.0, 1.0), TsAdaptivePolicy(), TAdaptivePolicy())

    def test_one_eigendecomposition_per_operator(self, monkeypatch):
        # Three solves on one LAD problem share its coupling: one eigh in
        # all, and one spd_factor per change of t*s along the three runs.
        eighs, factored = self.count_factorizations(monkeypatch)
        _, prob = gen_lad(3, m=40, n=20)
        traces = [solve(prob, policy, max_iter=100, tol=0.0)[2] for policy in self.POLICIES]
        assert eighs == [(20, 20)]

        def changes(ts):
            return ts[np.r_[True, ts[1:] != ts[:-1]]].tolist()

        products = [tr.column("t") * tr.column("s") for tr in traces]
        assert factored == changes(np.concatenate(products))
        # Within a run, no product comes back after it changed.
        for ts in products:
            assert len(set(changes(ts))) == len(changes(ts))
        assert len(factored) > 10

    def test_lockstep_factors_no_more_than_the_loop(self, monkeypatch):
        # run_comparison advances the runs in lockstep, each keeping its own
        # factor: the runs interleave on the coupling, so the order above
        # does not hold, but each factored t*s is one a run used, and there
        # are no more factorizations than the loop of solves makes.
        eighs, factored = self.count_factorizations(monkeypatch)
        _, prob = gen_lad(3, m=40, n=20)
        for policy in self.POLICIES:
            solve(prob, policy, max_iter=100, tol=0.0)
        looped = len(factored)
        del factored[:]
        _, prob = gen_lad(3, m=40, n=20)
        traces = run_comparison(prob, self.POLICIES, max_iter=100)
        assert eighs == [(20, 20), (20, 20)]
        used = {ts for tr in traces for ts in (tr.column("t") * tr.column("s")).tolist()}
        assert set(factored) <= used
        assert 10 < len(factored) <= looped

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_dense_coupling(self, shape):
        # Nothing to solve: u is r1 and v is r2, bit for bit.
        rows, cols = shape
        r1, r2 = np.arange(1.0, cols + 1), np.arange(1.0, rows + 1)
        u, v, fac = block_resolvent(r1, r2, 2.0, 3.0, LinearMap(np.zeros(shape)))
        assert_bitwise(u, r1)
        assert_bitwise(v, r2)
        assert fac.ts == 6.0

    def test_underflowing_product_solves_identity(self):
        # t*s underflows to 0.0: the Schur complement is I, and the solve
        # returns its right-hand side to rounding.
        rng = np.random.default_rng(43)
        for shape in ((30, 12), (12, 30)):
            op = LinearMap(rng.standard_normal(shape))
            rhs = rng.standard_normal(min(shape))
            np.testing.assert_allclose(op.schur(0.0).solve(rhs), rhs, rtol=0,
                                       atol=1e-14 * np.linalg.norm(rhs))
            r1, r2 = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
            u, v, fac = block_resolvent(r1, r2, 1e-200, 1e-200, op)
            assert fac.ts == 0.0
            np.testing.assert_allclose(u, r1, rtol=0, atol=1e-14 * np.linalg.norm(r1))
            np.testing.assert_allclose(v, r2, rtol=0, atol=1e-14 * np.linalg.norm(r2))

    def test_overflowing_eigenvalues_rejected(self):
        # t*s = 1e308 is finite and passes check_steps, but ts times the
        # largest Gram eigenvalue overflows: a ValueError, not a zero inverse.
        _, prob = gen_lad(0, m=40, n=20)
        with pytest.raises(ValueError, match="non-finite entries"):
            block_resolvent(np.ones(20), np.ones(40), 1e154, 1e154, prob.coupling)

    def test_nonpositive_steps_rejected(self):
        op = LinearMap(np.eye(2))
        with pytest.raises(ValueError):
            block_resolvent(np.ones(2), np.ones(2), 0.0, 1.0, op)
        with pytest.raises(ValueError):
            block_resolvent(np.ones(2), np.ones(2), 1.0, -2.0, op)

    @pytest.mark.parametrize("t, s", [(np.nan, 1.0), (1.0, np.inf), (1e200, 1e200)])
    def test_nonfinite_steps_rejected(self, t, s):
        # NaN, inf and a product t*s that overflows are named as stepsizes,
        # not reported as a non-finite matrix by the factorization below.
        for op in (LinearMap(np.eye(2)), DifferenceMap(3)):
            rows, cols = op.shape
            with pytest.raises(ValueError, match=re.escape(f"t={t}, s={s}")):
                block_resolvent(np.ones(cols), np.ones(rows), t, s, op)

    @pytest.mark.parametrize("structured", [True, False])
    def test_cached_factor_of_wrong_kind_rejected(self, structured, dense_difference):
        # A banded and a dense coupling of the same matrix, factored at the
        # same t*s: each solve uses a factor its own coupling built, never
        # the other kind's.
        diff = DifferenceMap(6)
        dense = LinearMap(dense_difference(6))
        op, other = (diff, dense) if structured else (dense, diff)
        r1, r2 = np.arange(1.0, 7.0), np.arange(1.0, 6.0)
        _, _, wrong = block_resolvent(r1, r2, 1.0, 2.0, other)
        u, v, fac = block_resolvent(r1, r2, 1.0, 2.0, op)
        assert fac is not wrong and fac is op.schur(2.0) and fac.ts == 2.0
        assert other.schur(2.0) is wrong
        scale = max(1.0, np.linalg.norm(r1), np.linalg.norm(r2))
        assert np.linalg.norm(u + 1.0 * dense.mat.T @ v - r1) <= 1e-10 * scale
        assert np.linalg.norm(-2.0 * dense.mat @ u + v - r2) <= 1e-10 * scale

    def test_factor_of_another_coupling_never_used(self):
        # Two same-shape maps called alternately at one (t, s) each solve
        # with their own factor.
        rng = np.random.default_rng(37)
        ops = [LinearMap(rng.standard_normal((5, 7))) for _ in range(2)]
        t, s = 1.0, 2.0
        for _ in range(3):
            for op in ops:
                r1 = rng.standard_normal(7)
                r2 = rng.standard_normal(5)
                u, v, _ = block_resolvent(r1, r2, t, s, op)
                scale = max(1.0, np.linalg.norm(r1), np.linalg.norm(r2))
                assert np.linalg.norm(u + t * op.mat.T @ v - r1) <= 1e-10 * scale
                assert np.linalg.norm(-s * op.mat @ u + v - r2) <= 1e-10 * scale
        # A state carried over from another LAD problem of the same shape
        # sweeps exactly as a fresh state with the same points and steps.
        first, second = lad_like(3), lad_like(4)
        carried = initial_state(first, 1.0, 1.0)
        for _ in range(3):
            carried, _ = pd_dr_step(carried, first)
        fresh = DRState(p=carried.p, q=carried.q, t=carried.t, s=carried.s, k=carried.k)
        carried, out_carried = pd_dr_step(carried, second)
        fresh, out_fresh = pd_dr_step(fresh, second)
        for got, want in zip([*out_carried, carried.p, carried.q],
                             [*out_fresh, fresh.p, fresh.q]):
            assert_bitwise(got, want)

    @settings(database=None, derandomize=True, deadline=None, max_examples=100)
    @given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           structured=st.booleans(),
           seed=st.integers(0, 2**32 - 1),
           log_steps=st.tuples(st.floats(-6, 4), st.floats(-6, 4)),
           move=st.sampled_from(["t+ulp", "t-ulp", "s+ulp", "s-ulp", "both-ulp", "far"]),
           log_far=st.tuples(st.floats(-6, 4), st.floats(-6, 4)))
    def test_history_independent(self, shape, structured, seed, log_steps, move, log_far):
        # The resolvent at (t, s) after one at (t', s') equals, bitwise, the
        # resolvent at (t, s) on a fresh coupling, for (t', s') anywhere,
        # one ulp away from (t, s) included.
        rng = np.random.default_rng(seed)
        kmat = rng.standard_normal(shape)
        make = (lambda: DifferenceMap(shape[1] + 1)) if structured else (lambda: LinearMap(kmat))
        t, s = (10.0 ** v for v in log_steps)
        up, down = np.inf, 0.0
        t_prev, s_prev = {
            "t+ulp": (np.nextafter(t, up), s), "t-ulp": (np.nextafter(t, down), s),
            "s+ulp": (t, np.nextafter(s, up)), "s-ulp": (t, np.nextafter(s, down)),
            "both-ulp": (np.nextafter(t, up), np.nextafter(s, down)),
            "far": tuple(10.0 ** v for v in log_far),
        }[move]
        rows, cols = make().shape
        r1, r2 = rng.standard_normal(cols), rng.standard_normal(rows)
        want = block_resolvent(r1, r2, t, s, make())[:2]
        op = make()
        block_resolvent(r1, r2, t_prev, s_prev, op)
        got = block_resolvent(r1, r2, t, s, op)[:2]
        for g, w in zip(got, want):
            assert_bitwise(g, w)
        # The same through the coupling block of the doubled-space form.
        w = np.concatenate([r1, r2])
        dd, dd_prev = (np.concatenate([np.full(cols, a), np.full(rows, b)])
                       for a, b in ((t, s), (t_prev, s_prev)))
        fresh = coupling_block_resolvent(coupling_only(make()))
        used = coupling_block_resolvent(coupling_only(make()))
        used(w, dd_prev)
        assert_bitwise(used(w, dd), fresh(w, dd))

    @settings(database=None, derandomize=True, deadline=None, max_examples=500)
    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           seed=st.integers(0, 2**32 - 1),
           log_cond=st.floats(0, 4),
           log_steps=st.tuples(st.floats(-6, 4), st.floats(-6, 4)))
    def test_dense_kernel_as_accurate_as_cholesky(self, shape, seed, log_cond, log_steps):
        # The bound of assert_as_accurate_as_cholesky, over the whole
        # stepsize envelope and for K of condition number up to 1e4.
        rng = np.random.default_rng(seed)
        left, _, right = np.linalg.svd(rng.standard_normal(shape), full_matrices=False)
        kmat = (left * np.logspace(0, -log_cond, min(shape))) @ right
        t, s = (10.0 ** v for v in log_steps)
        rows, cols = shape
        r1, r2 = rng.standard_normal(cols), rng.standard_normal(rows)
        assert_as_accurate_as_cholesky(kmat, r1, r2, t, s)

    @pytest.mark.parametrize("t, s", [(1e4, 1e4), (1e4, 1e-4), (3e3, 1e4),
                                      (0.05, 5.0), (5.0, 0.05)])
    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    def test_dense_kernel_as_accurate_as_cholesky_at_lad_size(self, wide, t, s):
        # The same bound on the default 200x100 LAD design and its 100x200
        # transpose, at the corners of the stepsize envelope and of
        # criterion 4's box, with right-hand sides from 1e-3 to 1e3.
        design = gen_lad(0)[0].design
        kmat = np.ascontiguousarray(design.T) if wide else design
        rows, cols = kmat.shape
        rng = np.random.default_rng(7)
        op = LinearMap(kmat)
        for scale in (1e-3, 1.0, 1e3):
            r1, r2 = scale * rng.standard_normal(cols), scale * rng.standard_normal(rows)
            assert_as_accurate_as_cholesky(kmat, r1, r2, t, s, op)


def assert_as_accurate_as_cholesky(kmat, r1, r2, t, s, op=None):
    """Assert that the dense Schur solve (the product with the cached
    inverse, refined once when ill-conditioned) meets the block equations
    within twice the residual of LAPACK's triangular solves on a Cholesky
    factor of the same Schur complement, up to 1e-14 of the Schur system's
    backward-error scale, ||I + ts*K'K|| ||(u, v)|| + ||(r1, r2)||: rounding
    u alone moves residuals by eps times that."""
    op = LinearMap(kmat) if op is None else op
    rows, cols = kmat.shape
    lower = np.linalg.cholesky(np.eye(op.gram.shape[0]) + t * s * op.gram)
    if rows < cols:
        v_ref = cho_solve((lower, True), r2 + s * (kmat @ r1))
        u_ref = r1 - t * (kmat.T @ v_ref)
    else:
        u_ref = cho_solve((lower, True), r1 - t * (kmat.T @ r2))
        v_ref = r2 + s * (kmat @ u_ref)
    u, v, _ = block_resolvent(r1, r2, t, s, op)

    def residual(u, v):
        return np.hypot(np.linalg.norm(u + t * kmat.T @ v - r1),
                        np.linalg.norm(-s * kmat @ u + v - r2))

    scale = ((1.0 + t * s * np.linalg.norm(kmat, 2) ** 2)
             * np.hypot(np.linalg.norm(u_ref), np.linalg.norm(v_ref))
             + np.hypot(np.linalg.norm(r1), np.linalg.norm(r2)))
    assert residual(u, v) <= 2.0 * residual(u_ref, v_ref) + 1e-14 * scale


def coupling_only(coupling):
    """A problem with nothing but its coupling, for the coupling block alone."""
    return PdProblem(f_prox=None, gstar_prox=None, coupling=coupling, objective=None)


class TestSweep:
    def test_quadratic_reaches_normal_equations(self):
        prob, target = quadratic_pair(31)
        x, _, trace = solve(prob, ConstantPolicy(1.0, 1.0),
                            max_iter=2000, tol=0.0)
        assert np.linalg.norm(x - target) <= 1e-8
        assert trace.rows[-1].objective <= trace.rows[0].objective

    def test_zero_problem_stops_at_once(self):
        n, m = 4, 3
        prob = PdProblem(
            f_prox=lambda v, step: v,
            gstar_prox=lambda v, step: np.zeros_like(v),
            coupling=LinearMap(np.zeros((m, n))),
            objective=lambda xs: np.zeros(len(xs)),
        )
        x, y, trace = solve(prob, ConstantPolicy(1.0, 1.0),
                            max_iter=100, tol=1e-12)
        assert len(trace.rows) == 1
        np.testing.assert_array_equal(x, np.zeros(n))
        np.testing.assert_array_equal(y, np.zeros(m))

    def test_trace_records_steps_used(self):
        prob = lad_like(5)
        _, _, trace = solve(prob, TsAdaptivePolicy(), max_iter=20, tol=0.0,
                            t0=0.7, s0=0.9)
        assert trace.rows[0].t == 0.7
        assert trace.rows[0].s == 0.9
        assert [r.k for r in trace.rows] == list(range(20))
        # Later rows carry the stepsizes produced by the controller, so
        # the column is not constant once the iterates move.
        assert any(r.t != 0.7 for r in trace.rows[1:])

    def test_divergence_raises(self):
        hits = [0]

        def exploding(v, step):
            hits[0] += 1
            if hits[0] > 5:
                return v * np.nan
            return v

        prob = lad_like(6)
        bad = PdProblem(
            f_prox=exploding,
            gstar_prox=prob.gstar_prox,
            coupling=prob.coupling,
            objective=prob.objective,
        )
        with pytest.raises(IterationDiverged) as info:
            solve(bad, ConstantPolicy(1.0, 1.0), max_iter=100, tol=0.0)
        assert info.value.step == 5

    @pytest.mark.parametrize("policy", [ConstantPolicy(1.0, 1.0), TsAdaptivePolicy()],
                             ids=["constant", "ts-adaptive"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["f_prox", "gstar_prox"])
    def test_nonfinite_prox_output_is_typed_divergence(self, side, bad, policy):
        # A non-finite prox output on either side, in the first entry only,
        # must end the run with IterationDiverged at that sweep, carrying
        # the finite state the sweep started from: never a ValueError or
        # LinAlgError from the linear solve below the prox.
        prob = with_bad_prox(lad_like(13), side, bad, after=7)
        with np.errstate(invalid="ignore"), pytest.raises(IterationDiverged) as info:
            solve(prob, policy, max_iter=50, tol=0.0)
        err = info.value
        assert err.step == 7
        assert err.state.k == 7
        assert np.all(np.isfinite(err.state.p)) and np.all(np.isfinite(err.state.q))
        assert np.isfinite(err.state.t) and np.isfinite(err.state.s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["f_prox", "gstar_prox"])
    def test_nonfinite_tv_prox_output_is_typed_divergence(self, side, bad):
        # The same contract through the banded solve of the structured
        # forward-difference coupling.
        rng = np.random.default_rng(16)
        prob, _ = make_tv_problem(rng.standard_normal(40), 0.5)
        with np.errstate(invalid="ignore"), pytest.raises(IterationDiverged) as info:
            solve(with_bad_prox(prob, side, bad, after=6), TsAdaptivePolicy(),
                  max_iter=50, tol=0.0)
        assert info.value.step == 6
        assert np.all(np.isfinite(info.value.state.p))
        assert np.all(np.isfinite(info.value.state.q))

    @pytest.mark.parametrize("policy", [ConstantPolicy(1.0, 1.0), TsAdaptivePolicy()],
                             ids=["constant", "ts-adaptive"])
    def test_huge_finite_start_does_not_diverge(self, policy):
        # Shadow points near 1e160 have norms whose squares overflow; the
        # iterates stay finite, so the run must not be reported as diverged.
        prob = lad_like(17, m=20, n=10)
        with np.errstate(over="ignore"):
            x, y, trace = solve(prob, policy, max_iter=50, tol=0.0,
                                p0=np.full(10, 1e160))
        assert len(trace.rows) == 50
        assert np.all(np.isfinite(np.array(trace.rows, dtype=float)))
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))

    @pytest.mark.parametrize("start, step", [(1.0, 1.0), (1e160, 1.0), (1e-170, 1e-200)],
                             ids=["fast-path", "overflow", "underflow"])
    def test_residual_column_is_scaled_norm_bitwise(self, start, step):
        # solve's residual column is scaled_norm's, bit for bit, on its
        # fast path and where it rescales a sum of squares that is not a
        # finite normal number.  From 1e160 the squares overflow; from
        # 1e-170 they underflow, and at steps of 1e-200 the squared step
        # does too.  (The zero start would rescale too: a zero sum is not
        # normal.)
        prob = lad_like(17, m=20, n=10)
        p0 = np.full(10, start)
        with np.errstate(over="ignore"):
            _, _, trace = solve(prob, ConstantPolicy(step, step), max_iter=20, tol=0.0, p0=p0)
            state = initial_state(prob, step, step, p0=p0)
            want, rescaled = [], 0
            for _ in range(20):
                p, q = state.p, state.q
                state, _ = pd_dr_step(state, prob)
                dp, dq = state.p - p, state.q - q
                for u, v in ((p, q), (dp, dq)):
                    rescaled += not np.finfo(float).tiny <= u.dot(u) + v.dot(v) < np.inf
                want.append(linalg.scaled_norm(dp, dq) / max(1.0, linalg.scaled_norm(p, q)))
        assert_bitwise(trace.column("residual"), np.array(want))
        assert (rescaled > 0) == (start != 1.0)

    def test_diverged_state_is_the_state_before_the_bad_sweep(self):
        # The state carried by the exception equals, bitwise, the state a
        # clean run holds after the same number of sweeps.
        clean = lad_like(14)
        state = initial_state(clean, 1.0, 1.0)
        for _ in range(4):
            state, _ = pd_dr_step(state, clean)
        with pytest.raises(IterationDiverged) as info:
            solve(with_bad_prox(clean, "gstar_prox", np.nan, after=4),
                  ConstantPolicy(1.0, 1.0), max_iter=50, tol=0.0)
        got = info.value.state
        assert got.k == state.k == 4
        np.testing.assert_array_equal(got.p, state.p)
        np.testing.assert_array_equal(got.q, state.q)

    def test_nonfinite_objective_is_typed_divergence(self):
        prob = lad_like(15)
        # One block holds all 20 sweeps, so row k of the one stack is step k.
        assert objective_block_rows(prob.primal_dim, prob.dual_dim) >= 20

        def objective(xs):
            values = prob.objective(xs)
            values[3:] = np.inf
            return values

        bad = PdProblem(prob.f_prox, prob.gstar_prox, prob.coupling, objective)
        with pytest.raises(IterationDiverged) as info:
            solve(bad, ConstantPolicy(1.0, 1.0), max_iter=20, tol=0.0)
        assert info.value.step == 3

    def test_validation(self):
        prob = lad_like(7)
        with pytest.raises(ValueError):
            solve(prob, ConstantPolicy(1.0, 1.0), max_iter=0, tol=0.0)
        with pytest.raises(ValueError):
            solve(prob, ConstantPolicy(1.0, 1.0), max_iter=5, tol=-1.0)
        with pytest.raises(ValueError):
            initial_state(prob, -1.0, 1.0)
        with pytest.raises(ValueError):
            initial_state(prob, 1.0, 1.0, p0=np.zeros(3))

    @pytest.mark.parametrize("kwargs", [
        {"tol": np.nan}, {"tol": np.inf},
        {"t0": np.nan}, {"t0": np.inf}, {"t0": -1.0},
        {"s0": np.nan}, {"s0": -np.inf}, {"s0": 0.0},
    ])
    def test_nonfinite_settings_rejected(self, kwargs):
        prob = lad_like(7)
        settings = {"tol": 0.0, **kwargs}
        for policy in (ConstantPolicy(1.0, 1.0), TsAdaptivePolicy()):
            with pytest.raises(ValueError):
                solve(prob, policy, max_iter=5, **settings)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["p0", "q0"])
    def test_nonfinite_start_rejected(self, name, bad):
        # Unchecked, step 0 raises IterationDiverged with a "last finite
        # state" that holds the bad entry.
        prob = lad_like(7)
        start = np.zeros(prob.primal_dim if name == "p0" else prob.dual_dim)
        start[0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            solve(prob, ConstantPolicy(1.0, 1.0), max_iter=5, tol=0.0, **{name: start})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            initial_state(prob, 1.0, 1.0, **{name: start})

    def test_zero_tol_runs_full_budget_on_zero_residual(self):
        # At zero data from the zero start every sweep stays at 0, so every
        # residual is exactly 0; tol = 0.0 still runs the whole budget.
        a, _ = lad_data(3)
        prob = make_lad_problem(a, np.zeros(a.shape[0]), 1.0)
        _, _, trace = solve(prob, ConstantPolicy(1.0, 1.0), max_iter=100, tol=0.0)
        assert len(trace) == 100
        assert not trace.column("residual").any()

    def test_tiny_steps_move_with_nonzero_residual(self):
        # t*s underflows to 0.0 (accepted: the Schur complement is I) and the
        # squared step underflows too; the residual must still see y move.
        _, prob = gen_lad(0, 20, 10, 1.0)
        _, y, trace = solve(prob, ConstantPolicy(1e-200, 1e-200), max_iter=5, tol=0.0)
        assert len(trace) == 5
        assert np.any(y)
        assert np.all(trace.column("residual") > 0.0)

    def test_overflowing_step_product_rejected(self):
        # Each stepsize is finite, their product is not: a usage error naming
        # both, not a non-finite Schur complement.
        with pytest.raises(ValueError, match=re.escape("t=1e+200, s=1e+200")):
            solve(lad_like(7), ConstantPolicy(1e200, 1e200), max_iter=5, tol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_policy_results_checked(self, bad):
        # A policy that hands back a stepsize the factorization cannot use
        # is stopped with a ValueError at the step that produced it.
        class Faulty:
            def initial(self, t0, s0):
                return t0, s0

            def update(self, t, s, x, p, y, q, k):
                return (t, bad) if k == 2 else (t, s)

        with pytest.raises(ValueError, match="at step 2"):
            solve(lad_like(7), Faulty(), max_iter=10, tol=0.0)

        class FaultyStart(Faulty):
            def initial(self, t0, s0):
                return bad, s0

        with pytest.raises(ValueError):
            solve(lad_like(7), FaultyStart(), max_iter=10, tol=0.0)

    def test_warm_start_continues(self):
        prob = lad_like(8)
        x1, y1, tr1 = solve(prob, ConstantPolicy(1.0, 1.0),
                            max_iter=40, tol=0.0)
        # Two 20-iteration legs warm-started on the governing pair do
        # not reproduce a 40-iteration run exactly (the shadow pair is
        # not the state), but they must land in the same neighborhood.
        _, _, tr_a = solve(prob, ConstantPolicy(1.0, 1.0),
                           max_iter=20, tol=0.0)
        assert tr_a.rows[-1].objective >= tr1.rows[-1].objective - 1e-9


def with_bad_prox(prob, side, bad, after):
    """``prob`` with its ``side`` prox (``"f_prox"`` or ``"gstar_prox"``)
    writing ``bad`` into the first entry of its output from sweep ``after`` on."""
    calls = [0]
    good = getattr(prob, side)

    def bomb(v, step):
        out = good(v, step)
        calls[0] += 1
        if calls[0] > after:
            out = out.copy()
            out[0] = bad
        return out

    return replace(prob, **{side: bomb})


def reference_lad_run(a, b, weight, policy, sweeps):
    """The sweep, the solve loop and the two-sided adaptive rule restated in
    plain numpy for LAD, with the coupled solve as the product with the
    inverse of I + ts*gram built from gram's eigendecomposition, refined
    once when that matrix's 2-norm condition number exceeds ``REFINE_COND``,
    and the objective evaluated as one product per full block of
    ``objective_block_rows`` candidates from step 0.  Returns x, y and the
    trace rows."""
    m, n = a.shape
    height = objective_block_rows(n, m)
    block = np.zeros((height, n))
    cfg = AdaptiveConfig()
    adaptive = isinstance(policy, TsAdaptivePolicy)
    t, s = policy.initial(1.0, 1.0)
    p, q = np.zeros(n), np.zeros(m)
    dual_side = m < n
    gram = a @ a.T if dual_side else a.T @ a
    lam, vecs = np.linalg.eigh(gram)
    inverse, matrix, factored_ts = None, None, None
    rows = []

    def schur_solve(rhs):
        first = inverse @ rhs
        if matrix is None:
            return first
        return first + inverse @ (rhs - matrix @ first)

    def one_side(step, point, shadow, k, lo, hi):
        num = np.linalg.norm(point)
        den = np.linalg.norm(shadow - point)
        if den == 0.0:
            if num == 0.0:
                return step
            ratio = hi
        else:
            ratio = num / den
        w = 2.0 ** (-k)
        return min(((1.0 - w) + w * min(max(ratio, lo), hi)) * step, cfg.cap)

    for k in range(sweeps):
        x = np.sign(p) * np.maximum(np.abs(p) - t * weight, 0.0)
        z = q - s * b
        y = z - np.sign(z) * np.maximum(np.abs(z) - 1.0, 0.0)
        r1, r2 = 2.0 * x - p, 2.0 * y - q
        ts = t * s
        # The coupling refactors whenever t*s changes at all, so the
        # restatement does too.
        if factored_ts != ts:
            d = 1.0 + ts * lam
            inverse = (vecs / d) @ vecs.T
            refine = d.max() / d.min() > linalg.REFINE_COND
            matrix = np.eye(gram.shape[0]) + ts * gram if refine else None
            factored_ts = ts
        if dual_side:
            v = schur_solve(r2 + s * (a @ r1))
            u = r1 - t * (a.T @ v)
        else:
            u = schur_solve(r1 - t * (a.T @ r2))
            v = r2 + s * (a @ u)
        p_next, q_next = p + u - x, q + v - y
        prev = np.sqrt(np.dot(p, p) + np.dot(q, q))
        dp, dq = p_next - p, q_next - q
        residual = float(np.sqrt(np.dot(dp, dp) + np.dot(dq, dq))) / max(1.0, prev)
        block[k % height] = x
        rows.append([k, 0.0, t, s, residual])
        if k % height == height - 1 or k == sweeps - 1:
            values = np.abs(block @ a.T - b).sum(axis=1) + weight * np.abs(block).sum(axis=1)
            first = k - k % height
            for j in range(first, k + 1):
                rows[j][1] = values[j - first]
        if adaptive:
            t, s = (one_side(t, x, p, k, cfg.lo_t, cfg.hi_t),
                    one_side(s, y, q, k, cfg.lo_s, cfg.hi_s))
        p, q = p_next, q_next
    return x, y, np.array(rows)


def assert_bitwise(got, want):
    np.testing.assert_array_equal(got, want)
    # assert_array_equal takes -0.0 == 0.0; the bit patterns may not differ.
    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64))


class TestNoArithmeticChange:
    # The solver must compute exactly what the plain restatement computes:
    # leaner wrappers, fewer checks and fewer allocations in the sweep may
    # not move a single bit of x, y or the trace.
    @pytest.mark.parametrize("policy", [ConstantPolicy(1.1, 0.9), TsAdaptivePolicy()],
                             ids=["constant", "ts-adaptive"])
    @pytest.mark.parametrize("shape", [(30, 12), (12, 30)], ids=["tall", "wide"])
    def test_solve_matches_plain_restatement(self, policy, shape):
        a, b = lad_data(21, *shape)
        weight = 0.7
        prob = PdProblem(
            f_prox=scaled_l1_prox(weight),
            gstar_prox=shifted_l1_conjugate_prox(b),
            coupling=LinearMap(a),
            objective=lambda xs: (np.abs(xs @ a.T - b).sum(axis=1)
                                  + weight * np.abs(xs).sum(axis=1)),
        )
        # 500 sweeps cross an objective block boundary, at 303 (tall) or
        # 227 and 454 (wide), and end inside a block.
        x, y, trace = solve(prob, policy, max_iter=500, tol=0.0)
        x_ref, y_ref, rows_ref = reference_lad_run(a, b, weight, policy, 500)
        assert_bitwise(x, x_ref)
        assert_bitwise(y, y_ref)
        assert_bitwise(np.array(trace.rows, dtype=float), rows_ref)
        if isinstance(policy, TsAdaptivePolicy):
            # The run must exercise the adaptive rule, not sit at (1, 1).
            assert len({(r.t, r.s) for r in trace.rows}) > 10


class CountingPolicy:
    """Delegates to ``policy``, counts its ``update`` calls, and forwards its
    ``frozen_from`` unless ``hide`` is set."""

    def __init__(self, policy, hide=False):
        self.policy = policy
        self.calls = 0
        if not hide:
            self.frozen_from = getattr(policy, "frozen_from", None)

    def initial(self, t0, s0):
        return self.policy.initial(t0, s0)

    def update(self, *args):
        self.calls += 1
        return self.policy.update(*args)


def assert_same_solve(prob, policy, max_iter):
    """``solve`` skipping the frozen updates equals ``solve`` calling
    ``update`` on every step, bitwise; returns the skipping run's trace."""
    skipping, full = CountingPolicy(policy), CountingPolicy(policy, hide=True)
    *got, trace = solve(prob, skipping, max_iter=max_iter, tol=0.0)
    *want, trace_full = solve(prob, full, max_iter=max_iter, tol=0.0)
    for g, w in zip(got, want):
        assert_bitwise(g, w)
    assert_bitwise(np.array(trace.rows, dtype=float), np.array(trace_full.rows, dtype=float))
    assert full.calls == max_iter
    assert skipping.calls == min(policy.frozen_from, max_iter)
    return trace


class TestFreeze:
    # solve stops calling update at the policy's frozen_from.  The skip must
    # not move a bit of x, y or any trace row.
    @pytest.mark.parametrize("seed, policy", [
        (0, TsAdaptivePolicy()), (1, TsAdaptivePolicy()), (2, TsAdaptivePolicy()),
        (0, TAdaptivePolicy()), (0, ConstantPolicy(1.1, 0.9)),
    ], ids=["ts-0", "ts-1", "ts-2", "t-0", "constant-0"])
    def test_lad_skip_is_bitwise(self, seed, policy):
        _, prob = gen_lad(seed)
        trace = assert_same_solve(prob, policy, 5000)
        if policy.frozen_from:
            # The adaptive runs move their stepsizes before the freeze.
            assert len({(r.t, r.s) for r in trace.rows[:policy.frozen_from]}) > 10

    @pytest.mark.parametrize("weight", [0.01, 0.1, 1.0, 10.0])
    def test_tv_sweep_skip_is_bitwise(self, weight):
        # The criterion-8 sweep, weight 10 driving s into the cap.
        _, prob = gen_tv(0, reg_weight=weight)
        assert_same_solve(prob, TsAdaptivePolicy(AdaptiveConfig(cap=1e4)), 1000)

    def test_constant_rows_carry_floats(self):
        _, _, trace = solve(lad_like(5), ConstantPolicy(1, 2), max_iter=5, tol=0.0)
        assert all(type(r.t) is float and type(r.s) is float for r in trace.rows)
        assert {(r.t, r.s) for r in trace.rows} == {(1.0, 2.0)}


class TestLayerHooks:
    # The benchmark's laps and tracer patch these module attributes; a solve
    # that stopped calling through them would leave them blind, silently.
    @pytest.mark.parametrize("structured", [False, True], ids=["dense", "difference"])
    def test_solve_calls_through_module_attributes(self, monkeypatch, structured):
        prob = gen_tv(0, n=40)[1] if structured else lad_like(3)
        calls = {"pd_dr_step": 0, "block_resolvent": 0, "spd_solve": 0}

        def count(module, name, check=lambda args: None):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                check(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        def coupling_fifth(args):
            assert len(args) == 5 and args[4] is prob.coupling

        count(pddr, "pd_dr_step")
        count(pddr, "block_resolvent", coupling_fifth)
        count(linalg, "spd_solve")
        solve(prob, TsAdaptivePolicy(), max_iter=25, tol=0.0)
        assert calls == {"pd_dr_step": 25, "block_resolvent": 25,
                         "spd_solve": 0 if structured else 25}

    @pytest.mark.parametrize("structured", [False, True], ids=["dense", "difference"])
    def test_objective_called_once_per_block(self, monkeypatch, structured):
        # The objective sees a full (B, primal_dim) stack once per block of B
        # sweeps, ceil(N / B) calls per solve; the sweep layers stay per sweep.
        prob = gen_tv(0, n=40)[1] if structured else gen_lad(0)[1]
        height = objective_block_rows(prob.primal_dim, prob.dual_dim)
        assert height == (137 if structured else 40)
        calls = {"pd_dr_step": 0, "block_resolvent": 0, "spd_solve": 0, "objective": 0}
        for module, name in ((pddr, "pd_dr_step"), (pddr, "block_resolvent"),
                             (linalg, "spd_solve")):
            monkeypatch.setattr(module, name, counted(calls, name, getattr(module, name)))

        def objective(xs):
            assert xs.shape == (height, prob.primal_dim)
            return prob.objective(xs)

        counting = replace(prob, objective=counted(calls, "objective", objective))
        for sweeps in (1, height - 1, height, height + 1, 3 * height + 5):
            calls.update(dict.fromkeys(calls, 0))
            solve(counting, TsAdaptivePolicy(), max_iter=sweeps, tol=0.0)
            assert calls == {"pd_dr_step": sweeps, "block_resolvent": sweeps,
                             "spd_solve": 0 if structured else sweeps,
                             "objective": -(-sweeps // height)}


def counted(calls, name, fn):
    def counting(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counting


class TestObjectiveBlocks:
    # solve evaluates the objective once per block of B sweeps, blocks
    # starting at multiples of B from step 0 and always at full height.
    @pytest.mark.parametrize("policy", [ConstantPolicy(1.1, 0.9), TsAdaptivePolicy()],
                             ids=["constant", "ts-adaptive"])
    @pytest.mark.parametrize("kind", ["lad-tall", "lad-wide", "tv"])
    def test_shorter_solve_trace_is_a_prefix(self, kind, policy):
        # A row's bits depend on its x and its step only, never on where the
        # solve stopped: N sweeps, below B or past it and no multiple of it,
        # give the first N rows of a longer solve.  A product of a few rows
        # can have other bits than a taller one, so the short tails of
        # N = B + 1 and B + 3 would show a block evaluated at partial height.
        if kind == "tv":
            prob, _ = make_tv_problem(np.random.default_rng(23).standard_normal(40), 0.5)
        else:
            a, b = lad_data(22, *((200, 100) if kind == "lad-tall" else (100, 200)))
            prob = make_lad_problem(a, b, 0.7)
        height = objective_block_rows(prob.primal_dim, prob.dual_dim)
        longest = 2 * height + 5
        _, _, full = solve(prob, policy, max_iter=longest, tol=0.0)
        for sweeps in (1, height // 2 + 1, height + 1, height + 3):
            assert sweeps % height and sweeps < longest
            _, _, short = solve(prob, policy, max_iter=sweeps, tol=0.0)
            assert_bitwise(short.data, full.data[:sweeps])

    def test_objective_divergence_mid_block(self):
        # Finite iterates, an objective non-finite on one row in the middle
        # of the second block: the error names that sweep and the state it
        # started from, even when a later sweep of the same block fails too.
        _, clean = gen_lad(0)
        height = objective_block_rows(clean.primal_dim, clean.dual_dim)
        bad_step = height + 7
        state = initial_state(clean, 1.1, 0.9)
        for _ in range(bad_step):
            state, _ = pd_dr_step(state, clean)

        class FaultyLater:
            def initial(self, t0, s0):
                return 1.1, 0.9

            def update(self, t, s, x, p, y, q, k):
                return (t, np.nan) if k == bad_step + 3 else (t, s)

        runs = {
            "objective only": lambda prob: solve(
                prob, ConstantPolicy(1.1, 0.9), max_iter=4 * height, tol=0.0),
            "then residual": lambda prob: solve(
                with_bad_prox(prob, "f_prox", np.nan, after=bad_step + 5),
                ConstantPolicy(1.1, 0.9), max_iter=4 * height, tol=0.0),
            "then policy": lambda prob: solve(
                prob, FaultyLater(), max_iter=4 * height, tol=0.0),
        }
        for label, run in runs.items():
            blocks = [0]

            def objective(xs):
                values = clean.objective(xs)
                if blocks[0] == bad_step // height:
                    values[bad_step % height] = np.inf
                blocks[0] += 1
                return values

            with np.errstate(invalid="ignore"), pytest.raises(IterationDiverged) as info:
                run(replace(clean, objective=objective))
            got = info.value
            assert (got.step, got.state.k) == (bad_step, bad_step), label
            assert (got.state.t, got.state.s) == (state.t, state.s), label
            assert_bitwise(got.state.p, state.p)
            assert_bitwise(got.state.q, state.q)

    def test_objective_must_return_one_value_per_row(self):
        prob = lad_like(9)
        per_point = replace(prob, objective=lambda x: float(np.abs(x).sum()))
        with pytest.raises(ValueError, match="objective returned shape"):
            solve(per_point, ConstantPolicy(1.0, 1.0), max_iter=5, tol=0.0)


def retained_bytes(prob, policy, max_iter):
    """Bytes a finished solve still holds, trace included, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = solve(prob, policy, max_iter=max_iter, tol=0.0)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result[2]) == max_iter
    return retained


class TestColumnarTrace:
    # A trace is one read-only (N, 5) float64 array; rows are built from it
    # on demand and must carry exactly the stored bits.
    def test_retained_memory_per_sweep(self):
        # The array holds 40 bytes per sweep plus at most 1/16 growth slack;
        # a row object per sweep kept about 176.  Tracing slows a sweep about
        # fourfold, so the budgets are 10k sweeps apart to keep this short.
        prob = lad_like(4, m=6, n=4)
        small, large = 200, 10200
        slope = (retained_bytes(prob, ConstantPolicy(1.0, 1.0), large)
                 - retained_bytes(prob, ConstantPolicy(1.0, 1.0), small)) / (large - small)
        assert slope <= 48.0

    def test_rows_equal_stored_array_bitwise(self):
        _, _, trace = solve(lad_like(6), TsAdaptivePolicy(), max_iter=120, tol=0.0)
        assert trace.data.shape == (120, 5)
        assert not trace.data.flags.writeable
        assert len(trace) == 120
        # The expression the benchmark digests.
        assert_bitwise(np.array(trace.rows, dtype=float), trace.data)
        assert_bitwise(SolveTrace(trace.rows).data, trace.data)
        for j, name in enumerate(TraceRow._fields[1:], start=1):
            assert_bitwise(trace.column(name), trace.data[:, j])
            assert np.shares_memory(trace.column(name), trace.data)

    def test_rows_carry_int_k_and_python_floats(self):
        _, _, trace = solve(lad_like(6), TsAdaptivePolicy(), max_iter=30, tol=0.0)
        rows = trace.rows
        assert all(type(r) is TraceRow and type(r.k) is int for r in rows)
        assert all(type(v) is float for r in rows for v in r[1:])
        assert [r.k for r in rows] == list(range(30))
        assert trace.column("k").dtype == np.int64
        np.testing.assert_array_equal(trace.column("k"), np.arange(30))

    def test_empty_trace(self):
        trace = SolveTrace([])
        assert len(trace) == 0 and trace.rows == []
        assert trace.data.shape == (0, 5)
        assert trace.column("objective").size == 0
        assert trace.column("k").dtype == np.int64

    def test_wrong_row_width_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            SolveTrace([(0, 1.0, 1.0, 1.0)])


class TestGoverningForm:
    def test_scalar_linear_slope(self):
        # For scalar maximal monotone slopes a and b the one-step map of
        # the governing vector is linear with factor
        # (1 + t^2 a b) / ((1 + t a)(1 + t b)).
        a_slope, b_slope, t = 3.0, 0.5, 0.8

        def res_a(w, dd):
            return w / (1.0 + dd * a_slope)

        def res_b(w, dd):
            return w / (1.0 + dd * b_slope)

        w0 = 2.0
        w1 = preconditioned_dr_step(np.array([w0]), np.array([t]),
                                    res_a, res_b)[0]
        want = w0 * (1 + t * t * a_slope * b_slope) / (
            (1 + t * a_slope) * (1 + t * b_slope))
        assert w1 == pytest.approx(want, rel=1e-14)

    def test_matches_pd_form_bitwise(self):
        # Driving the governing vector through the generic sweep with
        # the stacked resolvents must reproduce the two-block update
        # exactly, including under a schedule that changes every step.
        prob = lad_like(11, m=10, n=7)
        n, m = prob.primal_dim, prob.dual_dim
        res_a = stacked_prox_resolvent(prob)
        res_b = coupling_block_resolvent(prob)

        state = DRState(p=np.zeros(n), q=np.zeros(m), t=1.0, s=1.0)
        w = np.zeros(n + m)
        worst = 0.0
        for k in range(100):
            t = 1.0 + 0.5 * 2.0 ** (-k)
            s = 0.8 + 0.3 * 3.0 ** (-k)
            state.t, state.s = t, s
            state, _ = pd_dr_step(state, prob)
            dd = np.concatenate([np.full(n, t), np.full(m, s)])
            w = preconditioned_dr_step(w, dd, res_a, res_b)
            worst = max(worst,
                        float(np.abs(w - np.concatenate([state.p, state.q])).max()))
        assert worst == 0.0

    def test_block_constant_preconditioner_required(self):
        prob = lad_like(12)
        res_a = stacked_prox_resolvent(prob)
        n, m = prob.primal_dim, prob.dual_dim
        dd = np.arange(1.0, n + m + 1.0)
        with pytest.raises(ValueError, match="constant on each block"):
            res_a(np.zeros(n + m), dd)

    def test_preconditioner_validation(self):
        with pytest.raises(ValueError):
            preconditioned_dr_step(np.ones(2), np.array([1.0, -1.0]),
                                   lambda w, d: w, lambda w, d: w)
        with pytest.raises(ValueError):
            preconditioned_dr_step(np.ones(2), np.ones(3),
                                   lambda w, d: w, lambda w, d: w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_preconditioner_rejected(self, bad):
        # Named here, not later as "preconditioner must be constant on each
        # block" by the stacked resolvents.
        prob = lad_like(12)
        dd = np.ones(prob.primal_dim + prob.dual_dim)
        dd[0] = bad
        with pytest.raises(ValueError, match="preconditioner diagonal must be finite and positive"):
            preconditioned_dr_step(np.zeros(dd.size), dd, stacked_prox_resolvent(prob),
                                   coupling_block_resolvent(prob))


def comparison_policies():
    """``drsplit compare --grid 4``'s runs: the three policies, then the 4x4
    grid of constant pairs from 1e-3 to 1e3."""
    grid = log_grid(1e-3, 1e3, 4).tolist()
    return [ConstantPolicy(1.0, 1.0), TAdaptivePolicy(), TsAdaptivePolicy(),
            *(ConstantPolicy(t, s) for t in grid for s in grid)]


def lockstep_problem(kind):
    if kind == "lad-tall":
        return gen_lad(0)[1]
    if kind == "tv":
        return gen_tv(0, n=300)[1]
    rng = np.random.default_rng(5)
    rows, cols = (60, 90) if kind == "lad-wide" else (40, 40)
    return make_lad_problem(rng.standard_normal((rows, cols)), rng.standard_normal(rows), 0.7)


def looped(prob, policies, **kwargs):
    return [solve(prob, policy, **kwargs) for policy in policies]


class SwitchingPolicy:
    """(t, s) through step k, then (t_next, s_next), which the update at
    step k returns; a NaN there is a stepsize the solver rejects."""

    def __init__(self, t, s, k, t_next, s_next):
        self.t, self.s, self.k = t, s, k
        self.t_next, self.s_next = t_next, s_next
        self.frozen_from = k + 1

    def initial(self, t0, s0):
        return self.t, self.s

    def update(self, t, s, x, p, y, q, k):
        return (self.t_next, self.s_next) if k == self.k else (t, s)


# A primal stepsize no other run of the failure tests uses.
MARKER = 0.375


def nan_at_marker(prob):
    """``prob`` whose f prox writes NaN into every output row computed at
    the primal stepsize ``MARKER``, for a point or a stack alike."""
    good = prob.f_prox

    def marked(v, step):
        return np.where(np.asarray(step) == MARKER, np.nan, good(v, step))

    return replace(prob, f_prox=marked)


class TestLockstep:
    # solve_many advances several runs on stacks; every run must be bitwise
    # what its own solve returns, and every failure what the loop raises.
    @pytest.mark.parametrize("kind", ["lad-tall", "lad-wide", "lad-square", "tv"])
    def test_matches_loop_of_solves_bitwise(self, kind):
        prob = lockstep_problem(kind)
        if kind == "lad-square":
            # The grid's corner t = s = 1e3 refines its Schur solves.
            gram, eig = prob.coupling.gram, prob.coupling.gram_eig
            assert linalg.spd_factor(gram, eig, 1e6).refine
        height = objective_block_rows(prob.primal_dim, prob.dual_dim)
        policies = comparison_policies()
        # Budgets inside the first block, one past it, ending inside the
        # third, and a tol stop, which ends the runs at different sweeps.
        for max_iter, tol in ((1, 0.0), (height + 1, 0.0), (2 * height + 7, 0.0),
                              (601, 1e-3)):
            got = pddr.solve_many(prob, policies, max_iter=max_iter, tol=tol)
            want = looped(prob, policies, max_iter=max_iter, tol=tol)
            assert len(got) == len(want) == len(policies)
            for (x, y, trace), (x_ref, y_ref, trace_ref) in zip(got, want):
                assert_bitwise(x, x_ref)
                assert_bitwise(y, y_ref)
                assert_bitwise(trace.data, trace_ref.data)
        lengths = [len(trace) for *_, trace in got]
        assert len(set(lengths)) > 3 and 601 in lengths

    def test_record_grows_past_its_first_rows(self):
        # The lockstep record starts at _RECORD_ROWS rows and doubles; runs
        # longer than that, two of them stopped by tol after a growth, keep
        # every row.
        prob = lad_like(8)
        policies = [ConstantPolicy(1.0, 1.0), TsAdaptivePolicy(), ConstantPolicy(0.02, 0.02)]
        budget = 2 * pddr._RECORD_ROWS + 100
        got = pddr.solve_many(prob, policies, max_iter=budget, tol=1e-7)
        want = looped(prob, policies, max_iter=budget, tol=1e-7)
        for (x, y, trace), (x_ref, y_ref, trace_ref) in zip(got, want):
            assert_bitwise(x, x_ref)
            assert_bitwise(y, y_ref)
            assert_bitwise(trace.data, trace_ref.data)
        lengths = sorted(len(trace) for *_, trace in got)
        assert pddr._RECORD_ROWS < lengths[0] < budget and lengths[-1] == budget

    def test_comparison_with_one_policy_is_one_solve(self, monkeypatch):
        calls = []
        real = pddr.solve

        def counting(prob, policy, **kwargs):
            calls.append(policy)
            return real(prob, policy, **kwargs)

        monkeypatch.setattr(pddr, "solve", counting)
        prob, policy = lad_like(3), TsAdaptivePolicy()
        (trace,) = run_comparison(prob, [policy], max_iter=30)
        assert calls == [policy]
        assert_bitwise(trace.data, real(prob, policy, max_iter=30, tol=0.0)[2].data)
        run_comparison(prob, [policy, ConstantPolicy(1.0, 1.0)], max_iter=30)
        assert calls == [policy]

    def test_no_policies_no_runs(self):
        assert pddr.solve_many(lad_like(3), [], max_iter=10, tol=0.0) == []

    @staticmethod
    def assert_same_failure(prob, policies, max_iter=400):
        """solve_many raises what the loop of solves raises; returns it."""
        failures = []
        for run in (pddr.solve_many, looped):
            with np.errstate(invalid="ignore"), pytest.raises(Exception) as info:
                run(prob, policies, max_iter=max_iter, tol=0.0)
            failures.append(info.value)
        got, want = failures
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, IterationDiverged):
            assert (got.step, got.state.k) == (want.step, want.state.k)
            assert (got.state.t, got.state.s) == (want.state.t, want.state.s)
            for start, start_ref in ((got.state.p, want.state.p),
                                     (got.state.q, want.state.q)):
                assert start.base is None
                assert_bitwise(start, start_ref)
        return got

    def test_one_diverging_run(self):
        # The third run switches to the marker stepsize at step 50, and its
        # prox returns NaN from step 51 on, mid-block; no other run fails.
        prob = nan_at_marker(gen_lad(1)[1])
        policies = [ConstantPolicy(1.0, 1.0), TsAdaptivePolicy(),
                    SwitchingPolicy(0.5, 2.0, 50, MARKER, 2.0), ConstantPolicy(2.0, 0.5)]
        err = self.assert_same_failure(prob, policies)
        assert isinstance(err, IterationDiverged) and err.step == 51
        assert (err.state.t, err.state.s) == (MARKER, 2.0)

    def test_earlier_run_wins_over_earlier_sweep(self):
        # The third run diverges at step 0; the second returns a NaN
        # stepsize at step 120.  The loop raises the second run's error, so
        # the lockstep must too.
        prob = nan_at_marker(gen_lad(1)[1])
        policies = [TAdaptivePolicy(), SwitchingPolicy(1.0, 1.0, 120, np.nan, 1.0),
                    ConstantPolicy(MARKER, 1.0), TsAdaptivePolicy()]
        err = self.assert_same_failure(prob, policies)
        assert isinstance(err, ValueError)
        assert "the stepsizes the policy returned at step 120" in str(err)

    @pytest.mark.parametrize("kind", ["lad-tall", "tv"])
    def test_nonfinite_objective(self, kind):
        # The objective is infinite at the second run's step 300 and at the
        # third run's step 70, picked by their exact values: the loop
        # raises the second run's, although the third fails first in sweep
        # order, and although the second run's policy returns a NaN
        # stepsize at step 305, in the same objective block, before the
        # block is evaluated.
        clean = lockstep_problem(kind)
        policies = [ConstantPolicy(1.0, 1.0), SwitchingPolicy(0.5, 2.0, 305, np.nan, 2.0),
                    TsAdaptivePolicy(), ConstantPolicy(2.0, 0.5)]
        height = objective_block_rows(clean.primal_dim, clean.dual_dim)
        assert 300 // height == 305 // height
        traces = [trace for *_, trace in looped(clean, policies, max_iter=305, tol=0.0)]
        bad = [traces[1].column("objective")[300], traces[2].column("objective")[70]]
        assert not np.isin(bad, traces[0].column("objective")).any()

        def objective(xs):
            values = clean.objective(xs)
            values[np.isin(values, bad)] = np.inf
            return values

        err = self.assert_same_failure(replace(clean, objective=objective), policies)
        assert isinstance(err, IterationDiverged) and err.step == 300

    def test_invalid_initial_stepsizes_of_a_later_run(self):
        # The loop never starts the third run: the second diverges first.
        prob = nan_at_marker(gen_lad(1)[1])
        policies = [TsAdaptivePolicy(), SwitchingPolicy(1.0, 1.0, 30, MARKER, 1.0),
                    SwitchingPolicy(-1.0, 1.0, 0, 1.0, 1.0), ConstantPolicy(1.0, 1.0)]
        err = self.assert_same_failure(prob, policies)
        assert isinstance(err, IterationDiverged) and err.step == 31
        err = self.assert_same_failure(prob, [policies[0], policies[2], policies[1]])
        assert isinstance(err, ValueError) and "starting stepsizes" in str(err)
