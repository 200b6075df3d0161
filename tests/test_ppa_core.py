import re

import numpy as np
import pytest

from drsplit.linalg import LinearMap
from drsplit.operators import scaled_l1_prox, shifted_l1_conjugate_prox
from drsplit.pddr import (
    DRState,
    PdProblem,
    dr_as_proximal_point,
    pd_dr_step,
)
from drsplit.ppa_core import (
    IterationDiverged,
    PreconditionedResolvent,
    proximal_point,
)


def small_problem(seed=0, m=12, n=8):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return PdProblem(
        f_prox=scaled_l1_prox(1.0),
        gstar_prox=shifted_l1_conjugate_prox(b),
        coupling=LinearMap(a),
        objective=lambda xs: np.abs(xs @ a.T - b).sum(axis=1) + np.abs(xs).sum(axis=1),
    )


class TestEngine:
    def test_fixed_point_stops_immediately(self):
        res = PreconditionedResolvent(apply=lambda u, k: u,
                                      metric=lambda k: np.eye(3))
        u, trace = proximal_point(np.ones(3), res, max_iter=50, tol=1e-12)
        np.testing.assert_array_equal(u, np.ones(3))
        assert len(trace.rows) == 1
        assert trace.rows[0].m_residual == 0.0

    def test_scalar_geometric_decay(self):
        # Halving map: residual at step k is |u0| * 2^{-(k+1)}, exactly
        # representable, so the trace must match bitwise.
        res = PreconditionedResolvent(apply=lambda u, k: 0.5 * u,
                                      metric=lambda k: np.eye(1))
        u0 = 3.0
        u, trace = proximal_point(np.array([u0]), res, max_iter=20, tol=1e-30)
        assert u[0] == u0 * 0.5 ** 20
        for row in trace.rows:
            assert row.m_residual == u0 * 0.5 ** (row.k + 1)
            assert row.euclidean_step == row.m_residual

    def test_metric_residual_vs_euclidean(self):
        # With metric 4*I the metric residual doubles the euclidean one.
        res = PreconditionedResolvent(apply=lambda u, k: 0.5 * u,
                                      metric=lambda k: 4.0 * np.eye(2))
        _, trace = proximal_point(np.array([1.0, -1.0]), res,
                                  max_iter=5, tol=1e-30)
        for row in trace.rows:
            assert row.m_residual == pytest.approx(2.0 * row.euclidean_step,
                                                   rel=1e-14)

    def test_divergence_carries_step_and_state(self):
        def blow_up(u, k):
            return u * np.inf if k == 3 else 0.9 * u

        res = PreconditionedResolvent(apply=blow_up, metric=lambda k: np.eye(2))
        with pytest.raises(IterationDiverged) as info:
            proximal_point(np.ones(2), res, max_iter=10, tol=1e-30)
        assert info.value.step == 3
        assert np.all(np.isfinite(info.value.state))

    def test_argument_validation(self):
        res = PreconditionedResolvent(apply=lambda u, k: u,
                                      metric=lambda k: np.eye(1))
        with pytest.raises(ValueError):
            proximal_point(np.ones(1), res, max_iter=0, tol=1e-6)
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tol"):
                proximal_point(np.ones(1), res, max_iter=5, tol=tol)

    def test_trace_helpers(self):
        res = PreconditionedResolvent(apply=lambda u, k: 0.5 * u,
                                      metric=lambda k: np.eye(1))
        _, trace = proximal_point(np.array([1.0]), res, max_iter=4, tol=1e-30)
        assert trace.m_residuals().shape == (4,)
        assert trace.euclidean_steps().shape == (4,)
        assert [r.k for r in trace.rows] == [0, 1, 2, 3]


class TestSplittingAsProximalPoint:
    @pytest.mark.parametrize("steps", [(1.0, 1.0), (1.7, 0.4)])
    def test_matches_direct_sweep(self, steps):
        # With a fixed metric the doubled-space resolvent reproduces the
        # primal-dual sweep exactly, shadow pair for shadow pair.
        prob = small_problem(3)
        n, m = prob.primal_dim, prob.dual_dim
        t, s = steps

        state = DRState(p=np.zeros(n), q=np.zeros(m), t=t, s=s)
        shadows = []
        for _ in range(40):
            state, out = pd_dr_step(state, prob)
            shadows.append(np.concatenate([out.x, out.y]))

        res = dr_as_proximal_point(prob, lambda k: (t, s))
        u = np.zeros(2 * (n + m))
        for k in range(40):
            u = res.apply(u, k)
            np.testing.assert_allclose(u[:n + m], shadows[k], atol=1e-10)

    def test_first_step_matches_any_schedule(self):
        # The auxiliary half starts at zero, so step 0 agrees with the
        # direct sweep no matter what the schedule does afterwards.
        prob = small_problem(3)
        n, m = prob.primal_dim, prob.dual_dim
        state = DRState(p=np.zeros(n), q=np.zeros(m), t=2.3, s=0.6)
        _, out = pd_dr_step(state, prob)
        res = dr_as_proximal_point(prob, lambda k: (2.3, 0.6))
        u = res.apply(np.zeros(2 * (n + m)), 0)
        np.testing.assert_allclose(u[:n + m],
                                   np.concatenate([out.x, out.y]), atol=1e-12)

    def test_metric_is_psd_and_rank_deficient(self):
        prob = small_problem(4, m=6, n=4)
        res = dr_as_proximal_point(prob, lambda k: (1.3, 0.7))
        mat = res.metric(0)
        vals = np.linalg.eigvalsh(mat)
        assert vals.min() >= -1e-12
        assert np.sum(np.abs(vals) < 1e-12) == prob.primal_dim + prob.dual_dim

    def test_firm_nonexpansiveness_in_metric(self):
        # <Phi u - Phi w, u - w>_M >= ||Phi u - Phi w||_M^2 on random
        # pairs: the defining inequality of the preconditioned view.
        prob = small_problem(5, m=10, n=6)
        res = dr_as_proximal_point(prob, lambda k: (1.1, 0.9))
        mat = res.metric(0)
        rng = np.random.default_rng(55)
        dim = 2 * (prob.primal_dim + prob.dual_dim)
        for _ in range(200):
            u = rng.standard_normal(dim) * 3
            w = rng.standard_normal(dim) * 3
            pu = res.apply(u, 0)
            pw = res.apply(w, 0)
            d_in = u - w
            d_out = pu - pw
            slack = d_out @ mat @ d_in - d_out @ mat @ d_out
            assert slack >= -1e-9

    def test_residual_monotone_for_constant_metric(self):
        prob = small_problem(6)
        res = dr_as_proximal_point(prob, lambda k: (1.0, 1.0))
        dim = 2 * (prob.primal_dim + prob.dual_dim)
        _, trace = proximal_point(np.zeros(dim), res, max_iter=60, tol=1e-30)
        r = trace.m_residuals()
        assert np.all(r[1:] <= r[:-1] * (1 + 1e-12))

    def test_rejects_nonpositive_schedule(self):
        prob = small_problem(7)
        res = dr_as_proximal_point(prob, lambda k: (1.0, -1.0))
        with pytest.raises(ValueError):
            res.apply(np.zeros(2 * (prob.primal_dim + prob.dual_dim)), 0)

    @pytest.mark.parametrize("t, s", [(np.nan, 1.0), (1.0, np.inf), (1e200, 1e200)])
    def test_rejects_nonfinite_schedule(self, t, s):
        # Named as stepsizes, not as a preconditioner that varies on a block.
        prob = small_problem(7)
        res = dr_as_proximal_point(prob, lambda k: (t, s))
        with pytest.raises(ValueError, match=re.escape("at step 3") + ".*"
                           + re.escape(f"t={t}, s={s}")):
            res.apply(np.zeros(2 * (prob.primal_dim + prob.dual_dim)), 3)
