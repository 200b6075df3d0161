import numpy as np
import pytest

from drsplit.operators import (
    box_dual_prox,
    moreau_dual_resolvent,
    prox_box_dual,
    prox_l1,
    prox_quadratic_fidelity,
    prox_shifted_l1_conj,
    quadratic_fidelity_prox,
    scaled_l1_prox,
    shifted_l1_conjugate_prox,
)


def soft_threshold_search(x, tau, width=4.0, num=400001):
    # Brute-force argmin of tau*|z| + 0.5*(z - x)^2 over a fine grid,
    # refined once around the winner. Slow but independent of the
    # closed form under test.
    grid = np.linspace(x - width, x + width, num)
    vals = tau * np.abs(grid) + 0.5 * (grid - x) ** 2
    z0 = grid[np.argmin(vals)]
    h = 2 * width / (num - 1)
    fine = np.linspace(z0 - h, z0 + h, 20001)
    vals = tau * np.abs(fine) + 0.5 * (fine - x) ** 2
    return fine[np.argmin(vals)]


class TestProxL1:
    def test_against_grid_search(self):
        rng = np.random.default_rng(5150)
        for _ in range(12):
            x = rng.uniform(-3, 3)
            tau = rng.uniform(0.05, 2.0)
            got = prox_l1(np.array([x]), tau)[0]
            want = soft_threshold_search(x, tau)
            assert got == pytest.approx(want, abs=1e-4)

    def test_known_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(prox_l1(x, 1.0),
                                      [-1.0, 0.0, 0.0, 0.0, 1.0])

    def test_zero_step_is_identity(self):
        x = np.array([1.3, -0.2, 0.0])
        np.testing.assert_array_equal(prox_l1(x, 0.0), x)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            prox_l1(np.ones(2), -0.1)

    def test_firm_nonexpansiveness(self):
        # <Jx - Jy, x - y> >= ||Jx - Jy||^2 for any resolvent.
        rng = np.random.default_rng(5151)
        for _ in range(200):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            tau = rng.uniform(0.01, 5.0)
            dj = prox_l1(x, tau) - prox_l1(y, tau)
            slack = np.dot(dj, x - y) - np.dot(dj, dj)
            assert slack >= -1e-10


class TestQuadraticFidelity:
    def test_closed_form(self):
        d = np.array([1.0, -2.0])
        v = np.array([3.0, 0.0])
        np.testing.assert_allclose(prox_quadratic_fidelity(v, 1.0, d),
                                   [2.0, -1.0])

    def test_stationarity(self):
        # Minimizer of 0.5*||z - d||^2 + (1/(2*step))*||z - v||^2
        # satisfies (z - d) + (z - v)/step = 0.
        rng = np.random.default_rng(99)
        for _ in range(50):
            d = rng.standard_normal(8)
            v = rng.standard_normal(8)
            step = rng.uniform(0.01, 10.0)
            z = prox_quadratic_fidelity(v, step, d)
            grad = (z - d) + (z - v) / step
            assert np.linalg.norm(grad) <= 1e-10 * max(1.0, np.linalg.norm(v))

    def test_limits(self):
        d = np.array([5.0])
        v = np.array([1.0])
        assert prox_quadratic_fidelity(v, 1e12, d)[0] == pytest.approx(5.0, rel=1e-9)
        np.testing.assert_array_equal(prox_quadratic_fidelity(v, 0.0, d), v)


class TestBoxDual:
    def test_clip(self):
        q = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_array_equal(prox_box_dual(q, 1.0),
                                      [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal(50) * 3
        once = prox_box_dual(q, 0.7)
        np.testing.assert_array_equal(prox_box_dual(once, 0.7), once)

    def test_projection_oracle(self):
        # Projection onto [-b, b] minimizes |z - q| subject to the box;
        # check against a dense feasible grid.
        rng = np.random.default_rng(41)
        grid = np.linspace(-0.9, 0.9, 100001)
        for _ in range(10):
            q = rng.uniform(-2, 2)
            got = prox_box_dual(np.array([q]), 0.9)[0]
            want = grid[np.argmin(np.abs(grid - q))]
            assert got == pytest.approx(want, abs=1e-4)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            prox_box_dual(np.zeros(2), -1.0)


class TestShiftedL1Conj:
    def test_moreau_chain(self):
        # The resolvent of the conjugate of |. - b|_1 at step s equals
        # y - s*(b + prox_l1((y - s*b)/s, 1/s)) ... assembled here from
        # the primal soft threshold only, as an independent oracle.
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = 7
            y = rng.standard_normal(n) * 2
            b = rng.standard_normal(n)
            s = rng.uniform(0.05, 8.0)
            got = prox_shifted_l1_conj(y, s, b)
            inner = b + prox_l1(y / s - b, 1.0 / s)
            want = y - s * inner
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_range_is_unit_box(self):
        rng = np.random.default_rng(78)
        y = rng.standard_normal(40) * 10
        b = rng.standard_normal(40)
        out = prox_shifted_l1_conj(y, 2.0, b)
        assert np.abs(out).max() <= 1.0 + 1e-12

    def test_interior_fixed_region(self):
        # Inside the unit box with b = 0 the conjugate resolvent is the
        # identity for any step.
        y = np.array([0.3, -0.9, 0.0])
        np.testing.assert_allclose(
            prox_shifted_l1_conj(y, 3.7, np.zeros(3)), y, atol=1e-15)

    def test_clamp_holds_beyond_integer_precision(self):
        # Above 2**53 the clamp must still give the box face, not the
        # difference of two equal roundings.
        np.testing.assert_array_equal(
            prox_shifted_l1_conj(np.array([1e17]), 0.0, np.zeros(1)), [1.0])
        np.testing.assert_array_equal(
            prox_shifted_l1_conj(np.array([-1e300, 1e300]), 2.0, np.ones(2)),
            [-1.0, 1.0])


def componentwise_soft(u, thresholds):
    return np.sign(u) * np.maximum(np.abs(u) - thresholds, 0.0)


class TestMoreauDualResolvent:
    def test_identity_with_l1(self):
        # For T the subdifferential of the l1 norm, the resolvent of
        # Sigma * T^{-1} is the componentwise clamp to [-1, 1] no matter
        # what positive diagonal Sigma is.  The decomposition must hit
        # that independent closed form when fed the metric-aware primal
        # resolvent v -> soft(v, 1/sigma).
        rng = np.random.default_rng(300)
        for _ in range(100):
            n = 5
            v = rng.standard_normal(n) * 3
            sig = rng.uniform(0.1, 4.0, size=n)
            dual = moreau_dual_resolvent(
                v, sig, lambda u: componentwise_soft(u, 1.0 / sig))
            np.testing.assert_allclose(dual, np.clip(v, -1.0, 1.0),
                                       atol=1e-10)

    def test_box_stationarity(self):
        # The dual point must satisfy the projection variational
        # inequality (v - z) . (w - z) <= 0 in the Sigma^-1 inner
        # product for every w in the unit box.
        rng = np.random.default_rng(301)
        for _ in range(50):
            n = 4
            v = rng.standard_normal(n) * 2
            sig = rng.uniform(0.2, 3.0, size=n)
            z = moreau_dual_resolvent(
                v, sig, lambda u: componentwise_soft(u, 1.0 / sig))
            assert np.abs(z).max() <= 1.0 + 1e-12
            for _ in range(20):
                w = rng.uniform(-1, 1, size=n)
                gap = np.sum((v - z) * (w - z) / sig)
                assert gap <= 1e-10

    def test_scalar_bisection_oracle(self):
        # Scalar case: the dual resolvent solves z + sigma * N(z) = v
        # with N the normal cone of [-1, 1].  Recover z by bisection on
        # the monotone stationarity gap of the constrained projection
        # instead of trusting any closed form.
        def dual_by_bisection(v, sigma):
            if 1.0 - v <= 0:
                return 1.0
            if -1.0 - v >= 0:
                return -1.0
            lo, hi = -1.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if mid - v < 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        rng = np.random.default_rng(302)
        for _ in range(30):
            v = rng.uniform(-3, 3)
            sigma = np.array([rng.uniform(0.1, 5.0)])
            got = moreau_dual_resolvent(
                np.array([v]), sigma,
                lambda u: componentwise_soft(u, 1.0 / sigma))[0]
            assert got == pytest.approx(dual_by_bisection(v, sigma[0]),
                                        abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            moreau_dual_resolvent(np.ones(3), np.ones(2),
                                  lambda u: u)

    def test_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            moreau_dual_resolvent(np.ones(2), np.array([1.0, 0.0]),
                                  lambda u: u)


class TestFactories:
    def test_scaled_l1(self):
        pm = scaled_l1_prox(2.0)
        np.testing.assert_array_equal(pm.fn(np.array([5.0, -1.0]), 1.0),
                                      [3.0, 0.0])
        assert pm.tag == "l1"

    def test_shifted_conjugate(self):
        b = np.array([1.0, -1.0])
        pm = shifted_l1_conjugate_prox(b)
        got = pm.fn(np.array([0.5, 0.5]), 2.0)
        want = prox_shifted_l1_conj(np.array([0.5, 0.5]), 2.0, b)
        np.testing.assert_array_equal(got, want)

    def test_quadratic_factory(self):
        d = np.array([2.0])
        pm = quadratic_fidelity_prox(d)
        assert pm.fn(np.array([0.0]), 1.0)[0] == pytest.approx(1.0)

    def test_box_factory_ignores_step(self):
        pm = box_dual_prox(0.5)
        a = pm.fn(np.array([3.0]), 0.1)
        b = pm.fn(np.array([3.0]), 100.0)
        assert a[0] == b[0] == 0.5

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            scaled_l1_prox(-1.0)
        with pytest.raises(ValueError):
            box_dual_prox(-0.5)

    def test_firm_nonexpansiveness_across_catalog(self):
        rng = np.random.default_rng(909)
        b = rng.standard_normal(6)
        catalog = [
            (scaled_l1_prox(1.3), 0.7),
            (shifted_l1_conjugate_prox(b), 2.1),
            (quadratic_fidelity_prox(b), 0.9),
            (box_dual_prox(0.8), 1.5),
        ]
        for pm, step in catalog:
            for _ in range(100):
                x = rng.standard_normal(6) * 2
                y = rng.standard_normal(6) * 2
                dj = pm.fn(x, step) - pm.fn(y, step)
                slack = np.dot(dj, x - y) - np.dot(dj, dj)
                assert slack >= -1e-10, pm.tag
