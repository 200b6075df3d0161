import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from drsplit.operators import (
    box_dual_prox,
    moreau_dual_resolvent,
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
            got = scaled_l1_prox(1.0)(np.array([x]), tau)[0]
            want = soft_threshold_search(x, tau)
            assert got == pytest.approx(want, abs=1e-4)

    def test_known_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(scaled_l1_prox(1.0)(x, 1.0),
                                      [-1.0, 0.0, 0.0, 0.0, 1.0])

    def test_zero_step_is_identity(self):
        x = np.array([1.3, -0.2, 0.0])
        np.testing.assert_array_equal(scaled_l1_prox(1.0)(x, 0.0), x)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            scaled_l1_prox(1.0)(np.ones(2), -0.1)

    def test_nan_threshold_rejected(self):
        # The threshold is the stepsize times the weight; a NaN one would
        # make every output NaN.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="stepsize"):
                scaled_l1_prox(1.0)(np.ones(2), bad)

    def test_firm_nonexpansiveness(self):
        # <Jx - Jy, x - y> >= ||Jx - Jy||^2 for any resolvent.
        rng = np.random.default_rng(5151)
        for _ in range(200):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            tau = rng.uniform(0.01, 5.0)
            dj = scaled_l1_prox(1.0)(x, tau) - scaled_l1_prox(1.0)(y, tau)
            slack = np.dot(dj, x - y) - np.dot(dj, dj)
            assert slack >= -1e-10


class TestQuadraticFidelity:
    def test_closed_form(self):
        d = np.array([1.0, -2.0])
        v = np.array([3.0, 0.0])
        np.testing.assert_allclose(quadratic_fidelity_prox(d)(v, 1.0),
                                   [2.0, -1.0])

    def test_stationarity(self):
        # Minimizer of 0.5*||z - d||^2 + (1/(2*step))*||z - v||^2
        # satisfies (z - d) + (z - v)/step = 0.
        rng = np.random.default_rng(99)
        for _ in range(50):
            d = rng.standard_normal(8)
            v = rng.standard_normal(8)
            step = rng.uniform(0.01, 10.0)
            z = quadratic_fidelity_prox(d)(v, step)
            grad = (z - d) + (z - v) / step
            assert np.linalg.norm(grad) <= 1e-10 * max(1.0, np.linalg.norm(v))

    def test_limits(self):
        d = np.array([5.0])
        v = np.array([1.0])
        assert quadratic_fidelity_prox(d)(v, 1e12)[0] == pytest.approx(5.0, rel=1e-9)
        np.testing.assert_array_equal(quadratic_fidelity_prox(d)(v, 0.0), v)

    def test_nan_step_rejected(self):
        # An infinite step would give inf/inf, NaN, with a RuntimeWarning.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="stepsize"):
                quadratic_fidelity_prox(np.ones(2))(np.ones(2), bad)


class TestBoxDual:
    def test_clip(self):
        q = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_array_equal(box_dual_prox(1.0)(q, 1.0),
                                      [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal(50) * 3
        once = box_dual_prox(0.7)(q, 1.0)
        np.testing.assert_array_equal(box_dual_prox(0.7)(once, 1.0), once)

    def test_projection_oracle(self):
        # Projection onto [-b, b] minimizes |z - q| subject to the box;
        # check against a dense feasible grid.
        rng = np.random.default_rng(41)
        grid = np.linspace(-0.9, 0.9, 100001)
        for _ in range(10):
            q = rng.uniform(-2, 2)
            got = box_dual_prox(0.9)(np.array([q]), 1.0)[0]
            want = grid[np.argmin(np.abs(grid - q))]
            assert got == pytest.approx(want, abs=1e-4)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            box_dual_prox(-1.0)

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            box_dual_prox(np.nan)


class TestShiftedL1Conj:
    def test_moreau_chain(self):
        # The resolvent of the conjugate of |. - b|_1 at step s equals
        # y - s*(b + soft(y/s - b, 1/s)) ... assembled here from the primal
        # soft threshold only, as an independent oracle.
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = 7
            y = rng.standard_normal(n) * 2
            b = rng.standard_normal(n)
            s = rng.uniform(0.05, 8.0)
            got = shifted_l1_conjugate_prox(b)(y, s)
            inner = b + scaled_l1_prox(1.0)(y / s - b, 1.0 / s)
            want = y - s * inner
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_range_is_unit_box(self):
        rng = np.random.default_rng(78)
        y = rng.standard_normal(40) * 10
        b = rng.standard_normal(40)
        out = shifted_l1_conjugate_prox(b)(y, 2.0)
        assert np.abs(out).max() <= 1.0 + 1e-12

    def test_interior_fixed_region(self):
        # Inside the unit box with b = 0 the conjugate resolvent is the
        # identity for any step.
        y = np.array([0.3, -0.9, 0.0])
        np.testing.assert_allclose(
            shifted_l1_conjugate_prox(np.zeros(3))(y, 3.7), y, atol=1e-15)

    def test_clamp_holds_beyond_integer_precision(self):
        # Above 2**53 the clamp must still give the box face, not the
        # difference of two equal roundings.
        np.testing.assert_array_equal(
            shifted_l1_conjugate_prox(np.zeros(1))(np.array([1e17]), 0.0), [1.0])
        np.testing.assert_array_equal(
            shifted_l1_conjugate_prox(np.ones(2))(np.array([-1e300, 1e300]), 2.0),
            [-1.0, 1.0])

    def test_nan_step_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="stepsize"):
                shifted_l1_conjugate_prox(np.ones(2))(np.ones(2), bad)


# NaN of both signs, signed zeros, infinities, huge values, and neighbours
# of 2**53 and of 1.
CLAMP_EDGES = np.array([
    np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e300, -1e300,
    *(sign * np.nextafter(2.0 ** 53, d) for sign in (1, -1) for d in (0, np.inf)),
    2.0 ** 53, -(2.0 ** 53),
    *(sign * np.nextafter(1.0, d) for sign in (1, -1) for d in (0, np.inf)),
    1.0, -1.0, 0.5, -0.5, 5e-324, -5e-324,
])


def test_clamps_match_np_clip_bitwise():
    # The clamps use np.minimum(np.maximum(.)) in place of np.clip; the bits,
    # NaN payloads and signs of zero included, must be those of np.clip.
    def bits(a):
        return np.asarray(a).view(np.int64)

    rng = np.random.default_rng(5)
    shift = rng.standard_normal(CLAMP_EDGES.size)
    for step in (0.0, 1.0, 3.5):
        want = np.clip(CLAMP_EDGES - step * shift, -1.0, 1.0)
        np.testing.assert_array_equal(
            bits(shifted_l1_conjugate_prox(shift)(CLAMP_EDGES, step)), bits(want))
    for bound in (1.0, 0.7, 2.0 ** 53, 1e300):
        np.testing.assert_array_equal(bits(box_dual_prox(bound)(CLAMP_EDGES, 1.0)),
                                      bits(np.clip(CLAMP_EDGES, -bound, bound)))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sigma_rejected(self, bad):
        # "sigma <= 0" let NaN and inf through: [nan, 1] gave [nan, 0].
        with pytest.raises(ValueError, match="scaling diagonal must be finite and positive"):
            moreau_dual_resolvent(np.ones(2), np.array([bad, 1.0]), lambda u: u)


class TestFactories:
    def test_scaled_l1(self):
        pm = scaled_l1_prox(2.0)
        np.testing.assert_array_equal(pm(np.array([5.0, -1.0]), 1.0),
                                      [3.0, 0.0])

    def test_shifted_conjugate(self):
        b = np.array([1.0, -1.0])
        pm = shifted_l1_conjugate_prox(b)
        # clamp([0.5, 0.5] - 2 * [1, -1]) = clamp([-1.5, 2.5])
        np.testing.assert_array_equal(pm(np.array([0.5, 0.5]), 2.0), [-1.0, 1.0])

    def test_quadratic_factory(self):
        d = np.array([2.0])
        pm = quadratic_fidelity_prox(d)
        assert pm(np.array([0.0]), 1.0)[0] == pytest.approx(1.0)

    def test_box_factory_ignores_step(self):
        pm = box_dual_prox(0.5)
        a = pm(np.array([3.0]), 0.1)
        b = pm(np.array([3.0]), 100.0)
        assert a[0] == b[0] == 0.5

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            scaled_l1_prox(-1.0)
        with pytest.raises(ValueError):
            box_dual_prox(-0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("factory", [scaled_l1_prox, box_dual_prox])
    def test_nonfinite_weight_rejected(self, factory, bad):
        # A NaN weight would pass "weight <= 0" and poison the first sweep.
        with pytest.raises(ValueError, match="finite"):
            factory(bad)

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
                dj = pm(x, step) - pm(y, step)
                slack = np.dot(dj, x - y) - np.dot(dj, dj)
                assert slack >= -1e-10, pm

    @pytest.mark.parametrize("pm", [scaled_l1_prox(1.0), shifted_l1_conjugate_prox(np.ones(2)),
                                    quadratic_fidelity_prox(np.ones(2))],
                             ids=["l1", "l1-shift-conj", "quad-fidelity"])
    def test_nan_step_rejected(self, pm):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="stepsize"):
                pm(np.ones(2), bad)

    @pytest.mark.parametrize("factory,param", [(shifted_l1_conjugate_prox, "shift"),
                                               (quadratic_fidelity_prox, "data")])
    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)], ids=["short", "long", "column"])
    def test_shape_mismatch_rejected(self, factory, param, shape):
        # Broadcasting against the shift or data would return an array
        # shaped unlike the point, or fail with an unrelated message.
        pm = factory(np.ones(2))
        with pytest.raises(ValueError, match=f"shape mismatch: .* vs {param}"):
            pm(np.ones(shape), 1.0)


# Each factory and whether its parameter (weight, shift, data or bound) is a
# vector.
FACTORIES = {
    "l1": (scaled_l1_prox, False),
    "l1-shift-conj": (shifted_l1_conjugate_prox, True),
    "quad-fidelity": (quadratic_fidelity_prox, True),
    "box-dual": (box_dual_prox, False),
}


def draw_param(data, vector, n, elements):
    if vector:
        return data.draw(arrays(np.float64, n, elements=elements))
    return data.draw(st.floats(1e-6, 1e6))


@pytest.mark.parametrize("tag", sorted(FACTORIES))
@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_factory_prox_firmly_nonexpansive(tag, data):
    # <Jx - Jy, x - y> >= ||Jx - Jy||^2, up to rounding in the entries of
    # size scale that J computes.
    factory, vector = FACTORIES[tag]
    n = data.draw(st.integers(1, 8))
    entries = st.floats(-100.0, 100.0)
    x = data.draw(arrays(np.float64, n, elements=entries))
    y = data.draw(arrays(np.float64, n, elements=entries))
    step = data.draw(st.floats(0.0, 100.0))
    param = draw_param(data, vector, n, entries)
    pm = factory(param)
    dj = pm(x, step) - pm(y, step)
    scale = 1.0 + max(np.abs(x).max(), np.abs(y).max(), step * np.abs(param).max())
    assert np.dot(dj, x - y) - np.dot(dj, dj) >= -1e-12 * scale ** 2
