import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drsplit.adaptive import (
    AdaptiveConfig,
    ConstantPolicy,
    TAdaptivePolicy,
    TsAdaptivePolicy,
    _halving_freeze_step,
    _one_side,
    adaptive_update,
    default_relaxation,
)


class TestRelaxation:
    def test_halving(self):
        assert default_relaxation(0) == 1.0
        assert default_relaxation(1) == 0.5
        assert default_relaxation(10) == 2.0 ** -10

    def test_underflow_to_exact_zero(self):
        assert default_relaxation(1074) == 5e-324
        assert default_relaxation(1075) == 0.0
        assert default_relaxation(2000) == 0.0

    def test_negative_index(self):
        with pytest.raises(ValueError):
            default_relaxation(-1)


class TestConfig:
    def test_defaults(self):
        cfg = AdaptiveConfig()
        assert cfg.lo_t == 1e-4 and cfg.hi_t == 1e4
        assert cfg.lo_s == 1e-4 and cfg.hi_s == 1e4
        assert cfg.cap == 1e4

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(lo_t=1.0, hi_t=0.5)
        with pytest.raises(ValueError):
            AdaptiveConfig(lo_s=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(cap=-1.0)

    @pytest.mark.parametrize("cap", [np.nan, np.inf, 0.0])
    def test_cap_must_be_finite_and_positive(self, cap):
        # min(t, nan) is t, so a NaN cap would silently switch the cap off.
        with pytest.raises(ValueError, match="cap"):
            AdaptiveConfig(cap=cap)

    @pytest.mark.parametrize("kwargs", [
        {"hi_t": np.inf}, {"hi_s": np.inf}, {"lo_t": np.nan}, {"hi_s": np.nan},
        {"lo_s": np.inf, "hi_s": np.inf},
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_safeguards_must_be_finite(self, kwargs):
        # An infinite upper safeguard has no freeze step: the update would
        # move the stepsize at every k while the weight is nonzero.
        with pytest.raises(ValueError, match="< inf"):
            AdaptiveConfig(**kwargs)


def update_t(t, x, p, k, **cfg_kw):
    cfg = AdaptiveConfig(**cfg_kw)
    t2, _ = adaptive_update(t, 1.0, x, p, np.zeros(1), np.zeros(1), k, cfg)
    return t2


class TestUpdateRule:
    def test_full_weight_tracks_ratio(self):
        # At weight 1 the new stepsize is exactly ratio * old; doubling
        # a float is exact, so ratio 2 must double t bitwise.
        x = np.array([2.0, 0.0])
        p = np.array([2.0, 1.0])
        assert update_t(0.7, x, p, k=0) == 1.4

    def test_blend_at_half_weight(self):
        # weight 0.5, ratio 3: multiplier (1 - 0.5) + 0.5 * 3 = 2.
        x = np.array([3.0])
        p = np.array([4.0])
        assert update_t(1.0, x, p, k=1) == 2.0

    def test_ratio_clamped_below(self):
        # Zero prox output with nonzero displacement: raw ratio 0 is
        # pulled up to the lower safeguard.
        x = np.zeros(2)
        p = np.array([1.0, 1.0])
        got = update_t(1.0, x, p, k=0, lo_t=0.25)
        assert got == 0.25

    def test_ratio_clamped_above(self):
        x = np.array([1e9])
        p = np.array([1e9 + 1e-3])
        got = update_t(1.0, x, p, k=0, hi_t=8.0, cap=1e6)
        assert got == 8.0

    def test_cap_is_exact(self):
        # Zero displacement with nonzero output drives the ratio to the
        # upper safeguard and the cap must bind bitwise.
        x = np.array([5.0])
        got = update_t(1.0, x, x.copy(), k=0)
        assert got == 1e4

    def test_both_zero_keeps_step_bitwise(self):
        odd = 0.1 + 0.2
        got = update_t(odd, np.zeros(3), np.zeros(3), k=0)
        assert got == odd

    def test_bounded_increment(self):
        # |t+ - t| <= w_k * max(hi - 1, 1 - lo) * t whether or not the
        # cap binds.
        rng = np.random.default_rng(88)
        cfg = AdaptiveConfig()
        bound_factor = max(cfg.hi_t - 1.0, 1.0 - cfg.lo_t)
        t = 1.0
        for k in range(200):
            x = rng.standard_normal(4) * 10.0 ** rng.integers(-6, 7)
            p = rng.standard_normal(4) * 10.0 ** rng.integers(-6, 7)
            t2, _ = adaptive_update(t, 1.0, x, p, np.zeros(1), np.ones(1),
                                    k, cfg)
            w = default_relaxation(k)
            assert abs(t2 - t) <= w * bound_factor * t + 1e-12
            assert 0 < t2 <= cfg.cap
            t = t2

    def test_frozen_once_weight_negligible(self):
        # By k = 70 the blended multiplier rounds to 1.0 for any ratio
        # inside the default safeguards, so the update is a bitwise
        # no-op long before the weight itself underflows.
        rng = np.random.default_rng(89)
        for _ in range(50):
            t = float(rng.uniform(1e-3, 1e3))
            x = rng.standard_normal(3)
            p = rng.standard_normal(3)
            assert update_t(t, x, p, k=70) == t
            assert update_t(t, x, p, k=1075) == t

    def test_validation(self):
        with pytest.raises(ValueError):
            adaptive_update(0.0, 1.0, np.ones(1), np.ones(1),
                            np.ones(1), np.ones(1), 0, AdaptiveConfig())

    @pytest.mark.parametrize("t, s", [(np.nan, 1.0), (1.0, np.inf), (1e200, 1e200)])
    def test_nonfinite_steps_rejected(self, t, s):
        # The result must stay in (0, cap]; a NaN in would come back out.
        with pytest.raises(ValueError, match=re.escape(f"t={t}, s={s}")):
            adaptive_update(t, s, np.ones(1), np.full(1, 2.0),
                            np.ones(1), np.full(1, 2.0), 0, AdaptiveConfig())

    def test_norms_match_numpy_bitwise(self):
        # The rule is stated with np.linalg.norm; the update must give the
        # same bits over inputs spanning many magnitudes.
        cfg = AdaptiveConfig()
        rng = np.random.default_rng(90)

        def restated(step, point, shadow, k):
            num = np.linalg.norm(point)
            den = np.linalg.norm(shadow - point)
            w = default_relaxation(k)
            ratio = cfg.hi_t if den == 0.0 else num / den
            return min(((1.0 - w) + w * min(max(ratio, cfg.lo_t), cfg.hi_t)) * step,
                       cfg.cap)

        for k in range(300):
            dim = int(rng.integers(1, 300))
            x, p, y, q = (rng.standard_normal(dim) * 10.0 ** rng.uniform(-8, 8)
                          for _ in range(4))
            t, s = (float(v) for v in rng.uniform(1e-3, 1e3, size=2))
            got = adaptive_update(t, s, x, p, y, q, k % 60, cfg)
            assert got == (restated(t, x, p, k % 60), restated(s, y, q, k % 60))

    def test_norms_overflow_safe(self):
        # Finite vectors whose squares overflow give the ratio their
        # rescaled copies give, not NaN.
        cfg = AdaptiveConfig()
        rng = np.random.default_rng(91)
        x, p, y, q = (rng.standard_normal(30) for _ in range(4))
        with np.errstate(over="ignore"):
            big = adaptive_update(0.7, 1.3, 1e160 * x, 1e160 * p, 1e200 * y, 1e200 * q,
                                  1, cfg)
        small = adaptive_update(0.7, 1.3, x, p, y, q, 1, cfg)
        assert big == pytest.approx(small, rel=1e-14)

    def test_two_sides_independent(self):
        cfg = AdaptiveConfig()
        x = np.array([2.0])
        p = np.array([1.0])   # primal ratio 2
        y = np.array([1.0])
        q = np.array([4.0])   # dual ratio 1/3
        t2, s2 = adaptive_update(1.0, 3.0, x, p, y, q, 0, cfg)
        assert t2 == 2.0
        assert s2 == pytest.approx(1.0)


class TestPolicies:
    def test_constant_overrides_initial(self):
        pol = ConstantPolicy(1.1, 2.2)
        assert pol.initial(9.0, 9.0) == (1.1, 2.2)
        assert pol.update(5.0, 5.0, None, None, None, None, 3) == (1.1, 2.2)

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            ConstantPolicy(0.0, 1.0)

    def test_constant_rejects_overflowing_product(self):
        # The rule every solve applies, at construction: t, s and t*s finite.
        with pytest.raises(ValueError, match=re.escape("t=1e+200, s=1e+200")):
            ConstantPolicy(1e200, 1e200)

    def test_constant_stores_floats(self):
        pol = ConstantPolicy(1, np.float32(2.5))
        assert type(pol.t) is float and type(pol.s) is float
        assert pol.initial(9.0, 9.0) == (1.0, 2.5)
        assert all(type(v) is float for v in pol.update(1.0, 2.5, None, None, None, None, 0))

    @pytest.mark.parametrize("pair", [(np.nan, 1.0), (1.0, np.nan),
                                      (np.inf, 1.0), (1.0, -np.inf)])
    def test_constant_rejects_nonfinite(self, pair):
        with pytest.raises(ValueError):
            ConstantPolicy(*pair)

    def test_single_step_policy_mirrors(self):
        pol = TAdaptivePolicy()
        assert pol.initial(2.0, 7.0) == (2.0, 2.0)
        t2, s2 = pol.update(1.0, 1.0, np.array([2.0]), np.array([1.0]),
                            np.array([999.0]), np.array([0.0]), 0)
        assert t2 == s2 == 2.0

    def test_initial_respects_cap(self):
        cfg = AdaptiveConfig(cap=5.0)
        assert TAdaptivePolicy(cfg).initial(100.0, 1.0) == (5.0, 5.0)
        assert TsAdaptivePolicy(cfg).initial(100.0, 7.0) == (5.0, 5.0)

    def test_two_sided_policy_delegates(self):
        cfg = AdaptiveConfig()
        pol = TsAdaptivePolicy(cfg)
        args = (1.0, 3.0, np.array([2.0]), np.array([1.0]),
                np.array([1.0]), np.array([4.0]), 0)
        assert pol.update(*args) == adaptive_update(*args, cfg)


finite_positive = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
small_vectors = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4).map(np.array)


class TestFreeze:
    def test_reported_steps(self):
        assert TsAdaptivePolicy().frozen_from == 67
        assert TAdaptivePolicy().frozen_from == 67
        assert ConstantPolicy(1.0, 2.0).frozen_from == 0
        # The later side decides; s follows t under the single-step policy.
        cfg = AdaptiveConfig(hi_t=2.0, hi_s=1e8)
        assert TsAdaptivePolicy(cfg).frozen_from == 80
        assert TAdaptivePolicy(cfg).frozen_from == 54

    def test_exact_at_powers_of_two(self):
        # 2**-63 * 2**10 is exactly 2**-53; one more bit of hi needs one
        # more step, no hi needs fewer than 54, and none more than 1075,
        # where the weight underflows to 0.
        assert _halving_freeze_step(1024.0) == 63
        assert _halving_freeze_step(np.nextafter(1024.0, np.inf)) == 64
        assert _halving_freeze_step(2.0) == 54
        assert _halving_freeze_step(1e-300) == 54
        assert _halving_freeze_step(2.0 ** 1021) == 1074
        assert _halving_freeze_step(np.nextafter(2.0 ** 1021, np.inf)) == 1075
        assert _halving_freeze_step(1.7976931348623157e308) == 1075

    def test_frozen_from_is_read_only(self):
        for pol in (TsAdaptivePolicy(), TAdaptivePolicy(), ConstantPolicy(1.0, 1.0)):
            with pytest.raises(AttributeError):
                pol.frozen_from = 1

    @settings(database=None, derandomize=True, deadline=None, max_examples=300)
    @given(bounds=st.tuples(finite_positive, finite_positive).filter(lambda b: b[0] != b[1]),
           cap=finite_positive, step_share=st.floats(0.0, 1.0),
           beyond=st.integers(0, 1200), point=small_vectors, gap=small_vectors,
           same=st.booleans())
    @example(bounds=(1e-4, 1e4), cap=1e4, step_share=1.0, beyond=0,
             point=np.array([1.0]), gap=np.array([0.0]), same=True)
    def test_identity_from_freeze_step(self, bounds, cap, step_share, beyond, point, gap,
                                       same):
        # For any finite 0 < lo < hi, any k >= frozen_from and any stepsize
        # at or below the cap, the update returns the stepsize bitwise.  The
        # example is the default config, zero displacement clamping the
        # ratio to hi.
        lo, hi = sorted(bounds)
        step = max(cap * step_share, 5e-324)
        shadow = point.copy() if same else point + gap[:1]
        pol = TsAdaptivePolicy(AdaptiveConfig(lo_t=lo, hi_t=hi, lo_s=lo, hi_s=hi, cap=cap))
        k = pol.frozen_from + beyond
        got = _one_side(step, point, shadow, default_relaxation(k), lo, hi, cap)
        assert got.hex() == step.hex()
        # The dual side is held at a stepsize whose product with t is finite.
        other = min(step, 1.0)
        assert pol.update(step, other, point, shadow, point, shadow, k) == (step, other)
        # The step is the first one: just before it, ratio hi moves 1.0.
        # (At 54 the floor of the rule, not hi, sets the step.)
        if pol.frozen_from > 54 and cap >= 2.0:
            one = np.array([1.0])
            before = default_relaxation(pol.frozen_from - 1)
            assert _one_side(1.0, one, one.copy(), before, lo, hi, cap) > 1.0
