"""Adaptive stepsize control for the splitting solver.

Each stepsize is nudged toward the ratio ``||x|| / ||p - x||`` observed at
the current iterate (p - x is, up to the stepsize, a subgradient at x, so
the ratio estimates the locally best stepsize).  The raw ratio is clamped to
a safeguard interval, blended with 1 through a decaying relaxation weight,
and the resulting multiplicative update is capped:

    t_next = min(((1 - w_k) + w_k * clamp(ratio)) * t, cap)

With the default halving relaxation the weights are summable, so the
stepsize sequence converges and the updates eventually become exact no-ops
in floating point.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import check_steps, scaled_norm

__all__ = [
    "AdaptiveConfig",
    "ConstantPolicy",
    "TAdaptivePolicy",
    "TsAdaptivePolicy",
    "adaptive_update",
    "default_relaxation",
]


def default_relaxation(k: int) -> float:
    """Relaxation weight 2**(-k); returns exact 0.0 once that underflows."""
    if k < 0:
        raise ValueError(f"iteration index must be nonnegative, got {k}")
    return 2.0 ** (-k)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Safeguards, relaxation schedules, and the hard cap.

    ``lo_*``/``hi_*`` bound the raw stepsize ratio before blending, one pair
    per stepsize; ``relax_*`` map the iteration index to the blending weight;
    ``cap`` bounds the stepsizes themselves after the update.
    """

    lo_t: float = 1e-4
    hi_t: float = 1e4
    lo_s: float = 1e-4
    hi_s: float = 1e4
    relax_t: Callable[[int], float] = default_relaxation
    relax_s: Callable[[int], float] = default_relaxation
    cap: float = 1e4

    def __post_init__(self):
        if not 0 < self.lo_t < self.hi_t:
            raise ValueError(f"need 0 < lo_t < hi_t, got {self.lo_t}, {self.hi_t}")
        if not 0 < self.lo_s < self.hi_s:
            raise ValueError(f"need 0 < lo_s < hi_s, got {self.lo_s}, {self.hi_s}")
        if not 0 < self.cap < math.inf:
            raise ValueError(f"cap must be finite and positive, got {self.cap}")
        if self.relax_t(0) != 1.0 or self.relax_s(0) != 1.0:
            raise ValueError("relaxation schedules must start at 1")


def _one_side(step: float, point, shadow, weight: float, lo: float, hi: float,
              cap: float) -> float:
    """Update one stepsize from its prox output ``point`` (a float ndarray)
    and shadow input."""
    # math.sqrt(v.dot(v)) is how np.linalg.norm computes a 1-D float norm,
    # bit for bit, without its dispatch.  Its squares overflow for finite
    # vectors above about 1e154; only then is the norm recomputed, scaled.
    num = math.sqrt(point.dot(point))
    if not num < math.inf:
        num = scaled_norm(point)
    gap = shadow - point
    den = math.sqrt(gap.dot(gap))
    if not den < math.inf:
        den = scaled_norm(gap)
    if den == 0.0:
        if num == 0.0:
            # Nothing observable at this iterate; keep the stepsize bitwise.
            return step
        ratio = hi
    else:
        ratio = num / den
    multiplier = (1.0 - weight) + weight * min(max(ratio, lo), hi)
    return min(multiplier * step, cap)


def adaptive_update(t: float, s: float, x, p, y, q, k: int,
                    config: AdaptiveConfig) -> tuple[float, float]:
    """One controller sweep for both stepsizes.

    Parameters
    ----------
    t, s : float
        Stepsizes used by step k.
    x, p : array_like
        Primal prox output and the shadow point it was evaluated at.
    y, q : array_like
        Dual-side prox output and its shadow point.
    k : int
        Iteration index feeding the relaxation schedules.

    Returns
    -------
    (float, float)
        Updated stepsizes, each in (0, cap].  A side whose prox output and
        displacement both vanish is returned unchanged.

    Raises
    ------
    ValueError
        Naming t and s, unless t, s and t*s are finite and positive.
    """
    check_steps(t, s)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t_next = _one_side(t, x, p, config.relax_t(k), config.lo_t, config.hi_t, config.cap)
    s_next = _one_side(s, y, q, config.relax_s(k), config.lo_s, config.hi_s, config.cap)
    return float(t_next), float(s_next)


@dataclass(frozen=True)
class ConstantPolicy:
    """Fixed stepsizes; ``initial`` overrides whatever the solver was given."""

    t: float
    s: float

    def __post_init__(self):
        if not (0 < self.t < math.inf and 0 < self.s < math.inf):
            raise ValueError(
                f"stepsizes must be finite and positive, got {self.t}, {self.s}")

    def initial(self, t0: float, s0: float) -> tuple[float, float]:
        return self.t, self.s

    def update(self, t, s, x, p, y, q, k) -> tuple[float, float]:
        return self.t, self.s


@dataclass(frozen=True)
class TAdaptivePolicy:
    """Single shared adaptive stepsize: s tracks t, driven by the primal side."""

    config: AdaptiveConfig = field(default_factory=AdaptiveConfig)

    def initial(self, t0: float, s0: float) -> tuple[float, float]:
        t = min(t0, self.config.cap)
        return t, t

    def update(self, t, s, x, p, y, q, k) -> tuple[float, float]:
        cfg = self.config
        t_next = _one_side(t, np.asarray(x, dtype=float), p, cfg.relax_t(k),
                           cfg.lo_t, cfg.hi_t, cfg.cap)
        return float(t_next), float(t_next)


@dataclass(frozen=True)
class TsAdaptivePolicy:
    """Independently adapted primal and dual stepsizes."""

    config: AdaptiveConfig = field(default_factory=AdaptiveConfig)

    def initial(self, t0: float, s0: float) -> tuple[float, float]:
        return min(t0, self.config.cap), min(s0, self.config.cap)

    def update(self, t, s, x, p, y, q, k) -> tuple[float, float]:
        return adaptive_update(t, s, x, p, y, q, k, self.config)
