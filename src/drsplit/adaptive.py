"""Adaptive stepsize control for the splitting solver.

Each stepsize is nudged toward the ratio ``||x|| / ||p - x||`` observed at
the current iterate (p - x is, up to the stepsize, a subgradient at x, so
the ratio estimates the locally best stepsize).  The raw ratio is clamped to
a safeguard interval, blended with 1 through a decaying relaxation weight,
and the resulting multiplicative update is capped:

    t_next = min(((1 - w_k) + w_k * clamp(ratio)) * t, cap)

Both stepsizes use the halving relaxation w_k = 2**-k
(:func:`default_relaxation`).  Its weights are summable, so the stepsize
sequence converges, and from a step that depends only on the upper
safeguards the update is the identity, bit for bit: once w_k is at most
2**-54 and 2**-53 / hi, the multiplier rounds to exactly 1.0 for every
clamped ratio (k = 67 for the default hi = 1e4).  The metric is constant from there
on, so the iteration is a fixed-metric degenerate proximal point method.

A policy is any object with ``initial(t0, s0) -> (t, s)`` and
``update(t, s, x, p, y, q, k) -> (t, s)``; a different relaxation is a
different policy.  A policy may also carry a read-only ``frozen_from``: the
first step k from which ``update`` returns its (t, s) unchanged, bit for
bit, for every input reachable from ``initial``; or ``None`` if it cannot
tell.  :func:`drsplit.pddr.solve` stops calling ``update`` at that step.
The adaptive policies report the halving freeze step of their upper
safeguards; ``ConstantPolicy`` reports 0.
"""

import math
from dataclasses import dataclass, field

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


def _halving_freeze_step(hi: float) -> int:
    """First step from which the halving-relaxed update is the identity.

    The smallest k >= 54 with 2**-k * hi <= 2**-53, exactly, or 1075 if
    that is earlier: there 2**-k underflows to 0.0 whatever hi is.  From
    that step on w = 2**-k makes ``1 - w`` round to 1.0 (a tie at k = 54,
    broken to even) and ``w * c`` at most 2**-53 for every clamped ratio
    c <= hi, so ``1.0 + w * c`` rounds to 1.0 too, and the capped product
    returns any stepsize at or below the cap unchanged.  ``hi`` must be
    finite and positive.
    """
    mantissa, exponent = math.frexp(hi)
    # hi = mantissa * 2**exponent with 0.5 <= mantissa < 1, so the least
    # power of two at or above hi is 2**(exponent - 1) if mantissa == 0.5,
    # else 2**exponent.
    return min(max(54, 53 + exponent - (mantissa == 0.5)), 1075)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Safeguards and the hard cap.

    ``lo_*``/``hi_*`` bound the raw stepsize ratio before blending, one pair
    per stepsize; ``cap`` bounds the stepsizes themselves after the update.
    The blending weight is always :func:`default_relaxation`.
    """

    lo_t: float = 1e-4
    hi_t: float = 1e4
    lo_s: float = 1e-4
    hi_s: float = 1e4
    cap: float = 1e4

    def __post_init__(self):
        if not 0 < self.lo_t < self.hi_t < math.inf:
            raise ValueError(f"need 0 < lo_t < hi_t < inf, got {self.lo_t}, {self.hi_t}")
        if not 0 < self.lo_s < self.hi_s < math.inf:
            raise ValueError(f"need 0 < lo_s < hi_s < inf, got {self.lo_s}, {self.hi_s}")
        if not 0 < self.cap < math.inf:
            raise ValueError(f"cap must be finite and positive, got {self.cap}")


def _one_side(step: float, point, shadow, weight: float, lo: float, hi: float,
              cap: float) -> float:
    """Update one stepsize from its prox output ``point`` (a float ndarray)
    and shadow input."""
    num = scaled_norm(point)
    den = scaled_norm(shadow - point)
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
        Iteration index feeding the relaxation weight.

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
    w = default_relaxation(k)
    t_next = _one_side(t, x, p, w, config.lo_t, config.hi_t, config.cap)
    s_next = _one_side(s, y, q, w, config.lo_s, config.hi_s, config.cap)
    return float(t_next), float(s_next)


@dataclass(frozen=True)
class ConstantPolicy:
    """Fixed stepsizes; ``initial`` overrides whatever the solver was given.

    Both are stored as Python floats, so every trace row carries floats.
    """

    t: float
    s: float

    # update returns what initial did from the start.
    frozen_from = 0

    def __post_init__(self):
        check_steps(self.t, self.s)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "s", float(self.s))

    def initial(self, t0: float, s0: float) -> tuple[float, float]:
        return self.t, self.s

    def update(self, t, s, x, p, y, q, k) -> tuple[float, float]:
        return self.t, self.s


@dataclass(frozen=True)
class TAdaptivePolicy:
    """Single shared adaptive stepsize: s tracks t, driven by the primal side."""

    config: AdaptiveConfig = field(default_factory=AdaptiveConfig)

    @property
    def frozen_from(self) -> int:
        """:func:`_halving_freeze_step` of ``hi_t`` (s follows t, so
        ``hi_s`` plays no part)."""
        return _halving_freeze_step(self.config.hi_t)

    def initial(self, t0: float, s0: float) -> tuple[float, float]:
        t = min(t0, self.config.cap)
        return t, t

    def update(self, t, s, x, p, y, q, k) -> tuple[float, float]:
        cfg = self.config
        t_next = _one_side(t, np.asarray(x, dtype=float), p, default_relaxation(k),
                           cfg.lo_t, cfg.hi_t, cfg.cap)
        return float(t_next), float(t_next)


@dataclass(frozen=True)
class TsAdaptivePolicy:
    """Independently adapted primal and dual stepsizes."""

    config: AdaptiveConfig = field(default_factory=AdaptiveConfig)

    @property
    def frozen_from(self) -> int:
        """The later :func:`_halving_freeze_step` of the two sides."""
        cfg = self.config
        return max(_halving_freeze_step(cfg.hi_t), _halving_freeze_step(cfg.hi_s))

    def initial(self, t0: float, s0: float) -> tuple[float, float]:
        return min(t0, self.config.cap), min(s0, self.config.cap)

    def update(self, t, s, x, p, y, q, k) -> tuple[float, float]:
        return adaptive_update(t, s, x, p, y, q, k, self.config)
