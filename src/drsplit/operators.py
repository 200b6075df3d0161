"""Closed-form proximal maps and the generalized Moreau identity.

Every prox here is firmly nonexpansive in the Euclidean metric for any fixed
nonnegative stepsize, and evaluating at stepsize zero returns the input (the
continuous limit).  Stepsizes are passed per call so an adaptive controller
can change them between iterations without rebuilding operator objects.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ProxMap",
    "box_dual_prox",
    "moreau_dual_resolvent",
    "prox_box_dual",
    "prox_l1",
    "prox_quadratic_fidelity",
    "prox_shifted_l1_conj",
    "quadratic_fidelity_prox",
    "scaled_l1_prox",
    "shifted_l1_conjugate_prox",
]


@dataclass(frozen=True, eq=False)
class ProxMap:
    """Single-valued resolvent evaluator taking the stepsize per call.

    ``fn(v, step)`` must return an array of the same shape as ``v`` and be
    firmly nonexpansive at every fixed ``step >= 0``.
    """

    fn: Callable[[np.ndarray, float], np.ndarray]
    tag: str = ""

    def __call__(self, v, step: float) -> np.ndarray:
        return np.asarray(self.fn(v, step), dtype=float)


def prox_l1(x, tau: float) -> np.ndarray:
    """Soft threshold: prox of tau * ||.||_1 at x."""
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    v = np.asarray(x, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def prox_shifted_l1_conj(y, step: float, shift) -> np.ndarray:
    """Prox of s * g" at y where g" is the conjugate of g(u) = ||u - shift||_1.

    Evaluates to the componentwise clamp of ``y - step * shift`` to [-1, 1].
    """
    if step < 0:
        raise ValueError(f"stepsize must be nonnegative, got {step}")
    v = np.asarray(y, dtype=float)
    b = np.asarray(shift, dtype=float)
    if v.shape != b.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs shift {b.shape}")
    z = v - step * b
    return np.clip(z, -1.0, 1.0)


def prox_quadratic_fidelity(p, step: float, data) -> np.ndarray:
    """Prox of 0.5 * ||. - data||^2 at p with stepsize ``step``."""
    if step < 0:
        raise ValueError(f"stepsize must be nonnegative, got {step}")
    v = np.asarray(p, dtype=float)
    d = np.asarray(data, dtype=float)
    if v.shape != d.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs data {d.shape}")
    return (v + step * d) / (1.0 + step)


def prox_box_dual(q, bound: float) -> np.ndarray:
    """Componentwise clamp of q to [-bound, bound].

    This is the prox of the conjugate of ``bound * ||.||_1`` at any positive
    stepsize; the stepsize drops out, so none is taken.
    """
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    return np.clip(np.asarray(q, dtype=float), -bound, bound)


def moreau_dual_resolvent(x, sigma_diag, primal_resolvent) -> np.ndarray:
    """Resolvent of Sigma * T^{-1} via the generalized Moreau decomposition.

    Parameters
    ----------
    x : array_like
        Evaluation point.
    sigma_diag : array_like
        Positive diagonal of the scaling Sigma.
    primal_resolvent : callable
        Evaluates the resolvent of Sigma^{-1} * T, i.e. ``v -> (I + Sigma^{-1} T)^{-1} v``.

    Returns
    -------
    ndarray
        ``x - Sigma * primal_resolvent(Sigma^{-1} x)``.
    """
    v = np.asarray(x, dtype=float)
    sig = np.asarray(sigma_diag, dtype=float)
    if sig.shape != v.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs scaling {sig.shape}")
    if np.any(sig <= 0):
        raise ValueError("scaling diagonal must be positive")
    return v - sig * np.asarray(primal_resolvent(v / sig), dtype=float)


# -- ProxMap factories wired by the experiment generators ------------------


def scaled_l1_prox(weight: float) -> ProxMap:
    """Prox map of f = weight * ||.||_1; the call stepsize multiplies weight."""
    if weight <= 0:
        raise ValueError(f"weight must be positive, got {weight}")
    return ProxMap(lambda v, step: prox_l1(v, step * weight), tag="l1")


def shifted_l1_conjugate_prox(shift) -> ProxMap:
    """Prox map of the conjugate of g(u) = ||u - shift||_1."""
    b = np.asarray(shift, dtype=float)
    return ProxMap(lambda v, step: prox_shifted_l1_conj(v, step, b), tag="l1-shift-conj")


def quadratic_fidelity_prox(data) -> ProxMap:
    """Prox map of f = 0.5 * ||. - data||^2."""
    d = np.asarray(data, dtype=float)
    return ProxMap(lambda v, step: prox_quadratic_fidelity(v, step, d), tag="quad-fidelity")


def box_dual_prox(bound: float) -> ProxMap:
    """Prox map of the conjugate of bound * ||.||_1 (stepsize-independent)."""
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    return ProxMap(lambda v, step: prox_box_dual(v, bound), tag="box-dual")
