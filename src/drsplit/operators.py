"""Closed-form proximal maps and the generalized Moreau identity.

Every prox here is firmly nonexpansive in the Euclidean metric for any fixed
finite nonnegative stepsize, and evaluating at stepsize zero returns the
input (the continuous limit).  Stepsizes are passed per call so an adaptive
controller can change them between iterations without rebuilding operator
objects.

A factory (``scaled_l1_prox`` and the rest) fixes a prox's weight, shift,
data or bound and returns it as a plain callable ``prox(v, step) -> array``,
the form :class:`drsplit.pddr.PdProblem` takes for f and g*.
"""

import math
from typing import Callable

import numpy as np

from .linalg import check_diagonal

__all__ = [
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


# Each prox has one arithmetic kernel.  The public ``prox_*`` function
# validates its arguments and calls it.  The callable a factory returns
# checks only the stepsize: the factory checked its weight or bound, and the
# solver passes float64 points of the right shape, for which every kernel
# returns a float64 array.


def _soft_threshold(v, tau):
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


# The clamps compute what np.clip does, bit for bit, NaN and signed zeros
# included, without its Python-level dispatch on every sweep.
def _clamp(z, bound):
    return np.minimum(np.maximum(z, -bound), bound)


def _shifted_l1_conj(v, step, b):
    return np.minimum(np.maximum(v - step * b, -1.0), 1.0)


def _quadratic_fidelity(v, step, d):
    return (v + step * d) / (1.0 + step)


def _check_step(step) -> None:
    # Written so that a NaN stepsize fails too.
    if not 0 <= step < math.inf:
        raise ValueError(f"stepsize must be finite and nonnegative, got {step}")


def _same_shape(v, other, what: str) -> None:
    if v.shape != other.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {what} {other.shape}")


def prox_l1(x, tau: float) -> np.ndarray:
    """Soft threshold: prox of tau * ||.||_1 at x."""
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    return _soft_threshold(np.asarray(x, dtype=float), tau)


def prox_shifted_l1_conj(y, step: float, shift) -> np.ndarray:
    """Prox of s * g" at y where g" is the conjugate of g(u) = ||u - shift||_1.

    Evaluates to the componentwise clamp of ``y - step * shift`` to [-1, 1].
    """
    _check_step(step)
    v = np.asarray(y, dtype=float)
    b = np.asarray(shift, dtype=float)
    _same_shape(v, b, "shift")
    return _shifted_l1_conj(v, step, b)


def prox_quadratic_fidelity(p, step: float, data) -> np.ndarray:
    """Prox of 0.5 * ||. - data||^2 at p with stepsize ``step``."""
    _check_step(step)
    v = np.asarray(p, dtype=float)
    d = np.asarray(data, dtype=float)
    _same_shape(v, d, "data")
    return _quadratic_fidelity(v, step, d)


def prox_box_dual(q, bound: float) -> np.ndarray:
    """Componentwise clamp of q to [-bound, bound].

    This is the prox of the conjugate of ``bound * ||.||_1`` at any positive
    stepsize; the stepsize drops out, so none is taken.
    """
    if not bound > 0:
        raise ValueError(f"bound must be positive, got {bound}")
    return _clamp(np.asarray(q, dtype=float), bound)


def moreau_dual_resolvent(x, sigma_diag, primal_resolvent) -> np.ndarray:
    """Resolvent of Sigma * T^{-1} via the generalized Moreau decomposition.

    Parameters
    ----------
    x : array_like
        Evaluation point.
    sigma_diag : array_like
        Diagonal of the scaling Sigma, as long as ``x``, finite and positive.
    primal_resolvent : callable
        Evaluates the resolvent of Sigma^{-1} * T, i.e. ``v -> (I + Sigma^{-1} T)^{-1} v``.

    Returns
    -------
    ndarray
        ``x - Sigma * primal_resolvent(Sigma^{-1} x)``.
    """
    v = np.asarray(x, dtype=float)
    sig = check_diagonal(sigma_diag, v.size, "scaling diagonal")
    return v - sig * np.asarray(primal_resolvent(v / sig), dtype=float)


# -- Prox factories wired by the experiment generators ---------------------


def scaled_l1_prox(weight: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """Prox map of f = weight * ||.||_1; the call stepsize multiplies weight."""
    if not 0 < weight < math.inf:
        raise ValueError(f"weight must be finite and positive, got {weight}")

    def prox(v, step):
        _check_step(step)
        return _soft_threshold(v, step * weight)

    return prox


def shifted_l1_conjugate_prox(shift) -> Callable[[np.ndarray, float], np.ndarray]:
    """Prox map of the conjugate of g(u) = ||u - shift||_1."""
    b = np.asarray(shift, dtype=float)

    def prox(v, step):
        _check_step(step)
        return _shifted_l1_conj(v, step, b)

    return prox


def quadratic_fidelity_prox(data) -> Callable[[np.ndarray, float], np.ndarray]:
    """Prox map of f = 0.5 * ||. - data||^2."""
    d = np.asarray(data, dtype=float)

    def prox(v, step):
        _check_step(step)
        return _quadratic_fidelity(v, step, d)

    return prox


def box_dual_prox(bound: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """Prox map of the conjugate of bound * ||.||_1 (stepsize-independent)."""
    if not 0 < bound < math.inf:
        raise ValueError(f"bound must be finite and positive, got {bound}")
    return lambda v, step: _clamp(v, bound)
