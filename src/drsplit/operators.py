"""Closed-form proximal maps and the generalized Moreau identity.

Every prox here is firmly nonexpansive in the Euclidean metric for any fixed
finite nonnegative stepsize, and evaluating at stepsize zero returns the
input (the continuous limit).  Stepsizes are passed per call so an adaptive
controller can change them between iterations without rebuilding operator
objects.

Each prox is built by a factory (``scaled_l1_prox`` and the rest) that
checks and fixes its weight, shift, data or bound and returns a plain
callable ``prox(v, step) -> array``, the form :class:`drsplit.pddr.PdProblem`
takes for f and g*.  The callable takes a float64 array ``v`` and returns
one shaped like it.  Every prox that reads its stepsize rejects a NaN,
infinite or negative one, and the shift and data proxes reject a ``v`` whose
shape differs from their shift or data.
"""

import math
from typing import Callable

import numpy as np

from .linalg import check_diagonal

__all__ = [
    "box_dual_prox",
    "moreau_dual_resolvent",
    "quadratic_fidelity_prox",
    "scaled_l1_prox",
    "shifted_l1_conjugate_prox",
]


def _check_step(step) -> None:
    # Written so that a NaN stepsize fails too.
    if not 0 <= step < math.inf:
        raise ValueError(f"stepsize must be finite and nonnegative, got {step}")


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


def scaled_l1_prox(weight: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """Prox map of f = weight * ||.||_1, a soft threshold; the call stepsize
    multiplies weight."""
    if not 0 < weight < math.inf:
        raise ValueError(f"weight must be finite and positive, got {weight}")

    def prox(v, step):
        _check_step(step)
        return np.sign(v) * np.maximum(np.abs(v) - step * weight, 0.0)

    return prox


# The clamps here and in box_dual_prox compute what np.clip does, bit for bit,
# NaN and signed zeros included, without its Python-level dispatch on every
# sweep.
def shifted_l1_conjugate_prox(shift) -> Callable[[np.ndarray, float], np.ndarray]:
    """Prox map of the conjugate of g(u) = ||u - shift||_1: the componentwise
    clamp of ``v - step * shift`` to [-1, 1]."""
    b = np.asarray(shift, dtype=float)

    def prox(v, step):
        _check_step(step)
        if v.shape != b.shape:
            raise ValueError(f"shape mismatch: {v.shape} vs shift {b.shape}")
        return np.minimum(np.maximum(v - step * b, -1.0), 1.0)

    return prox


def quadratic_fidelity_prox(data) -> Callable[[np.ndarray, float], np.ndarray]:
    """Prox map of f = 0.5 * ||. - data||^2."""
    d = np.asarray(data, dtype=float)

    def prox(v, step):
        _check_step(step)
        if v.shape != d.shape:
            raise ValueError(f"shape mismatch: {v.shape} vs data {d.shape}")
        return (v + step * d) / (1.0 + step)

    return prox


def box_dual_prox(bound: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """Prox map of the conjugate of bound * ||.||_1: the componentwise clamp
    to [-bound, bound] at any stepsize, so the stepsize drops out."""
    if not 0 < bound < math.inf:
        raise ValueError(f"bound must be finite and positive, got {bound}")
    return lambda v, step: np.minimum(np.maximum(v, -bound), bound)
