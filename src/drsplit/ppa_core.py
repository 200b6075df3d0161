"""Preconditioned proximal point engine with per-step metrics.

The iteration is ``u_{k+1} = J(u_k, k)`` where J is the resolvent of a
monotone operator taken in the step-k metric M_k.  M_k may be rank
deficient; progress is measured in the M_k seminorm, which is exactly the
quantity that vanishes along the iteration.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import linalg

__all__ = [
    "IterationDiverged",
    "PPARecord",
    "PPATrace",
    "PreconditionedResolvent",
    "proximal_point",
]


class IterationDiverged(RuntimeError):
    """An iterate went non-finite; carries the step index and last finite state."""

    def __init__(self, step: int, state=None):
        super().__init__(f"non-finite iterate at step {step}")
        self.step = step
        self.state = state


@dataclass(frozen=True, eq=False)
class PreconditionedResolvent:
    """Pair of callables defining one preconditioned resolvent sweep.

    ``apply(u, k)`` evaluates the step-k resolvent (single valued, full
    domain); ``metric(k)`` returns the symmetric PSD matrix inducing the
    step-k seminorm.
    """

    apply: Callable[[np.ndarray, int], np.ndarray]
    metric: Callable[[int], np.ndarray]


class PPARecord(NamedTuple):
    k: int
    m_residual: float
    euclidean_step: float


@dataclass
class PPATrace:
    rows: list[PPARecord] = field(default_factory=list)

    def m_residuals(self) -> np.ndarray:
        return np.array([r.m_residual for r in self.rows])

    def euclidean_steps(self) -> np.ndarray:
        return np.array([r.euclidean_step for r in self.rows])


def proximal_point(u0, resolvent: PreconditionedResolvent, max_iter: int,
                   tol: float) -> tuple[np.ndarray, PPATrace]:
    """Run the preconditioned proximal point iteration.

    Parameters
    ----------
    u0 : array_like
        Starting point.
    resolvent : PreconditionedResolvent
        Step map and metric provider.
    max_iter : int
        Iteration budget (at least 1).
    tol : float
        Finite, positive stopping threshold on the metric residual
        ``||u_{k+1} - u_k||_{M_k}``.

    Returns
    -------
    (ndarray, PPATrace)
        Final iterate and the per-step residual trace.

    Raises
    ------
    IterationDiverged
        If an iterate contains NaN or Inf; the error carries the step index
        and the last finite iterate.
    ValueError
        If ``max_iter`` is below 1, ``tol`` is not finite and positive, or
        a metric is not positive semidefinite.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    u = np.asarray(u0, dtype=float).copy()
    rows: list[PPARecord] = []
    for k in range(max_iter):
        u_next = np.asarray(resolvent.apply(u, k), dtype=float)
        if not np.all(np.isfinite(u_next)):
            raise IterationDiverged(k, state=u)
        diff = u_next - u
        m_res = linalg.seminorm(diff, resolvent.metric(k))
        rows.append(PPARecord(k, float(m_res), float(np.linalg.norm(diff))))
        u = u_next
        if m_res <= tol:
            break
    return u, PPATrace(rows)
