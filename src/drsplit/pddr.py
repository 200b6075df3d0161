"""Primal-dual Douglas-Rachford splitting with per-iteration stepsizes.

The solver alternates two proxes with a coupled linear correction step.  For
``min_x f(x) + g(Kx)`` each sweep evaluates

    x = prox_{t f}(p)
    y = prox_{s g*}(q)
    (u, v) = inverse of [[I, t K'], [-s K, I]] applied to (2x - p, 2y - q)
    p <- p + u - x
    q <- q + v - y

and the candidate solution is the shadow pair (x, y).  The proxes are plain
callables ``(point, step) -> array``, called as given.  The linear solve goes
through the Schur complement, and the coupling operator alone owns it: its
``schur(t*s)`` (see :class:`~drsplit.linalg.Coupling`) returns, for a
general K, a dense Cholesky-checked inverse that a solve applies as one
matrix-vector product, refined once when ill-conditioned
(:func:`~drsplit.linalg.spd_solve`), and for forward differences a
tridiagonal LDLᵀ (``dpttrf``/``dpttrs``), O(n).  The coupling keeps its last factor and
refactors whenever t*s changes in any bit, so a constant-stepsize run
factors exactly once and a sweep's output depends only on (p, q, t, s, K).
Nothing here holds factor state.

Divergence is detected in one place, :func:`solve`, on scalars: the step
residual, once per sweep, and the objective.  The sweep itself scans no
array for finiteness.  A non-finite prox output passes through the linear
solve into the new shadow points, so the step residual of that same sweep
is non-finite and ``solve`` raises :class:`IterationDiverged` with the
sweep's index and the state it started from.  Stepsizes are checked where
they enter, by one rule (:func:`~drsplit.linalg.check_steps`): t and s
must be finite and positive, and t*s finite.

The trace is columnar: each sweep appends its five scalars (k, objective,
t, s, residual) to one growable float64 buffer, which :class:`SolveTrace`
wraps as a read-only ``(N, 5)`` array when the loop ends: 40 bytes per
sweep plus the buffer's growth slack (at most 1/16).  No row object is built
during a solve; ``SolveTrace.rows`` builds them on demand.  The objective
column is filled once per block of sweeps: each sweep copies its x into a
row of a ``(B, primal_dim)`` block, and one call of the problem's objective
on the whole block fills B rows (:func:`objective_block_rows` gives B).
Blocks start at multiples of B from step 0 and are always evaluated at full
height, so a row's bits depend only on its x and its step, never on where
the solve stopped.  A non-finite objective is reported as
:class:`IterationDiverged` with its own sweep's index and start state, and
before any later error: ``solve`` keeps each pending sweep's (p, q) and
evaluates the pending rows before any exception leaves the loop.
"""

import array
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .linalg import Coupling, check_diagonal, check_steps, scaled_norm
from .ppa_core import IterationDiverged, PreconditionedResolvent

__all__ = [
    "DRState",
    "PdProblem",
    "SolveTrace",
    "StepOutput",
    "TraceRow",
    "block_resolvent",
    "coupling_block_resolvent",
    "dr_as_proximal_point",
    "initial_state",
    "objective_block_rows",
    "pd_dr_step",
    "preconditioned_dr_step",
    "solve",
    "stacked_prox_resolvent",
]


@dataclass(frozen=True, eq=False)
class PdProblem:
    """Problem data for ``min_x f(x) + g(Kx)``.

    ``f_prox(p, t)`` evaluates prox_{t f} and ``gstar_prox(q, s)`` prox_{s g*}
    (conjugate side), each a plain callable returning a float64 array shaped
    like its point; ``coupling`` is K with forward and adjoint application.
    ``objective(xs)`` evaluates the primal objective at a stack of
    candidates, an ``(N, primal_dim)`` float64 array with one x per row, and
    returns the N values as an array.
    """

    f_prox: Callable[[np.ndarray, float], np.ndarray]
    gstar_prox: Callable[[np.ndarray, float], np.ndarray]
    coupling: Coupling
    objective: Callable[[np.ndarray], np.ndarray]

    @property
    def primal_dim(self) -> int:
        return self.coupling.shape[1]

    @property
    def dual_dim(self) -> int:
        return self.coupling.shape[0]


@dataclass
class DRState:
    """Mutable iteration state: shadow points, stepsizes, step count."""

    p: np.ndarray
    q: np.ndarray
    t: float
    s: float
    k: int = 0


class StepOutput(NamedTuple):
    """The shadow pair of one sweep."""

    x: np.ndarray
    y: np.ndarray


class TraceRow(NamedTuple):
    k: int
    objective: float
    t: float
    s: float
    residual: float


class SolveTrace:
    """The per-sweep record of a solve, one row per sweep.

    The record is one read-only ``(N, 5)`` float64 array, ``data``, whose
    columns are the fields of :class:`TraceRow` in order (``k, objective,
    t, s, residual``, the trace CSV header), 40 bytes per sweep.
    ``len(trace)`` and ``column(name)``, a view of one column (``k`` as an
    int64 copy), are the cheap reads.  ``rows`` builds a new list of
    :class:`TraceRow` (int ``k``, Python floats, the stored bits) on every
    access, at about 2 µs per row, so code that runs per solve reads columns
    instead.

    The constructor takes any sequence of rows, the empty one included, or
    an ``(N, 5)`` float64 array, which the trace keeps without copying.
    """

    def __init__(self, rows):
        data = np.asarray(rows, dtype=float).view()
        if data.size == 0:
            data = data.reshape(0, len(TraceRow._fields))
        if data.ndim != 2 or data.shape[1] != len(TraceRow._fields):
            raise ValueError(f"trace rows have shape {data.shape}, "
                             f"expected (N, {len(TraceRow._fields)})")
        data.flags.writeable = False
        self.data = data

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> list[TraceRow]:
        return list(map(TraceRow, self.column("k").tolist(), *self.data[:, 1:].T.tolist()))

    def column(self, name: str) -> np.ndarray:
        col = self.data[:, TraceRow._fields.index(name)]
        return col.astype(np.int64) if name == "k" else col


# Bytes per solve for the rows of one objective block plus the shadow points
# kept for those rows' divergence report; see objective_block_rows.
OBJECTIVE_BLOCK_BYTES = 128 * 1024


def objective_block_rows(primal_dim: int, dual_dim: int) -> int:
    """Sweeps per objective evaluation in :func:`solve`, B.

    B rows of x plus the (p, q) each of them started from fit in
    ``OBJECTIVE_BLOCK_BYTES``, and B is at least 1: 40 for LAD 200x100, 10
    for TV at n = 500, 1 at n = 10**6.
    """
    return max(1, OBJECTIVE_BLOCK_BYTES // (8 * (2 * primal_dim + dual_dim)))


def initial_state(prob: PdProblem, t0: float, s0: float, p0=None, q0=None) -> DRState:
    """Fresh solver state; shadow points default to zero.

    Raises ``ValueError`` unless t0, s0 and t0*s0 are finite and positive,
    and the shadow points have the problem's shapes and finite entries.
    """
    check_steps(t0, s0, "starting stepsizes")
    p = np.zeros(prob.primal_dim) if p0 is None else np.asarray(p0, dtype=float).copy()
    q = np.zeros(prob.dual_dim) if q0 is None else np.asarray(q0, dtype=float).copy()
    if p.shape != (prob.primal_dim,) or q.shape != (prob.dual_dim,):
        raise ValueError(
            f"start shapes {p.shape}, {q.shape} do not match problem "
            f"({prob.primal_dim},), ({prob.dual_dim},)"
        )
    for name, start in (("p0", p), ("q0", q)):
        if not np.isfinite(start).all():
            raise ValueError(f"starting point {name} must be finite")
    return DRState(p=p, q=q, t=float(t0), s=float(s0))


def block_resolvent(r1, r2, t: float, s: float, coupling: Coupling):
    """Solve u + t K'v = r1, -s K u + v = r2 by Schur complement.

    The factorization acts on whichever side is smaller: I + t*s*K'K when the
    primal dimension is smaller or equal, I + t*s*KK' otherwise.  The
    coupling builds and applies it, for exactly this t*s (``coupling.schur``),
    so the result depends only on r1, r2, t, s and K.  Returns
    ``(u, v, schur)``, ``schur`` being the factored complement used.

    Raises ``ValueError`` naming t and s unless they pass
    :func:`~drsplit.linalg.check_steps`.
    """
    check_steps(t, s)
    a = np.asarray(r1, dtype=float)
    b = np.asarray(r2, dtype=float)
    rows, cols = coupling.shape
    if a.shape != (cols,) or b.shape != (rows,):
        raise ValueError(
            f"dimension mismatch: rhs shapes {a.shape}, {b.shape} vs operator {coupling.shape}"
        )
    schur = coupling.schur(t * s)
    if rows < cols:
        v = schur.solve(b + s * coupling.matvec(a))
        u = a - t * coupling.rmatvec(v)
    else:
        u = schur.solve(a - t * coupling.rmatvec(b))
        v = b + s * coupling.matvec(u)
    return u, v, schur


def pd_dr_step(state: DRState, prob: PdProblem) -> tuple[DRState, StepOutput]:
    """One primal-dual sweep; advances ``state`` in place and returns it with
    the shadow pair.

    ``state.p`` and ``state.q`` are rebound to new arrays, never written
    into, so arrays a caller took from the state before the sweep keep the
    values they had.

    Nothing here checks for finiteness.  A non-finite prox output passes
    through the linear solve into the new shadow points; :func:`solve`
    detects it from the step residual of the same sweep.
    """
    p, q, t, s = state.p, state.q, state.t, state.s
    x = prob.f_prox(p, t)
    y = prob.gstar_prox(q, s)
    u, v, _ = block_resolvent(2.0 * x - p, 2.0 * y - q, t, s, prob.coupling)
    state.p = p + u - x
    state.q = q + v - y
    state.k += 1
    return state, StepOutput(x, y)


def preconditioned_dr_step(w, delta_diag, resolvent_a, resolvent_b) -> np.ndarray:
    """One Douglas-Rachford sweep on the governing vector w.

    ``resolvent_a`` and ``resolvent_b`` are callables ``(vec, delta_diag) ->
    vec`` evaluating the resolvents of the two operator halves scaled by the
    diagonal preconditioner.  Returns

        w + resolvent_b(2 a - w) - a,    a = resolvent_a(w).

    Raises ``ValueError`` unless ``delta_diag`` is a vector as long as w
    whose entries are finite and positive.
    """
    wv = np.asarray(w, dtype=float)
    dd = check_diagonal(delta_diag, wv.size, "preconditioner diagonal")
    a = np.asarray(resolvent_a(wv, dd), dtype=float)
    return wv + np.asarray(resolvent_b(2.0 * a - wv, dd), dtype=float) - a


def _block_steps(dd: np.ndarray, n: int) -> tuple[float, float]:
    t, s = float(dd[0]), float(dd[n])
    if np.any(dd[:n] != t) or np.any(dd[n:] != s):
        raise ValueError("preconditioner must be constant on each block")
    return t, s


def stacked_prox_resolvent(prob: PdProblem):
    """Resolvent of the decoupled prox pair on the stacked (primal, dual) space."""
    n = prob.primal_dim

    def apply(w, dd):
        t, s = _block_steps(np.asarray(dd, dtype=float), n)
        return np.concatenate([prob.f_prox(w[:n], t), prob.gstar_prox(w[n:], s)])

    return apply


def coupling_block_resolvent(prob: PdProblem):
    """Resolvent of the skew coupling block."""
    n = prob.primal_dim

    def apply(w, dd):
        t, s = _block_steps(np.asarray(dd, dtype=float), n)
        u, v, _ = block_resolvent(w[:n], w[n:], t, s, prob.coupling)
        return np.concatenate([u, v])

    return apply


def dr_as_proximal_point(prob: PdProblem,
                         stepsizes: Callable[[int], tuple[float, float]]
                         ) -> PreconditionedResolvent:
    """Express the splitting as a preconditioned proximal point resolvent.

    The iterate lives on the doubled space (h1, h2): h1 is the candidate
    primal-dual pair and h2 the auxiliary variable of the embedding.  The
    step-k metric is the rank-deficient block matrix
    [[D^{-1}, -I], [-I, D]] with D = diag(t_k on the primal block, s_k on the
    dual block); its seminorm of the step difference is the quantity driven
    to zero.
    """
    n, m = prob.primal_dim, prob.dual_dim
    dim = n + m
    res_a = stacked_prox_resolvent(prob)
    res_b = coupling_block_resolvent(prob)

    def _diag(k: int) -> np.ndarray:
        t, s = stepsizes(k)
        check_steps(t, s, f"stepsizes at step {k}")
        return np.concatenate([np.full(n, float(t)), np.full(m, float(s))])

    def apply(u, k):
        dd = _diag(k)
        h1, h2 = u[:dim], u[dim:]
        w = h1 - dd * h2
        a = res_a(w, dd)
        z = 2.0 * a - w
        return np.concatenate([a, (z - res_b(z, dd)) / dd])

    def metric(k):
        dd = _diag(k)
        eye = np.eye(dim)
        return np.block([[np.diag(1.0 / dd), -eye], [-eye, np.diag(dd)]])

    return PreconditionedResolvent(apply=apply, metric=metric)


def solve(prob: PdProblem, policy, *, max_iter: int, tol: float,
          t0: float = 1.0, s0: float = 1.0, p0=None, q0=None
          ) -> tuple[np.ndarray, np.ndarray, SolveTrace]:
    """Run the splitting under a stepsize policy.

    Parameters
    ----------
    prob : PdProblem
        Problem data.
    policy : stepsize policy
        Object with ``initial(t0, s0)`` and
        ``update(t, s, x, p, y, q, k) -> (t, s)``, and optionally
        ``frozen_from``, the first step from which ``update`` is the identity
        bit for bit; ``update`` is called for steps ``k < frozen_from`` only,
        or for every step if the attribute is missing or None.  See
        :mod:`drsplit.adaptive`.
    max_iter : int
        Iteration budget.
    tol : float
        If positive, stop when
        ``||(p+, q+) - (p, q)|| / max(1, ||(p, q)||) <= tol``.  Pass 0.0 to
        always run the full budget.
    t0, s0 : float
        Starting stepsizes (policies may override via ``initial``).
    p0, q0 : array_like, optional
        Starting shadow points, zero by default.

    Returns
    -------
    (x, y, SolveTrace)
        Last shadow pair and the per-iteration trace.  Row k records the
        objective at x_k and the stepsizes used by step k.  The objective
        is called once per block of B sweeps (:func:`objective_block_rows`)
        on a full ``(B, primal_dim)`` stack; rows past the sweeps run so
        far hold earlier candidates or zeros, and their values are
        ignored.

    Raises
    ------
    IterationDiverged
        On a non-finite step residual or objective; carries the step index
        and the last finite state (the one the diverging sweep started
        from).  The residual is checked every sweep, the objective when its
        block is evaluated, and always before any exception leaves the
        loop, so the earliest non-finite objective is the one reported.
    ValueError
        If ``max_iter`` is below 1, ``tol`` is not finite and nonnegative,
        ``p0`` or ``q0`` has the wrong shape or a non-finite entry, or
        ``t0``, ``s0``, the policy's initial stepsizes or any stepsizes its
        ``update`` returns are not finite and positive with a finite product
        t*s; or if the objective does not return one value per row.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    check_steps(t0, s0, "starting stepsizes")
    state = initial_state(prob, *policy.initial(t0, s0), p0=p0, q0=q0)
    t, s = state.t, state.s
    frozen_from = getattr(policy, "frozen_from", None)
    update_until = max_iter if frozen_from is None else frozen_from
    # Five float64s per sweep, wrapped in the trace's array once at the end.
    # The objective field is written when its sweep's block is evaluated.
    record = array.array("d")
    height = objective_block_rows(prob.primal_dim, prob.dual_dim)
    block = np.zeros((height, prob.primal_dim))
    # The (p, q) each sweep of the unevaluated rows started from, in order.
    starts = []

    def fill_objectives():
        if not starts:
            return
        count = len(starts)
        first = len(record) // 5 - count
        values = np.asarray(prob.objective(block), dtype=float)
        if values.shape != (height,):
            raise ValueError(f"objective returned shape {values.shape} for "
                             f"{height} candidates, expected ({height},)")
        values = values[:count]
        finite = np.isfinite(values)
        if not finite.all():
            j = int(finite.argmin())
            p, q = starts[j]
            k = first + j
            raise IterationDiverged(k, state=DRState(
                p=p, q=q, t=record[5 * k + 2], s=record[5 * k + 3], k=k))
        record[5 * first + 1::5] = array.array("d", values.tobytes())
        starts.clear()

    out = None
    for k in range(max_iter):
        try:
            p, q = state.p, state.q
            prev_norm = scaled_norm(p, q)
            state, out = pd_dr_step(state, prob)
            step_norm = scaled_norm(state.p - p, state.q - q)
            residual = step_norm / max(1.0, prev_norm)
            # The sweep's divergence check.  p and q are finite, so any
            # non-finite entry of x, y, u or v makes the residual non-finite.
            if not math.isfinite(residual):
                raise IterationDiverged(
                    k, state=DRState(p=p, q=q, t=t, s=s, k=k))
            block[len(starts)] = out.x
            starts.append((p, q))
            record.extend((k, 0.0, t, s, residual))
            if k < update_until:
                t, s = policy.update(t, s, out.x, p, out.y, q, k)
                # This check keeps a stepsize that would poison the
                # factorization out of the next sweep.
                check_steps(t, s, f"the stepsizes the policy returned at step {k}")
                state.t, state.s = t, s
        except Exception:
            # A non-finite objective of an earlier sweep is reported first.
            fill_objectives()
            raise
        if len(starts) == height:
            fill_objectives()
        if 0.0 < tol and residual <= tol:
            break
    fill_objectives()
    return out.x, out.y, SolveTrace(np.frombuffer(record).reshape(-1, 5))
