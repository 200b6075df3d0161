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
general K, a dense inverse that a solve applies as one matrix-vector
product, refined once when ill-conditioned
(:func:`~drsplit.linalg.spd_solve`), and for forward differences a
tridiagonal LDLᵀ (``dpttrf``/``dpttrs``), O(n).  The dense inverse is one
matrix product per t*s with the eigendecomposition of the Gram matrix,
which the operator computes once (:func:`~drsplit.linalg.spd_factor`), so
an adaptive warm-up that moves t*s on every sweep pays one product per
move, not a factorization.  The coupling keeps its last factor and
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

:func:`solve_many` runs several policies on one problem.  With several, it
advances the runs in lockstep on ``(B, d)`` stacks of shadow points, one
stacked call of each prox and coupling product per sweep, while each run
keeps its own Schur factor, trace, objective blocks, divergence check, tol
stop and policy updates; every run is bitwise what its own :func:`solve`
returns.

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

from .linalg import Coupling, check_diagonal, check_steps, scaled_norm, scaled_norm_rows
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
    "solve_many",
    "stacked_prox_resolvent",
]


@dataclass(frozen=True, eq=False)
class PdProblem:
    """Problem data for ``min_x f(x) + g(Kx)``.

    ``f_prox(p, t)`` evaluates prox_{t f} and ``gstar_prox(q, s)`` prox_{s g*}
    (conjugate side), each a plain callable returning a float64 array shaped
    like its point; ``coupling`` is K with forward and adjoint application.
    :func:`solve` passes each prox one point and a float step.
    :func:`solve_many` with several policies passes a ``(B, d)`` stack of
    points, one per run, with a ``(B, 1)`` step column, and the coupling's
    ``matvec`` and ``rmatvec`` ``(B, d)`` stacks; row i of each result must
    be what the call on row i alone returns.
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


def _check_settings(max_iter: int, tol: float, t0: float, s0: float) -> None:
    """The settings :func:`solve` and :func:`solve_many` check before any run."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    check_steps(t0, s0, "starting stepsizes")


def _block_values(objective, block: np.ndarray, rows: int) -> tuple[np.ndarray, int]:
    """The objective at a full block of candidates: its first ``rows``
    values, and the index of the first non-finite one among them, or -1.

    Raises ``ValueError`` unless the objective returns one value per row.
    """
    height = block.shape[0]
    values = np.asarray(objective(block), dtype=float)
    if values.shape != (height,):
        raise ValueError(f"objective returned shape {values.shape} for "
                         f"{height} candidates, expected ({height},)")
    values = values[:rows]
    finite = np.isfinite(values)
    return values, -1 if finite.all() else int(finite.argmin())


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
    _check_settings(max_iter, tol, t0, s0)
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
        values, j = _block_values(prob.objective, block, count)
        if j >= 0:
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


# Rows of a lockstep record allocated at first; it doubles as the runs go on,
# up to max_iter, so a large budget with an early tol stop reserves no more.
_RECORD_ROWS = 1024


class _Run:
    """One policy's run in :func:`solve_many`'s lockstep: its position in
    the policy list, its stepsizes as the policy returned them, the step
    from which its updates stop, and its factored Schur complement (None
    until fetched for the current t*s)."""

    __slots__ = ("index", "policy", "t", "s", "update_until", "schur")

    def __init__(self, index, policy, t, s, update_until):
        self.index, self.policy, self.t, self.s = index, policy, t, s
        self.update_until = update_until
        self.schur = None


def solve_many(prob: PdProblem, policies, *, max_iter: int, tol: float,
               t0: float = 1.0, s0: float = 1.0
               ) -> list[tuple[np.ndarray, np.ndarray, SolveTrace]]:
    """Run :func:`solve` once per policy, from identical zero starts.

    Returns one ``(x, y, trace)`` per policy, in order, each bitwise what
    ``solve(prob, policy, max_iter=max_iter, tol=tol, t0=t0, s0=s0)``
    returns.  One policy is one call of :func:`solve`.  Several advance in
    lockstep: the shadow points of every run form ``(B, primal_dim)`` and
    ``(B, dual_dim)`` stacks with ``(B, 1)`` step columns, and each sweep
    makes one stacked call of each prox, of ``coupling.matvec`` and of
    ``coupling.rmatvec``, so the per-call cost is paid once for all runs.
    Each run keeps what is its own: its Schur complement (fetched with
    ``coupling.schur`` only when its t*s changes, and solved row by row),
    its trace, its objective blocks, its divergence check, its tol stop and
    its policy updates up to its ``frozen_from``.  The problem's proxes and
    coupling must take stacks (see :class:`PdProblem`); policies are called
    interleaved, so one policy object with state of its own must not be
    listed twice.

    Failures are raised as a loop of :func:`solve` calls raises them: the
    first run in policy order that fails raises its exception, with the same
    step and start state, after every run before it has finished.  An
    exception from a stacked prox or product belongs to no single run and
    propagates as raised.
    """
    policies = list(policies)
    if len(policies) < 2:
        return [solve(prob, policy, max_iter=max_iter, tol=tol, t0=t0, s0=s0)
                for policy in policies]
    _check_settings(max_iter, tol, t0, s0)
    results = [None] * len(policies)
    # The earliest failed run's index and exception; runs from that index on
    # are no longer advanced.
    limit, failure = len(policies), None
    live = []
    for index, policy in enumerate(policies):
        try:
            state = initial_state(prob, *policy.initial(t0, s0))
            frozen_from = getattr(policy, "frozen_from", None)
        except Exception as err:
            limit, failure = index, err
            break
        live.append(_Run(index, policy, state.t, state.s,
                         max_iter if frozen_from is None else frozen_from))
    if not live:
        raise failure

    f_prox, gstar_prox, coupling = prob.f_prox, prob.gstar_prox, prob.coupling
    n, m = prob.primal_dim, prob.dual_dim
    wide = coupling.shape[0] < coupling.shape[1]
    height = objective_block_rows(n, m)
    count = len(live)
    p_stack, q_stack = np.zeros((count, n)), np.zeros((count, m))
    # The step columns, (B, 1) each and contiguous: numpy broadcasts a
    # strided column more slowly.
    t_col = np.array([[run.t] for run in live])
    s_col = np.array([[run.s] for run in live])
    # Run i's trace rows, in the order of the trace columns; k is written
    # when the run finishes, the objective when its block is evaluated.
    record = np.empty((count, min(max_iter, _RECORD_ROWS), 5))
    blocks = np.zeros((count, height, n))
    # The (p, q) stacks each sweep of the unevaluated block rows started from.
    starts = []
    # The Schur solves' rows: v when the dual side is smaller, else u.
    solved = np.zeros((count, m if wide else n))
    last_update = max(run.update_until for run in live)

    def fill(i, first, rows):
        # solve's fill_objectives, for the run at position i.
        if not rows:
            return
        values, j = _block_values(prob.objective, blocks[i], rows)
        if j >= 0:
            p, q = starts[j]
            k = first + j
            raise IterationDiverged(k, state=DRState(
                p=p[i].copy(), q=q[i].copy(), t=float(record[i, k, 2]),
                s=float(record[i, k, 3]), k=k))
        record[i, first:first + rows, 1] = values

    def fail(i, run, err, first, rows):
        # Records the run's failure.  solve evaluates the pending rows before
        # any exception leaves it, so an earlier non-finite objective wins.
        nonlocal limit, failure
        try:
            fill(i, first, rows)
        except Exception as earlier:
            err = earlier
        limit, failure = run.index, err

    for k in range(max_iter):
        j = k % height
        first = k - j
        x_stack = f_prox(p_stack, t_col)
        y_stack = gstar_prox(q_stack, s_col)
        r1 = 2.0 * x_stack - p_stack
        r2 = 2.0 * y_stack - q_stack
        if wide:
            rhs = r2 + s_col * coupling.matvec(r1)
        else:
            rhs = r1 - t_col * coupling.rmatvec(r2)
        for i, run in enumerate(live):
            if run.index >= limit:
                break
            schur = run.schur
            if schur is None:
                try:
                    schur = run.schur = coupling.schur(run.t * run.s)
                except Exception as err:
                    fail(i, run, err, first, j)
                    break
            solved[i] = schur.solve(rhs[i])
        if wide:
            u_stack, v_stack = r1 - t_col * coupling.rmatvec(solved), solved
        else:
            u_stack, v_stack = solved, r2 + s_col * coupling.matvec(solved)
        p_next = p_stack + u_stack - x_stack
        q_next = q_stack + v_stack - y_stack
        residuals = (scaled_norm_rows(p_next - p_stack, q_next - q_stack)
                     / np.maximum(1.0, scaled_norm_rows(p_stack, q_stack)))
        # The sweep's divergence check, as in solve.  Rows are in policy
        # order, so the first non-finite one is the only run that can fail
        # here: the rows after it are dropped with it.
        if not residuals.max() < math.inf:
            i = int(np.isfinite(residuals).argmin())
            run = live[i]
            if run.index < limit:
                start = DRState(p=p_stack[i].copy(), q=q_stack[i].copy(),
                                t=run.t, s=run.s, k=k)
                fail(i, run, IterationDiverged(k, state=start), first, j)
        blocks[:, j] = x_stack
        starts.append((p_stack, q_stack))
        if k == record.shape[1]:
            grown = np.empty((record.shape[0], min(max_iter, 2 * k), 5))
            grown[:, :k] = record
            record = grown
        record[:, k, 2:3] = t_col
        record[:, k, 3:4] = s_col
        record[:, k, 4] = residuals
        if k < last_update:
            for i, run in enumerate(live):
                if run.index >= limit:
                    break
                if k < run.update_until:
                    try:
                        t, s = run.policy.update(run.t, run.s, x_stack[i], p_stack[i],
                                                 y_stack[i], q_stack[i], k)
                        check_steps(t, s, f"the stepsizes the policy returned at step {k}")
                    except Exception as err:
                        fail(i, run, err, first, j + 1)
                        break
                    t_col[i, 0], s_col[i, 0] = t, s
                    if t * s != run.schur.ts:
                        run.schur = None
                    run.t, run.s = t, s
        pending = j + 1
        if pending == height:
            for i, run in enumerate(live):
                if run.index >= limit:
                    break
                try:
                    fill(i, first, pending)
                except Exception as err:
                    fail(i, run, err, first, 0)
                    break
            starts.clear()
            pending = 0
        if k + 1 == max_iter:
            finishing = range(len(live))
        elif 0.0 < tol:
            finishing = np.flatnonzero(residuals <= tol)
        else:
            finishing = ()
        finished = False
        for i in finishing:
            run = live[i]
            if run.index >= limit:
                break
            try:
                fill(i, first, pending)
            except Exception as err:
                fail(i, run, err, first, 0)
                break
            rows = record[i, :k + 1]
            rows[:, 0] = np.arange(k + 1)
            results[run.index] = (x_stack[i].copy(), y_stack[i].copy(),
                                  SolveTrace(rows.copy()))
            finished = True
        # Runs that finished or failed, and runs after a failed one, leave
        # the stacks.
        if finished or live[-1].index >= limit:
            keep = [i for i, run in enumerate(live)
                    if run.index < limit and results[run.index] is None]
            if not keep:
                break
            if len(keep) < len(live):
                live = [live[i] for i in keep]
                p_next, q_next = p_next[keep], q_next[keep]
                t_col, s_col = t_col[keep], s_col[keep]
                record, blocks = record[keep], blocks[keep]
                starts = [(p[keep], q[keep]) for p, q in starts]
                solved = np.zeros((len(live), solved.shape[1]))
                last_update = max(run.update_until for run in live)
        p_stack, q_stack = p_next, q_next
    if failure is not None:
        raise failure
    return results
