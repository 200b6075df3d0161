"""Linear-algebra kernels shared by the solver and analysis modules.

Everything operates on plain float64 numpy arrays.  General matrices are
materialized densely, at desk scale (a few hundred rows); the one structured
operator, :class:`DifferenceMap`, is applied by slicing and has no dense
matrix to build, so it scales to millions of samples.  The routines here
wrap LAPACK through numpy and add the dimension, symmetry, and definiteness
checks the callers rely on.  scipy is imported in one place, where numpy has
no equivalent: the tridiagonal factor of :class:`DifferenceMap`, on its
first factorization.  Importing this module loads no scipy.

A factorization or eigenvalue iteration that fails raises numpy's own
``np.linalg.LinAlgError``, whether numpy or LAPACK through scipy detected
it; this module defines no exception types.

A coupling operator (any :class:`Coupling`) is four members: ``shape``,
``matvec``, ``rmatvec`` and ``schur``.  It owns the solve with its Schur
complement ``I + ts*KK'`` or ``I + ts*K'K``: its ``schur(ts)`` returns the
factored complement for exactly that ``ts`` (a :class:`Schur`): for a
general K a dense inverse, built from the Gram matrix's eigendecomposition
(computed once per operator) with one matrix product per ``ts`` and applied
as one matrix-vector product (refined once when ill-conditioned), and for
forward differences a tridiagonal LDLᵀ (``dpttrf``/``dpttrs``), O(n).  The
coupling keeps the last one and refactors whenever ``ts`` changes in any
bit, so a solve depends only on K and ``ts``, never on which products were
factored before.

Eigenvectors are computed only where they are used, by :func:`eig_pairs`
(the spectral disc report); spectral radii and stepsize scans call
:func:`eig_all`, which computes eigenvalues only.

Matrices are checked for finiteness where they are factored or
decomposed, once; a dense Schur factor checks its scaled eigenvalues
``ts*lam`` instead.  :func:`spd_solve` runs inside every solver sweep and
scans nothing: a non-finite right-hand side comes back as a non-finite
solution, and the solver detects the divergence afterwards, from its step
residual (see :mod:`drsplit.pddr`).  Its products, and those of
:class:`LinearMap`, call ``ndarray.dot``: the same BLAS routine as ``@``,
bit for bit, without the matmul dispatch, which is a measurable share of a
sweep at desk scale.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Protocol

import numpy as np

__all__ = [
    "Coupling",
    "DifferenceMap",
    "LinearMap",
    "Schur",
    "SpdFactor",
    "check_diagonal",
    "check_eig_dim",
    "check_steps",
    "eig_all",
    "eig_pairs",
    "scaled_norm",
    "scaled_norm_rows",
    "seminorm",
    "spd_factor",
    "spd_solve",
]

# Quadratic forms down to -PSD_CLAMP * ||u||^2 are treated as roundoff.
PSD_CLAMP = 1e-12
# Guard against accidentally feeding the dense eigensolver a huge matrix.
EIG_MAX_DIM = 500
# Above this 2-norm condition number an SPD solve refines its product with
# the inverse once (see spd_solve); the default 200x100 LAD instances sit
# near 30.
REFINE_COND = 1e3
_TINY = float(np.finfo(np.float64).tiny)  # smallest normal float64


@dataclass(frozen=True, eq=False)
class SpdFactor:
    """A symmetric positive definite matrix S, factored for solves.

    ``inverse`` is the inverse of S, built by :func:`spd_factor` from an
    eigendecomposition.  ``refine`` is set when S's 2-norm condition number
    exceeds ``REFINE_COND``, and then :func:`spd_solve` refines once with
    ``matrix``, S itself; otherwise ``matrix`` is None.
    """

    dim: int
    matrix: np.ndarray | None
    inverse: np.ndarray
    refine: bool


@dataclass(frozen=True, eq=False)
class Schur:
    """A factored Schur complement ``I + ts*KK'`` or ``I + ts*K'K``, as a
    coupling's ``schur(ts)`` returns it: ``ts`` is the product it was built
    for, and ``solve(rhs)`` applies its inverse."""

    ts: float
    solve: Callable[[np.ndarray], np.ndarray]


def check_steps(t: float, s: float, what: str = "stepsizes") -> None:
    """Reject stepsizes that do not define a Schur complement.

    t and s must be finite and positive and their product t*s finite;
    anything else raises ``ValueError`` naming ``what``, t and s.  A product
    that underflows to 0.0 is accepted: the Schur complement is then I.
    """
    if not (0.0 < t < math.inf and 0.0 < s < math.inf and t * s < math.inf):
        raise ValueError(f"{what} must be finite and positive, with a finite "
                         f"product t*s, got t={t}, s={s}")


def check_diagonal(diag, size: int, what: str) -> np.ndarray:
    """Return a diagonal preconditioner or scaling as a float vector.

    It must have length ``size`` and entries that are all finite and
    positive; anything else raises ``ValueError`` naming ``what``.
    """
    d = np.asarray(diag, dtype=float)
    if d.shape != (size,):
        raise ValueError(f"{what} shape {d.shape} does not match {size}")
    if not np.all(np.isfinite(d) & (d > 0)):
        raise ValueError(f"{what} must be finite and positive")
    return d


def spd_factor(gram, eig, ts: float) -> SpdFactor:
    """Factor ``S = I + ts*gram`` for :func:`spd_solve`, from ``gram``'s
    eigendecomposition.

    ``eig`` is ``(lam, vecs) = np.linalg.eigh(gram)``, computed once per Gram
    matrix; a caller that factors S for many products ``ts`` pays for it
    once.  With ``d = 1 + ts*lam``, the inverse of S is ``(vecs / d) @
    vecs.T``: one matrix product, with no factorization.  The same ``d``
    decides definiteness and gives the exact 2-norm condition number of S,
    ``max(d) / min(d)``; only when that exceeds ``REFINE_COND`` is S itself
    formed, for the refinement step of :func:`spd_solve`.  Every solve is
    one matrix-vector product, or three for an ill-conditioned S.

    Parameters
    ----------
    gram : (d, d) ndarray
        Symmetric matrix, finite; read only when S is formed.
    eig : tuple of (d,) and (d, d) ndarrays
        ``np.linalg.eigh(gram)``.
    ts : float
        The multiplier of ``gram`` in S.

    Returns
    -------
    SpdFactor
        ``inverse`` is the inverse of S, ``refine`` whether its condition
        number exceeds ``REFINE_COND``, and ``matrix`` S when ``refine`` is
        set, else None.

    Raises
    ------
    numpy.linalg.LinAlgError
        If S is not positive definite (some ``1 + ts*lam`` is nonpositive).
    ValueError
        If ``ts*lam`` has a non-finite entry.
    """
    lam, vecs = eig
    # An overflow or inf*0 is reported below, as the ValueError.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = ts * lam
    if not np.all(np.isfinite(scaled)):
        raise ValueError(f"Schur complement has non-finite entries (ts={ts})")
    d = 1.0 + scaled
    if np.any(d <= 0.0):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    refine = bool(d.size) and d.max() / d.min() > REFINE_COND
    return SpdFactor(dim=d.size, matrix=np.eye(d.size) + ts * gram if refine else None,
                     inverse=(vecs / d) @ vecs.T, refine=refine)


def spd_solve(factor: SpdFactor, rhs) -> np.ndarray:
    """Solve S x = rhs given the factor of S from :func:`spd_factor`.

    Returns ``x = inverse @ rhs``, one matrix-vector product.  The residual
    of that product grows with the condition number of S, fastest when
    ``rhs`` lies along the large eigenvalues of S, which is where the
    solver's right-hand sides point at large t*s.  So when ``factor.refine``
    is set (condition number above ``REFINE_COND``) the solve refines once,
    to ``x + inverse @ (rhs - S @ x)``, three products in all, which keeps
    it within twice the residual of triangular solves with a Cholesky factor
    of S.

    Scans nothing for finiteness: a factor from :func:`spd_factor` is
    finite, and a non-finite ``rhs`` gives a non-finite solution rather
    than an error.

    Raises
    ------
    ValueError
        If ``rhs`` does not have shape ``(factor.dim,)``.
    """
    b = np.asarray(rhs, dtype=float)
    if b.shape != (factor.dim,):
        raise ValueError(
            f"dimension mismatch: factor is {factor.dim}, rhs has shape {b.shape}"
        )
    x = factor.inverse.dot(b)
    if not factor.refine:
        return x
    # A non-finite x meets inf - inf below; the warning would add nothing to
    # the non-finite solution, which the solver detects itself.
    with np.errstate(invalid="ignore", over="ignore"):
        return x + factor.inverse.dot(b - factor.matrix.dot(x))


def _dense_eig(routine, mat):
    """Run a numpy eigenroutine on a dense real square matrix.

    Checks what both entry points promise: a square, finite matrix no larger
    than ``EIG_MAX_DIM``.

    Raises
    ------
    ValueError
        If the matrix is not square, not finite or too large.
    numpy.linalg.LinAlgError
        If the QR iteration fails to converge, as numpy raises it.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    check_eig_dim(a.shape[0])
    return routine(a)


def check_eig_dim(dim: int) -> None:
    """Raise ``ValueError`` if a ``dim`` x ``dim`` matrix is too large for
    the dense eigensolver (``EIG_MAX_DIM``); callers that build such a
    matrix check its size first, before they pay for building it."""
    if dim > EIG_MAX_DIM:
        raise ValueError(f"matrix dimension {dim} exceeds the supported {EIG_MAX_DIM}")


def eig_pairs(mat) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a dense real square matrix.

    Returns the complex eigenvalue vector and the matrix whose columns are
    the matching (unit-norm) eigenvectors.
    """
    vals, vecs = _dense_eig(np.linalg.eig, mat)
    return vals.astype(complex), vecs.astype(complex)


def eig_all(mat) -> np.ndarray:
    """All eigenvalues of a dense real square matrix, as a complex vector.

    Computes no eigenvectors (``np.linalg.eigvals``, LAPACK ``dgeev`` without
    vectors), at about half the cost of :func:`eig_pairs`.
    """
    return _dense_eig(np.linalg.eigvals, mat).astype(complex)


def scaled_norm(*vecs) -> float:
    """Euclidean norm of 1-D float vectors stacked end to end, scale-safe.

    Takes ``math.sqrt`` of the sum of ``v.dot(v)`` in argument order; for one
    vector that is how ``np.linalg.norm`` computes it, bit for bit, without
    its dispatch.  The squares overflow above about 1e154 and underflow below
    about 1e-162; only when the sum is not finite or below the smallest
    normal float64 are the vectors divided by their largest magnitude and
    summed again, so the result overflows only where the norm itself does
    and is 0.0 only for zero vectors; numpy's overflow warning from the first
    sum is left to the caller's ``np.errstate``.  Returns inf or NaN if an
    entry is inf or NaN.
    """
    total = 0.0
    for v in vecs:
        total += v.dot(v)
    if _TINY <= total < math.inf:
        return math.sqrt(total)
    scale = float(np.max([np.abs(v).max(initial=0.0) for v in vecs]))
    if not 0.0 < scale < math.inf:
        return scale
    total = 0.0
    for v in vecs:
        w = v / scale
        total += w.dot(w)
    return scale * math.sqrt(total)


def scaled_norm_rows(*stacks) -> np.ndarray:
    """:func:`scaled_norm` row by row: entry i is ``scaled_norm(*(v[i] for v
    in stacks))``, bit for bit, for 2-D float stacks with equal row counts.

    Each row's ``v.dot(v)`` is one ``np.vecdot`` row, the BLAS dot that
    ``ndarray.dot`` calls for a 1-D vector.  Only rows whose sum is not
    finite or below the smallest normal float64 are passed to
    :func:`scaled_norm` to be rescaled; the others are the square roots of
    their sums.
    """
    total = np.vecdot(stacks[0], stacks[0])
    for v in stacks[1:]:
        total += np.vecdot(v, v)
    out = np.sqrt(total)
    for i, sq in enumerate(total.tolist()):
        # False for a NaN sum too.
        if not _TINY <= sq < math.inf:
            out[i] = scaled_norm(*(v[i] for v in stacks))
    return out


def seminorm(u, mat) -> float:
    """Seminorm sqrt(<M u, u>) induced by a symmetric PSD matrix M.

    Accepts real or complex ``u`` (the pairing is conjugate-bilinear).  Tiny
    negative quadratic forms, down to -1e-12 * ||u||^2, are clamped to zero;
    anything below that raises ``ValueError``, as does a metric that is not
    square or does not match ``u``.
    """
    vec = np.asarray(u)
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"metric must be square, got shape {m.shape}")
    if vec.shape != (m.shape[0],):
        raise ValueError(
            f"dimension mismatch: metric is {m.shape[0]}, vector has shape {vec.shape}"
        )
    quad = float(np.real(np.vdot(vec, m @ vec)))
    sq = float(np.real(np.vdot(vec, vec)))
    if quad < -PSD_CLAMP * sq:
        raise ValueError(f"metric is not positive semidefinite: <Mu,u> = {quad}")
    return math.sqrt(max(quad, 0.0))


class Coupling(Protocol):
    """What the solver reads of a coupling operator K, and all of it.

    ``shape`` is ``(rows, cols)``; ``matvec`` applies K and ``rmatvec`` K',
    to one vector or, row by row, to a ``(B, d)`` stack of them, with each
    row's bits those of its own product
    (:func:`drsplit.pddr.solve_many` passes stacks).
    ``schur(ts)`` returns the factored Schur complement on the smaller side,
    for exactly that ``ts``: ``I + ts*KK'`` when rows < cols, ``I + ts*K'K``
    otherwise.  :func:`drsplit.pddr.block_resolvent` forms the right-hand
    side to match.  A declaration only: the couplings below share no base,
    and a custom coupling needs these four members and nothing else.
    """

    @property
    def shape(self) -> tuple[int, int]: ...

    def matvec(self, x) -> np.ndarray: ...

    def rmatvec(self, y) -> np.ndarray: ...

    def schur(self, ts: float) -> Schur: ...


def _stacked_product(mat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # One matrix-vector product per row, as a batched np.matmul: row i has
    # the bits of mat.dot(stack[i]).  A matrix product (stack @ mat.T) would
    # block the sums differently and move the last bits.
    return np.matmul(mat, stack[:, :, None])[:, :, 0]


class LinearMap:
    """Dense linear operator with forward and adjoint application.

    ``matvec`` and ``rmatvec`` take one vector, or a ``(B, d)`` stack of
    them, one per row, and return a stack whose row i has the bits of the
    product with row i alone.
    """

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"operator matrix must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator matrix has non-finite entries")
        self.mat = arr
        self._schur: Schur | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    def matvec(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        cols = self.mat.shape[1]
        if v.shape != (cols,):
            if v.ndim == 2 and v.shape[1] == cols:
                return _stacked_product(self.mat, v)
            raise ValueError(f"dimension mismatch: expected {cols}, got {v.shape}")
        return self.mat.dot(v)

    def rmatvec(self, y) -> np.ndarray:
        v = np.asarray(y, dtype=float)
        rows = self.mat.shape[0]
        if v.shape != (rows,):
            if v.ndim == 2 and v.shape[1] == rows:
                return _stacked_product(self.mat.T, v)
            raise ValueError(f"dimension mismatch: expected {rows}, got {v.shape}")
        return self.mat.T.dot(v)

    # Cached: the solver refactors I + ts*gram many times while stepsizes
    # move, and the Gram matrix and its eigendecomposition never change.
    @cached_property
    def gram(self) -> np.ndarray:
        """The Gram matrix of the side :meth:`schur` factors, cached:
        ``KK'`` when rows < cols, ``K'K`` otherwise.  :meth:`schur` reads
        its eigendecomposition, :attr:`gram_eig`, and reads the matrix
        itself only to form an ill-conditioned complement for refinement."""
        rows, cols = self.mat.shape
        if rows < cols:
            return self.mat @ self.mat.T
        return self.mat.T @ self.mat

    @cached_property
    def gram_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh(gram)``, cached: one eigendecomposition per
        operator, from which :meth:`schur` factors every ``ts``.  Raises
        ``ValueError`` if the Gram matrix overflowed."""
        gram = self.gram
        if not np.all(np.isfinite(gram)):
            raise ValueError("Gram matrix has non-finite entries")
        return np.linalg.eigh(gram)

    def schur(self, ts: float) -> Schur:
        """``I + ts*KK'`` (rows < cols) or ``I + ts*K'K`` (otherwise),
        factored by :func:`spd_factor` from :attr:`gram_eig`, one matrix
        product per ``ts``, and solved by :func:`spd_solve`; the last one is
        kept while ``ts`` is bitwise the same."""
        if self._schur is None or self._schur.ts != ts:
            factor = spd_factor(self.gram, self.gram_eig, ts)
            self._schur = Schur(ts, lambda rhs: spd_solve(factor, rhs))
        return self._schur


class DifferenceMap:
    """Forward differences ``(Dx)_i = x_{i+1} - x_i`` as an (n-1) x n operator.

    Products work by slicing, in O(n); for finite input they equal the dense
    products in value, and bit for bit except for the sign of a zero result.
    Like :class:`LinearMap`'s, they take one vector or a ``(B, d)`` stack,
    row by row.
    ``DD'`` is tridiagonal (2 on the diagonal, -1 beside it), so the Schur
    complement ``I + ts*DD'`` is factored and solved as a tridiagonal LDLᵀ
    (LAPACK ``dpttrf``/``dpttrs``, imported from scipy on the first
    factorization), also in O(n).  No dense matrix is ever built: the
    operator has no ``mat``, and it stores only ``n``.
    """

    def __init__(self, n: int):
        n = operator.index(n)
        if n < 2:
            raise ValueError(f"need at least 2 samples, got {n}")
        self.n = n
        self._schur: Schur | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.n - 1, self.n

    def matvec(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        if v.shape != (self.n,):
            if v.ndim == 2 and v.shape[1] == self.n:
                return v[:, 1:] - v[:, :-1]
            raise ValueError(f"dimension mismatch: expected {self.n}, got {v.shape}")
        return v[1:] - v[:-1]

    def rmatvec(self, y) -> np.ndarray:
        v = np.asarray(y, dtype=float)
        if v.shape != (self.n - 1,):
            if v.ndim == 2 and v.shape[1] == self.n - 1:
                out = np.empty((v.shape[0], self.n))
                out[:, 0] = -v[:, 0]
                np.subtract(v[:, :-1], v[:, 1:], out=out[:, 1:-1])
                out[:, -1] = v[:, -1]
                return out
            raise ValueError(
                f"dimension mismatch: expected {self.n - 1}, got {v.shape}")
        out = np.empty(self.n)
        out[0] = -v[0]
        np.subtract(v[:-1], v[1:], out=out[1:-1])
        out[-1] = v[-1]
        return out

    def schur(self, ts: float) -> Schur:
        """Tridiagonal LDLᵀ factor of ``I + ts*DD'``; the last one is kept
        while ``ts`` is bitwise the same.  A ``ts`` for which the complement
        is not positive definite raises ``np.linalg.LinAlgError``."""
        if self._schur is None or self._schur.ts != ts:
            if not math.isfinite(ts):
                raise ValueError(f"Schur complement has non-finite entries (ts={ts})")
            from scipy.linalg.lapack import dpttrf, dpttrs

            rows = self.n - 1
            # The f2py wrapper of dpttrf rejects an empty off-diagonal, so a
            # single row gets a length-1 one, which LAPACK never reads.
            d, e, info = dpttrf(np.full(rows, 1.0 + 2.0 * ts),
                                np.full(max(rows - 1, 1), -ts),
                                overwrite_d=1, overwrite_e=1)
            # info > 0 names a nonpositive pivot; the only argument dpttrf
            # checks is n >= 0, which rows >= 1 meets, so info is never < 0.
            if info > 0:
                raise np.linalg.LinAlgError("Matrix is not positive definite")

            def solve(rhs):
                # Like spd_solve, scans nothing for finiteness.  dpttrs takes
                # a longer rhs without complaint and solves only its head.
                b = np.asarray(rhs, dtype=float)
                if b.shape != (rows,):
                    raise ValueError(
                        f"dimension mismatch: factor is {rows}, rhs has shape {b.shape}")
                return dpttrs(d, e, b)[0]

            self._schur = Schur(ts, solve)
        return self._schur
