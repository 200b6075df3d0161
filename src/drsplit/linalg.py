"""Linear-algebra kernels shared by the solver and analysis modules.

Everything operates on plain float64 numpy arrays.  General matrices are
materialized densely, at desk scale (a few hundred rows); the one structured
operator, :class:`DifferenceMap`, is applied by slicing and has no dense
matrix to build, so it scales to millions of samples.  The routines here
wrap LAPACK through numpy/scipy and add the dimension, symmetry, and
definiteness checks the callers rely on.

A coupling operator (any :class:`Coupling`) is four members: ``shape``,
``matvec``, ``rmatvec`` and ``schur``.  It owns the solve with its Schur
complement ``I + ts*KK'`` or ``I + ts*K'K``: its ``schur(ts)`` returns the
factored complement for exactly that ``ts`` (a :class:`Schur`): a dense
Cholesky factor for a general K, a tridiagonal LDLᵀ (``dpttrf``/``dpttrs``),
O(n), for forward differences.  The coupling keeps the last one and
refactors whenever ``ts`` changes in any bit, so a solve depends only on K
and ``ts``, never on which products were factored before.

Eigenvectors are computed only where they are used, by :func:`eig_pairs`
(the spectral disc report); spectral radii and stepsize scans call
:func:`eig_all`, which computes eigenvalues only.

Matrices are checked for finiteness where they are factored or
decomposed, once.  :func:`spd_solve` runs inside every solver sweep and
scans nothing: a non-finite right-hand side comes back as a non-finite
solution, and the solver detects the divergence afterwards, from its step
residual (see :mod:`drsplit.pddr`).
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Protocol

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dpttrf, dpttrs

__all__ = [
    "Coupling",
    "DifferenceMap",
    "EigenConvergenceError",
    "LinearMap",
    "NotPositiveDefiniteError",
    "NotPsdError",
    "Schur",
    "SpdFactor",
    "check_diagonal",
    "check_steps",
    "eig_all",
    "eig_pairs",
    "scaled_norm",
    "seminorm",
    "spd_factor",
    "spd_solve",
]

# Relative tolerance used to accept a matrix as symmetric.
SYMMETRY_RTOL = 1e-10
# Quadratic forms down to -PSD_CLAMP * ||u||^2 are treated as roundoff.
PSD_CLAMP = 1e-12
# Guard against accidentally feeding the dense eigensolver a huge matrix.
EIG_MAX_DIM = 500


class NotPositiveDefiniteError(ValueError):
    """Cholesky pivot failure; ``pivot`` is the 0-based index that failed."""

    def __init__(self, pivot: int):
        super().__init__(
            f"matrix is not positive definite (nonpositive pivot at index {pivot})"
        )
        self.pivot = pivot


class NotPsdError(ValueError):
    """A quadratic form came out negative beyond roundoff."""


class EigenConvergenceError(RuntimeError):
    """The QR eigenvalue iteration failed to converge."""


def _square(mat, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class SpdFactor:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix."""

    dim: int
    lower: np.ndarray


@dataclass(frozen=True, eq=False)
class Schur:
    """A factored Schur complement ``I + ts*KK'`` or ``I + ts*K'K``, as a
    coupling's ``schur(ts)`` returns it: ``ts`` is the product it was built
    for, and ``solve(rhs)`` applies its inverse."""

    ts: float
    solve: Callable[[np.ndarray], np.ndarray]


def check_steps(t: float, s: float, what: str = "stepsizes") -> None:
    """Reject stepsizes that do not define a Schur complement.

    t, s and their product t*s must be finite and positive; anything else
    raises ``ValueError`` naming ``what``, t and s.
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


def spd_factor(s_mat) -> SpdFactor:
    """Cholesky-factor a symmetric positive definite matrix.

    Parameters
    ----------
    s_mat : (d, d) array_like
        Symmetric (to relative 1e-10) positive definite matrix.

    Returns
    -------
    SpdFactor
        Factor with ``lower @ lower.T`` reproducing ``s_mat`` to relative
        1e-12.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot is nonpositive; carries the failing 0-based index.
    ValueError
        If the input is not square or not symmetric.
    """
    s = _square(s_mat)
    scale = float(np.abs(s).max()) if s.size else 0.0
    if scale > 0.0 and float(np.abs(s - s.T).max()) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    c, info = dpotrf(s, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of Cholesky call")
    return SpdFactor(dim=s.shape[0], lower=c)


def spd_solve(factor: SpdFactor, rhs) -> np.ndarray:
    """Solve S x = rhs given the Cholesky factor of S.

    Calls LAPACK ``dpotrs``, the routine behind ``scipy.linalg.cho_solve``,
    without its finiteness scans of the factor and the right-hand side.  A
    factor from :func:`spd_factor` is finite; a non-finite ``rhs`` gives a
    non-finite solution rather than an error.

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
    if factor.dim == 0:
        # dpotrs's wrapper rejects empty arrays.
        return np.empty(0)
    x, info = dpotrs(factor.lower, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of triangular solve call")
    return x


def _dense_eig(routine, mat):
    """Run a numpy eigenroutine on a dense real square matrix.

    Checks what both entry points promise: a square, finite matrix no larger
    than ``EIG_MAX_DIM``, and a failed QR iteration reported as
    :class:`EigenConvergenceError`.
    """
    a = _square(mat)
    if a.shape[0] > EIG_MAX_DIM:
        raise ValueError(
            f"matrix dimension {a.shape[0]} exceeds the supported {EIG_MAX_DIM}"
        )
    try:
        return routine(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


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
    """Euclidean norm of 1-D float vectors stacked end to end, overflow-safe.

    Takes ``math.sqrt`` of the sum of ``v.dot(v)`` in argument order; for one
    vector that is how ``np.linalg.norm`` computes it, bit for bit, without
    its dispatch.  The squares overflow for finite vectors above about 1e154;
    only when the sum is not finite are the vectors divided by their largest
    magnitude and summed again, so the result overflows only where the norm
    itself does; numpy's overflow warning from the first sum is left to the
    caller's ``np.errstate``.  Returns inf or NaN if an entry is inf or NaN.
    """
    total = 0.0
    for v in vecs:
        total += v.dot(v)
    if total < math.inf:
        return math.sqrt(total)
    scale = float(np.max([np.abs(v).max(initial=0.0) for v in vecs]))
    if not 0.0 < scale < math.inf:
        return scale
    total = 0.0
    for v in vecs:
        w = v / scale
        total += w.dot(w)
    return scale * math.sqrt(total)


def seminorm(u, mat) -> float:
    """Seminorm sqrt(<M u, u>) induced by a symmetric PSD matrix M.

    Accepts real or complex ``u`` (the pairing is conjugate-bilinear).  Tiny
    negative quadratic forms, down to -1e-12 * ||u||^2, are clamped to zero;
    anything below that raises :class:`NotPsdError`.
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
        raise NotPsdError(f"metric is not positive semidefinite: <Mu,u> = {quad}")
    return math.sqrt(max(quad, 0.0))


class Coupling(Protocol):
    """What the solver reads of a coupling operator K, and all of it.

    ``shape`` is ``(rows, cols)``; ``matvec`` applies K and ``rmatvec`` K'.
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


class LinearMap:
    """Dense linear operator with forward and adjoint application."""

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
            raise ValueError(f"dimension mismatch: expected {cols}, got {v.shape}")
        return self.mat @ v

    def rmatvec(self, y) -> np.ndarray:
        v = np.asarray(y, dtype=float)
        rows = self.mat.shape[0]
        if v.shape != (rows,):
            raise ValueError(f"dimension mismatch: expected {rows}, got {v.shape}")
        return self.mat.T @ v

    # Cached: the solver refactors I + ts*gram many times while stepsizes
    # move, and the product itself never changes.
    @cached_property
    def gram(self) -> np.ndarray:
        """The Gram matrix of the side :meth:`schur` factors, cached:
        ``KK'`` when rows < cols, ``K'K`` otherwise."""
        rows, cols = self.mat.shape
        if rows < cols:
            return self.mat @ self.mat.T
        return self.mat.T @ self.mat

    def schur(self, ts: float) -> Schur:
        """Dense Cholesky factor of ``I + ts*KK'`` (rows < cols) or
        ``I + ts*K'K`` (otherwise); the last one is kept while ``ts`` is
        bitwise the same."""
        if self._schur is None or self._schur.ts != ts:
            gram = self.gram
            factor = spd_factor(np.eye(gram.shape[0]) + ts * gram)
            self._schur = Schur(ts, lambda rhs: spd_solve(factor, rhs))
        return self._schur


class DifferenceMap:
    """Forward differences ``(Dx)_i = x_{i+1} - x_i`` as an (n-1) x n operator.

    Products work by slicing, in O(n); for finite input they equal the dense
    products in value, and bit for bit except for the sign of a zero result.
    ``DD'`` is tridiagonal (2 on the diagonal, -1 beside it), so the Schur
    complement ``I + ts*DD'`` is factored and solved as a tridiagonal LDLᵀ
    (LAPACK ``dpttrf``/``dpttrs``), also in O(n).  No dense matrix is ever
    built: the operator has no ``mat``, and it stores only ``n``.
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
            raise ValueError(f"dimension mismatch: expected {self.n}, got {v.shape}")
        return v[1:] - v[:-1]

    def rmatvec(self, y) -> np.ndarray:
        v = np.asarray(y, dtype=float)
        if v.shape != (self.n - 1,):
            raise ValueError(
                f"dimension mismatch: expected {self.n - 1}, got {v.shape}")
        out = np.empty(self.n)
        out[0] = -v[0]
        np.subtract(v[:-1], v[1:], out=out[1:-1])
        out[-1] = v[-1]
        return out

    def schur(self, ts: float) -> Schur:
        """Tridiagonal LDLᵀ factor of ``I + ts*DD'``; the last one is kept
        while ``ts`` is bitwise the same."""
        if self._schur is None or self._schur.ts != ts:
            if not math.isfinite(ts):
                raise ValueError(f"Schur complement has non-finite entries (ts={ts})")
            rows = self.n - 1
            # The f2py wrapper of dpttrf rejects an empty off-diagonal, so a
            # single row gets a length-1 one, which LAPACK never reads.
            d, e, info = dpttrf(np.full(rows, 1.0 + 2.0 * ts),
                                np.full(max(rows - 1, 1), -ts),
                                overwrite_d=1, overwrite_e=1)
            if info > 0:
                raise NotPositiveDefiniteError(info - 1)
            if info < 0:
                raise ValueError(
                    f"illegal value in argument {-info} of tridiagonal factor call")

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
