"""Linear-algebra kernels shared by the solver and analysis modules.

Everything operates on plain float64 numpy arrays.  General matrices are
materialized densely, at desk scale (a few hundred rows); the one structured
operator, :class:`DifferenceMap`, is applied by slicing and never stores its
matrix, so it scales to millions of samples.  The routines here wrap LAPACK
through numpy/scipy and add the dimension, symmetry, and definiteness checks
the callers rely on.

A coupling operator owns the solve with its Schur complement
``I + ts*KK'`` or ``I + ts*K'K`` (:meth:`LinearMap.schur_factor` and
:meth:`LinearMap.schur_solve`): a dense Cholesky factor for a general K, a
banded one, O(n), for forward differences.

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
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs

__all__ = [
    "BandedFactor",
    "DifferenceMap",
    "EigenConvergenceError",
    "LinearMap",
    "NotPositiveDefiniteError",
    "NotPsdError",
    "SpdFactor",
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
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    ``fingerprint`` tags the scalar parameter the factored matrix was built
    from (the solver uses the stepsize product t*s), so a caller holding a
    cached factor can tell whether it is still valid.
    """

    dim: int
    lower: np.ndarray
    fingerprint: float = float("nan")


@dataclass(frozen=True, eq=False)
class BandedFactor:
    """Cholesky factor of a symmetric positive definite band matrix.

    ``bands`` holds the factor in LAPACK lower band storage: row 0 is the
    diagonal, row j the j-th subdiagonal, left-aligned.  ``fingerprint``
    has the meaning it has on :class:`SpdFactor`.
    """

    dim: int
    bands: np.ndarray
    fingerprint: float = float("nan")


# What LinearMap.schur_factor returns, by operator type.
SchurFactor = SpdFactor | BandedFactor


def spd_factor(s_mat, fingerprint: float = float("nan")) -> SpdFactor:
    """Cholesky-factor a symmetric positive definite matrix.

    Parameters
    ----------
    s_mat : (d, d) array_like
        Symmetric (to relative 1e-10) positive definite matrix.
    fingerprint : float, optional
        Scalar recorded on the factor for cache-validity checks.

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
    return SpdFactor(dim=s.shape[0], lower=c, fingerprint=float(fingerprint))


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


def eig_pairs(mat) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a dense real square matrix.

    Returns the complex eigenvalue vector and the matrix whose columns are
    the matching (unit-norm) eigenvectors.
    """
    a = _square(mat)
    if a.shape[0] > EIG_MAX_DIM:
        raise ValueError(
            f"matrix dimension {a.shape[0]} exceeds the supported {EIG_MAX_DIM}"
        )
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return vals.astype(complex), vecs.astype(complex)


def eig_all(mat) -> np.ndarray:
    """All eigenvalues of a dense real square matrix, as a complex vector."""
    vals, _ = eig_pairs(mat)
    return vals


def scaled_norm(*vecs) -> float:
    """Euclidean norm of 1-D float vectors stacked end to end, overflow-safe.

    Sums the squares of the vectors divided by their largest magnitude, so it
    overflows only where the norm itself does.  It is slower than
    ``math.sqrt(v.dot(v))``; callers use it where that comes out non-finite.
    Returns inf or NaN if an entry is inf or NaN.
    """
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


class LinearMap:
    """Dense linear operator with forward and adjoint application."""

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"operator matrix must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator matrix has non-finite entries")
        self.mat = arr

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    @property
    def rows(self) -> int:
        return self.mat.shape[0]

    @property
    def cols(self) -> int:
        return self.mat.shape[1]

    def matvec(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        if v.shape != (self.cols,):
            raise ValueError(f"dimension mismatch: expected {self.cols}, got {v.shape}")
        return self.mat @ v

    def rmatvec(self, y) -> np.ndarray:
        v = np.asarray(y, dtype=float)
        if v.shape != (self.rows,):
            raise ValueError(f"dimension mismatch: expected {self.rows}, got {v.shape}")
        return self.mat.T @ v

    # Gram matrices are cached: the solver refactors I + t*s*K'K many times
    # while stepsizes move, and the product itself never changes.
    @cached_property
    def gram_cols(self) -> np.ndarray:
        """K.T @ K, cached."""
        return self.mat.T @ self.mat

    @cached_property
    def gram_rows(self) -> np.ndarray:
        """K @ K.T, cached."""
        return self.mat @ self.mat.T

    # The Schur complement acts on the smaller side: the dual one when
    # rows < cols, the primal one otherwise.  pddr.block_resolvent forms the
    # right-hand side to match.
    def schur_factor(self, ts: float) -> SpdFactor:
        """Factor of ``I + ts*KK'`` (rows < cols) or ``I + ts*K'K`` (otherwise),
        tagged with ``ts`` as its fingerprint."""
        gram = self.gram_rows if self.rows < self.cols else self.gram_cols
        return spd_factor(np.eye(gram.shape[0]) + ts * gram, fingerprint=ts)

    def schur_solve(self, factor: SpdFactor, rhs) -> np.ndarray:
        """Solve with the Schur complement, given its :meth:`schur_factor`."""
        return spd_solve(factor, rhs)


class DifferenceMap(LinearMap):
    """Forward differences ``(Dx)_i = x_{i+1} - x_i`` as an (n-1) x n operator.

    Products work by slicing, in O(n); for finite input they equal the dense
    products bit for bit.  ``DD'`` is tridiagonal (2 on the diagonal, -1
    beside it), so the Schur complement ``I + ts*DD'`` is factored and solved
    by banded Cholesky, also in O(n).  The dense matrix is built only when
    ``mat`` (or a Gram matrix) is read.
    """

    def __init__(self, n: int):
        n = operator.index(n)
        if n < 2:
            raise ValueError(f"need at least 2 samples, got {n}")
        self.n = n

    @property
    def shape(self) -> tuple[int, int]:
        return self.n - 1, self.n

    @property
    def rows(self) -> int:
        return self.n - 1

    @property
    def cols(self) -> int:
        return self.n

    @cached_property
    def mat(self) -> np.ndarray:
        d = np.zeros((self.n - 1, self.n))
        idx = np.arange(self.n - 1)
        d[idx, idx] = -1.0
        d[idx, idx + 1] = 1.0
        return d

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

    def schur_factor(self, ts: float) -> BandedFactor:
        """Banded Cholesky factor of ``I + ts*DD'``, tagged with ``ts``."""
        if not math.isfinite(ts):
            raise ValueError(f"Schur complement has non-finite entries (ts={ts})")
        bands = np.empty((2, self.n - 1))
        bands[0] = 1.0 + 2.0 * ts
        bands[1] = -ts
        c, info = dpbtrf(bands, lower=1, overwrite_ab=1)
        if info > 0:
            raise NotPositiveDefiniteError(info - 1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of banded Cholesky call")
        return BandedFactor(dim=self.n - 1, bands=c, fingerprint=float(ts))

    def schur_solve(self, factor: BandedFactor, rhs) -> np.ndarray:
        """Solve with ``I + ts*DD'`` given its :meth:`schur_factor`.

        Like :func:`spd_solve`, scans nothing for finiteness.
        """
        b = np.asarray(rhs, dtype=float)
        if b.shape != (factor.dim,):
            raise ValueError(
                f"dimension mismatch: factor is {factor.dim}, rhs has shape {b.shape}"
            )
        x, info = dpbtrs(factor.bands, b, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of banded solve call")
        return x
