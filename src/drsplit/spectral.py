"""Spectral analysis of the linear splitting iteration.

For linear monotone halves A and B and a positive diagonal preconditioner D,
given as the vector of its diagonal (finite and positive), the update map on
the governing vector and the map governing the shadow sequence are similar
matrices, so they share a spectrum.  Every eigenvalue lies in the closed
disc of radius 1/2 centered at 1/2; an eigenvalue's distance from 1/2 is
further bounded through a normalized monotonicity ratio of A at the matching
eigenvector, which is what makes stepsize tuning visible in the spectrum.

A stepsize scan factors nothing per grid pair.  Its preconditioner is
block-constant, (t, s), so I + DA is block-diagonal with blocks I + tA1 and
I + sA2 (A1 and A2 are a pair's ``block_one`` and ``block_two_inv``), and
the inverse of I + DB has a closed form in the SVD of the coupling K.  A
scan takes one SVD of K, inverts I + tA1 once per t and I + sA2 once per s,
and builds each pair's matrix from two matrix products.  Every matrix,
scanned or built by :func:`iteration_matrix`, passes the same residual
check; a scan takes the operator norms of its bound per axis too.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg

__all__ = [
    "IdentityCheckError",
    "LinearMonotonePair",
    "RadiusScan",
    "ScanRow",
    "SpectralRecord",
    "SpectralReport",
    "best_row",
    "disc_report",
    "dr_update_matrix",
    "iteration_matrix",
    "match_spectra",
    "monotonicity_ratio",
    "optimal_local_stepsizes",
    "radius_scan",
    "spectral_radius",
]

# Eigenvalues this close to 1 sit in the fixed-point cluster, where the
# ratio-based bound does not apply.
FIXED_POINT_TOL = 1e-8
# Slack granted to the disc checks to absorb eigensolver roundoff.
DISC_SLACK = 1e-8
# Relative roundoff below zero tolerated in a block's least symmetric eigenvalue.
MONOTONE_TOL = 1e-10
# Relative backward-error bound of the identity check on every iteration matrix.
IDENTITY_RTOL = 1e-13


class IdentityCheckError(RuntimeError):
    """The iteration matrix fails its closed-form residual check (see
    :func:`iteration_matrix`), or the residual is NaN or the bound overflows."""


@dataclass(frozen=True, eq=False)
class LinearMonotonePair:
    """Structured linear test instance for the splitting iteration.

    ``block_one`` (n x n) and ``block_two_inv`` (m x m) are positive
    semidefinite-plus blocks forming the block-diagonal half A; ``coupling``
    (m x n) forms the skew half B = [[0, K'], [-K, 0]].
    """

    block_one: np.ndarray
    block_two_inv: np.ndarray
    coupling: np.ndarray

    @property
    def primal_dim(self) -> int:
        return self.block_one.shape[0]

    @property
    def dual_dim(self) -> int:
        return self.block_two_inv.shape[0]

    def block_diag_half(self) -> np.ndarray:
        """The block-diagonal monotone half A."""
        n, m = self.primal_dim, self.dual_dim
        a = np.zeros((n + m, n + m))
        a[:n, :n] = self.block_one
        a[n:, n:] = self.block_two_inv
        return a

    def skew_half(self) -> np.ndarray:
        """The skew coupling half B."""
        n, m = self.primal_dim, self.dual_dim
        b = np.zeros((n + m, n + m))
        b[:n, n:] = self.coupling.T
        b[n:, :n] = -self.coupling
        return b

    def validate(self) -> None:
        """Check monotonicity of the diagonal blocks; raises on violation."""
        for name, block in (("block_one", self.block_one),
                            ("block_two_inv", self.block_two_inv)):
            sym = 0.5 * (block + block.T)
            low = float(np.min(np.linalg.eigvalsh(sym)))
            scale = max(1.0, float(np.abs(block).max()))
            if low < -MONOTONE_TOL * scale:
                raise ValueError(f"{name} is not monotone: min symmetric eig {low}")


def _operator_pair(a_mat, b_mat) -> tuple[np.ndarray, np.ndarray]:
    """Check two operators for matching square shapes and finite entries."""
    a = np.asarray(a_mat, dtype=float)
    b = np.asarray(b_mat, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(
            f"operator shapes {a.shape}, {b.shape} must match, be square and nonempty")
    for name, arr in (("a_mat", a), ("b_mat", b)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} has non-finite entries")
    return a, b


def iteration_matrix(a_mat, b_mat, delta) -> np.ndarray:
    """Matrix driving the shadow sequence of the preconditioned splitting.

    With resolvents J_A = (I + DA)^{-1} and J_B = (I + DB)^{-1} this is
    h = J_A (DA + J_B (I - DA)), computed by two LU solves.  It is checked
    against the equivalent closed form (I + DA + DB + DB DA) h = I + DB DA
    by its residual R: the check passes when
    ||R|| <= IDENTITY_RTOL * (||I + DB|| ||I + DA|| ||h|| + ||I - DA||) in
    the infinity norm, a backward-error test that needs no condition
    estimate.

    Raises
    ------
    ValueError
        If the operators are not square, of one shape and finite, or the
        preconditioner diagonal ``delta`` is not a finite, positive vector
        of their size.
    numpy.linalg.LinAlgError
        If I + DB or I + DA is exactly singular.
    IdentityCheckError
        If the residual exceeds that bound, or the residual or the bound is
        not finite (the closed form overflowed), so the matrix cannot be
        vouched for.
    """
    a, b = _operator_pair(a_mat, b_mat)
    d = linalg.check_diagonal(delta, a.shape[0], "preconditioner diagonal")
    da = d[:, None] * a
    db = d[:, None] * b
    eye = np.eye(a.shape[0])
    eye_db = eye + db
    eye_da = eye + da
    eye_mda = eye - da
    inner = np.linalg.solve(eye_db, eye_mda)
    h = np.linalg.solve(eye_da, da + inner)
    _check_identity(da, db, h, _inf_norm(eye_db), _inf_norm(eye_da), _inf_norm(eye_mda))
    return h


def _check_identity(da: np.ndarray, db: np.ndarray, h: np.ndarray,
                    norm_eye_db: float, norm_eye_da: float, norm_eye_mda: float) -> None:
    """The residual check of :func:`iteration_matrix` on h, given DA and DB;
    raises :class:`IdentityCheckError` when it fails.

    The residual is computed here, always by the same formula, so its bits
    depend only on DA, DB and h.  The bound's three operator norms,
    ||I + DB||, ||I + DA|| and ||I - DA|| in the infinity norm, come from
    the caller: :func:`iteration_matrix` takes them of the full matrices,
    :func:`radius_scan` as maxima over the two blocks of a grid pair, which
    are equal in exact arithmetic.
    """
    eye = np.eye(da.shape[0])
    dbda = db @ da
    lhs = eye + db
    lhs += da
    lhs += dbda
    res = lhs @ h
    dbda += eye
    res -= dbda
    gap = float(_inf_norm(res))
    scale = norm_eye_db * norm_eye_da * _inf_norm(h) + norm_eye_mda
    bound = IDENTITY_RTOL * float(scale)
    if not gap <= bound < math.inf:
        raise IdentityCheckError(
            f"iteration-matrix identity violated: gap {gap}, bound {bound}")


def _inf_norm(x: np.ndarray) -> float:
    """The infinity norm (largest absolute row sum) of a 2-D array, the bits
    of ``np.linalg.norm(x, np.inf)`` without its dispatch, and 0.0 for an
    array with no rows."""
    return np.add.reduce(np.abs(x), axis=1).max(initial=0.0)


def dr_update_matrix(a_mat, b_mat, delta) -> np.ndarray:
    """Matrix of the splitting update on the governing vector.

    Similar to :func:`iteration_matrix` via conjugation with I + DA, hence
    the same spectrum.
    """
    a, b = _operator_pair(a_mat, b_mat)
    d = linalg.check_diagonal(delta, a.shape[0], "preconditioner diagonal")
    eye = np.eye(a.shape[0])
    res_a = np.linalg.solve(eye + d[:, None] * a, eye)
    res_b = np.linalg.solve(eye + d[:, None] * b, eye)
    return eye + res_b @ (2.0 * res_a - eye) - res_a


def monotonicity_ratio(a_mat, delta, z) -> float:
    """Normalized monotonicity of A at z under the diagonal metric.

    Evaluates Re <Az, z> / (||z||^2_{D^{-1}} + ||Az||^2_D) with the
    conjugate-bilinear pairing, so complex eigenvectors are fine.  Tiny
    negative values (roundoff on a monotone A) are clamped to zero.
    """
    a = np.asarray(a_mat, dtype=float)
    vec = np.asarray(z)
    if vec.ndim != 1 or a.shape != (vec.size, vec.size):
        raise ValueError(f"shape mismatch: operator {a.shape}, vector {vec.shape}")
    if not np.any(vec):
        raise ValueError("vector must be nonzero")
    d = linalg.check_diagonal(delta, vec.size, "preconditioner diagonal")
    return _ratio(a, d, vec)


def _ratio(a: np.ndarray, d: np.ndarray, vec: np.ndarray) -> float:
    """:func:`monotonicity_ratio` of inputs that are already checked: a
    float operator, a finite positive diagonal and a nonzero vector, of
    matching sizes."""
    az = a @ vec
    num = float(np.real(np.vdot(vec, az)))
    den = float(np.sum(np.abs(vec) ** 2 / d) + np.sum(d * np.abs(az) ** 2))
    ratio = num / den
    if ratio < -1e-12:
        raise ValueError(f"operator is not monotone along this vector: ratio {ratio}")
    return max(ratio, 0.0)


class SpectralRecord(NamedTuple):
    eigenvalue: complex
    ratio: float
    disc_radius: float
    contained: bool
    exempt: bool


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray
    records: list[SpectralRecord]
    spectral_radius: float

    def all_contained(self) -> bool:
        return all(r.contained for r in self.records)


def disc_report(pair: LinearMonotonePair, delta) -> SpectralReport:
    """Locate every eigenvalue of the iteration matrix against its disc bound.

    Each eigenvalue must lie in the closed disc |z - 1/2| <= 1/2 (plus
    roundoff slack); away from the fixed-point cluster at 1 it must also
    respect the tighter radius sqrt(1/4 - r/(1+2r)) computed from the
    monotonicity ratio r at its eigenvector.  Violations are flagged in the
    records, not raised.  The preconditioner is checked twice, here and in
    :func:`iteration_matrix`, and not again per eigenvector.
    """
    a = pair.block_diag_half()
    b = pair.skew_half()
    dim = a.shape[0]
    d = linalg.check_diagonal(delta, dim, "preconditioner diagonal")
    h = iteration_matrix(a, b, d)
    vals, vecs = linalg.eig_pairs(h)
    records = []
    for idx in range(vals.size):
        lam = complex(vals[idx])
        ratio = _ratio(a, d, vecs[:, idx])
        disc_radius = math.sqrt(max(0.25 - ratio / (1.0 + 2.0 * ratio), 0.0))
        dist = abs(lam - 0.5)
        exempt = abs(lam - 1.0) <= FIXED_POINT_TOL
        contained = dist <= 0.5 + DISC_SLACK and (
            exempt or dist <= disc_radius + DISC_SLACK
        )
        records.append(SpectralRecord(lam, ratio, disc_radius, contained, exempt))
    return SpectralReport(
        eigenvalues=vals,
        records=records,
        spectral_radius=float(np.max(np.abs(vals))),
    )


def spectral_radius(mat) -> float:
    """Largest eigenvalue modulus of a dense square matrix.

    Computes eigenvalues only (:func:`drsplit.linalg.eig_all`); of the
    spectral tools, only :func:`disc_report` computes eigenvectors.
    """
    return float(np.max(np.abs(linalg.eig_all(mat))))


def optimal_local_stepsizes(z1, z2, block_one, block_two_inv) -> tuple[float, float]:
    """Stepsizes maximizing the monotonicity ratio at a fixed split vector.

    For the structured pair the ratio decomposes over the two blocks and the
    per-block maximizers are ||z1|| / ||A1 z1|| and ||z2|| / ||A2^{-1} z2||.

    Raises
    ------
    ValueError
        If either block annihilates its vector, in which case the ratio
        keeps improving as that stepsize grows without bound.
    """
    v1 = np.asarray(z1)
    v2 = np.asarray(z2)
    num1 = float(np.linalg.norm(v1))
    num2 = float(np.linalg.norm(v2))
    den1 = float(np.linalg.norm(np.asarray(block_one) @ v1))
    den2 = float(np.linalg.norm(np.asarray(block_two_inv) @ v2))
    if den1 == 0.0 or den2 == 0.0:
        raise ValueError("unbounded optimal stepsize: block maps vector to zero")
    return num1 / den1, num2 / den2


class ScanRow(NamedTuple):
    t: float
    s: float
    rho: float


@dataclass
class RadiusScan:
    rows: list[ScanRow]
    best: ScanRow


def best_row(rows: list[ScanRow]) -> ScanRow:
    """The row of least radius, ties broken by (t, s) so that the choice is
    deterministic."""
    return min(rows, key=lambda r: (r.rho, r.t, r.s))


def radius_scan(pair: LinearMonotonePair, t_grid, s_grid) -> RadiusScan:
    """Spectral radius of the iteration matrix over a stepsize grid.

    Each grid must be nonempty, 1-D, finite and positive.  Rows are ordered
    t-major then s; ``best`` is :func:`best_row` of them.

    The matrices are those of :func:`iteration_matrix` at the preconditioner
    (t, s), built without its two LU solves per pair.  With R = (I + DA)^{-1}
    and J = (I + DB)^{-1}, h = R + R (J - I)(I - DA), which is R exactly
    when K = 0.  Once per scan, the operators are checked and K = U S V' is
    decomposed by one thin SVD (singular vectors beyond min(m, n) would only
    meet zero singular values).  Once per grid value, I + tA1 (per t) or
    I + sA2 (per s) is inverted, and the inverse and I - tA1 or I - sA2 are
    projected onto V or U.  Once per pair, with G = diag(1 / (1 + ts S^2)),
    J - I = [[V (G - I) V', -t V G S U'], [s U S G V', U (G - I) U']], so
    h costs two matrix products of those factors, scaled by G.  Each h
    then passes the residual check of :func:`iteration_matrix` and costs
    one :func:`spectral_radius`, which computes eigenvalues only.

    The check computes its residual from DA, DB and h as for any matrix;
    DA and DB are refreshed per pair by copying each axis's blocks, tA1
    and tK' (per t) and sA2 and -sK (per s), computed once per grid value.
    The bound's operator norms are taken per axis too: DA and DB are
    block-structured, so ||I + DA|| is the larger of ||I + tA1|| and
    ||I + sA2||, likewise ||I - DA||, and ||I + DB|| is the larger of
    1 + t ||K'|| and 1 + s ||K|| (infinity norms).  These equal the
    full-matrix norms of :func:`iteration_matrix` in exact arithmetic and
    differ from them by a few ulps in floating point.

    Raises
    ------
    ValueError
        If a grid is malformed, the pair's blocks are not finite, or the
        iteration matrix would be too large for the eigensolver
        (checked before any factor is computed).
    numpy.linalg.LinAlgError
        If I + tA1 or I + sA2 is exactly singular at a grid value.
    IdentityCheckError
        If a pair's matrix fails the residual check.
    """
    t_vals = np.asarray(t_grid, dtype=float)
    s_vals = np.asarray(s_grid, dtype=float)
    for name, vals in (("t", t_vals), ("s", s_vals)):
        if vals.ndim != 1 or vals.size == 0 or not np.all(np.isfinite(vals) & (vals > 0)):
            raise ValueError(
                f"{name} grid of shape {vals.shape} must be nonempty, 1-D, finite and positive")
    _, b = _operator_pair(pair.block_diag_half(), pair.skew_half())
    n, m = pair.primal_dim, pair.dual_dim
    linalg.check_eig_dim(n + m)
    u, sigma, vt = np.linalg.svd(pair.coupling, full_matrices=False)
    sig2 = sigma ** 2
    s_axis = [_axis_factors(pair.block_two_inv, b[n:, :n], s, u, sigma) for s in s_vals]
    # Every pair writes the same blocks of these; the blocks that are zero
    # at every pair are never written.
    da = np.zeros((n + m, n + m))
    db = np.zeros((n + m, n + m))
    rows = []
    for t in t_vals:
        one = _axis_factors(pair.block_one, b[:n, n:], t, vt.T, sigma)
        da[:n, :n] = one.da
        db[:n, n:] = one.db
        for s, two in zip(s_vals, s_axis):
            g = 1.0 / (1.0 + t * s * sig2)
            h = np.empty((n + m, n + m))
            np.matmul(one.res_basis * (-t * g), np.hstack([s * one.sz, two.z]), out=h[:n])
            np.matmul(two.res_basis * (s * g), np.hstack([one.z, -t * two.sz]), out=h[n:])
            h[:n, :n] += one.res
            h[n:, n:] += two.res
            da[n:, n:] = two.da
            db[n:, :n] = two.db
            _check_identity(da, db, h, max(one.norm_skew, two.norm_skew),
                            max(one.norm_plus, two.norm_plus),
                            max(one.norm_minus, two.norm_minus))
            rows.append(ScanRow(float(t), float(s), spectral_radius(h)))
    return RadiusScan(rows=rows, best=best_row(rows))


class _AxisFactors(NamedTuple):
    """What a scan keeps of one grid value of an axis; see :func:`_axis_factors`."""

    res: np.ndarray
    res_basis: np.ndarray
    z: np.ndarray
    sz: np.ndarray
    da: np.ndarray
    db: np.ndarray
    norm_plus: float
    norm_minus: float
    norm_skew: float


def _axis_factors(block, skew, step, basis, sigma) -> _AxisFactors:
    """The factors of one grid value of a scan axis.

    ``block`` and ``skew`` are the nonzero blocks of A and B in this axis's
    rows (A1 and K' for t, A2 and -K for s), and ``basis`` holds the
    singular vectors of K on this side (V for t, U for s) as columns.  With
    R = (I + step*block)^{-1} and Z the rows of basis'(I - step*block)
    scaled by ``sigma``: R, R basis, Z and Z scaled by ``sigma`` once more;
    the axis's blocks of DA and DB, step*block and step*skew; and its parts
    of the identity check's norms, ||I + step*block||, ||I - step*block||
    and 1 + step*||skew||, in the infinity norm.
    """
    eye = np.eye(block.shape[0])
    scaled = step * block
    plus = eye + scaled
    minus = eye - scaled
    res = np.linalg.inv(plus)
    z = sigma[:, None] * (basis.T @ minus)
    return _AxisFactors(res, res @ basis, z, sigma[:, None] * z, scaled, step * skew,
                        _inf_norm(plus), _inf_norm(minus), 1.0 + step * _inf_norm(skew))


def match_spectra(vals_a, vals_b) -> float:
    """Largest gap under greedy nearest-neighbor pairing of two spectra.

    Both spectra are sorted by (modulus, argument) first; each value of the
    first is then matched to the nearest unused value of the second.
    """
    a = sorted(np.asarray(vals_a, dtype=complex), key=lambda z: (abs(z), np.angle(z)))
    b = sorted(np.asarray(vals_b, dtype=complex), key=lambda z: (abs(z), np.angle(z)))
    if len(a) != len(b):
        raise ValueError(f"spectra have different sizes: {len(a)} vs {len(b)}")
    remaining = list(b)
    worst = 0.0
    for z in a:
        gaps = [abs(z - w) for w in remaining]
        j = int(np.argmin(gaps))
        worst = max(worst, gaps[j])
        remaining.pop(j)
    return worst
