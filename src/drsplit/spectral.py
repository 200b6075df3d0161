"""Spectral analysis of the linear splitting iteration.

For linear monotone halves A and B and a positive diagonal preconditioner D,
given as the vector of its diagonal (finite and positive), the update map on
the governing vector and the map governing the shadow sequence are similar
matrices, so they share a spectrum.  Every eigenvalue lies in the closed
disc of radius 1/2 centered at 1/2; an eigenvalue's distance from 1/2 is
further bounded through a normalized monotonicity ratio of A at the matching
eigenvector, which is what makes stepsize tuning visible in the spectrum.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgesv

from . import linalg

__all__ = [
    "IdentityCheckError",
    "LinearMonotonePair",
    "RadiusScan",
    "ScanRow",
    "SpectralRecord",
    "SpectralReport",
    "UnboundedStepsizeError",
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


class IdentityCheckError(RuntimeError):
    """The two forms of the iteration matrix disagree, or their gap is NaN."""


class UnboundedStepsizeError(ValueError):
    """The locally optimal stepsize is unbounded (zero curvature direction)."""


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


def _lu_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lhs @ x = rhs with LAPACK ``dgesv``, as ``np.linalg.solve`` does,
    without its wrapper; an exactly singular lhs raises ``LinAlgError``."""
    _, _, x, info = dgesv(lhs, rhs)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LU solve call")
    return x


def iteration_matrix(a_mat, b_mat, delta) -> np.ndarray:
    """Matrix driving the shadow sequence of the preconditioned splitting.

    With resolvents J_A = (I + DA)^{-1} and J_B = (I + DB)^{-1} this is
    J_A (DA + J_B (I - DA)); the equivalent closed form
    (I + DA + DB + DB DA)^{-1} (I + DB DA) is solved for independently as a
    consistency check and a disagreement beyond 1e-10 raises.

    Raises
    ------
    ValueError
        If the operators are not square, of one shape and finite, or the
        preconditioner diagonal ``delta`` is not a finite, positive vector
        of their size.
    numpy.linalg.LinAlgError
        If I + DB, I + DA or the closed form's matrix is exactly singular.
    IdentityCheckError
        If the two forms disagree, or the gap between them is NaN (the
        closed form overflowed), so the matrix cannot be vouched for.
    """
    a, b = _operator_pair(a_mat, b_mat)
    d = linalg.check_diagonal(delta, a.shape[0], "preconditioner diagonal")
    da = d[:, None] * a
    db = d[:, None] * b
    eye = np.eye(a.shape[0])
    eye_db = eye + db
    dbda = db @ da
    inner = _lu_solve(eye_db, eye - da)
    h = _lu_solve(eye + da, da + inner)
    h_alt = _lu_solve(eye_db + da + dbda, eye + dbda)
    gap = float(np.abs(h - h_alt).max())
    if not gap <= 1e-10 * (1.0 + float(np.abs(h).max())):
        raise IdentityCheckError(f"iteration-matrix identity violated: gap {gap}")
    return h


def dr_update_matrix(a_mat, b_mat, delta) -> np.ndarray:
    """Matrix of the splitting update on the governing vector.

    Similar to :func:`iteration_matrix` via conjugation with I + DA, hence
    the same spectrum.
    """
    a, b = _operator_pair(a_mat, b_mat)
    d = linalg.check_diagonal(delta, a.shape[0], "preconditioner diagonal")
    eye = np.eye(a.shape[0])
    res_a = _lu_solve(eye + d[:, None] * a, eye)
    res_b = _lu_solve(eye + d[:, None] * b, eye)
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
    records, not raised.
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
        ratio = monotonicity_ratio(a, d, vecs[:, idx])
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
    UnboundedStepsizeError
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
        raise UnboundedStepsizeError("unbounded optimal stepsize: block maps vector to zero")
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
    t-major then s; ``best`` is :func:`best_row` of them.  Each pair costs
    one :func:`iteration_matrix` and one :func:`spectral_radius`, which
    computes eigenvalues only.
    """
    t_vals = np.asarray(t_grid, dtype=float)
    s_vals = np.asarray(s_grid, dtype=float)
    for name, vals in (("t", t_vals), ("s", s_vals)):
        if vals.ndim != 1 or vals.size == 0 or not np.all(np.isfinite(vals) & (vals > 0)):
            raise ValueError(
                f"{name} grid of shape {vals.shape} must be nonempty, 1-D, finite and positive")
    a = pair.block_diag_half()
    b = pair.skew_half()
    n, m = pair.primal_dim, pair.dual_dim
    rows = []
    for t in t_vals:
        for s in s_vals:
            d = np.concatenate([np.full(n, t), np.full(m, s)])
            rho = spectral_radius(iteration_matrix(a, b, d))
            rows.append(ScanRow(float(t), float(s), rho))
    return RadiusScan(rows=rows, best=best_row(rows))


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
