"""Seeded experiment generators and the policy comparison harness.

All randomness flows through ``numpy.random.default_rng(seed)``, so equal
seeds give bitwise-identical instances and, the solver being deterministic,
bitwise-identical traces.  The total-variation signal's shape is fixed
(``TV_PLATEAUS`` plateaus within ``DEFAULT_TV_AMPLITUDE``); its length,
noise level and regularization weight are the settings.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pddr
from .linalg import DifferenceMap, LinearMap
from .operators import (
    box_dual_prox,
    quadratic_fidelity_prox,
    scaled_l1_prox,
    shifted_l1_conjugate_prox,
)
from .pddr import PdProblem, SolveTrace
from .spectral import LinearMonotonePair

__all__ = [
    "LadInstance",
    "TvInstance",
    "gen_lad",
    "gen_monotone_pair",
    "gen_tv",
    "log_grid",
    "make_lad_problem",
    "make_tv_problem",
    "run_comparison",
]

# Plateau amplitude for the denoising signal.  Kept small so the largest
# regularization weight in the standard sweep (10) dominates the signal's
# cumulative variation and drives the dual stepsize into its cap.
DEFAULT_TV_AMPLITUDE = 0.05
# Number of constant pieces in the denoising signal (fewer if n is smaller).
TV_PLATEAUS = 5


@dataclass(frozen=True, eq=False)
class LadInstance:
    """Random least-absolute-deviations regression with an l1 penalty."""

    design: np.ndarray
    observations: np.ndarray
    reg_weight: float
    seed: int


@dataclass(frozen=True, eq=False)
class TvInstance:
    """Noisy piecewise-constant signal for total-variation denoising."""

    noisy: np.ndarray
    difference: DifferenceMap
    reg_weight: float
    seed: int


def make_lad_problem(design, observations, reg_weight: float) -> PdProblem:
    """Wire ``min_x ||Ax - b||_1 + reg_weight * ||x||_1`` from finite data."""
    a = np.asarray(design, dtype=float)
    b = np.asarray(observations, dtype=float)
    if not 0 < reg_weight < math.inf:
        raise ValueError(
            f"regularization weight must be finite and positive, got {reg_weight}")
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValueError(f"shape mismatch: design {a.shape}, observations {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("observations have non-finite entries")

    # One matrix product for the whole stack.  np.add.reduce is what
    # ndarray.sum calls, minus its Python-level argument handling; a row sum
    # of a C-ordered stack has the bits of the sum of that row alone.
    def objective(xs):
        r = xs @ a.T
        r -= b
        np.abs(r, out=r)
        return np.add.reduce(r, axis=1) + reg_weight * np.add.reduce(np.abs(xs), axis=1)

    return PdProblem(
        f_prox=scaled_l1_prox(reg_weight),
        gstar_prox=shifted_l1_conjugate_prox(b),
        coupling=LinearMap(a),
        objective=objective,
    )


def gen_lad(seed: int, m: int = 200, n: int = 100,
            reg_weight: float = 1.0) -> tuple[LadInstance, PdProblem]:
    """Standard-normal design and observations, m > n."""
    if not m > n > 0:
        raise ValueError(f"need m > n > 0, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((m, n))
    observations = rng.standard_normal(m)
    inst = LadInstance(design, observations, float(reg_weight), seed)
    return inst, make_lad_problem(design, observations, reg_weight)


def make_tv_problem(noisy, reg_weight: float) -> tuple[PdProblem, DifferenceMap]:
    """Wire ``min_x 0.5 ||x - noisy||^2 + reg_weight * ||Dx||_1`` for a finite
    1-D signal ``noisy``."""
    y = np.asarray(noisy, dtype=float)
    if not 0 < reg_weight < math.inf:
        raise ValueError(
            f"regularization weight must be finite and positive, got {reg_weight}")
    if y.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("signal has non-finite entries")
    diff = DifferenceMap(y.size)

    # Row by row the bits of 0.5 * sum((x - y)**2) + w * sum(|Dx|) at one x.
    def objective(xs):
        r = xs - y
        np.square(r, out=r)
        d = xs[:, 1:] - xs[:, :-1]
        np.abs(d, out=d)
        return 0.5 * np.add.reduce(r, axis=1) + reg_weight * np.add.reduce(d, axis=1)

    prob = PdProblem(
        f_prox=quadratic_fidelity_prox(y),
        gstar_prox=box_dual_prox(reg_weight),
        coupling=diff,
        objective=objective,
    )
    return prob, diff


def gen_tv(seed: int, n: int = 500, noise_level: float = 0.05,
           reg_weight: float = 1.0) -> tuple[TvInstance, PdProblem]:
    """Piecewise-constant signal of ``TV_PLATEAUS`` plateaus (at most ``n``), at
    levels uniform in [-a, a] for a = ``DEFAULT_TV_AMPLITUDE``, plus Gaussian noise."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if not 0 <= noise_level < math.inf:
        raise ValueError(f"noise level must be finite and nonnegative, got {noise_level}")
    rng = np.random.default_rng(seed)
    plateaus = min(TV_PLATEAUS, n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=plateaus - 1, replace=False))
    levels = rng.uniform(-DEFAULT_TV_AMPLITUDE, DEFAULT_TV_AMPLITUDE, size=plateaus)
    clean = np.repeat(levels, np.diff(np.concatenate([[0], cuts, [n]])))
    noisy = clean + noise_level * rng.standard_normal(n)
    prob, diff = make_tv_problem(noisy, reg_weight)
    inst = TvInstance(noisy, diff, float(reg_weight), seed)
    return inst, prob


def gen_monotone_pair(seed: int, half_dim: int = 25) -> LinearMonotonePair:
    """Random structured pair for spectral experiments.

    Both diagonal blocks are Gram matrices shifted by 0.1, the second one
    entering through its inverse; the coupling has uniform [0, 1) entries.
    """
    if half_dim < 1:
        raise ValueError(f"half_dim must be positive, got {half_dim}")
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((half_dim, half_dim))
    g2 = rng.standard_normal((half_dim, half_dim))
    block_one = g1.T @ g1 + 0.1 * np.eye(half_dim)
    block_two = g2.T @ g2 + 0.1 * np.eye(half_dim)
    coupling = rng.uniform(0.0, 1.0, size=(half_dim, half_dim))
    return LinearMonotonePair(
        block_one=block_one,
        block_two_inv=np.linalg.inv(block_two),
        coupling=coupling,
    )


def log_grid(lo: float, hi: float, num: int) -> np.ndarray:
    """Logarithmically spaced grid, endpoints included."""
    if not 0 < lo <= hi < np.inf:
        raise ValueError(f"need 0 < lo <= hi < inf, got {lo}, {hi}")
    if num < 1:
        raise ValueError(f"need at least one grid point, got {num}")
    return np.geomspace(lo, hi, num)


def run_comparison(prob: PdProblem, policies: Sequence, *, max_iter: int,
                   tol: float = 0.0, t0: float = 1.0, s0: float = 1.0) -> list[SolveTrace]:
    """Solve the same problem once per policy from identical starts."""
    traces = []
    for policy in policies:
        _, _, trace = pddr.solve(prob, policy, max_iter=max_iter, tol=tol, t0=t0, s0=s0)
        traces.append(trace)
    return traces
