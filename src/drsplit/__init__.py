"""Douglas-Rachford splitting with adaptive stepsizes and spectral diagnostics.

The package splits into a small dense linear-algebra substrate
(:mod:`~drsplit.linalg`), closed-form proximal maps
(:mod:`~drsplit.operators`), the preconditioned proximal point engine
(:mod:`~drsplit.ppa_core`), the primal-dual splitting solver
(:mod:`~drsplit.pddr`), stepsize control (:mod:`~drsplit.adaptive`),
spectral analysis of the linear case (:mod:`~drsplit.spectral`), seeded
experiment generators (:mod:`~drsplit.experiments`), and CSV/SVG reporting
plus a CLI (:mod:`~drsplit.report`, :mod:`~drsplit.cli`).
"""

from .adaptive import (
    AdaptiveConfig,
    ConstantPolicy,
    TAdaptivePolicy,
    TsAdaptivePolicy,
    adaptive_update,
    default_relaxation,
)
from .experiments import gen_lad, gen_monotone_pair, gen_tv, run_comparison
from .linalg import LinearMap
from .pddr import PdProblem, block_resolvent, pd_dr_step, solve
from .ppa_core import PreconditionedResolvent, proximal_point
from .spectral import LinearMonotonePair, disc_report, radius_scan

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "ConstantPolicy",
    "LinearMap",
    "LinearMonotonePair",
    "PdProblem",
    "PreconditionedResolvent",
    "TAdaptivePolicy",
    "TsAdaptivePolicy",
    "adaptive_update",
    "block_resolvent",
    "default_relaxation",
    "disc_report",
    "gen_lad",
    "gen_monotone_pair",
    "gen_tv",
    "pd_dr_step",
    "proximal_point",
    "radius_scan",
    "run_comparison",
    "solve",
    "__version__",
]
