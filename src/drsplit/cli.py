"""Command-line front end for the experiment runs.

Subcommands: ``lad`` and ``tv`` solve a generated instance under a stepsize
policy and write the iteration trace as CSV; ``spectrum`` scans the spectral
radius of a random structured pair over a stepsize grid; ``compare`` runs
several policies on one instance.  The fully resolved configuration
(defaults included) is echoed to stderr before any computation.

Exit codes: 0 on success, 1 on a numerical abort or I/O failure, 2 on a
usage error.  A numerical abort is a diverged iterate, an iteration matrix
that fails its identity check, or a failed factorization, linear solve or
eigenvalue decomposition (``np.linalg.LinAlgError``).  Commands run with
numpy's overflow, invalid and divide warnings off, so a run that overflows
reports its abort on one line, with no numpy warning before it.
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import experiments, linalg, pddr, report, spectral
from .adaptive import AdaptiveConfig, ConstantPolicy, TAdaptivePolicy, TsAdaptivePolicy
from .ppa_core import IterationDiverged

__all__ = ["main"]

# np.linalg.LinAlgError covers every failed factorization, solve or
# eigenvalue iteration; it subclasses ValueError, so it is caught first.
_NUMERICAL_ERRORS = (IterationDiverged, spectral.IdentityCheckError, np.linalg.LinAlgError)

_POLICY_NAMES = ("constant", "t-adaptive", "ts-adaptive")


def _add_policy_choice(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", default="ts-adaptive",
                        choices=_POLICY_NAMES,
                        help="stepsize policy (constant uses --t0/--s0 throughout)")


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t0", type=float, default=1.0, help="initial primal stepsize")
    parser.add_argument("--s0", type=float, default=1.0, help="initial dual stepsize")
    parser.add_argument("--safeguard-lo", type=float, default=1e-4,
                        help="lower safeguard for the raw stepsize ratio")
    parser.add_argument("--safeguard-hi", type=float, default=1e4,
                        help="upper safeguard for the raw stepsize ratio")
    parser.add_argument("--cap", type=float, default=1e4,
                        help="hard upper bound on the stepsizes")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-iter", type=int, default=1000, help="iteration budget")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="relative step-residual stop (0 runs the full budget)")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")


def _build_policy(name: str, args: argparse.Namespace):
    # The config is built, and so validated, whichever policy is named.
    config = AdaptiveConfig(lo_t=args.safeguard_lo, hi_t=args.safeguard_hi,
                            lo_s=args.safeguard_lo, hi_s=args.safeguard_hi,
                            cap=args.cap)
    if name == "constant":
        return ConstantPolicy(args.t0, args.s0)
    if name == "t-adaptive":
        return TAdaptivePolicy(config)
    return TsAdaptivePolicy(config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsplit",
        description="Douglas-Rachford splitting experiments with adaptive stepsizes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lad = sub.add_parser("lad", help="l1-regularized least absolute deviations")
    lad.add_argument("--m", type=int, default=200, help="number of rows")
    lad.add_argument("--n", type=int, default=100, help="number of columns")
    lad.add_argument("--lambda", dest="reg_weight", type=float, default=1.0,
                     help="regularization weight")
    _add_policy_choice(lad)
    _add_policy_flags(lad)
    _add_solver_flags(lad)
    lad.add_argument("--out", required=True, help="trace CSV path")
    lad.add_argument("--plot", default=None, help="optional SVG path")
    lad.set_defaults(func=_cmd_lad)

    tv = sub.add_parser("tv", help="total-variation denoising")
    tv.add_argument("--n", type=int, default=500, help="signal length")
    tv.add_argument("--lambda", dest="reg_weight", type=float, default=1.0,
                    help="regularization weight")
    tv.add_argument("--noise", type=float, default=0.05,
                    help="noise standard deviation")
    _add_policy_choice(tv)
    _add_policy_flags(tv)
    _add_solver_flags(tv)
    tv.add_argument("--out", required=True, help="trace CSV path")
    tv.add_argument("--plot", default=None, help="optional SVG path")
    tv.set_defaults(func=_cmd_tv)

    spectrum = sub.add_parser("spectrum", help="spectral-radius stepsize scan")
    spectrum.add_argument("--half-dim", type=int, default=25, help="block dimension")
    spectrum.add_argument("--seed", type=int, default=0, help="instance seed")
    spectrum.add_argument("--grid", type=int, default=20,
                          help="grid points per stepsize axis")
    spectrum.add_argument("--grid-min", type=float, default=1e-3,
                          help="smallest grid stepsize")
    spectrum.add_argument("--grid-max", type=float, default=1e3,
                          help="largest grid stepsize")
    spectrum.add_argument("--out", required=True, help="scan CSV path")
    spectrum.add_argument("--plot", default=None,
                          help="optional SVG path (eigenvalues at the best grid pair)")
    spectrum.set_defaults(func=_cmd_spectrum)

    compare = sub.add_parser("compare", help="run several policies on one instance")
    compare.add_argument("--problem", default="lad", choices=["lad", "tv"],
                         help="instance family")
    compare.add_argument("--m", type=int, default=200, help="rows (lad)")
    compare.add_argument("--n", type=int, default=100, help="columns (lad) or length (tv)")
    compare.add_argument("--lambda", dest="reg_weight", type=float, default=1.0,
                         help="regularization weight")
    compare.add_argument("--noise", type=float, default=0.05,
                         help="noise standard deviation (tv)")
    compare.add_argument("--policies", default="constant,t-adaptive,ts-adaptive",
                         help="comma-separated policy names")
    compare.add_argument("--grid", type=int, default=0,
                         help="additionally run an NxN constant-stepsize grid")
    compare.add_argument("--grid-min", type=float, default=1e-3,
                         help="smallest grid stepsize")
    compare.add_argument("--grid-max", type=float, default=1e3,
                         help="largest grid stepsize")
    _add_policy_flags(compare)
    _add_solver_flags(compare)
    compare.add_argument("--out-dir", required=True, help="directory for trace CSVs")
    compare.add_argument("--plot", default=None, help="optional SVG path")
    compare.set_defaults(func=_cmd_compare)

    return parser


def _echo_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print("resolved config: " + json.dumps(resolved, default=str), file=sys.stderr)


def _solve_and_write(prob, args) -> None:
    policy = _build_policy(args.policy, args)
    x, y, trace = pddr.solve(prob, policy, max_iter=args.max_iter, tol=args.tol,
                             t0=args.t0, s0=args.s0)
    report.write_trace_csv(trace, args.out)
    if args.plot:
        report.write_plot(trace, args.plot)
    _, objective, t, s, _ = trace.data[-1].tolist()
    print(f"finished after {len(trace)} iterations: "
          f"objective {objective:.9e}, t {t:.6g}, s {s:.6g}")


def _cmd_lad(args) -> int:
    _, prob = experiments.gen_lad(args.seed, args.m, args.n, args.reg_weight)
    _solve_and_write(prob, args)
    return 0


def _cmd_tv(args) -> int:
    _, prob = experiments.gen_tv(args.seed, args.n, args.noise, args.reg_weight)
    _solve_and_write(prob, args)
    return 0


def _cmd_spectrum(args) -> int:
    # Checked before the pair is generated, which alone is O(half_dim^2) memory.
    linalg.check_eig_dim(2 * args.half_dim)
    pair = experiments.gen_monotone_pair(args.seed, args.half_dim)
    grid = experiments.log_grid(args.grid_min, args.grid_max, args.grid)
    scan = spectral.radius_scan(pair, grid, grid)
    report.write_scan_csv(scan, args.out)
    if args.plot:
        n, m = pair.primal_dim, pair.dual_dim
        delta = np.concatenate([np.full(n, scan.best.t), np.full(m, scan.best.s)])
        report.write_plot(spectral.disc_report(pair, delta), args.plot)
    print(f"scanned {len(scan.rows)} stepsize pairs: best radius {scan.best.rho:.9e} "
          f"at t {scan.best.t:.6g}, s {scan.best.s:.6g}")
    return 0


def _cmd_compare(args) -> int:
    if args.grid < 0:
        raise ValueError(f"grid size must be nonnegative, got {args.grid}")
    if args.problem == "lad":
        _, prob = experiments.gen_lad(args.seed, args.m, args.n, args.reg_weight)
    else:
        _, prob = experiments.gen_tv(args.seed, args.n, args.noise, args.reg_weight)
    names = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not names:
        raise ValueError("no policies given")
    unknown = sorted(set(names) - set(_POLICY_NAMES))
    if unknown:
        raise ValueError(f"unknown policies: {', '.join(unknown)}")
    policies = [_build_policy(name, args) for name in names]
    if args.grid > 0:
        grid = experiments.log_grid(args.grid_min, args.grid_max, args.grid)
        for t in grid:
            for s in grid:
                names.append(f"constant_t{t:.3e}_s{s:.3e}")
                policies.append(ConstantPolicy(float(t), float(s)))
    # Each run writes <name>.csv, so a repeated name would overwrite a trace.
    repeated = sorted(name for name, count in Counter(names).items() if count > 1)
    if repeated:
        raise ValueError(f"repeated policies: {', '.join(repeated)}")
    # Made before the runs, so an unusable directory fails before any solve.
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = experiments.run_comparison(prob, policies, max_iter=args.max_iter,
                                        tol=args.tol, t0=args.t0, s0=args.s0)
    for name, trace in zip(names, traces):
        report.write_trace_csv(trace, out_dir / f"{name}.csv")
    if args.plot:
        report.write_plot(traces, args.plot, labels=names)
    for name, trace in zip(names, traces):
        print(f"{name}: final objective {float(trace.column('objective')[-1]):.9e}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except _NUMERICAL_ERRORS as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
