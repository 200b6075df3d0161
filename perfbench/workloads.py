"""The four benchmark workloads, their inputs and their correctness checks.

Each workload is a closed batch: its body runs a fixed list of units one
after another in this process, and a unit is one solve or one spectral scan.
Inputs come only from the workload seed.  ``setup`` generates them (this is
what ``setup_s`` times); ``body`` is the timed part, split into laps by
``laps`` (see :class:`Laps`), and ``estimate`` names how ``run.body_time``
turns the laps into a run's body time; ``digest`` hashes each unit's
outputs; ``check_unit`` decides, after the timed loop, whether a unit's
output is correct.  LAD solves must certify a relative primal-dual
gap of at most 1%.  TV solves at 1000 sweeps cannot (at weight 0.1 the gap
is several percent on every seed), so each is compared with an independent
restatement of the iteration instead.

- ``lad-adaptive``: LAD 200x100 under ``TsAdaptivePolicy``; per-sweep overhead
  dominates and the 100x100 factorizations are negligible.
- ``tv-sweep``: the criterion-8 regularization sweep on TV denoising, n=500;
  the dense linear-solve layer and the adaptive warm-up refactorizations
  dominate.
- ``spectrum-scan``: ``drsplit spectrum`` on a 20x20 grid; only ``spectral``
  and ``linalg.eig`` run, the solver is bypassed.
- ``compare-grid``: ``drsplit compare --grid 4``; many short solves at 16
  constant pairs, with trace CSVs and a plot written.
"""

import hashlib
import io
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from drsplit import adaptive, cli, experiments, pddr, report, spectral
from drsplit.adaptive import AdaptiveConfig

# Relative primal-dual gap required of a LAD solve (criterion 9's 1%).
GAP_TOL = 0.01
# Slack on spectral radii and disc checks, as in drsplit.spectral.
RHO_SLACK = 1e-8
# Agreement required between a TV solve and the reference iteration.
REFERENCE_RTOL = 1e-6
TV_WEIGHTS = (0.01, 0.1, 1.0, 10.0)


@dataclass
class Unit:
    """One solve or scan of a body; failed when ``error`` is set."""

    name: str
    error: str | None = None
    digest: str = ""
    result: object = None
    info: dict = field(default_factory=dict)


class Laps:
    """Splits a body into laps at every ``every``-th call of program functions.

    Each point is ``(module, attr, every)``.  While :meth:`timing` is active,
    ``module.attr`` is replaced by a wrapper that takes a ``perf_counter``
    timestamp after every ``every``-th call and returns exactly what the
    function returned.  The wrapper costs well under a microsecond per call,
    against about 100 us per sweep or 1 ms per spectral radius.  Every body of
    a workload runs the same calls, so it has the same laps.
    """

    def __init__(self, *points):
        self.points = points

    @contextmanager
    def timing(self):
        """Yield the list of timestamps: the start, one per lap end, the end."""
        clock = time.perf_counter
        marks = [clock()]
        saved = []
        for module, attr, every in self.points:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _marking(original, every, marks, clock))
        try:
            yield marks
        finally:
            marks.append(clock())
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _marking(fn, every: int, marks: list, clock):
    count = [0]

    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        count[0] += 1
        if count[0] == every:
            count[0] = 0
            marks.append(clock())
        return result

    return marked


def derived_seeds(seed: int, count: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _relative_gap(primal: float, dual: float) -> float:
    return (primal - dual) / max(abs(primal), 1e-300)


class _SolverWorkload:
    """A batch of ``pddr.solve`` calls on instances made at setup."""

    sweeps: int
    work_unit = "sweeps"
    estimate = "laps"

    def __init__(self):
        self.instances = []

    @property
    def work(self) -> int:
        return len(self.instances) * self.sweeps

    def policy(self):
        return adaptive.TsAdaptivePolicy()

    def problems(self):
        raise NotImplementedError

    def body(self, out_dir: Path, tracer) -> list[Unit]:
        units = []
        # Problems are wired afresh so that every body pays for the lazily
        # built Gram matrix, as a user pays for it once per instance.
        for name, prob in self.problems():
            unit = Unit(name)
            try:
                unit.result = pddr.solve(prob, self.policy(),
                                         max_iter=self.sweeps, tol=0.0)
            except Exception as exc:  # a failed unit is counted, not fatal
                unit.error = f"{type(exc).__name__}: {exc}"
            units.append(unit)
        return units

    def digest(self, units: list[Unit]) -> None:
        for unit in units:
            if unit.error is None:
                x, y, trace = unit.result
                unit.digest = _digest(x.tobytes(), y.tobytes(),
                                      np.array(trace.rows, dtype=float).tobytes())

    def check_trace(self, unit: Unit) -> str | None:
        x, y, trace = unit.result
        if len(trace.rows) != self.sweeps:
            return f"trace has {len(trace.rows)} rows, expected {self.sweeps}"
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))
                and np.all(np.isfinite(np.array(trace.rows, dtype=float)))):
            return "non-finite output"
        return None


class LadAdaptive(_SolverWorkload):
    name = "lad-adaptive"

    def __init__(self, count: int = 3, sweeps: int = 5000):
        super().__init__()
        self.count = count
        self.sweeps = sweeps
        self.laps = Laps((pddr, "pd_dr_step", 250))

    def setup(self, seed: int) -> None:
        self.instances = [experiments.gen_lad(s)[0] for s in derived_seeds(seed, self.count)]

    def problems(self):
        for inst in self.instances:
            yield (f"lad-{inst.seed}",
                   experiments.make_lad_problem(inst.design, inst.observations,
                                                inst.reg_weight))

    def check_unit(self, index: int, unit: Unit) -> str | None:
        error = self.check_trace(unit)
        if error is not None:
            return error
        x, y, _ = unit.result
        gap = unit.info["rel_gap"] = lad_gap(self.instances[index], x, y)
        if not gap <= GAP_TOL:
            return f"relative gap {gap:.3e} above {GAP_TOL}"
        return None

    def baseline_row(self, wall: float, layers: dict) -> str:
        return f"LAD 200x100, TsAdaptivePolicy: {1e6 * wall / self.work:.1f} us/sweep"


def lad_gap(inst, x, y) -> float:
    """Relative gap of ``||Ax-b||_1 + lam||x||_1`` against ``-b'y^``.

    ``y^`` is ``y`` scaled into the dual feasible set ``||A'y^||_inf <= lam``
    (``||y||_inf <= 1`` holds already, and scaling down keeps it).
    """
    a, b, lam = inst.design, inst.observations, inst.reg_weight
    primal = float(np.abs(a @ x - b).sum() + lam * np.abs(x).sum())
    scale = min(1.0, lam / max(float(np.abs(a.T @ y).max()), 1e-300))
    return _relative_gap(primal, -float(b @ (scale * y)))


class TvSweep(_SolverWorkload):
    name = "tv-sweep"
    estimate = "median"  # only 4 or 5 bodies a run; see the run.py docstring

    def __init__(self, weights=TV_WEIGHTS, sweeps: int = 1000, n: int = 500):
        super().__init__()
        self.weights = tuple(weights)
        self.sweeps = sweeps
        self.n = n
        self.laps = Laps((pddr, "pd_dr_step", 50))

    def setup(self, seed: int) -> None:
        (signal_seed,) = derived_seeds(seed, 1)
        self.instances = [experiments.gen_tv(signal_seed, n=self.n, reg_weight=w)[0]
                          for w in self.weights]

    def problems(self):
        for inst in self.instances:
            prob, _ = experiments.make_tv_problem(inst.noisy, inst.reg_weight)
            yield f"tv-{inst.seed}-w{inst.reg_weight:g}", prob

    def check_unit(self, index: int, unit: Unit) -> str | None:
        error = self.check_trace(unit)
        if error is not None:
            return error
        inst = self.instances[index]
        x, y, trace = unit.result
        gap = unit.info["rel_gap"] = tv_gap(inst, x, y)
        if gap < -1e-9:
            return f"dual value above primal value (relative gap {gap:.3e})"
        x_ref, y_ref, steps_ref = tv_reference(inst.noisy, inst.reg_weight, self.sweeps)
        steps = np.array([(r.t, r.s) for r in trace.rows])
        for label, got, want in (("x", x, x_ref), ("y", y, y_ref),
                                 ("stepsizes", steps, steps_ref)):
            err = float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))
            unit.info[f"ref_err_{label}"] = err
            if not err <= REFERENCE_RTOL:
                return f"{label} differs from the reference iteration by {err:.3e}"
        return None

    def baseline_row(self, wall: float, layers: dict) -> str:
        row = f"TV n={self.n}: {wall / (self.work / 1000):.3f} s per 1000 sweeps"
        if layers:
            per_solve = layers["linalg.spd_factor.calls"] / len(self.instances)
            row += (f", {per_solve:.1f} Cholesky factorizations per solve at "
                    f"{layers['linalg.spd_factor.ms_per_call']:.2f} ms each")
        return row


def tv_gap(inst, x, y) -> float:
    """Relative gap of ``0.5||x-z||^2 + lam||Dx||_1`` against ``-0.5||D'y||^2 + (D'y)'z``."""
    z, lam, diff = inst.noisy, inst.reg_weight, inst.difference
    primal = float(0.5 * np.sum((x - z) ** 2) + lam * np.abs(diff.matvec(x)).sum())
    w = diff.rmatvec(y)
    return _relative_gap(primal, float(-0.5 * w @ w + w @ z))


def tv_reference(noisy, weight: float, sweeps: int):
    """The sweep of :mod:`drsplit.pddr` and the two-sided adaptive rule of
    :mod:`drsplit.adaptive`, restated in plain numpy for TV denoising.

    The coupled solve goes through the primal-side Schur complement
    ``I + ts D'D``, which is tridiagonal, by a banded Cholesky factor; the
    solver uses a dense factor of the dual side, so the two agree to
    rounding, not bitwise.  Returns the last shadow pair and the (t, s) used
    by each step.
    """
    z = np.asarray(noisy, dtype=float)
    n = z.size
    cfg = AdaptiveConfig()
    t, s = min(1.0, cfg.cap), min(1.0, cfg.cap)
    p, q = np.zeros(n), np.zeros(n - 1)
    laplacian_diag = np.full(n, 2.0)
    laplacian_diag[[0, -1]] = 1.0
    factor, factored_ts = None, None
    steps = np.empty((sweeps, 2))

    def diff(u):  # D u
        return np.diff(u)

    def diff_adjoint(r):  # D' r
        return -np.diff(np.concatenate(([0.0], r, [0.0])))

    def one_side(step, point, shadow, k, lo, hi):
        num = np.linalg.norm(point)
        den = np.linalg.norm(shadow - point)
        if den == 0.0:
            if num == 0.0:
                return step
            ratio = hi
        else:
            ratio = num / den
        w = 2.0 ** (-k)
        return min(((1.0 - w) + w * min(max(ratio, lo), hi)) * step, cfg.cap)

    for k in range(sweeps):
        steps[k] = t, s
        x = (p + t * z) / (1.0 + t)
        y = np.clip(q, -weight, weight)
        r1, r2 = 2.0 * x - p, 2.0 * y - q
        if factored_ts != t * s:
            ts = factored_ts = t * s
            bands = np.vstack([np.concatenate(([0.0], np.full(n - 1, -ts))),
                               1.0 + ts * laplacian_diag])
            factor = cholesky_banded(bands)
        u = cho_solve_banded((factor, False), r1 - t * diff_adjoint(r2))
        v = r2 + s * diff(u)
        p_next, q_next = p + u - x, q + v - y
        t, s = (one_side(t, x, p, k, cfg.lo_t, cfg.hi_t),
                one_side(s, y, q, k, cfg.lo_s, cfg.hi_s))
        p, q = p_next, q_next
    return x, y, steps


class _CliWorkload:
    """A batch of in-process ``cli.main`` calls; outputs land in ``out_dir``."""

    estimate = "laps"

    def run_cli(self, argv, tracer) -> tuple[int, str]:
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = tracer.call_cli(argv) if tracer is not None else cli.main(argv)
        return code, sink.getvalue()


class SpectrumScan(_CliWorkload):
    name = "spectrum-scan"
    work_unit = "scan pairs"

    def __init__(self, count: int = 3, grid: int = 20, half_dim: int = 25):
        self.count = count
        self.grid = grid
        self.half_dim = half_dim
        self.seeds: list[int] = []
        self.laps = Laps((spectral, "spectral_radius", 20))

    @property
    def work(self) -> int:
        return len(self.seeds) * self.grid * self.grid

    def setup(self, seed: int) -> None:
        self.seeds = derived_seeds(seed, self.count)

    def body(self, out_dir: Path, tracer) -> list[Unit]:
        units = []
        for seed in self.seeds:
            scan, plot = out_dir / f"scan-{seed}.csv", out_dir / f"discs-{seed}.svg"
            code, log = self.run_cli(
                ["spectrum", "--seed", str(seed), "--grid", str(self.grid),
                 "--half-dim", str(self.half_dim), "--out", str(scan), "--plot", str(plot)],
                tracer)
            unit = Unit(f"spectrum-{seed}", result=(seed, scan, plot))
            if code != 0:
                unit.error = f"exit {code}: {log.strip()[-300:]}"
            units.append(unit)
        return units

    def digest(self, units: list[Unit]) -> None:
        for unit in units:
            if unit.error is None:
                _, scan, plot = unit.result
                unit.digest = _digest(scan.read_bytes(), plot.read_bytes())

    def check_unit(self, index: int, unit: Unit) -> str | None:
        seed, scan_path, _ = unit.result
        scan = report.read_scan_csv(scan_path)
        rho = np.array([r.rho for r in scan.rows])
        if len(scan.rows) != self.grid * self.grid:
            return f"{len(scan.rows)} scan rows, expected {self.grid ** 2}"
        if not (np.all(np.isfinite(rho)) and rho.max() <= 1.0 + RHO_SLACK):
            return f"spectral radius {rho.max():.17g} above 1"
        pair = experiments.gen_monotone_pair(seed, self.half_dim)
        delta = np.concatenate([np.full(pair.primal_dim, scan.best.t),
                                np.full(pair.dual_dim, scan.best.s)])
        if not spectral.disc_report(pair, delta).all_contained():
            return "eigenvalue outside its disc at the best pair"
        return None

    def baseline_row(self, wall: float, layers: dict) -> str:
        grid = f"{self.grid}x{self.grid}, half_dim {self.half_dim}"
        if layers:
            return f"radius_scan {grid}: {layers['spectral.radius_scan.ms_per_call'] / 1e3:.3f} s"
        return f"drsplit spectrum {grid}, plot included: {wall / self.count:.3f} s per scan"


class CompareGrid(_CliWorkload):
    name = "compare-grid"
    work_unit = "sweeps"
    policies = ("constant", "t-adaptive", "ts-adaptive")

    def __init__(self, grid: int = 4, sweeps: int = 1000):
        self.grid = grid
        self.sweeps = sweeps
        self.seed = 0
        self.laps = Laps((pddr, "pd_dr_step", 250), (report, "write_trace_csv", 1))

    @property
    def solves(self) -> int:
        return len(self.policies) + self.grid * self.grid

    @property
    def work(self) -> int:
        return self.solves * self.sweeps

    def setup(self, seed: int) -> None:
        (self.seed,) = derived_seeds(seed, 1)

    def body(self, out_dir: Path, tracer) -> list[Unit]:
        runs, plot = out_dir / "runs", out_dir / "compare.svg"
        code, log = self.run_cli(
            ["compare", "--problem", "lad", "--grid", str(self.grid),
             "--max-iter", str(self.sweeps), "--seed", str(self.seed),
             "--out-dir", str(runs), "--plot", str(plot)],
            tracer)
        csvs = sorted(runs.glob("*.csv")) if code == 0 else []
        units = [Unit(path.stem, result=(path, plot)) for path in csvs]
        for i in range(len(units), self.solves):
            units.append(Unit(f"missing-{i}", error=f"exit {code}: {log.strip()[-300:]}"
                              if code != 0 else "trace CSV not written"))
        return units

    def digest(self, units: list[Unit]) -> None:
        for unit in units:
            if unit.error is None:
                csv, plot = unit.result
                unit.digest = _digest(csv.read_bytes(), plot.read_bytes())

    def check_unit(self, index: int, unit: Unit) -> str | None:
        trace = report.read_trace_csv(unit.result[0])
        if len(trace.rows) != self.sweeps:
            return f"{len(trace.rows)} trace rows, expected {self.sweeps}"
        if not np.all(np.isfinite(np.array(trace.rows, dtype=float))):
            return "non-finite value in the trace CSV"
        return None

    def baseline_row(self, wall: float, layers: dict) -> str:
        return (f"drsplit compare --grid {self.grid}: {wall:.3f} s for {self.solves} "
                f"solves of {self.sweeps} sweeps (no ROADMAP Baseline row)")


WORKLOADS = {w.name: w for w in (LadAdaptive, TvSweep, SpectrumScan, CompareGrid)}
