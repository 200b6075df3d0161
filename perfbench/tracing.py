"""Spans recorded from outside the program, and the per-layer metrics.

A :class:`Tracer` records one span per call of a wrapped callable: its
name, the span that was open when it started, and its start and end in
``perf_counter_ns``.  :meth:`Tracer.installed` wraps the module functions
through which drsplit's layers call each other, and restores them on exit.
Because every wrapper returns exactly what the wrapped callable returned,
a traced run computes the same bits as an untraced one; the benchmark
checks that.

The prox, objective and policy objects are not module functions: they are
handed to ``pddr.solve``.  The wrapper of ``pddr.solve`` therefore swaps
them for traced proxies before the call, which covers both the solves the
benchmark starts itself and the ones the CLI starts.

``ppa_core`` is not on the path of any workload and is left unmeasured.
"""

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from drsplit import cli, experiments, linalg, pddr, report, spectral

UNMEASURED = "ppa_core: not on the path of any workload; left unmeasured"

# (module, attribute, span name) of each layer boundary wrapped as it is.
_BOUNDARIES = (
    (pddr, "pd_dr_step", "pddr.sweep"),
    (pddr, "block_resolvent", "pddr.block_resolvent"),
    (linalg, "spd_factor", "linalg.spd_factor"),
    (linalg, "spd_solve", "linalg.spd_solve"),
    (linalg, "eig_pairs", "linalg.eig"),
    (spectral, "iteration_matrix", "spectral.iteration_matrix"),
    (spectral, "spectral_radius", "spectral.spectral_radius"),
    (spectral, "radius_scan", "spectral.radius_scan"),
    (spectral, "disc_report", "spectral.disc_report"),
    (experiments, "gen_lad", "experiments.generate"),
    (experiments, "gen_tv", "experiments.generate"),
    (experiments, "gen_monotone_pair", "experiments.generate"),
    (experiments, "run_comparison", "experiments.run_comparison"),
    (report, "write_trace_csv", "report.write_trace_csv"),
    (report, "write_scan_csv", "report.write_scan_csv"),
    (report, "write_plot", "report.write_plot"),
)

_F64 = 8


@dataclass
class SpanTotals:
    calls: int = 0
    total_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class Tracer:
    """In-memory span recorder; spans are written out by the caller."""

    def __init__(self):
        # One [name, parent index, start ns, end ns] per span, in start order.
        self.spans: list = []
        self._open: list[int] = []
        # Quantities derived from array shapes and outputs, per body.
        self.extra: Counter = Counter()
        # Per solve: (sweeps, first step from which t and s stay fixed).
        self.solves: list[tuple[int, int]] = []

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, result)`` runs untimed."""
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- the objects handed to solve ----------------------------------------

    def _traced_solve(self, solve):
        def solve_with_traced_arguments(prob, policy, **kwargs):
            prob = pddr.PdProblem(
                f_prox=self.wrap("operators.prox_f", prob.f_prox),
                gstar_prox=self.wrap("operators.prox_gstar", prob.gstar_prox),
                coupling=prob.coupling,
                objective=self.wrap("experiments.objective", prob.objective),
            )
            return solve(prob, _TracedPolicy(policy, self), **kwargs)

        def record(args, result):
            rows = result[2].rows
            self.solves.append((len(rows), freeze_step(rows)))

        return self.wrap("pddr.solve", solve_with_traced_arguments, after=record)

    def _count_resolvent_bytes(self, args, result):
        rows, cols = args[4].shape
        dim = min(rows, cols)
        # K read for the forward and the adjoint product, plus the two
        # triangular halves of the factor read by the solves.
        self.extra["block_resolvent.bytes"] += _F64 * (2 * rows * cols + dim * dim)

    def _count_factor_flops(self, args, result):
        self.extra["spd_factor.flops"] += result.dim ** 3 / 3.0

    def _count_csv_bytes(self, args, result):
        self.extra["write_trace_csv.bytes"] += os.path.getsize(args[1])

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        hooks = {
            "pddr.block_resolvent": self._count_resolvent_bytes,
            "linalg.spd_factor": self._count_factor_flops,
            "report.write_trace_csv": self._count_csv_bytes,
        }
        saved = [(pddr, "solve", pddr.solve)]
        pddr.solve = self._traced_solve(pddr.solve)
        for module, attr, name in _BOUNDARIES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, after=hooks.get(name)))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call_cli(self, argv) -> int:
        return self.wrap("cli.main", cli.main)(argv)

    # -- aggregation -----------------------------------------------------------

    def totals(self) -> dict[str, SpanTotals]:
        out: dict[str, SpanTotals] = defaultdict(SpanTotals)
        for name, parent, start, end in self.spans:
            rec = out[name]
            rec.calls += 1
            rec.total_ns += end - start
            if parent >= 0:
                out[self.spans[parent][0]].child_ns += end - start
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,name,parent,start_ns,end_ns\n")
            for idx, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx},{name},{parent},{start},{end}\n")


class _TracedPolicy:
    """Stepsize policy proxy that times ``update`` and counts cap hits."""

    def __init__(self, policy, tracer: Tracer):
        self._policy = policy
        self._tracer = tracer
        config = getattr(policy, "config", None)
        self._cap = getattr(config, "cap", None)
        self.update = tracer.wrap("adaptive.update", policy.update, after=self._count_caps)

    def initial(self, t0, s0):
        return self._policy.initial(t0, s0)

    def _count_caps(self, args, result):
        if self._cap is not None:
            self._tracer.extra["cap_hits"] += sum(v == self._cap for v in result)


def freeze_step(rows) -> int:
    """First step k from which every later step used the final (t, s) bitwise."""
    last = (rows[-1].t, rows[-1].s)
    k = len(rows)
    while k > 0 and (rows[k - 1].t, rows[k - 1].s) == last:
        k -= 1
    return k


# -- per-layer metrics ----------------------------------------------------------

# (metric, unit, span it needs).  Counts, flops and bytes are per body; times
# are per call unless the name says otherwise.  A metric whose span never ran
# on a workload is reported as 0 and listed as not applicable.
PER_LAYER = (
    ("operators.prox_f.calls", "count", "operators.prox_f"),
    ("operators.prox_f.us_per_call", "us", "operators.prox_f"),
    ("operators.prox_gstar.calls", "count", "operators.prox_gstar"),
    ("operators.prox_gstar.us_per_call", "us", "operators.prox_gstar"),
    ("linalg.spd_factor.calls", "count", "linalg.spd_factor"),
    ("linalg.spd_factor.ms_per_call", "ms", "linalg.spd_factor"),
    ("linalg.spd_factor.mflop_computed", "Mflop", "linalg.spd_factor"),
    ("linalg.spd_solve.calls", "count", "linalg.spd_solve"),
    ("linalg.spd_solve.us_per_call", "us", "linalg.spd_solve"),
    ("linalg.eig.calls", "count", "linalg.eig"),
    ("linalg.eig.ms_per_call", "ms", "linalg.eig"),
    ("pddr.block_resolvent.self_us_per_call", "us", "pddr.block_resolvent"),
    ("pddr.block_resolvent.mbytes_computed", "MB", "pddr.block_resolvent"),
    ("pddr.block_resolvent.factor_reuse_ratio", "ratio", "pddr.block_resolvent"),
    ("pddr.sweep.calls", "count", "pddr.sweep"),
    ("pddr.sweep.self_us_per_call", "us", "pddr.sweep"),
    ("pddr.solve.self_us_per_sweep", "us", "pddr.solve"),
    ("adaptive.update.us_per_call", "us", "adaptive.update"),
    ("adaptive.freeze_k", "step", "pddr.solve"),
    ("adaptive.cap_hits", "count", "adaptive.update"),
    ("experiments.objective.us_per_call", "us", "experiments.objective"),
    ("experiments.generate_ms", "ms", "experiments.generate"),
    ("experiments.run_comparison.self_ms", "ms", "experiments.run_comparison"),
    ("spectral.iteration_matrix.ms_per_call", "ms", "spectral.iteration_matrix"),
    ("spectral.spectral_radius.ms_per_call", "ms", "spectral.spectral_radius"),
    ("spectral.radius_scan.ms_per_call", "ms", "spectral.radius_scan"),
    ("spectral.disc_report.ms", "ms", "spectral.disc_report"),
    ("report.write_trace_csv.ms_per_call", "ms", "report.write_trace_csv"),
    ("report.write_trace_csv.bytes", "B", "report.write_trace_csv"),
    ("report.write_scan_csv.ms", "ms", "report.write_scan_csv"),
    ("report.write_plot.ms_per_call", "ms", "report.write_plot"),
    ("cli.main.self_ms", "ms", "cli.main"),
)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced body, keyed as in :data:`PER_LAYER`,
    and the names of those whose span never ran (reported as 0)."""
    tot = tracer.totals()

    def calls(span):
        return float(tot[span].calls)

    def per_call(span, scale, self_time=False):
        rec = tot[span]
        if not rec.calls:
            return 0.0
        return (rec.self_ns if self_time else rec.total_ns) / rec.calls / scale

    us, ms = 1e3, 1e6
    sweeps = sum(n for n, _ in tracer.solves)
    resolvents = tot["pddr.block_resolvent"].calls
    values = {
        "operators.prox_f.calls": calls("operators.prox_f"),
        "operators.prox_f.us_per_call": per_call("operators.prox_f", us),
        "operators.prox_gstar.calls": calls("operators.prox_gstar"),
        "operators.prox_gstar.us_per_call": per_call("operators.prox_gstar", us),
        "linalg.spd_factor.calls": calls("linalg.spd_factor"),
        "linalg.spd_factor.ms_per_call": per_call("linalg.spd_factor", ms),
        "linalg.spd_factor.mflop_computed": tracer.extra["spd_factor.flops"] / 1e6,
        "linalg.spd_solve.calls": calls("linalg.spd_solve"),
        "linalg.spd_solve.us_per_call": per_call("linalg.spd_solve", us),
        "linalg.eig.calls": calls("linalg.eig"),
        "linalg.eig.ms_per_call": per_call("linalg.eig", ms),
        "pddr.block_resolvent.self_us_per_call":
            per_call("pddr.block_resolvent", us, self_time=True),
        "pddr.block_resolvent.mbytes_computed":
            tracer.extra["block_resolvent.bytes"] / 1e6,
        "pddr.block_resolvent.factor_reuse_ratio":
            1.0 - tot["linalg.spd_factor"].calls / resolvents if resolvents else 0.0,
        "pddr.sweep.calls": calls("pddr.sweep"),
        "pddr.sweep.self_us_per_call": per_call("pddr.sweep", us, self_time=True),
        "pddr.solve.self_us_per_sweep":
            tot["pddr.solve"].self_ns / sweeps / us if sweeps else 0.0,
        "adaptive.update.us_per_call": per_call("adaptive.update", us),
        "adaptive.freeze_k":
            sum(k for _, k in tracer.solves) / len(tracer.solves) if tracer.solves else 0.0,
        "adaptive.cap_hits": float(tracer.extra["cap_hits"]),
        "experiments.objective.us_per_call": per_call("experiments.objective", us),
        "experiments.generate_ms": per_call("experiments.generate", ms),
        "experiments.run_comparison.self_ms":
            per_call("experiments.run_comparison", ms, self_time=True),
        "spectral.iteration_matrix.ms_per_call": per_call("spectral.iteration_matrix", ms),
        "spectral.spectral_radius.ms_per_call": per_call("spectral.spectral_radius", ms),
        "spectral.radius_scan.ms_per_call": per_call("spectral.radius_scan", ms),
        "spectral.disc_report.ms": per_call("spectral.disc_report", ms),
        "report.write_trace_csv.ms_per_call": per_call("report.write_trace_csv", ms),
        "report.write_trace_csv.bytes": float(tracer.extra["write_trace_csv.bytes"]),
        "report.write_scan_csv.ms": per_call("report.write_scan_csv", ms),
        "report.write_plot.ms_per_call": per_call("report.write_plot", ms),
        "cli.main.self_ms": per_call("cli.main", ms, self_time=True),
    }
    return values, [name for name, _, span in PER_LAYER if not tot[span].calls]
