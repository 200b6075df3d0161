"""Benchmark of drsplit: one workload per run, end-to-end or per-layer metrics.

Run from the root of a drsplit checkout::

    python3 perfbench/run.py --workload lad-adaptive --seed 1 --seconds 20 --trace 0

The program under test is imported from ``./src``; a directory without it
is an error (exit 2).  All load comes from this one process, with BLAS
pinned to one thread, as a closed batch: a body (see ``workloads.py``) runs
again and again until the next one would end after ``--seconds``.

Each body is split into laps of 5 to 80 ms at fixed points of the program
(``workloads.Laps``: every 50 to 250 sweeps, every 20 spectral radii, every
trace CSV written).  A run's body time is one of two estimates, fixed per
workload (``body_time``):

- ``"laps"``, the sum over the laps of each lap's fastest time in the run,
  on ``lad-adaptive``, ``spectrum-scan`` and ``compare-grid``.  A 2-core
  shared Xeon VM runs this Python-bound code 1.5-1.9x slower for stretches of
  a fraction of a second to minutes, in CPU time as much as in wall time
  (over one minute of 40 ms LAD solves the middle half spread 50% of the
  median).  With 8 to 18 bodies a run, each short lap catches a fast stretch
  somewhere in the run, where whole bodies often do not.  Over three sets of
  ten runs the largest spread (quartile distance over median) was 17% by
  laps against 30% by the median body on compare-grid, 9% against 37% on
  spectrum-scan and 23% against 30% on lad-adaptive.
- ``"median"``, the median body time, on ``tv-sweep``.  Its dense 500x500
  products slow down by degrees rather than in two speeds, and a run holds
  only 4 or 5 bodies of 5 s, so a lap's fastest of 4 or 5 times is itself
  noisy: over the same sets the largest spread was 16% by laps and 11% by
  the median.

The median, slowest and count of the body times are printed as well.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

- ``setup_s``: importing drsplit plus generating the instances, the median
  of several fresh interpreter processes that do only that, started between
  bodies and spread over the run so that they meet the machine's fast and
  slow stretches alike;
- ``wall_s``: the body time;
- ``work_per_s``: the work of a body over its time, in sweeps per second on
  the solver and compare workloads and scanned stepsize pairs per second on
  ``spectrum-scan``;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced bodies and reports the per-layer
metrics of ``tracing.PER_LAYER`` (medians over the traced bodies) plus the
traced body time and the tracing overhead, traced minus untraced body time.

Every body's outputs are checked: the first untraced body's in full (see
``workloads.py``), every other body's by comparing its output digests with
the first one's, so a traced body must reproduce the untraced outputs
bitwise.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (units, i.e. solves or scans) and
``metrics``; the lines above it print every metric with its unit, the
environment, and the ROADMAP Baseline row the workload reproduces.  A fuller
record and, for traced runs, the spans of the last traced body are written
under ``.perfbench/`` in the working directory.
"""

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("lad-adaptive", "tv-sweep", "spectrum-scan", "compare-grid")
SETUP_REPEATS = 7
OUT_DIR = Path(".perfbench")

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s"}

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_drsplit():
    """Import drsplit from ``./src`` only, never from an installed copy."""
    src = Path.cwd() / "src"
    if not (src / "drsplit" / "__init__.py").is_file():
        print(f"error: no drsplit sources under {src}; "
              "run from the root of a drsplit checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import drsplit
    import drsplit.cli  # noqa: F401  (part of what the CLI workloads set up)
    return drsplit


def make_workload(name: str, seed: int):
    import workloads
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed)
    return workload


def setup_sample(name: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, so imports are paid each time."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Measurement:
    """Timed bodies of one run and the unit outcomes of each body."""

    def __init__(self):
        self.walls = {False: [], True: []}   # per body, keyed by traced
        self.laps = {False: [], True: []}    # per body: wall time of each lap
        self.outcomes = []     # per body: [(error, digest)] per unit
        self.first = None      # units of the first untraced body, kept for checks
        self.layers = []       # per traced body: per-layer metrics
        self.not_applicable = []
        self.last_tracer = None


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: Path,
            between=None) -> Measurement:
    """Run bodies for ``seconds``; ``between(share of seconds gone)`` runs after each body."""
    from tracing import Tracer, layer_metrics

    modes = (False, True) if trace else (False,)
    m = Measurement()
    start = time.perf_counter()
    for i in itertools.count():
        traced = modes[i % len(modes)]
        out = work_dir / ("first" if m.first is None else "next")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        tracer = Tracer() if traced else None
        if traced:
            with tracer.installed():
                # Untimed, and the same inputs again: this traces generation,
                # which the solver workloads do only at set-up.
                workload.setup(seed)
                with workload.laps.timing() as marks:
                    units = workload.body(out, tracer)
        else:
            with workload.laps.timing() as marks:
                units = workload.body(out, None)
        m.walls[traced].append(marks[-1] - marks[0])
        m.laps[traced].append([b - a for a, b in zip(marks, marks[1:])])
        workload.digest(units)
        m.outcomes.append([(u.error, u.digest) for u in units])
        if m.first is None:
            m.first = units
        if traced:
            values, m.not_applicable = layer_metrics(tracer)
            m.layers.append(values)
            m.last_tracer = tracer
        if between is not None:
            # Time spent in ``between`` is not part of the run's ``seconds``.
            t0 = time.perf_counter()
            between((t0 - start) / seconds if seconds > 0 else 1.0)
            start += time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if i + 1 >= len(modes) and elapsed + elapsed / (i + 1) > seconds:
            return m


def count_failures(workload, m: Measurement) -> tuple[int, int, list[str]]:
    """Check the first untraced body; compare every body's digests with it."""
    failures = []
    for i, unit in enumerate(m.first):
        if unit.error is None:
            try:
                unit.error = workload.check_unit(i, unit)
            except Exception as exc:  # a check that cannot run fails its unit
                unit.error = f"check raised {type(exc).__name__}: {exc}"
    attempted = failed = 0
    for body in m.outcomes:
        for ref, (error, digest) in zip(m.first, body):
            attempted += 1
            if ref.error is not None or error is not None:
                failed += 1
                failures.append(f"{ref.name}: {error or ref.error}")
            elif digest != ref.digest:
                failed += 1
                failures.append(f"{ref.name}: output differs from the first body's")
    return attempted, failed, failures


def body_time(estimate: str, laps: list[list[float]]) -> float:
    """A run's body time from the laps of its bodies (see the module docstring).

    Only bodies with as many laps as the first count; a body with another
    number of laps ran other calls, and its units are failed by their checks.
    """
    same = [body for body in laps if len(body) == len(laps[0])]
    if estimate == "median":
        return statistics.median(sum(body) for body in same)
    return sum(min(times) for times in zip(*same))


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of its config
        blas = "unknown"
    cores = os.cpu_count()
    return {
        "cores": cores,
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in _BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "limits": (f"{cores}-core shared sandbox; CPU frequency is not pinned and "
                   "caches are not dropped; one process, closed loop"),
    }


def median_by_key(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds >= 0:
        parser.error("--seconds must be nonnegative")

    pin_blas()
    if args.setup_only:
        t0 = time.perf_counter()
        load_drsplit()
        make_workload(args.workload, args.seed)
        print(repr(time.perf_counter() - t0))
        return 0

    load_drsplit()
    from tracing import PER_LAYER, UNMEASURED

    setup_samples = []

    def sample_setup(share_gone: float) -> None:
        # Keep the samples taken in step with the share of the run gone.
        while len(setup_samples) < min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * share_gone)):
            setup_samples.append(setup_sample(args.workload, args.seed))

    workload = make_workload(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    m = measure(workload, args.seed, args.seconds, bool(args.trace),
                OUT_DIR / "work" / args.workload,
                between=None if args.trace else sample_setup)
    if not args.trace:
        sample_setup(1.0)
    setup_s = statistics.median(setup_samples) if setup_samples else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, failures = count_failures(workload, m)

    wall = statistics.median(m.walls[False])
    body = body_time(workload.estimate, m.laps[False])
    layers = median_by_key(m.layers) if m.layers else {}
    if args.trace:
        traced_body = body_time(workload.estimate, m.laps[True])
        values = dict(layers)
        values["trace.wall_s"] = traced_body
        values["trace.overhead_s"] = traced_body - body
        units = {name: unit for name, unit, _ in PER_LAYER} | TRACE_UNITS
        spans_path = OUT_DIR / f"spans-{args.workload}.csv"
        m.last_tracer.write_spans(spans_path)
    else:
        values = {"wall_s": body, "work_per_s": workload.work / body,
                  "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        units = END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    baseline = workload.baseline_row(wall, layers)

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for key, value in env.items():
        print(f"  {key}: {value}")
    print(f"bodies: {len(m.walls[False])} untraced, {len(m.walls[True])} traced; "
          f"{workload.work} {workload.work_unit} per body of "
          f"{len(m.laps[False][0])} laps")
    for traced in sorted({False, bool(args.trace)}):
        walls = m.walls[traced]
        print(f"  {'traced' if traced else 'untraced'} body wall time: median "
              f"{statistics.median(walls):.4g} s, slowest {max(walls):.4g} s, "
              f"sum of fastest laps {body_time('laps', m.laps[traced]):.4g} s, "
              f"over {len(walls)} bodies")
    print("per-layer metrics are medians over the traced bodies" if args.trace else
          f"body time estimate: {workload.estimate!r} (see the module docstring)")
    for key, value in values.items():
        print(f"  {key:<44} {value:>16.6g} {units[key]}")
    if not args.trace:
        print(f"  ({workload.work_unit.replace(' ', '_')}_per_s is work_per_s here)")
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"baseline: {baseline}")
    gaps = [u.info["rel_gap"] for u in m.first if "rel_gap" in u.info]
    if gaps:
        print(f"max relative primal-dual gap of a solve: {max(gaps):.3e}")
    if args.trace:
        print("not applicable on this workload (reported as 0): "
              + (", ".join(m.not_applicable) or "none"))
        print(f"spans of the last traced body: {spans_path}")
    print(UNMEASURED)
    for line in failures[:20]:
        print(f"FAILED {line}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "walls": {"untraced": m.walls[False], "traced": m.walls[True]},
              "laps": {"untraced": m.laps[False], "traced": m.laps[True]},
              "metrics": metrics, "not_applicable": m.not_applicable,
              "unmeasured": UNMEASURED, "baseline": baseline,
              "attempted": attempted, "failed": failed, "failures": failures}
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
