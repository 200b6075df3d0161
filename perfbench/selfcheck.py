"""Fast self-check of the benchmark harness; run from the checkout root::

    python3 perfbench/selfcheck.py

Runs each workload once untraced and once traced at a reduced size and
asserts that every correctness check passes, that the traced body
reproduces the untraced outputs bitwise and is split into the same laps, and
that every metric named in ``BENCHMARK.json`` is produced.  A solve forced to
diverge (a NaN prox under ``ConstantPolicy``, which raises
``IterationDiverged``) must be counted as a failed unit rather than end the
run.  Exits 0 when all of this holds.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def reduced_workloads(seed: int):
    import workloads as w

    reduced = [w.LadAdaptive(count=1, sweeps=5000),
               w.TvSweep(weights=(0.1, 10.0), sweeps=200, n=200),
               w.SpectrumScan(count=1, grid=4, half_dim=8),
               w.CompareGrid(grid=2, sweeps=100)]
    for workload in reduced:
        workload.setup(seed)
    return reduced


def diverging_workload(seed: int):
    """One good LAD solve and one whose primal prox returns NaN."""
    import numpy as np
    import workloads as w
    from drsplit import adaptive, pddr

    class Diverging(w.LadAdaptive):
        def policy(self):
            return adaptive.ConstantPolicy(1.0, 1.0)

        def problems(self):
            for name, prob in super().problems():
                yield name, prob
                yield name + "-nan", pddr.PdProblem(
                    f_prox=lambda v, step: np.full_like(v, np.nan),
                    gstar_prox=prob.gstar_prox, coupling=prob.coupling,
                    objective=prob.objective)

        def check_unit(self, index, unit):
            return self.check_trace(unit)

    workload = Diverging(count=1, sweeps=50)
    workload.setup(seed)
    return workload


def main() -> int:
    run.pin_blas()
    run.load_drsplit()
    from tracing import PER_LAYER

    spec = json.loads(Path("BENCHMARK.json").read_text())
    per_layer = {name for name, _, _ in PER_LAYER} | set(run.TRACE_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == per_layer, "per_layer names drift"
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS), \
        "end_to_end names drift"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    seed = 7
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for workload in reduced_workloads(seed):
            m = run.measure(workload, seed, 0.0, True, Path(tmp) / workload.name)
            attempted, failed, failures = run.count_failures(workload, m)
            assert failed == 0, f"{workload.name}: {failures}"
            assert attempted == 2 * len(m.first) > 0
            assert set(m.layers[0]) == {name for name, _, _ in PER_LAYER}
            # run.body_time matches laps across bodies, traced or not.
            assert len({len(laps) for laps in m.laps[False] + m.laps[True]}) == 1
            print(f"ok {workload.name}: {attempted} units, traced output matches untraced")

        workload = diverging_workload(seed)
        m = run.measure(workload, seed, 0.0, True, Path(tmp) / "diverging")
        attempted, failed, failures = run.count_failures(workload, m)
        assert (attempted, failed) == (4, 2), (attempted, failed, failures)
        assert all("IterationDiverged" in f for f in failures), failures
        print(f"ok forced divergence counted: error_rate {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
