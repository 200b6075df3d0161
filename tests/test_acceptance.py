"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s``; ``pytest -v`` shows the
same verdict per test).  Criterion 9 runs a long reference solve and takes
about a minute; everything else is fast.
"""

import time

import numpy as np

from drsplit.adaptive import (
    AdaptiveConfig,
    ConstantPolicy,
    TsAdaptivePolicy,
    adaptive_update,
    default_relaxation,
)
from drsplit.experiments import gen_lad, gen_monotone_pair, gen_tv
from drsplit.linalg import LinearMap, eig_all
from drsplit.operators import (
    box_dual_prox,
    moreau_dual_resolvent,
    quadratic_fidelity_prox,
    scaled_l1_prox,
    shifted_l1_conjugate_prox,
)
from drsplit.pddr import (
    DRState,
    PdProblem,
    block_resolvent,
    coupling_block_resolvent,
    pd_dr_step,
    preconditioned_dr_step,
    solve,
    stacked_prox_resolvent,
)
from drsplit.spectral import (
    disc_report,
    dr_update_matrix,
    iteration_matrix,
    match_spectra,
)


def verdict(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}",
          flush=True)


def test_criterion_01_disc_containment():
    # 50 seeded instances, half dimension 25, random positive diagonal
    # preconditioner: every eigenvalue within the outer half-disc and,
    # away from 1, within its per-eigenvector disc (squared form), with
    # 1e-8 additive slack.  Budget: 30 seconds.
    start = time.perf_counter()
    ok = True
    for seed in range(50):
        pair = gen_monotone_pair(seed, half_dim=25)
        rng = np.random.default_rng(10_000 + seed)
        delta = 10.0 ** rng.uniform(-1.0, 1.0, size=50)
        report = disc_report(pair, delta)
        for rec in report.records:
            dist = abs(rec.eigenvalue - 0.5)
            if dist > 0.5 + 1e-8:
                ok = False
            if not rec.exempt:
                bound = 0.25 - rec.ratio / (1.0 + 2.0 * rec.ratio)
                if dist * dist > bound + 1e-8:
                    ok = False
        if not report.all_contained():
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    verdict(1, "disc-containment", ok)
    assert ok, f"elapsed {elapsed:.1f}s"


def test_criterion_02_update_and_shadow_spectra_match():
    # The governing-vector map and the shadow map share a spectrum on 20
    # random structured instances, matched to 1e-6.
    worst = 0.0
    for seed in range(20):
        pair = gen_monotone_pair(seed, half_dim=10)
        rng = np.random.default_rng(20_000 + seed)
        delta = 10.0 ** rng.uniform(-1.0, 1.0, size=20)
        a = pair.block_diag_half()
        b = pair.skew_half()
        h = iteration_matrix(a, b, delta)
        f = dr_update_matrix(a, b, delta)
        worst = max(worst, match_spectra(eig_all(h), eig_all(f)))
    ok = worst <= 1e-6
    verdict(2, "spectra-agree", ok)
    assert ok, f"worst gap {worst:.3e}"


def test_criterion_03_moreau_identity():
    # 100 random points and diagonal scalings: the decomposition of the
    # l1 subdifferential hits the componentwise clamp to [-1, 1] at
    # 1e-10.
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 20))
        x = rng.standard_normal(n) * 3.0
        sig = rng.uniform(0.1, 10.0, size=n)

        def primal(u, sig=sig):
            return np.sign(u) * np.maximum(np.abs(u) - 1.0 / sig, 0.0)

        dual = moreau_dual_resolvent(x, sig, primal)
        worst = max(worst, float(np.abs(dual - np.clip(x, -1, 1)).max()))
    ok = worst <= 1e-10
    verdict(3, "moreau-identity", ok)
    assert ok, f"worst gap {worst:.3e}"


def test_criterion_04_block_resolvent_residual():
    # 100 random coupled systems: both block equations satisfied to
    # 1e-10 relative to the data scale.
    rng = np.random.default_rng(44)
    ok = True
    for _ in range(100):
        m = int(rng.integers(2, 15))
        n = int(rng.integers(2, 15))
        kmat = rng.standard_normal((m, n))
        t = float(rng.uniform(0.05, 5.0))
        s = float(rng.uniform(0.05, 5.0))
        r1 = rng.standard_normal(n)
        r2 = rng.standard_normal(m)
        u, v, _ = block_resolvent(r1, r2, t, s, LinearMap(kmat))
        scale = max(1.0, float(np.linalg.norm(r1)), float(np.linalg.norm(r2)))
        if np.linalg.norm(u + t * kmat.T @ v - r1) > 1e-10 * scale:
            ok = False
        if np.linalg.norm(-s * kmat @ u + v - r2) > 1e-10 * scale:
            ok = False
    verdict(4, "block-resolvent-residual", ok)
    assert ok


def test_criterion_05_governing_form_equivalence():
    # 200 iterations on a random instance with a schedule that changes
    # every step: governing-vector sweep and two-block sweep produce the
    # same primal iterates to 1e-10.
    _, prob = gen_lad(0, m=60, n=30)
    n, m = prob.primal_dim, prob.dual_dim
    res_a = stacked_prox_resolvent(prob)
    res_b = coupling_block_resolvent(prob)
    state = DRState(p=np.zeros(n), q=np.zeros(m), t=1.0, s=1.0)
    w = np.zeros(n + m)
    worst = 0.0
    for k in range(200):
        t = 1.0 + 0.5 * 2.0 ** (-k)
        s = 0.8 + 0.3 * 3.0 ** (-k)
        dd = np.concatenate([np.full(n, t), np.full(m, s)])
        x_w = res_a(w, dd)[:n]
        state.t, state.s = t, s
        state, out = pd_dr_step(state, prob)
        worst = max(worst, float(np.abs(x_w - out.x).max()))
        w = preconditioned_dr_step(w, dd, res_a, res_b)
        worst = max(worst,
                    float(np.abs(w - np.concatenate([state.p, state.q])).max()))
    ok = worst <= 1e-10
    verdict(5, "form-equivalence", ok)
    assert ok, f"worst gap {worst:.3e}"


def test_criterion_06_quadratic_ground_truth():
    # Quadratic-quadratic instance with closed-form solution
    # (I + K'K) x = K'b: primal error at most 1e-6 within 5000
    # iterations.
    rng = np.random.default_rng(66)
    m, n = 50, 30
    kmat = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    prob = PdProblem(
        f_prox=quadratic_fidelity_prox(np.zeros(n)),
        gstar_prox=lambda v, step: (v - step * b) / (1.0 + step),
        coupling=LinearMap(kmat),
        objective=lambda xs: (0.5 * (xs * xs).sum(axis=1)
                              + 0.5 * ((xs @ kmat.T - b) ** 2).sum(axis=1)),
    )
    target = np.linalg.solve(np.eye(n) + kmat.T @ kmat, kmat.T @ b)
    x, _, trace = solve(prob, ConstantPolicy(1.0, 1.0),
                        max_iter=5000, tol=0.0)
    err = float(np.linalg.norm(x - target))
    ok = err <= 1e-6 and len(trace.rows) <= 5000
    verdict(6, "quadratic-ground-truth", ok)
    assert ok, f"error {err:.3e}"


def test_criterion_07_adaptive_contract():
    # Default instance, 1200 iterations: stepsizes stay in (0, cap],
    # increments obey the relaxation envelope, and the sequences are
    # bitwise frozen well before the end; the ratio rule itself is
    # checked in closed form.
    cfg = AdaptiveConfig()
    _, prob = gen_lad(0)
    _, _, trace = solve(prob, TsAdaptivePolicy(cfg), max_iter=1200, tol=0.0)
    t_col = trace.column("t")
    s_col = trace.column("s")
    ok = bool(np.all(t_col > 0) and np.all(t_col <= cfg.cap)
              and np.all(s_col > 0) and np.all(s_col <= cfg.cap))
    envelope = max(cfg.hi_t - 1.0, 1.0 - cfg.lo_t) * cfg.cap
    for k in range(len(t_col) - 1):
        w = default_relaxation(k)
        if abs(t_col[k + 1] - t_col[k]) > w * envelope:
            ok = False
        if abs(s_col[k + 1] - s_col[k]) > w * envelope:
            ok = False
    ok = ok and np.unique(t_col[1100:]).size == 1
    ok = ok and np.unique(s_col[1100:]).size == 1
    # Closed-form check of the rule: ratio 2 at full weight doubles t.
    t2, _ = adaptive_update(0.7, 1.0, np.array([2.0, 0.0]),
                            np.array([2.0, 1.0]), np.zeros(1), np.ones(1),
                            0, cfg)
    ok = ok and t2 == 1.4
    verdict(7, "adaptive-contract", ok)
    assert ok


def test_criterion_08_tv_sweep_monotone_dual_steps():
    # Regularization sweep 0.01, 0.1, 1, 10 on the denoising instance:
    # converged dual stepsizes strictly increase with the weight and the
    # largest weight drives s into the cap exactly.
    cap = 1e4
    finals = []
    for weight in (0.01, 0.1, 1.0, 10.0):
        _, prob = gen_tv(0, reg_weight=weight)
        _, _, trace = solve(prob, TsAdaptivePolicy(AdaptiveConfig(cap=cap)),
                            max_iter=1000, tol=0.0)
        finals.append(trace.rows[-1].s)
    ok = all(a < b for a, b in zip(finals, finals[1:]))
    ok = ok and finals[-1] == cap
    verdict(8, "tv-dual-step-sweep", ok)
    assert ok, f"final dual steps {finals}"


def test_criterion_09_adaptive_beats_constant_on_lad():
    # 10 seeds, 1000 iterations each: the adaptive policy's objective is
    # at or below the constant t = s = 1.1 baseline on at least 7, and
    # both land within 1% of a 100000-iteration reference optimum.
    wins = 0
    ok = True
    for seed in range(10):
        _, prob = gen_lad(seed)
        _, _, long_trace = solve(prob, TsAdaptivePolicy(),
                                 max_iter=100_000, tol=0.0)
        objectives = long_trace.column("objective")
        ref = float(objectives.min())
        adaptive_at_1k = float(objectives[999])
        _, _, const_trace = solve(prob, ConstantPolicy(1.1, 1.1),
                                  max_iter=1000, tol=0.0)
        const_at_1k = const_trace.rows[-1].objective
        if adaptive_at_1k <= const_at_1k:
            wins += 1
        if adaptive_at_1k - ref > 0.01 * abs(ref):
            ok = False
        if const_at_1k - ref > 0.01 * abs(ref):
            ok = False
    ok = ok and wins >= 7
    verdict(9, "adaptive-vs-constant", ok)
    assert ok, f"wins {wins}/10"


def test_criterion_10_firm_nonexpansiveness():
    # 1000 random input pairs split across the prox catalog (Euclidean
    # metric) and the coupled block resolvent (inverse-preconditioner
    # metric): firm nonexpansiveness slack at least -1e-9 everywhere.
    rng = np.random.default_rng(1010)
    ok = True
    dim = 8
    shift = rng.standard_normal(dim)
    data = rng.standard_normal(dim)
    catalog = [
        (scaled_l1_prox(1.3), 0.7),
        (shifted_l1_conjugate_prox(shift), 2.1),
        (quadratic_fidelity_prox(data), 0.9),
        (box_dual_prox(0.8), 1.5),
    ]
    for pm, step in catalog:
        for _ in range(200):
            a = rng.standard_normal(dim) * 3
            b = rng.standard_normal(dim) * 3
            dj = pm(a, step) - pm(b, step)
            slack = float(np.dot(dj, a - b) - np.dot(dj, dj))
            if slack < -1e-9:
                ok = False
    kmat = rng.standard_normal((6, dim))
    op = LinearMap(kmat)
    t, s = 0.9, 1.7
    weights = np.concatenate([np.full(dim, 1.0 / t), np.full(6, 1.0 / s)])
    for _ in range(200):
        r = rng.standard_normal(dim + 6) * 3
        r2 = rng.standard_normal(dim + 6) * 3
        u1, v1, _ = block_resolvent(r[:dim], r[dim:], t, s, op)
        u2, v2, _ = block_resolvent(r2[:dim], r2[dim:], t, s, op)
        dj = np.concatenate([u1 - u2, v1 - v2])
        dr = r - r2
        slack = float(np.sum(weights * dj * dr) - np.sum(weights * dj * dj))
        if slack < -1e-9:
            ok = False
    verdict(10, "firm-nonexpansiveness", ok)
    assert ok


def test_soft_threshold_spot_check():
    # Tiny independent anchor used while reading the acceptance output:
    # the primal prox at work in most criteria above.
    np.testing.assert_array_equal(scaled_l1_prox(1.0)(np.array([2.0, -0.4]), 1.0),
                                  [1.0, 0.0])
