"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines with the measured values.
"""

import math
import time

import numpy as np
import pytest

from orthowall import connect, dynamics, frames, inner, linop, outer, params, verify


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_matching():
    t0 = time.perf_counter()
    u = connect.matching_closed_form(1.0)
    elapsed = time.perf_counter() - t0
    ref = np.array([-0.3784142000544205, 0.3182071694925709,
                    0.5857864376269049, -0.0506279013582369])
    exact = np.array([
        -2.0 * (2.0**0.25 - 1.0),
        2.0**0.75 * (2.0**0.25 - 1.0),
        2.0 - math.sqrt(2.0),
        -math.sqrt(2.0) * (2.0**0.25 - 1.0) ** 2,
    ])
    err = np.abs(u.as_array() - exact).max()
    ok = err < 1e-12 and np.abs(u.as_array() - ref).max() < 1e-6 and elapsed < 1e-3
    _report("criterion 1 (closed-form matching)", ok,
            f"max err {err:.2e}, runtime {elapsed * 1e3:.3f} ms")


def test_criterion_2_inner_contraction():
    k1 = 0.05
    fam = inner.assemble_boundary(
        "plus", (k1 / math.sqrt(2.0), k1 / math.sqrt(2.0)), 1.0, k=k1)
    prob = inner.InnerProblem(a_minus=1.0, a_plus=1.0,
                              boundary_plus=tuple(fam), grid_points=2048)
    t0 = time.perf_counter()
    sol = inner.picard_solve(prob)
    residual = inner.inner_residual(sol)
    elapsed = time.perf_counter() - t0
    ratio = max(sol.delta_ratios(floor=1e-13))
    bound = 2.0 / 3.0 + 0.05
    ok = ratio <= bound and residual < 1e-8 and elapsed < 1.0
    _report("criterion 2 (layer contraction)", ok,
            f"delta ratio {ratio:.3f} <= {bound:.3f}, residual {residual:.2e}, "
            f"runtime {elapsed:.2f} s")


def test_criterion_3_heteroclinic_solve(p15, profile15):
    prof = profile15.value
    db0 = abs(prof.b0_at_zero - p15.inv_sqrt_g)
    ok = (prof.newton_iterations <= 25
          and prof.matching_residual < 1e-10
          and prof.sup_w < 1e-8
          and prof.min_b1 > 0.0
          and db0 < 1e-10
          and profile15.seconds < 30.0)
    _report("criterion 3 (connection at g=1.5, eps=0.1)", ok,
            f"{prof.newton_iterations} Newton iterations, sup|W| "
            f"{prof.sup_w:.2e}, min B' {prof.min_b1:.2e}, |B(0)-1/sqrt(g)| "
            f"{db0:.2e}, runtime {profile15.seconds:.1f} s")


def test_criterion_4_tail_rates(p15, profile15):
    fits = verify.fit_decay_rates(profile15.value)
    checks = {
        "left B": (fits["left_b"], p15.epsilon * p15.delta),
        "right B": (fits["right_b"], math.sqrt(2.0) * p15.epsilon),
        "right A envelope": (fits["right_a_envelope"],
                             math.sqrt(p15.delta / 2.0)),
    }
    ok = True
    parts = []
    for label, (fit, target) in checks.items():
        rel = abs(fit.rate - target) / target
        ok = ok and rel < 0.10
        parts.append(f"{label} {fit.rate:.4f} vs {target:.4f} ({rel:.1%})")
    _report("criterion 4 (tail rates within 10%)", ok, "; ".join(parts))


def test_criterion_5_scaling_laws(sweep15):
    fit = sweep15.value
    ok = (abs(fit["slope_a0"] - 0.40) <= 0.08
          and abs(fit["slope_width"] - (-0.20)) <= 0.05
          and not fit["excluded"]
          and sweep15.seconds < 300.0)
    _report("criterion 5 (scaling exponents)", ok,
            f"A(0) slope {fit['slope_a0']:.3f} (0.40 +- 0.08), width slope "
            f"{fit['slope_width']:.3f} (-0.20 +- 0.05), runtime "
            f"{sweep15.seconds:.0f} s")


def test_criterion_6_kernel_diagnostics(p15, profile15):
    prof = profile15.value
    res = []
    for n in (701, 1401, 2801):
        x = np.linspace(prof.x[0], prof.x[-1], n)
        st = prof.sample(x)
        op = linop.assemble_Mg(x, st, p15)
        res.append(linop.kernel_residual(op, st, exclude=prof.blend_windows))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    x = np.linspace(prof.x[0], prof.x[-1], 5601)
    st = prof.sample(x)
    diag = linop.kernel_diagnostics(linop.assemble_Mg(x, st, p15), st, p15)
    ok = (all(abs(o - 2.0) <= 0.3 for o in orders)
          and diag.separation >= 1e4
          and diag.orthogonality_defect < 1e-6)
    _report("criterion 6 (kernel diagnostics)", ok,
            f"residual orders {[f'{o:.2f}' for o in orders]}, separation "
            f"{diag.separation:.1e}, orthogonality defect "
            f"{diag.orthogonality_defect:.2e}")


def test_criterion_7_pseudo_inverse(p15, profile15):
    prof = profile15.value
    n = 16001
    x = np.linspace(prof.x[0], prof.x[-1], n)
    st = prof.sample(x)

    def bump(xx):
        tt = (xx - 2.0) / 20.0
        out = np.zeros_like(tt)
        m = np.abs(tt) < 1.0
        out[m] = np.exp(-1.0 / (1.0 - tt[m] ** 2))
        return out

    h = 1e-4
    u0 = bump(x)
    u0pp = (bump(x + h) - 2.0 * u0 + bump(x - h)) / h**2
    f = u0pp / p15.epsilon**2 + (1.0 - p15.g * st[:, 0] ** 2
                                 - st[:, 4] ** 2) * u0
    u, _ = linop.lg_pseudo_inverse(f, x, st, p15)
    b = st[:, 4]
    c = (u - u0) @ b / (b @ b)
    err = np.abs(u - u0 - c * b).max()
    ok = err < 1e-6
    _report("criterion 7 (pseudo-inverse round trip)", ok,
            f"sup error {err:.2e} (modulo {c:.2e} * kernel direction)")


def test_criterion_8_invariance_suite(p15, profile15):
    rng = np.random.default_rng(42)
    worst_w = 0.0
    worst_jac = 0.0
    worst_sym = 0.0
    for _ in range(100):
        s = rng.uniform(-1.0, 1.0, size=6)
        worst_w = max(worst_w, abs(
            dynamics.first_integral_gradient(s, p15)
            @ dynamics.vector_field(s, p15)))
        J = dynamics.jacobian(s, p15)
        for j in range(6):
            e = np.zeros(6)
            e[j] = 1e-6
            col = (dynamics.vector_field(s + e, p15)
                   - dynamics.vector_field(s - e, p15)) / 2e-6
            worst_jac = max(worst_jac, np.abs(J[:, j] - col).max())
        f = dynamics.vector_field(s, p15)
        r = dynamics.symmetry_apply(s, "reversibility")
        worst_sym = max(worst_sym, np.abs(
            dynamics.vector_field(r, p15)
            + dynamics.symmetry_apply(f, "reversibility")).max())
        for name in ("neg_a", "neg_b", "neg_ab"):
            worst_sym = max(worst_sym, np.abs(
                dynamics.vector_field(dynamics.symmetry_apply(s, name), p15)
                - dynamics.symmetry_apply(f, name)).max())

    worst_rt = 0.0
    fr = frames.slow_frame(0.5, p15)
    ff = frames.fast_frame(0.93, p15)
    for _ in range(50):
        c5 = rng.uniform(-0.2, 0.2, size=5)
        back = frames.to_slow_coords(frames.from_slow_coords(c5, fr), fr)
        worst_rt = max(worst_rt, np.abs(back - c5).max())
        c6 = rng.uniform(-0.2, 0.2, size=6)
        back6 = frames.to_fast_coords(frames.from_fast_coords(c6, ff), ff)
        worst_rt = max(worst_rt, np.abs(back6 - c6).max())

    sc = profile15.value.scaling
    rep = frames.monodromy_check(
        lambda x: float(outer.b0_left_profile(x, sc.b00, p15, sc.x_star)),
        p15, -sc.x_star - 25.0, -sc.x_star)
    ok = (worst_w < 1e-13 and worst_jac < 1e-7 and worst_sym < 1e-14
          and worst_rt < 1e-12 and rep.max_ratio <= 1.0 + 1e-8)
    _report("criterion 8 (invariance suite)", ok,
            f"W-derivative {worst_w:.1e}, Jacobian gap {worst_jac:.1e}, "
            f"symmetry gap {worst_sym:.1e}, round trips {worst_rt:.1e}, "
            f"transition-map ratio {rep.max_ratio - 1.0:+.1e} above 1")


def test_criterion_9_physical_regimes():
    rows = params.physical_regimes()
    targets = {"rigid-rigid": 0.476, "rigid-free": 0.576, "free-free": 0.650}
    worst = max(abs(d - targets[label]) for label, _, d, _ in rows)
    ok = worst < 1e-3 and len(rows) == 3
    _report("criterion 9 (physical regimes)", ok,
            f"max |recomputed delta_min - tabulated| = {worst:.2e}")
