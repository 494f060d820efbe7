import json
import math
from pathlib import Path

import numpy as np
import pytest

from orthowall import connect, dynamics, verify
from orthowall.params import derive_params, working_scaling

BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "baseline_report.json"


def test_matching_closed_form_frozen_values():
    u = connect.matching_closed_form(1.0)
    q = 2.0**0.25 - 1.0
    assert u.x1u == pytest.approx(-2.0 * q, abs=1e-15)
    assert u.x2u == pytest.approx(2.0**0.75 * q, abs=1e-15)
    assert u.x10s == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-15)
    assert u.x20s == pytest.approx(-math.sqrt(2.0) * q * q, abs=1e-15)
    vals = u.as_array()
    ref = np.array([-0.3784142, 0.3182072, 0.5857864, -0.0506281])
    assert np.abs(vals - ref).max() < 3e-7


def test_matching_closed_form_at_generic_rho():
    assert connect.matching_closed_form(1.5).x1u == pytest.approx(
        -0.2576912, abs=1e-7)


def test_matching_closed_form_singularity():
    with pytest.raises(ValueError):
        connect.matching_closed_form(2.0**-0.25)


def test_closed_form_solves_linear_system():
    for rho in (0.7, 1.0, 1.3, 2.0):
        M, b = connect.matching_linear_system(rho)
        u = np.linalg.solve(M, b)
        ref = connect.matching_closed_form(rho).as_array()
        assert np.abs(u - ref).max() < 1e-12


def test_boundary_map_pure_equating(p15):
    sc = working_scaling(p15)
    ctx = connect.MatchContext(p=p15, scaling=sc, ignore_ode=True)
    u = connect.matching_closed_form(sc.rho).as_array()
    r = connect.boundary_map(u, ctx)
    assert np.abs(r).max() < 1e-12


def test_boundary_map_zero_unknowns(p15):
    sc = working_scaling(p15)
    ctx = connect.MatchContext(p=p15, scaling=sc)
    r = connect.boundary_map(np.zeros(4), ctx)
    # constant term of the left family, after scaling (solution minus family)
    assert r[0] == pytest.approx(-1.0, abs=1e-9)


def test_boundary_map_smoothness(p15):
    sc = working_scaling(p15)
    ctx = connect.MatchContext(p=p15, scaling=sc, grid_points=1024)
    u0 = connect.matching_closed_form(sc.rho).as_array()

    def central(h):
        J = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            J[:, j] = (connect.boundary_map(u0 + e, ctx)
                       - connect.boundary_map(u0 - e, ctx)) / (2 * h)
        return J

    j1, j2 = central(1e-4), central(5e-5)
    # second-order differences: quartering the error under halving
    assert np.abs(j1 - j2).max() < 1e-5


def test_newton_match(p15):
    sc = working_scaling(p15)
    ctx = connect.MatchContext(p=p15, scaling=sc)
    u0 = connect.matching_closed_form(sc.rho).as_array()
    u, info = connect.newton_match(ctx, u0)
    assert info["converged"]
    assert info["iterations"] <= 25
    assert info["residual"] < 1e-10
    r = connect.boundary_map(u.as_array(), ctx)
    assert np.abs(r).max() < 1e-10


def test_damped_newton_square_converges():
    # scalar Newton for sqrt(2) from 1: residuals 0.25, 7e-3, 6e-6, 5e-12
    x, r, aux, steps, J, status = connect._damped_newton(
        lambda x: (x * x - 2.0, "aux"), lambda x, r, aux: np.array([[2.0 * x[0]]]),
        np.array([1.0]), tol=1e-10, max_iter=25, halvings=30)
    assert status == "converged" and steps == 4
    assert abs(x[0] - math.sqrt(2.0)) < 1e-11
    assert abs(r[0]) < 1e-10 and aux == "aux" and J.shape == (1, 1)


def test_damped_newton_least_squares():
    # a consistent 3x2 system: one Gauss-Newton step reaches the solution
    A = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, -1.0]])
    b = A @ np.array([0.3, -0.7])
    x, r, _, steps, J, status = connect._damped_newton(
        lambda x: (A @ x - b, None), lambda x, r, aux: A, np.zeros(2),
        tol=1e-12, max_iter=5, halvings=4)
    assert status == "converged" and steps == 1
    assert np.allclose(x, [0.3, -0.7], rtol=0.0, atol=1e-14)


def test_damped_newton_raising_trial_is_halved():
    # the Jacobian is half the true slope, so the full step lands on x = 2,
    # where the residual raises; the half step reaches the root
    trials = []

    def residual(x):
        trials.append(float(x[0]))
        if x[0] > 1.5:
            raise connect.RealizationError("outside the domain")
        return x - 1.0, None

    x, r, _, steps, _, status = connect._damped_newton(
        residual, lambda x, r, aux: np.array([[0.5]]), np.array([0.0]),
        tol=1e-12, max_iter=5, halvings=4)
    assert trials == [0.0, 2.0, 1.0]
    assert status == "converged" and steps == 1 and x[0] == 1.0


def test_damped_newton_stalls_without_descent():
    # r = (x, 1): the least-squares step is zero and max|r| cannot fall below 1
    calls = []

    def residual(x):
        calls.append(x.copy())
        return np.array([x[0], 1.0]), None

    x, r, _, steps, J, status = connect._damped_newton(
        residual, lambda x, r, aux: np.array([[1.0], [0.0]]), np.array([0.0]),
        tol=1e-10, max_iter=5, halvings=3)
    assert status == "stalled" and steps == 0
    assert x[0] == 0.0 and np.array_equal(r, [0.0, 1.0]) and J.shape == (2, 1)
    assert len(calls) == 1 + 3


def test_neg_a_counterpart_same_residual(p15):
    sc = working_scaling(p15)
    ctx = connect.MatchContext(p=p15, scaling=sc)
    u, _ = connect.newton_match(ctx, connect.matching_closed_form(sc.rho).as_array())
    r_plus = connect.boundary_map(u.as_array(), ctx)
    ctx_neg = connect.MatchContext(p=p15, scaling=sc, sign=-1.0)
    r_minus = connect.boundary_map(u.as_array(), ctx_neg)
    assert np.abs(r_plus + r_minus).max() < 1e-12
    assert abs(np.abs(r_plus).max() - np.abs(r_minus).max()) < 1e-12


def test_epsilon_zero_rejected():
    p = derive_params(1e-9, 1.5)
    object.__setattr__(p, "epsilon", 0.0)
    with pytest.raises(ValueError, match="singular"):
        connect.heteroclinic_solve(p)


def test_profile_core_contract(p15, profile15):
    prof = profile15.value
    assert prof.newton_iterations <= 25
    assert prof.matching_residual < 1e-10
    assert prof.sup_w < 1e-8
    assert prof.min_b1 > 0.0
    assert abs(prof.b0_at_zero - p15.inv_sqrt_g) < 1e-10
    assert prof.junction_mismatch < 1e-6
    assert np.all(np.diff(prof.states[:, 4]) > 0)
    assert prof.x_star_left < 0 < prof.x_star_plus


def test_profile_tails_approach_end_states(p15, profile15):
    prof = profile15.value
    left = prof.sample(prof.x[0])[0]
    right = prof.sample(prof.x[-1])[0]
    assert np.abs(left - dynamics.M_MINUS).max() < 2e-3
    assert np.abs(right - dynamics.M_PLUS).max() < 2e-3
    assert abs(prof.a0_at_zero) < 0.5  # midpoint amplitude is small


def test_profile_junction_locations(p15, profile15):
    prof = profile15.value
    sc = prof.scaling
    b_left = prof.sample(prof.x_star_left)[0, 4]
    b_right = prof.sample(prof.x_star_plus)[0, 4]
    assert b_left == pytest.approx(sc.b00, abs=1e-9)
    assert b_right == pytest.approx(sc.b01, abs=1e-9)


def test_uniqueness_from_perturbed_seed(p15, profile15):
    prof = profile15.value
    u0 = connect.matching_closed_form(prof.scaling.rho).as_array()
    prof2 = connect.heteroclinic_solve(p15, initial_guess=1.1 * u0)
    assert np.abs(prof2.unknowns.as_array()
                  - prof.unknowns.as_array()).max() < 1e-8
    xs = np.linspace(prof.x[0], prof.x[-1], 800)
    assert np.abs(prof2.sample(xs) - prof.sample(xs)).max() < 1e-6


def test_transversality_report(profile15):
    rep = connect.transversality(profile15.value)
    assert not rep.degenerate
    assert rep.smallest > 1e-3
    assert rep.cond < 1e3


def test_transversality_degenerate_fixture():
    J = np.diag([1.0, 0.5, 0.2, 1e-9])
    rep = connect.transversality(J)
    assert rep.degenerate
    assert rep.smallest == pytest.approx(1e-9, rel=1e-12)


def test_condition_number_stable_under_refinement(p15, profile15):
    prof = profile15.value
    sc = prof.scaling
    u0 = prof.unknowns.as_array()
    conds = []
    for n in (2048, 4096):
        ctx = connect.MatchContext(p=p15, scaling=sc, grid_points=n)
        _, info = connect.newton_match(ctx, u0)
        sv = np.linalg.svd(info["jacobian"], compute_uv=False)
        conds.append(sv.max() / sv.min())
    assert abs(conds[1] - conds[0]) <= 0.2 * conds[0]


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    elif isinstance(obj, (bool, int, float)):
        yield prefix[:-1], float(obj)


def test_anchor_report_matches_baseline(profile15):
    # same-behaviour guard: every scalar of the anchor's report and tail
    # rates equals the values recorded with the benchmark
    prof = profile15.value
    report = prof.report()
    report["tail_rates"] = {
        name: {"rate": fit.rate, "target": fit.target, "rel_err": fit.rel_err}
        for name, fit in verify.fit_decay_rates(prof).items()
    }
    got = dict(_flatten(report))
    want = json.loads(BASELINE.read_text(encoding="utf-8"))["g=1.5,eps=0.1"]
    assert sorted(got) == sorted(want) and len(got) == 49
    for key, value in want.items():
        assert math.isclose(got[key], value, rel_tol=1e-9, abs_tol=1e-12), key


def test_report_and_csv(tmp_path, profile15):
    prof = profile15.value
    rep = prof.report()
    assert rep["b0_monotone"] is True
    assert rep["supported_regime"] is False  # relaxed left scaling is recorded
    assert "nu_minus_upper" in rep["scaling_violations"]
    path = tmp_path / "profile.csv"
    prof.to_csv(str(path))
    from orthowall.integrate import read_profile_csv
    x, states, w = read_profile_csv(str(path))
    assert np.array_equal(x, prof.x)
    assert np.array_equal(states, prof.states)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_corner_window_backoff():
    # delta just above 1/3 with eps at the ceiling: the default right window
    # overshoots the match basin and the solver must back off toward the
    # amplification floor.  At g = 1.12 junction line-search trials step
    # below beta = 1/sqrt(g); they must be rejected as invalid seeds, not
    # evaluated as NaN
    for g in (1.115, 1.12):
        p = derive_params(0.25, g)
        prof = connect.heteroclinic_solve(p)
        assert prof.junction_mismatch < 1e-6
        assert prof.sup_w < 1e-8
        assert prof.min_b1 > 0.0
        assert abs(prof.b0_at_zero - p.inv_sqrt_g) < 1e-10


def test_junction_work_guard(monkeypatch, p15):
    # side-aware junction columns and value-only difference shots keep the
    # anchor solve near 38k field evaluations; re-integrating both cores per
    # junction column with dense output takes 64k and fails the bound
    calls = 0
    field = dynamics.vector_field

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return field(*args, **kwargs)

    monkeypatch.setattr(dynamics, "vector_field", counted)
    connect.heteroclinic_solve(p15)
    assert 0 < calls < 45_000
