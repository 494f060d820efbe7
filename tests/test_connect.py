import functools
import gc
import json
import math
import os
import pickle
import re
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Chebyshev
from numpy.polynomial.chebyshev import chebval
from scipy.fft import dct
from scipy.integrate import DOP853, OdeSolution, solve_ivp
# the DOP853 step interpolant OdeSolution is built from (no public name)
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from orthowall import cli, connect, dynamics, frames, hermite, inner, ode, outer, verify
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
    # without the layer equation the left jet is the stable family itself,
    # and the closed form equates it with the unstable family
    sc = working_scaling(p15)
    u = connect.matching_closed_form(sc.rho).as_array()
    stable = inner.assemble_boundary("plus", u[2:], sc.a_plus)
    assert np.abs(connect._unstable_mismatch(u, stable, sc)).max() < 1e-12


def test_boundary_map_zero_unknowns(p15):
    sc = working_scaling(p15)
    r = connect.boundary_map(np.zeros(4), sc)
    # constant term of the left family, after scaling (solution minus family)
    assert r[0] == pytest.approx(-1.0, abs=1e-9)


def _layer_grid(monkeypatch, n):
    """Make the matching solve its layer problems on ``n`` grid points."""
    monkeypatch.setattr(inner, "InnerProblem",
                        functools.partial(inner.InnerProblem, grid_points=n))


def test_boundary_map_smoothness(p15, monkeypatch):
    sc = working_scaling(p15)
    _layer_grid(monkeypatch, 1024)
    u0 = connect.matching_closed_form(sc.rho).as_array()

    def central(h):
        J = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            J[:, j] = (connect.boundary_map(u0 + e, sc)
                       - connect.boundary_map(u0 - e, sc)) / (2 * h)
        return J

    j1, j2 = central(1e-4), central(5e-5)
    # second-order differences: quartering the error under halving
    assert np.abs(j1 - j2).max() < 1e-5


def test_newton_match(p15):
    sc = working_scaling(p15)
    u0 = connect.matching_closed_form(sc.rho).as_array()
    u, info, half_widths = connect.newton_match(sc, u0)
    assert half_widths == (sc.a_minus, sc.a_plus)
    assert info["converged"]
    assert info["iterations"] <= 25
    assert info["residual"] < 1e-10
    r = connect.boundary_map(u.as_array(), sc)
    assert np.abs(r).max() < 1e-10


def _fd_jacobian(fn, u, r0, step=1e-7):
    # reference: the forward-difference matching Jacobian as it was formed
    # before the (x1u, x2u) columns reused the iterate's layer jet
    J = np.empty((r0.size, u.size))
    for j in range(u.size):
        up = u.copy()
        up[j] += step
        J[:, j] = (fn(up) - r0) / step
    return J


def test_match_jacobian_is_bit_equal_to_difference_reference(p15, profile15):
    # the (x1u, x2u) columns move only the unstable family, so reusing the
    # layer jet of the iterate gives the same bits as solving the layer
    # problem again, at the closed-form seed and at the anchor's solution
    sc = working_scaling(p15)
    fn = lambda v: connect.boundary_map(v, sc)
    u0 = connect.matching_closed_form(sc.rho).as_array()
    jet = connect._left_jet(u0, sc)
    r0 = fn(u0)
    assert np.array_equal(connect._match_jacobian(u0, r0, jet, sc), _fd_jacobian(fn, u0, r0))
    prof = profile15.value
    u = prof.unknowns.as_array()
    assert np.array_equal(prof.matching_jacobian, _fd_jacobian(fn, u, fn(u)))


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
    # the layer problem is odd in A: the negated stable family, which is the
    # family at -(x10s, x20s), gives the negated left jet, so the A -> -A
    # counterpart of the match, equated with the negated unstable family,
    # has the negated residual
    sc = working_scaling(p15)
    u, _, _ = connect.newton_match(sc, connect.matching_closed_form(sc.rho).as_array())
    u = u.as_array()
    jet = connect._left_jet(u, sc)
    jet_neg = connect._left_jet(u * [1.0, 1.0, -1.0, -1.0], sc)
    assert np.abs(jet_neg + jet).max() < 1e-12
    r_plus = connect._unstable_mismatch(u, jet, sc)
    # (jet_neg + unstable family) / scales; the mismatch is linear in the jet
    r_minus = -connect._unstable_mismatch(u, -jet_neg, sc)
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
    prof2 = connect.heteroclinic_solve(
        p15, matching=connect.newton_match(prof.scaling, 1.1 * u0))
    assert np.abs(prof2.unknowns.as_array()
                  - prof.unknowns.as_array()).max() < 1e-8
    xs = np.linspace(prof.x[0], prof.x[-1], 800)
    assert np.abs(prof2.sample(xs) - prof.sample(xs)).max() < 1e-6


def test_matching_of_other_half_widths_rejected(p15):
    # a matching solved at another g has other half-widths (a-, a+): the
    # solve names both pairs instead of joining its cores to those traces
    sc2 = working_scaling(derive_params(0.1, 2.0))
    other = connect.newton_match(sc2, connect.matching_closed_form(sc2.rho).as_array())
    sc = working_scaling(p15)
    with pytest.raises(ValueError) as err:
        connect.heteroclinic_solve(p15, matching=other)
    for a in (sc2.a_minus, sc2.a_plus, sc.a_minus, sc.a_plus):
        assert repr(a) in str(err.value)


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


def test_condition_number_stable_under_refinement(p15, profile15, monkeypatch):
    prof = profile15.value
    sc = prof.scaling
    u0 = prof.unknowns.as_array()
    conds = []
    for n in (2048, 4096):
        _layer_grid(monkeypatch, n)
        _, info, _ = connect.newton_match(sc, u0)
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


# Equivalence gate of the anchor's report against the values recorded with
# the benchmark (forward-difference shooting Jacobians).  Fields the core
# shots cannot reach are bit-equal; the junction match need only reach
# REFINE_TOL; W, B' and B(0) sit at round-off; every other scalar (positions,
# blend windows, A(0), tail rates) moves with the junction iterate, within 1e-6.
_BIT_EQUAL = ("epsilon", "g", "delta", "nu_minus", "nu_plus", "alpha_minus",
              "alpha_plus", "a_minus", "a_plus", "rho", "supported_regime",
              "unknowns.", "newton_iterations", "matching_residual", "jacobian_",
              "degenerate", "b0_monotone")
_ROUND_OFF = ("sup_w", "min_b1", "leaf_handoff_mismatch", "b0_at_zero")


def test_anchor_report_matches_baseline(profile15):
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
        if key.startswith(_BIT_EQUAL) or key.endswith(".target"):
            assert got[key] == value, key
        elif key == "junction_mismatch":
            assert got[key] <= 2e-7, key
        elif key in _ROUND_OFF:
            assert abs(got[key] - value) <= 1e-12, key
        else:
            assert abs(got[key] - value) <= 1e-6, key


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


def _count_core_shots(monkeypatch) -> tuple[list[int], list[int]]:
    """Record the field evaluations of every core shot, that is every call of
    the DOP853 kernel, and count every field evaluation in ``total[0]``, the
    dense cores' extra stages included."""
    shots, total = [], [0]
    field, kernel = dynamics.vector_field, ode._dop853

    def counted_field(y, p):
        total[0] += 1
        return field(y, p)

    def counted_kernel(fun, t0, t1, y0, *args, **kwargs):
        # every kernel call is a plain core shot: no tangent columns, and
        # the left tail is a quadrature, not a shot
        assert len(y0) == 6
        before = total[0]
        out = kernel(fun, t0, t1, y0, *args, **kwargs)
        shots.append(total[0] - before)
        return out

    monkeypatch.setattr(dynamics, "vector_field", counted_field)
    monkeypatch.setattr(ode, "_dop853", counted_kernel)
    return shots, total


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_corner_solve(monkeypatch):
    # delta just above 1/3 with eps at the ceiling.  At g = 1.12 junction
    # line-search trials step below beta = 1/sqrt(g); they must be rejected
    # as invalid seeds, not evaluated as NaN.  With exact Jacobians the match
    # converges at the full right window t_r (forward-difference columns
    # stalled there and needed a shorter window, in 218 shots).  The whole
    # battery passes: the A envelope is fitted on an oscillation
    # that the tail continues rather than blends to zero
    nfev, _ = _count_core_shots(monkeypatch)
    for g in (1.115, 1.12):
        nfev.clear()
        p = derive_params(0.25, g)
        prof = connect.heteroclinic_solve(p)
        assert prof.junction_mismatch < 1e-6
        assert prof.sup_w < 1e-8
        assert prof.min_b1 > 0.0
        assert abs(prof.b0_at_zero - p.inv_sqrt_g) < 1e-10
        assert prof.junction_mismatch <= connect.REFINE_TOL
        assert len(nfev) <= 60
        assert verify.verify_profile(prof).passed


def test_right_tail_continues_the_right_core(profile15):
    # past x_r the tail carries the right core's fast stable offset: it
    # starts on the core's seed, and the blend toward it follows the core
    prof = profile15.value
    pc = prof._pieces
    jn = pc.junction
    seed, _ = pc.geo.right_seed(*jn.theta[2:])
    at_x_r = connect._sample_pieces(np.array([jn.x_r]), pc, prof.p)[0]
    np.testing.assert_allclose(at_x_r[:4], seed[:4], rtol=1e-12, atol=0.0)
    xs = np.linspace(jn.x_r - connect.W_R, jn.x_r, 401)
    core = jn.sol_right(xs).T[:, :4]
    blended = connect._sample_pieces(xs, pc, prof.p)[:, :4]
    assert np.abs(blended - core).max() < 1e-3 * np.abs(core).max()


def test_junction_columns_match_central_differences(profile15):
    # the exact junction Jacobian against central differences of value-only
    # shots, at the accepted iterate of the anchor
    prof = profile15.value
    geo, jn = prof._pieces.geo, prof._pieces.junction
    th, x_r = jn.theta, jn.x_r
    _, shots = connect._junction_residual(geo, x_r, th)
    J = connect._junction_jacobian(geo.p, shots)
    scale = connect._junction_scale(geo.p)

    def value(t):
        return (geo.left_shot(t[:2]).y - geo.right_shot(x_r, t[2], t[3], t[4]).y) / scale

    for j, offset in enumerate((1e-2, 1e-2, 1e-4, 1e-4, 1e-2)):
        h = 1e-6 * (abs(th[j]) + offset)
        e = np.zeros(5)
        e[j] = h
        column = (value(th + e) - value(th - e)) / (2.0 * h)
        assert np.abs(J[:, j] - column).max() <= 1e-3 * np.abs(J[:, j]).max(), j


def _reference_tangents(steps, d_seed, p):
    """Unvectorized reference of ode._step_tangents: per step and stage,
    the stage's Jacobian times the stage's tangent combination."""
    phi = d_seed
    for n, h in enumerate(np.diff(steps.ts)):
        dk = []
        for s in range(12):
            stage = steps.ys[n] + h * DOP853.A[s, :s] @ steps.ks[n, :s]
            x = phi + h * sum((DOP853.A[s, j] * dk[j] for j in range(s)), np.zeros_like(phi))
            dk.append(dynamics.jacobian(stage, p) @ x)
        phi = phi + h * sum(DOP853.B[s] * dk[s] for s in range(12))
    return phi


def test_step_tangents_match_unvectorized_reference(profile15):
    # the seed derivative carried along the recorded steps of the anchor's
    # accepted left core (2 columns) and right core (3 columns), vectorized
    # over the steps, against the same DOP853 stages one step and stage at a
    # time
    prof = profile15.value
    geo, jn = prof._pieces.geo, prof._pieces.junction
    for shot, k in ((geo.left_shot(jn.theta[:2]), 2),
                    (geo.right_shot(jn.x_r, *jn.theta[2:]), 3)):
        assert shot.d_seed.shape == (6, k) and shot.steps.ts.size > 8
        want = _reference_tangents(shot.steps, shot.d_seed, prof.p)
        got = ode._step_tangents(shot.steps, shot.d_seed, prof.p)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_junction_work_guard(monkeypatch, p15):
    # one shot per core and iterate, the junction match started from the
    # leaf and from the right anchor fitted to the closed-form trace, and
    # dense cores taken from the accepted iterate's shots (3 extra stages per
    # step, plus a short continuation past x_hat) keep the anchor at 8,618
    # field evaluations in 13 core shots.  On the 180-cell box, the 153
    # cells whose match takes as many evaluations from either anchor fit
    # moved by -0.4% to +2.3% (8,812 here), and on the 17 whose count moved
    # by one, that evaluation cost 1,312 to 1,612 field evaluations (9,930
    # here), so the bound lies between the two; re-shooting both dense cores
    # took 9,914, a left-section calibration before the match 12.5k in 17
    # shots, and forward-difference columns 38k in 43
    nfev, total = _count_core_shots(monkeypatch)
    connect.heteroclinic_solve(p15)
    assert 0 < len(nfev) <= 14
    assert sum(nfev) < total[0] < 8_850


def test_matching_layer_solve_guard(monkeypatch, p15):
    # the (x1u, x2u) difference columns reuse the iterate's layer jet, so a
    # Newton iteration solves the layer problem 3 times and the reported
    # Jacobian 2: 15 solves at the anchor, where 25 re-solved every column.
    # Counted on stage 1 in this process: a solve may run it in a child
    calls = []
    solve_inner = inner.solve_inner

    def counted(prob):
        calls.append(prob)
        return solve_inner(prob)

    monkeypatch.setattr(inner, "solve_inner", counted)
    matching = connect.solve_matching(working_scaling(p15))
    assert 0 < len(calls) <= 16
    monkeypatch.undo()
    prof = connect.heteroclinic_solve(p15)
    unknowns, info, _ = matching
    assert prof.unknowns == unknowns
    assert prof.newton_iterations == info["iterations"]
    assert prof.matching_residual == info["residual"]
    assert np.array_equal(prof.matching_jacobian, info["jacobian"])


@pytest.mark.parametrize("g, eps", [(1.1115, 0.01), (1.12, 0.01), (2.0, 0.01)])
def test_leaf_start_at_box_edge(g, eps):
    # the junction match starts the left core on the leaf (c = 0); at the
    # small-eps edge of the box it must still converge
    # ((1.12, 0.01) needs 7 junction evaluations there, 5 from a left
    # calibration)
    prof = connect.heteroclinic_solve(derive_params(eps, g))
    assert prof.junction_mismatch <= connect.REFINE_TOL
    assert prof.sup_w < 1e-8
    assert prof.min_b1 > 0.0
    assert np.all(np.diff(prof.states[:, 4]) > 0)


def test_leaf_table_work_guard(monkeypatch, p15):
    # the slow leaf is evaluated once per solve, in one call on the 96
    # Chebyshev nodes of its table and the left core's seed: every later
    # sample reads the table, where sampling through the difference tree
    # took 2,364 amplitudes.  At (1.12, 0.01) and (1.1115, 0.01) the table
    # reaches up to B at x_a + W_A too (a range capped at 0.97/sqrt(g1) left
    # 6 and 7 amplitudes to the difference tree)
    amplitudes = []
    leaf_states = outer.leaf_states

    def counted(b0, p):
        amplitudes.append(np.atleast_1d(b0).size)
        return leaf_states(b0, p)

    monkeypatch.setattr(outer, "leaf_states", counted)
    for p in (p15, derive_params(0.01, 1.12), derive_params(0.01, 1.1115)):
        amplitudes.clear()
        connect.heteroclinic_solve(p)
        assert amplitudes == [1 + outer.LEAF_TABLE_NODES]


def _stacked(sol: OdeSolution) -> tuple[np.ndarray, ...]:
    """The (t_old, h, y_old, F) arrays of a DOP853 ``OdeSolution``'s steps."""
    steps = sol.interpolants
    return tuple(np.array([getattr(s, name) for s in steps])
                 for name in ("t_old", "h", "y_old", "F"))


def test_dense_solution_is_bit_equal_to_ode_solution(monkeypatch, p15):
    # the stacked interpolants of both cores (the right one descending)
    # against scipy's OdeSolution over the same DOP853 step interpolants: at
    # every step end, at step midpoints and outside the span
    built = []

    class Recorded(ode._DenseSolution):
        def __init__(self, t_old, h, y_old, F):
            super().__init__(t_old, h, y_old, F)
            built.append(self)

    monkeypatch.setattr(ode, "_DenseSolution", Recorded)
    connect.heteroclinic_solve(p15)
    assert len(built) == 2
    assert sorted(dense.ascending for dense in built) == [False, True]
    for dense in built:
        ts = dense.ts_sorted if dense.ascending else dense.ts_sorted[::-1]
        steps = [Dop853DenseOutput(*args) for args in zip(ts[:-1], ts[1:], dense.y_old, dense.F)]
        for step, h in zip(steps, dense.h):
            step.h = h  # the kernel's step, which t_old + h may round off
        sol = OdeSolution(ts, steps)
        lo, hi = min(ts[0], ts[-1]), max(ts[0], ts[-1])
        t = np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:]),
                            [lo - 50.0, lo - 1.0, hi + 1.0, hi + 50.0]])
        np.random.default_rng(0).shuffle(t)
        assert np.array_equal(dense(t), sol(t))


@pytest.mark.parametrize("span", [(0.0, 3.0), (3.0, 0.0)], ids=["ascending", "descending"])
def test_dense_solution_segment_choice(span):
    # with each step's start value moved off the previous step's end, the
    # two steps meeting at a knot disagree there, so a knot evaluates to the
    # value of the step OdeSolution picks
    sol = solve_ivp(lambda t, y: [y[1], -y[0]], span, [1.0, 0.0], method="DOP853",
                    dense_output=True, rtol=1e-6).sol
    for k, step in enumerate(sol.interpolants):
        step.y_old = step.y_old + 1e-3 * (k + 1)
    ts = sol.ts
    t = np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:]), [-50.0, -1.0, 4.0, 53.0]])
    assert len(ts) > 4
    assert np.array_equal(ode._DenseSolution(*_stacked(sol))(t), sol(t))


def _per_term_gather(dense: ode._DenseSolution, t: np.ndarray) -> np.ndarray:
    """Reference: the dense output gathering one row of F per term and
    forming 1 - x on every odd term."""
    last = dense.h.size - 1
    seg = np.searchsorted(dense.ts_sorted, t, side="left" if dense.ascending else "right")
    seg = np.clip(seg - 1, 0, last)
    if not dense.ascending:
        seg = last - seg
    x = ((t - dense.t_old[seg]) / dense.h[seg])[:, None]
    y = np.zeros((t.size, dense.y_old.shape[1]))
    for i in range(dense.F.shape[1]):
        y += dense.F[seg, -1 - i]
        y *= x if i % 2 == 0 else 1 - x
    y += dense.y_old[seg]
    return y.T


def test_dense_solution_is_bit_equal_to_per_term_gather(profile15):
    # a take per row from the rows in Horner order, and one 1 - x per read,
    # give the bits of a fancy-index gather of F per term with 1 - x formed
    # on every odd term, on both cores: at the knots, mid-step, on a fine
    # grid and outside the span
    jn = profile15.value._pieces.junction
    for dense in (jn.sol_left, jn.sol_right):
        ts = dense.ts_sorted
        t = np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:]),
                            np.linspace(ts[0] - 5.0, ts[-1] + 5.0, 4001)])
        np.random.default_rng(1).shuffle(t)
        assert np.array_equal(dense(t), _per_term_gather(dense, t))


def _kernel_calls(monkeypatch) -> list[tuple]:
    """Record every call of the DOP853 kernel: its arguments, its result and
    the field evaluations it made."""
    calls = []
    kernel = ode._dop853

    def recorded(field, t0, t1, y0, rtol, atol):
        nfev = 0

        def counted(y):
            nonlocal nfev
            nfev += 1
            return field(y)

        out = kernel(counted, t0, t1, y0, rtol, atol)
        calls.append(((field, t0, t1, y0, rtol, atol), out, nfev))
        return out

    monkeypatch.setattr(ode, "_dop853", recorded)
    return calls


def test_kernel_takes_the_steps_of_solve_ivp(monkeypatch, profile15):
    # the anchor's left and right cores, each against
    # solve_ivp(method="DOP853") on the same field, span and tolerances: the
    # same accepted steps and field evaluations (the knots move only by the
    # rounding of the error estimates, which the step factor raises to the
    # power -1/8), and the same end state to the shot tolerance
    prof = profile15.value
    geo, jn = prof._pieces.geo, prof._pieces.junction
    calls = _kernel_calls(monkeypatch)
    geo.left_shot(jn.theta[:2])
    geo.right_shot(jn.x_r, *jn.theta[2:])
    assert [len(args[3]) for args, _, _ in calls] == [6, 6]
    for (field, t0, t1, y0, rtol, atol), (y, steps), nfev in calls:
        ref = solve_ivp(lambda t, y: field(y), (t0, t1), y0, method="DOP853",
                        rtol=rtol, atol=atol)
        assert nfev == ref.nfev and steps.ts.size == ref.t.size > 8
        assert np.abs(steps.ts - ref.t).max() <= 1e-3 * abs(t1 - t0)
        assert np.array_equal(steps.ys[-1], y)
        assert np.abs(y - ref.y[:, -1]).max() < 1e-10


@pytest.mark.parametrize("g, eps", [(1.5, 0.1), (2.0, 0.25)])
def test_left_tail_matches_reference_profile(g, eps):
    # the left tail's B-profile, a quadrature on the leaf table, against
    # b' = leaf_b1(b) integrated from the left core's seed (x_a, b0_a): on
    # the default grid left of x_a and over the left blend.  Where the left
    # core's fast offset has tapered out, the B' column is the derivative of
    # the sampled B: a 4th-order difference on the default grid matches it
    # within 1e-11 (set before the quadrature replaced the tail shots of
    # b' = spline of leaf_b1, which read 9.9e-13 and 2.2e-14 here)
    prof = connect.heteroclinic_solve(derive_params(eps, g))
    pc = prof._pieces
    x_a, b0_a = pc.geo.x_a, pc.geo.b0_a
    x = prof.x + prof.x_shift
    back = x < x_a
    blend = np.linspace(x_a, x_a + connect.W_A, 51)
    w = np.exp((blend - x_a) / pc.a)
    for xs, got in ((x[back][::-1], prof.states[back, 4][::-1]), (blend, w * pc.h(w))):
        ref = solve_ivp(lambda t, b: outer.leaf_b1(b, prof.p), (x_a, xs[-1]), [b0_a],
                        method="DOP853", rtol=1e-13, atol=1e-16, t_eval=xs)
        assert np.abs(ref.y[0] - got).max() <= 1e-9
    h = prof.x[1] - prof.x[0]
    b, b1 = prof.states[:, 4], prof.states[:, 5]
    d4 = (b[:-4] - 8.0 * b[1:-3] + 8.0 * b[3:-1] - b[4:]) / (12.0 * h)
    bare = x[2:-2] < x_a - connect.DEV_REACH
    assert bare.sum() > 10
    assert np.abs(d4 - b1[2:-2])[bare].max() <= 1e-11


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_blow_up_raises_realization_error(p15):
    # y' = y^2 from y(0) = 1 blows up at t = 1, and a core seed far off the
    # connection (A = 3) runs away too: the step falls below its minimum or
    # the error norm stops being finite, either raises, and no
    # floating-point warning escapes the kernel
    with pytest.raises(connect.RealizationError):
        ode._dop853(lambda y: y * y, 0.0, 2.0, np.array([1.0]), 1e-12, 1e-14)
    with pytest.raises(connect.RealizationError):
        ode._shoot(np.array([3.0, 0.0, 0.0, 0.0, 0.5, 0.0]), (0.0, 50.0), p15,
                   1e-12, 1e-14)
    with pytest.raises(connect.RealizationError):
        ode._dop853(lambda y: y * y, 0.0, 1.0, np.array([np.inf]), 1e-12, 1e-14)


def test_dense_cores_from_junction_records(profile15):
    # a dense core is the accepted junction shot's recorded steps continued
    # past x_hat: its knots are those of the plain junction shot, and at them
    # it returns the recorded states (the first exactly, the others as
    # y_old + (y_new - y_old), to rounding); at step midpoints it agrees
    # with a plain dense kernel shot over the span
    prof = profile15.value
    geo, jn = prof._pieces.geo, prof._pieces.junction
    field = lambda y: dynamics.vector_field(y, prof.p)
    span = connect.W_H + 0.25
    for dense, (seed, _), start, (y, steps, _) in (
            (jn.sol_left, geo.left_seed(jn.theta[:2]), geo.x_a,
             geo.left_shot(jn.theta[:2])),
            (jn.sol_right, geo.right_seed(*jn.theta[2:]), jn.x_r,
             geo.right_shot(jn.x_r, *jn.theta[2:]))):
        end = geo.x_hat + math.copysign(span, geo.x_hat - start)
        steps = steps.followed_by(ode._shoot(y, (geo.x_hat, end), prof.p)[1])
        assert np.array_equal(dense.t_old, steps.ts[:-1])
        assert np.array_equal(dense.y_old, steps.ys[:-1])
        assert np.array_equal(dense(steps.ts[:1])[:, 0], seed)
        y_old, y_new = steps.ys[:-1], steps.ys[1:]
        assert np.all(np.abs(dense(steps.ts[1:]).T - y_new)
                      <= 2.3e-16 * (np.abs(y_old) + np.abs(y_new)))
        plain = ode._dense_solution(prof.p, ode._dop853(
            field, start, end, seed, ode.ODE_RTOL, ode.ODE_ATOL)[1])
        mid = 0.5 * (steps.ts[:-1] + steps.ts[1:])
        assert np.abs(dense(mid) - plain(mid)).max() < 1e-10


def _failing_match(scaling, u0):
    raise connect.MatchingError("injected", last_iterate=np.arange(4.0), jacobian=np.eye(4))


def test_stage1_errors_survive_pickling():
    # a forked stage 1 sends its error to the parent by pickle: each error
    # stage 1 can raise comes back with its type, message and attributes
    for exc in (connect.MatchingError("line search stalled", last_iterate=np.arange(4.0),
                                      jacobian=np.eye(4)),
                inner.NonConvergence("fixed-point iteration diverging", [1.0, 2.5]),
                inner.ContractionViolated("not contractive"),
                np.linalg.LinAlgError("Singular matrix"),
                ValueError("matching system singular")):
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc) and copy.args == exc.args
        assert vars(copy).keys() == vars(exc).keys()
        for name, value in vars(exc).items():
            assert np.array_equal(getattr(copy, name), value), name


def test_forked_stage1_error_is_the_inline_error(monkeypatch, p15, tmp_path, fork_pids):
    # stage 1 solved inline (1 CPU) and in a child (2 CPUs) raises the same
    # error, attributes included, and `orthowall solve` exits 2 on it
    monkeypatch.setattr(connect, "newton_match", _failing_match)
    raised = {}
    for cpus in (1, 2):
        monkeypatch.setattr(connect, "_usable_cpus", lambda: cpus)
        with pytest.raises(connect.MatchingError) as err:
            connect.heteroclinic_solve(p15)
        raised[cpus] = err.value
        assert len(fork_pids) == cpus - 1
    inline, forked = raised[1], raised[2]
    assert type(forked) is type(inline) and str(forked) == str(inline) == "injected"
    assert np.array_equal(forked.last_iterate, inline.last_iterate)
    assert np.array_equal(forked.jacobian, inline.jacobian)
    rc = cli.main(["solve", "--out", str(tmp_path / "s"), "--epsilon", "0.1", "--g", "1.5",
                   "--quiet"])
    assert rc == 2 and len(fork_pids) == 2


def test_no_child_outlives_a_solve(monkeypatch, p15, fork_pids):
    # a later stage that fails still waits for stage 1 and reaps its child;
    # when both fail, stage 1's error wins, as in the serial order
    monkeypatch.setattr(connect, "_usable_cpus", lambda: 2)

    def failing_tail(geo, junction):
        raise connect.RealizationError("injected tail")

    monkeypatch.setattr(connect, "_tail_pieces", failing_tail)
    with pytest.raises(connect.RealizationError, match="injected tail"):
        connect.heteroclinic_solve(p15)
    monkeypatch.setattr(connect, "newton_match", _failing_match)
    with pytest.raises(connect.MatchingError, match="injected"):
        connect.heteroclinic_solve(p15)
    assert len(fork_pids) == 2
    for pid in fork_pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_interrupted_solve_kills_its_child(monkeypatch, p15, fork_pids):
    # an interrupt in the parent does not wait for stage 1: the child is
    # killed and reaped
    monkeypatch.setattr(connect, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(connect, "newton_match", lambda scaling, u0: time.sleep(60))

    def interrupted(geo, junction):
        raise KeyboardInterrupt

    monkeypatch.setattr(connect, "_tail_pieces", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        connect.heteroclinic_solve(p15)
    assert time.perf_counter() - t0 < 30.0
    with pytest.raises(ChildProcessError):
        os.waitpid(fork_pids[0], os.WNOHANG)


def test_child_without_result_is_a_matching_error(monkeypatch, p15, fork_pids):
    # a child that exits before it sends a result names its wait status
    monkeypatch.setattr(connect, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(connect, "solve_matching", lambda scaling: os._exit(3))
    with pytest.raises(connect.MatchingError, match="wait status 768 and no result"):
        connect.heteroclinic_solve(p15)
    with pytest.raises(ChildProcessError):
        os.waitpid(fork_pids[0], os.WNOHANG)


def test_failed_fork_solves_stage1_inline(monkeypatch, p15):
    # a fork that fails (no process to spare) leaves stage 1 to the solve
    # itself, and closes the pipe it opened for the child
    monkeypatch.setattr(connect, "_usable_cpus", lambda: 1)
    inline = connect.heteroclinic_solve(p15)
    monkeypatch.setattr(connect, "_usable_cpus", lambda: 2)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    prof = connect.heteroclinic_solve(p15)
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds
    assert np.array_equal(prof.states, inline.states)
    assert prof.unknowns == inline.unknowns


def test_failed_fork_keeps_the_parents_cpus(monkeypatch, p15):
    # where the fork fails, stage 1 runs in the solving process itself,
    # which keeps every CPU it may use: only a child moves off its parent's
    monkeypatch.setattr(connect, "_usable_cpus", lambda: 2)
    moves = []
    monkeypatch.setattr(connect, "_leave_cpu", moves.append)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    connect.heteroclinic_solve(p15)
    assert moves == []
    if allowed is not None:
        assert os.sched_getaffinity(0) == allowed


@pytest.mark.parametrize("g, eps", [(1.5, 0.1), (1.2, 0.02), (1.12, 0.25)])
def test_forked_and_inline_stage1_agree(monkeypatch, fork_pids, g, eps):
    # the profile and its matching fields, bit for bit, whether stage 1 ran
    # inline (1 CPU) or in a child (2 CPUs)
    p = derive_params(eps, g)
    profs = []
    for cpus in (1, 2):
        monkeypatch.setattr(connect, "_usable_cpus", lambda: cpus)
        profs.append(connect.heteroclinic_solve(p))
    assert len(fork_pids) == 1
    inline, forked = profs
    for name in ("x", "states", "w", "matching_jacobian"):
        assert np.array_equal(getattr(forked, name), getattr(inline, name)), name
    assert forked.unknowns == inline.unknowns
    assert forked.newton_iterations == inline.newton_iterations
    assert forked.matching_residual == inline.matching_residual


def test_stage1_stays_inline_beside_other_threads(monkeypatch, profile15, fork_pids,
                                                  other_thread):
    # a fork copies only the calling thread, so a solve in a process that
    # runs another thread forks nothing and solves stage 1 itself, to the
    # same profile
    monkeypatch.setattr(connect, "_usable_cpus", lambda: 2)
    prof = connect.heteroclinic_solve(profile15.value.p)
    assert fork_pids == []
    inline = profile15.value
    for name in ("x", "states", "w", "matching_jacobian"):
        assert np.array_equal(getattr(prof, name), getattr(inline, name)), name
    assert prof.unknowns == inline.unknowns


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity call")
def test_child_leaves_the_parents_cpu():
    # the child of a solve moves to the CPUs it may use other than its
    # parent's, where there are any
    cpu = connect._current_cpu()
    allowed = os.sched_getaffinity(0)
    assert cpu in allowed
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            connect._leave_cpu(cpu)
            os.write(write_fd, json.dumps(sorted(os.sched_getaffinity(0))).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        got = json.loads(pipe.read())
    os.waitpid(pid, 0)
    assert got == sorted(allowed - {cpu} or allowed)


@pytest.mark.parametrize("g, eps", [(1.19109, 0.199994), (1.19254, 0.0987172)])
def test_panel_cells_at_the_noise_floor(g, eps):
    # solve-panel cells (seeds 11 and 12) at g ~ 1.19, where the match can
    # end within the shots' noise of REFINE_TOL: a change to the shots'
    # rounding re-rolls where such a cell ends (these end at 2.0e-8 and
    # 1.98e-7 here), and none may end above it
    prof = connect.heteroclinic_solve(derive_params(eps, g))
    assert prof.junction_mismatch <= connect.REFINE_TOL
    assert prof.sup_w < 1e-8


def test_sample_does_not_reach_ode_solution(monkeypatch, profile15):
    # the profile is evaluated from its stacked interpolants alone
    def unused(self, t):
        raise AssertionError("OdeSolution.__call__ reached")

    monkeypatch.setattr(OdeSolution, "__call__", unused)
    prof = profile15.value
    states = prof.sample(np.linspace(prof.x[0], prof.x[-1], 5601))
    assert np.isfinite(states).all()


def test_solve_leaves_no_cyclic_garbage(p15):
    # phase fixing roots a module function with the pieces as an argument,
    # so with the collector off a profile's pieces die with the profile
    enabled = gc.isenabled()
    gc.disable()
    try:
        prof = connect.heteroclinic_solve(p15)
        pieces = weakref.ref(prof._pieces)
        del prof
        assert pieces() is None
    finally:
        if enabled:
            gc.enable()


def test_profile_pickle_round_trip(profile15):
    # sweep workers send their results across processes; a profile must
    # survive pickling with its pieces, the leaf table included
    prof = profile15.value
    copy = pickle.loads(pickle.dumps(prof))
    xs = np.linspace(prof.x[0], prof.x[-1], 501)
    assert np.array_equal(copy.sample(xs), prof.sample(xs))
    assert np.array_equal(copy.states, prof.states)


def test_left_tail_outside_the_table_raises(monkeypatch):
    # the left tail's inversion keeps log B inside the leaf table; a table
    # that ends below B at x_a + W_A (at (1.12, 0.01) B reaches 0.9194 there,
    # and a range 0.03 below the branch edge ends at 0.9149) is a typed
    # failure, not an extrapolated series
    monkeypatch.setattr(outer, "LEAF_EDGE_MARGIN", 0.03)
    with pytest.raises(connect.RealizationError, match="leaf table"):
        connect.heteroclinic_solve(derive_params(0.01, 1.12))


@pytest.fixture(scope="module")
def tail_profiles(profile15):
    """The anchor and three cells at the edges of the box."""
    return [profile15.value] + [connect.heteroclinic_solve(derive_params(eps, g))
                                for g, eps in ((2.0, 0.01), (1.12, 0.01), (1.1113, 0.25))]


def test_dop853_tableau_is_scipys():
    # the kernel's tableau is a copy of scipy's, equal to it bit for bit
    for name in ("A", "B", "E3", "E5", "D", "A_EXTRA"):
        assert np.array_equal(getattr(ode, name), getattr(DOP853, name)), name


def test_stage5_roots_are_crossings(tail_profiles):
    # phase fixing's three roots are B's crossings of its levels: B(0) is
    # 1/sqrt(g) and B at the corners B00 and B01, each to 2 ulp
    for prof in tail_profiles:
        sc = prof.scaling
        b0, b_left, b_plus = prof.sample(np.array([0.0, prof.x_star_left, prof.x_star_plus]))[:, 4]
        for got, level in ((b0, prof.p.inv_sqrt_g), (b_left, sc.b00), (b_plus, sc.b01)):
            assert abs(got - level) <= 2 * np.spacing(level), (prof.p, got, level)
        assert prof.x_star_left < 0.0 < prof.x_star_plus


def test_b_crossing_raises_without_crossing():
    # a bracket that B does not cross, from below or from above, exhausts
    # the evaluations and is a typed failure
    def state_at(x):
        return np.array([0.0, 0.0, 0.0, 0.0, math.tanh(x), 1.0 / math.cosh(x) ** 2])

    assert connect._b_crossing(state_at, 0.5, 0.0, -3.0, 3.0) == pytest.approx(math.atanh(0.5),
                                                                               abs=1e-15)
    for lo, hi in ((-3.0, 0.0), (1.0, 3.0)):
        with pytest.raises(connect.RealizationError, match="does not cross"):
            connect._b_crossing(state_at, 0.5, 0.5 * (lo + hi), lo, hi)


def test_phase_fixing_sample_count(monkeypatch):
    # stage 5 reads B and B' from one sample per Newton step: at most 16
    # one-point samples in the anchor solve
    calls = []

    def counted(raw, pc, p):
        calls.append(raw.size)
        return sample(raw, pc, p)

    sample = connect._sample_pieces
    monkeypatch.setattr(connect, "_sample_pieces", counted)
    connect.heteroclinic_solve(derive_params(0.1, 1.5))
    assert 0 < calls.count(1) <= 16


def test_uniform_hermite_is_exact_on_cubics():
    # to 8 ulp of the cubic's size between the knots; the end cubics extend
    # it two intervals past each end, where rounding grows with t
    def cubic(t):
        return 2.0 - t + 0.5 * t**2 - 1.5 * t**3

    x = 0.3 + 0.05 * np.arange(41)
    herm = hermite.CubicHermite(x, cubic(x), -1.0 + x - 4.5 * x**2)
    xs = np.linspace(x[0], x[-1], 997)
    assert np.abs(herm(xs) - cubic(xs)).max() <= 8 * np.finfo(float).eps * np.abs(cubic(xs)).max()
    xs = np.linspace(x[0] - 0.1, x[-1] + 0.1, 997)
    assert np.abs(herm(xs) - cubic(xs)).max() <= 1e-12


def test_kappa_r_hermite_matches_not_a_knot_spline(tail_profiles):
    # the right tail's decay exponent: a Hermite interpolant whose knot
    # slopes are kappa itself, within 1e-9 of the not-a-knot spline of the
    # same values (measured: at most 1.7e-10, on values up to 405)
    for prof in tail_profiles:
        pc = prof._pieces
        k = pc.kappa_r
        b0 = outer.right_tail_b0(k.x, pc.junction.x_r, float(pc.junction.theta[4]), prof.p)
        kappa = -connect._leaf_exponent(b0, prof.p).real
        assert np.array_equal(k.c[2], kappa[:-1])
        # the last knot's slope is the last cubic's derivative at its end
        c0, c1, c2, _ = k.c[:, -1]
        dx = k.x[-1] - k.x[-2]
        assert abs((3.0 * c0 * dx + 2.0 * c1) * dx + c2 - kappa[-1]) <= 1e-9
        xs = np.linspace(k.x[0], k.x[-1], 7 * k.x.size)
        assert np.abs(k(xs) - CubicSpline(k.x, k(k.x))(xs)).max() <= 1e-9


def test_cubic_hermite_is_scipys(tail_profiles):
    # verify's and inner's Hermite makes CubicHermiteSpline's bits, on a
    # solve's states with the field as slopes ((n, 6) values) and on single
    # columns (1-D): at the knots, inside the intervals, at the right end
    # and outside the knots
    rng = np.random.default_rng(7)
    for prof in tail_profiles:
        x, states = prof.x, prof.states
        dydx = np.array([dynamics.vector_field(s, prof.p) for s in states])
        span = x[-1] - x[0]
        xs = np.concatenate([x, x[:-1] + 0.5 * np.diff(x), rng.uniform(x[0], x[-1], 5000),
                             [np.nextafter(x[-1], -np.inf), np.nextafter(x[-1], np.inf)],
                             rng.uniform(x[0] - span, x[0], 200),
                             rng.uniform(x[-1], x[-1] + span, 200)])
        got = hermite.CubicHermite(x, states, dydx)(xs)
        assert got.shape == (xs.size, 6)
        assert np.array_equal(got, CubicHermiteSpline(x, states, dydx, axis=0)(xs))
        for j in (0, 3, 4):
            assert np.array_equal(hermite.CubicHermite(x, states[:, j], dydx[:, j])(xs),
                                  CubicHermiteSpline(x, states[:, j], dydx[:, j])(xs))


@pytest.mark.parametrize("x, y, m", [
    ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
    ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
    ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
    ([0.0, 1.0, 2.0], [0.0, math.inf, 2.0], [0.0, 0.0, 0.0]),
    ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, math.nan, 0.0]),
], ids=["unsorted", "repeated-knot", "nan-knot", "inf-value", "nan-slope"])
def test_cubic_hermite_rejects_what_scipy_rejects(x, y, m):
    # a written profile reaches the Hermite from outside: bad knots or
    # values raise scipy's ValueError, which the CLI reports with exit 1
    with pytest.raises(ValueError) as ref:
        CubicHermiteSpline(x, y, m)
    with pytest.raises(ValueError, match=re.escape(str(ref.value))):
        hermite.CubicHermite(x, y, m)


def _cheb_fit_inputs(prof):
    """Every array a solve hands to outer.cheb_fit, rebuilt from its pieces:
    the leaf table's columns, the two leaf integrals' series (1 and the slow
    pair's lambda_r - i lambda_i over B') and the left tail's h at its nodes."""
    pc, p = prof._pieces, prof.p
    leaf = pc.geo.leaf
    b = outer.cheb_nodes(leaf.b_hi)
    inputs = [outer.leaf_states(b, p)[:, [0, 1, 2, 3, 5]]]
    for g in (np.ones_like(b), np.dot([1.0, -1.0j], frames.lambda_pair(b, p))):
        y = g * b / leaf(b)[:, 5]
        series = Chebyshev(outer.cheb_fit(y), [0.0, leaf.b_hi])
        inputs += [y, (series(b) - series(0.0)) / b]
    return inputs + [pc.h(outer.cheb_nodes(pc.h.domain[1]))]


def test_cheb_fit_matches_scipy_dct(tail_profiles):
    # the matrix DCT against scipy's type-II DCT on every series of four
    # solves; bound set before measuring: a 96-term sum of terms no larger
    # than 2 max|v|, divided by 96, is off by at most 96 eps max|v| per
    # column (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1)
    # (measured: at most 1.52 eps max|v|)
    n = outer.LEAF_TABLE_NODES
    for prof in tail_profiles:
        for v in _cheb_fit_inputs(prof):
            ref = dct(v, type=2, axis=0) / n
            ref[0] *= 0.5
            err = np.abs(outer.cheb_fit(v) - ref)
            assert np.all(err <= n * np.finfo(float).eps * np.abs(v).max(axis=0))


def _series_of(prof):
    """The Chebyshev series a sample reads: the leaf table (5 columns), the
    left tail's h and the transport series of its fast offset (complex)."""
    pc = prof._pieces
    return [pc.geo.leaf.coef, pc.h.coef, pc.fast[1].coef]


def test_cheb_eval_matches_chebval(tail_profiles):
    # the blocked Vandermonde product against numpy's Clenshaw evaluation on
    # three blocks of points, column by column; bound set before measuring:
    # both sum K terms, each with an error of about eps times the term, so
    # they agree within K eps sum|coef| per column
    t = np.linspace(-1.0, 1.0, 2 * outer.CHEB_BLOCK + 1001)
    for prof in tail_profiles:
        for coef in _series_of(prof):
            got = outer.cheb_eval(t, coef)
            ref = chebval(t, coef, tensor=True).T if coef.ndim == 2 else chebval(t, coef)
            assert got.shape == ref.shape and got.dtype == ref.dtype
            bound = coef.shape[0] * np.finfo(float).eps * np.abs(coef).sum(axis=0)
            assert np.all(np.abs(got - ref) <= bound)


def test_sample_makes_no_numpy_chebyshev_evaluation(monkeypatch, profile15):
    # every read of the leaf's series in a sample goes through cheb_eval: on
    # a grid that reaches the leaf and its taper, no chebval call by the
    # table (outer.chebval) and none by a series object (Chebyshev._val, the
    # name Chebyshev.__call__ calls); the Clenshaw reads made 6 here, table,
    # h and transport in the leaf and again in its blend
    prof = profile15.value
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(outer, "chebval", counted(chebval), raising=False)
    monkeypatch.setattr(Chebyshev, "_val", staticmethod(counted(Chebyshev._val)))
    x = np.linspace(prof.x[0], prof.x[-1], 4001)
    leaf_end = prof.x_left_leaf_end
    assert np.any((x > leaf_end - connect.DEV_REACH) & (x < leaf_end))
    prof.sample(x)
    assert calls == []


def test_sample_memory_guard():
    # the tracemalloc peak of one 16,001-point sample at (1.2, 0.1) stays at
    # or below the 3,119,737 bytes the same sample took with numpy's
    # Clenshaw reads: cheb_eval's Vandermonde blocks are bounded, where one
    # whole (n x 96) matrix of the leaf's 11,168 points is 8.6 MB
    prof = connect.heteroclinic_solve(derive_params(0.1, 1.2))
    x = np.linspace(prof.x[0], prof.x[-1], 16001)
    prof.sample(x)
    tracemalloc.start()
    try:
        prof.sample(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_119_737
