import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from orthowall import connect, dynamics, frames, integrate, outer
from orthowall.params import derive_params, working_scaling


@pytest.fixture(scope="module")
def p():
    return derive_params(0.1, 1.5)


def shot(s0, span, p, **kw):
    kw.setdefault("rtol", 1e-10)
    kw.setdefault("atol", 1e-12)
    kw.setdefault("method", "DOP853")
    sol = solve_ivp(lambda x, y: dynamics.vector_field(y, p), span, s0, **kw)
    assert sol.success
    return sol


def kernel_shot(s0, span, p, rtol=1e-10, atol=1e-12):
    """The program's core shot: the accepted steps of ``connect._shoot``."""
    return connect._shoot(np.asarray(s0, dtype=float), span, p, rtol, atol)[1]


def w_of(states, p):
    return np.array([dynamics.first_integral(s, p) for s in states])


def test_equilibrium_constant(p):
    steps = kernel_shot(dynamics.M_MINUS, (0.0, 50.0), p)
    assert steps.ts[-1] == 50.0
    assert np.abs(steps.ys - dynamics.M_MINUS).max() < 1e-12
    w = w_of(steps.ys, p)
    assert np.abs(w - w[0]).max() == 0.0


def test_tanh_branch_oracle(p):
    s0 = outer.right_leaf_state(p.inv_sqrt_g, p)
    steps = kernel_shot(s0, (0.0, 10.0 / p.epsilon), p, rtol=1e-12, atol=1e-14)
    ref = outer.right_tail_b0(steps.ts, 0.0, p.inv_sqrt_g, p)
    assert np.abs(steps.ys[:, 4] - ref).max() < 1e-8
    assert np.abs(steps.ys[:, :4]).max() == 0.0


def test_event_location_against_bisection(p):
    # stage 5 locates B crossings by brentq on the dense output of kernel
    # shots; the root here is checked against plain bisection on the same
    # dense solution
    sc = working_scaling(p)
    b_start = 0.9 * sc.b00
    seed = outer.slow_leaf_state(b_start, p)
    # nudge the fast pair so the orbit actually leaves the branch and crosses
    # (it runs away near x = 14, so the shot stops at 10)
    fr = frames.slow_frame(b_start, p)
    dev = fr._coord_matrix()[:, :2] @ np.array([1e-3, 0.0])
    seed[:4] += dev[:4]
    seed[5] = dynamics.b1_from_invariant(seed[:4], b_start, p)
    target = p.inv_sqrt_g
    steps = kernel_shot(seed, (0.0, 10.0), p, rtol=1e-12, atol=1e-14)
    dense = connect._dense_solution(p, steps)

    def fn(x):
        return float(dense(np.array([x]))[4, 0]) - target

    above = np.flatnonzero(steps.ys[:, 4] > target)
    # one crossing between the step knots
    assert above.size and above[0] > 0 and above.size == steps.ts.size - above[0]
    xe = brentq(fn, steps.ts[above[0] - 1], steps.ts[above[0]], xtol=1e-13, rtol=8.9e-16)
    # independent bisection on the dense output
    lo, hi = xe - 0.5, xe + 0.5
    assert fn(lo) < 0 < fn(hi)
    for _ in range(60):
        m = 0.5 * (lo + hi)
        if fn(m) > 0:
            hi = m
        else:
            lo = m
    assert abs(0.5 * (lo + hi) - xe) < 1e-10


def test_step_halving_order(p):
    s0 = outer.right_leaf_state(p.inv_sqrt_g, p)
    s0 = s0 + np.array([1e-3, 0, 0, 0, 0, 0])
    s0[5] = dynamics.b1_from_invariant(s0[:4], s0[4], p)
    ref = shot(s0, (0.0, 4.0), p, rtol=1e-13, atol=1e-15).y[:, -1]
    errs = []
    for h in (0.5, 0.25):
        end = shot(s0, (0.0, 4.0), p, rtol=1e-2, atol=1e12, max_step=h,
                   method="RK45").y[:, -1]
        errs.append(np.abs(end - ref).max())
    order = math.log2(errs[0] / errs[1])
    assert order >= 4.0


def test_w_drift_bound(p):
    s0 = outer.right_leaf_state(0.8, p) + np.array([0.05, 0, 0.01, 0, 0, 0.002])
    w = w_of(kernel_shot(s0, (0.0, 10.0), p).ys, p)
    assert np.abs(w - w[0]).max() <= 100.0 * 1e-10 * (1.0 + 10.0)


def test_backward_return(p):
    s0 = outer.right_leaf_state(0.75, p)
    fwd = kernel_shot(s0, (0.0, 5.0), p)
    back = kernel_shot(fwd.ys[-1], (5.0, 0.0), p)
    assert back.ts[-1] == 0.0
    tol = 1e-10 * np.abs(s0).max() + 1e-12
    assert np.abs(back.ys[-1] - s0).max() <= 10.0 * tol * 1e3  # margin


def test_blowup_reports_error(p):
    s0 = np.array([0, 0, 0, 0, 2.0, 1.0])
    with pytest.raises(connect.RealizationError):
        connect._shoot(s0, (0.0, 500.0), p, 1e-10, 1e-12)


def test_csv_round_trip(tmp_path, p):
    s0 = outer.right_leaf_state(0.8, p)
    sol = shot(s0, (0.0, 3.0), p)
    states = sol.y.T
    w = w_of(states, p)
    path = tmp_path / "traj.csv"
    integrate.write_profile_csv(str(path), sol.t, states, w)
    x, states2, w2 = integrate.read_profile_csv(str(path))
    assert np.array_equal(x, sol.t)
    assert np.array_equal(states2, states)
    assert np.array_equal(w2, w)


def test_csv_bytes_equal_savetxt(tmp_path):
    # the blocked writer writes the bytes of np.savetxt, also for -0.0, nan,
    # inf and a subnormal, and for a row count past a whole number of blocks
    rng = np.random.default_rng(3)
    n = 2 * integrate.CSV_BLOCK_ROWS + 37
    data = rng.normal(size=(n, 8)) * 10.0 ** rng.integers(-300, 300, size=(n, 8))
    data[0, :5] = [-0.0, np.nan, np.inf, -np.inf, 5e-324]
    data[n - 1, 3] = -0.0
    path = tmp_path / "profile.csv"
    integrate.write_profile_csv(str(path), data[:, 0], data[:, 1:7], data[:, 7])
    ref = tmp_path / "savetxt.csv"
    np.savetxt(ref, data, delimiter=",", header="x,A0,A1,A2,A3,B0,B1,W", comments="",
               fmt="%.17g")
    assert path.read_bytes() == ref.read_bytes()
    assert path.read_bytes().count(b"\n") == n + 1
