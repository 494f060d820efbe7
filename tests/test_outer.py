import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from orthowall import connect, dynamics, outer
from orthowall.params import derive_params, working_scaling


@pytest.fixture(scope="module")
def p():
    return derive_params(0.1, 1.5)


@pytest.fixture(scope="module")
def sc(p):
    return working_scaling(p)


def test_b0_left_profile_example():
    p2 = derive_params(0.1, 2.0)
    b00 = 0.5
    c2 = 1.0 + 0.5 * p2.delta**2
    cosh_x0 = 1.0 / (b00 * math.sqrt(c2))
    assert cosh_x0 == pytest.approx(1.6329932, abs=1e-7)
    assert math.acosh(cosh_x0) == pytest.approx(1.0729483, abs=1e-7)
    assert math.acosh(cosh_x0) == pytest.approx(1.0729586, abs=2e-5)
    x_star = 2.0
    assert outer.b0_left_profile(-x_star, b00, p2, x_star) == pytest.approx(
        b00, rel=1e-14)
    assert outer.b0_left_profile(-500.0, b00, p2, x_star) < 1e-10
    with pytest.raises(ValueError):
        outer.b0_left_profile(0.0, 0.9, p2, x_star)


def test_b0_left_profile_solves_principal_equation(p, sc):
    # the sech form is the exact solution of b' = eps*delta*b*sqrt(1-(1+d^2/2)b^2)
    xs = np.linspace(-40.0, -sc.x_star, 200)
    b = outer.b0_left_profile(xs, sc.b00, p, sc.x_star)
    db = np.gradient(b, xs)
    rhs = outer._leaf_b1_principal(b, p)
    assert np.abs(db - rhs)[1:-1].max() < 1e-5  # interior gradient accuracy


def test_v_right_profile_values():
    # v = B - 1 on the closed-form A = 0 tail through B(0) = 1/sqrt(1+delta^2)
    p2 = derive_params(0.1, 2.0)
    b_ref = 1.0 / math.sqrt(p2.g1)

    def v(x):
        return outer.right_tail_b0(x, 0.0, b_ref, p2) - 1.0

    assert 1.0 + v(0.0) == pytest.approx(0.70710678, abs=1e-8)
    assert v(5.0) == pytest.approx(-0.15599747, abs=1e-7)
    # tail rate consistency: matches the end-state linearization
    xs = np.linspace(40.0, 90.0, 200)
    rate = -np.polyfit(xs, np.log(-v(xs)), 1)[0]
    assert rate == pytest.approx(math.sqrt(2.0) * p2.epsilon, rel=1e-3)
    assert v(1e5) == pytest.approx(0.0, abs=1e-12)


def test_stable_seed(p, sc):
    k1 = 0.05
    s = outer.stable_seed(sc, p, (k1, 0.0))
    dap = p.delta * sc.alpha_plus
    assert s[0] == pytest.approx(k1 * dap, rel=1e-14)
    assert s[1] == pytest.approx(-k1 * dap**1.5 / math.sqrt(2.0), rel=1e-14)
    assert s[2] == 0.0
    assert s[3] == pytest.approx(k1 * dap**2.5 / math.sqrt(2.0), rel=1e-14)
    assert abs(dynamics.first_integral(s, p)) < 1e-12
    zero = outer.stable_seed(sc, p, (0.0, 0.0))
    assert np.all(zero[:4] == 0.0)


def test_slow_leaf_flow_consistency(p):
    s0 = outer.slow_leaf_state(0.35, p)
    assert abs(dynamics.first_integral(s0, p)) < 1e-10
    sol = solve_ivp(lambda x, y: dynamics.vector_field(y, p), (0.0, 2.0), s0,
                    method="DOP853", rtol=1e-13, atol=1e-16)
    b_end = sol.y[4, -1]
    ref = outer.slow_leaf_state(float(b_end), p)
    assert np.abs(sol.y[:, -1] - ref).max() < 5e-6


def test_left_tail_matches_leading_profile_to_first_order(p, sc, profile15):
    prof = profile15.value
    lo = prof.x_left_leaf_end - 30.0
    xs = np.linspace(lo, prof.x_left_leaf_end, 200)
    b_profile = prof.sample(xs)[:, 4]
    b_leading = outer.b0_left_profile(
        xs + prof.x_shift, sc.b00, p, sc.x_star)
    rel = np.abs(b_profile - b_leading) / b_profile
    assert rel.max() < 0.5 * p.epsilon


def test_right_tail_rate(p, sc):
    s0 = outer.stable_seed(sc, p, (0.0, 0.0))
    sol = solve_ivp(lambda x, y: dynamics.vector_field(y, p), (0.0, 60.0), s0,
                    method="DOP853", dense_output=True, rtol=1e-12, atol=1e-14)
    xs = np.linspace(5.0, 50.0, 200)
    b = sol.sol(xs)[4]
    rate = -np.polyfit(xs, np.log(1.0 - b), 1)[0]
    assert abs(rate - math.sqrt(2.0) * p.epsilon) < 0.1 * math.sqrt(2.0) * p.epsilon
    ref = outer.right_tail_b0(xs, 0.0, sc.b01, p)
    assert np.abs(b - ref).max() < 1e-9


def test_b1_positive_along_unstable_shot(p, sc, profile15):
    prof = profile15.value
    xs = np.linspace(prof.x[0], prof.x_star_left, 400)
    st = prof.sample(xs)
    assert np.all(st[:, 5] > 0.0)
    assert np.all((st[:, 4] > 0) & (st[:, 4] < sc.b00 * (1 + 1e-9)))


# -- reference: the unshared nested central-difference recursion ------------

def _reference_leaf_jets(b0, p, b1_fn=None):
    b0 = np.asarray(b0, dtype=float)
    g1 = 1.0 + p.delta**2
    h = outer._FD_STEP

    def fd(fn, b):
        return (fn(b + h) - fn(b - h)) / (2.0 * h)

    def astar(b):
        return np.sqrt(1.0 - g1 * b * b)

    def b1p(b):
        c2 = 1.0 + 0.5 * p.delta**2
        return p.epsilon * p.delta * b * np.sqrt(1.0 - c2 * b * b)

    bchain = b1_fn or b1p

    def a1_0(b):
        return -g1 * b / astar(b) * b1p(b)

    def a2_0(b):
        hc = 1e-100
        return (a1_0(b + 1j * hc)).imag / hc * b1p(b)

    def a3_0(b):
        return fd(a2_0, b) * b1p(b)

    def eta(b):
        return -fd(a3_0, b) * b1p(b) / (2.0 * astar(b) ** 2)

    def a0_fn(b):
        return astar(b) + eta(b)

    def a1_fn(b):
        return fd(a0_fn, b) * bchain(b)

    def a2_fn(b):
        return fd(a1_fn, b) * bchain(b)

    def a3_fn(b):
        return fd(a2_fn, b) * bchain(b)

    return np.array([a0_fn(b0), a1_fn(b0), a2_fn(b0), a3_fn(b0)])


def _reference_leaf_b1(b0, p):
    b0 = np.asarray(b0, dtype=float)
    a0, a1, a2, a3 = _reference_leaf_jets(b0, p)
    d2 = p.delta**2
    br = ((1.0 - b0**2) ** 2
          + a0**2 * (a0**2 + 2.0 * d2 * b0**2 + 2.0 * (b0**2 - 1.0))
          - 2.0 * a2**2 + 4.0 * a1 * a3)
    return p.epsilon / math.sqrt(2.0) * np.sqrt(br)


def _reference_leaf_states(b0, p):
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    jets = _reference_leaf_jets(b0, p, b1_fn=lambda bb: _reference_leaf_b1(bb, p))
    return np.column_stack([jets.T, b0, _reference_leaf_b1(b0, p)])


def test_leaf_states_match_unshared_recursion(p, sc):
    # shared stencil values must reproduce the plain recursion bit for bit,
    # for a scalar and across several chunks (the last one partial)
    b_edge = 0.9 / math.sqrt(p.g1)
    for b0 in (0.35, np.linspace(1e-4, b_edge, 3 * outer._LEAF_CHUNK + 37)):
        got = outer.leaf_states(b0, p)
        ref = _reference_leaf_states(b0, p)
        assert got.shape == ref.shape
        assert np.all(np.isfinite(ref))
        assert np.array_equal(got, ref)
    assert np.array_equal(outer.leaf_b1(b0, p), _reference_leaf_b1(b0, p))


# -- the per-solve leaf table ----------------------------------------------

def test_leaf_table_matches_leaf_states(p, profile15):
    # on the anchor's own leaf range the table reproduces the difference
    # tree to rounding on A, A' and B', and to its noise on A'' and A'''
    prof = profile15.value
    table = prof._pieces.leaf
    bs = np.linspace(prof.states[0, 4], table.b_hi, 2001)[:-1]
    got, ref = table(bs), outer.leaf_states(bs, p)
    assert np.array_equal(got[:, 4], bs)
    err = np.abs(got - ref).max(axis=0)
    assert err[[0, 1, 5]].max() < 1e-13
    assert err[[2, 3]].max() < 1e-8


def test_sample_outside_table_range_is_leaf_states_plus_correction(p, profile15):
    # with every amplitude above the table's range, the leaf piece is
    # leaf_states itself plus the transported fast offset of the left core
    prof = profile15.value
    pc = prof._pieces
    xs = np.linspace(prof.x_left_leaf_end - 16.0, prof.x_left_leaf_end, 60)
    b_min = prof.sample(xs)[:, 4].min()
    narrow = dataclasses.replace(pc, leaf=outer.leaf_table(0.5 * b_min, p))
    direct = dataclasses.replace(pc, leaf=lambda b: outer.leaf_states(b, p))
    got = connect._sample_pieces(xs + prof.x_shift, narrow, p)
    assert np.array_equal(got, connect._sample_pieces(xs + prof.x_shift, direct, p))
    correction = got - outer.leaf_states(got[:, 4], p)
    assert np.abs(correction).max() > 0.0
    assert np.abs(correction[:, 4]).max() == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_leaf_b1_off_the_growing_branch_raises():
    # at (g, eps) = (2.0, 0.25) the W = 0 bracket of the slow leaf is
    # negative on B ~ 0.515-0.547, 0.16-0.19 below the branch edge: the vector
    # leaf raises there, as the scalar root of dynamics does, instead of
    # returning NaN under a RuntimeWarning
    p2 = derive_params(0.25, 2.0)
    with pytest.raises(ValueError, match="growing branch"):
        outer.leaf_b1(0.53, p2)
    with pytest.raises(ValueError, match="growing branch"):
        outer.leaf_states(np.array([0.3, 0.53]), p2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_leaf_table_over_the_margin_range_raises():
    # near g = 10/9 at eps = 0.25 the leaf leaves the growing branch 0.077
    # below the edge, farther than LEAF_EDGE_MARGIN: a table over the whole
    # range below the margin raises rather than holding NaN coefficients
    p2 = derive_params(0.25, 1.1115)
    with pytest.raises(ValueError, match="growing branch"):
        outer.leaf_table(1.0 / math.sqrt(p2.g1) - outer.LEAF_EDGE_MARGIN, p2)


def test_right_leaf_states_match_scalar(p):
    bs = np.linspace(0.05, 0.95, 37)
    assert np.array_equal(outer.right_leaf_states(bs, p),
                          [outer.right_leaf_state(float(b), p) for b in bs])
