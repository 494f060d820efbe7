import math
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import orthowall as ow
from orthowall import frames, verify


@dataclass
class Timed:
    value: object
    seconds: float


@pytest.fixture(scope="session")
def p15():
    return ow.derive_params(0.1, 1.5)


@pytest.fixture(scope="session")
def profile15(p15):
    t0 = time.perf_counter()
    prof = ow.heteroclinic_solve(p15)
    return Timed(prof, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def sweep15():
    t0 = time.perf_counter()
    fit = verify.scaling_sweep(1.5, [0.2, 0.1, 0.05, 0.025])
    return Timed(fit, time.perf_counter() - t0)


@pytest.fixture
def fork_pids(monkeypatch):
    """The pids of the children that ``os.fork`` starts from here on."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


@pytest.fixture
def member_fault(monkeypatch):
    """The sweep member at eps = 0.15, admissible, fails in its solve with
    "injected fault"; forked sweep workers inherit the patch."""
    solve = ow.connect.heteroclinic_solve

    def failing(p, *args, **kwargs):
        if p.epsilon == 0.15:
            raise ow.connect.RealizationError("injected fault")
        return solve(p, *args, **kwargs)

    monkeypatch.setattr(ow.connect, "heteroclinic_solve", failing)


def _integrated_transition_map(b_of_x, p, x_hi, xs):
    """Reference transition map of the slow frame's rotation block along a
    B-profile: M' = L0(B(x)) M with L0 = [[lam_r, lam_i], [-lam_i, lam_r]]
    and M(x_hi) = I, integrated by scipy's DOP853 and read at ``xs`` (in
    order away from x_hi); shape (xs.size, 2, 2)."""
    def rhs(x, y):
        lr, li = frames.lambda_pair(float(b_of_x(x)), p)
        return (np.array([[lr, li], [-li, lr]]) @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (x_hi, xs[-1]), np.eye(2).ravel(), method="DOP853",
                    t_eval=xs, rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y.T.reshape(-1, 2, 2)


@pytest.fixture(scope="session")
def transition_map():
    return _integrated_transition_map


@dataclass
class TailTransition:
    max_ratio: float        # max |S(x, x_a)| exp(-sigma (x - x_a)), the bound's 1
    closed_form_gap: float  # max |S - integrated map| over the entries


@pytest.fixture(scope="session")
def left_tail_transition(p15, profile15):
    """The transition map S the solve takes for the left core's fast offset,
    ``_Pieces.fast`` along the solve's own left-tail B-profile B = w h(w),
    w = exp((x - x_a) / a), on 200 points from x_a down to x_a - 25, held
    against the exponential bound (sigma = sqrt(min a_star) / 2^(1/4)) and
    against the integrated reference."""
    pc = profile15.value._pieces
    x_a = pc.geo.x_a

    def b_of_x(x):
        w = np.exp((np.asarray(x, dtype=float) - x_a) / pc.a)
        return w * pc.h(w)

    xs = np.linspace(x_a, x_a - 25.0, 200)
    b = b_of_x(xs)
    pole, rest = pc.fast
    # the map multiplies (m1 + i m2) by z
    z = np.exp(pole * np.log(b) + rest(b))
    solve_map = np.stack([np.stack([z.real, -z.imag], -1),
                          np.stack([z.imag, z.real], -1)], -2)
    sigma = math.sqrt(np.sqrt(1.0 - p15.g1 * b * b).min()) / 2.0**0.25
    norms = np.linalg.norm(solve_map, 2, axis=(1, 2))
    reference = _integrated_transition_map(b_of_x, p15, x_a, xs)
    return TailTransition(max_ratio=float((norms * np.exp(-sigma * (xs - x_a))).max()),
                          closed_form_gap=float(np.abs(solve_map - reference).max()))
