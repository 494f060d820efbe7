"""Outer-region machinery: reduced profiles, invariant-leaf states, seeds.

The left outer region rides the slow branch A = sqrt(1 - (1+delta^2) B^2);
its leading B-profile integrates in closed form to a sech shape.  The right
outer region rides A = 0, where the W = 0 reduction turns the B-equation
into the exactly solvable dB/dx = (eps/sqrt(2)) (1 - B^2).  Seed states on
the two matching sections realize the tangent traces of the unstable and
stable manifolds, projected onto W = 0 through the positive root of B'.
"""

from __future__ import annotations

import math
import numpy as np

from . import dynamics
from .dynamics import b1_from_invariant, jacobian, M_MINUS, M_PLUS
from .params import Params, ScalingConfig


class BallViolation(ValueError):
    pass


# -- left reduced profile -------------------------------------------------

def b0_left_profile(x, b00: float, p: Params, x_star: float):
    """Leading-order left B-profile through B(-x_star) = b00.

    Closed sech form: B^2 = [(1 + delta^2/2) cosh^2(x0 - eps*delta*(x+x_star))]^-1
    with cosh(x0) = 1 / (b00 sqrt(1 + delta^2/2)).
    """
    c2 = 1.0 + 0.5 * p.delta**2
    if not 0.0 < b00 < 1.0 / math.sqrt(p.g1):
        raise ValueError(f"b00 must lie in (0, 1/sqrt(1+delta^2)), got {b00}")
    x0 = math.acosh(1.0 / (b00 * math.sqrt(c2)))
    u = x0 - p.epsilon * p.delta * (np.asarray(x, dtype=float) + x_star)
    return 1.0 / (math.sqrt(c2) * np.cosh(u))


def _leaf_b1_principal(b0, p: Params):
    """Leading B' on the slow leaf: eps*delta*B*sqrt(1 - (1+delta^2/2) B^2)."""
    c2 = 1.0 + 0.5 * p.delta**2
    return p.epsilon * p.delta * b0 * np.sqrt(1.0 - c2 * b0 * b0)


_FD_STEP = 3e-3


def _fd(fn, b, h=_FD_STEP):
    return (fn(b + h) - fn(b - h)) / (2.0 * h)


def _memoized(memo: dict, tag, fn):
    """``fn`` evaluated once per distinct abscissa array, stored in ``memo``."""
    def value(b):
        key = (tag, b.tobytes())
        if key not in memo:
            memo[key] = fn(b)
        return memo[key]
    return value


def _leaf_jets(b0, p: Params, b1_fn=None, memo=None) -> np.ndarray:
    """Slaved jet rows (A, A', A'', A''') of the slow leaf; vectorized.

    The chain differentiates through the leading B-equation (or through a
    supplied B' closure ``b1_fn``); the branch amplitude itself carries a
    second-order correction eta that restores the fourth-derivative row of
    the flow, found from one deferred sweep.  Nested derivatives use graded
    central differences on the analytic base functions.

    Each node of the nested difference tree is evaluated once per ``memo``,
    keyed by its exact abscissae: the chain-independent a0 = astar + eta and
    the chain rows of the principal chain or of ``b1_fn``.  :func:`leaf_states`
    shares one memo, per chunk of amplitudes, between its jet chain and every
    nested :func:`leaf_b1` evaluation of its stencil values; without a memo
    nothing outlives the call.
    """
    b0 = np.asarray(b0, dtype=float)
    g1 = 1.0 + p.delta**2
    reach = np.abs(b0) + 3.5 * _FD_STEP
    if np.any(1.0 - g1 * reach * reach <= 0.0):
        raise ValueError("amplitude outside the slow branch (or too close to "
                         "its edge for the slaving stencils)")
    memo = {} if memo is None else memo

    def astar(b):
        return np.sqrt(1.0 - g1 * b * b)

    def b1p(b):
        return _leaf_b1_principal(b, p)

    bchain = b1_fn or b1p
    chain = "leaf" if b1_fn else "principal"

    def a1_0(b):
        # analytic first chain derivative: d(astar)/db * dB/dx
        return -g1 * b / astar(b) * b1p(b)

    def a2_0(b):
        h = 1e-100
        return (a1_0(b + 1j * h)).imag / h * b1p(b)

    def a3_0(b):
        return _fd(a2_0, b) * b1p(b)

    def eta(b):
        return -_fd(a3_0, b) * b1p(b) / (2.0 * astar(b) ** 2)

    a0_fn = _memoized(memo, "a0", lambda b: astar(b) + eta(b))
    a1_fn = _memoized(memo, ("a1", chain), lambda b: _fd(a0_fn, b) * bchain(b))
    a2_fn = _memoized(memo, ("a2", chain), lambda b: _fd(a1_fn, b) * bchain(b))
    a3_fn = _memoized(memo, ("a3", chain), lambda b: _fd(a2_fn, b) * bchain(b))

    return np.array([a0_fn(b0), a1_fn(b0), a2_fn(b0), a3_fn(b0)])


def _bracket_vec(jets: np.ndarray, b0, p: Params):
    a0, a1, a2, a3 = jets
    d2 = p.delta**2
    b0 = np.asarray(b0, dtype=float)
    return ((1.0 - b0**2) ** 2
            + a0**2 * (a0**2 + 2.0 * d2 * b0**2 + 2.0 * (b0**2 - 1.0))
            - 2.0 * a2**2 + 4.0 * a1 * a3)


def leaf_b1(b0, p: Params, memo=None):
    """B' on the slow leaf: the W = 0 root of the level-0 slaved jet.

    ``memo`` is handed to :func:`_leaf_jets`.
    """
    b0 = np.asarray(b0, dtype=float)
    br = _bracket_vec(_leaf_jets(b0, p, memo=memo), b0, p)
    return p.epsilon / math.sqrt(2.0) * np.sqrt(br)


# amplitudes per memo in leaf_states: bounds the memo's memory
_LEAF_CHUNK = 512


def leaf_states(b0, p: Params) -> np.ndarray:
    """Slow-leaf states at amplitudes ``b0`` (vectorized, shape (n, 6)).

    B' is the first-integral root of the slaved jet, and the jet chain is
    differentiated through that same root, so the sampled columns are
    mutually derivative-consistent along any B-profile integrated from
    :func:`leaf_b1` while W vanishes to the slaving accuracy.
    """
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    out = np.empty((b0.size, 6))
    for lo in range(0, b0.size, _LEAF_CHUNK):
        chunk = b0[lo:lo + _LEAF_CHUNK]
        memo = {}
        b1_fn = _memoized(memo, "b1", lambda bb: leaf_b1(bb, p, memo))
        jets = _leaf_jets(chunk, p, b1_fn=b1_fn, memo=memo)
        out[lo:lo + chunk.size] = np.column_stack([jets.T, chunk, b1_fn(chunk)])
    return out


def slow_leaf_state(b0: float, p: Params) -> np.ndarray:
    """State on the slow invariant leaf (X = Y = 0) at amplitude b0."""
    return leaf_states(b0, p)[0]


def left_tail_states(x, b00: float, p: Params, x_star: float) -> np.ndarray:
    """Slow-leaf states sampled along the closed-form left B-profile."""
    b0s = np.atleast_1d(b0_left_profile(x, b00, p, x_star))
    return leaf_states(b0s, p)


# -- right reduced profile ------------------------------------------------

def v_right_profile(x, p: Params):
    """Leading right profile of v = B - 1 (tanh relaxation through 1/sqrt(g)).

    Equivalent to B = tanh(atanh(1/sqrt(g)) + eps x / sqrt(2)), the exact
    solution of the reduced flow; the tail rate is sqrt(2) eps, consistent
    with the linearization at the end state and with the a priori envelope.
    """
    rg = math.sqrt(p.g1)
    t = np.tanh(p.epsilon / math.sqrt(2.0) * np.asarray(x, dtype=float))
    return (1.0 - rg) * (1.0 - t) / (rg + t)


def v_envelope(x, x_star: float, b00: float, p: Params):
    """A priori two-sided envelope for v = B - 1 right of the left section.

    Returns (lower, upper); rates carry the 3/4 and 5/4 factors of the
    leading relaxation rate.
    """
    v0 = b00 - 1.0
    xs = np.asarray(x, dtype=float) + x_star
    out = []
    for fac in (3.0, 5.0):
        t = np.tanh(fac * p.epsilon * xs / (4.0 * math.sqrt(2.0)))
        out.append(v0 * (1.0 - t) / (1.0 + b00 * t))
    return out[0], out[1]


def right_leaf_state(b0: float, p: Params) -> np.ndarray:
    """State on the A = 0 leaf at amplitude b0 < 1 (W = 0 exactly)."""
    if not 0.0 < b0 < 1.0:
        raise ValueError(f"b0 must lie in (0, 1), got {b0}")
    b1 = p.epsilon * (1.0 - b0 * b0) / math.sqrt(2.0)
    return np.array([0.0, 0.0, 0.0, 0.0, b0, b1])


def right_tail_b0(x, x_ref: float, b0_ref: float, p: Params):
    """Closed-form A = 0 tail: B(x) = tanh(atanh(b0_ref) + eps (x - x_ref)/sqrt(2))."""
    theta = math.atanh(b0_ref) + p.epsilon / math.sqrt(2.0) * (np.asarray(x, dtype=float) - x_ref)
    return np.tanh(theta)


# -- section seeds ---------------------------------------------------------

def unstable_seed(scaling: ScalingConfig, p: Params, xbar=(0.0, 0.0),
                  k0: float | None = None) -> np.ndarray:
    """State on the left section realizing the unstable tangent trace.

    ``xbar`` are the two tangent parameters; their norm must stay within
    k0*sqrt(delta*(1+delta^2)) unless the ball check is disabled with
    ``k0 = inf``.  B' comes from the W = 0 projection.
    """
    x1, x2 = float(xbar[0]), float(xbar[1])
    k0 = scaling.k0 if k0 is None else k0
    radius = k0 * math.sqrt(p.delta * p.g1)
    if math.hypot(x1, x2) > radius * (1.0 + 1e-12):
        raise BallViolation(
            f"|xbar| = {math.hypot(x1, x2):.4g} exceeds k0*sqrt(delta(1+delta^2)) = {radius:.4g}"
        )
    d, am = p.delta, scaling.alpha_minus
    b00 = scaling.b00
    da = d * am
    jet = np.array([
        da + da / 2.0**0.75 * (x1 - x2),
        da**1.5 * x1 - am**2 * d / math.sqrt(2.0) * b00,
        da**2 / 2.0**0.25 * (x1 + x2),
        math.sqrt(2.0) * da**2.5 * x2,
    ])
    return np.concatenate([jet, [b00, b1_from_invariant(jet, b00, p)]])


def stable_seed(scaling: ScalingConfig, p: Params, xbar=(0.0, 0.0),
                k1: float | None = None) -> np.ndarray:
    """State on the right section realizing the stable tangent trace."""
    x10, x20 = float(xbar[0]), float(xbar[1])
    k1 = scaling.k1 if k1 is None else k1
    if math.hypot(x10, x20) > k1 * (1.0 + 1e-12):
        raise BallViolation(f"|xbar| = {math.hypot(x10, x20):.4g} exceeds k1 = {k1:.4g}")
    dap = p.delta * scaling.alpha_plus
    b01 = scaling.b01
    jet = np.array([
        dap * x10,
        -dap**1.5 / math.sqrt(2.0) * (x10 + x20),
        dap**2 * x20,
        dap**2.5 / math.sqrt(2.0) * (x10 - x20),
    ])
    return np.concatenate([jet, [b01, b1_from_invariant(jet, b01, p)]])


def eigen_basis(which: str, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Real basis of the unstable (minus) or stable (plus) eigenspace.

    Returns (rates, basis) where basis rows are unit vectors; the first row
    is the real slow direction, the next two span the fast rotation plane.
    """
    eq = M_MINUS if which == "minus" else M_PLUS
    sign = 1.0 if which == "minus" else -1.0
    vals, vecs = np.linalg.eig(jacobian(eq, p))
    sel = [i for i in range(6) if sign * vals[i].real > 1e-12]
    reps = []
    for i in sel:
        if abs(vals[i].imag) < 1e-12:
            reps.append((0.0, vals[i].real, i))
        elif vals[i].imag > 0:
            reps.append((1.0, vals[i].real, i))
    reps.sort()
    basis, rates = [], []
    for kind, _, i in reps:
        if kind == 0.0:
            v = vecs[:, i].real
            v = v / np.linalg.norm(v)
            if v[np.argmax(np.abs(v))] < 0:
                v = -v
            basis.append(v)
            rates.append(vals[i].real)
        else:
            for part in (vecs[:, i].real, vecs[:, i].imag):
                w = part / np.linalg.norm(part)
                if w[np.argmax(np.abs(w))] < 0:
                    w = -w
                basis.append(w)
                rates.append(vals[i].real)
    return np.array(rates), np.array(basis)


def eigen_seed(which: str, p: Params, coeffs=(1.0, 0.0, 0.0),
               h: float = 1e-4) -> np.ndarray:
    """Equilibrium plus a small eigenspace offset, projected onto W = 0.

    ``which`` selects M- (offset in its unstable eigenspace) or M+ (offset
    in its stable eigenspace).  ``h = 0`` returns the exact equilibrium.
    """
    eq = (M_MINUS if which == "minus" else M_PLUS).copy()
    if h == 0.0:
        return eq
    _, basis = eigen_basis(which, p)
    direction = np.asarray(coeffs, dtype=float) @ basis
    nrm = np.linalg.norm(direction)
    if nrm == 0.0:
        raise ValueError("eigenspace coefficients give a zero direction")
    s = eq + h * direction / nrm
    for _ in range(60):
        w = dynamics.first_integral(s, p)
        grad = dynamics.first_integral_gradient(s, p)
        g2 = float(grad @ grad)
        if abs(w) < 1e-18 or g2 < 1e-300:
            break
        s = s - w / g2 * grad
    else:
        raise RuntimeError("W = 0 projection did not converge")
    return s
