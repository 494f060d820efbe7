"""Outer-region machinery: tail B-profiles, invariant-leaf states, the stable seed.

The left outer region rides the slow branch A = sqrt(1 - (1+delta^2) B^2);
its leading B-profile integrates in closed form to a sech shape, and the
slow-leaf states carry the slaved A-jet with B' from the W = 0 root; a
solve tabulates them once on Chebyshev nodes in B (:func:`leaf_table`).  The
right outer region rides A = 0, where the W = 0 reduction turns the
B-equation into the exactly solvable dB/dx = (eps/sqrt(2)) (1 - B^2), whose
tanh solution is the right tail.  The seed state on the right matching
section realizes the tangent trace of the stable manifold, projected onto
W = 0 through the positive root of B'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.fft import dct

from .dynamics import b1_from_invariant
from .params import Params, ScalingConfig


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

    ``memo`` is handed to :func:`_leaf_jets`.  Raises ValueError where the
    bracket is negative (no growing branch), as
    :func:`dynamics.b1_from_invariant` does.
    """
    b0 = np.asarray(b0, dtype=float)
    br = _bracket_vec(_leaf_jets(b0, p, memo=memo), b0, p)
    if np.any(br < 0.0):
        k = np.argmin(br)
        raise ValueError(f"slow leaf off the growing branch of W=0 at B = "
                         f"{b0.flat[k]:.6g} (bracket={br.flat[k]:.3e})")
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


# Chebyshev nodes of a leaf table: the A, A' and B' columns reach the
# rounding of leaf_states well before this many on the supported box
LEAF_TABLE_NODES = 96
# a solve's table range stays this far below the branch edge: where the range
# comes near it (eps <= 0.025), the stencils of leaf_states fail within 0.021.
# At larger eps the W = 0 bracket of the leaf can turn negative farther below
# the edge (0.16-0.19 at g = 2, eps = 0.25), where leaf_b1 raises
LEAF_EDGE_MARGIN = 0.022


def cheb_fit(fn, hi: float) -> np.ndarray:
    """Chebyshev coefficients, in t = 2 x / hi - 1 and along axis 0, of the
    interpolant of ``fn`` on LEAF_TABLE_NODES first-kind nodes of [0, hi]: the
    type-II DCT (``chebinterpolate``'s Vandermonde sum loses 2 digits on A)."""
    n = LEAF_TABLE_NODES
    theta = math.pi * (np.arange(n) + 0.5) / n
    coef = dct(fn(0.5 * hi * (1.0 + np.cos(theta))), type=2, axis=0) / n
    coef[0] *= 0.5
    return coef


@dataclass(frozen=True, eq=False)
class LeafTable:
    """Chebyshev interpolant of :func:`leaf_states` on 0 < B < ``b_hi``.

    ``coef`` holds the Chebyshev coefficients, in t = 2 B / b_hi - 1, of
    the columns (A, A', A'', A''', B'); calling the table evaluates them by
    Clenshaw's recurrence.  Amplitudes outside (0, b_hi) go to
    :func:`leaf_states` itself, so the table can stand in for it anywhere.
    """

    p: Params
    b_hi: float
    coef: np.ndarray

    def __call__(self, b0) -> np.ndarray:
        """Slow-leaf states at amplitudes ``b0``, shape (n, 6)."""
        b0 = np.atleast_1d(np.asarray(b0, dtype=float))
        inside = (b0 > 0.0) & (b0 < self.b_hi)
        out = np.empty((b0.size, 6))
        cols = chebval(2.0 * b0[inside] / self.b_hi - 1.0, self.coef, tensor=True)
        out[inside, :4] = cols[:4].T
        out[inside, 4] = b0[inside]
        out[inside, 5] = cols[4]
        if not inside.all():
            out[~inside] = leaf_states(b0[~inside], self.p)
        return out


def leaf_table(b_hi: float, p: Params) -> LeafTable:
    """Tabulate :func:`leaf_states` by :func:`cheb_fit` on [0, b_hi], b_hi at
    least LEAF_EDGE_MARGIN below the branch edge 1/sqrt(1+delta^2).  Raises
    ValueError where the leaf leaves the growing branch of W = 0 at a node or
    its stencils (:func:`leaf_b1`), as it can below that margin at large eps.

    The leaf is analytic in B below the branch edge, so the interpolant
    converges geometrically (Trefethen, Approximation Theory and
    Approximation Practice, ch. 7-8) until it meets the rounding noise of
    the nested differences, which grows with eps: about 1e-15 on A, up to
    3e-13 on A' and B', and 1e-12 to 7e-9 on A'' and A'''.
    """
    coef = cheb_fit(lambda b: leaf_states(b, p)[:, [0, 1, 2, 3, 5]], b_hi)
    return LeafTable(p=p, b_hi=float(b_hi), coef=coef)


# -- right reduced profile ------------------------------------------------

def right_leaf_states(b0, p: Params) -> np.ndarray:
    """States on the A = 0 leaf at amplitudes ``b0`` (vectorized, shape
    (n, 6)); W = 0 exactly."""
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    out = np.zeros((b0.size, 6))
    out[:, 4] = b0
    out[:, 5] = p.epsilon * (1.0 - b0 * b0) / math.sqrt(2.0)
    return out


def right_leaf_state(b0: float, p: Params) -> np.ndarray:
    """State on the A = 0 leaf at amplitude b0 < 1 (W = 0 exactly)."""
    if not 0.0 < b0 < 1.0:
        raise ValueError(f"b0 must lie in (0, 1), got {b0}")
    return right_leaf_states(b0, p)[0]


def right_tail_b0(x, x_ref: float, b0_ref: float, p: Params):
    """Closed-form A = 0 tail: B(x) = tanh(atanh(b0_ref) + eps (x - x_ref)/sqrt(2))."""
    theta = math.atanh(b0_ref) + p.epsilon / math.sqrt(2.0) * (np.asarray(x, dtype=float) - x_ref)
    return np.tanh(theta)


# -- stable section seed ---------------------------------------------------

def stable_seed(scaling: ScalingConfig, p: Params, xbar=(0.0, 0.0)) -> np.ndarray:
    """State on the right section realizing the stable tangent trace."""
    x10, x20 = float(xbar[0]), float(xbar[1])
    dap = p.delta * scaling.alpha_plus
    b01 = scaling.b01
    jet = np.array([
        dap * x10,
        -dap**1.5 / math.sqrt(2.0) * (x10 + x20),
        dap**2 * x20,
        dap**2.5 / math.sqrt(2.0) * (x10 - x20),
    ])
    return np.concatenate([jet, [b01, b1_from_invariant(jet, b01, p)]])

