"""Outer-region machinery: tail B-profiles, invariant-leaf states, the stable seed.

The left outer region rides the slow branch A = sqrt(1 - (1+delta^2) B^2);
its leading B-profile integrates in closed form to a sech shape, and the
slow-leaf states carry the slaved A-jet with B' from the W = 0 root; a
solve evaluates them once, on the Chebyshev nodes in B of its table and at
the left core's seed (:func:`leaf_table`).  The right outer region rides
A = 0, where the W = 0 reduction turns the B-equation into the exactly
solvable dB/dx = (eps/sqrt(2)) (1 - B^2), whose tanh solution is the right
tail.  The seed state on the right matching section realizes the tangent
trace of the stable manifold, projected onto W = 0 through the positive root
of B'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import b1_from_invariant
from .params import DomainError, Params, ScalingConfig


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


def _fd(fn, b):
    return (fn(b + _FD_STEP) - fn(b - _FD_STEP)) / (2.0 * _FD_STEP)


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
    shares one memo between its jet chain and every nested :func:`leaf_b1`
    evaluation of its stencil values; without a memo nothing outlives the
    call.
    """
    b0 = np.asarray(b0, dtype=float)
    g1 = 1.0 + p.delta**2
    reach = np.abs(b0) + 3.5 * _FD_STEP
    if np.any(1.0 - g1 * reach * reach <= 0.0):
        raise DomainError("amplitude outside the slow branch (or too close to "
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


def leaf_b1(b0, p: Params, memo=None):
    """B' on the slow leaf: the W = 0 root :func:`dynamics.b1_from_invariant`
    of the level-0 slaved jet, which raises DomainError where the bracket is
    negative (no growing branch).  ``memo`` is handed to :func:`_leaf_jets`.
    """
    b0 = np.asarray(b0, dtype=float)
    return b1_from_invariant(_leaf_jets(b0, p, memo=memo), b0, p)


def leaf_states(b0, p: Params) -> np.ndarray:
    """Slow-leaf states at amplitudes ``b0`` (vectorized, shape (n, 6)).

    B' is the first-integral root of the slaved jet, and the jet chain is
    differentiated through that same root, so the sampled columns are
    mutually derivative-consistent along any B-profile integrated from
    :func:`leaf_b1` while W vanishes to the slaving accuracy.  One memo
    serves the jet chain and every nested :func:`leaf_b1` evaluation.  A
    solve makes one call, the 97 amplitudes of :func:`leaf_table`.
    """
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    memo = {}
    b1_fn = _memoized(memo, "b1", lambda bb: leaf_b1(bb, p, memo))
    jets = _leaf_jets(b0, p, b1_fn=b1_fn, memo=memo)
    return np.column_stack([jets.T, b0, b1_fn(b0)])


# Chebyshev nodes of a leaf table: the A, A' and B' columns reach the
# rounding of leaf_states well before this many on the supported box
LEAF_TABLE_NODES = 96
# a solve's table range stays this far below the branch edge: where the range
# comes near it (eps <= 0.025), the stencils of leaf_states fail within 0.021.
# At larger eps the W = 0 bracket of the leaf can turn negative farther below
# the edge (0.16-0.19 at g = 2, eps = 0.25), where leaf_b1 raises
LEAF_EDGE_MARGIN = 0.022


def cheb_nodes(hi: float) -> np.ndarray:
    """The LEAF_TABLE_NODES first-kind Chebyshev nodes of [0, hi]."""
    theta = math.pi * (np.arange(LEAF_TABLE_NODES) + 0.5) / LEAF_TABLE_NODES
    return 0.5 * hi * (1.0 + np.cos(theta))


def _dct2_matrix(n: int) -> np.ndarray:
    """The unnormalized type-II DCT as an n x n matrix: entry (k, j) is
    2 cos(pi m / 2n), with m = k (2j + 1) reduced mod 4n in integers, so
    that no cosine is taken of a large, rounded angle."""
    k, j = np.ogrid[:n, :n]
    return 2.0 * np.cos(math.pi * (k * (2 * j + 1) % (4 * n)) / (2 * n))


_DCT2 = _dct2_matrix(LEAF_TABLE_NODES)


def cheb_fit(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients, in t = 2 x / hi - 1 and along axis 0, of the
    interpolant of ``values`` at the :func:`cheb_nodes` of [0, hi]: the
    type-II DCT (``chebinterpolate``'s Vandermonde sum loses 2 digits on A),
    as one product with the fixed matrix ``_DCT2``, so no scipy module is
    loaded.  On a solve's series it is within 1.6 eps max|values| of
    ``scipy.fft.dct(type=2)``, column by column."""
    coef = _DCT2 @ values / LEAF_TABLE_NODES
    coef[0] *= 0.5
    return coef


# cheb_eval works on blocks of CHEB_BLOCK points and CHEB_ROWS rows of the
# Vandermonde matrix at a time: a buffer of 4096 x 12 floats (0.4 MB), so
# memory stays bounded however many points and terms are read, while each
# ufunc call of the recurrence covers thousands of points.  Whole 96-term
# columns would need 512-point blocks for the same memory, and took 1.4-2.1x
# as long: each call then spent more on its fixed cost than on the points.
CHEB_BLOCK = 4096
CHEB_ROWS = 12


def _cheb_vander_chunks(t: np.ndarray, terms: int, rows: np.ndarray):
    """Yield ``(k, v)`` with v (r x t.size) the rows T_k(t), ..., T_{k+r-1}(t)
    of the first ``terms`` Chebyshev polynomials, in turn, computed in the
    buffer ``rows`` (at least 4 x t.size) by the three-term recurrence
    T_k = T_{k-1} 2t - T_{k-2}, with the operations of numpy's
    ``chebvander``: the rows stacked are bit-equal to ``chebvander(t, terms
    - 1).T`` at finite t.  Each v is a view of the buffer, valid until the
    next one; each term is two ufunc calls that write into its row, where
    ``chebvander`` allocates two temporaries."""
    v = list(rows)
    v[0][...] = 1.0
    if terms > 1:
        v[1][...] = t
    t2 = 2.0 * t
    # rows[i] holds T_{base + i}; rows[fresh:end] are not yet yielded
    base, fresh, end = 0, 0, min(2, terms)
    while True:
        while end < len(v) and base + end < terms:
            np.multiply(v[end - 1], t2, v[end])
            np.subtract(v[end], v[end - 2], v[end])
            end += 1
        yield base + fresh, rows[fresh:end]
        if base + end >= terms:
            return
        # the last two rows seed the next chunk
        rows[:2] = rows[end - 2:end]
        base, fresh, end = base + end - 2, 2, 2


def cheb_eval(t, coef) -> np.ndarray:
    """The Chebyshev series with coefficients ``coef`` (along axis 0, real or
    complex, any number of columns) at ``t`` in [-1, 1], shape t.shape +
    coef.shape[1:]: the Chebyshev-Vandermonde matrix of t times ``coef``,
    formed and multiplied CHEB_ROWS rows by CHEB_BLOCK points at a time.
    numpy's ``chebval`` runs Clenshaw's recurrence term by term over every
    column; here the recurrence runs once per point and the columns share
    each product."""
    t = np.asarray(t, dtype=float)
    coef = np.asarray(coef)
    dtype = np.complex128 if np.iscomplexobj(coef) else np.float64
    # a complex column is evaluated as its real and imaginary parts
    cols = np.ascontiguousarray(coef, dtype=dtype).reshape(coef.shape[0], -1).view(np.float64)
    flat = t.ravel()
    out = np.zeros((flat.size, cols.shape[1]))
    rows = np.empty((CHEB_ROWS, min(flat.size, CHEB_BLOCK)))
    part = np.empty((rows.shape[1], cols.shape[1]))
    for start in range(0, flat.size, CHEB_BLOCK):
        tb = flat[start:start + CHEB_BLOCK]
        block, tmp = out[start:start + tb.size], part[:tb.size]
        for k, v in _cheb_vander_chunks(tb, coef.shape[0], rows[:, :tb.size]):
            block += np.matmul(v.T, cols[k:k + v.shape[0]], out=tmp)
    return out.view(dtype).reshape(t.shape + coef.shape[1:])


@dataclass(frozen=True, eq=False)
class LeafTable:
    """Chebyshev interpolant of :func:`leaf_states` on 0 <= B <= ``b_hi``.

    ``coef`` holds the Chebyshev coefficients, in t = 2 B / b_hi - 1, of
    the columns (A, A', A'', A''', B'); calling the table evaluates the five
    columns together by :func:`cheb_eval`.  An amplitude outside [0, b_hi]
    raises :class:`params.DomainError`.
    """

    b_hi: float
    coef: np.ndarray

    def __call__(self, b0) -> np.ndarray:
        """Slow-leaf states at amplitudes ``b0``, shape (n, 6)."""
        b0 = np.atleast_1d(np.asarray(b0, dtype=float))
        if not np.all((b0 >= 0.0) & (b0 <= self.b_hi)):
            raise DomainError(f"amplitude outside the leaf table's range [0, {self.b_hi:.6g}]")
        cols = cheb_eval(2.0 * b0 / self.b_hi - 1.0, self.coef)
        return np.column_stack([cols[:, :4], b0, cols[:, 4]])


def leaf_table(b_hi: float, b0: float, p: Params) -> tuple[LeafTable, np.ndarray]:
    """The slow leaf of a solve: its :class:`LeafTable` on [0, b_hi], b_hi at
    least LEAF_EDGE_MARGIN below the branch edge 1/sqrt(1+delta^2), and its
    state at the left core's seed amplitude ``b0``, from one
    :func:`leaf_states` call on the :func:`cheb_nodes` and ``b0``.  Raises
    DomainError where the leaf leaves the growing branch of W = 0 at a node or
    its stencils (:func:`leaf_b1`), as it can below that margin at large eps.

    The leaf is analytic in B below the branch edge, so the interpolant
    converges geometrically (Trefethen, Approximation Theory and
    Approximation Practice, ch. 7-8) until it meets the rounding noise of
    the nested differences, which grows with eps: about 1e-15 on A, up to
    3e-13 on A' and B', and 1e-12 to 7e-9 on A'' and A'''.  The seed state
    is the differences' own row, not the interpolant's (which can be 4e-10
    off it).
    """
    states = leaf_states(np.append(cheb_nodes(b_hi), b0), p)
    return LeafTable(b_hi=float(b_hi), coef=cheb_fit(states[:-1, [0, 1, 2, 3, 5]])), states[-1]


# -- right reduced profile ------------------------------------------------

def right_leaf_states(b0, p: Params) -> np.ndarray:
    """States on the A = 0 leaf at amplitudes ``b0`` (vectorized, shape
    (n, 6)); W = 0 exactly."""
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    out = np.zeros((b0.size, 6))
    out[:, 4] = b0
    out[:, 5] = p.epsilon * (1.0 - b0 * b0) / math.sqrt(2.0)
    return out


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

