"""B-dependent linear frames on the slow side of the connection.

The slow frame diagonalizes the linearization transported along the branch
A = sqrt(1 - (1+delta^2) B^2): :func:`lambda_pair` gives the eigenvalue
pair of its rotation block, :func:`slow_coord_matrices` its basis columns,
both for a float or an array of base points.  The solve takes the left
core's seed columns, the fast offset's frames along the left tail and the
tail's transition map from them.  The fast side, the stable pair on the
A = 0 leaf, is :func:`connect._leaf_exponent`.  The module holds no
coordinate changes and no transition-map check, and integrates nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .params import NumericalFailure, Params


class FrameDomainError(NumericalFailure, ValueError):
    pass


class FrameDegeneracyError(NumericalFailure, ValueError):
    """The complex eigenvalue pairs coalesce (discriminant condition fails)."""


def _cube(b: np.ndarray) -> np.ndarray:
    """b**3 through the libm pow of Python floats, element by element, so an
    array of base points gets the bits of the scalar frame expressions, the
    tests' reference, and the sampled B' keeps the bytes of ``profile.csv``;
    numpy's vectorized power differs from libm in the last bit for about one
    argument in twenty.  The cube enters only the B' row, which the seed
    columns of the left core (``cols_a``, the A-rows) do not read."""
    return np.array([v**3 for v in b.ravel().tolist()]).reshape(b.shape)


def _coord_matrices(b0, a, lr, li, eps: float, delta: float) -> np.ndarray:
    """Coordinate maps at base points b0 from the frame data (a_star, lam_r,
    lam_i), broadcast together; shape b0.shape + (5, 5).

    The columns are (Vr+, lam_i Vi+, Vr-, lam_i Vi-, Z1) of the frame basis,
    restricted to the rows (A0, A1, A2, A3, B1) and scaled by B0.
    """
    b0, a, lr, li = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (b0, a, lr, li)))
    g1 = 1.0 + delta**2
    e2 = eps**2
    # regular forms of the entries carrying 1/B0 factors
    w1 = e2 * b0 * g1 / a
    w2 = e2**2 * _cube(b0) * g1**3 / a
    zero, one = np.zeros_like(b0), np.ones_like(b0)
    dd = lr * lr - li * li

    def vr(s):
        return [-s * lr * (lr * lr - 3.0 * li * li) / (2.0 * a * a), one, s * lr, dd, -w2]

    def lam_i_vi(s):
        return [li * v for v in (-(3.0 * lr * lr - li * li) / (2.0 * a * a), zero, one,
                                 s * 2.0 * lr, -s * 2.0 * lr * w1)]

    z1 = [zero, -g1 * b0, zero, zero, a]
    cols = [vr(1.0), lam_i_vi(1.0), vr(-1.0), lam_i_vi(-1.0), z1]
    return b0[..., None, None] * np.stack([np.stack(c, axis=-1) for c in cols], axis=-1)


def slow_coord_matrices(b0, p: Params) -> np.ndarray:
    """5x5 maps (x1, x2, y1, y2, z1) -> deviation rows (A0~, A1, A2, A3, B1)
    of the slow frame at every b in ``b0``, a float or an array; shape
    b0.shape + (5, 5)."""
    b0 = np.asarray(b0, dtype=float)
    lam_r, lam_i = lambda_pair(b0, p)
    return _coord_matrices(b0, np.sqrt(1.0 - p.g1 * b0 * b0), lam_r, lam_i,
                           p.epsilon, p.delta)


def lambda_pair(b0, p: Params):
    """(lam_r, lam_i) of the slow-frame rotation block at base point b0:
    floats for a scalar b0, elementwise arrays for an array."""
    b = np.asarray(b0, dtype=float)
    astar2 = 1.0 - p.g1 * b * b
    if np.any(astar2 <= 0.0):
        i = np.argmin(astar2)
        raise FrameDomainError(
            f"1 - (1+delta^2) B^2 = {astar2.flat[i]:.3e} <= 0 at B = {b.flat[i]}")
    astar = np.sqrt(astar2)
    q = p.epsilon**2 * b * b * p.g1**2
    if np.any(q > astar):
        i = np.argmax(q - astar)
        raise FrameDegeneracyError(
            f"eps^2 B^2 (1+delta^2)^2 = {q.flat[i]:.3e} exceeds {astar.flat[i]:.3e}; "
            "complex pairs lost"
        )
    lam_r = np.sqrt(0.5 * (math.sqrt(2.0) * astar + q))
    lam_i = np.sqrt(0.5 * (math.sqrt(2.0) * astar - q))
    if b.ndim == 0:
        return float(lam_r), float(lam_i)
    return lam_r, lam_i
