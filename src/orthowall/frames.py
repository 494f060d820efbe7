"""B-dependent linear frames for the slow and fast sides of the connection.

The slow frame diagonalizes the linearization transported along the branch
A = sqrt(1 - (1+delta^2) B^2); the fast frame does the same along A = 0 for
(1+delta^2) B^2 > 1.  Both come with mutually inverse coordinate changes,
and the slow side with a bound check for the transition (monodromy)
operator of its rotation block.  The check integrates by scipy's
``solve_ivp``, which it imports itself, so that the solve, which uses the
frames but not the check, loads no ``scipy.integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Params

class FrameDomainError(ValueError):
    pass


class FrameDegeneracyError(ValueError):
    """The complex eigenvalue pairs coalesce (discriminant condition fails)."""


@dataclass(frozen=True)
class SlowFrame:
    """Eigen-data and basis at a base point B0 of the slow branch."""

    b0: float
    a_star: float
    lam_r: float
    lam_i: float
    eps: float
    delta: float

    @property
    def zbar10(self) -> float:
        """Leading factor of the resolved neutral coordinate."""
        return math.sqrt(1.0 + self.delta**2 * self.b0**2 / (2.0 * self.a_star**2))

    def _coord_matrix(self) -> np.ndarray:
        """5x5 map (x1, x2, y1, y2, z1) -> deviation rows (A0~, A1, A2, A3, B1)."""
        return _coord_matrices(self.b0, self.a_star, self.lam_r, self.lam_i,
                               self.eps, self.delta)


def _cube(b: np.ndarray) -> np.ndarray:
    """b**3 through the libm pow of Python floats, element by element, so an
    array of base points gets the bits of the scalar :class:`SlowFrame`;
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
    """``slow_frame(b, p)._coord_matrix()`` for every b in ``b0``, a float or
    an array, bit for bit; shape b0.shape + (5, 5)."""
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


def slow_frame(b0: float, p: Params) -> SlowFrame:
    """Construct the slow frame at base point ``b0``."""
    lam_r, lam_i = lambda_pair(b0, p)
    return SlowFrame(b0=float(b0), a_star=math.sqrt(1.0 - p.g1 * b0 * b0), lam_r=lam_r,
                     lam_i=lam_i, eps=p.epsilon, delta=p.delta)


def to_slow_coords(s: np.ndarray, frame: SlowFrame) -> np.ndarray:
    """State -> (x1, x2, y1, y2, z1) on the 5-D leaf through frame.b0."""
    if frame.b0 <= 0.0:
        raise FrameDomainError("slow coordinates degenerate at B = 0")
    s = np.asarray(s, dtype=float)
    dev = np.array([s[0] - frame.a_star, s[1], s[2], s[3], s[5]])
    return np.linalg.solve(frame._coord_matrix(), dev)


def from_slow_coords(c: np.ndarray, frame: SlowFrame) -> np.ndarray:
    """(x1, x2, y1, y2, z1) -> state; inverse of :func:`to_slow_coords`."""
    dev = frame._coord_matrix() @ np.asarray(c, dtype=float)
    return np.array([
        frame.a_star + dev[0], dev[1], dev[2], dev[3], frame.b0, dev[4],
    ])


@dataclass(frozen=True)
class FastFrame:
    """Basis data on the fast side, where (1+delta^2) B^2 > 1."""

    b0: float
    delta_tilde: float
    eps: float


def fast_frame(b0: float, p: Params) -> FastFrame:
    dt4 = p.g1 * b0 * b0 - 1.0
    if dt4 <= 0.0:
        raise FrameDomainError(
            f"(1+delta^2) B^2 - 1 = {dt4:.3e} <= 0 at B = {b0}; fast frame undefined"
        )
    return FastFrame(b0=float(b0), delta_tilde=dt4**0.25, eps=p.epsilon)


def to_fast_coords(s: np.ndarray, frame: FastFrame) -> np.ndarray:
    """State -> (x1, x2, y1, y2, z0, z1) anchored at (A, B) = (0, 1)."""
    a0, a1, a2, a3, b0, b1 = np.asarray(s, dtype=float)
    dt = frame.delta_tilde
    r2 = math.sqrt(2.0)
    u = -r2 * a1 / dt
    w = r2 * a3 / dt**3
    d_a = 0.5 * (u + w)          # x1 - y1
    d_b = 0.5 * (u - w)          # x2 - y2
    s_b = a2 / dt**2             # x2 + y2
    x1 = 0.5 * (a0 + d_a)
    y1 = 0.5 * (a0 - d_a)
    x2 = 0.5 * (s_b + d_b)
    y2 = 0.5 * (s_b - d_b)
    z0 = 0.5 * ((b0 - 1.0) - b1 / (frame.eps * r2))
    z1 = 0.5 * ((b0 - 1.0) + b1 / (frame.eps * r2))
    return np.array([x1, x2, y1, y2, z0, z1])


def from_fast_coords(c: np.ndarray, frame: FastFrame) -> np.ndarray:
    x1, x2, y1, y2, z0, z1 = np.asarray(c, dtype=float)
    dt = frame.delta_tilde
    r2 = math.sqrt(2.0)
    return np.array([
        x1 + y1,
        -dt / r2 * (x1 - y1 + x2 - y2),
        dt**2 * (x2 + y2),
        dt**3 / r2 * (x1 - y1 - x2 + y2),
        1.0 + z0 + z1,
        frame.eps * r2 * (z1 - z0),
    ])


@dataclass(frozen=True)
class MonodromyReport:
    max_ratio: float
    sigma: float
    closed_form_error: float
    n_samples: int


def monodromy_check(b0_path, p: Params, x_lo: float, x_hi: float,
                    n_samples: int = 200, rtol: float = 1e-12) -> MonodromyReport:
    """Check the exponential bound on the slow rotation block's transition map.

    Integrates M' = L0(B(x)) M with L0 = [[lr, li], [-li, lr]] backward from
    x_hi; the bound requires |S(x, x_hi)| <= exp(sigma (x - x_hi)) for
    x < x_hi with sigma = sqrt(alpha_min * delta)/2^(1/4) and
    alpha_min * delta = min a_star along the path.  The transition map also
    has the exact scaled-rotation form built from the running integrals of
    lam_r and lam_i, which is compared against the integrated map.
    """
    from scipy.integrate import solve_ivp

    xs = np.linspace(x_hi, x_lo, n_samples)
    astars = np.array([
        math.sqrt(1.0 - p.g1 * float(b0_path(x)) ** 2) for x in xs
    ])
    if np.any(astars <= 0.0):
        raise FrameDomainError("path leaves the slow-frame domain")
    sigma = math.sqrt(astars.min()) / 2.0**0.25

    def rhs(x, y):
        lr, li = lambda_pair(float(b0_path(x)), p)
        m = y[:4].reshape(2, 2)
        dm = np.array([[lr, li], [-li, lr]]) @ m
        return np.concatenate([dm.ravel(), [lr, li]])

    y0 = np.concatenate([np.eye(2).ravel(), [0.0, 0.0]])
    sol = solve_ivp(rhs, (x_hi, x_lo), y0, method="DOP853",
                    dense_output=True, rtol=rtol, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"monodromy integration failed: {sol.message}")

    max_ratio = 0.0
    cf_err = 0.0
    for x in xs:
        y = sol.sol(x)
        m = y[:4].reshape(2, 2)
        phi_r, phi_i = y[4], y[5]
        norm = np.linalg.norm(m, 2)
        max_ratio = max(max_ratio, norm * math.exp(-sigma * (x - x_hi)))
        rot = np.array([
            [math.cos(phi_i), math.sin(phi_i)],
            [-math.sin(phi_i), math.cos(phi_i)],
        ])
        cf_err = max(cf_err, np.abs(m - math.exp(phi_r) * rot).max())
    return MonodromyReport(
        max_ratio=float(max_ratio), sigma=float(sigma),
        closed_form_error=float(cf_err), n_samples=n_samples,
    )
