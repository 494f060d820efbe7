"""Discretized linearization along a computed profile, and its diagnostics.

Linearizing around the connection (A*, B*) with the cross amplitude split
into real and imaginary parts decouples one scalar operator:

    M [A, C] = [-A'''' + (1 - 3A*^2 - gB*^2) A - 2gA*B* C,
                (1/eps^2) C'' + (1 - gA*^2 - 3B*^2) C - 2gA*B* A]
    L D      = (1/eps^2) D'' + (1 - gA*^2 - B*^2) D

Both are self-adjoint in the flat inner product; the profile derivative
(A*', B*') spans the kernel of M.  Assembly uses symmetric second-order
stencils on a uniform grid; the truncation rows of M fold in the known
exponential decay of the far field (diagonal decaying-mode closure, which
keeps the matrix symmetric), those of L drop outside values (Dirichlet).
The matrices are built in CSC, the format the shift-invert eigensolves
factor, straight from their band values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .ode import _cumquad_right
from .params import Params


# ARPACK's relative accuracy for the Ritz values of the shift-invert
# eigensolves.  The near-kernel diagnostics are ill-conditioned in the
# profile: a 1e-15 move of it moves the smallest eigenvalue by up to 8.6e-5
# relative and orthogonality_defect by up to 2.8e-5.  Converging the Ritz
# values to machine precision (tol=0) therefore buys nothing.  Against tol=0,
# on 9 cells of the box at 5,601 nodes, 1e-10 moves the eigenvalues by at most
# 1.9e-15 relative, orthogonality_defect by 2.8e-10 and kernel_angle by
# 1.5e-5 relative (4e-11 rad), and leaves l_smallest as it is; M takes 21-67
# LU solves where it took 36-82, L 21 either way.
EIGSH_TOL = 1e-10


class GridError(ValueError):
    pass


class SolvabilityError(ValueError):
    def __init__(self, message: str, defect: float):
        super().__init__(message)
        self.defect = defect


@dataclass
class GridOperator:
    x: np.ndarray
    h: float
    matrix: sp.csc_matrix
    kind: str          # "M" or "L"

    @property
    def n_nodes(self) -> int:
        return self.x.size


def _check_grid(x: np.ndarray, p: Params) -> float:
    x = np.asarray(x, dtype=float)
    if x.size < 16:
        raise GridError("grid too coarse: need at least 16 nodes")
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-8, atol=1e-12):
        raise GridError("operator assembly requires a uniform grid")
    wavelength = 2.0 * math.pi / math.sqrt(p.delta / 2.0)
    if h > wavelength / 8.0:
        raise GridError(
            f"grid too coarse: h = {h:.4g} exceeds an eighth of the shortest "
            f"linear wavelength {wavelength:.4g}"
        )
    return float(h)


def _stencil(weights, h_power: float, scale: float = 1.0) -> np.ndarray:
    """A stencil's band values as scipy forms them for a sparse matrix divided
    by h_power and then by ``scale``: each division is a product with the
    reciprocal."""
    return np.array(weights) * (1 / h_power) * (1 / scale)


def _band_rows(n: int, half: int, base: int) -> np.ndarray:
    """Row numbers of a (2 half + 1)-band block of order n placed at row
    ``base``, column by column (n x (2 half + 1), ascending); -1 off the
    block."""
    rows = (np.arange(base - half, base - half + n, dtype=np.int32)[:, None]
            + np.arange(2 * half + 1, dtype=np.int32))
    for i in range(half):
        # the first and last half columns reach off the block
        rows[i, :half - i] = -1
        rows[n - 1 - i, half + 1 + i:] = -1
    return rows


def _csc(columns, size: int) -> sp.csc_matrix:
    """The CSC matrix of order ``size`` whose columns are given in groups
    (rows, values): column j of a group holds values[j, k] at row rows[j, k],
    rows ascending in k.  A slot at row -1 or with value 0 is left out, as
    scipy's format conversions leave out explicit zeros."""
    keep = [(rows >= 0) & (vals != 0.0) for rows, vals in columns]
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.concatenate([k.sum(axis=1) for k in keep]), out=indptr[1:])
    data = np.concatenate([vals[k] for (_, vals), k in zip(columns, keep)])
    indices = np.concatenate([rows[k] for (rows, _), k in zip(columns, keep)])
    return sp.csc_matrix((data, indices, indptr), shape=(size, size))


def assemble_Mg(x: np.ndarray, states: np.ndarray, p: Params) -> GridOperator:
    """Assemble the coupled (A, C) operator on the profile samples.

    Block layout: unknowns [A_0..A_{n-1}, C_0..C_{n-1}]; an A column holds
    its 5-point D4 band and the coupling below it, a C column the coupling
    above its 3-point D2 band.  The decay closure adds the exponential
    fold-in of the slow far-field modes to the first/last diagonal entries
    of the C block.
    """
    h = _check_grid(x, p)
    n = x.size
    a_star = states[:, 0]
    b_star = states[:, 4]
    e2 = p.epsilon**2
    aa = np.tile(-_stencil([1.0, -4.0, 6.0, -4.0, 1.0], h**4), (n, 1))
    aa[:, 2] += 1.0 - 3.0 * a_star**2 - p.g * b_star**2
    cc = np.tile(_stencil([1.0, -2.0, 1.0], h**2, e2), (n, 1))
    cc[:, 1] += 1.0 - p.g * a_star**2 - 3.0 * b_star**2
    cc[0, 1] += math.exp(-p.epsilon * p.delta * h) / (e2 * h**2)
    cc[-1, 1] += math.exp(-math.sqrt(2.0) * p.epsilon * h) / (e2 * h**2)
    ac = (-2.0 * p.g * a_star * b_star)[:, None]
    coupling = np.arange(n, dtype=np.int32)[:, None]
    mat = _csc([(np.hstack([_band_rows(n, 2, 0), coupling + n]), np.hstack([aa, ac])),
                (np.hstack([coupling, _band_rows(n, 1, n)]), np.hstack([ac, cc]))], 2 * n)
    return GridOperator(x=np.asarray(x, dtype=float), h=h, matrix=mat, kind="M")


def assemble_Lg(x: np.ndarray, states: np.ndarray, p: Params) -> GridOperator:
    """Assemble the decoupled scalar operator (Dirichlet truncation)."""
    h = _check_grid(x, p)
    n = x.size
    a_star = states[:, 0]
    b_star = states[:, 4]
    ll = np.tile(_stencil([1.0, -2.0, 1.0], h**2, p.epsilon**2), (n, 1))
    ll[:, 1] += 1.0 - p.g * a_star**2 - b_star**2
    mat = _csc([(_band_rows(n, 1, 0), ll)], n)
    return GridOperator(x=np.asarray(x, dtype=float), h=h, matrix=mat, kind="L")


def profile_derivative_vector(states: np.ndarray) -> np.ndarray:
    """Grid vector (A*', B*') spanning the kernel of the coupled operator."""
    return np.concatenate([states[:, 1], states[:, 5]])


def kernel_residual(op: GridOperator, states: np.ndarray, exclude=()) -> float:
    """Relative sup-norm of M (A*', B*') away from 6 truncation rows per end.

    ``exclude`` lists (lo, hi) windows (the profile's piece-blend regions,
    where the representation interpolates between overlapping solutions and
    the pointwise identity is not meaningful).
    """
    if op.kind != "M":
        raise ValueError("kernel residual is defined for the coupled operator")
    u = profile_derivative_vector(states)
    r = op.matrix @ u
    n = op.n_nodes
    keep_nodes = np.ones(n, dtype=bool)
    keep_nodes[:6] = False
    keep_nodes[n - 6:] = False
    for lo, hi in exclude:
        keep_nodes &= ~((op.x >= lo) & (op.x <= hi))
    keep = np.concatenate([keep_nodes, keep_nodes])
    return float(np.abs(r[keep]).max() / np.abs(u).max())


@dataclass(frozen=True)
class KernelReport:
    smallest: tuple[float, float, float]
    separation: float
    kernel_angle: float
    orthogonality_defect: float
    l_smallest: float


def kernel_diagnostics(op: GridOperator, states: np.ndarray, p: Params) -> KernelReport:
    """Near-kernel structure of the coupled operator.

    Finds the three eigenvalues closest to zero (shift-invert on the
    symmetric matrix; their magnitudes are the smallest singular values),
    compares the best candidate against the profile derivative, and
    evaluates the kernel orthogonality integral
    int A* B* (B* u_A + A* u_C) dx by the trapezoid rule.  The eigensolves
    start from (A*', B*') for M and B* for L (L B* = 0 in the interior), not
    from ARPACK's random vector, so the report is reproducible.  They stop
    at the relative accuracy EIGSH_TOL, far below what a rounding-level move
    of the profile moves these diagnostics by (see EIGSH_TOL).  Both
    operators are CSC, the format the shift-invert LU factors, so no matrix
    is converted.
    """
    u_star = profile_derivative_vector(states)
    vals, vecs = eigsh(op.matrix, k=3, sigma=0.0, which="LM", v0=u_star, tol=EIGSH_TOL)
    order = np.argsort(np.abs(vals))
    vals = vals[order]
    vecs = vecs[:, order]
    s = np.abs(vals)

    v = vecs[:, 0]
    cosang = abs(v @ u_star) / (np.linalg.norm(v) * np.linalg.norm(u_star))
    angle = math.acos(min(1.0, cosang))

    n = op.n_nodes
    ua, uc = v[:n], v[n:]
    norm2 = np.trapezoid(ua**2 + uc**2, op.x)
    ua, uc = ua / math.sqrt(norm2), uc / math.sqrt(norm2)
    a_star, b_star = states[:, 0], states[:, 4]
    defect = abs(np.trapezoid(a_star * b_star * (b_star * ua + a_star * uc), op.x))

    l_vals = eigsh(assemble_Lg(op.x, states, p).matrix, k=1, sigma=0.0, which="LM",
                   v0=b_star, tol=EIGSH_TOL, return_eigenvectors=False)
    return KernelReport(
        smallest=tuple(float(v) for v in s),
        separation=float(s[1] / s[0]) if s[0] > 0 else math.inf,
        kernel_angle=float(angle),
        orthogonality_defect=float(defect),
        l_smallest=float(abs(l_vals[0])),
    )


def lg_pseudo_inverse(f: np.ndarray, x: np.ndarray, states: np.ndarray, p: Params):
    """Bounded solution of L u = f by the explicit variation-of-constants form.

    Uses u(x) = eps^2 B*(x) int_x^X F(s)/B*^2(s) ds with
    F(s) = int_s^X f B*; requires the solvability condition
    int f B* dx = 0 (to 1e-6 relative to int |f B*| dx).  Returns
    (u, info) with the measured defect and a two-grid quadrature estimate.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-8, atol=1e-12):
        raise GridError("pseudo-inverse requires a uniform grid")
    b_star = states[:, 4]
    fb = f * b_star
    F = _cumquad_right(fb, h)
    defect = abs(F[0])
    scale = _cumquad_right(np.abs(fb), h)[0]
    if defect > 1e-6 * max(scale, 1e-300):
        raise SolvabilityError(
            f"solvability violated: int f B* dx = {F[0]:.6e} "
            f"(relative {defect / max(scale, 1e-300):.3e})",
            defect=float(F[0]),
        )
    Ft = F - F[0]
    u = p.epsilon**2 * b_star * _cumquad_right(Ft / b_star**2, h)

    coarse = slice(None, None, 2)
    Fc = _cumquad_right(fb[coarse], 2 * h)
    uc = p.epsilon**2 * b_star[coarse] * _cumquad_right(
        (Fc - Fc[0]) / b_star[coarse] ** 2, 2 * h)
    quad_estimate = float(np.abs(u[coarse] - uc).max())
    return u, {"defect": float(F[0]), "quad_estimate": quad_estimate}


def asymptotic_spectrum(g: float, side: str, operator: str) -> float:
    """Edge of the essential spectrum of the far-field operators.

    The coupled operator's far-field blocks have joint spectrum
    (-inf, -min(2, g-1)] on both sides; the scalar operator has edge
    -(g-1) on the left and 0 on the right.
    """
    if operator == "M":
        return -min(2.0, g - 1.0)
    if operator == "L":
        if side in ("minus", "-"):
            return -(g - 1.0)
        if side in ("plus", "+"):
            return 0.0
        raise ValueError("side must be 'minus' or 'plus'")
    raise ValueError("operator must be 'M' or 'L'")
