"""Discretized linearization along a computed profile, and its diagnostics.

Linearizing around the connection (A*, B*) with the cross amplitude split
into real and imaginary parts decouples one scalar operator:

    M [A, C] = [-A'''' + (1 - 3A*^2 - gB*^2) A - 2gA*B* C,
                (1/eps^2) C'' + (1 - gA*^2 - 3B*^2) C - 2gA*B* A]
    L D      = (1/eps^2) D'' + (1 - gA*^2 - B*^2) D

Both are self-adjoint in the flat inner product; the profile derivative
(A*', B*') spans the kernel of M.  Assembly uses symmetric second-order
stencils on a uniform grid; the truncation rows either drop outside values
(Dirichlet) or fold in the known exponential decay of the far field
(diagonal decaying-mode closure, which keeps the matrix symmetric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .inner import _cumquad_right
from .params import Params


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
    matrix: sp.csr_matrix
    kind: str          # "M" or "L"
    eps: float
    closure: str

    @property
    def n_nodes(self) -> int:
        return self.x.size

    def is_symmetric(self) -> bool:
        d = self.matrix - self.matrix.T
        return d.nnz == 0 or abs(d.data).max() == 0.0


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


def _d2(n: int, h: float) -> sp.dia_matrix:
    return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2


def _d4(n: int, h: float) -> sp.dia_matrix:
    return sp.diags([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2], shape=(n, n)) / h**4


def assemble_Mg(x: np.ndarray, states: np.ndarray, p: Params,
                closure: str = "decay") -> GridOperator:
    """Assemble the coupled (A, C) operator on the profile samples.

    Block layout: unknowns [A_0..A_{n-1}, C_0..C_{n-1}].  ``closure`` is
    'dirichlet' or 'decay'; the latter adds the exponential fold-in of the
    slow far-field modes to the first/last diagonal entries of the C block.
    """
    h = _check_grid(x, p)
    n = x.size
    a_star = states[:, 0]
    b_star = states[:, 4]
    e2 = p.epsilon**2
    aa = -_d4(n, h) + sp.diags(1.0 - 3.0 * a_star**2 - p.g * b_star**2)
    cc = _d2(n, h) / e2 + sp.diags(1.0 - p.g * a_star**2 - 3.0 * b_star**2)
    if closure == "decay":
        boost = sp.lil_matrix((n, n))
        boost[0, 0] = math.exp(-p.epsilon * p.delta * h) / (e2 * h**2)
        boost[-1, -1] = math.exp(-math.sqrt(2.0) * p.epsilon * h) / (e2 * h**2)
        cc = cc + boost
    elif closure != "dirichlet":
        raise ValueError("closure must be 'decay' or 'dirichlet'")
    ac = sp.diags(-2.0 * p.g * a_star * b_star)
    mat = sp.bmat([[aa, ac], [ac, cc]], format="csr")
    return GridOperator(x=np.asarray(x, dtype=float), h=h, matrix=mat,
                        kind="M", eps=p.epsilon, closure=closure)


def assemble_Lg(x: np.ndarray, states: np.ndarray, p: Params) -> GridOperator:
    """Assemble the decoupled scalar operator (Dirichlet truncation)."""
    h = _check_grid(x, p)
    n = x.size
    a_star = states[:, 0]
    b_star = states[:, 4]
    mat = (_d2(n, h) / p.epsilon**2
           + sp.diags(1.0 - p.g * a_star**2 - b_star**2)).tocsr()
    return GridOperator(x=np.asarray(x, dtype=float), h=h, matrix=mat,
                        kind="L", eps=p.epsilon, closure="dirichlet")


def profile_derivative_vector(states: np.ndarray) -> np.ndarray:
    """Grid vector (A*', B*') spanning the kernel of the coupled operator."""
    return np.concatenate([states[:, 1], states[:, 5]])


def kernel_residual(op: GridOperator, states: np.ndarray, margin: int = 6,
                    exclude=()) -> float:
    """Relative sup-norm of M (A*', B*') away from the truncation rows.

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
    keep_nodes[:margin] = False
    keep_nodes[n - margin:] = False
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

    @property
    def kernel_dimension_one(self) -> bool:
        return self.separation >= 1e4


def kernel_diagnostics(op: GridOperator, states: np.ndarray, p: Params,
                       l_op: GridOperator | None = None) -> KernelReport:
    """Near-kernel structure of the coupled operator.

    Finds the three eigenvalues closest to zero (shift-invert on the
    symmetric matrix; their magnitudes are the smallest singular values),
    compares the best candidate against the profile derivative, and
    evaluates the kernel orthogonality integral
    int A* B* (B* u_A + A* u_C) dx by the trapezoid rule.
    """
    vals, vecs = eigsh(op.matrix.tocsc(), k=3, sigma=0.0, which="LM")
    order = np.argsort(np.abs(vals))
    vals = vals[order]
    vecs = vecs[:, order]
    s = np.abs(vals)

    u_star = profile_derivative_vector(states)
    v = vecs[:, 0]
    cosang = abs(v @ u_star) / (np.linalg.norm(v) * np.linalg.norm(u_star))
    angle = math.acos(min(1.0, cosang))

    n = op.n_nodes
    ua, uc = v[:n], v[n:]
    norm2 = np.trapezoid(ua**2 + uc**2, op.x)
    ua, uc = ua / math.sqrt(norm2), uc / math.sqrt(norm2)
    a_star, b_star = states[:, 0], states[:, 4]
    defect = abs(np.trapezoid(a_star * b_star * (b_star * ua + a_star * uc), op.x))

    if l_op is None:
        l_op = assemble_Lg(op.x, states, p)
    l_vals = eigsh(l_op.matrix.tocsc(), k=1, sigma=0.0, which="LM",
                   return_eigenvectors=False)
    return KernelReport(
        smallest=tuple(float(v) for v in s),
        separation=float(s[1] / s[0]) if s[0] > 0 else math.inf,
        kernel_angle=float(angle),
        orthogonality_defect=float(defect),
        l_smallest=float(abs(l_vals[0])),
    )


def lg_pseudo_inverse(f: np.ndarray, x: np.ndarray, states: np.ndarray,
                      p: Params, solvability_rtol: float = 1e-6):
    """Bounded solution of L u = f by the explicit variation-of-constants form.

    Uses u(x) = eps^2 B*(x) int_x^X F(s)/B*^2(s) ds with
    F(s) = int_s^X f B*; requires the solvability condition
    int f B* dx = 0 (checked against ``solvability_rtol``).  Returns
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
    if defect > solvability_rtol * max(scale, 1e-300):
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
