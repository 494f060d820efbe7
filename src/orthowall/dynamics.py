"""Vector field, Jacobian, first integral, symmetries, and the singular limit.

State convention: a point of the 6-D phase space is a float array
``(A0, A1, A2, A3, B0, B1)`` holding the roll amplitude A with its first
three derivatives and the cross-roll amplitude B with its derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Params

A0, A1, A2, A3, B0, B1 = range(6)

M_MINUS = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
M_PLUS = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])

SYMMETRIES = ("neg_a", "neg_b", "neg_ab", "reversibility")


def vector_field(y: np.ndarray, p: Params) -> np.ndarray:
    """Right-hand side of the first-order system.

    A'''' = A (1 - A^2 - g B^2),  B'' = eps^2 B (-1 + g A^2 + B^2).

    The arithmetic runs on Python floats (IEEE double, the same bits as
    numpy scalars), which is several times cheaper per call inside the
    integrator's callback.
    """
    a0, a1, a2, a3, b0, b1 = y.tolist()
    return np.array([
        a1,
        a2,
        a3,
        a0 * (1.0 - a0 * a0 - p.g * b0 * b0),
        b1,
        p.epsilon**2 * b0 * (-1.0 + p.g * a0 * a0 + b0 * b0),
    ])


def _coupling(a0, b0, p: Params):
    """Entries (J30, J34, J50, J54) of the two nontrivial Jacobian rows, at
    floats or elementwise on arrays."""
    e2 = p.epsilon**2
    return (
        1.0 - 3.0 * a0 * a0 - p.g * b0 * b0,
        -2.0 * p.g * a0 * b0,
        2.0 * e2 * p.g * a0 * b0,
        e2 * (-1.0 + p.g * a0 * a0 + 3.0 * b0 * b0),
    )


def jacobian(s: np.ndarray, p: Params) -> np.ndarray:
    """Analytic Jacobian of :func:`vector_field`."""
    J = np.zeros((6, 6))
    J[0, 1] = 1.0
    J[1, 2] = 1.0
    J[2, 3] = 1.0
    J[4, 5] = 1.0
    J[3, 0], J[3, 4], J[5, 0], J[5, 4] = _coupling(float(s[0]), float(s[4]), p)
    return J


def first_integral(s: np.ndarray, p: Params) -> float:
    """Conserved quantity W; W = 0 on the invariant set holding both equilibria."""
    a0, a1, a2, a3, b0, b1 = s
    e2 = p.epsilon**2
    return (
        2.0 * e2 * a1 * a3
        - e2 * a2 * a2
        - b1 * b1
        + 0.5 * e2 * (a0 * a0 + b0 * b0 - 1.0) ** 2
        + e2 * p.delta**2 * a0 * a0 * b0 * b0
    )


def first_integral_gradient(s: np.ndarray, p: Params) -> np.ndarray:
    a0, a1, a2, a3, b0, b1 = s
    e2 = p.epsilon**2
    q = a0 * a0 + b0 * b0 - 1.0
    d2 = p.delta**2
    return np.array([
        2.0 * e2 * q * a0 + 2.0 * e2 * d2 * a0 * b0 * b0,
        2.0 * e2 * a3,
        -2.0 * e2 * a2,
        2.0 * e2 * a1,
        2.0 * e2 * q * b0 + 2.0 * e2 * d2 * a0 * a0 * b0,
        -2.0 * b1,
    ])


def symmetry_apply(s: np.ndarray, name: str) -> np.ndarray:
    """Apply one of the discrete symmetries to a state.

    ``neg_a`` and ``neg_b`` flip the sign of the A- or B-components,
    ``neg_ab`` composes them, and ``reversibility`` is the involution R
    through which the vector field anti-commutes.
    """
    s = np.asarray(s, dtype=float)
    if name == "neg_a":
        return s * np.array([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0])
    if name == "neg_b":
        return s * np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    if name == "neg_ab":
        return -s
    if name == "reversibility":
        return s * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    raise ValueError(f"unknown symmetry {name!r}; expected one of {SYMMETRIES}")


def invariant_bracket(a_jet, b0, p: Params):
    """Bracket whose square root gives B' on the invariant set W = 0, at a
    float amplitude ``b0`` or elementwise on an array of them (``a_jet``
    then holds the four rows of the A-jet).

    Equals (2/eps^2) * (W-terms without B'^2); nonnegative wherever the
    growing branch exists.
    """
    a0, a1, a2, a3 = a_jet
    d2 = p.delta**2
    b2 = b0 * b0
    return (
        (1.0 - b2) ** 2
        + a0 * a0 * (a0 * a0 + 2.0 * d2 * b2 + 2.0 * (b2 - 1.0))
        - 2.0 * a2 * a2
        + 4.0 * a1 * a3
    )


def b1_from_invariant(a_jet, b0, p: Params):
    """Positive root B' = (eps/sqrt(2)) * sqrt(bracket) of W = 0, at a float
    amplitude or elementwise on arrays (see :func:`invariant_bracket`).

    Raises ValueError where the bracket is negative (no growing branch).
    """
    br = invariant_bracket(a_jet, b0, p)
    if np.any(br < 0.0):
        k = np.argmin(br)
        raise ValueError(f"state off the growing branch of W=0 at B = "
                         f"{np.broadcast_to(b0, np.shape(br)).flat[k]:.6g} "
                         f"(bracket={np.ravel(br)[k]:.3e})")
    return p.epsilon / math.sqrt(2.0) * np.sqrt(br)


@dataclass(frozen=True)
class SingularLimitProfile:
    """Non-smooth limit profile: ellipse arc joined to a tanh relaxation.

    The left branch runs along A^2 + g B^2 = 1 from (1, 0) to (0, 1/sqrt(g));
    the right branch has A = 0 and B solving dB/dx = (eps/sqrt(2))(1 - B^2)
    with B(0) = 1/sqrt(g).
    """

    left_b: np.ndarray
    left_a: np.ndarray
    right_x: np.ndarray
    right_b: np.ndarray


def _right_branch(x: np.ndarray, p: Params) -> np.ndarray:
    theta0 = math.atanh(p.inv_sqrt_g)
    return np.tanh(p.epsilon / math.sqrt(2.0) * x + theta0)


def singular_limit(p: Params, x: np.ndarray) -> SingularLimitProfile:
    """Sample the singular limit profile.

    The left branch is sampled over B in [0, 1/sqrt(g)] with as many points
    as ``x``; the right branch is evaluated at the given abscissae (x >= 0).
    """
    x = np.asarray(x, dtype=float)
    left_b = np.linspace(0.0, p.inv_sqrt_g, x.size)
    left_a = np.sqrt(np.clip(1.0 - p.g * left_b**2, 0.0, None))
    return SingularLimitProfile(
        left_b=left_b,
        left_a=left_a,
        right_x=x,
        right_b=_right_branch(x, p),
    )
