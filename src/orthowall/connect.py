"""Global assembly of the connecting orbit between the two roll states.

:func:`heteroclinic_solve` runs five private stages with typed results.
(1) Matching solves for the four tangent parameters of the two manifold
traces: the layer problem is integrated for the stable-side pair and its
jet at the left end is equated to the unstable-side boundary family (seeded
by the closed-form solution of the pure equating system).  The whole stage
is eps-free: it reads only the half-widths (a-, a+), which g and nu+-
fix, so an eps sweep solves it once and hands the :class:`Matching` to
every member (:func:`verify.solve_members`).  Its result fills only the
profile's matching fields; no later stage reads it.  So a solve that is
not handed a matching runs stage 1 in a :class:`forked.Forked` child while
stages 2-5 run, where the process may use 2 CPUs or more and runs no other
thread (:func:`_stage1_forks`), and inline otherwise.
(2) The core geometry: a forward left core starts on the slow leaf deep in
the slow region, with two fast parameters c that start at c = 0, the leaf
itself.  The slow leaf is evaluated here, once per solve: on the nodes of
its Chebyshev table, which every later read of it uses, and at the core's
seed.
(3) The right anchor starts a backward core on the far-right A = 0 leaf,
fitted to the stable trace of the closed-form matching
(:func:`matching_closed_form`), and a 5-parameter least-squares
match of (c, right-core parameters) joins the two cores at the right
junction x_hat: the intersection of the 3-dimensional unstable manifold of
M- with the 3-dimensional stable manifold of M+.
(4) The tail pieces are analytic invariant leaves far out on both tails: the
left one follows the slow leaf's table by quadrature, and every read of its
Chebyshev series, here and in every sample, is a Vandermonde product,
:func:`outer.cheb_eval`, not a loop over the terms; the right one carries
the right core's fast stable offset past x_r by Liouville-Green transport
(Olver, Asymptotics and Special Functions, ch. 6), with its decay exponent
a :class:`hermite.CubicHermite` whose knot slopes are the decay rate itself.
(5) Phase fixing translates x so that B(0) = 1/sqrt(g).  B rises strictly
along the orbit, so this root and the corner crossings B = B00, B01 are
found by :func:`_b_crossing`, bracketed Newton on the profile's own B'
column; the default grid is then sampled.  The matching Newton and the
junction match run through the one damped Newton driver
:func:`_damped_newton`.  The dense cores are evaluated from their stacked
step interpolants, :class:`_DenseSolution`, one vectorized pass per call.

Every integration runs through one DOP853 kernel, :func:`_dop853`, with the
step control of scipy's ``DOP853`` and its tableau (Hairer, Norsett & Wanner,
Solving ODEs I, sec. II.4-II.6), copied into :mod:`._dop853_tableau` and
pinned to scipy's by a test.  Every core shot is a plain 6-component
shot that records its accepted steps.  The shooting Jacobians are exact:
DOP853 applied to the variational equation Phi' = J(s) Phi (sec. I.14) on a
shot's own steps is the derivative of that shot, so :func:`_step_tangents`
forms it afterwards from the recorded stages, in one vectorized pass over
the steps.  The junction match pays for it only at iterates where Newton
takes a step.  The dense cores are built from the steps of the accepted
junction shots, continued past x_hat by a short shot; no core is shot
again.  At the anchor (g = 1.5, eps = 0.1) a solve makes 13 core shots and
8,618 field evaluations.

A solve runs on numpy alone: the tableau and the root finder above are
this module's own, the interpolant is the package's :mod:`hermite`, and the
Chebyshev fits of :func:`outer.cheb_fit` are one product with a fixed DCT
matrix, so the solve loads no scipy module.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import Chebyshev

from . import _dop853_tableau as dop, dynamics, forked, frames, inner, outer
from .hermite import CubicHermite
from .params import Params, ScalingConfig, working_scaling

NEWTON_TOL = 1e-10            # matching Newton: max |residual| at convergence
NEWTON_MAX_ITER = 25          # matching Newton iterations
REFINE_TOL = 2e-7             # junction match: scaled mismatch at convergence
REFINE_MAX_ITER = 15          # junction-match Gauss-Newton iterations
ODE_RTOL = 1e-12              # core shots
ODE_ATOL = 1e-14
TAIL_EFOLDS = 8.0             # the default grid spans this many e-folds of B's tails
AMPLIFICATION_BUDGET = 9.0    # fast exponent accumulated over a core window
W_A = 2.5                     # width of the left blend, leaf to left core, from x_a
W_H = 1.0                     # half-width of the junction blend about x_hat
W_R = 4.0                     # width of the right blend, right core to tail, to x_r
DEV_REACH = 18.0              # the left core's fast offset tapers in from x_a - DEV_REACH


class MatchingError(RuntimeError):
    def __init__(self, message: str, last_iterate=None, jacobian=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.jacobian = jacobian


class RealizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class MatchingUnknowns:
    """Tangent parameters: unstable side (x1u, x2u), stable side (x10s, x20s)."""

    x1u: float
    x2u: float
    x10s: float
    x20s: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x1u, self.x2u, self.x10s, self.x20s])

    @classmethod
    def from_array(cls, a) -> "MatchingUnknowns":
        return cls(*(float(v) for v in a))


def matching_closed_form(rho: float) -> MatchingUnknowns:
    """Unique solution of the pure boundary-equating system at width ratio rho.

    rho = (a_minus / a_plus)^(1/4); singular where 2 rho^4 = 1.  The values
    satisfy :func:`matching_linear_system` identically (the stable-side
    first component is sqrt(2) rho^4 (sqrt(2) rho^2 - 1) / (2 rho^4 - 1),
    which the equating rows force; it reduces to 2 - sqrt(2) at rho = 1).
    """
    den = 2.0 * rho**4 - 1.0
    if abs(den) <= 1e-9:
        raise ValueError(f"matching system singular at 2 rho^4 = 1 (rho = {rho})")
    q = 2.0**0.25 * rho - 1.0
    return MatchingUnknowns(
        x1u=-2.0 * rho * q / den,
        x2u=2.0**0.75 * q / den,
        x10s=math.sqrt(2.0) * rho**4 * (math.sqrt(2.0) * rho**2 - 1.0) / den,
        x20s=-(rho**4) * math.sqrt(2.0) * q * q / den,
    )


def matching_linear_system(rho: float) -> tuple[np.ndarray, np.ndarray]:
    """4x4 system M u = b of the pure equating problem.

    Unknown order (x1u, x2u, x10s, x20s); row j equates the j-th boundary
    derivative of the two families, divided by the a_plus power.
    """
    r2 = math.sqrt(2.0)
    M = np.array([
        [-(rho**2) * 2.0**-0.75, rho**2 * 2.0**-0.75, 1.0, 0.0],
        [rho**3, 0.0, 1.0 / r2, 1.0 / r2],
        [-(rho**4) * 2.0**-0.25, -(rho**4) * 2.0**-0.25, 0.0, 1.0],
        [0.0, 2.0 * rho**5, -1.0, 1.0],
    ])
    b = np.array([rho**2, 0.0, 0.0, 0.0])
    return M, b


def _left_jet(u, scaling: ScalingConfig) -> np.ndarray:
    """Layer jet at the left end for the stable-side pair (u[2], u[3])."""
    fam = inner.assemble_boundary("plus", (u[2], u[3]), scaling.a_plus)
    prob = inner.InnerProblem(a_minus=scaling.a_minus, a_plus=scaling.a_plus,
                              boundary_plus=tuple(fam))
    return inner.solve_inner(prob).jet_left


def _unstable_mismatch(u, left_jet: np.ndarray, scaling: ScalingConfig) -> np.ndarray:
    """``left_jet`` minus the unstable boundary family at (u[0], u[1]),
    divided componentwise by (a-^(1/2), a-^(3/4), a-, a-^(5/4))."""
    a_m = scaling.a_minus
    scales = np.array([a_m**0.5, a_m**0.75, a_m, a_m**1.25])
    return (left_jet - inner.assemble_boundary("minus", (u[0], u[1]), a_m)) / scales


def boundary_map(u, scaling: ScalingConfig) -> np.ndarray:
    """Matching residual of the four tangent parameters.

    Components: (layer jet at the left end) - (unstable boundary family),
    divided componentwise by (a-^(1/2), a-^(3/4), a-, a-^(5/4)).
    """
    u = np.asarray(u, dtype=float)
    return _unstable_mismatch(u, _left_jet(u, scaling), scaling)


def _match_jacobian(u, r, left_jet, scaling: ScalingConfig, step: float = 1e-7) -> np.ndarray:
    """Forward-difference Jacobian of :func:`boundary_map` at ``u``, where it
    is ``r`` with layer jet ``left_jet``.  The (x1u, x2u) columns move only
    the unstable family, so they reuse ``left_jet``; the (x10s, x20s) columns
    solve the layer problem again."""
    J = np.empty((r.size, u.size))
    for j in range(u.size):
        up = u.copy()
        up[j] += step
        r_up = (_unstable_mismatch(up, left_jet, scaling) if j < 2
                else boundary_map(up, scaling))
        J[:, j] = (r_up - r) / step
    return J


def _damped_newton(residual, jacobian, x, tol, max_iter, halvings):
    """Damped Newton iteration on ``residual(x) -> (r, aux)``.

    Solves ``J dx = -r`` for ``J = jacobian(x, r, aux)`` (in least squares
    when J is not square), then halves the step, at most ``halvings`` times,
    until max|r| falls; a trial that raises ``ValueError`` or
    ``RealizationError`` fails.  Returns ``(x, r, aux, steps, J, status)``
    with status "converged" (max|r| < tol before a step), "stalled" or
    "max_iter"; J is None when no step was taken.
    """
    r, aux = residual(x)
    J = None
    for steps in range(max_iter):
        norm = np.abs(r).max()
        if norm < tol:
            return x, r, aux, steps, J, "converged"
        J = jacobian(x, r, aux)
        if J.shape[0] == J.shape[1]:
            dx = np.linalg.solve(J, -r)
        else:
            dx, *_ = np.linalg.lstsq(J, -r, rcond=None)
        t = 1.0
        for _ in range(halvings):
            try:
                r_try, aux_try = residual(x + t * dx)
            except (ValueError, RealizationError):
                t *= 0.5
                continue
            if np.abs(r_try).max() < norm:
                break
            t *= 0.5
        else:
            return x, r, aux, steps, J, "stalled"
        x, r, aux = x + t * dx, r_try, aux_try
    return x, r, aux, max_iter, J, "max_iter"


class Matching(NamedTuple):
    """A solved matching: the unknowns, the Newton record ``info``
    (iterations, residual, jacobian, converged) and the half-widths
    (a-, a+) it was solved at, which are all of the scaling it reads."""

    unknowns: MatchingUnknowns
    info: dict
    half_widths: tuple[float, float]


def newton_match(scaling: ScalingConfig, u0) -> Matching:
    """Damped Newton iteration on :func:`boundary_map`, to NEWTON_TOL in at
    most NEWTON_MAX_ITER iterations.  The residual hands its layer jet to the
    Jacobian, so an iteration whose full step is taken solves the layer
    problem three times: two stable-side columns and the trial."""
    def residual(v):
        jet = _left_jet(v, scaling)
        return _unstable_mismatch(v, jet, scaling), jet

    u, r, jet, iterations, J, status = _damped_newton(
        residual, lambda v, r, jet: _match_jacobian(v, r, jet, scaling),
        np.asarray(u0, dtype=float).copy(), NEWTON_TOL, NEWTON_MAX_ITER, halvings=30)
    if status == "stalled":
        raise MatchingError("line search stalled", last_iterate=u, jacobian=J)
    if status == "max_iter":
        raise MatchingError(
            f"no convergence after {NEWTON_MAX_ITER} iterations "
            f"(residual {np.abs(r).max():.3e})",
            last_iterate=u, jacobian=J,
        )
    info = {"iterations": iterations, "residual": float(np.abs(r).max()),
            "jacobian": _match_jacobian(u, r, jet, scaling), "converged": True}
    return Matching(MatchingUnknowns.from_array(u), info, (scaling.a_minus, scaling.a_plus))


@dataclass(frozen=True)
class TransversalityReport:
    singular_values: tuple[float, ...]
    smallest: float
    cond: float
    degenerate: bool


def transversality(source) -> TransversalityReport:
    """Nondegeneracy diagnostics of the matching Jacobian.

    Accepts a solved profile or a raw 4x4 Jacobian.  A smallest singular
    value below 1e-6 flags possible degeneracy of the intersection.
    """
    J = source.matching_jacobian if hasattr(source, "matching_jacobian") else np.asarray(source)
    sv = np.linalg.svd(J, compute_uv=False)
    smallest = float(sv.min())
    return TransversalityReport(
        singular_values=tuple(float(s) for s in sv),
        smallest=smallest,
        cond=float(sv.max() / sv.min()) if smallest > 0 else math.inf,
        degenerate=smallest < 1e-6,
    )


@dataclass(frozen=True)
class SolveConfig:
    """What a caller chooses: the auxiliary scalings nu-/nu+ (None for the
    solver's choice, see :func:`params.working_scaling`) and the number of
    points of the default output grid, at least 3 so that the grid has an
    interior point for the checks of :func:`verify.verify_profile`."""

    nu_minus: float | None = None
    nu_plus: float | None = None
    profile_points: int = 4001

    def __post_init__(self):
        if self.profile_points < 3:
            raise ValueError(f"profile_points must be at least 3, got {self.profile_points}")


@dataclass
class HeteroclinicProfile:
    """Assembled orbit with diagnostics.

    ``sample(x)`` evaluates the stitched representation (analytic tails,
    dense integrator output in the core) on phase-fixed abscissae where
    B(0) = 1/sqrt(g).  ``x``/``states``/``w`` hold the default uniform grid.
    """

    p: Params
    scaling: ScalingConfig
    unknowns: MatchingUnknowns
    newton_iterations: int
    matching_residual: float
    matching_jacobian: np.ndarray
    x_shift: float
    x_star_left: float            # phase-fixed location of the left junction (< 0)
    x_star_plus: float            # phase-fixed location of the right junction (> 0)
    junction_mismatch: float
    leaf_handoff_mismatch: float
    x_left_leaf_end: float
    x_right_leaf_start: float
    x: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    _pieces: _Pieces = field(repr=False)

    def sample(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return _sample_pieces(x + self.x_shift, self._pieces, self.p)

    @property
    def blend_windows(self) -> list[tuple[float, float]]:
        """Piece-blend regions (phase-fixed coordinates), padded slightly."""
        cuts = (self._pieces.blend_cuts() - self.x_shift).tolist()
        return [(cuts[k] - 0.5, cuts[k + 1] + 0.5) for k in (0, 2, 4)]

    @property
    def sup_w(self) -> float:
        return float(np.abs(self.w).max())

    @property
    def min_b1(self) -> float:
        return float(self.states[:, 5].min())

    @property
    def b0_at_zero(self) -> float:
        return float(self.sample(0.0)[0, 4])

    @property
    def a0_at_zero(self) -> float:
        return float(self.sample(0.0)[0, 0])

    def to_csv(self, path: str) -> None:
        from .integrate import write_profile_csv
        write_profile_csv(path, self.x, self.states, self.w)

    def report(self) -> dict:
        tr = transversality(self)
        return {
            "epsilon": self.p.epsilon,
            "g": self.p.g,
            "delta": self.p.delta,
            "nu_minus": self.scaling.nu_minus,
            "nu_plus": self.scaling.nu_plus,
            "alpha_minus": self.scaling.alpha_minus,
            "alpha_plus": self.scaling.alpha_plus,
            "a_minus": self.scaling.a_minus,
            "a_plus": self.scaling.a_plus,
            "rho": self.scaling.rho,
            "scaling_violations": list(self.scaling.violations),
            "supported_regime": self.scaling.supported,
            "unknowns": {
                "x1u": self.unknowns.x1u, "x2u": self.unknowns.x2u,
                "x10s": self.unknowns.x10s, "x20s": self.unknowns.x20s,
            },
            "newton_iterations": self.newton_iterations,
            "matching_residual": self.matching_residual,
            "jacobian_smallest_sv": tr.smallest,
            "jacobian_cond": tr.cond,
            "degenerate": tr.degenerate,
            "junction_mismatch": self.junction_mismatch,
            "leaf_handoff_mismatch": self.leaf_handoff_mismatch,
            "x_star_left": self.x_star_left,
            "x_star_plus": self.x_star_plus,
            "b0_at_zero": self.b0_at_zero,
            "a0_at_zero": self.a0_at_zero,
            "sup_w": self.sup_w,
            "min_b1": self.min_b1,
            "b0_monotone": bool(np.all(np.diff(self.states[:, 4]) > 0)),
            "x_range": [float(self.x[0]), float(self.x[-1])],
            "blend_windows": [[float(a), float(b)] for a, b in self.blend_windows],
        }


class _Steps(NamedTuple):
    """Accepted DOP853 steps of an m-component shot: the knots ``ts``
    (n + 1), the states there ``ys`` (n + 1 x m) and each step's stages
    K0..K12 ``ks`` (n x 13 x m), K12 being the field at the step's end."""

    ts: np.ndarray
    ys: np.ndarray
    ks: np.ndarray

    def followed_by(self, more: _Steps) -> _Steps:
        """These steps continued by ``more``, which starts at their last knot."""
        return _Steps(np.concatenate([self.ts, more.ts[1:]]),
                      np.concatenate([self.ys, more.ys[1:]]),
                      np.concatenate([self.ks, more.ks]))


# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5): the
# 12 stages with the solution weights B as a 13th row, and the two error
# estimators.
_DOP_A = np.vstack([dop.A, dop.B])
_DOP_E = np.vstack([dop.E5, dop.E3])


def _rms(v: np.ndarray) -> np.float64:
    return np.sqrt(v.dot(v)) / v.size**0.5


def _dop853(field, t0: float, t1: float, y0: np.ndarray, rtol,
            atol) -> tuple[np.ndarray, _Steps]:
    """Integrate the autonomous y' = field(y) from t0 to t1 by DOP853.

    The step control is scipy's ``DOP853`` (the initial-step rule, safety
    0.9, step factors within [0.2, 10], exponent -1/8, the combined
    err5/err3 error norm, a minimum step of 10 ulp of t), so the shot takes
    the same steps and field evaluations as ``solve_ivp(method="DOP853")``.
    A stage costs one product with the scaled tableau row, one add and the
    field.  Returns the state at t1 and the accepted steps.  A step below
    the minimum or an error norm that is not finite raises
    :class:`RealizationError`.
    """
    t0, t1 = float(t0), float(t1)
    direction = 1.0 if t1 >= t0 else -1.0
    length = abs(t1 - t0)
    y = np.asarray(y0, dtype=float)
    n = y.size
    K = np.empty((13, n))
    hA = np.empty_like(_DOP_A)
    stages = [(hA[s, :s], K[:s]) for s in range(1, 12)]
    weights = (hA[12], K[:12])
    ts, ys, ks = [t0], [y], []
    with np.errstate(all="ignore"):
        f = field(y)
        # initial step (Hairer, Norsett & Wanner, sec. II.4)
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
        d2 = _rms((field(y + h0 * direction * f) - f) / scale) / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** 0.125)
        h_abs = float(min(100.0 * h0, h1, length))
        t = t0
        while direction * (t - t1) < 0.0:
            min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise RealizationError(f"DOP853 step below {min_step:.3g} at t = {t:.6g}")
                t_new = t + h_abs * direction
                if direction * (t_new - t1) > 0.0:
                    t_new = t1
                h = t_new - t
                h_abs = abs(h)
                np.multiply(_DOP_A, h, out=hA)
                K[0] = f
                for s, (a, k) in enumerate(stages, start=1):
                    K[s] = field(y + a.dot(k))
                y_new = y + weights[0].dot(weights[1])
                f_new = K[12] = field(y_new)
                err = _DOP_E.dot(K) / (atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol)
                e5, e3 = (err * err).sum(axis=1).tolist()
                norm = 0.0 if e5 == 0.0 and e3 == 0.0 else \
                    h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
                if not math.isfinite(norm):
                    raise RealizationError(f"DOP853 error norm is {norm} at t = {t:.6g}")
                if norm < 1.0:
                    factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm**-0.125)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(0.2, 0.9 * norm**-0.125)
                rejected = True
            ts.append(t_new)
            ys.append(y_new)
            ks.append(K.copy())
            t, y, f = t_new, y_new, f_new
    return y, _Steps(np.array(ts), np.array(ys), np.array(ks).reshape(-1, 13, n))


def _dense_solution(p: Params, steps: _Steps) -> _DenseSolution:
    """The DOP853 dense output of a core shot's recorded steps: 3 extra stages
    per step, then the 7 interpolant rows F (Hairer, Norsett & Wanner, II.6)."""
    ts, ys, ks = steps
    h = np.diff(ts)
    K = np.empty((h.size, 16, ys.shape[1]))
    K[:, :13] = ks
    for Ki, hi, y in zip(K, h, ys):
        hA = hi * dop.A_EXTRA
        for s in range(13, 16):
            Ki[s] = dynamics.vector_field(y + hA[s - 13, :s].dot(Ki[:s]), p)
    dy = ys[1:] - ys[:-1]
    hc = h[:, None]
    F = np.empty((h.size, 7, ys.shape[1]))
    F[:, 0] = dy
    F[:, 1] = hc * K[:, 0] - dy
    F[:, 2] = 2.0 * dy - hc * (K[:, 12] + K[:, 0])
    F[:, 3:] = hc[:, :, None] * np.einsum("jk,ikm->ijm", dop.D, K)
    return _DenseSolution(ts[:-1], h, ys[:-1], F)


def _shoot(s0, span, p, rtol=ODE_RTOL, atol=ODE_ATOL) -> tuple[np.ndarray, _Steps]:
    """Core shot over ``span``: the state at ``span[1]`` and the shot's steps."""
    return _dop853(lambda y: dynamics.vector_field(y, p), span[0], span[1], s0, rtol, atol)


def _step_tangents(steps: _Steps, d_seed: np.ndarray, p: Params) -> np.ndarray:
    """Derivative of a core shot's end state in its k parameters (6 x k),
    carried along its recorded ``steps`` from the seed derivative ``d_seed``.

    DOP853 applied to the variational equation Phi' = J(s) Phi with the
    shot's own steps is the derivative of the shot (Hairer, Norsett & Wanner,
    Solving ODEs I, sec. I.14 and II.4-II.6).  In step n the stage state
    S_s = y_n + h_n sum_j A_sj K_j moves the tangents by L_s = J(S_s) (I +
    h_n sum_j A_sj L_j), and the step maps them by M_n = I + h_n sum_s b_s
    L_s.  The stage products run on all steps at once, with J's sparsity:
    rows 0-2 and 4 shift, rows 3 and 5 couple rows 0 and 4.
    """
    ts, ys, ks = steps
    h = np.diff(ts)[:, None, None]
    stages = ys[:-1, None] + h * np.einsum("sj,njm->nsm", dop.A, ks[:, :12])
    j30, j34, j50, j54 = dynamics._coupling(stages[..., 0], stages[..., 4], p)
    eye = np.eye(6)
    L = np.empty((12, h.size, 6, 6))
    for s in range(12):
        D = eye + h * np.tensordot(dop.A[s, :s], L[:s], axes=1)
        L[s, :, :3] = D[:, 1:4]
        L[s, :, 4] = D[:, 5]
        L[s, :, 3] = j30[:, s, None] * D[:, 0] + j34[:, s, None] * D[:, 4]
        L[s, :, 5] = j50[:, s, None] * D[:, 0] + j54[:, s, None] * D[:, 4]
    phi = d_seed
    for m in eye + h * np.tensordot(dop.B, L, axes=1):
        phi = m @ phi
    return phi


class _Shot(NamedTuple):
    """A core shot: its state ``y`` at x_hat, its ``steps`` and the 6 x k
    derivative ``d_seed`` of its seed in the core's parameters."""

    y: np.ndarray
    steps: _Steps
    d_seed: np.ndarray


def _seed(jet, b0: float, d_free, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Seed on the growing branch of W = 0 and its derivative.

    ``d_free`` (5 x k) is the derivative of (jet, b0) in the k parameters.
    B' follows from W = 0, so its derivative is grad W . d(jet, b0) / (2 B')
    (W carries -B'^2).
    """
    b1 = dynamics.b1_from_invariant(jet, b0, p)
    state = np.concatenate([jet, [b0, b1]])
    row = dynamics.first_integral_gradient(state, p)[:5] @ d_free / (2.0 * b1)
    return state, np.vstack([d_free, row])


@dataclass(frozen=True, eq=False)
class _Shooting:
    """Core geometry: the left core runs forward from the slow leaf at x_a, a
    right core backward from the A = 0 leaf at x_r, both to x_hat; their
    dense cores reach past it, to x_hat +- (W_H + 0.25)."""

    p: Params
    x_a: float
    b0_a: float
    leaf: outer.LeafTable   # the slow leaf over the left tail's amplitudes
    leaf_a: np.ndarray      # its state at b0_a
    cols_a: np.ndarray      # A-jet response to the left parameters (x1, x2)
    x_hat: float

    def left_seed(self, c) -> tuple[np.ndarray, np.ndarray]:
        """Left-core seed and its 6 x 2 derivative in c."""
        jet = self.leaf_a[:4] + self.cols_a @ np.asarray(c, dtype=float)
        return _seed(jet, self.b0_a, np.vstack([self.cols_a, np.zeros(2)]), self.p)

    def left_shot(self, c) -> _Shot:
        """Left core from x_a to x_hat, by :func:`_shoot`."""
        seed, d_seed = self.left_seed(c)
        return _Shot(*_shoot(seed, (self.x_a, self.x_hat), self.p), d_seed)

    def right_seed(self, d1, d2, beta) -> tuple[np.ndarray, np.ndarray]:
        """Right-core seed and its 6 x 3 derivative in (d1, d2, beta)."""
        gap = self.p.g1 * beta * beta - 1.0
        if gap <= 0.0:
            # the fast stable pair of the A = 0 leaf needs B > 1/sqrt(g1)
            raise ValueError(f"right anchor amplitude {float(beta):.6g} is not "
                             f"above 1/sqrt(1+delta^2) = {self.p.g1**-0.5:.6g}")
        mu = complex(_leaf_exponent(beta, self.p))
        pows = np.array([mu**k for k in range(4)])
        # d mu / d beta = mu g1 beta / (2 gap)
        d_pows = np.array([k * mu**k for k in range(4)]) * (self.p.g1 * beta / (2.0 * gap))
        d_jet = np.column_stack([pows.real, pows.imag,
                                 d1 * d_pows.real + d2 * d_pows.imag])
        return _seed(d1 * pows.real + d2 * pows.imag, beta,
                     np.vstack([d_jet, [0.0, 0.0, 1.0]]), self.p)

    def right_shot(self, x_r, d1, d2, beta) -> _Shot:
        """Right core from x_r back to x_hat, by :func:`_shoot`."""
        seed, d_seed = self.right_seed(d1, d2, beta)
        return _Shot(*_shoot(seed, (x_r, self.x_hat), self.p), d_seed)

    def dense_core(self, shot: _Shot) -> _DenseSolution:
        """The dense core of a shot to x_hat: its steps continued past x_hat
        to the end of the core's span, x_hat +- (W_H + 0.25)."""
        steps = shot.steps
        end = self.x_hat + math.copysign(W_H + 0.25, self.x_hat - steps.ts[0])
        _, more = _shoot(shot.y, (self.x_hat, end), self.p)
        return _dense_solution(self.p, steps.followed_by(more))


class _DenseSolution:
    """DOP853 step interpolants, stacked and evaluated on a 1-D array of
    abscissae in one pass, as ``OdeSolution.__call__`` evaluates them: the
    same segment choice (points outside the span extrapolate from the end
    steps) and, elementwise, the same dense output recurrence (Hairer,
    Norsett & Wanner, Solving ODEs I, sec. II.6).  Step i starts at
    ``t_old[i]`` with ``y_old[i]``, has length ``h[i]`` and coefficient rows
    ``F[i]``.

    The recurrence's rows are also kept in the order it reads them, each
    contiguous over the steps, so that a read takes each row's steps with
    one ``take``: at 2,400 points that is 30% faster than gathering all of
    F[seg] at once, and holds one (n x 6) gather at a time instead of the
    (n x 7 x 6) one, which raised the peak allocation of ``orthowall
    solve`` by 0.5 MB (its tail-rate fit reads 2,400 points)."""

    def __init__(self, t_old, h, y_old, F):
        self.ascending = bool(h[0] >= 0.0)
        # the knots between steps choose the segment; the two end knots
        # only clip, so the last one is taken as t_old + h
        ts = np.append(t_old, t_old[-1] + h[-1])
        self.ts_sorted = ts if self.ascending else ts[::-1].copy()
        self.t_old, self.h, self.y_old, self.F = t_old, h, y_old, F
        self.horner = np.ascontiguousarray(F[:, ::-1].transpose(1, 0, 2))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        last = self.h.size - 1
        seg = np.searchsorted(self.ts_sorted, t, side="left" if self.ascending else "right")
        seg = np.clip(seg - 1, 0, last)
        if not self.ascending:
            seg = last - seg
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        x1 = 1 - x
        y = np.zeros((t.size, self.y_old.shape[1]))
        for i, rows in enumerate(self.horner):
            y += rows.take(seg, axis=0)
            y *= x if i % 2 == 0 else x1
        y += self.y_old[seg]
        return y.T


@dataclass(frozen=True, eq=False)
class _Junction:
    """Joined cores; theta = (c1, c2, d1, d2, beta), the right core from x_r."""

    theta: np.ndarray
    mismatch: float
    sol_left: _DenseSolution
    sol_right: _DenseSolution
    x_r: float


def _cheb_at(series: Chebyshev, x) -> np.ndarray:
    """``series(x)`` by :func:`outer.cheb_eval`, at the abscissae
    ``Chebyshev.__call__`` maps ``x`` to."""
    off, scl = series.mapparms()
    return outer.cheb_eval(off + scl * np.asarray(x, dtype=float), series.coef)


def _leaf_integral(leaf: outer.LeafTable, g, b0: float) -> tuple[complex, Chebyshev]:
    """int_b0^B g / F dB = pole log B + rest(B) along the slow leaf, F the B'
    column of ``leaf``.  F ~ eps delta B near B = 0, so B g / F is smooth: its
    value at 0 is the pole's strength, and the remainder (B g / F - pole) / B
    is a polynomial, whose Chebyshev series is integrated exactly (Trefethen,
    Approximation Theory and Approximation Practice, ch. 19)."""
    b = outer.cheb_nodes(leaf.b_hi)
    y = Chebyshev(outer.cheb_fit(g(b) * b / leaf(b)[:, 5]), [0.0, leaf.b_hi])
    y_b = _cheb_at(y, np.append(b, 0.0))
    pole = y_b[-1]
    rest = Chebyshev(outer.cheb_fit((y_b[:-1] - pole) / b), y.domain)
    return pole, rest.integ(lbnd=b0) - pole * math.log(b0)


@dataclass(frozen=True, eq=False)
class _Pieces:
    """Stitched representation (stage 4).  The left leaf takes its states from
    the table ``geo.leaf`` along the B-profile x = x_a + a log B + I(B), the
    :func:`_leaf_integral` of 1 from the left core's seed, so B' = F(B) with
    the table's own B' column F; its inverse is B = w h(w), w = exp((x - x_a)
    / a), h smooth down to B = 0 since a is the quadrature's own pole.  The
    left core's fast offset moves by exp(pole log B + rest(B)), ``fast`` =
    (pole, rest), the slow pair's transition map int_b0^B (lambda_r - i
    lambda_i) / F.  The right tail carries the right core's fast stable
    offset, decaying by ``kappa_r``, the integral of the leaf's decay rate
    kappa from x_r: the cubic Hermite interpolant of its quadrature with
    kappa itself as the slope at each knot (zero past its last knot, where
    the offset is below rounding)."""

    geo: _Shooting
    junction: _Junction
    a: float
    h: Chebyshev
    fast: tuple[complex, Chebyshev]
    kappa_r: CubicHermite

    def blend_cuts(self) -> np.ndarray:
        """The ends of the three blends: leaf to left core, left core to right
        core, right core to right tail."""
        x_a, x_hat, x_r = self.geo.x_a, self.geo.x_hat, self.junction.x_r
        return np.array([x_a, x_a + W_A, x_hat - W_H, x_hat + W_H, x_r - W_R, x_r])


def _leaf_exponent(b, p: Params):
    """Fast stable exponent -kappa (1 + i) of the A = 0 leaf at amplitude b,
    kappa = (g1 b^2 - 1)^(1/4) / sqrt(2)."""
    kappa = np.maximum(p.g1 * np.asarray(b) ** 2 - 1.0, 0.0) ** 0.25 / math.sqrt(2.0)
    return -kappa * (1.0 + 1.0j)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C^4 (ninth-order) smoothstep; invisible to the fourth-order stencils."""
    t = np.clip(t, 0.0, 1.0)
    return t**5 * (126.0 + t * (-420.0 + t * (540.0 + t * (-315.0 + 70.0 * t))))


def _sample_pieces(raw: np.ndarray, pc: _Pieces, p: Params) -> np.ndarray:
    """Evaluate the stitched representation on unshifted abscissae.

    The four pieces overlap near their seams and are joined by the C^4
    smoothstep, so grid stencils up to fourth order see a smooth curve;
    the seam mismatches themselves sit at the solver tolerances.  Each
    piece is evaluated on the whole array of its abscissae: the leaf from
    the Chebyshev series of its tail (h), its table and its transport (the
    last only where the taper is nonzero), each by
    :func:`outer.cheb_eval`, and the slow frames of the left core's
    fast offset from :func:`frames.slow_coord_matrices`; the cores from
    their stacked interpolants; the right tail as closed forms.
    """
    out = np.empty((raw.size, 6))
    geo, jn = pc.geo, pc.junction
    x_a, x_r = geo.x_a, jn.x_r

    def leaf(xs):
        w = np.exp((xs - x_a) / pc.a)
        b0s = w * _cheb_at(pc.h, w)
        states = geo.leaf(b0s)
        # the left core's fast offset c, fitted by the junction match, decays
        # backward through the transition map of the slow pair
        taper = _smoothstep((xs - (x_a - DEV_REACH)) / 6.0)
        on = taper != 0.0
        if on.any():
            b, (pole, rest) = b0s[on], pc.fast
            z = taper[on] * np.exp(pole * np.log(b) + _cheb_at(rest, b)) * complex(*jn.theta[:2])
            cols = frames.slow_coord_matrices(b, p)
            full = cols[:, :, 0] * z.real[:, None] + cols[:, :, 1] * z.imag[:, None]
            states[on, :4] += full[:, :4]
            states[on, 5] += full[:, 4]
        return states

    def tail(xs):
        # the A = 0 leaf, plus the right core's fast stable offset carried
        # past its seed at x_r by Liouville-Green transport along the leaf
        b0 = np.atleast_1d(outer.right_tail_b0(xs, x_r, float(jn.theta[4]), p))
        states = outer.right_leaf_states(b0, p)
        mu, mu0 = _leaf_exponent(b0, p), _leaf_exponent(float(jn.theta[4]), p)
        # A'''' = -4 kappa^4 A with kappa slowly varying: A ~ kappa^(-3/2) e^(int mu)
        x_end = pc.kappa_r.x[-1]
        z = (jn.theta[2] - 1.0j * jn.theta[3]) * (mu.real / mu0.real) ** -1.5 * np.exp(
            -(1.0 + 1.0j) * pc.kappa_r(np.minimum(xs, x_end)))
        z[xs > x_end] = 0.0
        for k in range(4):
            states[:, k] = (z * mu**k).real
        return states

    # the pieces in order, each alone between two blends
    pieces = (leaf, lambda xs: jn.sol_left(xs).T, lambda xs: jn.sol_right(xs).T, tail)
    edges = np.concatenate([[-np.inf], pc.blend_cuts(), [np.inf]])
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        mask = (raw >= lo) & (raw < hi)
        if not mask.any():
            continue
        xs, f = raw[mask], pieces[i // 2]
        if i % 2 == 0:
            out[mask] = f(xs)
        else:
            w = _smoothstep((xs - lo) / (hi - lo))[:, None]
            out[mask] = (1.0 - w) * f(xs) + w * pieces[i // 2 + 1](xs)
    return out


def solve_matching(scaling: ScalingConfig) -> Matching:
    """Stage 1: Newton on the matching system, seeded by the closed form.
    It reads only the half-widths (a-, a+) of ``scaling``, which depend on
    g and nu+- but not on eps.  :func:`heteroclinic_solve` calls it in a
    forked child, or inline, and reads its result only for the profile's
    matching fields."""
    return newton_match(scaling, matching_closed_form(scaling.rho).as_array())


def _core_geometry(p: Params, scaling: ScalingConfig) -> _Shooting:
    """Stage 2: the core geometry.  The left core starts on the slow leaf at
    x_a; the junction match starts its fast parameters at c = 0, the leaf.
    The leaf is evaluated once, by :func:`outer.leaf_table`: its table over
    the left tail's amplitudes, up to B at the end of the left blend and
    below the branch edge, and its state at the seed amplitude b0_a."""
    b00, x_star = scaling.b00, scaling.x_star
    # walk back along the closed-form slow profile until the accumulated
    # fast exponent reaches the amplification budget
    acc, xa, dx = 0.0, -x_star, 0.25
    while acc < AMPLIFICATION_BUDGET and (-x_star - xa) < 120.0:
        xa -= dx
        b_here = float(outer.b0_left_profile(xa, b00, p, x_star))
        lam_r, _ = frames.lambda_pair(b_here, p)
        acc += lam_r * dx
    b0_a = float(outer.b0_left_profile(xa, b00, p, x_star))
    # room above B at x_a + W_A, the last leaf sample, kept below the branch edge
    b_hi = min(float(outer.b0_left_profile(xa + 7.0, b00, p, x_star)) + 0.02,
               1.0 / math.sqrt(p.g1) - outer.LEAF_EDGE_MARGIN)
    leaf, leaf_a = outer.leaf_table(b_hi, b0_a, p)
    return _Shooting(p=p, x_a=xa, b0_a=b0_a, leaf=leaf, leaf_a=leaf_a,
                     cols_a=frames.slow_coord_matrices(b0_a, p)[:4, :2],
                     x_hat=scaling.x_star_plus)


def _junction_scale(p: Params) -> np.ndarray:
    """Component scales of the junction mismatch: the corner-layer sizes of
    the A-jet, then B and B'."""
    K, eps = inner.scale_constant(p.delta), p.epsilon
    return np.array([K**2 * eps**0.4, K**3 * eps**0.6, K**4 * eps**0.8, K**5 * eps,
                     1.0, eps])


def _junction_residual(geo: _Shooting, x_r: float, th) -> tuple[np.ndarray, tuple]:
    """Scaled mismatch of the two cores at x_hat for theta = (c1, c2, d1, d2,
    beta), and the two plain core shots (left, right), from which
    :func:`_junction_jacobian` forms its Jacobian."""
    left = geo.left_shot(th[:2])
    right = geo.right_shot(x_r, th[2], th[3], th[4])
    return (left.y - right.y) / _junction_scale(geo.p), (left, right)


def _junction_jacobian(p: Params, shots: tuple[_Shot, _Shot]) -> np.ndarray:
    """Exact 6 x 5 Jacobian of :func:`_junction_residual` from its shots."""
    phi_l, phi_r = (_step_tangents(shot.steps, shot.d_seed, p) for shot in shots)
    return np.hstack([phi_l, -phi_r]) / _junction_scale(p)[:, None]


def _right_junction(geo: _Shooting, scaling: ScalingConfig) -> _Junction:
    """Stage 3: anchor the right core and join it to the left core at x_hat.

    The right anchor is a fast stable offset on the A = 0 tail at x_hat + t_r,
    fitted to the stable trace of the closed-form matching
    (:func:`matching_closed_form`), so this stage reads nothing of stage 1;
    t_r keeps the amplification floor and exposes several oscillation
    maxima past the corner guard.  The junction match starts from the left
    core on the leaf (c = 0); one that ends above a scaled mismatch of 1e-4
    fails.  The dense cores come from the steps of the accepted iterate's
    shots."""
    p, x_hat = geo.p, geo.x_hat
    rate_plus = math.sqrt(p.delta / 2.0)
    t_r = max(8.0, AMPLIFICATION_BUDGET / rate_plus, 2.0 * x_hat + 5.5 * math.pi / rate_plus)
    x_r = x_hat + t_r
    closed = matching_closed_form(scaling.rho)
    target_jet = outer.stable_seed(scaling, p, (closed.x10s, closed.x20s))[:4]
    beta0 = math.tanh(math.atanh(scaling.b01) + p.epsilon / math.sqrt(2.0) * t_r)
    anchor = geo.right_shot(x_r, 0.0, 0.0, beta0)
    phi = _step_tangents(anchor.steps, anchor.d_seed[:, :2], p)
    d0, *_ = np.linalg.lstsq(phi[:4], target_jet - anchor.y[:4], rcond=None)
    theta = np.array([0.0, 0.0, d0[0], d0[1], beta0])

    # a stalled line search ends the match as well; the mismatch decides
    theta, r, (left, right), _, _, _ = _damped_newton(
        lambda th: _junction_residual(geo, x_r, th),
        lambda th, r, shots: _junction_jacobian(p, shots),
        theta, REFINE_TOL, REFINE_MAX_ITER, halvings=12)
    mismatch = float(np.abs(r).max())
    if mismatch > 1e-4:
        raise RealizationError(f"junction match stalled at scaled mismatch {mismatch:.3e}")
    return _Junction(theta=theta, mismatch=mismatch, sol_left=geo.dense_core(left),
                     sol_right=geo.dense_core(right), x_r=x_r)


def _tail_pieces(geo: _Shooting, junction: _Junction) -> _Pieces:
    """Stage 4: the left tail by quadrature on the slow leaf's table of stage
    2 (:class:`_Pieces`), its B-profile inverted at the nodes of w by Newton
    in log B from the pole's B = b0 w, kept inside the table, and the right
    tail's decay exponent.  Each Newton step reads the quadrature I(B) and
    its derivative, formed once, in one :func:`outer.cheb_eval` call."""
    p, b0, leaf = geo.p, geo.b0_a, geo.leaf
    a, x_rest = _leaf_integral(leaf, lambda b: 1.0, b0)
    # I(B) and I'(B) as two columns of one series, read in one call per step
    off, scl = x_rest.mapparms()
    i_cols = np.column_stack([x_rest.coef, np.append(x_rest.deriv().coef, 0.0)])

    def b_over_w(w):
        u = np.log(b0 * w)
        for _ in range(50):
            b = np.exp(u)
            i_b, di_b = outer.cheb_eval(off + scl * b, i_cols).T
            step = (a * (u - np.log(w)) + i_b) / (a + b * di_b)
            u = np.minimum(u - step, math.log(leaf.b_hi))
            if np.abs(step).max() < 1e-14:
                return np.exp(u) / w
        raise RealizationError(f"the left tail leaves the leaf table before x_a + {W_A}")

    w_hi = math.exp(W_A / a)
    h = Chebyshev(outer.cheb_fit(b_over_w(outer.cheb_nodes(w_hi))), [0.0, w_hi])
    fast = _leaf_integral(leaf, lambda b: np.dot([1.0, -1.0j], frames.lambda_pair(b, p)), b0)
    # the right tail's decay exponent, integrated from x_r over blend and tail
    x_r = junction.x_r
    tail_r = TAIL_EFOLDS / (p.epsilon * math.sqrt(2.0)) + 25.0
    hk = (tail_r + W_R + 1.0) / 4000.0
    n_blend = math.ceil((W_R + 1.0) / hk)
    k_x = x_r + hk * np.arange(-n_blend, math.floor(tail_r / hk) + 1)
    kappa = -_leaf_exponent(outer.right_tail_b0(k_x, x_r, float(junction.theta[4]), p), p).real
    k_int = inner._cumquad_right(kappa, hk)
    return _Pieces(geo=geo, junction=junction, a=a, h=h, fast=fast,
                   kappa_r=CubicHermite(k_x, k_int[n_blend] - k_int, kappa))


def _b_crossing(state_at, level: float, x0: float, lo: float, hi: float) -> float:
    """The x in (lo, hi) where B rises through ``level``, ``state_at(x)`` the
    6-state at x: Newton on its own B' column, kept inside a bracket that
    each value of B shrinks (rtsafe, Press et al., Numerical Recipes, sec.
    9.4).  A step that is not finite or leaves the bracket bisects it; a
    start x0 outside it starts at its midpoint."""
    x = x0 if lo < x0 < hi else 0.5 * (lo + hi)
    for _ in range(100):
        b, b1 = (float(v) for v in state_at(x)[4:])
        if b == level:
            return x
        if b < level:
            lo = x
        else:
            hi = x
        step = (level - b) / b1 if b1 != 0.0 else math.inf
        if abs(step) <= 1e-13 * (1.0 + abs(x)):
            return x + step
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    raise RealizationError(f"B does not cross {level:.6g} in ({lo:.6g}, {hi:.6g})")


def _phase_fixed_profile(scaling: ScalingConfig, pc: _Pieces, profile_points: int,
                         matching: Callable[[], Matching]) -> HeteroclinicProfile:
    """Stage 5: fix the phase by B(0) = 1/sqrt(g) and sample the default grid.
    Stage 1's result, ``matching()``, is read last, to fill the profile's
    matching fields: nothing of the orbit depends on it."""
    geo, jn = pc.geo, pc.junction
    p, x_a, x_r = geo.p, geo.x_a, jn.x_r

    def state_at(x):
        return _sample_pieces(np.array([x]), pc, p)[0]

    x_shift = _b_crossing(state_at, p.inv_sqrt_g, 0.0, x_a, x_r)
    x_star_left = _b_crossing(state_at, scaling.b00, -scaling.x_star, x_a, x_shift) - x_shift
    x_star_plus = _b_crossing(state_at, scaling.b01, geo.x_hat, x_shift, x_r) - x_shift

    l_left = max(TAIL_EFOLDS / (p.epsilon * p.delta), abs(x_a - x_shift) + 10.0)
    l_right = max(TAIL_EFOLDS / (p.epsilon * math.sqrt(2.0)), x_r - x_shift + 10.0)
    grid = np.linspace(-l_left, l_right, profile_points)
    states = _sample_pieces(grid + x_shift, pc, p)
    unknowns, info, _ = matching()
    return HeteroclinicProfile(
        p=p, scaling=scaling, unknowns=unknowns, newton_iterations=info["iterations"],
        matching_residual=info["residual"], matching_jacobian=info["jacobian"],
        x_shift=x_shift, x_star_left=x_star_left, x_star_plus=x_star_plus,
        junction_mismatch=jn.mismatch,
        leaf_handoff_mismatch=float(np.abs(geo.left_seed(jn.theta[:2])[0] - geo.leaf_a).max()),
        x_left_leaf_end=x_a - x_shift, x_right_leaf_start=x_r - x_shift,
        x=grid, states=states, w=dynamics.first_integral(states.T, p), _pieces=pc)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the machine's
    count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stage1_forks() -> bool:
    """Whether a solve forks stage 1: it may run on 2 CPUs or more and runs
    no other thread of its own (a fork copies only the calling thread)."""
    return _usable_cpus() >= 2 and threading.active_count() == 1


def _current_cpu() -> int | None:
    """The CPU this process runs on, field 39 of ``/proc/self/stat``, or None
    where the platform has no such file."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu: int | None) -> None:
    """Move this process to the CPUs it may use other than ``cpu``, where it
    can.  Where the scheduler is slow to balance load between CPUs, a
    forked child can stay on its parent's CPU for the whole of stage 1, and
    the two share it: on a 2-CPU VM the anchor solve took 62 ms inline,
    71 ms with its child on the parent's CPU and 46 ms once the child had
    moved."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        try:
            os.sched_setaffinity(0, others)
        except OSError:
            pass  # the child then shares its parent's CPU


def _matching_off_cpu(parent: int, cpu: int | None, scaling: ScalingConfig) -> Matching:
    """Stage 1, first moved off the ``parent``'s CPU unless it runs in the parent."""
    if os.getpid() != parent:
        _leave_cpu(cpu)
    return solve_matching(scaling)


def heteroclinic_solve(p: Params, cfg: SolveConfig | None = None,
                       matching: Matching | None = None) -> HeteroclinicProfile:
    """Compute the connecting orbit for admissible (epsilon, g) in the five
    stages of the module docstring.

    ``matching`` is a stage-1 result, :func:`solve_matching` or
    :func:`newton_match`, to use in place of solving stage 1 here: a sweep
    solves it once for all its members.  It must have been solved at this
    solve's half-widths (a-, a+), or ``ValueError`` names both pairs.

    Without a ``matching``, stage 1 runs in a :class:`forked.Forked` child
    while this process runs stages 2-5, where :func:`_stage1_forks` allows
    it, and here otherwise or where the fork fails: the same bits.  The
    child's :class:`Matching` or error crosses its pipe and is read before
    the profile is built; one that dies without it is a :class:`MatchingError`.
    If a later stage raises, the solve still waits for stage 1 and raises its
    error, if any, as the serial order would; an interrupt kills the child."""
    if p.epsilon == 0.0:
        raise ValueError(
            "the eps = 0 limit is singular; use dynamics.singular_limit instead")
    cfg = cfg or SolveConfig()
    scaling = working_scaling(p, cfg.nu_minus, cfg.nu_plus)
    child = None
    if matching is not None:
        if matching.half_widths != (scaling.a_minus, scaling.a_plus):
            raise ValueError(
                f"the matching was solved at (a-, a+) = {matching.half_widths!r}, "
                f"but this solve has {(scaling.a_minus, scaling.a_plus)!r}")
    elif _stage1_forks():
        child = forked.Forked(_matching_off_cpu, os.getpid(), _current_cpu(), scaling,
                              lost=MatchingError)
    else:
        matching = solve_matching(scaling)
    try:
        geo = _core_geometry(p, scaling)
        junction = _right_junction(geo, scaling)
        pieces = _tail_pieces(geo, junction)
        return _phase_fixed_profile(scaling, pieces, cfg.profile_points,
                                    child.result if child else lambda: matching)
    except Exception:
        if child is not None:
            child.result()  # a stage-1 error wins, as in the serial order
        raise
    finally:
        if child is not None:
            child.kill()
