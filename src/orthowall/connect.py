"""Global assembly of the connecting orbit between the two roll states.

:func:`heteroclinic_solve` runs five private stages with typed results.
(1) Matching solves for the four tangent parameters of the two manifold
traces: the layer problem is integrated for the stable-side pair and its
jet at the left end is equated to the unstable-side boundary family (seeded
by the closed-form solution of the pure equating system, which is eps-free).
(2) The left anchor starts a forward core on the slow leaf deep in the slow
region and calibrates it onto the unstable seed at the left section.
(3) The right anchor starts a backward core on the far-right A = 0 leaf, and
a 5-parameter least-squares match joins the two cores at the right junction,
shortening the right window (factors 1.0, 0.7, 0.5) when the match fails.
(4) The tail pieces are analytic invariant leaves far out on both tails.
(5) Phase fixing translates x so that B(0) = 1/sqrt(g); the default grid is
then sampled.  The matching Newton, the left calibration and the junction
match all run through the one damped Newton driver :func:`_damped_newton`.

The shooting Jacobians are forward differences.  Each junction column
re-integrates only the core it moves and reuses the other core's junction
value from the current iterate.  A shot read at one abscissa only (a
difference column, a right-anchor calibration shot) is value-only: it
evaluates the step interpolant there and builds no dense output, which costs
three extra field evaluations per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from . import dynamics, frames, inner, outer
from .params import Params, ScalingConfig, working_scaling

NEWTON_MAX_ITER = 25          # matching Newton iterations
REFINE_MAX_ITER = 40          # junction-match Gauss-Newton iterations
AMPLIFICATION_BUDGET = 9.0    # fast exponent accumulated over a core window


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


@dataclass
class MatchContext:
    """Data needed to evaluate the matching residual."""

    p: Params
    scaling: ScalingConfig
    grid_points: int = 2048
    inner_tol: float = 1e-12
    ignore_ode: bool = False
    sign: float = 1.0   # -1 flips the base branch (A -> -A counterpart)

    def inner_solution(self, x10s: float, x20s: float) -> inner.InnerSolution:
        fam = self.sign * inner.assemble_boundary(
            "plus", (x10s, x20s), self.scaling.a_plus)
        prob = inner.InnerProblem(
            a_minus=self.scaling.a_minus, a_plus=self.scaling.a_plus,
            boundary_plus=tuple(fam), grid_points=self.grid_points,
            tol=self.inner_tol,
        )
        return inner.solve_inner(prob)


def boundary_map(u, ctx: MatchContext) -> np.ndarray:
    """Matching residual of the four tangent parameters.

    Components: (layer jet at the left end) - (unstable boundary family),
    divided componentwise by (a-^(1/2), a-^(3/4), a-, a-^(5/4)).
    """
    u = np.asarray(u, dtype=float)
    a_m = ctx.scaling.a_minus
    scales = np.array([a_m**0.5, a_m**0.75, a_m, a_m**1.25])
    fam_minus = ctx.sign * inner.assemble_boundary("minus", (u[0], u[1]), a_m)
    if ctx.ignore_ode:
        left_jet = ctx.sign * inner.assemble_boundary(
            "plus", (u[2], u[3]), ctx.scaling.a_plus)
    else:
        left_jet = ctx.inner_solution(u[2], u[3]).jet_left
    return (left_jet - fam_minus) / scales


def _fd_jacobian(fn, u, r0, step=1e-7):
    J = np.empty((r0.size, u.size))
    for j in range(u.size):
        up = u.copy()
        up[j] += step
        J[:, j] = (fn(up) - r0) / step
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


def newton_match(ctx: MatchContext, u0, tol: float = 1e-10,
                 max_iter: int = NEWTON_MAX_ITER) -> tuple[MatchingUnknowns, dict]:
    """Damped Newton iteration on :func:`boundary_map`."""
    fn = lambda v: boundary_map(v, ctx)
    u, r, _, iterations, J, status = _damped_newton(
        lambda v: (fn(v), None), lambda v, r, _: _fd_jacobian(fn, v, r),
        np.asarray(u0, dtype=float).copy(), tol, max_iter, halvings=30)
    if status == "stalled":
        raise MatchingError("line search stalled", last_iterate=u, jacobian=J)
    if status == "max_iter":
        raise MatchingError(
            f"no convergence after {max_iter} iterations (residual {np.abs(r).max():.3e})",
            last_iterate=u, jacobian=J,
        )
    info = {"iterations": iterations, "residual": float(np.abs(r).max()),
            "jacobian": _fd_jacobian(fn, u, r), "converged": True}
    return MatchingUnknowns.from_array(u), info


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
    nu_minus: float | None = None
    nu_plus: float | None = None
    newton_tol: float = 1e-10
    inner_grid_points: int = 2048
    inner_tol: float = 1e-12
    ode_rtol: float = 1e-12
    ode_atol: float = 1e-14
    refine_tol: float = 2e-7
    tail_efolds: float = 8.0
    profile_points: int = 4001


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
        pc, s = self._pieces, self.x_shift
        x_a, x_hat, w_h, x_r = pc.geo.x_a, pc.geo.x_hat, pc.geo.w_h, pc.junction.x_r
        pad = 0.5
        return [
            (x_a - s - pad, x_a + pc.w_a - s + pad),
            (x_hat - w_h - s - pad, x_hat + w_h - s + pad),
            (x_r - pc.w_r - s - pad, x_r - s + pad),
        ]

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
            "supported_regime": self.scaling.supported and self.p.supported,
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


def _shoot(s0, span, p, rtol, atol, at=None):
    """Core shot over ``span``: the dense solution, or only the state at ``at``.

    A value-only shot takes the same steps, and its value is the same step
    interpolant evaluated at the same point, so it equals ``shot(at)`` of the
    dense shot bit for bit.
    """
    out = {"dense_output": True} if at is None else {"t_eval": [at]}
    sol = solve_ivp(lambda x, y: dynamics.vector_field(y, p), span, s0,
                    method="DOP853", rtol=rtol, atol=atol, **out)
    if not sol.success:
        raise RealizationError(f"core integration failed: {sol.message}")
    return sol.sol if at is None else sol.y[:, 0]


@dataclass(frozen=True, eq=False)
class _Shooting:
    """Core geometry: the left core runs forward from the slow leaf at x_a, a
    right core backward from the A = 0 leaf at x_r, both past x_hat +- w_h."""

    p: Params
    x_a: float
    b0_a: float
    leaf_a: np.ndarray
    cols_a: np.ndarray      # A-jet response to the left parameters (x1, x2)
    x_hat: float
    rtol: float
    atol: float
    w_h: float = 1.0        # half-width of the junction blend

    def left_seed(self, c) -> np.ndarray:
        jet = self.leaf_a[:4] + self.cols_a @ np.asarray(c, dtype=float)
        return np.concatenate(
            [jet, [self.b0_a, dynamics.b1_from_invariant(jet, self.b0_a, self.p)]])

    def left_shot(self, c, at=None):
        return _shoot(self.left_seed(c), (self.x_a, self.x_hat + self.w_h + 0.25),
                      self.p, self.rtol, self.atol, at)

    def right_shot(self, x_r, d1, d2, beta, at=None):
        gap = self.p.g1 * beta * beta - 1.0
        if gap <= 0.0:
            # the fast stable pair of the A = 0 leaf needs B > 1/sqrt(g1)
            raise ValueError(f"right anchor amplitude {float(beta):.6g} is not "
                             f"above 1/sqrt(1+delta^2) = {self.p.g1**-0.5:.6g}")
        mu = -gap ** 0.25 / math.sqrt(2.0) * (1.0 + 1.0j)
        pows = np.array([mu**k for k in range(4)])
        jet = d1 * pows.real + d2 * pows.imag
        seed = np.concatenate([jet, [beta, dynamics.b1_from_invariant(jet, beta, self.p)]])
        return _shoot(seed, (x_r, self.x_hat - self.w_h - 0.25),
                      self.p, self.rtol, self.atol, at)


@dataclass(frozen=True, eq=False)
class _Junction:
    """Joined cores; theta = (c1, c2, d1, d2, beta), the right core from x_r."""

    theta: np.ndarray
    mismatch: float
    sol_left: object
    sol_right: object
    x_r: float


@dataclass(frozen=True, eq=False)
class _Pieces:
    """Stitched representation: the left leaf follows the B-profile
    ``tail_back``/``tail_fwd`` (left/right of x_a) and carries the section
    correction, transported by the fast exponents ``phi_r``, ``phi_i``."""

    geo: _Shooting
    junction: _Junction
    phi_floor: float
    phi_r: CubicSpline
    phi_i: CubicSpline
    tail_back: object
    tail_fwd: object
    w_a: float = 2.5
    w_r: float = 4.0
    dev_reach: float = 18.0


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C^4 (ninth-order) smoothstep; invisible to the fourth-order stencils."""
    t = np.clip(t, 0.0, 1.0)
    return t**5 * (126.0 + t * (-420.0 + t * (540.0 + t * (-315.0 + 70.0 * t))))


def _sample_pieces(raw: np.ndarray, pc: _Pieces, p: Params) -> np.ndarray:
    """Evaluate the stitched representation on unshifted abscissae.

    The four pieces overlap near their seams and are joined by the C^4
    smoothstep, so grid stencils up to fourth order see a smooth curve;
    the seam mismatches themselves sit at the solver tolerances.
    """
    out = np.empty((raw.size, 6))
    geo, jn = pc.geo, pc.junction
    x_a, x_hat, x_r = geo.x_a, geo.x_hat, jn.x_r
    w_a, w_h, w_r = pc.w_a, geo.w_h, pc.w_r

    def leaf(xs):
        b0s = np.where(xs <= x_a, pc.tail_back(xs)[0], pc.tail_fwd(xs)[0])
        states = outer.leaf_states(b0s, p)
        # transport of the calibrated section correction: the fast pair
        # decays backward through the exact scaled-rotation transition map
        phi_r, phi_i = pc.phi_r(xs), pc.phi_i(xs)
        taper = _smoothstep((xs - (x_a - pc.dev_reach)) / 6.0)
        for i, x in enumerate(xs):
            if taper[i] == 0.0 or phi_r[i] > min(40.0, pc.phi_floor):
                continue
            rot = np.array([
                [math.cos(phi_i[i]), -math.sin(phi_i[i])],
                [math.sin(phi_i[i]), math.cos(phi_i[i])],
            ])
            c = taper[i] * math.exp(-phi_r[i]) * rot @ jn.theta[:2]
            fr = frames.slow_frame(float(states[i, 4]), p)
            full = fr._coord_matrix()[:, :2] @ c
            states[i, :4] += full[:4]
            states[i, 5] += full[4]
        return states

    core_l = lambda xs: jn.sol_left(xs).T
    core_r = lambda xs: jn.sol_right(xs).T

    def tail(xs):
        b0 = np.atleast_1d(outer.right_tail_b0(xs, x_r, float(jn.theta[4]), p))
        return np.array([outer.right_leaf_state(float(b), p) for b in b0])

    regions = [
        (raw < x_a, leaf, None, None),
        ((raw >= x_a) & (raw < x_a + w_a), leaf, core_l,
         lambda xs: (xs - x_a) / w_a),
        ((raw >= x_a + w_a) & (raw < x_hat - w_h), core_l, None, None),
        ((raw >= x_hat - w_h) & (raw < x_hat + w_h), core_l, core_r,
         lambda xs: (xs - x_hat + w_h) / (2.0 * w_h)),
        ((raw >= x_hat + w_h) & (raw < x_r - w_r), core_r, None, None),
        ((raw >= x_r - w_r) & (raw < x_r), core_r, tail,
         lambda xs: (xs - x_r + w_r) / w_r),
        (raw >= x_r, tail, None, None),
    ]
    for mask, f_lo, f_hi, tmap in regions:
        if not mask.any():
            continue
        xs = raw[mask]
        if f_hi is None:
            out[mask] = f_lo(xs)
        else:
            w = _smoothstep(tmap(xs))[:, None]
            out[mask] = (1.0 - w) * f_lo(xs) + w * f_hi(xs)
    return out


def _matching(p: Params, scaling: ScalingConfig, cfg: SolveConfig,
              initial_guess) -> tuple[MatchingUnknowns, dict]:
    """Stage 1: Newton on the matching system, seeded by the closed form."""
    ctx = MatchContext(p=p, scaling=scaling, grid_points=cfg.inner_grid_points,
                       inner_tol=cfg.inner_tol)
    u0 = matching_closed_form(scaling.rho).as_array() if initial_guess is None \
        else np.asarray(initial_guess, dtype=float)
    return newton_match(ctx, u0, tol=cfg.newton_tol)


def _left_anchor(p: Params, scaling: ScalingConfig, cfg: SolveConfig,
                 unknowns: MatchingUnknowns) -> tuple[_Shooting, np.ndarray]:
    """Stage 2: the core geometry, and the left parameters c that put the
    left core on the unstable seed at the left section x = -x*."""
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
    geo = _Shooting(p=p, x_a=xa, b0_a=b0_a,
                    cols_a=frames.slow_frame(b0_a, p)._coord_matrix()[:4, :2],
                    leaf_a=outer.slow_leaf_state(b0_a, p),
                    x_hat=scaling.x_star_plus, rtol=cfg.ode_rtol, atol=cfg.ode_atol)

    frame00 = frames.slow_frame(b00, p)
    seed_target = outer.unstable_seed(scaling, p, (unknowns.x1u, unknowns.x2u),
                                      k0=math.inf)
    measure = lambda state: frames.to_slow_coords(state, frame00)[:2]
    target_xy = measure(seed_target)

    def residual(c):
        sol = geo.left_shot(c)
        return target_xy - measure(sol(-x_star)), sol

    # the Jacobian is re-evaluated because the window amplifies the leaf's
    # slaving error into the weakly nonlinear range
    h_cal = 1e-8

    def jacobian(c, r, sol):
        m_l = measure(sol(-x_star))
        return -np.column_stack([
            (measure(geo.left_shot(c + e, at=-x_star)) - m_l) / h_cal
            for e in ([h_cal, 0.0], [0.0, h_cal])
        ])

    cal_tol = 1e-8 * (1.0 + np.abs(target_xy).max())
    c, r, _, _, _, status = _damped_newton(residual, jacobian, np.zeros(2), cal_tol,
                                           max_iter=16, halvings=20)
    if status == "stalled":
        raise RealizationError("left-section calibration stalled")
    if status == "max_iter":
        raise RealizationError(
            f"left-section calibration did not converge (residual {np.abs(r).max():.3e})")
    return geo, c


def _junction_window(geo: _Shooting, t_r: float, c, target_jet, floor, b01: float,
                     refine_tol: float) -> _Junction:
    """Calibrate the right anchor at window t_r and run the junction match."""
    eps, x_hat = geo.p.epsilon, geo.x_hat
    x_r = x_hat + t_r
    beta0 = math.tanh(math.atanh(b01) + eps / math.sqrt(2.0) * t_r)
    g0 = geo.right_shot(x_r, 0.0, 0.0, beta0, at=x_hat)[:4]
    h_d = 1e-9
    n_cal = np.column_stack([
        (geo.right_shot(x_r, h_d, 0.0, beta0, at=x_hat)[:4] - g0) / h_d,
        (geo.right_shot(x_r, 0.0, h_d, beta0, at=x_hat)[:4] - g0) / h_d,
    ])
    d0, *_ = np.linalg.lstsq(n_cal, target_jet - g0, rcond=None)
    theta = np.array([c[0], c[1], d0[0], d0[1], beta0])
    th_floor = np.array([1e-6, 1e-6, 1e-10, 1e-10, 1e-7])

    def residual(th):
        sl = geo.left_shot((th[0], th[1]))
        sr = geo.right_shot(x_r, th[2], th[3], th[4])
        return (sl(x_hat) - sr(x_hat)) / floor, (sl, sr)

    def jacobian(th, r, cores):
        # each column moves one core: columns 0-1 the left, 2-4 the right
        y_l, y_r = cores[0](x_hat), cores[1](x_hat)
        J = np.empty((6, 5))
        for j in range(5):
            tp = th.copy()
            step = 1e-6 * (abs(th[j]) + th_floor[j])
            tp[j] += step
            if j < 2:
                diff = geo.left_shot((tp[0], tp[1]), at=x_hat) - y_r
            else:
                diff = y_l - geo.right_shot(x_r, tp[2], tp[3], tp[4], at=x_hat)
            J[:, j] = (diff / floor - r) / step
        return J

    # a stalled line search ends the match as well; the mismatch decides
    theta, r, (sl, sr), _, _, _ = _damped_newton(
        residual, jacobian, theta, refine_tol, REFINE_MAX_ITER, halvings=12)
    mismatch = float(np.abs(r).max())
    if mismatch > 1e-4:
        raise RealizationError(
            f"junction match stalled at scaled mismatch {mismatch:.3e}")
    return _Junction(theta=theta, mismatch=mismatch, sol_left=sl, sol_right=sr, x_r=x_r)


def _right_junction(geo: _Shooting, scaling: ScalingConfig, unknowns: MatchingUnknowns,
                    c, refine_tol: float) -> _Junction:
    """Stage 3: anchor the right core and join it to the left core at x_hat.

    The right anchor is a fast stable offset on the A = 0 tail; its window
    exposes several oscillation maxima past the corner guard."""
    p = geo.p
    eps, delta = p.epsilon, p.delta
    rate_plus = math.sqrt(delta / 2.0)
    t_r_floor = max(8.0, AMPLIFICATION_BUDGET / rate_plus)
    t_r_base = max(t_r_floor, 2.0 * geo.x_hat + 5.5 * math.pi / rate_plus)
    K = inner.scale_constant(delta)
    floor = np.array([K**2 * eps**0.4, K**3 * eps**0.6, K**4 * eps**0.8, K**5 * eps,
                      1.0, eps])
    target_jet = outer.stable_seed(scaling, p, (unknowns.x10s, unknowns.x20s),
                                   k1=math.inf)[:4]
    # the long window can leave the calibrated start outside the match basin
    # at extreme parameters; back off toward the amplification floor then
    last_exc = None
    for t_r in dict.fromkeys(max(t_r_floor, t_r_base * f) for f in (1.0, 0.7, 0.5)):
        try:
            return _junction_window(geo, t_r, c, target_jet, floor, scaling.b01,
                                    refine_tol)
        except RealizationError as exc:
            last_exc = exc
    raise last_exc


def _tail_pieces(geo: _Shooting, scaling: ScalingConfig, junction: _Junction,
                 tail_efolds: float) -> _Pieces:
    """Stage 4: the left tail B-profile, the flow b' = leaf_b1(b) from (x_a,
    b0_a) (so the tail columns are derivative-consistent), and the transport
    exponents of the section correction."""
    p, x_a = geo.p, geo.x_a
    b00, x_star = scaling.b00, scaling.x_star
    tail_len = tail_efolds / (p.epsilon * p.delta) + 25.0
    b_hi = float(outer.b0_left_profile(x_a + 7.0, b00, p, x_star)) + 0.02
    b_nodes = np.linspace(0.0, min(b_hi, 0.97 / math.sqrt(p.g1)), 1500)
    b1_spline = CubicSpline(b_nodes, outer.leaf_b1(b_nodes, p))
    rhs = lambda x, b: [float(b1_spline(b[0]))]
    sol_back, sol_fwd = (
        solve_ivp(rhs, (x_a, x_end), [geo.b0_a], method="DOP853", dense_output=True,
                  rtol=1e-13, atol=1e-16) for x_end in (x_a - tail_len - 15.0, x_a + 7.0))
    if not (sol_back.success and sol_fwd.success):
        raise RealizationError("tail profile integration failed")

    hphi = (tail_len + 6.5) / 4000.0
    n_back = math.ceil(tail_len / hphi)
    n_fwd = math.floor(6.5 / hphi)
    phi_x = x_a + hphi * np.arange(-n_back, n_fwd + 1)
    lam = np.array([frames.lambda_pair(
        float(outer.b0_left_profile(x, b00, p, x_star)), p) for x in phi_x])
    phi_r = inner._cumquad_right(lam[:, 0], hphi)
    phi_i = inner._cumquad_right(lam[:, 1], hphi)
    return _Pieces(geo=geo, junction=junction, phi_floor=float(phi_r[0]),
                   phi_r=CubicSpline(phi_x, phi_r - phi_r[n_back]),
                   phi_i=CubicSpline(phi_x, phi_i - phi_i[n_back]),
                   tail_back=sol_back.sol, tail_fwd=sol_fwd.sol)


def _phase_fixed_profile(scaling: ScalingConfig, unknowns: MatchingUnknowns, info: dict,
                         pc: _Pieces, cfg: SolveConfig) -> HeteroclinicProfile:
    """Stage 5: fix the phase by B(0) = 1/sqrt(g) and sample the default grid."""
    geo, jn = pc.geo, pc.junction
    p, x_a, x_r = geo.p, geo.x_a, jn.x_r
    b0_raw = lambda x: float(_sample_pieces(np.array([x]), pc, p)[0, 4])
    x_shift = brentq(lambda x: b0_raw(x) - p.inv_sqrt_g, x_a, x_r,
                     xtol=1e-13, rtol=8.9e-16)
    x_star_left = brentq(lambda x: b0_raw(x) - scaling.b00, x_a, x_shift,
                         xtol=1e-12) - x_shift
    x_star_plus = brentq(lambda x: b0_raw(x) - scaling.b01, x_shift, x_r,
                         xtol=1e-12) - x_shift

    l_left = max(cfg.tail_efolds / (p.epsilon * p.delta), abs(x_a - x_shift) + 10.0)
    l_right = max(cfg.tail_efolds / (p.epsilon * math.sqrt(2.0)), x_r - x_shift + 10.0)

    profile = HeteroclinicProfile(
        p=p, scaling=scaling, unknowns=unknowns, newton_iterations=info["iterations"],
        matching_residual=info["residual"], matching_jacobian=info["jacobian"],
        x_shift=x_shift, x_star_left=x_star_left, x_star_plus=x_star_plus,
        junction_mismatch=jn.mismatch,
        leaf_handoff_mismatch=float(np.abs(geo.left_seed(jn.theta[:2]) - geo.leaf_a).max()),
        x_left_leaf_end=x_a - x_shift, x_right_leaf_start=x_r - x_shift,
        x=np.zeros(1), states=np.zeros((1, 6)), w=np.zeros(1), _pieces=pc)
    grid = np.linspace(-l_left, l_right, cfg.profile_points)
    states = profile.sample(grid)
    profile.x = grid
    profile.states = states
    profile.w = np.array([dynamics.first_integral(s, p) for s in states])
    return profile


def heteroclinic_solve(p: Params, cfg: SolveConfig | None = None,
                       initial_guess=None) -> HeteroclinicProfile:
    """Compute the connecting orbit for admissible (epsilon, g) in the five
    stages of the module docstring; ``initial_guess`` seeds the matching."""
    if p.epsilon == 0.0:
        raise ValueError(
            "the eps = 0 limit is singular; use dynamics.singular_limit instead")
    cfg = cfg or SolveConfig()
    scaling = working_scaling(p, cfg.nu_minus, cfg.nu_plus)
    unknowns, info = _matching(p, scaling, cfg, initial_guess)
    geo, c = _left_anchor(p, scaling, cfg, unknowns)
    junction = _right_junction(geo, scaling, unknowns, c, cfg.refine_tol)
    pieces = _tail_pieces(geo, scaling, junction, cfg.tail_efolds)
    return _phase_fixed_profile(scaling, unknowns, info, pieces, cfg)
