"""Corner-layer boundary-value problem and its fixed-point solver.

After the scale change z = K eps^(1/5) x, A = K^2 eps^(2/5) Abar the layer
equation is Abar'''' = -Abar (Abar^2 + z) on a finite interval [-a-, a+]
that no longer involves eps.  Starting from a cubic jet prescribed at
z = a+, the solution is a fixed point of the Volterra form

    Abar(z) = T(z) + int_z^{a+} (z-s)^3/6 * Abar(s) (Abar(s)^2 + s) ds,

iterated to convergence.  Extension past the contraction range of a single
sweep proceeds by re-anchoring at the current left end and stepping
leftward with step lengths kept inside the per-step contraction budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import CubicHermite
from .integrate import write_csv
from .ode import _cumquad_right
from .params import NumericalFailure

PICARD_TOL = 1e-12      # sup-norm change of A at which a sweep has converged
PICARD_MAX_ITER = 200   # Picard iterations per anchored sweep


class ContractionViolated(ValueError):
    pass


class NonConvergence(NumericalFailure):
    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = list(history)


def scale_constant(delta: float) -> float:
    """Layer scale factor K = (2 sqrt(2) delta^2 / sqrt(1+delta^2))^(1/5)."""
    return (2.0 * math.sqrt(2.0) * delta**2 / math.sqrt(1.0 + delta**2)) ** 0.2


def contraction_constant(a_plus: float) -> float:
    """Sup-norm Lipschitz budget 2 a+^5 / 3 of the single-sweep iteration."""
    return 2.0 * a_plus**5 / 3.0


def assemble_boundary(side: str, tangent, a: float) -> np.ndarray:
    """Boundary jet family at z = +a (side 'plus') or z = -a (side 'minus');
    ``tangent`` holds the two family parameters."""
    t1, t2 = float(tangent[0]), float(tangent[1])
    r2 = math.sqrt(2.0)
    if side == "plus":
        return np.array([
            a**0.5 * t1,
            -a**0.75 / r2 * (t1 + t2),
            a * t2,
            a**1.25 / r2 * (t1 - t2),
        ])
    if side == "minus":
        return np.array([
            a**0.5 * (1.0 + 2.0**-0.75 * (t1 - t2)),
            a**0.75 * t1,
            a / 2.0**0.25 * (t1 + t2),
            r2 * a**1.25 * t2,
        ])
    raise ValueError("side must be 'plus' or 'minus'")


@dataclass(frozen=True)
class InnerProblem:
    """Layer problem data: interval, boundary jet at z = a+, grid density."""

    a_minus: float
    a_plus: float
    boundary_plus: tuple[float, float, float, float]
    grid_points: int = 2048

    def __post_init__(self):
        if not (0.0 < self.a_plus < math.inf and 0.0 < self.a_minus < math.inf):
            raise ValueError("half-widths must be finite and positive")
        if not all(math.isfinite(v) for v in self.boundary_plus):
            raise ValueError("boundary jet must be finite")
        if self.grid_points < 8:
            raise ValueError("grid_points must be at least 8")


@dataclass
class InnerSolution:
    """Layer solution: grid, jet rows (A, A', A'', A'''), iteration record."""

    z: np.ndarray
    jets: np.ndarray                      # shape (4, n)
    deltas: list[list[float]]             # per anchored sweep
    segments: list[tuple[float, float]]   # (z_lo, z_hi) per sweep
    problem: InnerProblem

    @property
    def jet_left(self) -> np.ndarray:
        return self.jets[:, 0].copy()

    def delta_ratios(self, floor: float = 0.0) -> list[float]:
        """Successive sup-delta ratios of the base sweep.

        ``floor`` drops pairs already at the quadrature noise level.
        """
        d = self.deltas[0]
        return [d[i + 1] / d[i] for i in range(len(d) - 1)
                if d[i] > floor and d[i + 1] > floor]

    def resampled(self, n: int) -> "InnerSolution":
        """Hermite-resample onto a uniform grid of n points: the jet rows by
        one :class:`hermite.CubicHermite`, each with the next row as its
        slopes, and -A (A^2 + z), the layer equation's A'''', for the last."""
        zu = np.linspace(self.z[0], self.z[-1], n)
        g = self.jets[0] * (self.jets[0] ** 2 + self.z)
        slopes = np.column_stack([self.jets[1], self.jets[2], self.jets[3], -g])
        jets = CubicHermite(self.z, self.jets.T, slopes)(zu).T
        return InnerSolution(z=zu, jets=jets, deltas=self.deltas,
                             segments=self.segments, problem=self.problem)

    def to_csv(self, path: str) -> None:
        res = inner_residual(self, return_array=True)[1]
        write_csv(path, "z,A,A',A'',A''',residual", [self.z, self.jets.T, res])


def _taylor_rows(dz: np.ndarray, jet: np.ndarray) -> tuple[np.ndarray, ...]:
    c0, c1, c2, c3 = jet
    t0 = c0 + dz * (c1 + dz * (c2 / 2.0 + dz * c3 / 6.0))
    t1 = c1 + dz * (c2 + dz * c3 / 2.0)
    t2 = c2 + dz * c3
    return t0, t1, t2, np.full_like(dz, c3)


def _apply_volterra(z: np.ndarray, a_vals: np.ndarray, anchor_jet: np.ndarray
                    ) -> tuple[np.ndarray, ...]:
    """One application of the anchored Volterra operator; returns all 4 jets."""
    h = z[1] - z[0]
    dz = z - z[-1]
    t0, t1, t2, t3 = _taylor_rows(dz, anchor_jet)
    i0, i1, i2, i3 = _cumquad_right(np.vstack([np.ones_like(z), z, z**2, z**3])
                                    * (a_vals * (a_vals**2 + z)), h)
    a0 = t0 + (z**3 * i0 - 3.0 * z**2 * i1 + 3.0 * z * i2 - i3) / 6.0
    a1 = t1 + (z**2 * i0 - 2.0 * z * i1 + i2) / 2.0
    a2 = t2 - (i1 - z * i0)
    a3 = t3 + i0
    return a0, a1, a2, a3


def _picard_sweep(z: np.ndarray, anchor_jet: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Iterate the anchored Volterra form to its fixed point on grid z.

    Only the A row is iterated, as :func:`_apply_volterra` forms it: the four
    moment integrals of g come from one quadrature of the stacked (4, n)
    integrand.  The full jet is formed once, at convergence."""
    h = z[1] - z[0]
    t0 = _taylor_rows(z - z[-1], anchor_jet)[0]
    z2, z3 = z**2, z**3
    powers = np.vstack([np.ones_like(z), z, z2, z3])
    a = t0
    deltas: list[float] = []
    for _ in range(PICARD_MAX_ITER):
        i0, i1, i2, i3 = _cumquad_right(powers * (a * (a**2 + z)), h)
        a0 = t0 + (z3 * i0 - 3.0 * z2 * i1 + 3.0 * z * i2 - i3) / 6.0
        delta = float(np.abs(a0 - a).max())
        deltas.append(delta)
        a = a0
        if delta < PICARD_TOL:
            jets = np.vstack(_apply_volterra(z, a, anchor_jet))
            return jets, deltas
        if not math.isfinite(delta) or delta > 1e8 or (
            len(deltas) >= 6
            and deltas[-1] > deltas[-2] > deltas[-3]
            and deltas[-1] > 10.0 * deltas[0]
        ):
            raise NonConvergence("fixed-point iteration diverging", deltas)
    raise NonConvergence(
        f"no convergence after {PICARD_MAX_ITER} iterations (last delta {deltas[-1]:.3e})",
        deltas,
    )


def picard_solve(problem: InnerProblem) -> InnerSolution:
    """Single-sweep solve on the symmetric interval [-a+, a+].

    Requires the contraction budget 2 a+^5/3 < 1; larger-amplitude or wider
    problems go through :func:`solve_inner`, which subdivides.
    """
    cc = contraction_constant(problem.a_plus)
    if cc >= 1.0:
        raise ContractionViolated(
            f"2*a_plus^5/3 = {cc:.5g} >= 1; single-sweep iteration not contractive"
        )
    z = np.linspace(-problem.a_plus, problem.a_plus, problem.grid_points)
    jets, deltas = _picard_sweep(z, np.asarray(problem.boundary_plus, dtype=float))
    return InnerSolution(z=z, jets=jets, deltas=[deltas],
                         segments=[(float(z[0]), float(z[-1]))], problem=problem)


def _step_budget(z_hi: float, amp: float, remaining: float) -> float:
    """Leftward step length keeping the sweep inside half its Lipschitz budget.

    Solves X^4 (|z_hi - X| + 3 amp^2) / 24 = 0.5 for X (monotone), capped by
    the remaining distance.
    """
    def excess(x):
        return x**4 * (abs(z_hi - x) + 3.0 * amp**2) / 24.0 - 0.5

    lo, hi = 1e-3, 8.0
    if excess(hi) < 0:
        return min(hi, remaining)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            hi = mid
        else:
            lo = mid
    return min(lo, remaining)


def _anchored_sweep(z_hi: float, anchor: np.ndarray, step: float, target: float,
                    problem: InnerProblem) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Sweep anchored at z_hi over [max(target, z_hi - step), z_hi] at the
    problem's grid density, halving the step after each of up to 9 failures;
    returns the grid, its jets and the sweep's deltas."""
    density = problem.grid_points / (problem.a_minus + problem.a_plus)
    for attempt in range(10):
        z_lo = max(target, z_hi - step)
        z = np.linspace(z_lo, z_hi, max(101, int(round(density * (z_hi - z_lo))) + 1))
        try:
            return (z, *_picard_sweep(z, anchor))
        except NonConvergence:
            if attempt == 9:
                raise
            step *= 0.5


def _extend_left(z: np.ndarray, jets: np.ndarray, deltas: list[list[float]],
                 segments: list[tuple[float, float]], target: float,
                 problem: InnerProblem) -> tuple[np.ndarray, np.ndarray]:
    while z[0] > target + 1e-13:
        z_hi = float(z[0])
        amp = float(np.abs(jets[0, : max(4, jets.shape[1] // 8)]).max())
        zs, seg_jets, seg_deltas = _anchored_sweep(
            z_hi, jets[:, 0].copy(), _step_budget(z_hi, amp, z_hi - target), target, problem)
        z = np.concatenate([zs[:-1], z])
        jets = np.concatenate([seg_jets[:, :-1], jets], axis=1)
        deltas.append(seg_deltas)
        segments.append((float(zs[0]), float(zs[-1])))
    return z, jets


def solve_inner(problem: InnerProblem) -> InnerSolution:
    """Solve on the full interval [-a-, a+], subdividing as needed.

    The first sweep is anchored at a+ over the largest budget-admissible
    span; the rest of the interval is covered by leftward extension.  The
    subdivision keeps each sweep contractive even for jet amplitudes well
    outside the small-ball regime.
    """
    jet = np.asarray(problem.boundary_plus, dtype=float)
    a_p, a_m = problem.a_plus, problem.a_minus
    amp = float(np.abs(_taylor_rows(np.linspace(-min(2.0 * a_p, a_p + a_m), 0.0, 9),
                                    jet)[0]).max())
    first = min(_step_budget(a_p, amp, a_p + a_m), 2.0 * a_p)
    z, jets, deltas = _anchored_sweep(a_p, jet, first, -a_m, problem)
    deltas_all = [deltas]
    segments = [(float(z[0]), float(z[-1]))]
    z, jets = _extend_left(z, jets, deltas_all, segments, -a_m, problem)
    return InnerSolution(z=z, jets=jets, deltas=deltas_all, segments=segments,
                         problem=problem)


def inner_residual(sol: InnerSolution, return_array: bool = False):
    """Sup-norm defect of the layer equation for the computed solution.

    One more application of the anchored Volterra operator gives a function
    U with U'''' = -g(Abar) exactly; the reported residual is
    sup |g(U) - g(Abar)|, which bounds |U'''' + U (U^2 + z)| pointwise and
    vanishes (to quadrature accuracy) at the fixed point.
    """
    work = sol
    if len(sol.segments) > 1:
        work = sol.resampled(max(sol.problem.grid_points, sol.z.size))
    z = work.z
    a = work.jets[0]
    anchor = np.asarray(sol.problem.boundary_plus, dtype=float)
    u0 = _apply_volterra(z, a, anchor)[0]
    g_a = a * (a**2 + z)
    g_u = u0 * (u0**2 + z)
    res = np.abs(g_u - g_a)
    if return_array:
        resampled = np.interp(sol.z, z, res)
        return float(res.max()), resampled
    return float(res.max())

