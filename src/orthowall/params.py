"""Scalar parameters, derived scalings, and admissibility validation.

The model has two physical parameters: the small parameter ``epsilon`` and
the coupling ``g`` (with ``delta = sqrt(g - 1)``).  All other quantities of
the two-sided construction (the scale factors ``alpha``, the rescaled
half-widths ``a``, the junction abscissae ``x_star``) derive from a pair of
auxiliary numbers ``nu_minus, nu_plus`` through exact power laws.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

G_MIN = 10.0 / 9.0
G_MAX = 2.0
EPS_CEILING = 0.25

#: upper bound on nu_minus * (1 + delta^2) / sqrt(delta)
NU_MINUS_COEFF = 1.0 / 84.33
#: upper bound on nu_plus / sqrt(delta)
NU_PLUS_UPPER = math.sqrt(2.0) / 3.0


class AdmissibilityError(ValueError):
    """A parameter violates one named admissibility inequality."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(f"{name}: {message}")


@dataclass(frozen=True)
class Params:
    """Model parameters; immutable after construction."""

    epsilon: float
    g: float
    delta: float

    @property
    def g1(self) -> float:
        """Shorthand for 1 + delta^2 (equals g)."""
        return 1.0 + self.delta**2

    @property
    def inv_sqrt_g(self) -> float:
        """Target mid-profile amplitude 1/sqrt(g)."""
        return 1.0 / math.sqrt(self.g)


def derive_params(epsilon: float, g: float) -> Params:
    """Validate (epsilon, g) and derive delta = sqrt(g - 1).

    ``g`` must lie in (10/9, 2], equivalently delta in (1/3, 1], and
    epsilon in (0, EPS_CEILING]; NaN lies in neither.
    """
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise AdmissibilityError("epsilon_positive", f"epsilon must be > 0, got {epsilon}")
    if not G_MIN < g <= G_MAX:
        raise AdmissibilityError("g_range", f"g must lie in (10/9, 2], got {g}")
    if epsilon > EPS_CEILING:
        raise AdmissibilityError(
            "epsilon_ceiling", f"epsilon must be <= {EPS_CEILING}, got {epsilon}"
        )
    return Params(epsilon=float(epsilon), g=float(g), delta=math.sqrt(g - 1.0))


def nu_plus_window(delta: float) -> tuple[float, float]:
    """Admissible window (lower, upper) for nu_plus.

    The lower bound is where the contraction constant 2*a_plus^5/3 of the
    layer solver reaches 1; the upper bound comes from the stable-manifold
    fixed-point argument.
    """
    lo = math.sqrt(delta) * math.sqrt(1.0 + delta**2) / (2.0 * 6.0**0.25)
    hi = math.sqrt(delta) * NU_PLUS_UPPER
    return lo, hi


def default_nu_plus(delta: float) -> float:
    """90% of the way toward the upper end of the admissible nu_plus window."""
    lo, hi = nu_plus_window(delta)
    return 0.1 * lo + 0.9 * hi


def default_nu_minus(delta: float) -> float:
    """90% of the extremal admissible nu_minus."""
    return 0.9 * math.sqrt(delta) * NU_MINUS_COEFF / (1.0 + delta**2)


@dataclass(frozen=True)
class ScalingConfig:
    """Derived scalings for both sides of the connection.

    Invariants (exact by construction): epsilon = nu * alpha^(5/2) on each
    side, a = ((1+delta^2)*delta / (8 nu^2))^(2/5), and
    a_minus/a_plus = (nu_plus/nu_minus)^(4/5).
    ``violations`` lists the names of any admissibility inequalities that
    the chosen nu values break (empty when fully admissible).
    """

    nu_minus: float
    nu_plus: float
    alpha_minus: float
    alpha_plus: float
    a_minus: float
    a_plus: float
    x_star: float
    x_star_plus: float
    violations: tuple[str, ...] = ()
    epsilon: float = 0.0
    delta: float = 0.0

    @property
    def supported(self) -> bool:
        return not self.violations

    @property
    def b00(self) -> float:
        """Left section amplitude: B at the slow-side junction."""
        return math.sqrt((1.0 - self.alpha_minus**2 * self.delta**2) / (1.0 + self.delta**2))

    @property
    def b01(self) -> float:
        """Right section amplitude: B at the fast-side junction."""
        return math.sqrt((1.0 + self.alpha_plus**2 * self.delta**2) / (1.0 + self.delta**2))

    @property
    def rho(self) -> float:
        return (self.a_minus / self.a_plus) ** 0.25


def _half_width(delta: float, nu: float) -> float:
    return ((1.0 + delta**2) * delta / (8.0 * nu**2)) ** 0.4


def _x_star(delta: float, nu: float, epsilon: float) -> float:
    return math.sqrt(1.0 + delta**2) / (2.0 * math.sqrt(2.0) * nu**0.8) * epsilon ** (-0.2)


def _admissibility_violations(p: Params, nu_minus: float, nu_plus: float) -> list[tuple[str, str]]:
    d = p.delta
    out: list[tuple[str, str]] = []
    bound_minus = math.sqrt(d) * NU_MINUS_COEFF / (1.0 + d**2)
    if nu_minus > bound_minus:
        out.append((
            "nu_minus_upper",
            f"requires nu_minus/sqrt(delta) <= (1+delta^2)^-1/84.33, "
            f"i.e. nu_minus <= {bound_minus:.6g}, got {nu_minus:.6g}",
        ))
    lo, hi = nu_plus_window(d)
    if nu_plus > hi:
        out.append((
            "nu_plus_upper",
            f"requires nu_plus/sqrt(delta) <= sqrt(2)/3, i.e. nu_plus <= {hi:.6g}, "
            f"got {nu_plus:.6g}",
        ))
    if nu_plus <= lo:
        out.append((
            "nu_plus_lower",
            f"requires nu_plus/sqrt(delta) > sqrt(1+delta^2)/(2*6^(1/4)), "
            f"i.e. nu_plus > {lo:.6g}, got {nu_plus:.6g}",
        ))
    a_plus = _half_width(d, nu_plus)
    if 2.0 * a_plus**5 / 3.0 >= 1.0:
        out.append((
            "inner_contraction",
            f"requires 2*a_plus^5/3 < 1, got {2.0 * a_plus**5 / 3.0:.6g} (a_plus={a_plus:.6g})",
        ))
    return out


def scaling_from_epsilon(
    p: Params,
    nu_minus: float | None = None,
    nu_plus: float | None = None,
    strict: bool = True,
) -> ScalingConfig:
    """Build the two-sided scaling from (epsilon, nu_minus, nu_plus).

    With ``strict`` (default) any violated admissibility inequality raises
    an :class:`AdmissibilityError` naming exactly the first violated bound.
    With ``strict=False`` violations are recorded on the result instead.
    """
    if nu_minus is None:
        nu_minus = default_nu_minus(p.delta)
    if nu_plus is None:
        nu_plus = default_nu_plus(p.delta)
    if not (0.0 < nu_minus < math.inf and 0.0 < nu_plus < math.inf):
        raise AdmissibilityError("nu_positive", "nu_minus and nu_plus must be finite and > 0, "
                                 f"got {nu_minus} and {nu_plus}")

    violations = _admissibility_violations(p, nu_minus, nu_plus)
    if strict and violations:
        raise AdmissibilityError(*violations[0])

    eps, d = p.epsilon, p.delta
    return ScalingConfig(
        nu_minus=float(nu_minus),
        nu_plus=float(nu_plus),
        alpha_minus=(eps / nu_minus) ** 0.4,
        alpha_plus=(eps / nu_plus) ** 0.4,
        a_minus=_half_width(d, nu_minus),
        a_plus=_half_width(d, nu_plus),
        x_star=_x_star(d, nu_minus, eps),
        x_star_plus=_x_star(d, nu_plus, eps),
        violations=tuple(name for name, _ in violations),
        epsilon=eps,
        delta=d,
    )


def working_scaling(p: Params, nu_minus: float | None = None,
                    nu_plus: float | None = None) -> ScalingConfig:
    """Scaling used by the global solver at desk-scale epsilon.

    The fully admissible nu_minus is so small that at practical epsilon the
    left section amplitude would exceed its range (alpha_minus*delta >= 1)
    and the rescaled left half-width a_minus becomes numerically untreatable.
    The solver therefore defaults to nu_minus = nu_plus, records the broken
    bound in ``violations``, and flags the run as an unsupported regime.
    """
    if nu_plus is None:
        nu_plus = default_nu_plus(p.delta)
    if nu_minus is None:
        nu_minus = nu_plus
    sc = scaling_from_epsilon(p, nu_minus, nu_plus, strict=False)
    if sc.alpha_minus * sc.delta >= 0.95:
        raise AdmissibilityError(
            "slow_range",
            f"alpha_minus*delta = {sc.alpha_minus * sc.delta:.4g} >= 0.95; "
            f"epsilon too large for nu_minus = {sc.nu_minus:.4g}",
        )
    if sc.alpha_plus * sc.delta >= 0.95:
        raise AdmissibilityError(
            "fast_range",
            f"alpha_plus*delta = {sc.alpha_plus * sc.delta:.4g} >= 0.95; "
            f"epsilon too large for nu_plus = {sc.nu_plus:.4g}",
        )
    return sc


#: (boundary condition label, minimal g, minimal Prandtl number); the minimal
#: delta is derived from g by :func:`physical_regimes`
_REGIME_ROWS = (
    ("rigid-rigid", 1.227, 0.5308),
    ("rigid-free", 1.332, 0.6222),
    ("free-free", 1.423, 0.8078),
)


def physical_regimes() -> tuple[tuple[str, float, float, float], ...]:
    """Convection regimes: (label, g_min, delta_min, Prandtl threshold).

    delta_min is recomputed as sqrt(g_min - 1); the Prandtl thresholds are
    stored constants.
    """
    return tuple(
        (label, g_min, math.sqrt(g_min - 1.0), prandtl)
        for label, g_min, prandtl in _REGIME_ROWS
    )


def load_config(path: str) -> dict:
    """Read a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"configuration root must be an object, got {type(cfg).__name__}")
    return cfg
