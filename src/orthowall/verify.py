"""Post-hoc verification of quantitative claims on computed profiles.

Tail decay rates are identified by least squares on log magnitudes (plain
decay) or on the local maxima of an oscillation (envelope).  The linear
rates at the end states force exact values, so the "at least" decay claims
are tested two-sided; the pointwise envelope bounds stay one-sided with a
fitted constant reported against a generous sanity ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import connect, forked
from .integrate import write_json
from .params import derive_params, working_scaling

RATE_TOL = 0.10             # relative tolerance of the tail-rate checks
ENVELOPE_CEILING = 50.0     # sanity ceiling of the fitted envelope constants
DELTA_STAR_FRACTION = 0.9   # d* = 0.9 delta in the left envelope e^(eps d* x)
PEAK_FLOOR = 1e-5           # envelope maxima below this share of the largest are dropped


class InsufficientTail(ValueError):
    pass


@dataclass(frozen=True)
class DecayFit:
    name: str
    x_lo: float
    x_hi: float
    rate: float
    intercept: float
    residual: float
    envelope: bool
    n_points: int
    target: float = math.nan

    @property
    def rel_err(self) -> float:
        return abs(self.rate - self.target) / abs(self.target) if self.target else math.nan


def fit_exponential_rate(x, y, envelope: bool = False, name: str = "",
                         target: float = math.nan) -> DecayFit:
    """Least-squares exponential rate of |y| over x.

    With ``envelope`` the fit runs on strict local maxima of |y| that reach
    PEAK_FLOOR times the largest (at least three required).  The returned
    rate is the decay rate toward the window side where |y| vanishes (always
    reported positive for decaying data, zero for constant data).
    """
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    if envelope:
        idx = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1
        if idx.size:
            idx = idx[y[idx] >= PEAK_FLOOR * y[idx].max()]
        if idx.size < 3:
            raise InsufficientTail(
                f"{name}: only {idx.size} usable envelope maxima in window")
        x, y = x[idx], y[idx]
    else:
        keep = y > 0
        if keep.sum() < 4:
            raise InsufficientTail(f"{name}: fewer than 4 nonzero samples")
        x, y = x[keep], y[keep]
    span = abs(math.log(y.max() / y.min())) if y.min() > 0 else math.inf
    logy = np.log(y)
    slope, intercept = np.polyfit(x, logy, 1)
    res = float(np.sqrt(np.mean((logy - (slope * x + intercept)) ** 2)))
    if span < 1e-12:
        slope = 0.0
    return DecayFit(name=name, x_lo=float(x[0]), x_hi=float(x[-1]),
                    rate=float(abs(slope)), intercept=float(intercept),
                    residual=res, envelope=envelope, n_points=int(x.size),
                    target=target)


def _window(profile, side: str) -> tuple[float, float]:
    x0, x1 = float(profile.x[0]), float(profile.x[-1])
    guard = 2.0 * profile.x_star_plus
    if side == "left":
        lo, hi = 0.9 * x0, -guard
    else:
        lo, hi = guard, 0.9 * x1
    if hi <= lo:
        raise InsufficientTail(f"{side} window empty: [{lo:.3g}, {hi:.3g}]")
    return lo, hi


def _tail_fits(profile):
    """Yield ``(name, target, fit)`` per tail rate, in the order of
    :func:`fit_decay_rates`; ``fit`` is the :class:`DecayFit`, or the
    :class:`InsufficientTail` that stopped it."""
    p = profile.p
    sides = (
        ("left", 1200, (
            ("left_b", p.epsilon * p.delta, lambda st: st[:, 4], False),
            ("left_a", 2.0 * p.epsilon * p.delta, lambda st: 1.0 - st[:, 0], False))),
        ("right", 2400, (
            ("right_b", math.sqrt(2.0) * p.epsilon, lambda st: 1.0 - st[:, 4], False),
            ("right_a_envelope", math.sqrt(p.delta / 2.0), lambda st: st[:, 0], True))),
    )
    for side, n, specs in sides:
        try:
            xs = np.linspace(*_window(profile, side), n)
        except InsufficientTail as exc:
            for name, target, _, _ in specs:
                yield name, target, exc
            continue
        st = profile.sample(xs)
        for name, target, column, envelope in specs:
            try:
                fit = fit_exponential_rate(xs, column(st), envelope=envelope,
                                           name=name, target=target)
            except InsufficientTail as exc:
                fit = exc
            yield name, target, fit


def fit_decay_rates(profile) -> dict[str, DecayFit]:
    """Tail rates of a computed profile against their linear predictions.

    Windows exclude the outermost 10% of each tail and the corner region
    |x| <= 2 x*+.  Targets: B approaches its end values at eps*delta (left)
    and sqrt(2) eps (right); the right A-oscillation envelope decays at
    sqrt(delta/2); the left approach of A to 1 is slaved to B^2 and runs at
    2 eps*delta.  Raises :class:`InsufficientTail` when a rate cannot be fitted.
    """
    fits: dict[str, DecayFit] = {}
    for name, _, fit in _tail_fits(profile):
        if isinstance(fit, InsufficientTail):
            raise fit
        fits[name] = fit
    return fits


@dataclass(frozen=True)
class CheckEntry:
    name: str
    claim: str
    passed: bool
    measured: float
    target: float
    tol: float

    def to_dict(self) -> dict:
        # JSON has no NaN: a measurement that could not be made is null
        measured = self.measured if math.isfinite(self.measured) else None
        return {
            "name": self.name, "claim": self.claim, "passed": self.passed,
            "measured": measured, "target": self.target, "tol": self.tol,
        }


@dataclass
class VerificationReport:
    entries: list[CheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, name, claim, measured, target, tol, one_sided=False):
        if one_sided:
            ok = measured <= target + tol
        else:
            ok = abs(measured - target) <= tol
        self.entries.append(CheckEntry(name, claim, bool(ok),
                                       float(measured), float(target), float(tol)))

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [e.to_dict() for e in self.entries]}


def envelope_bounds(profile) -> VerificationReport:
    """Pointwise envelope constants for the connection estimates.

    Left of the midpoint the gap to the slow branch obeys
    |A - sqrt(1 - (1+d^2) B^2)| <= c eps^(2/5) B exp(eps d* x) and the
    derivative jets obey the same shape with eps^(3/5); right of it every
    jet obeys |A_m| <= c eps^(2/5) exp(-d* eps^(1/5) x) with
    d* = delta^(2/5)/10.  Fitted constants are reported and compared to a
    sanity ceiling only (never raised as errors).
    """
    p = profile.p
    rep = VerificationReport()
    xs = np.linspace(profile.x[0], 0.0, 1600)
    st = profile.sample(xs)
    dstar = DELTA_STAR_FRACTION * p.delta
    env = st[:, 4] * np.exp(p.epsilon * dstar * xs)
    mask = env > 1e-12
    gap = np.abs(st[:, 0] - np.sqrt(np.clip(1.0 - p.g1 * st[:, 4] ** 2, 0.0, None)))
    c0 = float((gap[mask] / (p.epsilon**0.4 * env[mask])).max())
    rep.add("left_gap_envelope",
            "|A - sqrt(1-(1+d^2)B^2)| <= c eps^(2/5) B e^(eps d* x), c <= ceiling",
            c0, ENVELOPE_CEILING, 0.0, one_sided=True)
    for m in (1, 2, 3):
        cm = float((np.abs(st[mask, m]) / (p.epsilon**0.6 * env[mask])).max())
        rep.add(f"left_jet{m}_envelope",
                f"|A^({m})| <= c eps^(3/5) B e^(eps d* x), c <= ceiling",
                cm, ENVELOPE_CEILING, 0.0, one_sided=True)

    xs = np.linspace(0.0, profile.x[-1], 1600)
    st = profile.sample(xs)
    dstar_r = p.delta**0.4 / 10.0
    env = np.exp(-dstar_r * p.epsilon**0.2 * xs)
    for m in range(4):
        cm = float((np.abs(st[:, m]) / (p.epsilon**0.4 * env)).max())
        rep.add(f"right_jet{m}_envelope",
                f"|A^({m})| <= c eps^(2/5) e^(-d* eps^(1/5) x), c <= ceiling",
                cm, ENVELOPE_CEILING, 0.0, one_sided=True)
    return rep


def verify_profile(profile) -> VerificationReport:
    """Full deterministic check battery for one profile.

    A tail rate that cannot be fitted (:class:`InsufficientTail`) is recorded
    as a failed ``rate_*`` entry with a NaN measurement (null in JSON).  ``profile`` needs
    ``p``, ``x_star_plus``, the grid ``x``, ``states`` and ``w``, and
    ``sample(x)`` returning states of shape (n, 6).
    """
    rep = VerificationReport()
    st = profile.states
    rep.add("first_integral", "sup |W| < 1e-8 over the profile",
            float(np.abs(profile.w).max()), 1e-8, 0.0, one_sided=True)
    rep.add("b_prime_positive", "B' > 0 at every sample",
            -float(st[:, 5].min()), 0.0, 0.0, one_sided=True)
    mono = float(np.min(np.diff(st[:, 4])))
    rep.add("b_monotone", "B strictly increasing over the grid",
            -mono, 0.0, 0.0, one_sided=True)
    interior = st[1:-1, 4]
    rep.add("b_interior", "B strictly inside (0, 1) in the interior",
            float(max(interior.max() - 1.0, -interior.min())), 0.0, 0.0,
            one_sided=True)
    for name, target, fit in _tail_fits(profile):
        claim = f"{name} rate within {RATE_TOL:.0%} of {target:.6g}"
        if isinstance(fit, InsufficientTail):
            rep.add(f"rate_{name}", f"{claim} (not fitted: {fit})", math.nan, target,
                    RATE_TOL * abs(target))
        else:
            rep.add(f"rate_{name}", claim, fit.rate, target, RATE_TOL * abs(target))
    rep.entries.extend(envelope_bounds(profile).entries)
    return rep


def fit_slopes(rows) -> tuple[float, float]:
    """Log-log slopes of |A(0)| and of the corner half-width against eps.

    ``rows`` are scaling rows of :func:`solve_member`, at least two of them.
    """
    le = np.log([r["epsilon"] for r in rows])
    slope_a0 = float(np.polyfit(le, np.log([abs(r["a0_at_zero"]) for r in rows]), 1)[0])
    slope_w = float(np.polyfit(le, np.log([r["corner_half_width"] for r in rows]), 1)[0])
    return slope_a0, slope_w


def solve_member(g: float, eps: float, solve_cfg: connect.SolveConfig | None = None,
                 out_dir=None, matching: connect.Matching | None = None) -> dict:
    """Solve one sweep member; never raises.

    Returns the scaling row ``{epsilon, a0_at_zero, corner_half_width,
    b0_at_zero}``, or ``{epsilon, error}`` with the error text when the solve
    or the writing of its files fails.  With ``out_dir`` the member also
    writes ``eps_{eps:g}/profile.csv`` and ``report.json`` there.
    ``matching`` goes to :func:`connect.heteroclinic_solve`: the sweep's
    shared stage 1, or None to solve it here.  Only this dict crosses a
    forked member's pipe: errors are caught and files written in the child,
    as an exception may not unpickle (``AdmissibilityError`` takes two
    arguments) and a pickled profile carries its stacked dense core and
    tail interpolants (0.80 MB at g=1.5, eps=0.1).
    """
    try:
        prof = connect.heteroclinic_solve(derive_params(eps, g), solve_cfg, matching)
        if out_dir is not None:
            sub = Path(out_dir) / f"eps_{eps:g}"
            sub.mkdir(exist_ok=True)
            prof.to_csv(str(sub / "profile.csv"))
            write_json(sub / "report.json", prof.report())
        return {
            "epsilon": eps,
            "a0_at_zero": prof.a0_at_zero,
            "corner_half_width": abs(prof.x_star_left),
            "b0_at_zero": prof.b0_at_zero,
        }
    except Exception as exc:  # noqa: BLE001 - recorded per member
        return {"epsilon": eps, "error": str(exc)}


def _shared_matching(g: float, members,
                     solve_cfg: connect.SolveConfig | None) -> connect.Matching | None:
    """Stage 1 of the sweep, solved at the scaling of the first member whose
    working scaling builds: it reads only (a-, a+), which every member
    shares.  None when no member's scaling builds or stage 1 raises; each
    member then solves stage 1 itself and records its own error."""
    cfg = solve_cfg or connect.SolveConfig()
    for eps in members:
        try:
            scaling = working_scaling(derive_params(eps, g), cfg.nu_minus, cfg.nu_plus)
        except ValueError:
            continue
        try:
            return connect.solve_matching(scaling)
        except Exception:  # noqa: BLE001 - raised again, and recorded, per member
            return None
    return None


def solve_members(g: float, eps_list, solve_cfg: connect.SolveConfig | None = None,
                  workers: int = 1, out_dir=None) -> tuple[list[dict], list[dict]]:
    """Run :func:`solve_member` for each eps; returns ``(rows, excluded)``.

    Both lists follow the sorted eps order.  Stage 1 of the solve, the
    matching, is eps-free (:func:`connect.solve_matching`), so it is solved
    once here, before any fork, and handed to every member as an argument;
    a member's files and row are byte for byte those of its own cold solve.
    With ``workers > 1`` each member runs in a :class:`forked.Forked` child,
    at most ``workers`` at once, and sends its record back, byte for byte a
    serial run's.  A child that dies is its member's error alone, naming
    its wait status; where no child can be made, as in a process that runs
    another thread, the member is solved here; an interrupt kills every
    child.  ``workers`` below 1 is a ``ValueError``.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    members = sorted(eps_list)
    matching = _shared_matching(g, members, solve_cfg)
    if workers == 1:
        records = [solve_member(g, eps, solve_cfg, out_dir, matching) for eps in members]
    else:
        records, children = [], []
        try:
            while len(records) < len(members):
                if len(children) < min(len(records) + workers, len(members)):
                    children.append(forked.Forked(solve_member, g, members[len(children)],
                                                  solve_cfg, out_dir, matching))
                    continue
                try:  # the oldest member still running
                    records.append(children[len(records)].result())
                except Exception as exc:  # noqa: BLE001 - its child died: its error alone
                    records.append({"epsilon": members[len(records)], "error": str(exc)})
        finally:
            for child in children:
                child.kill()
    rows = [r for r in records if "error" not in r]
    excluded = [r for r in records if "error" in r]
    return rows, excluded


def check_sweep_members(g: float, eps_list) -> None:
    """Raise ValueError unless ``eps_list`` holds at least 4 eps values, no
    two of which share a member directory ``eps_{eps:g}``, and the
    ``AdmissibilityError`` of the first inadmissible (eps, g)."""
    if len(eps_list) < 4:
        raise ValueError(f"sweep needs at least 4 epsilon values, got {len(eps_list)}")
    names = [f"eps_{eps:g}" for eps in eps_list]
    if len(set(names)) < len(names):
        repeated = next(n for n in names if names.count(n) > 1)
        raise ValueError(f"two epsilon values share the sweep member {repeated}")
    for eps in eps_list:
        derive_params(eps, g)


def scaling_sweep(g: float, eps_list, solve_cfg: connect.SolveConfig | None = None,
                  workers: int = 1, out_dir=None) -> dict:
    """Exponents of A(0) and of the corner half-width across an eps sweep:
    the ``scaling.json`` payload of ``orthowall sweep``.

    The corner half-width is the refined left-junction distance |x*| of the
    phase-fixed profile (the right-junction crossing is polluted at desk
    scale by the slower-decaying flow corrections on that side).  The
    members pass :func:`check_sweep_members` before any is solved.  They are
    solved by :func:`solve_members` (``workers`` and ``out_dir`` go there),
    which solves the eps-free matching once for all of them; ``rows`` and
    ``excluded`` hold its records, byte for byte those of cold solves, and
    ``slope_a0`` and ``slope_width`` (:func:`fit_slopes`) are present when
    at least 2 members converged.
    """
    check_sweep_members(g, eps_list)
    rows, excluded = solve_members(g, eps_list, solve_cfg, workers, out_dir)
    scaling = {"rows": rows, "excluded": excluded}
    if len(rows) >= 2:
        scaling["slope_a0"], scaling["slope_width"] = fit_slopes(rows)
    return scaling
