"""The three workloads: inputs made from the seed, one operation each, and
the correctness gate applied to every operation's output.

Each workload is a closed loop with one client: an operation starts when
the previous one has returned.  ``setup`` returns the state a pass needs and
``pass_ops`` lists the operations of one pass over the workload's inputs.
An operation returns an :class:`Outcome`; a nonzero exit, an exception or a
failed gate check makes it a failed operation, and a failure never stops
the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PANEL_G = (1.2, 1.5, 2.0)
PANEL_EPS = (0.2, 0.1, 0.05, 0.02)
# The box corner takes the right-window back-off path; the ROADMAP anchor
# carries the shot-count sanity figures and the report.json drift on every
# seed.  Both stay pinned; the seed jitters the other panel cells.
CORNER = (1.12, 0.25)
ANCHOR = (1.5, 0.1)
WARMUP_CELL = (2.0, 0.05)
ANALYSIS_PROFILES = ((1.2, 0.1), (1.5, 0.05), (2.0, 0.02))
SWEEP_G = 1.5
SWEEP_EPS = (0.2, 0.1, 0.05, 0.025)

SPECTRUM_NODES = 5601      # the grid of acceptance criterion 6
PINV_NODES = 16001         # the grid of acceptance criterion 7
RATE_TOL = 0.10            # verify.verify_profile's tail-rate tolerance

# Failures the program shows where this benchmark was added, with their
# cause.  Each entry maps a check to the largest size of its miss (in the
# unit the gate compares) that still counts as this defect; None means the
# check has no size.  A failed operation whose failed checks are all covered,
# each within its ceiling, is counted as failed but does not make the run
# incorrect; a later fix shows as fewer failed operations, and a larger miss
# counts as unexpected.
KNOWN_DEFECTS = {
    "solve-panel": [
        (lambda g, eps: (g, eps) == CORNER, {"exit_1_insufficient_tail": None},
         "fit_decay_rates raises InsufficientTail (2 envelope maxima in the "
         "right window after back-off), so `solve` exits 1"),
        (lambda g, eps: eps < 0.03 or 0.08 < eps < 0.15,
         {"rate_right_a_envelope": 0.3},
         "the right tail past x_r is the exact A = 0 leaf, so the A envelope "
         "fit sees 3-4 peaks; over seeds 0-39 it missed its target in every "
         "eps ~ 0.02 cell at g ~ 1.5 and 2 (18-22%), in 18 of 40 at g ~ 1.2 "
         "(up to 15%), and once at g ~ 1.2, eps ~ 0.1 (18%); at eps ~ 0.05 "
         "and 0.2 it stayed within 6%"),
        (lambda g, eps: g < 1.25 and eps > 0.15, {"junction_mismatch": 5e-5},
         "the junction line search can stall between refine_tol (2e-7) and "
         "the 1e-4 limit and the solve still succeeds; over seeds 0-139 this "
         "happened 3 times, all near g=1.19, eps=0.20 (2.7e-7 to 3.2e-5)"),
    ],
    "analysis": [
        (lambda g, eps: True, {"orthogonality_defect": 5e-6},
         "on the fixed 5601-node grid the defect is 1.7e-6 to 2.3e-6 "
         "(h = 0.04 to 0.12); it falls below 1e-6 only near h = 0.03"),
        (lambda g, eps: (g, eps) == (2.0, 0.02), {"rate_right_a_envelope": 0.3},
         "as in solve-panel; of the three profiles only eps = 0.02 misses"),
        (lambda g, eps: True, {"pseudo_inverse_round_trip": 1e-5},
         "on 16001 nodes (h = 0.015 to 0.043, criterion 7 has 0.0125) the "
         "error depends on the test bump: over seeds 0-299 it exceeds 1e-6 "
         "for 1%, 6% and 34% of bumps on the three profiles, up to 4.6e-6"),
    ],
}


@dataclass
class Outcome:
    op: str
    seconds: float
    # failed check -> size of the miss (nan for a check that has no size)
    failed_checks: dict[str, float] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)
    report: dict | None = None
    known: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.failed_checks)


def classify(workload: str, g: float, eps: float, out: Outcome) -> Outcome:
    """Mark a failed outcome as known when every failed check is recorded
    in KNOWN_DEFECTS for this workload and input, within its ceiling."""
    if out.failed:
        ceilings = {}
        for applies, checks, _cause in KNOWN_DEFECTS.get(workload, ()):
            if applies(g, eps):
                for check, ceiling in checks.items():
                    ceilings[check] = math.inf if ceiling is None else ceiling
        out.known = all(check in ceilings
                        and (ceilings[check] == math.inf or size < ceilings[check])
                        for check, size in out.failed_checks.items())
    return out


def _rng_unit(rng) -> float:
    return float(rng.uniform(-1.0, 1.0))


def _jitter(value: float, rel: float, rng) -> float:
    return float(f"{value * (1.0 + rel * _rng_unit(rng)):.6g}")


def panel_cells(seed: int) -> list[tuple[float, float]]:
    """The solve-panel inputs: g lowered by up to 1% (the admissible box
    ends at g = 2), eps moved by up to 2%."""
    rng = np.random.default_rng(seed)
    cells = [CORNER]
    for g in PANEL_G:
        for eps in PANEL_EPS:
            gj = float(f"{g * (1.0 - 0.01 * abs(_rng_unit(rng))):.6g}")
            ej = _jitter(eps, 0.02, rng)
            cells.append((g, eps) if (g, eps) == ANCHOR else (gj, ej))
    return cells


def sweep_inputs(seed: int) -> tuple[float, list[float]]:
    """g jittered by up to 3%; the eps list scaled by a factor in [0.9, 1.1]
    (its 3-octave span is kept)."""
    rng = np.random.default_rng(seed)
    g = _jitter(SWEEP_G, 0.03, rng)
    scale = 1.0 + 0.1 * _rng_unit(rng)
    return g, [float(f"{e * scale:.6g}") for e in SWEEP_EPS]


def bump_inputs(seed: int) -> list[tuple[float, float]]:
    """Centre and half-width of the pseudo-inverse test bump per profile."""
    rng = np.random.default_rng(seed)
    return [(2.0 + 2.0 * _rng_unit(rng), 20.0 + 2.0 * _rng_unit(rng))
            for _ in ANALYSIS_PROFILES]


# ---- running the CLI in-process ---------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str, float]:
    from orthowall import cli

    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue(), time.perf_counter() - t0


def _gate_report(report: dict) -> dict[str, float]:
    failed = {}
    if not report["sup_w"] < 1e-8:
        failed["sup_w"] = report["sup_w"]
    b0_err = abs(report["b0_at_zero"] - 1.0 / math.sqrt(report["g"]))
    if not b0_err <= 1e-12:
        failed["b0_at_zero"] = b0_err
    if not report["b0_monotone"]:
        failed["b0_monotone"] = math.nan
    if not report["min_b1"] > 0.0:
        failed["min_b1"] = report["min_b1"]
    if not report["junction_mismatch"] <= 2e-7:
        failed["junction_mismatch"] = report["junction_mismatch"]
    for name, fit in report["tail_rates"].items():
        if not fit["rel_err"] <= RATE_TOL:
            failed[f"rate_{name}"] = fit["rel_err"]
    return failed


def solve_cell(g: float, eps: float, workdir: Path) -> Outcome:
    out_dir = workdir / f"solve-g{g!r}-eps{eps!r}"
    try:
        rc, err, dt = _cli(["solve", "--out", str(out_dir), "--g", repr(g),
                            "--epsilon", repr(eps), "--quiet"])
        out = Outcome(f"solve g={g!r} eps={eps!r}", dt)
        if rc != 0:
            tail = "insufficient_tail" if "usable envelope maxima" in err else "other"
            out.failed_checks = {f"exit_{rc}_{tail}": math.nan}
            return out
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        out.report = report
        out.failed_checks = _gate_report(report)
        return out
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def sweep_op(g: float, eps_list: list[float], workdir: Path) -> Outcome:
    out_dir = workdir / "sweep"
    try:
        rc, _err, dt = _cli(["sweep", "--out", str(out_dir), "--g", repr(g),
                             "--epsilons", ",".join(repr(e) for e in eps_list),
                             "--workers", "2", "--quiet"])
        out = Outcome(f"sweep g={g!r} eps={eps_list}", dt)
        if rc != 0:
            out.failed_checks = {f"exit_{rc}": math.nan}
            return out
        sc = json.loads((out_dir / "scaling.json").read_text(encoding="utf-8"))
        if sc["excluded"]:
            out.failed_checks["member_failed"] = float(len(sc["excluded"]))
        slope_a0 = sc.get("slope_a0", math.nan)
        if not abs(slope_a0 - 0.40) <= 0.08:
            out.failed_checks["slope_a0"] = slope_a0
        slope_width = sc.get("slope_width", math.nan)
        if not abs(slope_width + 0.20) <= 0.05:
            out.failed_checks["slope_width"] = slope_width
        return out
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _bump(x, centre, half_width):
    t = (x - centre) / half_width
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
    return out


def analysis_op(prof, bump) -> Outcome:
    """verify_profile, then the kernel diagnostics and the pseudo-inverse
    round trip of acceptance criteria 6 and 7, on one solved profile."""
    from orthowall import linop, verify

    p = prof.p
    t0 = time.perf_counter()
    rep = verify.verify_profile(prof)
    t1 = time.perf_counter()
    x = np.linspace(prof.x[0], prof.x[-1], SPECTRUM_NODES)
    st = prof.sample(x)
    diag = linop.kernel_diagnostics(linop.assemble_Mg(x, st, p), st, p)
    xp = np.linspace(prof.x[0], prof.x[-1], PINV_NODES)
    sp = prof.sample(xp)
    h = 1e-4
    u0 = _bump(xp, *bump)
    u0pp = (_bump(xp + h, *bump) - 2.0 * u0 + _bump(xp - h, *bump)) / h**2
    f = u0pp / p.epsilon**2 + (1.0 - p.g * sp[:, 0] ** 2 - sp[:, 4] ** 2) * u0
    u, _info = linop.lg_pseudo_inverse(f, xp, sp, p)
    t2 = time.perf_counter()

    b = sp[:, 4]
    c = (u - u0) @ b / (b @ b)
    round_trip = float(np.abs(u - u0 - c * b).max())
    out = Outcome(f"analysis g={p.g!r} eps={p.epsilon!r}", t2 - t0,
                  phases={"verify_s": t1 - t0, "spectrum_s": t2 - t1})
    # a tail rate's miss is its relative error, as in solve-panel
    out.failed_checks = {
        e.name: abs(e.measured - e.target) / abs(e.target)
        if e.name.startswith("rate_") else e.measured
        for e in rep.entries if not e.passed}
    if not diag.separation >= 1e4:
        out.failed_checks["separation"] = diag.separation
    if not diag.orthogonality_defect < 1e-6:
        out.failed_checks["orthogonality_defect"] = diag.orthogonality_defect
    if not round_trip < 1e-6:
        out.failed_checks["pseudo_inverse_round_trip"] = round_trip
    return out


# ---- workloads --------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Warm-up that a user's first operation would pay (untimed)."""
        g, eps = WARMUP_CELL
        solve_cell(g, eps, self.workdir)

    def pass_ops(self):
        """Yield (g, eps, thunk) for each operation of one pass."""
        raise NotImplementedError

    def run_pass(self, before_op=None) -> list[Outcome]:
        outcomes = []
        for i, (g, eps, thunk) in enumerate(self.pass_ops()):
            if before_op is not None:
                before_op(i)
            t0 = time.perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # noqa: BLE001 - a failed op never stops the run
                traceback.print_exc(file=sys.stderr)
                out = Outcome(f"{self.name} g={g!r} eps={eps!r}",
                              time.perf_counter() - t0,
                              {f"exception_{type(exc).__name__}": math.nan})
            outcomes.append(classify(self.name, g, eps, out))
        return outcomes


class SolvePanel(Workload):
    name = "solve-panel"

    def pass_ops(self):
        for g, eps in panel_cells(self.seed):
            yield g, eps, lambda g=g, eps=eps: solve_cell(g, eps, self.workdir)


class Analysis(Workload):
    name = "analysis"

    def setup(self) -> None:
        from orthowall import connect, derive_params

        self.profiles = [connect.heteroclinic_solve(derive_params(eps, g))
                         for g, eps in ANALYSIS_PROFILES]

    def pass_ops(self):
        for prof, bump in zip(self.profiles, bump_inputs(self.seed)):
            yield prof.p.g, prof.p.epsilon, lambda prof=prof, bump=bump: analysis_op(prof, bump)


class EpsSweep(Workload):
    name = "eps-sweep"

    def pass_ops(self):
        g, eps_list = sweep_inputs(self.seed)
        yield g, min(eps_list), lambda: sweep_op(g, eps_list, self.workdir)


WORKLOADS = {w.name: w for w in (SolvePanel, Analysis, EpsSweep)}
