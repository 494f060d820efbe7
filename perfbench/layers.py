"""What the traced run wraps in orthowall, and how its records reduce to the
per-layer metrics named in BENCHMARK.json.

Every public module-level function of the modules below is wrapped, plus
``HeteroclinicProfile.sample`` and the ``solve_ivp`` that orthowall modules
import from scipy.  ``solve_ivp`` calls are split by the state they carry:
a 6-D state integrated forward is a left core shot, backward a right core
shot, and a 1-D state is the scalar tail ODE.
"""

from __future__ import annotations

import importlib
import inspect
import os

import numpy as np

from tracing import Tracer, self_times

MODULES = ("params", "dynamics", "frames", "integrate", "outer", "inner",
           "connect", "linop", "verify", "cli")

# Functions called hundreds to tens of thousands of times per solve
# (measured at g=1.5, eps=0.1: vector_field 64k, lambda_pair 4.8k,
# b0_left_profile 4.1k, first_integral 4.0k, right_leaf_state 1.9k,
# slow_frame 0.7k; every other public function runs fewer than 100 times):
# they are counted but get no span.
HOT = frozenset({
    "dynamics.vector_field", "dynamics.first_integral",
    "frames.slow_frame", "frames.lambda_pair",
    "outer.right_leaf_state", "outer.b0_left_profile",
})

# Counts that repeat exactly between runs of one seed; every other per-layer
# figure is a time or a ratio of times.
EXACT = frozenset({
    "connect.shots", "connect.shots_left", "connect.shots_right",
    "connect.tail_ivp.calls", "connect.solve.calls", "connect.right_windows",
    "connect.newton_match.iters", "connect.sample.calls", "connect.sample.points",
    "dynamics.vector_field.calls", "dynamics.first_integral.calls",
    "inner.solve_inner.calls", "inner.picard_iters", "inner.segments",
    "outer.leaf_states.points", "outer.right_leaf_state.calls",
    "frames.slow_frame.calls", "frames.lambda_pair.calls",
    "verify.checks_failed", "integrate.write_profile_csv.bytes",
    "integrate.integrate.calls", "connect.report_drift_cells",
})

SOLVE = "connect.heteroclinic_solve"

# Which end-to-end figure each per-layer metric should move, on which
# workload; the first matching name prefix applies.
MOVES = (
    ("connect.sample", "analysis first (wall_s, verify_s, spectrum_s), solve-panel second"),
    ("connect.report_drift", "same-behaviour diff from the seed commit, not gated"),
    ("connect.", "wall_s and op_s.p50 on solve-panel and eps-sweep"),
    ("dynamics.vector_field", "solve-panel and eps-sweep"),
    ("dynamics.first_integral", "solve-panel and analysis"),
    ("inner.", "solve-panel, ~7% of it: an inner-only gain is not expected "
               "to resolve end to end"),
    ("outer.", "analysis first, solve-panel second"),
    ("frames.", "analysis first, solve-panel second"),
    ("verify.", "verify_s on analysis; fit_decay_rates also runs in solve-panel"),
    ("linop.", "spectrum_s on analysis"),
    ("integrate.", "solve-panel and eps-sweep"),
    ("cli.", "solve-panel and eps-sweep"),
    ("sweep.overlap", "wall_s on eps-sweep only"),
)


def moves(name: str) -> str:
    return next((text for prefix, text in MOVES if name.startswith(prefix)), "")


def _points(key, arg_index):
    def hook(tracer, args, kwargs, result):
        tracer.add(key, np.atleast_1d(args[arg_index]).size)
    return hook


def _newton(tracer, args, kwargs, result):
    tracer.add("connect.newton_match.iters", result[1]["iterations"])


def _inner(tracer, args, kwargs, result):
    tracer.add("inner.picard_iters", sum(len(d) for d in result.deltas))
    tracer.add("inner.segments", len(result.segments))


def _checks(tracer, args, kwargs, result):
    tracer.add("verify.checks_failed", sum(not e.passed for e in result.entries))


def _csv_bytes(tracer, args, kwargs, result):
    tracer.add("integrate.write_profile_csv.bytes", os.path.getsize(args[0]))


def _right_start(tracer, args, kwargs, result):
    tracer.distinct("connect.right_windows",
                    (tracer.enclosing(SOLVE), float(args[1][0])))


HOOKS = {
    "connect.sample": _points("connect.sample.points", 1),
    "outer.leaf_states": _points("outer.leaf_states.points", 0),
    "connect.newton_match": _newton,
    "inner.solve_inner": _inner,
    "verify.verify_profile": _checks,
    "integrate.write_profile_csv": _csv_bytes,
    "ivp.shot_right": _right_start,
}


def _ivp_wrapper(tracer: Tracer, solve_ivp):
    def solve_ivp_traced(fun, t_span, y0, *args, **kwargs):
        if len(y0) == 6:
            name = "ivp.shot_right" if t_span[1] < t_span[0] else "ivp.shot_left"
        elif len(y0) == 1:
            name = "ivp.tail"
        else:
            name = "ivp.other"
        return tracer.span(name, solve_ivp, (fun, t_span, y0) + args, kwargs)
    return solve_ivp_traced


def install(tracer: Tracer) -> None:
    """Wrap orthowall's public functions (see module docstring)."""
    from scipy.integrate import solve_ivp

    pkg = importlib.import_module("orthowall")
    mods = [importlib.import_module(f"orthowall.{m}") for m in MODULES]
    namespaces = [pkg, *mods]
    for short, mod in zip(MODULES, mods):
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            tracer.patch(namespaces, obj, tracer.wrap(name, obj, hot=name in HOT))
    profile_cls = importlib.import_module("orthowall.connect").HeteroclinicProfile
    tracer.patch([profile_cls], profile_cls.sample,
                 tracer.wrap("connect.sample", profile_cls.sample))
    tracer.patch(namespaces, solve_ivp, _ivp_wrapper(tracer, solve_ivp))


def new_tracer() -> Tracer:
    return Tracer(hooks=HOOKS)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
    c = tracer.counts()
    get = lambda key: c.get(key, 0.0)  # noqa: E731
    spans = tracer.spans
    own = self_times(spans)
    parent_of = {s[0]: s[4] for s in spans}
    name_of = {s[0]: s[1] for s in spans}

    def self_s(prefix):
        return sum(own[s[0]] for s in spans if s[1].startswith(prefix))

    def inside_solve(span_id):
        span_id = parent_of.get(span_id)
        while span_id is not None:
            if name_of.get(span_id) == SOLVE:
                return True
            span_id = parent_of.get(span_id)
        return False

    solve_s = get(SOLVE + ".s")
    sample_in_solve = sum(s[3] - s[2] for s in spans
                          if s[1] == "connect.sample" and inside_solve(s[0]))
    left, right = get("ivp.shot_left.calls"), get("ivp.shot_right.calls")
    m = {
        "connect.shots": (left + right, "count"),
        "connect.shots_left": (left, "count"),
        "connect.shots_right": (right, "count"),
        "connect.shot_s": (get("ivp.shot_left.s") + get("ivp.shot_right.s"), "s"),
        "connect.tail_ivp.calls": (get("ivp.tail.calls"), "count"),
        "connect.tail_ivp_s": (get("ivp.tail.s"), "s"),
        "connect.right_windows": (get("connect.right_windows"), "count"),
        "connect.newton_match.s": (get("connect.newton_match.s"), "s"),
        "connect.newton_match.iters": (get("connect.newton_match.iters"), "count"),
        "connect.sample.calls": (get("connect.sample.calls"), "count"),
        "connect.sample.points": (get("connect.sample.points"), "count"),
        "connect.sample.s": (get("connect.sample.s"), "s"),
        "connect.sample.solve_share": (
            sample_in_solve / solve_s if solve_s else 0.0, "ratio"),
        "connect.solve.calls": (get(SOLVE + ".calls"), "count"),
        "connect.solve.s": (solve_s, "s"),
        "connect.solve.self_s": (self_s(SOLVE), "s"),
        "dynamics.vector_field.calls": (get("dynamics.vector_field.calls"), "count"),
        "dynamics.first_integral.calls": (get("dynamics.first_integral.calls"), "count"),
        "inner.solve_inner.calls": (get("inner.solve_inner.calls"), "count"),
        "inner.solve_inner.s": (get("inner.solve_inner.s"), "s"),
        "inner.picard_iters": (get("inner.picard_iters"), "count"),
        "inner.segments": (get("inner.segments"), "count"),
        "outer.leaf_states.points": (get("outer.leaf_states.points"), "count"),
        "outer.leaf_states.s": (get("outer.leaf_states.s"), "s"),
        "outer.right_leaf_state.calls": (get("outer.right_leaf_state.calls"), "count"),
        "frames.slow_frame.calls": (get("frames.slow_frame.calls"), "count"),
        "frames.lambda_pair.calls": (get("frames.lambda_pair.calls"), "count"),
        "verify.verify_profile.s": (get("verify.verify_profile.s"), "s"),
        "verify.fit_decay_rates.s": (get("verify.fit_decay_rates.s"), "s"),
        "verify.envelope_bounds.s": (get("verify.envelope_bounds.s"), "s"),
        "verify.checks_failed": (get("verify.checks_failed"), "count"),
        "linop.assemble_Mg.s": (get("linop.assemble_Mg.s"), "s"),
        "linop.kernel_diagnostics.s": (get("linop.kernel_diagnostics.s"), "s"),
        "linop.lg_pseudo_inverse.s": (get("linop.lg_pseudo_inverse.s"), "s"),
        "integrate.write_profile_csv.s": (get("integrate.write_profile_csv.s"), "s"),
        "integrate.write_profile_csv.bytes": (
            get("integrate.write_profile_csv.bytes"), "bytes"),
        "integrate.integrate.calls": (get("integrate.integrate.calls"), "count"),
        # main and the cmd_* functions, outside every traced callee
        "cli.main.self_s": (self_s("cli."), "s"),
        "sweep.overlap": (solve_s / wall_s, "ratio"),
    }
    return m
