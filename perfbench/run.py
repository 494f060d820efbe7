"""orthowall benchmark: end-to-end metrics (untraced) or per-layer metrics
(traced) for one workload, with a correctness gate on every operation.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-panel --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

``--trace 0`` sets up three times (this process and two fresh ones), then
runs whole passes over the workload's inputs, stopping at the pass boundary
nearest to ``--seconds`` (at least one pass).  ``--trace 1`` runs one
untraced and one traced pass over the same inputs and reports the per-layer
metrics of the traced one.  ``--workload all`` runs every workload in both
modes, each in its own process.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable table and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set-up is timed from here, so the import of numpy and orthowall counts.
_T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = Path(__file__).resolve().parent / "baseline_report.json"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
PER_SOLVE = ("connect.shots", "connect.tail_ivp.calls",
             "dynamics.vector_field.calls", "connect.sample.s")

# One thread per BLAS call: the eps-sweep workers already fill nproc = 2.
# Set before numpy is first imported, which reads them once.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

from workloads import WORKLOADS  # noqa: E402


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _tail_percentile(values):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for q in (75, 90, 95, 99):
        if len(values) * (100 - q) / 100.0 >= 10:
            best = q
    return best


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def _setup(workload_cls, seed, workdir):
    """Import orthowall and run the workload's set-up; returns (workload, s)
    with s counted from this process's import of numpy."""
    import orthowall.cli  # noqa: F401
    wl = workload_cls(seed, workdir)
    wl.setup()
    return wl, time.perf_counter() - _T_START


def _fresh_setup_seconds(args) -> float:
    """Set-up time in a new interpreter, so first-call costs are counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                         cwd=ROOT, check=True)
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def _print_table(rows):
    for name, value, unit, note in rows:
        print(f"  {name:36s} {value:>16.6g} {unit:8s} {note}".rstrip())


def _gate_summary(outcomes):
    """Print the failed operations; returns (correct, attempted, failed)."""
    failed = [o for o in outcomes if o.failed]
    print(f"  {'fail_frac':36s} {len(failed) / len(outcomes):>16.6g} ratio    "
          f"{len(failed)} of {len(outcomes)} ops failed")
    groups = {}
    for o in failed:
        groups.setdefault((o.op, tuple(o.failed_checks), o.known), []).append(o)
    for (op, checks, known), outs in groups.items():
        tag = "known defect" if known else "UNEXPECTED"
        # the largest miss of each check over the repeats of this op
        worst = [max(o.failed_checks[c] for o in outs) for c in checks]
        print(f"  failed x{len(outs)} ({tag}): {op}: "
              + ", ".join(f"{c}={v:.3g}" for c, v in zip(checks, worst)))
    return all(o.known for o in failed), len(outcomes), len(failed)


def _write_spans(tracer, name, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    keys = ("id", "name", "start", "end", "parent", "op", "thread")
    path.write_text(json.dumps([dict(zip(keys, s)) for s in tracer.spans]),
                    encoding="utf-8")
    return path


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    elif isinstance(obj, (bool, int, float)):
        yield prefix[:-1], float(obj)


def _report_scalars(outcomes) -> dict:
    return {f"g={o.report['g']!r},eps={o.report['epsilon']!r}": dict(_flatten(o.report))
            for o in outcomes if o.report is not None}


def _report_drift(outcomes) -> tuple[float, int]:
    """Largest relative difference of report.json scalars from the values
    committed with this benchmark, over the cells whose inputs match a
    baseline cell.

    Fields added since the baseline are ignored, a removed one counts as 1.
    manifest.json, whose ``timestamp_utc`` differs on every run, is not read.
    """
    base = json.loads(BASELINE.read_text(encoding="utf-8"))
    worst, cells = 0.0, 0
    for key, scalars in _report_scalars(outcomes).items():
        ref = base.get(key)
        if ref is None:
            continue
        cells += 1
        for name, b in ref.items():
            a = scalars.get(name)
            if a is None:
                worst = max(worst, 1.0)
            elif a != b:
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst, cells


def run_untraced(wl, args, setup_s):
    setups = [setup_s] + [_fresh_setup_seconds(args)
                          for _ in range(SETUP_REPEATS - 1)]
    start = time.perf_counter()
    walls, passes = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass())
        walls.append(time.perf_counter() - t0)
        # stop at the pass boundary nearest to --seconds
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(walls) >= args.seconds:
            break
    outcomes = [o for ops in passes for o in ops]
    ops = [o.seconds for o in outcomes]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_s.p50": (statistics.median(ops), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {
        "wall_s": f"median of {len(walls)} passes",
        "op_s.p50": f"median of {len(ops)} ops",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
    }
    rows = [(k, v, u, notes.get(k, "")) for k, (v, u) in metrics.items()]
    q = _tail_percentile(ops)
    if q is not None:
        rows.append((f"op_s.p{q}", _percentile(ops, q), "s", f"of {len(ops)} ops"))
    for phase in ("verify_s", "spectrum_s"):
        per_pass = [sum(o.phases.get(phase, 0.0) for o in pass_ops)
                    for pass_ops in passes]
        if any(per_pass):
            rows.append((phase, statistics.median(per_pass), "s",
                         f"part of wall_s, median of {len(passes)} passes"))
    return metrics, rows, outcomes


def run_traced(wl, args):
    import layers

    t0 = time.perf_counter()
    plain = wl.run_pass()
    untraced_wall = time.perf_counter() - t0

    tracer = layers.new_tracer()
    layers.install(tracer)
    try:
        def before_op(i):
            tracer.op_id = i
        t0 = time.perf_counter()
        traced = wl.run_pass(before_op)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer, traced_wall)
    drift, cells = _report_drift(traced)
    metrics["connect.report_drift_rel"] = (drift, "ratio")
    metrics["connect.report_drift_cells"] = (float(cells), "count")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    path = _write_spans(tracer, wl.name, args.seed)
    solves = metrics["connect.solve.calls"][0]
    rows = []
    for k, (v, u) in metrics.items():
        note = ["exact"] if k in layers.EXACT else []
        if solves and k in PER_SOLVE:
            note.append(f"{v / solves:.4g} per solve")
        rows.append((k, v, u, "; ".join(note + [layers.moves(k)])))
    rows.append(("trace.spans", len(tracer.spans), "count", str(path.relative_to(ROOT))))
    rows.append(("trace.untraced_wall_s", untraced_wall, "s", ""))
    return metrics, rows, plain + traced


def run_all(args) -> int:
    """Every workload in both modes, each in its own process."""
    merged, correct, attempted, failed = {}, True, 0, 0
    modes = [args.trace] if args.trace is not None else [0, 1]
    for name in WORKLOADS:
        for trace in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = res.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if res.returncode != 0 or not lines:
                print(res.stderr, file=sys.stderr)
                return res.returncode or 2
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, val in result["metrics"].items():
                merged[f"{name}:{key}"] = val
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args(argv)
    if not (SRC / "orthowall" / "__init__.py").is_file():
        print(f"error: no orthowall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.trace is None and not args.setup_only:
        args.trace = 0

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl, setup_s = _setup(WORKLOADS[args.workload], args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, rows, outcomes = run_traced(wl, args)
        else:
            metrics, rows, outcomes = run_untraced(wl, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# orthowall benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("# env " + json.dumps(_environment(), sort_keys=True))
    _print_table(rows)
    correct, attempted, failed = _gate_summary(outcomes)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
