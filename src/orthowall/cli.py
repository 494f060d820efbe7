"""Command-line surface: solve, sweep, inner, spectrum, verify.

``solve`` and ``sweep`` read one JSON configuration file plus flag overrides
(flags win); a key the file may not name is an input error.  The file
chooses the orbit (eps, g, nu-/nu+) and its output grid; the solver's
tolerances are constants of :mod:`connect` and :mod:`inner`.  Exit codes:
0 success, 1 configuration or input error, 2 numerical failure.  Runs are
deterministic; no clock-dependent seeds exist anywhere.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from . import __version__, connect, dynamics, inner, linop, verify
from .integrate import read_profile_csv, write_json
from .params import AdmissibilityError, derive_params, load_config

_SOLVE_DEFAULTS = connect.SolveConfig()
_DEFAULT_CONFIG = {
    "epsilon": 0.1,
    "g": 1.5,
    "nu_minus": _SOLVE_DEFAULTS.nu_minus,
    "nu_plus": _SOLVE_DEFAULTS.nu_plus,
    "grid": {"profile_points": _SOLVE_DEFAULTS.profile_points},
}


class ConfigError(ValueError):
    pass


def _resolve_config(args) -> dict:
    cfg = json.loads(json.dumps(_DEFAULT_CONFIG))
    if getattr(args, "config", None):
        try:
            user = load_config(args.config)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        for key, val in user.items():
            # epsilon_list, read by sweep, has no default
            if key not in cfg and key != "epsilon_list":
                raise ConfigError(f"unknown config key {key!r} in {args.config}")
            if isinstance(val, dict) and isinstance(cfg.get(key), dict):
                unknown = sorted(set(val) - set(cfg[key]))
                if unknown:
                    raise ConfigError(f"unknown config key '{key}.{unknown[0]}' "
                                      f"in {args.config}")
                cfg[key].update(val)
            else:
                cfg[key] = val
    for key in ("epsilon", "g", "nu_minus", "nu_plus"):
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if getattr(args, "grid", None) is not None:
        cfg["grid"]["profile_points"] = args.grid
    return cfg


def _solve_config(cfg: dict) -> connect.SolveConfig:
    if not isinstance(cfg["grid"], dict):
        raise ConfigError("config entry 'grid' must be an object")
    return connect.SolveConfig(nu_minus=cfg["nu_minus"], nu_plus=cfg["nu_plus"],
                               profile_points=cfg["grid"]["profile_points"])


def _out_dir(args) -> Path:
    out = Path(args.out)
    if not out.exists():
        if not out.parent.exists():
            raise ConfigError(f"parent of output directory {out} does not exist")
        out.mkdir()
    return out


def _manifest(args, out: Path, cfg: dict, outputs: list[str], metrics: dict) -> None:
    write_json(out / "manifest.json", {
        "tool": "orthowall",
        "version": __version__,
        "command": ["orthowall", *args.argv],
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg,
        "outputs": outputs,
        "metrics": metrics,
    })


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    p = derive_params(cfg["epsilon"], cfg["g"])
    profile = connect.heteroclinic_solve(p, _solve_config(cfg))
    # the report is complete before any file is written, so a failed rate
    # fit leaves no profile.csv without its report.json
    report = profile.report()
    report["tail_rates"] = {
        name: {"rate": fit.rate, "target": fit.target, "rel_err": fit.rel_err}
        for name, fit in verify.fit_decay_rates(profile).items()
    }
    profile.to_csv(str(out / "profile.csv"))
    write_json(out / "report.json", report)
    _manifest(args, out, cfg, ["profile.csv", "report.json", "manifest.json"], {
        "b0_at_zero": report["b0_at_zero"],
        "a0_at_zero": report["a0_at_zero"],
        "sup_w": report["sup_w"],
        "newton_iterations": report["newton_iterations"],
    })
    _say(args, f"solve: converged in {report['newton_iterations']} iterations, "
               f"sup|W| = {report['sup_w']:.3e}, wrote {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    eps_list = cfg.get("epsilon_list") or []
    if getattr(args, "epsilons", None):
        eps_list = [float(v) for v in args.epsilons.split(",")]
    workers = max(1, int(getattr(args, "workers", 1) or 1))
    scaling = verify.scaling_sweep(cfg["g"], eps_list, _solve_config(cfg), workers,
                                   out_dir=out)
    rows, excluded = scaling["rows"], scaling["excluded"]
    for rec in excluded:
        _say(args, f"sweep: epsilon = {rec['epsilon']:g} failed: {rec['error']}")
    write_json(out / "scaling.json", scaling)
    _manifest(args, out, cfg, ["scaling.json"], {
        "converged": len(rows), "failed": len(excluded),
        "slope_a0": scaling.get("slope_a0"),
        "slope_width": scaling.get("slope_width"),
    })
    _say(args, f"sweep: {len(rows)} converged, {len(excluded)} failed; wrote {out}")
    if len(excluded) * 2 > len(eps_list):
        return 2
    return 0


def cmd_inner(args) -> int:
    out = _out_dir(args)
    prob = inner.InnerProblem(
        a_minus=args.a_minus, a_plus=args.a_plus,
        boundary_plus=tuple(inner.assemble_boundary(
            "plus", (args.x10, args.x20), args.a_plus)),
        grid_points=args.points,
    )
    sol = inner.solve_inner(prob)
    sol.to_csv(str(out / "inner.csv"))
    residual = inner.inner_residual(sol)
    payload = {
        "a_minus": args.a_minus, "a_plus": args.a_plus,
        "x10": args.x10, "x20": args.x20,
        "residual": residual,
        "sweeps": len(sol.segments),
        "contraction_constant": inner.contraction_constant(args.a_plus),
        "max_delta_ratio": max(sol.delta_ratios(floor=1e-13), default=0.0),
    }
    write_json(out / "inner_report.json", payload)
    _manifest(args, out, {"inner": payload}, ["inner.csv", "inner_report.json"],
              {"residual": residual})
    _say(args, f"inner: residual {residual:.3e} over {len(sol.segments)} sweeps")
    return 0


def _load_profile(args):
    path = Path(args.profile)
    if not path.exists():
        raise ConfigError(f"profile file {path} not found")
    rp = Path(args.report) if args.report else path.parent / "report.json"
    if not rp.exists():
        raise ConfigError(f"{args.command} needs the report.json of the solve; "
                          f"{rp} not found")
    x, states, w = read_profile_csv(str(path))
    return x, states, w, json.loads(rp.read_text(encoding="utf-8"))


def cmd_spectrum(args) -> int:
    out = _out_dir(args)
    x, states, w, report = _load_profile(args)
    p = derive_params(report["epsilon"], report["g"])
    op = linop.assemble_Mg(x, states, p)
    diag = linop.kernel_diagnostics(op, states, p)
    payload = {
        "smallest_singular_values": list(diag.smallest),
        "separation": diag.separation,
        "kernel_angle": diag.kernel_angle,
        "orthogonality_defect": diag.orthogonality_defect,
        "l_smallest": diag.l_smallest,
        "kernel_residual": linop.kernel_residual(
            op, states, exclude=report.get("blend_windows", ())),
        "essential_edges": {
            "M": linop.asymptotic_spectrum(p.g, "minus", "M"),
            "L_minus": linop.asymptotic_spectrum(p.g, "minus", "L"),
            "L_plus": linop.asymptotic_spectrum(p.g, "plus", "L"),
        },
    }
    write_json(out / "spectrum.json", payload)
    _manifest(args, out, {"profile": str(args.profile)}, ["spectrum.json"],
              {"kernel_angle": diag.kernel_angle})
    _say(args, f"spectrum: kernel angle {diag.kernel_angle:.3e} rad, "
               f"separation {diag.separation:.3e}")
    return 0


def _csv_profile(x, states, w, report) -> SimpleNamespace:
    """A written profile read back for :func:`verify.verify_profile`.

    The CSV columns are the state and the vector field is their
    x-derivative, so ``sample`` is the cubic Hermite interpolant of the grid
    states with those derivatives.
    """
    p = derive_params(report["epsilon"], report["g"])
    dydx = np.array([dynamics.vector_field(s, p) for s in states])
    return SimpleNamespace(p=p, x_star_plus=report["x_star_plus"], x=x,
                           states=states, w=w,
                           sample=CubicHermiteSpline(x, states, dydx, axis=0))


def cmd_verify(args) -> int:
    out = _out_dir(args)
    rep = verify.verify_profile(_csv_profile(*_load_profile(args)))
    write_json(out / "verify.json", rep.to_dict())
    _manifest(args, out, {"profile": str(args.profile)}, ["verify.json"],
              {"passed": rep.passed})
    _say(args, f"verify: {'PASS' if rep.passed else 'FAIL'} "
               f"({sum(e.passed for e in rep.entries)}/{len(rep.entries)} checks)")
    return 0 if rep.passed else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orthowall",
        description="Construct and verify the domain-wall connecting orbit "
                    "of the 6-D amplitude system.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, profile=False):
        sp.add_argument("--out", "-o", required=True, help="output directory")
        sp.add_argument("--quiet", action="store_true")
        if not profile:
            sp.add_argument("--config", "-c", help="JSON configuration file")
            sp.add_argument("--epsilon", type=float)
            sp.add_argument("--g", type=float)
            sp.add_argument("--nu-minus", dest="nu_minus", type=float)
            sp.add_argument("--nu-plus", dest="nu_plus", type=float)
            sp.add_argument("--grid", type=int, help="profile grid points")

    sp = sub.add_parser("solve", help="compute one connecting orbit")
    common(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("sweep", help="epsilon sweep with scaling exponents")
    common(sp)
    sp.add_argument("--epsilons", help="comma-separated epsilon list")
    sp.add_argument("--workers", type=int, default=1,
                    help="solve members in this many forked worker processes; "
                         "the output is byte-identical to a serial run")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("inner", help="solve the rescaled corner-layer problem")
    common(sp, profile=True)
    sp.add_argument("--a-plus", dest="a_plus", type=float, required=True)
    sp.add_argument("--a-minus", dest="a_minus", type=float, required=True)
    sp.add_argument("--x10", type=float, default=0.0)
    sp.add_argument("--x20", type=float, default=0.0)
    sp.add_argument("--points", type=int, default=2048)
    sp.set_defaults(fn=cmd_inner)

    sp = sub.add_parser("spectrum", help="linearized-operator diagnostics")
    common(sp, profile=True)
    sp.add_argument("profile", help="profile.csv path")
    sp.add_argument("--report", help="report.json path (default: next to profile)")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("verify", help="run the full check battery on a solved profile")
    common(sp, profile=True)
    sp.add_argument("profile", help="profile.csv path")
    sp.add_argument("--report", help="report.json path (default: next to profile)")
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.fn(args)
    except (ConfigError, AdmissibilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (connect.MatchingError, connect.RealizationError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
