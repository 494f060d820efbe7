import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthowall import cli, connect, inner, verify
from orthowall.integrate import read_profile_csv


def write_config(path, **kw):
    cfg = {"epsilon": 0.1, "g": 1.5}
    cfg.update(kw)
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    rc = cli.main(["solve", "--out", str(out), "--epsilon", "0.1",
                   "--g", "1.5", "--quiet"])
    assert rc == 0
    return out


def test_solve_outputs(solve_dir):
    for name in ("profile.csv", "report.json", "manifest.json"):
        assert (solve_dir / name).exists()
    report = json.loads((solve_dir / "report.json").read_text())
    assert abs(report["b0_at_zero"] - (1.5) ** -0.5) < 1e-10
    assert report["sup_w"] < 1e-8
    manifest = json.loads((solve_dir / "manifest.json").read_text())
    assert manifest["tool"] == "orthowall"
    assert "profile.csv" in manifest["outputs"]


def test_manifest_records_parsed_command(tmp_path, solve_dir, monkeypatch):
    # the command is the argument list main parsed, under the tool's name,
    # not the host process's argv
    manifest = json.loads((solve_dir / "manifest.json").read_text())
    assert manifest["command"] == ["orthowall", "solve", "--out", str(solve_dir),
                                   "--epsilon", "0.1", "--g", "1.5", "--quiet"]
    out = tmp_path / "layer"
    argv = ["inner", "--out", str(out), "--a-plus", "1.0", "--a-minus", "1.0", "--quiet"]
    monkeypatch.setattr("sys.argv", ["/somewhere/orthowall/cli.py", *argv])
    assert cli.main() == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == ["orthowall", *argv]


def test_default_config_is_solve_config():
    assert cli._solve_config(cli._DEFAULT_CONFIG) == connect.SolveConfig()


def test_solve_writes_nothing_when_rate_fit_fails(tmp_path, monkeypatch, profile15, capsys):
    def no_tail(profile):
        raise verify.InsufficientTail("right_a_envelope: only 2 usable envelope maxima")

    monkeypatch.setattr(connect, "heteroclinic_solve", lambda p, cfg=None: profile15.value)
    monkeypatch.setattr(verify, "fit_decay_rates", no_tail)
    out = tmp_path / "corner"
    rc = cli.main(["solve", "--out", str(out), "--quiet"])
    # a rate the profile lets no fit find is a numerical failure
    assert rc == 2
    assert "numerical failure: right_a_envelope" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def coarse_profile(tmp_path_factory):
    out = tmp_path_factory.mktemp("coarse")
    assert cli.main(["solve", "--out", str(out), "--grid", "40", "--quiet"]) == 0
    return str(out / "profile.csv")


@pytest.mark.parametrize("argv, code, message", [
    # below the box the left tail leaves its domain: stage 2's W = 0 bracket
    # at eps = 0.003, the leaf table at eps = 0.005
    (["solve", "--g", "1.2", "--epsilon", "0.003"], 2,
     "numerical failure: state off the growing branch of W=0"),
    (["solve", "--g", "1.2", "--epsilon", "0.005"], 2,
     "numerical failure: the left tail leaves the leaf table"),
    (["inner", "--a-plus", "1", "--a-minus", "1", "--x10", "1e6"], 2,
     "numerical failure: no convergence after 200 iterations"),
    (["spectrum", "{coarse}"], 1, "error: grid too coarse"),
], ids=["solve-eps0.003", "solve-eps0.005", "inner-diverging", "spectrum-coarse-grid"])
def test_failed_run_exit_code_and_no_out(tmp_path, capsys, coarse_profile, argv, code, message):
    # a numerical failure exits 2 and an input error 1, by the class of the
    # error; neither leaves the output directory behind
    out = tmp_path / "out"
    argv = [a.format(coarse=coarse_profile) for a in argv]
    rc = cli.main([*argv, "--out", str(out), "--quiet"])
    assert rc == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["sweep", "--epsilons", "0.2,0.1,0.05,0.025"],
    ["inner", "--a-plus", "1", "--a-minus", "1"],
], ids=["solve", "sweep", "inner"])
def test_out_naming_a_file_is_an_input_error(tmp_path, capsys, argv):
    # an --out that names a plain file exits 1 with an error line, not a
    # traceback, and the file keeps its bytes
    out = tmp_path / "afile"
    out.write_bytes(b"kept\n")
    rc = cli.main([*argv, "--out", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.split()[0] == "error:"
    assert out.read_bytes() == b"kept\n"


def test_csv_round_trip_exact(solve_dir):
    x, states, w = read_profile_csv(str(solve_dir / "profile.csv"))
    x2, states2, w2 = read_profile_csv(str(solve_dir / "profile.csv"))
    assert np.array_equal(x, x2) and np.array_equal(states, states2)
    assert x.size >= 1000


def test_config_error_bad_g(tmp_path, capsys):
    cfgp = write_config(tmp_path / "c.json", g=3.0)
    rc = cli.main(["solve", "--config", cfgp, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "(10/9, 2]" in capsys.readouterr().err


def test_missing_parent_dir(tmp_path):
    rc = cli.main(["solve", "--out", str(tmp_path / "a" / "b" / "c"),
                   "--epsilon", "0.1", "--g", "1.5"])
    assert rc == 1


def test_creates_out_dir_when_parent_exists(tmp_path):
    out = tmp_path / "fresh"
    rc = cli.main(["inner", "--out", str(out), "--a-plus", "1.0",
                   "--a-minus", "1.0", "--quiet"])
    assert rc == 0
    assert (out / "inner.csv").exists()


@pytest.mark.parametrize("a_plus, a_minus", [("nan", "1.0"), ("1.0", "nan")])
def test_inner_rejects_nan_half_width(tmp_path, capsys, a_plus, a_minus):
    # the problem is checked before the output directory is made
    out = tmp_path / "inner"
    rc = cli.main(["inner", "--out", str(out), "--a-plus", a_plus, "--a-minus", a_minus,
                   "--quiet"])
    assert rc == 1
    assert "half-widths must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--x10", "--x20"])
def test_inner_rejects_nan_jet_parameter(tmp_path, capsys, flag):
    # a non-finite jet parameter is an input error, found before the output
    # directory is made, not a diverging fixed-point iteration
    out = tmp_path / "inner"
    rc = cli.main(["inner", "--out", str(out), "--a-plus", "1", "--a-minus", "1",
                   flag, "nan", "--quiet"])
    assert rc == 1
    assert "error: boundary jet must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_inner_zero_data(tmp_path):
    out = tmp_path / "inner0"
    rc = cli.main(["inner", "--out", str(out), "--a-plus", "1.0",
                   "--a-minus", "1.0", "--x10", "0", "--x20", "0", "--quiet"])
    assert rc == 0
    data = np.loadtxt(out / "inner.csv", delimiter=",", skiprows=1)
    assert np.abs(data[:, 1:]).max() == 0.0
    report = json.loads((out / "inner_report.json").read_text())
    assert report["residual"] == 0.0


def test_readme_inner_csv_is_savetxt_bytes(tmp_path):
    # the README's `orthowall inner` writes the bytes np.savetxt writes for
    # the same solution
    out = tmp_path / "layer1"
    rc = cli.main(["inner", "--out", str(out), "--a-plus", "1.0", "--a-minus", "1.0",
                   "--x10", "0.03", "--x20", "0.02", "--quiet"])
    assert rc == 0
    sol = inner.solve_inner(inner.InnerProblem(
        a_minus=1.0, a_plus=1.0,
        boundary_plus=tuple(inner.assemble_boundary("plus", (0.03, 0.02), 1.0))))
    data = np.column_stack([sol.z, sol.jets.T,
                            inner.inner_residual(sol, return_array=True)[1]])
    ref = tmp_path / "savetxt.csv"
    np.savetxt(ref, data, delimiter=",", comments="",
               header="z,A,A',A'',A''',residual", fmt="%.17g")
    assert (out / "inner.csv").read_bytes() == ref.read_bytes()


def test_sweep_with_fault_injection(tmp_path, member_fault, solve_dir):
    # serial and forked-worker runs: the failing member is recorded with its
    # own message and both write the same bytes; a member's profile.csv is
    # `orthowall solve`'s, and its report.json is solve's without the
    # tail_rates that only `solve` adds
    cfgp = write_config(tmp_path / "c.json",
                        epsilon_list=[0.2, 0.1, 0.05, 0.025, 0.15])
    written = {}
    for workers in ("1", "2"):
        out = tmp_path / f"sweep{workers}"
        rc = cli.main(["sweep", "--config", cfgp, "--out", str(out), "--quiet",
                       "--workers", workers])
        assert rc == 0
        scaling = json.loads((out / "scaling.json").read_text())
        assert [r["epsilon"] for r in scaling["rows"]] == [0.025, 0.05, 0.1, 0.2]
        assert len(scaling["excluded"]) == 1
        assert scaling["excluded"][0]["epsilon"] == 0.15
        assert scaling["excluded"][0]["error"] == "injected fault"
        assert abs(scaling["slope_a0"] - 0.40) <= 0.08
        assert abs(scaling["slope_width"] + 0.20) <= 0.05
        assert (out / "eps_0.1" / "profile.csv").exists()
        assert not (out / "eps_0.15").exists()
        written[workers] = {
            str(f.relative_to(out)): f.read_bytes()
            for f in sorted(out.rglob("*"))
            if f.is_file() and f.name != "manifest.json"
        }
    assert written["1"] == written["2"]
    assert len(written["1"]) == 9
    assert written["1"]["eps_0.1/profile.csv"] == (solve_dir / "profile.csv").read_bytes()
    report = json.loads((solve_dir / "report.json").read_text())
    assert report.pop("tail_rates")
    assert written["1"]["eps_0.1/report.json"] == (
        json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("g, epsilons, name", [
    ("1.5", "nan,0.2,0.1,0.05", "epsilon_positive"),
    ("1.5", "0.3,0.2,0.1,0.05", "epsilon_ceiling"),
    ("2.5", "0.2,0.1,0.05,0.025", "g_range"),
])
def test_sweep_rejects_inadmissible_member(tmp_path, capsys, g, epsilons, name):
    # an inadmissible (eps, g) is an input error of the whole sweep, found
    # before any member is solved and before the output directory is made
    out = tmp_path / "s"
    rc = cli.main(["sweep", "--out", str(out), "--g", g, "--epsilons", epsilons, "--quiet"])
    assert rc == 1
    assert f"error: {name}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilon, g, name", [
    ("0.3", "1.5", "epsilon_ceiling"),
    ("nan", "1.5", "epsilon_positive"),
    ("0.1", "2.5", "g_range"),
])
def test_solve_rejects_inadmissible_input_before_out(tmp_path, capsys, epsilon, g, name):
    # (eps, g) is checked before the output directory is made, so an
    # inadmissible one leaves no empty directory behind
    out = tmp_path / "o"
    rc = cli.main(["solve", "--out", str(out), "--epsilon", epsilon, "--g", g, "--quiet"])
    assert rc == 1
    assert f"error: {name}: " in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_malformed_grid(tmp_path, capsys):
    cfgp = write_config(tmp_path / "c.json", grid=4001,
                        epsilon_list=[0.2, 0.1, 0.05, 0.025])
    rc = cli.main(["sweep", "--config", cfgp, "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "'grid' must be an object" in capsys.readouterr().err


def test_readme_config_resolves(tmp_path):
    # the JSON config block of README.md is a valid config file
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfgp = tmp_path / "readme.json"
    cfgp.write_text(block)
    args = cli.build_parser().parse_args(["sweep", "--config", str(cfgp), "--out", "o"])
    cfg = cli._resolve_config(args)
    assert cfg["epsilon_list"] == json.loads(block)["epsilon_list"]
    assert cli._solve_config(cfg) == connect.SolveConfig()


@pytest.mark.parametrize("extra, key", [
    ({"tolerances": {"newton": 1e-10}}, "'tolerances'"),
    ({"grid": {"inner_points": 2048}}, "'grid.inner_points'"),
    ({"nu_plu": 0.5}, "'nu_plu'"),
])
def test_unknown_config_key_rejected(tmp_path, capsys, extra, key):
    # a removed or misspelled key is an input error that names the key,
    # not a setting silently ignored
    cfgp = write_config(tmp_path / "c.json", **extra)
    rc = cli.main(["solve", "--config", cfgp, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"unknown config key {key}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "profile.csv").exists()


@pytest.mark.parametrize("command, extra, key", [
    ("solve", {"epsilon": "0.1"}, "'epsilon' must be a real number"),
    ("solve", {"g": True}, "'g' must be a real number"),
    ("solve", {"nu_plus": "0.5"}, "'nu_plus' must be null or a real number"),
    ("sweep", {"grid": {"profile_points": "x"}}, "'grid.profile_points' must be an integer"),
    ("sweep", {"epsilon_list": [0.2, "0.1", 0.05, 0.025]},
     "'epsilon_list' must be a list of real numbers"),
])
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, command, extra, key):
    # a value of the wrong type is an input error naming its key (exit 1),
    # not a traceback or a numerical failure in every member
    extra.setdefault("epsilon_list", [0.2, 0.1, 0.05, 0.025])
    cfgp = write_config(tmp_path / "c.json", **extra)
    rc = cli.main([command, "--config", cfgp, "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, name", [("--g", "g_range"), ("--nu-plus", "nu_positive")])
def test_nan_flag_is_an_admissibility_error(tmp_path, capsys, flag, name):
    rc = cli.main(["solve", "--out", str(tmp_path / "o"), "--epsilon", "0.1", "--g", "1.5",
                   flag, "nan", "--quiet"])
    assert rc == 1
    assert f"error: {name}: " in capsys.readouterr().err


def test_sweep_rejects_repeated_members(tmp_path, capsys):
    # two members with one eps_{eps:g} directory would write the same files
    # and count twice in the slope fit: rejected before any solve
    out = tmp_path / "s"
    rc = cli.main(["sweep", "--out", str(out), "--g", "1.5", "--quiet",
                   "--epsilons", "0.1,0.1,0.05,0.025", "--workers", "2"])
    assert rc == 1
    assert "eps_0.1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_workers_below_one(tmp_path, capsys, workers):
    # checked before the output directory is made, as the members are
    out = tmp_path / "s"
    rc = cli.main(["sweep", "--out", str(out), "--g", "1.5", "--quiet",
                   "--epsilons", "0.2,0.1,0.05,0.025", "--workers", workers])
    assert rc == 1
    assert f"error: --workers must be at least 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_profile_points_below_three_rejected():
    # a grid of fewer than 3 points has no interior row for verify_profile's
    # b_interior check, and 0 or 1 points fail inside the rate fit
    with pytest.raises(ValueError, match="profile_points must be at least 3"):
        connect.SolveConfig(profile_points=2)
    assert connect.SolveConfig(profile_points=3).profile_points == 3


@pytest.mark.parametrize("grid", ["-5", "0", "1", "2"])
def test_too_small_grid_flag_exits_before_the_solve(tmp_path, capsys, grid):
    # before any solve and before the output directory is made (at the
    # parent --grid 0 and 1 failed after the whole solve, --grid 2 passed)
    rc = cli.main(["solve", "--out", str(tmp_path / "o"), "--epsilon", "0.1", "--g", "1.5",
                   "--grid", grid, "--quiet"])
    assert rc == 1
    assert "profile_points must be at least 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_too_small_grid_in_config_exits_before_the_solve(tmp_path, capsys, command):
    # the sweep builds its SolveConfig before it starts a member, so it
    # writes no member directory
    cfgp = write_config(tmp_path / "c.json", grid={"profile_points": 2},
                        epsilon_list=[0.2, 0.1, 0.05, 0.025])
    argv = [command, "--config", cfgp, "--out", str(tmp_path / "o"), "--quiet"]
    rc = cli.main(argv + ["--workers", "2"] if command == "sweep" else argv)
    assert rc == 1
    assert "profile_points must be at least 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# each command, its arguments besides --out and --quiet ({profile} is the
# solve_dir's profile.csv) and the scipy subpackages it loads: spectrum
# alone needs scipy, for linop's sparse eigensolves
_COMMANDS = [
    ("solve", "--epsilon 0.1 --g 1.5", set()),
    ("sweep", "--g 1.5 --epsilons 0.2,0.1,0.05,0.025 --workers 2", set()),
    ("verify", "{profile}", set()),
    ("inner", "--a-plus 1.0 --a-minus 2.0", set()),
    ("spectrum", "{profile}", {"scipy.sparse", "scipy.linalg"}),
]


@pytest.mark.parametrize("command, extra, loaded", _COMMANDS, ids=[c[0] for c in _COMMANDS])
def test_command_loads_only_its_scipy(tmp_path, solve_dir, command, extra, loaded):
    # a fresh interpreter imports the CLI and runs one command; solve,
    # sweep, verify and inner load no scipy module at all, spectrum only
    # scipy.sparse and scipy.linalg of the subpackages below (module names
    # compared, nothing timed)
    argv = [command, "--out", str(tmp_path / "o"), "--quiet",
            *extra.format(profile=solve_dir / "profile.csv").split()]
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import json, sys\n"
            "from orthowall import cli\n"
            f"rc = cli.main({argv!r})\n"
            "print(json.dumps([rc, sorted(sys.modules)]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300, check=True)
    rc, modules = json.loads(res.stdout.strip().splitlines()[-1])
    assert rc == 0
    scipy_modules = {m for m in modules if m.split(".")[0] == "scipy"}
    subpackages = {".".join(m.split(".")[:2]) for m in scipy_modules}
    if loaded:
        assert loaded <= subpackages
        assert subpackages.isdisjoint({"scipy.fft", "scipy.special", "scipy.interpolate",
                                       "scipy.integrate", "scipy.optimize", "scipy.spatial"})
    else:
        assert scipy_modules == set()


def test_sweep_too_few_points(tmp_path):
    cfgp = write_config(tmp_path / "c.json", epsilon_list=[0.1])
    rc = cli.main(["sweep", "--config", cfgp, "--out", str(tmp_path / "s")])
    assert rc == 1


def test_spectrum_command(tmp_path, solve_dir):
    out = tmp_path / "spec"
    rc = cli.main(["spectrum", "--out", str(out), "--quiet",
                   str(solve_dir / "profile.csv")])
    assert rc == 0
    spec = json.loads((out / "spectrum.json").read_text())
    assert spec["kernel_angle"] < 1e-3
    assert spec["separation"] > 1e4
    assert spec["essential_edges"]["L_plus"] == 0.0


def test_verify_command_pass(tmp_path, solve_dir):
    out = tmp_path / "ver"
    rc = cli.main(["verify", "--out", str(out), "--quiet",
                   str(solve_dir / "profile.csv")])
    assert rc == 0
    rep = json.loads((out / "verify.json").read_text())
    assert rep["passed"] is True


def test_verify_command_matches_library(tmp_path, solve_dir, profile15):
    out = tmp_path / "ver"
    cli.main(["verify", "--out", str(out), "--quiet", str(solve_dir / "profile.csv")])
    got = json.loads((out / "verify.json").read_text())["checks"]
    want = verify.verify_profile(profile15.value).entries
    assert [c["name"] for c in got] == [e.name for e in want]
    assert [c["passed"] for c in got] == [e.passed for e in want]
    for c, e in zip(got, want):
        assert c["measured"] == pytest.approx(e.measured, rel=1e-4), c["name"]


def test_verify_needs_report(tmp_path, solve_dir, capsys):
    lone = tmp_path / "lone"
    lone.mkdir()
    (lone / "profile.csv").write_bytes((solve_dir / "profile.csv").read_bytes())
    rc = cli.main(["verify", "--out", str(tmp_path / "v"), str(lone / "profile.csv")])
    assert rc == 1
    assert "report.json" in capsys.readouterr().err


def test_verify_command_tampered(tmp_path, solve_dir):
    x, states, w = read_profile_csv(str(solve_dir / "profile.csv"))
    n = x.size
    states = states.copy()
    states[n // 2:n // 2 + 40, 4] = states[n // 2, 4] - 1e-3  # force a dip
    from orthowall.integrate import write_profile_csv
    bad = tmp_path / "bad"
    bad.mkdir()
    write_profile_csv(str(bad / "profile.csv"), x, states, w)
    (bad / "report.json").write_text(
        (solve_dir / "report.json").read_text())
    out = tmp_path / "ver2"
    rc = cli.main(["verify", "--out", str(out), "--quiet",
                   str(bad / "profile.csv")])
    assert rc == 2
    rep = json.loads((out / "verify.json").read_text())
    names = {e["name"]: e["passed"] for e in rep["checks"]}
    assert names["b_monotone"] is False


def test_verify_command_records_unfittable_rate(tmp_path, solve_dir):
    # no A oscillation right of the corner: the rate cannot be fitted, which
    # is a failed check (exit 2), not an input error
    x, states, w = read_profile_csv(str(solve_dir / "profile.csv"))
    states = states.copy()
    states[x > 0.0, :4] = 0.0
    from orthowall.integrate import write_profile_csv
    flat = tmp_path / "flat"
    flat.mkdir()
    write_profile_csv(str(flat / "profile.csv"), x, states, w)
    (flat / "report.json").write_text((solve_dir / "report.json").read_text())
    out = tmp_path / "ver3"
    rc = cli.main(["verify", "--out", str(out), "--quiet", str(flat / "profile.csv")])
    assert rc == 2

    def no_constant(name):
        raise ValueError(f"verify.json holds {name}, which is not JSON")

    rep = json.loads((out / "verify.json").read_text(), parse_constant=no_constant)
    failed = {e["name"]: e for e in rep["checks"] if not e["passed"]}
    assert failed["rate_right_a_envelope"]["measured"] is None


_HEADER = "x,A0,A1,A2,A3,B0,B1,W\n"
_ROW = "0,1,0,0,0,0.5,0.01,0\n"
_BOTH = ("verify", "spectrum")
# (name, profile.csv text or None for the solve's, the report.json from the
# solve's (a str is written as it is) or None for it, the part of the
# message, the commands)
_MALFORMED = [
    ("header-only", _HEADER, None, "0 row(s)", _BOTH),
    ("7-columns", _HEADER + "0,1,0,0,0,0.5,0.01\n" * 5, None, "7 column(s)", _BOTH),
    ("1-row", _HEADER + _ROW, None, "1 row(s)", _BOTH),
    ("2-rows", _HEADER + _ROW * 2, None, "2 row(s)", _BOTH),
    ("not-json", None, lambda r: "{epsilon", "cannot read report", _BOTH),
    ("empty-report", None, lambda r: {}, "'epsilon'", _BOTH),
    ("list-report", None, lambda r: [1], "JSON object", _BOTH),
    ("string-g", None, lambda r: {**r, "g": "1.5"}, "'g'", _BOTH),
    ("no-x_star_plus", None, lambda r: {k: v for k, v in r.items() if k != "x_star_plus"},
     "'x_star_plus'", ("verify",)),
    ("short-window", None, lambda r: {**r, "blend_windows": [[1.0]]}, "'blend_windows'",
     ("spectrum",)),
    ("string-window-end", None, lambda r: {**r, "blend_windows": [[1.0, "2"]]},
     "'blend_windows'", ("spectrum",)),
    ("number-windows", None, lambda r: {**r, "blend_windows": 3}, "'blend_windows'",
     ("spectrum",)),
]


@pytest.mark.parametrize("command, csv, report, message", [
    pytest.param(command, csv, report, message, id=f"{command}-{name}")
    for name, csv, report, message, commands in _MALFORMED for command in commands])
def test_malformed_profile_is_an_input_error(tmp_path, solve_dir, capsys, command, csv,
                                             report, message):
    # a malformed profile.csv or report.json exits 1 with a message naming
    # the file, before verify or spectrum makes its output directory
    run = tmp_path / "run"
    run.mkdir()
    csv_path = run / "profile.csv"
    if csv is None:
        shutil.copy(solve_dir / "profile.csv", csv_path)
    else:
        csv_path.write_text(csv)
    body = json.loads((solve_dir / "report.json").read_text())
    body = report(body) if report else body
    (run / "report.json").write_text(body if isinstance(body, str) else json.dumps(body))
    out = tmp_path / "o"
    rc = cli.main([command, "--out", str(out), "--quiet", str(csv_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and message in err and str(run) in err
    assert not out.exists()


def test_missing_profile(tmp_path):
    rc = cli.main(["verify", "--out", str(tmp_path / "v"),
                   str(tmp_path / "nope.csv")])
    assert rc == 1


def _outputs(root):
    """Every file under ``root`` by relative path; a manifest without its
    timestamp, the one field that changes between runs."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                assert manifest.pop("timestamp_utc")
                data = json.dumps(manifest, sort_keys=True).encode()
            files[str(path.relative_to(root))] = data
    return files


def test_runs_are_byte_identical(tmp_path):
    # solve, verify, spectrum and inner write the same bytes when run again
    # in the same process; spectrum's eigensolves start from fixed vectors,
    # not from ARPACK's random one
    root = tmp_path / "run"
    runs = []
    for _ in range(2):
        root.mkdir()
        profile = str(root / "solve" / "profile.csv")
        for argv in (["solve", "--out", str(root / "solve"), "--epsilon", "0.1", "--g", "1.5"],
                     ["verify", "--out", str(root / "verify"), profile],
                     ["spectrum", "--out", str(root / "spectrum"), profile],
                     ["inner", "--out", str(root / "inner"), "--a-plus", "1.0",
                      "--a-minus", "1.0", "--x10", "0.03", "--x20", "0.02"]):
            assert cli.main([*argv, "--quiet"]) == 0
        runs.append(_outputs(root))
        shutil.rmtree(root)
    assert sorted(runs[0]) == sorted(runs[1]) and len(runs[0]) == 10
    for name, data in runs[0].items():
        assert runs[1][name] == data, name
