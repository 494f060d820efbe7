import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from orthowall import cli, connect, verify
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


def test_solve_writes_nothing_when_rate_fit_fails(tmp_path, monkeypatch, profile15):
    def no_tail(profile):
        raise verify.InsufficientTail("right_a_envelope: only 2 usable envelope maxima")

    monkeypatch.setattr(connect, "heteroclinic_solve", lambda p, cfg=None: profile15.value)
    monkeypatch.setattr(verify, "fit_decay_rates", no_tail)
    out = tmp_path / "corner"
    rc = cli.main(["solve", "--out", str(out), "--quiet"])
    assert rc == 1
    assert not (out / "profile.csv").exists()
    assert not (out / "report.json").exists()


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


def test_inner_zero_data(tmp_path):
    out = tmp_path / "inner0"
    rc = cli.main(["inner", "--out", str(out), "--a-plus", "1.0",
                   "--a-minus", "1.0", "--x10", "0", "--x20", "0", "--quiet"])
    assert rc == 0
    data = np.loadtxt(out / "inner.csv", delimiter=",", skiprows=1)
    assert np.abs(data[:, 1:]).max() == 0.0
    report = json.loads((out / "inner_report.json").read_text())
    assert report["residual"] == 0.0


def test_sweep_with_fault_injection(tmp_path):
    # serial and forked-worker runs: the failing member is recorded with its
    # own message and both write the same bytes
    cfgp = write_config(tmp_path / "c.json",
                        epsilon_list=[0.2, 0.1, 0.05, 0.025, 0.26])
    written = {}
    for workers in ("1", "2"):
        out = tmp_path / f"sweep{workers}"
        rc = cli.main(["sweep", "--config", cfgp, "--out", str(out), "--quiet",
                       "--workers", workers])
        assert rc == 0
        scaling = json.loads((out / "scaling.json").read_text())
        assert [r["epsilon"] for r in scaling["rows"]] == [0.025, 0.05, 0.1, 0.2]
        assert len(scaling["excluded"]) == 1
        assert scaling["excluded"][0]["epsilon"] == 0.26
        assert scaling["excluded"][0]["error"].startswith("epsilon_ceiling: ")
        assert abs(scaling["slope_a0"] - 0.40) <= 0.08
        assert abs(scaling["slope_width"] + 0.20) <= 0.05
        assert (out / "eps_0.1" / "profile.csv").exists()
        assert not (out / "eps_0.26").exists()
        written[workers] = {
            str(f.relative_to(out)): f.read_bytes()
            for f in sorted(out.rglob("*"))
            if f.is_file() and f.name != "manifest.json"
        }
    assert written["1"] == written["2"]
    assert len(written["1"]) == 9


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
