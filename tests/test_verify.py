import os
import signal
import time

import numpy as np
import pytest

from orthowall import connect, inner, verify
from orthowall.integrate import write_json
from orthowall.params import derive_params

def test_fit_plain_rate():
    x = np.linspace(0.0, 30.0, 400)
    fit = verify.fit_exponential_rate(x, np.exp(-0.3 * x), target=0.3)
    assert abs(fit.rate - 0.300) < 1e-3
    assert fit.rel_err < 1e-3 / 0.3


def test_fit_envelope_rate():
    x = np.linspace(0.0, 60.0, 4000)
    y = np.exp(-0.2 * x) * np.cos(x)
    fit = verify.fit_exponential_rate(x, y, envelope=True, target=0.2)
    assert abs(fit.rate - 0.200) < 5e-3
    assert fit.envelope and fit.n_points >= 3


def test_fit_constant_data():
    x = np.linspace(0.0, 10.0, 50)
    fit = verify.fit_exponential_rate(x, np.full(50, 0.7))
    assert fit.rate == 0.0


def test_fit_insufficient_tail():
    x = np.linspace(0.0, 3.0, 40)
    with pytest.raises(verify.InsufficientTail):
        verify.fit_exponential_rate(x, np.exp(-x) * np.cos(x), envelope=True)


def test_profile_rates_within_ten_percent(profile15):
    fits = verify.fit_decay_rates(profile15.value)
    assert set(fits) == {"left_b", "left_a", "right_b", "right_a_envelope"}
    for fit in fits.values():
        assert fit.rel_err < 0.10


def test_envelope_bounds_pass(profile15):
    rep = verify.envelope_bounds(profile15.value)
    assert rep.passed
    for e in rep.entries:
        assert e.measured <= 50.0


def test_envelope_violation_flagged(p15, profile15):
    prof = profile15.value

    class Tampered:
        p = p15
        x = prof.x
        x_star_plus = prof.x_star_plus

        @staticmethod
        def sample(xs):
            st = prof.sample(xs)
            st = st.copy()
            st[:, 0] = 10.0  # absurd flat amplitude violates every envelope
            return st

    rep = verify.envelope_bounds(Tampered())
    assert not rep.passed


def test_unfittable_rate_is_a_failed_entry(profile15):
    # with A zeroed right of the corner the envelope has no maxima: the
    # battery records a failed rate entry and keeps every other check
    prof = profile15.value

    class Flat:
        p = prof.p
        x = prof.x
        x_star_plus = prof.x_star_plus
        states = prof.states
        w = prof.w

        @staticmethod
        def sample(xs):
            st = prof.sample(xs).copy()
            st[np.asarray(xs) > 0.0, :4] = 0.0
            return st

    with pytest.raises(verify.InsufficientTail, match="right_a_envelope"):
        verify.fit_decay_rates(Flat())
    rep = verify.verify_profile(Flat())
    entries = {e.name: e for e in rep.entries}
    assert list(entries) == [e.name for e in verify.verify_profile(prof).entries]
    failed = entries["rate_right_a_envelope"]
    assert not failed.passed and np.isnan(failed.measured)
    assert "not fitted" in failed.claim
    assert [n for n, e in entries.items() if not e.passed] == ["rate_right_a_envelope"]


def test_verify_profile_battery(profile15):
    rep = verify.verify_profile(profile15.value)
    assert rep.passed
    names = [e.name for e in rep.entries]
    assert "first_integral" in names and "b_prime_positive" in names
    d = rep.to_dict()
    assert d["passed"] is True
    # deterministic: a second pass gives the identical report
    rep2 = verify.verify_profile(profile15.value)
    assert rep2.to_dict() == d


def test_scaling_study_preconditions():
    with pytest.raises(ValueError, match="at least 4"):
        verify.scaling_sweep(1.5, [0.1])


def test_scaling_study_slopes(sweep15):
    fit = sweep15.value
    assert abs(fit["slope_a0"] - 0.40) <= 0.08
    assert abs(fit["slope_width"] - (-0.20)) <= 0.05
    assert len(fit["rows"]) == 4
    assert not fit["excluded"]


def test_scaling_study_excludes_failures(member_fault):
    # one member whose solve fails is reported, also when the members run
    # in forked worker processes
    fits = {}
    for workers in (1, 2):
        fit = verify.scaling_sweep(1.5, [0.2, 0.1, 0.05, 0.025, 0.15],
                                   workers=workers)
        assert len(fit["excluded"]) == 1
        assert fit["excluded"][0]["epsilon"] == 0.15
        assert fit["excluded"][0]["error"] == "injected fault"
        assert len(fit["rows"]) == 4
        fits[workers] = fit
    assert fits[1] == fits[2]


_README_SWEEP = (1.5, [0.2, 0.1, 0.05, 0.025])


@pytest.fixture(scope="module")
def cold_members(tmp_path_factory):
    """Each README sweep member solved on its own: its scaling row and the
    bytes of its profile.csv and report.json."""
    g, eps_list = _README_SWEEP
    out = tmp_path_factory.mktemp("cold")
    rows, files = [], {}
    for eps in sorted(eps_list):
        prof = connect.heteroclinic_solve(derive_params(eps, g), connect.SolveConfig())
        prof.to_csv(str(out / "profile.csv"))
        write_json(out / "report.json", prof.report())
        files[f"eps_{eps:g}"] = {name: (out / name).read_bytes()
                                 for name in ("profile.csv", "report.json")}
        rows.append({"epsilon": eps, "a0_at_zero": prof.a0_at_zero,
                     "corner_half_width": abs(prof.x_star_left),
                     "b0_at_zero": prof.b0_at_zero})
    return rows, files


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_members_are_cold_solves(tmp_path, cold_members, workers):
    # a sweep shares one stage-1 matching among its members; each member
    # still writes the bytes, and gives the row, of its own solve
    rows, files = cold_members
    g, eps_list = _README_SWEEP
    fit = verify.scaling_sweep(g, eps_list, workers=workers, out_dir=tmp_path)
    assert fit["rows"] == rows
    assert not fit["excluded"]
    for sub, expected in files.items():
        for name, data in expected.items():
            assert (tmp_path / sub / name).read_bytes() == data, (sub, name)


def test_failed_matching_fails_every_member(monkeypatch):
    # a stage 1 that raises fails each member with its own text, serially
    # and in forked workers
    def failing(scaling, u0):
        raise connect.MatchingError("x")

    monkeypatch.setattr(connect, "newton_match", failing)
    g, eps_list = _README_SWEEP
    for workers in (1, 2):
        fit = verify.scaling_sweep(g, eps_list, workers=workers)
        assert fit["rows"] == []
        assert fit["excluded"] == [{"epsilon": eps, "error": "x"}
                                   for eps in sorted(eps_list)]


@pytest.mark.parametrize("workers", [0, -3])
def test_library_sweep_rejects_workers_below_one(monkeypatch, workers):
    # as at the CLI, and before any member or stage 1 is solved
    def unsolved(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(connect, "heteroclinic_solve", unsolved)
    monkeypatch.setattr(connect, "solve_matching", unsolved)
    g, eps_list = _README_SWEEP
    for sweep in (verify.solve_members, verify.scaling_sweep):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            sweep(g, eps_list, workers=workers)


def test_sweep_layer_solve_guard(monkeypatch):
    # stage 1 depends on (g, nu+-) alone, so a 4-member sweep solves the
    # layer problem as often as one solve does: 15 times, where solving
    # stage 1 per member took 60
    calls = []
    solve_inner = inner.solve_inner

    def counted(prob):
        calls.append(prob)
        return solve_inner(prob)

    monkeypatch.setattr(inner, "solve_inner", counted)
    g, eps_list = _README_SWEEP
    fit = verify.scaling_sweep(g, eps_list)
    assert len(fit["rows"]) == 4
    assert 0 < len(calls) <= 16


def _all_reaped(pids) -> bool:
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


def test_dead_member_child_costs_only_that_member(monkeypatch, fork_pids):
    # a member whose child exits without a result is that member's error,
    # naming the wait status; every other member keeps its row
    solve = connect.heteroclinic_solve

    def dying(p, *args, **kwargs):
        if p.epsilon == 0.15:
            os._exit(3)
        return solve(p, *args, **kwargs)

    monkeypatch.setattr(connect, "heteroclinic_solve", dying)
    rows, excluded = verify.solve_members(1.5, [0.2, 0.1, 0.05, 0.025, 0.15], workers=2)
    assert [r["epsilon"] for r in rows] == [0.025, 0.05, 0.1, 0.2]
    assert [r["epsilon"] for r in excluded] == [0.15]
    assert "wait status 768" in excluded[0]["error"]
    assert len(fork_pids) == 5 and _all_reaped(fork_pids)


def test_sweep_without_a_process_to_spare_solves_here(monkeypatch):
    # a fork that fails leaves each member to this process: the records of
    # a serial sweep, and no descriptor left open
    g, eps_list = _README_SWEEP
    serial = verify.solve_members(g, eps_list, workers=1)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert verify.solve_members(g, eps_list, workers=2) == serial
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds


def test_interrupted_sweep_kills_every_member_child(monkeypatch, fork_pids):
    # an interrupt while the parent waits for a member does not wait for
    # the running members: each child is killed and reaped
    monkeypatch.setattr(connect, "heteroclinic_solve", lambda *args: time.sleep(60))

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    t0 = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            verify.solve_members(*_README_SWEEP, workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < 30.0
    assert len(fork_pids) == 2 and _all_reaped(fork_pids)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity call")
def test_member_child_keeps_the_parents_cpus(monkeypatch, fork_pids):
    # only a solve's stage-1 child leaves its parent's CPU: two members
    # moved off it on a 2-CPU host would share the one CPU left
    monkeypatch.setattr(verify, "solve_member", lambda g, eps, *args: {
        "epsilon": eps, "cpus": sorted(os.sched_getaffinity(0))})
    g, eps_list = _README_SWEEP
    rows, excluded = verify.solve_members(g, eps_list, workers=2)
    assert [r["cpus"] for r in rows] == [sorted(os.sched_getaffinity(0))] * len(eps_list)
    assert len(fork_pids) == len(eps_list) and not excluded
