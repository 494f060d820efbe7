import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from orthowall import connect, dynamics, frames, integrate, outer
from orthowall.params import derive_params, working_scaling


@pytest.fixture(scope="module")
def p():
    return derive_params(0.1, 1.5)


def shot(s0, span, p, **kw):
    kw.setdefault("rtol", 1e-10)
    kw.setdefault("atol", 1e-12)
    kw.setdefault("method", "DOP853")
    sol = solve_ivp(lambda x, y: dynamics.vector_field(y, p), span, s0, **kw)
    assert sol.success
    return sol


def kernel_shot(s0, span, p, rtol=1e-10, atol=1e-12):
    """The program's core shot: the accepted steps of ``connect._shoot``."""
    return connect._shoot(np.asarray(s0, dtype=float), span, p, rtol, atol)[1]


def w_of(states, p):
    return np.array([dynamics.first_integral(s, p) for s in states])


def test_equilibrium_constant(p):
    steps = kernel_shot(dynamics.M_MINUS, (0.0, 50.0), p)
    assert steps.ts[-1] == 50.0
    assert np.abs(steps.ys - dynamics.M_MINUS).max() < 1e-12
    w = w_of(steps.ys, p)
    assert np.abs(w - w[0]).max() == 0.0


def test_tanh_branch_oracle(p):
    s0 = outer.right_leaf_states(p.inv_sqrt_g, p)[0]
    steps = kernel_shot(s0, (0.0, 10.0 / p.epsilon), p, rtol=1e-12, atol=1e-14)
    ref = outer.right_tail_b0(steps.ts, 0.0, p.inv_sqrt_g, p)
    assert np.abs(steps.ys[:, 4] - ref).max() < 1e-8
    assert np.abs(steps.ys[:, :4]).max() == 0.0


def test_event_location_against_bisection(p):
    # stage 5 locates B crossings by bracketed Newton on B' (connect._b_crossing)
    # on the dense output of kernel shots; the root here is checked against
    # plain bisection on the same dense solution
    sc = working_scaling(p)
    b_start = 0.9 * sc.b00
    seed = outer.leaf_states(b_start, p)[0]
    # nudge the fast pair so the orbit actually leaves the branch and crosses
    # (it runs away near x = 14, so the shot stops at 10)
    dev = frames.slow_coord_matrices(b_start, p)[:, :2] @ np.array([1e-3, 0.0])
    seed[:4] += dev[:4]
    seed[5] = dynamics.b1_from_invariant(seed[:4], b_start, p)
    target = p.inv_sqrt_g
    steps = kernel_shot(seed, (0.0, 10.0), p, rtol=1e-12, atol=1e-14)
    dense = connect._dense_solution(p, steps)

    def state_at(x):
        return dense(np.array([x]))[:, 0]

    def fn(x):
        return float(state_at(x)[4]) - target

    above = np.flatnonzero(steps.ys[:, 4] > target)
    # one crossing between the step knots
    assert above.size and above[0] > 0 and above.size == steps.ts.size - above[0]
    lo, hi = steps.ts[above[0] - 1], steps.ts[above[0]]
    xe = connect._b_crossing(state_at, target, 0.5 * (lo + hi), lo, hi)
    # independent bisection on the dense output
    lo, hi = xe - 0.5, xe + 0.5
    assert fn(lo) < 0 < fn(hi)
    for _ in range(60):
        m = 0.5 * (lo + hi)
        if fn(m) > 0:
            hi = m
        else:
            lo = m
    assert abs(0.5 * (lo + hi) - xe) < 1e-10


def test_step_halving_order(p):
    s0 = outer.right_leaf_states(p.inv_sqrt_g, p)[0]
    s0 = s0 + np.array([1e-3, 0, 0, 0, 0, 0])
    s0[5] = dynamics.b1_from_invariant(s0[:4], s0[4], p)
    ref = shot(s0, (0.0, 4.0), p, rtol=1e-13, atol=1e-15).y[:, -1]
    errs = []
    for h in (0.5, 0.25):
        end = shot(s0, (0.0, 4.0), p, rtol=1e-2, atol=1e12, max_step=h,
                   method="RK45").y[:, -1]
        errs.append(np.abs(end - ref).max())
    order = math.log2(errs[0] / errs[1])
    assert order >= 4.0


def test_w_drift_bound(p):
    s0 = outer.right_leaf_states(0.8, p)[0] + np.array([0.05, 0, 0.01, 0, 0, 0.002])
    w = w_of(kernel_shot(s0, (0.0, 10.0), p).ys, p)
    assert np.abs(w - w[0]).max() <= 100.0 * 1e-10 * (1.0 + 10.0)


def test_backward_return(p):
    s0 = outer.right_leaf_states(0.75, p)[0]
    fwd = kernel_shot(s0, (0.0, 5.0), p)
    back = kernel_shot(fwd.ys[-1], (5.0, 0.0), p)
    assert back.ts[-1] == 0.0
    tol = 1e-10 * np.abs(s0).max() + 1e-12
    assert np.abs(back.ys[-1] - s0).max() <= 10.0 * tol * 1e3  # margin


def test_blowup_reports_error(p):
    s0 = np.array([0, 0, 0, 0, 2.0, 1.0])
    with pytest.raises(connect.RealizationError):
        connect._shoot(s0, (0.0, 500.0), p, 1e-10, 1e-12)


def test_csv_round_trip(tmp_path, p):
    s0 = outer.right_leaf_states(0.8, p)[0]
    sol = shot(s0, (0.0, 3.0), p)
    states = sol.y.T
    w = w_of(states, p)
    path = tmp_path / "traj.csv"
    integrate.write_profile_csv(str(path), sol.t, states, w)
    x, states2, w2 = integrate.read_profile_csv(str(path))
    assert np.array_equal(x, sol.t)
    assert np.array_equal(states2, states)
    assert np.array_equal(w2, w)


def test_csv_bytes_equal_savetxt(tmp_path):
    # the blocked writer writes the bytes of np.savetxt, also for -0.0, nan,
    # inf and a subnormal, and for a row count past a whole number of blocks
    rng = np.random.default_rng(3)
    n = 2 * integrate.CSV_BLOCK_ROWS + 37
    data = rng.normal(size=(n, 8)) * 10.0 ** rng.integers(-300, 300, size=(n, 8))
    data[0, :5] = [-0.0, np.nan, np.inf, -np.inf, 5e-324]
    data[n - 1, 3] = -0.0
    path = tmp_path / "profile.csv"
    integrate.write_profile_csv(str(path), data[:, 0], data[:, 1:7], data[:, 7])
    ref = tmp_path / "savetxt.csv"
    np.savetxt(ref, data, delimiter=",", header="x,A0,A1,A2,A3,B0,B1,W", comments="",
               fmt="%.17g")
    assert path.read_bytes() == ref.read_bytes()
    assert path.read_bytes().count(b"\n") == n + 1


HEADER = "x,A0,A1,A2,A3,B0,B1,W"


def percent_rows(header, data):
    """The oracle: each row by Python's own ``'%.17g' %``."""
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    return (header + "\n" + "".join(row % tuple(r) for r in data.tolist())).encode()


def written(path, data, header=HEADER):
    integrate.write_csv(str(path), header, [data])
    return path.read_bytes()


def in_rows(values):
    """values padded with 1.0 to whole rows of 8."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.ones(-values.size % 8)]).reshape(-1, 8)


def ulps(x, n=3):
    """x and its n neighbours on either side."""
    out = [x]
    up = down = x
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "rows.csv"


# hypothesis' pytest plugin trips this deprecation while it reports a
# failure; as an error it would abort the session and hide the example
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.lists(st.floats(), min_size=8, max_size=8), min_size=1, max_size=40))
def test_csv_bytes_equal_percent_format(csv_path, rows):
    # any doubles, nan, inf and subnormals among them
    data = np.array(rows, dtype=float)
    assert written(csv_path, data) == percent_rows(HEADER, data)


def _edge_families():
    powers = [v for e in range(-300, 23) for v in ulps(float(f"1e{e}"))]
    switches = [v for x in (1e-5, 1e-4, 9.99999e-5, 1e16, 1e17, 9999999999999998.0,
                            99999999999999984.0) for v in ulps(x, 8)]
    # neighbours of 9.9999999999999999 10**e, whose 17 digits round up to
    # the next power of ten (and switch notation at 1e-4 and 1e16)
    round_up = [v for e in range(-300, 17) for v in ulps(float(f"9.9999999999999999e{e}"))]
    # exact 18-digit ties: odd c over 2**s (an exact double for c < 2**53)
    # has the s decimals of c 5**s / 10**s, the last a 5; %.17g rounds them
    # half to even
    rng = np.random.default_rng(5)
    ties = [1000000000000000.25, (4e15 + 1) / 4, 1000000000000000.75]
    for s in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** s), min(10 ** 18 // 5 ** s, 2 ** 53)
        ties += [c / 2 ** s for c in (rng.integers(lo, hi, size=60) | 1).tolist()
                 if len(str(c * 5 ** s)) == 18]
    return {"powers": powers, "switches": switches, "round_up": round_up,
            "ties": ties}


EDGES = _edge_families()


@pytest.mark.parametrize("family", sorted(EDGES))
def test_csv_bytes_on_edge_families(tmp_path, family):
    values = np.array(EDGES[family])
    if family == "ties":
        # every tie is left to Python, also ties at 1e-8
        assert values.size > 1000 and values.min() < 1e-7
        assert integrate._decimal(values)[2].all()
    data = in_rows(np.concatenate([values, -values]))
    assert written(tmp_path / "edges.csv", data) == percent_rows(HEADER, data)


def test_anchor_profile_bytes(tmp_path, profile15):
    # the anchor's profile.csv is the oracle's bytes, and only its exact
    # zeros leave the fast path (a regression sending values to Python
    # would keep the bytes but not the speed)
    prof = profile15.value
    path = tmp_path / "profile.csv"
    prof.to_csv(str(path))
    data = np.column_stack([prof.x, prof.states, prof.w])
    assert path.read_bytes() == percent_rows(HEADER, data)
    values = data.ravel()
    assert values.size == 32_008
    assert np.array_equal(integrate._decimal(values)[2], values == 0.0)


def _package_imports():
    """(file name, line, imported name) of every import statement in the
    package's modules, also those inside a function."""
    for path in sorted(Path(connect.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            yield from ((path.name, node.lineno, name) for name in names)


def test_one_integration_path():
    # every shot goes through connect._dop853: no module of the package
    # imports scipy.integrate or solve_ivp, not even inside a function
    found = [f"{file}:{line} {name}" for file, line, name in _package_imports()
             if (name + ".").startswith("scipy.integrate.")
             or name.split(".")[-1] == "solve_ivp"]
    assert found == []


def test_one_process_mechanism():
    # every child process is a forked.Forked: no module of the package
    # imports multiprocessing or concurrent.futures, not even inside a
    # function, and only forked.py names os.fork
    found = [f"{file}:{line} {name}" for file, line, name in _package_imports()
             if name.split(".")[0] == "multiprocessing"
             or (name + ".").startswith("concurrent.futures.") or name == "os.fork"]
    for path in sorted(Path(connect.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{node.lineno} os.fork"
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Attribute) and node.attr == "fork"
                  and isinstance(node.value, ast.Name) and node.value.id == "os"
                  and path.name != "forked.py"]
    assert found == []


def test_only_linop_imports_scipy():
    # the solve, sweep, verify and inner run on numpy alone: of the
    # package's modules only linop, behind the spectrum command, imports
    # scipy, at the top or inside a function
    found = [f"{file}:{line} {name}" for file, line, name in _package_imports()
             if name.split(".")[0] == "scipy" and file != "linop.py"]
    assert found == []
