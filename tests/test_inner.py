import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from orthowall import inner, ode, outer
from orthowall.params import derive_params, working_scaling


def test_cumquad_exact_on_cubics():
    z = np.linspace(-2.0, 3.0, 57)
    h = z[1] - z[0]
    f = 2.0 - z + 0.5 * z**2 - 0.25 * z**3
    exact = lambda t: 2 * t - t**2 / 2 + t**3 / 6 - t**4 / 16
    ref = exact(z[-1]) - exact(z)
    assert np.abs(ode._cumquad_right(f, h) - ref).max() < 1e-13


@pytest.mark.parametrize("a_minus, a_plus", [
    (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan), (0.0, 1.0), (1.0, -1.0),
])
def test_problem_rejects_bad_half_widths(a_minus, a_plus):
    # an infinite half-width would make the layer solve run without end
    with pytest.raises(ValueError, match="half-widths must be finite and positive"):
        inner.InnerProblem(a_minus=a_minus, a_plus=a_plus, boundary_plus=(0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_boundary_jet(bad):
    # a non-finite jet would fail only after ten halved sweeps, as a
    # diverging fixed-point iteration
    with pytest.raises(ValueError, match="boundary jet must be finite"):
        inner.InnerProblem(a_minus=1.0, a_plus=1.0, boundary_plus=(0.0, bad, 0.0, 0.0))


def test_scale_constant():
    assert inner.scale_constant(1.0) == pytest.approx(2.0**0.2, rel=1e-14)


def test_assemble_boundary_examples():
    fam = inner.assemble_boundary("plus", (1.0, 1.0), 1.0)
    assert fam == pytest.approx([1.0, -math.sqrt(2.0), 1.0, 0.0], abs=1e-15)
    a_m = 1.7
    fam = inner.assemble_boundary("minus", (0.0, 0.0), a_m)
    assert fam == pytest.approx([math.sqrt(a_m), 0.0, 0.0, 0.0], abs=1e-15)
    with pytest.raises(ValueError):
        inner.assemble_boundary("plus", (0.2, 0.0), 1.0, k=0.05)
    with pytest.raises(ValueError):
        inner.assemble_boundary("sideways", (0.0, 0.0), 1.0)


def test_picard_zero_data():
    prob = inner.InnerProblem(a_minus=1.0, a_plus=1.0,
                              boundary_plus=(0.0, 0.0, 0.0, 0.0),
                              grid_points=512)
    sol = inner.picard_solve(prob)
    assert np.abs(sol.jets).max() == 0.0
    assert len(sol.deltas[0]) == 1
    assert inner.inner_residual(sol) == 0.0


def test_contraction_constants():
    assert inner.contraction_constant(1.05) == pytest.approx(0.850854375, abs=1e-6)
    assert inner.contraction_constant(1.2) == pytest.approx(1.65888, abs=1e-5)
    prob = inner.InnerProblem(a_minus=1.2, a_plus=1.2,
                              boundary_plus=(0.01, 0.0, 0.0, 0.0))
    with pytest.raises(inner.ContractionViolated):
        inner.picard_solve(prob)


def test_picard_small_ball_ratio():
    k1 = 0.05
    fam = inner.assemble_boundary("plus", (k1 / math.sqrt(2), k1 / math.sqrt(2)), 1.0)
    prob = inner.InnerProblem(a_minus=1.0, a_plus=1.0, boundary_plus=tuple(fam))
    sol = inner.picard_solve(prob)
    ratios = sol.delta_ratios(floor=1e-13)
    assert ratios and max(ratios) <= 2.0 / 3.0 + 0.05
    assert inner.inner_residual(sol) < 1e-8


def _cascade_problem() -> inner.InnerProblem:
    # width ratio from nu_plus/nu_minus = 10 at delta = 1
    a_plus = 1.05
    fam = inner.assemble_boundary("plus", (1e-4, -1e-4), a_plus)
    return inner.InnerProblem(a_minus=a_plus * 10.0**0.8, a_plus=a_plus,
                              boundary_plus=tuple(fam), grid_points=3000)


def _volterra_sweep_reference(z, anchor):
    # the sweep as one full application of the Volterra operator per
    # iteration, kept as the reference for the A-row iteration
    a = inner._taylor_rows(z - z[-1], anchor)[0]
    deltas = []
    while True:
        a0 = inner._apply_volterra(z, a, anchor)[0]
        deltas.append(float(np.abs(a0 - a).max()))
        a = a0
        if deltas[-1] < inner.PICARD_TOL:
            return np.vstack(inner._apply_volterra(z, a, anchor)), deltas


@pytest.mark.parametrize("sweep", [0, 1], ids=["first", "extension"])
def test_picard_sweep_matches_volterra_reference(monkeypatch, sweep):
    calls = []
    picard = inner._picard_sweep

    def recorded(z, anchor):
        calls.append((z, anchor.copy()))
        return picard(z, anchor)

    monkeypatch.setattr(inner, "_picard_sweep", recorded)
    inner.solve_inner(_cascade_problem())
    jets, deltas = picard(*calls[sweep])
    ref_jets, ref_deltas = _volterra_sweep_reference(*calls[sweep])
    assert np.array_equal(jets, ref_jets)
    assert deltas == ref_deltas


def test_cumquad_right_stacked_rows():
    f = np.random.default_rng(3).normal(size=(4, 501))
    stacked = ode._cumquad_right(f, 0.02)
    for row, ref in zip(stacked, f):
        assert np.array_equal(row, ode._cumquad_right(ref.copy(), 0.02))


def test_extension_cascade_count():
    prob = _cascade_problem()
    ext = inner.solve_inner(prob)
    assert ext.z[0] == pytest.approx(-prob.a_minus, abs=1e-12)
    # per-step budget X^4 (a_far + 3 amp^2)/24 = 1/2 gives the first sweep
    # and five leftward ones
    assert len(ext.segments) == 6
    assert inner.inner_residual(ext) < 1e-8


def test_resampled_is_scipys_hermite():
    # the resampling behind inner_residual on a multi-sweep solution makes
    # the values of scipy's CubicHermiteSpline on each jet row, bit for bit
    ext = inner.solve_inner(_cascade_problem())
    g = ext.jets[0] * (ext.jets[0] ** 2 + ext.z)
    slopes = [ext.jets[1], ext.jets[2], ext.jets[3], -g]
    for n in (ext.z.size, 3 * ext.z.size + 1):
        got = ext.resampled(n)
        zu = np.linspace(ext.z[0], ext.z[-1], n)
        assert np.array_equal(got.z, zu)
        ref = np.array([CubicHermiteSpline(ext.z, ext.jets[j], slopes[j])(zu)
                        for j in range(4)])
        assert np.array_equal(got.jets, ref)


def _failing_sweeps(monkeypatch, failing) -> list[float]:
    """Make the sweeps numbered in ``failing`` (0 is the first) raise
    NonConvergence; returns the span of every sweep tried."""
    spans = []
    sweep = inner._picard_sweep

    def flaky(z, anchor):
        spans.append(z[-1] - z[0])
        if len(spans) - 1 in failing:
            raise inner.NonConvergence("injected failure", [1.0])
        return sweep(z, anchor)

    monkeypatch.setattr(inner, "_picard_sweep", flaky)
    return spans


@pytest.mark.parametrize("failing", [0, 1], ids=["first", "extension"])
def test_failed_sweep_retries_at_half_step(monkeypatch, failing):
    # the first sweep and each leftward extension share one retry: a sweep
    # that does not converge is tried again over half its span
    prob = _cascade_problem()
    spans = _failing_sweeps(monkeypatch, {failing})
    sol = inner.solve_inner(prob)
    assert spans[failing + 1] == pytest.approx(0.5 * spans[failing], rel=1e-12)
    assert sol.segments[failing][1] - sol.segments[failing][0] == pytest.approx(
        spans[failing + 1], rel=1e-12)
    assert sol.z[0] == pytest.approx(-prob.a_minus, abs=1e-12)
    assert inner.inner_residual(sol) < 1e-8


@pytest.mark.parametrize("failing", [0, 1], ids=["first", "extension"])
def test_ten_failed_sweeps_reraise(monkeypatch, failing):
    spans = _failing_sweeps(monkeypatch, set(range(failing, failing + 10)))
    with pytest.raises(inner.NonConvergence, match="injected"):
        inner.solve_inner(_cascade_problem())
    assert len(spans) == failing + 10
    assert spans[-1] == pytest.approx(spans[failing] / 2**9, rel=1e-9)


def test_single_sweep_ends_at_left_end():
    # a+ + a- rounds here, and the first sweep stops at -a- itself, not at
    # a+ - (a+ + a-), one rounding below it
    fam = inner.assemble_boundary("plus", (0.03, 0.02), 1.0)
    sol = inner.solve_inner(inner.InnerProblem(0.3, 1.0, tuple(fam)))
    assert len(sol.segments) == 1 and sol.z[0] == -0.3


def test_extend_noop_when_target_inside():
    prob = inner.InnerProblem(a_minus=1.0, a_plus=1.0,
                              boundary_plus=(0.01, 0.0, 0.0, 0.0),
                              grid_points=512)
    sol = inner.picard_solve(prob)
    segments = list(sol.segments)
    z, jets = inner._extend_left(sol.z, sol.jets, [list(sol.deltas[0])],
                                 segments, -1.0, prob)
    assert z is sol.z and jets is sol.jets and segments == sol.segments
    assert len(inner.solve_inner(prob).segments) <= 2


def test_residual_monotone_refinement():
    fam = inner.assemble_boundary("plus", (0.03, 0.02), 1.0)
    prob = inner.InnerProblem(a_minus=1.0, a_plus=1.0, boundary_plus=tuple(fam))
    sol = inner.picard_solve(prob)
    truncated = inner.InnerSolution(
        z=sol.z,
        jets=np.vstack(inner._apply_volterra(
            sol.z, inner._taylor_rows(sol.z - sol.z[-1],
                                      np.asarray(prob.boundary_plus))[0],
            np.asarray(prob.boundary_plus))),
        deltas=sol.deltas, segments=sol.segments, problem=prob)
    assert inner.inner_residual(truncated) > inner.inner_residual(sol)


def test_solution_lipschitz_in_boundary_data():
    base = inner.assemble_boundary("plus", (0.03, 0.02), 1.0)
    pert = inner.assemble_boundary("plus", (0.03 + 1e-6, 0.02), 1.0)
    s0 = inner.picard_solve(inner.InnerProblem(1.0, 1.0, tuple(base)))
    s1 = inner.picard_solve(inner.InnerProblem(1.0, 1.0, tuple(pert)))
    assert np.abs(s1.jets[0] - s0.jets[0]).max() <= 1e-4


def test_quadrature_refinement():
    fam = inner.assemble_boundary("plus", (0.04, -0.02), 1.0)
    sols = {}
    for n in (512, 1024, 2048):
        prob = inner.InnerProblem(1.0, 1.0, tuple(fam), grid_points=n)
        sols[n] = inner.picard_solve(prob).jets[0]
    d1 = np.abs(sols[1024][::2] - sols[512]).max()
    d2 = np.abs(sols[2048][::2] - sols[1024]).max()
    # order-4 quadrature: the coarse difference should shrink ~16x; allow 4x slack
    assert d1 <= 4.0 * 16.0 * d2 + 1e-15


def test_inner_scale_round_trip():
    p = derive_params(0.1, 2.0)
    assert inner.scale_constant(p.delta) == pytest.approx(1.14869835, abs=1e-7)


def test_junction_maps_to_half_width():
    p = derive_params(0.1, 1.5)
    sc = working_scaling(p)
    K = inner.scale_constant(p.delta)
    z = K * p.epsilon**0.2 * sc.x_star_plus
    assert z == pytest.approx(sc.a_plus, rel=1e-12)


def test_full_equation_perturbation_slope():
    # the eps-dependent corner equation approaches the rescaled limit problem
    # at rate eps^(4/5): log-log slope of the sup gap ~ 0.8
    g = 1.5
    tangent = (0.03, 0.02)
    errs, epss = [], [0.2, 0.1, 0.05, 0.025]
    for eps in epss:
        p = derive_params(eps, g)
        sc = working_scaling(p)
        fam = inner.assemble_boundary("plus", tangent, sc.a_plus)
        prob = inner.InnerProblem(sc.a_minus, sc.a_plus, tuple(fam),
                                  grid_points=1024)
        sol = inner.solve_inner(prob)
        K = inner.scale_constant(p.delta)
        e5 = p.epsilon**0.2
        rg = math.sqrt(p.g1)

        def rhs(x, y):
            # B-profile in the corner normalization that the rescaled layer
            # problem linearizes (unit slope of the rescaled B in z)
            tt = math.tanh(p.epsilon * math.sqrt(2.0) * x)
            b0 = (1.0 + rg * tt) / (rg + tt)
            return [y[1], y[2], y[3],
                    -y[0] * (y[0] ** 2 + p.g1 * b0**2 - 1.0)]

        x_plus = sc.x_star_plus
        # the j-th jet entry scales back by (K eps^(1/5))^(2+j)
        jet = np.asarray(fam) * np.array([(K * e5) ** (2 + j) for j in range(4)])
        full = solve_ivp(rhs, (x_plus, -sc.x_star), jet, method="DOP853",
                         dense_output=True, rtol=1e-11, atol=1e-13)
        assert full.success
        zs = np.linspace(-sc.a_minus, sc.a_plus, 300)
        a_full = np.array([
            full.sol(float(z / (K * e5)))[0] / (K**2 * p.epsilon**0.4)
            for z in zs
        ])
        a_inner = np.interp(zs, sol.z, sol.jets[0])
        errs.append(np.abs(a_full - a_inner).max())
    slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
    assert abs(slope - 0.8) <= 0.15


def test_inner_csv(tmp_path):
    fam = inner.assemble_boundary("plus", (0.03, 0.02), 1.0)
    sol = inner.picard_solve(inner.InnerProblem(1.0, 1.0, tuple(fam)))
    path = tmp_path / "inner.csv"
    sol.to_csv(str(path))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (sol.z.size, 6)
    assert np.abs(data[:, 5]).max() < 1e-8
