import math

import pytest

from orthowall import params


def test_derive_params_examples():
    assert params.derive_params(0.1, 2.0).delta == pytest.approx(1.0, abs=1e-15)
    assert params.derive_params(0.1, 1.25).delta == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(params.AdmissibilityError) as exc:
        params.derive_params(0.1, 1.05)
    assert exc.value.name == "g_range"


def test_derive_params_rejections():
    with pytest.raises(params.AdmissibilityError):
        params.derive_params(-0.1, 1.5)
    with pytest.raises(params.AdmissibilityError):
        params.derive_params(0.0, 1.5)
    with pytest.raises(params.AdmissibilityError):
        params.derive_params(0.1, 2.5)
    with pytest.raises(params.AdmissibilityError) as exc:
        params.derive_params(0.3, 1.5)
    assert exc.value.name == "epsilon_ceiling"


@pytest.mark.parametrize("eps, g, name", [
    (0.1, math.nan, "g_range"),
    (math.nan, 1.5, "epsilon_positive"),
    (0.1, math.inf, "g_range"),
])
def test_derive_params_rejects_nan(eps, g, name):
    # NaN compares false with every bound, so each check must be written to
    # fail on it rather than to pass
    with pytest.raises(params.AdmissibilityError) as exc:
        params.derive_params(eps, g)
    assert exc.value.name == name


@pytest.mark.parametrize("nu", [{"nu_plus": math.nan}, {"nu_minus": math.nan},
                                {"nu_plus": math.inf}, {"nu_minus": -0.1}])
def test_scaling_rejects_nan_nu(nu):
    p = params.derive_params(0.1, 1.5)
    for build in (params.scaling_from_epsilon, params.working_scaling):
        with pytest.raises(params.AdmissibilityError) as exc:
            build(p, **nu)
        assert exc.value.name == "nu_positive"


def test_a_plus_at_extremal_nu():
    # delta = 1, nu_plus at its upper bound: a_plus close to the quoted 1.05
    p = params.derive_params(0.1, 2.0)
    nu_plus = math.sqrt(2.0) / 3.0
    sc = params.scaling_from_epsilon(p, nu_plus=nu_plus, strict=False)
    assert sc.a_plus == pytest.approx(1.04824, abs=1e-4)
    assert abs(sc.a_plus - 1.05 * ((1 + p.delta**2) / 2.0) ** 0.4) < 2e-3


def test_x_star_example():
    # delta = 1, nu_minus at its bound: x_star ~ 30.24 eps^(-1/5)
    p = params.derive_params(0.1, 2.0)
    nu_minus = 0.5 / 84.33
    sc = params.scaling_from_epsilon(p, nu_minus=nu_minus, strict=False)
    coeff = sc.x_star * p.epsilon**0.2
    assert coeff == pytest.approx(1.0 / (2.0 * nu_minus**0.8), rel=1e-12)
    assert coeff == pytest.approx(30.26, rel=1.5e-3)


def test_nu_plus_upper_rejection():
    p = params.derive_params(0.1, 2.0)
    with pytest.raises(params.AdmissibilityError) as exc:
        params.scaling_from_epsilon(p, nu_plus=1.0)
    assert exc.value.name == "nu_plus_upper"


def test_nu_plus_lower_rejection():
    p = params.derive_params(0.1, 2.0)
    with pytest.raises(params.AdmissibilityError) as exc:
        params.scaling_from_epsilon(p, nu_plus=0.3)
    assert exc.value.name == "nu_plus_lower"


def test_nu_minus_rejection_names_single_inequality():
    p = params.derive_params(0.1, 1.5)
    with pytest.raises(params.AdmissibilityError) as exc:
        params.scaling_from_epsilon(p, nu_minus=0.1)
    assert exc.value.name == "nu_minus_upper"
    assert "84.33" in str(exc.value)


def test_epsilon_reconstruction_exact():
    for g in (1.25, 1.5, 2.0):
        for eps in (0.025, 0.1, 0.25):
            p = params.derive_params(eps, g)
            sc = params.working_scaling(p)
            assert sc.nu_minus * sc.alpha_minus**2.5 == pytest.approx(eps, rel=1e-14)
            assert sc.nu_plus * sc.alpha_plus**2.5 == pytest.approx(eps, rel=1e-14)


def test_half_width_ratio_identity():
    p = params.derive_params(0.05, 1.5)
    sc = params.scaling_from_epsilon(p, strict=True)
    assert sc.a_minus / sc.a_plus == pytest.approx(
        (sc.nu_plus / sc.nu_minus) ** 0.8, rel=1e-13)


def test_strict_defaults_admissible():
    for g in (1.2, 1.5, 2.0):
        p = params.derive_params(0.05, g)
        sc = params.scaling_from_epsilon(p, strict=True)
        assert sc.supported
        assert 2.0 * sc.a_plus**5 / 3.0 < 1.0


def test_working_scaling_flags_unsupported_regime():
    p = params.derive_params(0.1, 1.5)
    sc = params.working_scaling(p)
    assert sc.violations == ("nu_minus_upper",)
    assert not sc.supported
    assert sc.alpha_minus * sc.delta < 0.95
    assert sc.rho == pytest.approx(1.0, abs=1e-14)


def test_working_scaling_rejects_huge_epsilon():
    p = params.derive_params(0.25, 2.0)
    params.working_scaling(p)  # still fine at the ceiling
    # above the ceiling, which derive_params rejects
    p2 = params.Params(epsilon=0.5, g=2.0, delta=1.0)
    with pytest.raises(params.AdmissibilityError):
        params.working_scaling(p2)


def test_physical_regimes():
    rows = params.physical_regimes()
    expected = {
        "rigid-rigid": (1.227, 0.476, 0.5308),
        "rigid-free": (1.332, 0.576, 0.6222),
        "free-free": (1.423, 0.650, 0.8078),
    }
    assert len(rows) == 3
    for label, g_min, delta_min, prandtl in rows:
        g_ref, d_ref, pr_ref = expected[label]
        assert g_min == g_ref
        assert delta_min == pytest.approx(math.sqrt(g_min - 1.0), rel=1e-15)
        assert abs(delta_min - d_ref) < 1e-3
        assert prandtl == pr_ref


def test_section_amplitudes():
    p = params.derive_params(0.1, 1.5)
    sc = params.working_scaling(p)
    g1 = 1.0 + p.delta**2
    assert sc.b00 == pytest.approx(
        math.sqrt((1 - sc.alpha_minus**2 * p.delta**2) / g1), rel=1e-14)
    assert sc.b01 == pytest.approx(
        math.sqrt((1 + sc.alpha_plus**2 * p.delta**2) / g1), rel=1e-14)
    assert 0 < sc.b00 < p.inv_sqrt_g < sc.b01 < 1
