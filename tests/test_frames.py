import math

import numpy as np
import pytest

from orthowall import frames, outer
from orthowall.params import Params, derive_params, working_scaling

# eps = 0.9 lies above the solver's ceiling, so derive_params rejects it
P_LARGE_EPS = Params(epsilon=0.9, g=1.5, delta=math.sqrt(0.5))


def test_slow_frame_at_zero():
    p = derive_params(0.1, 1.5)
    fr = frames.slow_frame(0.0, p)
    assert fr.a_star == 1.0
    assert fr.lam_r == pytest.approx(2.0**-0.25, rel=1e-14)
    assert fr.lam_i == pytest.approx(2.0**-0.25, rel=1e-14)


def test_slow_frame_example_values():
    p = derive_params(0.01, 1.25)
    fr = frames.slow_frame(0.8, p)
    assert fr.a_star == pytest.approx(0.4472136, abs=1e-7)
    assert fr.lam_r == pytest.approx(0.5623858, abs=1e-7)
    assert fr.lam_i == pytest.approx(0.5622968, abs=1e-7)


def test_slow_frame_domain_errors():
    p = derive_params(0.1, 1.25)
    with pytest.raises(frames.FrameDomainError):
        frames.slow_frame(1.0, p)


def test_degeneracy_error():
    # large eps pushes the discriminant condition over
    with pytest.raises(frames.FrameDegeneracyError):
        frames.slow_frame(0.81, P_LARGE_EPS)


def test_quartic_residual_and_bounds():
    p = derive_params(0.1, 1.5)
    b_max = 1.0 / math.sqrt(p.g1)
    for b0 in np.linspace(0.01, 0.98 * b_max, 100):
        fr = frames.slow_frame(float(b0), p)
        for sr in (1, -1):
            for si in (1, -1):
                lam = sr * fr.lam_r + 1j * si * fr.lam_i
                res = (lam**4
                       - 2 * p.epsilon**2 * b0**2 * p.g1**2 * lam**2
                       + 2 * fr.a_star**2)
                assert abs(res) < 1e-12
        assert fr.lam_r * fr.lam_i >= fr.a_star / 2.0 - 1e-14
        assert 2**0.25 * fr.a_star**0.5 >= fr.lam_r >= fr.a_star**0.5 / 2**0.25 - 1e-14


def test_slow_round_trip():
    p = derive_params(0.1, 1.5)
    rng = np.random.default_rng(7)
    for b0 in (0.2, 0.5, 0.7):
        fr = frames.slow_frame(b0, p)
        for _ in range(20):
            c = rng.uniform(-0.3, 0.3, size=5)
            s = frames.from_slow_coords(c, fr)
            c2 = frames.to_slow_coords(s, fr)
            assert np.abs(c2 - c).max() < 1e-12
            s2 = frames.from_slow_coords(c2, fr)
            assert np.abs(s2 - s).max() < 1e-12


def test_pure_x1_coordinate():
    p = derive_params(0.1, 1.5)
    fr = frames.slow_frame(0.4, p)
    s = frames.from_slow_coords([1.0, 0.0, 0.0, 0.0, 0.0], fr)
    c = frames.to_slow_coords(s, fr)
    assert c == pytest.approx([1, 0, 0, 0, 0], abs=1e-12)


def test_zero_deviation_maps_to_zero():
    p = derive_params(0.1, 1.5)
    fr = frames.slow_frame(0.4, p)
    s = np.array([fr.a_star, 0, 0, 0, 0.4, 0.0])
    assert np.abs(frames.to_slow_coords(s, fr)).max() < 1e-14


def test_z1_resolve_example():
    p = derive_params(0.1, 2.0)
    fr = frames.slow_frame(0.5, p)
    assert fr.a_star**2 == pytest.approx(0.5, rel=1e-14)
    assert fr.zbar10 == pytest.approx(1.1180340, abs=1e-7)


def test_z1_limit_at_small_b():
    p = derive_params(0.1, 2.0)
    fr = frames.slow_frame(1e-6, p)
    assert fr.zbar10 == pytest.approx(1.0, abs=1e-9)


def test_fast_frame_values():
    p = derive_params(0.1, 2.0)
    fr = frames.fast_frame(1.0, p)
    assert fr.delta_tilde == pytest.approx(1.0, rel=1e-14)
    sc = working_scaling(p)
    fr2 = frames.fast_frame(sc.b01, p)
    assert fr2.delta_tilde == pytest.approx(
        math.sqrt(sc.alpha_plus * p.delta), rel=1e-12)
    with pytest.raises(frames.FrameDomainError):
        frames.fast_frame(0.5, p)


def test_fast_basis_column_example():
    p = derive_params(0.1, 1.5)
    fr = frames.fast_frame(0.95, p)
    dt = fr.delta_tilde
    s = frames.from_fast_coords([1, 0, 0, 0, 0, 0], fr)
    assert s[:4] == pytest.approx(
        [1.0, -dt / math.sqrt(2), 0.0, dt**3 / math.sqrt(2)], rel=1e-14)
    assert s[4] == 1.0 and s[5] == 0.0


def test_fast_round_trip():
    p = derive_params(0.1, 1.5)
    fr = frames.fast_frame(0.93, p)
    rng = np.random.default_rng(13)
    for _ in range(20):
        c = rng.uniform(-0.2, 0.2, size=6)
        s = frames.from_fast_coords(c, fr)
        assert np.abs(frames.to_fast_coords(s, fr) - c).max() < 1e-12


def test_monodromy_constant_path():
    p = derive_params(0.1, 1.5)
    rep = frames.monodromy_check(lambda x: 0.0, p, -8.0, 0.0)
    assert rep.max_ratio <= 1.0 + 1e-8
    assert rep.closed_form_error < 1e-10
    assert rep.sigma == pytest.approx(2.0**-0.25, rel=1e-12)


def test_monodromy_varying_path():
    p = derive_params(0.1, 1.5)
    sc = working_scaling(p)

    def path(x):
        return float(outer.b0_left_profile(x, sc.b00, p, sc.x_star))

    rep = frames.monodromy_check(path, p, -sc.x_star - 25.0, -sc.x_star)
    assert rep.max_ratio <= 1.0 + 1e-8
    assert rep.closed_form_error < 1e-10


def test_monodromy_degenerate_interval():
    p = derive_params(0.1, 1.5)
    rep = frames.monodromy_check(lambda x: 0.3, p, -1e-9, 0.0, n_samples=3)
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-8)


# -- reference: the scalar frame expressions, one amplitude at a time -------

def _reference_coord_matrix(b0, p):
    # slow_frame and lambda_pair
    a = math.sqrt(1.0 - p.g1 * b0 * b0)
    q = p.epsilon**2 * b0 * b0 * p.g1**2
    lr = math.sqrt(0.5 * (math.sqrt(2.0) * a + q))
    li = math.sqrt(0.5 * (math.sqrt(2.0) * a - q))
    # the basis columns and their restriction to the coordinate rows
    g1 = 1.0 + p.delta**2
    e2 = p.epsilon**2
    w1 = e2 * b0 * g1 / a
    w2 = e2**2 * b0**3 * g1**3 / a
    z1 = np.array([0.0, -g1 * b0, 0.0, 0.0, 0.0, a])
    dd = lr * lr - li * li

    def vr(s):
        return np.array([-s * lr * (lr * lr - 3.0 * li * li) / (2.0 * a * a), 1.0,
                         s * lr, dd, -s * lr * w1, -w2])

    def vi(s):
        return np.array([-(3.0 * lr * lr - li * li) / (2.0 * a * a), 0.0, 1.0,
                         s * 2.0 * lr, -w1, -s * 2.0 * lr * w1])

    cols = np.column_stack([vr(1.0), li * vi(1.0), vr(-1.0), li * vi(-1.0), z1])
    return b0 * cols[[0, 1, 2, 3, 5], :]


@pytest.mark.parametrize("eps, g", [(0.1, 1.5), (0.25, 1.2), (0.02, 2.0)])
def test_coord_matrices_match_scalar_expressions(eps, g):
    # the array frames feed the sampler, the scalar frame the left core's
    # seed columns: both must keep the bits of the scalar expressions
    p = derive_params(eps, g)
    bs = np.linspace(1e-4, 0.95 / math.sqrt(p.g1), 1200)
    ref = np.array([_reference_coord_matrix(float(b), p) for b in bs])
    assert np.array_equal(frames.slow_coord_matrices(bs, p), ref)
    for i in (0, 600, 1199):
        assert np.array_equal(frames.slow_frame(float(bs[i]), p)._coord_matrix(), ref[i])
    lam_r, lam_i = frames.lambda_pair(bs, p)
    pairs = [frames.lambda_pair(float(b), p) for b in bs]
    assert np.array_equal(lam_r, [lr for lr, _ in pairs])
    assert np.array_equal(lam_i, [li for _, li in pairs])


def test_lambda_pair_array_errors():
    p = derive_params(0.1, 1.25)
    with pytest.raises(frames.FrameDomainError):
        frames.lambda_pair(np.array([0.2, 1.0, 0.3]), p)
    with pytest.raises(frames.FrameDegeneracyError):
        frames.lambda_pair(np.array([0.2, 0.81]), P_LARGE_EPS)
