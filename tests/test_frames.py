import math

import numpy as np
import pytest

from orthowall import connect, frames
from orthowall.params import Params, derive_params, working_scaling

# eps = 0.9 lies above the solver's ceiling, so derive_params rejects it
P_LARGE_EPS = Params(epsilon=0.9, g=1.5, delta=math.sqrt(0.5))


def _a_star(b0, p):
    return math.sqrt(1.0 - p.g1 * b0 * b0)


def test_slow_frame_at_zero():
    p = derive_params(0.1, 1.5)
    lam_r, lam_i = frames.lambda_pair(0.0, p)
    assert _a_star(0.0, p) == 1.0
    assert lam_r == pytest.approx(2.0**-0.25, rel=1e-14)
    assert lam_i == pytest.approx(2.0**-0.25, rel=1e-14)


def test_slow_frame_example_values():
    p = derive_params(0.01, 1.25)
    lam_r, lam_i = frames.lambda_pair(0.8, p)
    assert _a_star(0.8, p) == pytest.approx(0.4472136, abs=1e-7)
    assert lam_r == pytest.approx(0.5623858, abs=1e-7)
    assert lam_i == pytest.approx(0.5622968, abs=1e-7)


def test_slow_frame_domain_errors():
    p = derive_params(0.1, 1.25)
    with pytest.raises(frames.FrameDomainError):
        frames.lambda_pair(1.0, p)


def test_degeneracy_error():
    # large eps pushes the discriminant condition over
    with pytest.raises(frames.FrameDegeneracyError):
        frames.lambda_pair(0.81, P_LARGE_EPS)


def test_quartic_residual_and_bounds():
    p = derive_params(0.1, 1.5)
    b_max = 1.0 / math.sqrt(p.g1)
    for b0 in np.linspace(0.01, 0.98 * b_max, 100):
        lam_r, lam_i = frames.lambda_pair(float(b0), p)
        a_star = _a_star(b0, p)
        for sr in (1, -1):
            for si in (1, -1):
                lam = sr * lam_r + 1j * si * lam_i
                res = (lam**4
                       - 2 * p.epsilon**2 * b0**2 * p.g1**2 * lam**2
                       + 2 * a_star**2)
                assert abs(res) < 1e-12
        assert lam_r * lam_i >= a_star / 2.0 - 1e-14
        assert 2**0.25 * a_star**0.5 >= lam_r >= a_star**0.5 / 2**0.25 - 1e-14


def test_slow_round_trip():
    # coordinates (x1, x2, y1, y2, z1) -> deviation -> coordinates, through
    # the frame matrices whose first two columns seed the left core
    p = derive_params(0.1, 1.5)
    rng = np.random.default_rng(7)
    for b0 in (0.2, 0.5, 0.7):
        m = frames.slow_coord_matrices(b0, p)
        for _ in range(20):
            c = rng.uniform(-0.3, 0.3, size=5)
            dev = m @ c
            c2 = np.linalg.solve(m, dev)
            assert np.abs(c2 - c).max() < 1e-12
            assert np.abs(m @ c2 - dev).max() < 1e-12


def test_pure_x1_coordinate():
    p = derive_params(0.1, 1.5)
    m = frames.slow_coord_matrices(0.4, p)
    c = np.linalg.solve(m, m @ [1.0, 0.0, 0.0, 0.0, 0.0])
    assert c == pytest.approx([1, 0, 0, 0, 0], abs=1e-12)


def test_zero_deviation_maps_to_zero(profile15):
    # the left core's seed at c = 0 is the slow leaf, at zero frame coordinates
    geo = profile15.value._pieces.geo
    seed, _ = geo.left_seed([0.0, 0.0])
    dev = seed[:4] - geo.leaf_a[:4]
    assert np.abs(np.linalg.lstsq(geo.cols_a, dev, rcond=None)[0]).max() < 1e-14
    assert seed[4] == geo.b0_a


def _fast_delta_tilde(b0, p):
    # the fast frame's scale on the A = 0 leaf, ((1+delta^2) B^2 - 1)^(1/4)
    return (p.g1 * b0 * b0 - 1.0) ** 0.25


def test_fast_frame_values(profile15):
    # the right core's exponent -kappa (1 + i) has kappa = delta_tilde / sqrt(2)
    p = derive_params(0.1, 2.0)
    kappa = -connect._leaf_exponent(1.0, p).real
    assert math.sqrt(2.0) * kappa == pytest.approx(1.0, rel=1e-14)
    sc = working_scaling(p)
    kappa = -connect._leaf_exponent(sc.b01, p).real
    assert math.sqrt(2.0) * kappa == pytest.approx(
        math.sqrt(sc.alpha_plus * p.delta), rel=1e-12)
    assert math.sqrt(2.0) * kappa == pytest.approx(_fast_delta_tilde(sc.b01, p), rel=1e-14)
    # the right seed's fast stable pair needs (1+delta^2) B^2 > 1
    with pytest.raises(ValueError, match="is not above"):
        profile15.value._pieces.geo.right_seed(1.0, 0.0, 0.5)


def test_fast_basis_column_example(profile15):
    # the right seed's A-jet at (d1, d2) = (1, 0) is Re mu^k, the fast
    # frame's x1 column (1, -dt/sqrt(2), 0, dt^3/sqrt(2))
    geo = profile15.value._pieces.geo
    dt = _fast_delta_tilde(0.95, geo.p)
    seed, _ = geo.right_seed(1.0, 0.0, 0.95)
    assert seed[:4] == pytest.approx(
        [1.0, -dt / math.sqrt(2), 0.0, dt**3 / math.sqrt(2)], rel=1e-14)
    assert seed[4] == 0.95


def test_monodromy_constant_path(transition_map):
    # at B = 0 the bound's rate sqrt(a_star)/2^(1/4) is lambda_r itself, and
    # the map is the scaled rotation exp(lambda_r t) R(lambda_i t)
    p = derive_params(0.1, 1.5)
    xs = np.linspace(0.0, -8.0, 200)
    ms = transition_map(lambda x: 0.0, p, 0.0, xs)
    lam_r, lam_i = frames.lambda_pair(0.0, p)
    sigma = math.sqrt(_a_star(0.0, p)) / 2.0**0.25
    assert sigma == pytest.approx(2.0**-0.25, rel=1e-12)
    ratio = np.linalg.norm(ms, 2, axis=(1, 2)) * np.exp(-sigma * xs)
    assert ratio.max() <= 1.0 + 1e-8
    c, s = np.cos(lam_i * xs), np.sin(lam_i * xs)
    closed = np.exp(lam_r * xs)[:, None, None] * np.stack(
        [np.stack([c, s], -1), np.stack([-s, c], -1)], -2)
    assert np.abs(ms - closed).max() < 1e-10


def test_monodromy_varying_path(left_tail_transition):
    # the left tail's transition map as the solve takes it, along the solve's
    # own B-profile, against the integrated map
    assert left_tail_transition.max_ratio <= 1.0 + 1e-8
    assert left_tail_transition.closed_form_gap < 1e-10


# -- reference: the scalar frame expressions, one amplitude at a time -------

def _reference_coord_matrix(b0, p):
    # the frame data: a_star and lambda_pair
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
    # the frames feed the sampler and the left core's seed columns: both
    # must keep the bits of the scalar expressions
    p = derive_params(eps, g)
    bs = np.linspace(1e-4, 0.95 / math.sqrt(p.g1), 1200)
    ref = np.array([_reference_coord_matrix(float(b), p) for b in bs])
    assert np.array_equal(frames.slow_coord_matrices(bs, p), ref)
    for i in (0, 600, 1199):
        assert np.array_equal(frames.slow_coord_matrices(float(bs[i]), p), ref[i])
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
