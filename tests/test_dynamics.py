import math

import numpy as np
import pytest

from orthowall import dynamics
from orthowall.params import derive_params


@pytest.fixture(scope="module")
def p():
    return derive_params(0.1, 2.0)


def random_states(n, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(n, 6))


def test_equilibria(p):
    assert np.all(dynamics.vector_field(dynamics.M_MINUS, p) == 0.0)
    assert np.all(dynamics.vector_field(dynamics.M_PLUS, p) == 0.0)


def test_vector_field_value(p):
    s = np.array([0, 0, 0, 0, 1 / math.sqrt(2.0), 0.0])
    f = dynamics.vector_field(s, p)
    assert f[:5] == pytest.approx(np.zeros(5), abs=1e-16)
    assert f[5] == pytest.approx(-0.0035355339, abs=1e-9)


def _vector_field_numpy_scalars(s, p):
    """Reference: the same expressions evaluated on numpy float64 scalars."""
    a0, a1, a2, a3, b0, b1 = s
    return np.array([
        a1,
        a2,
        a3,
        a0 * (1.0 - a0 * a0 - p.g * b0 * b0),
        b1,
        p.epsilon**2 * b0 * (-1.0 + p.g * a0 * a0 + b0 * b0),
    ])


def test_vector_field_matches_numpy_scalar_reference():
    for eps, g in ((0.1, 2.0), (0.25, 1.12), (0.01, 1.5)):
        q = derive_params(eps, g)
        states = np.vstack([dynamics.M_MINUS, dynamics.M_PLUS,
                            random_states(1000, scale=1.5, seed=6)])
        for s in states:
            assert np.array_equal(dynamics.vector_field(s, q),
                                  _vector_field_numpy_scalars(s, q))


def test_first_integral_values(p):
    assert dynamics.first_integral(dynamics.M_MINUS, p) == 0.0
    assert dynamics.first_integral(dynamics.M_PLUS, p) == 0.0
    assert dynamics.first_integral(np.zeros(6), p) == pytest.approx(0.005, abs=1e-17)


def test_first_integral_conserved_along_field(p):
    worst = 0.0
    for s in random_states(100, seed=1):
        drift = dynamics.first_integral_gradient(s, p) @ dynamics.vector_field(s, p)
        worst = max(worst, abs(drift))
    assert worst < 1e-13


def test_gradient_matches_finite_differences(p):
    h = 1e-7
    for s in random_states(20, seed=2):
        grad = dynamics.first_integral_gradient(s, p)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            fd = (dynamics.first_integral(s + e, p)
                  - dynamics.first_integral(s - e, p)) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=2e-7)


def test_jacobian_matches_finite_differences():
    h = 1e-6
    for g in (1.25, 2.0):
        p = derive_params(0.1, g)
        for s in random_states(50, seed=3):
            J = dynamics.jacobian(s, p)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                col = (dynamics.vector_field(s + e, p)
                       - dynamics.vector_field(s - e, p)) / (2 * h)
                assert np.abs(J[:, j] - col).max() < 1e-7


def _match_spectra(computed, expected, tol):
    c = sorted(computed, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    e = sorted(expected, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    assert np.abs(np.array(c) - np.array(e)).max() < tol


def _equilibrium_eigenvalues(which, p):
    # the closed-form spectra of the linearization at M- and M+
    if which == "minus":
        cf, slow = 2.0**-0.25, p.epsilon * p.delta
    else:
        cf, slow = math.sqrt(p.delta) / math.sqrt(2.0), p.epsilon * math.sqrt(2.0)
    fast = [cf * (1 + 1j), cf * (1 - 1j), -cf * (1 + 1j), -cf * (1 - 1j)]
    return np.array(fast + [slow, -slow], dtype=complex)


def test_equilibrium_spectra_closed_forms():
    for eps in (0.05, 0.1):
        for g in (1.25, 1.5, 2.0):
            p = derive_params(eps, g)
            for which, eq in (("minus", dynamics.M_MINUS), ("plus", dynamics.M_PLUS)):
                vals = np.linalg.eigvals(dynamics.jacobian(eq, p))
                _match_spectra(vals, _equilibrium_eigenvalues(which, p), 1e-10)


def test_symmetries(p):
    assert np.all(dynamics.symmetry_apply(dynamics.M_MINUS, "neg_a")
                  == np.array([-1, 0, 0, 0, 0, 0.0]))
    s = random_states(1, seed=4)[0]
    rr = dynamics.symmetry_apply(dynamics.symmetry_apply(s, "reversibility"),
                                 "reversibility")
    assert np.abs(rr - s).max() == 0.0
    with pytest.raises(ValueError):
        dynamics.symmetry_apply(s, "bogus")


def test_field_commutation_identities(p):
    for s in random_states(50, scale=0.8, seed=5):
        f = dynamics.vector_field(s, p)
        for name in ("neg_a", "neg_b", "neg_ab"):
            lhs = dynamics.vector_field(dynamics.symmetry_apply(s, name), p)
            rhs = dynamics.symmetry_apply(f, name)
            assert np.abs(lhs - rhs).max() < 1e-14
        lhs = dynamics.vector_field(dynamics.symmetry_apply(s, "reversibility"), p)
        rhs = -dynamics.symmetry_apply(f, "reversibility")
        assert np.abs(lhs - rhs).max() < 1e-14


def test_singular_limit(p):
    x = np.linspace(0.0, 40.0, 400)
    prof = dynamics.singular_limit(p, x)
    assert prof.left_a[0] == pytest.approx(1.0, abs=1e-15)
    assert prof.left_b[0] == 0.0
    assert prof.left_a[-1] == pytest.approx(0.0, abs=1e-7)
    assert prof.left_b[-1] == pytest.approx(p.inv_sqrt_g, rel=1e-14)
    assert np.all(np.abs(prof.left_a**2 + p.g * prof.left_b**2 - 1.0) < 1e-12)
    assert prof.right_b[0] == pytest.approx(p.inv_sqrt_g, rel=1e-14)
    assert np.all(np.diff(prof.right_b) > 0)
    assert prof.right_b[-1] < 1.0
    big = dynamics._right_branch(np.array([1e4]), p)
    assert big[0] == pytest.approx(1.0, abs=1e-12)


def test_b1_from_invariant(p):
    jet = np.array([0.3, 0.01, -0.002, 0.001])
    b0 = 0.5
    b1 = dynamics.b1_from_invariant(jet, b0, p)
    s = np.concatenate([jet, [b0, b1]])
    assert abs(dynamics.first_integral(s, p)) < 1e-16
    bad = np.array([0.0, 0.0, 5.0, 0.0])
    with pytest.raises(ValueError):
        dynamics.b1_from_invariant(bad, 0.5, p)


def test_b1_from_invariant_elementwise(p):
    # on arrays the root is taken elementwise: each column matches the float
    # root of its own jet (the float path squares 1 - B^2 through libm pow,
    # so the two may differ in the last bit), and a negative bracket names
    # its amplitude
    rng = np.random.default_rng(3)
    jets = rng.uniform(-0.01, 0.01, (4, 50))
    jets[0] += 0.3
    b0 = rng.uniform(0.1, 0.6, 50)
    got = dynamics.b1_from_invariant(jets, b0, p)
    ref = [dynamics.b1_from_invariant(jets[:, i], float(b0[i]), p) for i in range(50)]
    assert np.allclose(got, ref, rtol=4e-16, atol=0.0)
    jets[2, 7] = 5.0
    with pytest.raises(ValueError, match=f"growing branch of W=0 at B = {b0[7]:.6g}"):
        dynamics.b1_from_invariant(jets, b0, p)
