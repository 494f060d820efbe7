import math

import numpy as np
import pytest
import scipy.sparse as sp

from orthowall import connect, linop
from orthowall.params import derive_params


@pytest.fixture(scope="module")
def grid15(profile15):
    prof = profile15.value
    x = np.linspace(prof.x[0], prof.x[-1], 5601)
    return x, prof.sample(x)


# -- reference: the operators as sums and blocks of scipy's dia matrices ----

def _d2(n, h):
    return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2


def _d4(n, h):
    return sp.diags([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2], shape=(n, n)) / h**4


def _reference_Mg(x, states, p):
    h = float(x[1] - x[0])
    n, a_star, b_star, e2 = x.size, states[:, 0], states[:, 4], p.epsilon**2
    aa = -_d4(n, h) + sp.diags(1.0 - 3.0 * a_star**2 - p.g * b_star**2)
    cc = _d2(n, h) / e2 + sp.diags(1.0 - p.g * a_star**2 - 3.0 * b_star**2)
    boost = sp.coo_matrix(([math.exp(-p.epsilon * p.delta * h) / (e2 * h**2),
                            math.exp(-math.sqrt(2.0) * p.epsilon * h) / (e2 * h**2)],
                           ([0, n - 1], [0, n - 1])), shape=(n, n))
    ac = sp.diags(-2.0 * p.g * a_star * b_star)
    return sp.bmat([[aa, ac], [ac, cc + boost]], format="csr")


def _reference_Lg(x, states, p):
    h = float(x[1] - x[0])
    return (_d2(x.size, h) / p.epsilon**2
            + sp.diags(1.0 - p.g * states[:, 0] ** 2 - states[:, 4] ** 2)).tocsr()


def _constant_states(n, a, b):
    st = np.zeros((n, 6))
    st[:, 0], st[:, 4] = a, b
    return st


@pytest.mark.parametrize("case", ["anchor", "1.2-0.1", "A=1,B=0", "A=0,B=1"])
def test_csc_assembly_is_bit_equal_to_dia_sums(p15, grid15, case):
    # the CSC arrays built from the band values against scipy's dia sums and
    # bmat, converted to CSC: the same pattern and the same bits.  The
    # constant profiles make the coupling (and, for A = 0, B = 1, L's
    # potential) exactly zero, which scipy's conversions leave out
    if case == "anchor":
        (x, st), p = grid15, p15
    elif case == "1.2-0.1":
        p = derive_params(0.1, 1.2)
        prof = connect.heteroclinic_solve(p)
        x = np.linspace(prof.x[0], prof.x[-1], 5601)
        st = prof.sample(x)
    else:
        p, x = p15, np.linspace(0.0, 100.0, 2001)
        st = _constant_states(x.size, *((1.0, 0.0) if case == "A=1,B=0" else (0.0, 1.0)))
    for got, ref in ((linop.assemble_Mg(x, st, p).matrix, _reference_Mg(x, st, p)),
                     (linop.assemble_Lg(x, st, p).matrix, _reference_Lg(x, st, p))):
        ref = ref.tocsc()
        ref.sort_indices()
        assert got.format == "csc"
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


def test_symmetry_exact(p15, grid15):
    x, st = grid15
    for op in (linop.assemble_Mg(x, st, p15), linop.assemble_Lg(x, st, p15)):
        d = op.matrix - op.matrix.T
        assert d.nnz == 0 or abs(d.data).max() == 0.0


def test_decay_closure_matches_lil_reference(p15, grid15):
    # the closure's two entries, added to the C block as a lil matrix,
    # give the assembled block bit for bit
    x, st = grid15
    n, h, e2 = x.size, x[1] - x[0], p15.epsilon**2
    boost = sp.lil_matrix((n, n))
    boost[0, 0] = math.exp(-p15.epsilon * p15.delta * h) / (e2 * h**2)
    boost[-1, -1] = math.exp(-math.sqrt(2.0) * p15.epsilon * h) / (e2 * h**2)
    ref = (_d2(n, h) / e2 + sp.diags(1.0 - p15.g * st[:, 0] ** 2 - 3.0 * st[:, 4] ** 2)
           + boost).tocsr()
    got = linop.assemble_Mg(x, st, p15).matrix[n:, n:]
    for a in (got, ref):
        a.sort_indices()
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def test_grid_validation(p15, grid15):
    x, st = grid15
    with pytest.raises(linop.GridError):
        linop.assemble_Mg(x[::50], st[::50], p15)  # coarse grid
    bad = x.copy()
    bad[10] += 1e-3
    with pytest.raises(linop.GridError):
        linop.assemble_Mg(bad, st, p15)


def test_constant_profile_symbol(p15):
    # A-block at the left end state acts as -(k^4 + 2) on low modes
    n = 2001
    x = np.linspace(0.0, 100.0, n)
    st = np.tile([1.0, 0, 0, 0, 0, 0], (n, 1))
    op = linop.assemble_Mg(x, st, p15)
    h = x[1] - x[0]
    for k in (0.3, 0.5, 0.8):
        mode = np.sin(k * x)
        out = (op.matrix @ np.concatenate([mode, np.zeros(n)]))[:n]
        interior = slice(200, n - 200)
        ref = -(k**4 + 2.0) * mode[interior]
        err = np.abs(out[interior] - ref).max()
        assert err < 0.01 * (k**4 + 2.0)


def test_kernel_residual_second_order(p15, profile15):
    prof = profile15.value
    res = []
    for n in (701, 1401, 2801):
        x = np.linspace(prof.x[0], prof.x[-1], n)
        st = prof.sample(x)
        op = linop.assemble_Mg(x, st, p15)
        res.append(linop.kernel_residual(op, st, exclude=prof.blend_windows))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    for o in orders:
        assert abs(o - 2.0) <= 0.3


def test_kernel_diagnostics(p15, grid15, profile15):
    x, st = grid15
    op = linop.assemble_Mg(x, st, p15)
    diag = linop.kernel_diagnostics(op, st, p15)
    assert diag.smallest[0] < 1e-4 * diag.smallest[1]
    assert diag.separation >= 1e4
    assert diag.kernel_angle < 1e-3
    assert diag.orthogonality_defect < 1e-6
    assert diag.l_smallest > 1e-3  # no near-kernel in the decoupled block


def test_eigensolve_tolerance_against_full_convergence(monkeypatch):
    # kernel_diagnostics stops ARPACK at EIGSH_TOL = 1e-10; against a run
    # converged to machine precision (tol=0) on the (1.5, 0.05) profile.
    # Bounds set before measuring, below the 8.6e-5 relative move a 1e-15
    # move of the profile causes (measured: at most 7.9e-16, 1.2e-11 and 0)
    p = derive_params(0.05, 1.5)
    prof = connect.heteroclinic_solve(p)
    x = np.linspace(prof.x[0], prof.x[-1], 5601)
    st = prof.sample(x)
    op = linop.assemble_Mg(x, st, p)
    assert linop.EIGSH_TOL == 1e-10
    loose = linop.kernel_diagnostics(op, st, p)
    monkeypatch.setattr(linop, "EIGSH_TOL", 0.0)
    full = linop.kernel_diagnostics(op, st, p)
    assert np.allclose(loose.smallest, full.smallest, rtol=1e-12, atol=0.0)
    assert loose.separation == pytest.approx(full.separation, rel=1e-12)
    assert loose.orthogonality_defect == pytest.approx(full.orthogonality_defect, rel=1e-8)
    assert loose.kernel_angle == pytest.approx(full.kernel_angle, rel=1e-4)
    assert loose.l_smallest == pytest.approx(full.l_smallest, rel=1e-12)


def test_discrete_self_adjointness(p15, grid15):
    x, st = grid15
    op = linop.assemble_Mg(x, st, p15)
    n = x.size
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = np.zeros(2 * n)
        v = np.zeros(2 * n)
        u[8:n - 8] = rng.standard_normal(n - 16)
        u[n + 8:2 * n - 8] = rng.standard_normal(n - 16)
        v[8:n - 8] = rng.standard_normal(n - 16)
        v[n + 8:2 * n - 8] = rng.standard_normal(n - 16)
        lhs = (op.matrix @ u) @ v
        rhs = u @ (op.matrix @ v)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-12


def test_lg_kernel_identity_order(p15, profile15):
    prof = profile15.value
    res = []
    for n in (1401, 2801):
        x = np.linspace(prof.x[0], prof.x[-1], n)
        st = prof.sample(x)
        op = linop.assemble_Lg(x, st, p15)
        r = op.matrix @ st[:, 4]
        keep = np.ones(n, bool)
        keep[:6] = False
        keep[-6:] = False
        for lo, hi in prof.blend_windows:
            keep &= ~((x >= lo) & (x <= hi))
        res.append(np.abs(r[keep]).max())
    assert abs(math.log2(res[0] / res[1]) - 2.0) <= 0.5


def test_lg_far_field_rows(p15, grid15):
    x, st = grid15
    # at the B = 1 tail the scalar operator's potential vanishes
    pot = 1.0 - p15.g * st[:, 0] ** 2 - st[:, 4] ** 2
    assert abs(pot[-1]) < 1e-3


def test_pseudo_inverse_zero(p15, grid15):
    x, st = grid15
    u, info = linop.lg_pseudo_inverse(np.zeros(x.size), x, st, p15)
    assert np.abs(u).max() == 0.0
    assert info["defect"] == 0.0


def test_pseudo_inverse_manufactured(p15, profile15):
    prof = profile15.value
    n = 16001
    x = np.linspace(prof.x[0], prof.x[-1], n)
    st = prof.sample(x)

    def bump(xx):
        tt = (xx - 2.0) / 20.0
        out = np.zeros_like(tt)
        m = np.abs(tt) < 1.0
        out[m] = np.exp(-1.0 / (1.0 - tt[m] ** 2))
        return out

    h = 1e-4
    u0 = bump(x)
    u0pp = (bump(x + h) - 2.0 * u0 + bump(x - h)) / h**2
    pot = 1.0 - p15.g * st[:, 0] ** 2 - st[:, 4] ** 2
    f = u0pp / p15.epsilon**2 + pot * u0
    u, info = linop.lg_pseudo_inverse(f, x, st, p15)
    b = st[:, 4]
    c = (u - u0) @ b / (b @ b)
    err = np.abs(u - u0 - c * b).max()
    assert err < 1e-6
    # interior residual of the recovered solution under the grid operator
    op = linop.assemble_Lg(x, st, p15)
    r = (op.matrix @ u - f)[8:-8]
    hg = x[1] - x[0]
    stencil_scale = hg**2 / p15.epsilon**2 * np.abs(u0pp).max()
    assert np.abs(r).max() < 10.0 * max(info["quad_estimate"], stencil_scale)


def test_pseudo_inverse_solvability_violation(p15, grid15):
    x, st = grid15
    f = st[:, 4] * np.exp(-(x / 10.0) ** 2)
    with pytest.raises(linop.SolvabilityError) as exc:
        linop.lg_pseudo_inverse(f, x, st, p15)
    assert exc.value.defect > 0


def test_asymptotic_spectrum():
    # joint far-field edge of the coupled operator: -min(2, g-1)
    assert linop.asymptotic_spectrum(2.0, "minus", "M") == -1.0
    assert linop.asymptotic_spectrum(1.5, "plus", "M") == -0.5
    assert linop.asymptotic_spectrum(1.25, "minus", "L") == pytest.approx(-0.25)
    assert linop.asymptotic_spectrum(1.25, "plus", "L") == 0.0
    with pytest.raises(ValueError):
        linop.asymptotic_spectrum(1.5, "up", "L")
    with pytest.raises(ValueError):
        linop.asymptotic_spectrum(1.5, "plus", "Q")


def test_edges_bound_far_field_blocks(p15, grid15):
    x, st = grid15
    op = linop.assemble_Mg(x, st, p15)
    n = x.size
    m = n // 6  # leftmost sixth: essentially the constant-coefficient regime
    idx = np.concatenate([np.arange(m), n + np.arange(m)])
    sub = op.matrix.tocsr()[idx][:, idx].toarray()
    top = np.linalg.eigvalsh(sub).max()
    edge = linop.asymptotic_spectrum(p15.g, "minus", "M")
    assert top <= edge + 0.05
