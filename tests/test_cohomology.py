"""Resonance classification and the order-by-order manifold solve."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from ssmkit import (FirstOrderSystem, ManifoldExpansion, MechanicalSystem,
                    NumericalError, OuterResonanceError, ValidationError,
                    as_first_order, build_first_order, classify_resonances,
                    compute_manifold, extract_polar_rom, master_spectrum,
                    oscillator_chain)
from ssmkit.multiindex import MultiIndexSet
from ssmkit.polytensor import PolyCoeffs


def sym_coeff(rom, degree, row, factors):
    """Total reduced-dynamics coefficient of one monomial, summed over
    every Kronecker position that spells the same factor multiset."""
    total = 0.0 + 0.0j
    for perm in set(itertools.permutations(factors)):
        total += rom.reduced_coefficient(degree, row, perm)
    return total


def twin_rotor(f_row):
    """Two undamped rotors at frequencies 1 and 3 with one cubic term.

    The eigenvalues are +-1j and +-3j, so the order-3 sum over the slow
    pair lands exactly on the fast pair. Which row carries the cubic
    forcing decides whether the singular block stays consistent.
    """
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0] = -1.0, 1.0
    A[2, 3], A[3, 2] = -3.0, 3.0
    F3 = PolyCoeffs.from_entries(3, 4, 4, [(f_row, (0, 0, 0), 1.0)])
    return FirstOrderSystem(np.eye(4) @ A, np.eye(4), F_coeffs=[F3])


def manifold_residual(man, p):
    """Pointwise defect of B dW/dp R(p) = A W(p) + F(W(p))."""
    sys = man.system
    z = man.evaluate(p)
    lhs = sys.B @ (man.tangent(p) @ man.reduced_rhs(p))
    rhs = sys.A @ z + sys.F_eval(z)
    return np.abs(lhs - rhs).max()


def test_center_pair_quadratic_row(lorenz_man3):
    R2 = lorenz_man3.R[2]
    assert abs(sym_coeff(lorenz_man3, 2, 0, (0, 1)) - 0.5) < 1e-12
    assert abs(sym_coeff(lorenz_man3, 2, 0, (0, 0))) < 1e-12
    assert abs(sym_coeff(lorenz_man3, 2, 0, (1, 1))) < 1e-12
    assert np.abs(R2[1]).max() < 1e-12


def test_center_pair_cubic_row(lorenz_man3):
    assert abs(sym_coeff(lorenz_man3, 3, 0, (0, 0, 0)) - (-0.25)) < 1e-10
    assert abs(sym_coeff(lorenz_man3, 3, 0, (0, 1, 1)) - (-0.125)) < 1e-10
    assert abs(sym_coeff(lorenz_man3, 3, 0, (0, 0, 1))) < 1e-10
    assert abs(sym_coeff(lorenz_man3, 3, 0, (1, 1, 1))) < 1e-10
    assert np.abs(lorenz_man3.R[3][1]).max() < 1e-10


def test_center_pair_reduced_rhs_closed_form(lorenz_man3):
    rng = np.random.default_rng(7)
    for _ in range(5):
        p1, p2 = rng.uniform(-0.5, 0.5, size=2)
        dp = lorenz_man3.reduced_rhs([p1, p2])
        want = 0.5 * p1 * p2 - 0.25 * p1**3 - 0.125 * p1 * p2**2
        assert abs(dp[0] - want) < 1e-10
        assert abs(dp[1]) < 1e-10


def test_invariance_defect_scales_away(lorenz_man3, chain_mode2_man5):
    rng = np.random.default_rng(3)
    for _ in range(4):
        p = rng.normal(size=2) * 1e-3
        assert manifold_residual(lorenz_man3, p) < 1e-10
    for _ in range(4):
        c = (rng.normal() + 1j * rng.normal()) * 1e-2
        assert manifold_residual(chain_mode2_man5, [c, np.conj(c)]) < 1e-8


def test_tangent_matches_finite_differences(lorenz_man3):
    rng = np.random.default_rng(11)
    p = rng.normal(size=2) * 0.1
    jac = lorenz_man3.tangent(p)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        col = (lorenz_man3.evaluate(p + e) - lorenz_man3.evaluate(p - e)) / (2 * h)
        assert np.abs(jac[:, j] - col).max() < 1e-7


def test_classifier_damped_pair(chain_mode2_master):
    report = classify_resonances(chain_mode2_master, 5)
    assert not report.has_outer()
    assert report.inner_at(2) == set()
    assert report.inner_at(4) == set()

    mis3 = MultiIndexSet(3, 2)
    slow = {(mis3.position(t), 0)
            for t in set(itertools.permutations((0, 0, 1)))}
    conj = {(mis3.position(t), 1)
            for t in set(itertools.permutations((0, 1, 1)))}
    assert report.inner_at(3) == slow | conj

    mis5 = MultiIndexSet(5, 2)
    slow5 = {(mis5.position(t), 0)
             for t in set(itertools.permutations((0, 0, 0, 1, 1)))}
    conj5 = {(mis5.position(t), 1)
             for t in set(itertools.permutations((0, 0, 1, 1, 1)))}
    assert report.inner_at(5) == slow5 | conj5


def test_classifier_center_pair_flags_all(lorenz_master):
    _, ms = lorenz_master
    report = classify_resonances(ms, 3)
    assert not report.has_outer()
    assert report.inner_at(2) == {(p, j) for p in range(4) for j in range(2)}
    assert report.inner_at(3) == {(p, j) for p in range(8) for j in range(2)}


def test_classifier_tight_tolerance_empty(chain_mode2_master):
    report = classify_resonances(chain_mode2_master, 5,
                                 tol={"rel": 1e-12, "slack": 0.0,
                                      "abs": 1e-14})
    assert report.inner == {}
    assert not report.has_outer()


def test_classifier_third_harmonic_needs_loose_tolerance():
    chain = oscillator_chain(10, m=1.0, k=1.0, c=0.0, kappa=0.3)
    ms = master_spectrum(chain, select={"mode": "pair", "pair": 1},
                         n_outer=6)
    report = classify_resonances(ms, 3)
    # 3 * omega_1 misses omega_3 by about 2.7 percent, well past the
    # default relative tolerance
    assert not report.has_outer()
    assert len(report.inner_at(3)) == 6
    loose = classify_resonances(ms, 3, tol={"rel": 0.05})
    assert loose.has_outer()


@pytest.mark.parametrize("tol", [None, {"rel": 0.05},
                                 {"rel": 1e-6, "slack": 0.0, "abs": 1e-3}])
def test_classifier_matches_the_scalar_loop(chain10, tol):
    # reference: the per-monomial loop over Python scalars
    ms = master_spectrum(chain10, select={"mode": "smallest", "count": 4},
                         n_outer=6)
    tol_ = dict(tol or {})
    rel, slack = tol_.get("rel", 1e-3), tol_.get("slack", 1.0)
    lam, outer = ms.lambdas, ms.outer_lambdas
    scale = np.abs(np.concatenate([lam, outer])).max()
    tol_abs = tol_.get("abs", 1e-8 * scale)
    re_span = np.abs(lam.real).max()

    def near(lam_l, mu, i):
        bound = tol_abs + rel * abs(mu)
        return (abs(lam_l.imag - mu.imag) <= bound
                and abs(lam_l.real - mu.real)
                <= bound + slack * (i + 1) * re_span)

    report = classify_resonances(ms, 5, tol)
    for i in range(2, 6):
        tuples = MultiIndexSet(i, 4).tuples()
        sums = [complex(sum(lam[k] for k in t)) for t in tuples]
        assert report.inner.get(i, []) == [
            (pos, tuples[pos], j) for pos, s in enumerate(sums)
            for j, mu in enumerate(lam) if near(s, mu, i)]
        assert report.outer.get(i, []) == [
            (pos, tuples[pos], complex(mu)) for pos, s in enumerate(sums)
            for mu in outer if near(s, mu, i)]
    assert report.has_outer() == (tol == {"rel": 0.05})


def test_describe_names_modes_one_based(chain_mode2_master):
    report = classify_resonances(chain_mode2_master, 3)
    lines = report.describe()
    assert any("resonates with master mode 1" in ln for ln in lines)
    assert any("resonates with master mode 2" in ln for ln in lines)
    assert all("p1" in ln or "p2" in ln for ln in lines)


def test_graph_style_keeps_higher_orders_b_orthogonal(chain10_forced,
                                                      chain_mode2_master):
    man = compute_manifold(chain10_forced, chain_mode2_master, order=3,
                           style="graph")
    U = man.master.U
    B = man.system.B
    for i in (2, 3):
        dev = np.abs(U.conj().T @ (B @ man.W[i])).max()
        assert dev < 1e-8


def test_per_mode_mixes_graph_and_normal_form(chain10_forced,
                                              chain_mode2_master):
    pm = compute_manifold(chain10_forced, chain_mode2_master, order=2,
                          style="per-mode", graph_modes=(0,))
    gr = compute_manifold(chain10_forced, chain_mode2_master, order=2,
                          style="graph")
    assert np.allclose(pm.R[2][0], gr.R[2][0], atol=1e-12)
    # mode 1 has no quadratic resonance, so its row stays empty
    assert np.abs(pm.R[2][1]).max() < 1e-14


def test_conjugate_symmetric_points_embed_real(chain_mode2_man5,
                                               lorenz_man3):
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = (rng.normal() + 1j * rng.normal()) * 0.05
        z = chain_mode2_man5.evaluate([c, np.conj(c)])
        assert np.abs(z.imag).max() < 1e-10 * max(np.abs(z).max(), 1e-30)
    for _ in range(5):
        z = lorenz_man3.evaluate(rng.normal(size=2) * 0.3)
        assert np.abs(z.imag).max() < 1e-12 * max(np.abs(z).max(), 1e-30)


def test_reduced_dynamics_tangent_to_linear_part(chain_mode2_man5):
    ms = chain_mode2_man5.master
    assert np.array_equal(chain_mode2_man5.W[1], ms.V)
    assert np.allclose(chain_mode2_man5.R[1], np.diag(ms.lambdas),
                       atol=0.0)


def test_outer_resonance_blocks_normal_form():
    sys = twin_rotor(0)
    ms = master_spectrum(sys, select=[0, 1], n_outer=2)
    with pytest.raises(OuterResonanceError) as err:
        compute_manifold(sys, ms, order=3)
    assert "outer" in str(err.value)
    assert any(abs(abs(lam.imag) - 3.0) < 1e-8 for _, lam in err.value.pairs)


def test_outer_resonance_warn_continues_when_consistent():
    sys = twin_rotor(0)
    ms = master_spectrum(sys, select=[0, 1], n_outer=2)
    with pytest.warns(UserWarning, match="domain of validity"):
        man = compute_manifold(sys, ms, order=3, on_outer="warn")
    assert man.order == 3
    assert man.W[3].shape == (4, 8)
    rng = np.random.default_rng(1)
    for _ in range(3):
        c = (rng.normal() + 1j * rng.normal()) * 1e-3
        assert manifold_residual(man, [c, np.conj(c)]) < 1e-10


def test_inconsistent_singular_block_raises():
    sys = twin_rotor(2)
    ms = master_spectrum(sys, select=[0, 1], n_outer=2)
    with pytest.warns(UserWarning):
        with pytest.raises(NumericalError, match="singular and inconsistent"):
            compute_manifold(sys, ms, order=3, on_outer="warn")


def _conservative_chain(sparse):
    mech = oscillator_chain(10, m=1.0, k=1.0, c=0.0, kappa=0.3)
    if sparse:
        mech = MechanicalSystem(sp.csr_matrix(mech.M), sp.csr_matrix(mech.C),
                                sp.csr_matrix(mech.K), mech.f_coeffs)
    return build_first_order(mech)


def test_dense_and_sparse_pencils_give_the_same_expansion():
    # undamped: the order-3 and order-5 blocks at the master eigenvalue
    # are exactly singular, and both paths must remove the same kernel
    dense = _conservative_chain(sparse=False)
    csr = _conservative_chain(sparse=True)
    assert sp.issparse(csr.A) and sp.issparse(csr.B)
    ms = master_spectrum(dense, select={"mode": "pair", "pair": 2},
                         n_outer=8)
    man_d = compute_manifold(dense, ms, order=5)
    man_s = compute_manifold(csr, ms, order=5)
    assert sum(info["lstsq_columns"]
               for info in man_d.diagnostics["orders"]) > 0
    for i in range(1, 6):
        assert np.abs(man_d.W[i] - man_s.W[i]).max() <= 1e-12
        assert np.abs(man_d.R[i] - man_s.R[i]).max() <= 1e-12
    gam_d = extract_polar_rom(man_d).gammas
    gam_s = extract_polar_rom(man_s).gammas
    assert np.abs(gam_d - gam_s).max() <= 1e-12
    # sparse blocks carry no LAPACK condition estimate
    assert all(info["min_rcond"] is None
               for info in man_s.diagnostics["orders"])
    assert all(info["min_rcond"] is not None
               for info in man_d.diagnostics["orders"])


def test_expansion_roundtrips_through_json(tmp_path, chain_mode2_man5):
    path = tmp_path / "manifold.json"
    chain_mode2_man5.save(path)
    back = ManifoldExpansion.load(path)
    assert back.order == chain_mode2_man5.order
    assert back.style == chain_mode2_man5.style
    assert back.dim == chain_mode2_man5.dim
    assert back.N == chain_mode2_man5.N
    for i in range(1, 6):
        assert np.array_equal(back.W[i], chain_mode2_man5.W[i])
        assert np.array_equal(back.R[i], chain_mode2_man5.R[i])
    assert np.array_equal(back.master.lambdas,
                          chain_mode2_man5.master.lambdas)


def test_coefficient_accessors_index_kron_columns(lorenz_man3):
    mis = MultiIndexSet(2, 2)
    pos = mis.position((0, 1))
    assert (lorenz_man3.reduced_coefficient(2, 0, (0, 1))
            == lorenz_man3.R[2][0, pos])
    assert (lorenz_man3.coefficient(2, 3, (1, 1))
            == lorenz_man3.W[2][3, mis.position((1, 1))])


def test_compute_manifold_validates_arguments(lorenz_master):
    sys, ms = lorenz_master
    with pytest.raises(ValidationError, match="style must be one of"):
        compute_manifold(sys, ms, order=2, style="taylor")
    with pytest.raises(ValidationError, match="order must be >= 1"):
        compute_manifold(sys, ms, order=0)
    with pytest.raises(ValidationError, match="graph mode"):
        compute_manifold(sys, ms, order=2, style="per-mode",
                         graph_modes=(5,))
    with pytest.raises(ValidationError, match="on_outer"):
        compute_manifold(sys, ms, order=2, on_outer="maybe")


def test_lifted_mechanical_input_accepted(chain10, chain_mode2_master):
    man = compute_manifold(chain10, chain_mode2_master, order=2)
    assert man.N == as_first_order(chain10).N
