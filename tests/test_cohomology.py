"""Resonance classification and the order-by-order manifold solve."""

import base64
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ssmkit import (FirstOrderSystem, ManifoldExpansion, MasterSubspace,
                    MechanicalSystem, NumericalError, OuterResonanceError,
                    ValidationError, as_first_order, build_first_order,
                    classify_resonances, compute_manifold, extract_polar_rom,
                    leading_order, master_spectrum, oscillator_chain)
from ssmkit import cohomology, forcing
from ssmkit.fileio import encode_column
from ssmkit.multiindex import MultiIndexSet
from ssmkit.polytensor import PolyCoeffs
from test_spectrum import csr_chain, plain_pencil


def twin_rotor(f_row, conv=np.asarray):
    """Two undamped rotors at frequencies 1 and 3 with one cubic term.

    The eigenvalues are +-1j and +-3j, so the order-3 sum over the slow
    pair lands exactly on the fast pair. Which row carries the cubic
    forcing decides whether the singular block stays consistent. The
    pencil's matrices are stored by ``conv``.
    """
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0] = -1.0, 1.0
    A[2, 3], A[3, 2] = -3.0, 3.0
    F3 = PolyCoeffs.from_entries(3, 4, 4, [(f_row, (0, 0, 0), 1.0)])
    return FirstOrderSystem(conv(A), conv(np.eye(4)), F_coeffs=[F3])


def manifold_residual(man, p):
    """Pointwise defect of B dW/dp R(p) = A W(p) + F(W(p))."""
    sys = man.system
    z = man.evaluate(p)
    lhs = sys.B @ (man.tangent(p) @ man.reduced_rhs(p))
    rhs = sys.A @ z + sys.F_eval(z)
    return np.abs(lhs - rhs).max()


def test_center_pair_quadratic_row(lorenz_man3):
    R2 = lorenz_man3.R[2]
    assert abs(lorenz_man3.reduced_coefficient(2, 0, (0, 1)) - 0.5) < 1e-12
    assert abs(lorenz_man3.reduced_coefficient(2, 0, (0, 0))) < 1e-12
    assert abs(lorenz_man3.reduced_coefficient(2, 0, (1, 1))) < 1e-12
    assert np.abs(R2[1]).max() < 1e-12


def test_center_pair_cubic_row(lorenz_man3):
    R3 = lorenz_man3.reduced_coefficient
    assert abs(R3(3, 0, (0, 0, 0)) - (-0.25)) < 1e-10
    assert abs(R3(3, 0, (0, 1, 1)) - (-0.125)) < 1e-10
    assert abs(R3(3, 0, (0, 0, 1))) < 1e-10
    assert abs(R3(3, 0, (1, 1, 1))) < 1e-10
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


def test_tangent_matches_finite_differences(lorenz_man3, chain_mode2_man5):
    rng = np.random.default_rng(11)
    p = rng.normal(size=2) * 0.1
    jac = lorenz_man3.tangent(p)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        col = (lorenz_man3.evaluate(p + e) - lorenz_man3.evaluate(p - e)) / (2 * h)
        assert np.abs(jac[:, j] - col).max() < 1e-7
    # a batch of conjugate-symmetric chain points, differenced as a batch
    c = 0.05 * (rng.normal(size=6) + 1j * rng.normal(size=6))
    P = np.array([c, np.conj(c)])
    jac = chain_mode2_man5.tangent(P)
    assert jac.shape == (20, 2, 6)
    for j in range(2):
        E = np.zeros((2, 1))
        E[j] = h
        col = (chain_mode2_man5.evaluate(P + E)
               - chain_mode2_man5.evaluate(P - E)) / (2 * h)
        assert np.abs(jac[:, j, :] - col).max() < 1e-7


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_batch_evaluation_stacks_single_points(chain_mode2_man5):
    """evaluate, reduced_rhs and tangent on an (M, n) batch give the
    single-point results column by column; single points keep their
    shapes, and rows= computes only the rows asked for."""
    man = chain_mode2_man5
    rng = np.random.default_rng(8)
    c = 0.08 * (rng.normal(size=7) + 1j * rng.normal(size=7))
    P = np.array([c, np.conj(c)])
    singles = [P[:, k] for k in range(P.shape[1])]
    assert man.evaluate(singles[0]).shape == (20,)
    assert man.reduced_rhs(singles[0]).shape == (2,)
    assert man.tangent(singles[0]).shape == (20, 2)
    for method in (man.evaluate, man.reduced_rhs, man.tangent):
        batch = method(P)
        stacked = np.stack([method(p) for p in singles], axis=-1)
        assert batch.shape == stacked.shape
        assert _rel(batch, stacked) <= 1e-14
    rows = [4, 0, 9]
    assert _rel(man.evaluate(P, rows=rows), man.evaluate(P)[rows]) <= 1e-14
    assert man.evaluate(singles[0], rows=rows).shape == (3,)
    # conjugate-symmetric points embed to real states, batched too
    Z = man.evaluate(P)
    assert np.abs(Z.imag).max() <= 1e-14 * np.abs(Z).max()


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
    assert report.inner_at(2) == {(p, j) for p in range(3) for j in range(2)}
    assert report.inner_at(3) == {(p, j) for p in range(4) for j in range(2)}


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
    assert len(report.inner_at(3)) == 2
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


STORAGES = pytest.mark.parametrize("conv", [np.asarray, sp.csr_matrix],
                                   ids=["dense", "csr"])


@STORAGES
def test_outer_resonance_warn_continues_when_consistent(conv):
    # the order-3 block at 3j is exactly singular, dense or sparse
    ms = master_spectrum(twin_rotor(0), select=[0, 1], n_outer=2)
    with pytest.warns(UserWarning, match="domain of validity"):
        man = compute_manifold(twin_rotor(0, conv), ms, order=3,
                               on_outer="warn")
    assert man.order == 3
    assert man.W[3].shape == (4, 4)
    rng = np.random.default_rng(1)
    for _ in range(3):
        c = (rng.normal() + 1j * rng.normal()) * 1e-3
        assert manifold_residual(man, [c, np.conj(c)]) < 1e-10


@STORAGES
def test_inconsistent_singular_block_raises(conv):
    ms = master_spectrum(twin_rotor(2), select=[0, 1], n_outer=2)
    with pytest.warns(UserWarning):
        with pytest.raises(NumericalError, match="singular and inconsistent"):
            compute_manifold(twin_rotor(2, conv), ms, order=3,
                             on_outer="warn")


def test_singular_blocks_of_an_embedded_lorenz_stay_sparse(lorenz_master,
                                                           lorenz_man3):
    # Lorenz's center blocks at orders 2 and 3 sit at lambda = 0 with an
    # exactly zero pivot; padded with 1996 decoupled stable states into
    # a CSR pencil, they factor one ulp off the shift like the dense
    # ones, with no dense N x N matrix
    lorenz, ms = lorenz_master
    N = 2000
    big = FirstOrderSystem(
        sp.block_diag((sp.csr_matrix(lorenz.A), -sp.identity(N - 4)),
                      format="csr"),
        sp.identity(N, format="csr"),
        [fc.relabel(N, N) for fc in lorenz.F_coeffs])
    pad = np.zeros((N - 4, ms.dim), dtype=complex)
    padded = MasterSubspace(ms.lambdas, np.vstack([ms.V, pad]),
                            np.vstack([ms.U, pad]), ms.pairing,
                            ms.outer_lambdas)
    tracemalloc.start()
    try:
        man = compute_manifold(big, padded, order=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 2000 x 2000 complex matrix alone takes 64 MB
    assert peak < 16e6
    for i in range(1, 4):
        assert np.array_equal(man.W[i][:4], lorenz_man3.W[i])
        assert not man.W[i][4:].any()
        assert np.array_equal(man.R[i], lorenz_man3.R[i])
    assert ([info["kernel_columns"] for info in man.diagnostics["orders"]]
            == [info["kernel_columns"]
                for info in lorenz_man3.diagnostics["orders"]])


def _conservative_chain(sparse):
    mech = oscillator_chain(10, m=1.0, k=1.0, c=0.0, kappa=0.3)
    if sparse:
        mech = MechanicalSystem(sp.csr_matrix(mech.M), sp.csr_matrix(mech.C),
                                sp.csr_matrix(mech.K), mech.f_coeffs)
    return build_first_order(mech)


def test_dense_and_sparse_pencils_give_the_same_expansion():
    # undamped: the order-3 and order-5 blocks at the master eigenvalue
    # are exactly singular, and both storages take the one path and
    # remove the same kernel
    dense = _conservative_chain(sparse=False)
    csr = _conservative_chain(sparse=True)
    assert sp.issparse(csr.A) and sp.issparse(csr.B)
    ms = master_spectrum(dense, select={"mode": "pair", "pair": 2},
                         n_outer=8)
    man_d = compute_manifold(dense, ms, order=5)
    man_s = compute_manifold(csr, ms, order=5)
    kernel = [info["kernel_columns"] for info in man_d.diagnostics["orders"]]
    assert sum(kernel) > 0
    assert kernel == [info["kernel_columns"]
                      for info in man_s.diagnostics["orders"]]
    assert all(info["lstsq_columns"] == 0
               for man in (man_d, man_s)
               for info in man.diagnostics["orders"])
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


# the condition estimate at which the reference takes least squares
RCOND_SINGULAR = 1e-12


def reference_solve_shifted(system, master, shift, rhs, what,
                            rhs_scale=1.0):
    """
    ``solve_shifted`` on the 2N pencil ``shift B - A`` for every system,
    by an independent route: SuperLU or ``lu_factor``/``lu_solve``, and
    minimum-norm least squares on a block that SuperLU fails, leaves a
    residual above 1e-6 or whose condition estimate is at most
    ``RCOND_SINGULAR``, then the same kernel projection. The reference
    for the N/2 route and for the one-ulp factor of a singular block.
    """
    A, B = system.A, system.B
    if sp.issparse(A) or sp.issparse(B):
        mat = (shift * B - A).tocsc().astype(complex)
        rcond = None
        try:
            X = spla.splu(mat).solve(rhs)
            singular = (not np.isfinite(X).all()
                        or np.abs(mat @ X - rhs).max()
                        > 1e-6 * max(np.abs(rhs).max(), 1.0))
        except RuntimeError:
            singular = True
        if singular:
            mat = mat.toarray()
    else:
        mat = shift * np.asarray(B, dtype=complex) - A
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", la.LinAlgWarning)
            lu, piv = la.lu_factor(mat)
        gecon = la.get_lapack_funcs("gecon", (mat,))
        rcond = float(gecon(lu, np.linalg.norm(mat, 1))[0])
        singular = rcond <= RCOND_SINGULAR
        if not singular:
            X = la.lu_solve((lu, piv), rhs)
    if singular:
        X = la.lstsq(mat, rhs, cond=RCOND_SINGULAR,
                     lapack_driver="gelsd")[0]
    scale = max(np.abs(master.lambdas).max(), 1.0)
    removed = 0
    for k in range(master.dim):
        if abs(shift - master.lambdas[k]) <= 1e-8 * scale:
            X -= np.multiply.outer(master.V[:, k],
                                   master.U[:, k].conj() @ (B @ X))
            removed += 1
    if singular:
        rnorm = np.abs(mat @ X - rhs).max()
        assert rnorm <= 1e-6 * max(np.abs(rhs).max(), rhs_scale, 1.0)
    return X, rcond, removed


# pencils of one model, each given as a plain first-order system: the
# lift's, then two symmetric ones
LAYOUTS = [("L1", "identity"), ("L1", "minus-k"), ("L2", "mass")]


def _chain(sparse, c):
    mech = oscillator_chain(10, m=1.0, k=1.0, c=c, kappa=0.3,
                            forcing_amplitude=np.linspace(0.1, 1.0, 10),
                            eps=0.1)
    if sparse:
        mech = MechanicalSystem(sp.csr_matrix(mech.M), sp.csr_matrix(mech.C),
                                sp.csr_matrix(mech.K), mech.f_coeffs,
                                mech.forcing, eps=mech.eps)
    return mech


def _rephased(master, like):
    """
    ``master`` with each right vector rotated onto the one of ``like``
    and its left vector rotated to keep ``U^H B V = I``. The canonical
    scaling makes the largest entry of v real and positive, and a mode
    of the mirror-symmetric chain has two largest entries of equal size,
    so rounding decides between v and -v.
    """
    phase = np.sum(like.V.conj() * master.V, axis=0)
    phase /= np.abs(phase)
    return MasterSubspace(master.lambdas, master.V / phase,
                          master.U * phase.conj(), master.pairing,
                          master.outer_lambdas, master.diagnostics)


def _expansions(monkeypatch, mech, layout, select, order, style, Omega):
    """(manifold, forced response) of the lift of ``mech`` on the
    solver's route, then of ``mech`` as a plain pencil in ``layout`` on
    the 2N reference, over its own master subspace in the lift's
    phases."""
    lift = build_first_order(mech)
    master = master_spectrum(lift, select=select, n_outer=8)
    plain = plain_pencil(mech, *layout)
    reference = _rephased(master_spectrum(plain, select=select, n_outer=8),
                          master)
    out = [(compute_manifold(lift, master, order, style=style),
            leading_order(lift, master, Omega, style=style))]
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "solve_shifted", reference_solve_shifted)
        patch.setattr(forcing, "solve_shifted", reference_solve_shifted)
        out.append((compute_manifold(plain, reference, order, style=style),
                    leading_order(plain, reference, Omega, style=style)))
    return out


def _assert_blocks_agree(man, ref, rtol):
    for blocks, ref_blocks in ((man.W, ref.W), (man.R, ref.R)):
        for i in ref_blocks:
            scale = np.abs(ref_blocks[i]).max()
            assert np.abs(blocks[i] - ref_blocks[i]).max() <= rtol * scale


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("variant,n_choice", LAYOUTS)
@pytest.mark.parametrize("select,order,style", [
    ({"mode": "pair", "pair": 2}, 5, "normal-form"),
    ({"mode": "smallest", "count": 4}, 3, "graph"),
])
def test_second_order_route_matches_the_2n_reference(
        monkeypatch, variant, n_choice, sparse, select, order, style):
    # W, R and the forced response live in the state and the reduced
    # coordinates, so every pencil of the model gives the same ones
    (man, nonaut), (ref, ref_nonaut) = _expansions(
        monkeypatch, _chain(sparse, c=0.1), (variant, n_choice), select,
        order, style, 0.56)
    assert man.master.diagnostics["left_vectors"] == "closed-form"
    assert all(info["route"] == "second-order"
               for info in man.diagnostics["orders"])
    assert nonaut.diagnostics["route"] == "second-order"
    _assert_blocks_agree(man, ref, 1e-8)
    for kt in ((1,), (-1,)):
        for got, want in ((nonaut.x0(kt), ref_nonaut.x0(kt)),
                          (nonaut.s0(kt), ref_nonaut.s0(kt))):
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
    assert max(nonaut.diagnostics["backward_residuals"].values()) <= 1e-14


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("variant,n_choice", LAYOUTS)
def test_exactly_singular_blocks_still_take_least_squares(
        monkeypatch, variant, n_choice, sparse):
    # undamped: the order-3 and order-5 blocks at the master eigenvalue
    # are exactly singular
    (man, _), (ref, _) = _expansions(
        monkeypatch, _chain(sparse, c=0.0), (variant, n_choice),
        {"mode": "pair", "pair": 2}, 5, "normal-form", 0.6)
    # the reference takes least squares on the dense singular blocks;
    # the solver factors every block, dense or sparse, and the kernel
    # projection does the rest
    kernel = [info["kernel_columns"] for info in man.diagnostics["orders"]]
    assert sum(kernel) > 0
    assert kernel == [info["kernel_columns"]
                      for info in ref.diagnostics["orders"]]
    assert all(info["lstsq_columns"] == 0
               for info in man.diagnostics["orders"])
    _assert_blocks_agree(man, ref, 1e-8)


def test_systems_without_the_mechanical_model_take_the_2n_route(
        lorenz_man3, chain10_forced, chain_mode2_master):
    assert all(info["route"] == "first-order"
               for info in lorenz_man3.diagnostics["orders"])
    fo = as_first_order(chain10_forced)
    bare = FirstOrderSystem(fo.A, fo.B, fo.F_coeffs, forcing=fo.forcing,
                            eps=fo.eps)
    nonaut = leading_order(bare, chain_mode2_master, 0.6)
    assert nonaut.diagnostics["route"] == "first-order"
    lifted = leading_order(fo, chain_mode2_master, 0.6)
    assert lifted.diagnostics["route"] == "second-order"
    assert np.abs(nonaut.x0((1,)) - lifted.x0((1,))).max() <= 1e-12


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


def _per_entry_save(man, path):
    """The format-1 writer of earlier versions: W and R as 1-based
    triplets [row, [i1, .., ik], re, im], one index_tuple call per
    stored entry, the master V and U as lists of real and imaginary
    rows, then json.dump with indent 1 and sorted keys."""
    def pack(block, degree):
        mis = MultiIndexSet(degree, man.dim)
        entries = []
        rows, cols = np.nonzero(np.abs(block) > 0)
        for k in np.lexsort((cols, rows)):
            r, c = int(rows[k]), int(cols[k])
            v = block[r, c]
            entries.append([r + 1, [i + 1 for i in mis.index_tuple(c)],
                            v.real, v.imag])
        return entries

    master = man.master.to_dict()
    for name in ("V", "U"):
        mat = getattr(man.master, name)
        master[name] = {"real": mat.real.tolist(), "imag": mat.imag.tolist()}
    data = {
        "kind": "manifold-expansion",
        "order": man.order,
        "style": man.style,
        "dim": man.dim,
        "state_dim": man.N,
        "master": master,
        "W": {str(i): pack(man.W[i], i) for i in sorted(man.W)},
        "R": {str(i): pack(man.R[i], i) for i in sorted(man.R)},
        "resonances": None,
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _hand_set_manifold(request):
    # stored entries with a signed zero part, a tiny, a huge, an
    # infinite and a NaN part: format 1 spelled the infinite ones
    # Infinity and dropped the NaN entry
    man = request.getfixturevalue("lorenz_man3")
    W = {i: b.copy() for i, b in man.W.items()}
    R = {i: b.copy() for i, b in man.R.items()}
    W[2][0] = [complex(-0.0, 1e-20), complex(1e300, -0.0),
               complex(np.inf, 1.0)]
    W[2][1, 2] = complex(1.0, -np.inf)
    W[3][1, 2] = complex(np.nan, -0.0)
    R[3][1, 3] = complex(-1e-20, 1e300)
    return ManifoldExpansion(man.system, man.master, man.order, man.style,
                             W, R, man.resonances)


def _first_pair_manifold(system, order):
    master = master_spectrum(system, select={"mode": "pair", "pair": 1},
                             n_outer=0)
    return compute_manifold(system, master, order=order)


BYTE_CASES = {
    # the README chain, pair 2, normal form
    "readme-order7": lambda rq: compute_manifold(
        rq.getfixturevalue("chain10_forced"),
        rq.getfixturevalue("chain_mode2_master"), order=7),
    "graph-M4-order5": lambda rq: compute_manifold(
        rq.getfixturevalue("chain10_forced"),
        master_spectrum(rq.getfixturevalue("chain10_forced"),
                        select={"mode": "smallest", "count": 4}, n_outer=8),
        order=5, style="graph"),
    # N = 620 takes the shift-invert path; the odd force law leaves the
    # order-2 blocks empty
    "csr-N620": lambda rq: _first_pair_manifold(
        build_first_order(csr_chain(310)), order=3),
    # degrees 10 and 11 sort before 2 among the keys
    "M2-order11": lambda rq: _first_pair_manifold(
        oscillator_chain(2, c=0.05, kappa=0.3), order=11),
    "hand-set-values": _hand_set_manifold,
}


def _no_constants(name):
    raise AssertionError("the file spells a number %s" % name)


@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_save_round_trips_bit_for_bit(case, request, tmp_path):
    man = BYTE_CASES[case](request)
    man.save(tmp_path / "one.json")
    man.save(tmp_path / "two.json")
    text = (tmp_path / "one.json").read_bytes()
    assert text == (tmp_path / "two.json").read_bytes()
    # W and R hold no Infinity or NaN tokens, even for infinite parts
    data = json.loads(text, parse_constant=_no_constants)
    assert data["format"] == 2 and text.endswith(b"}\n")
    if case == "csr-N620":
        assert man.N == 620 and data["W"]["2"]["count"] == 0
    if case == "M2-order11":
        assert text.index(b'"10": {') < text.index(b'"2": {')
    # stored entries and the master come back bit for bit; the file
    # holds no zero entries, so a signed zero entry comes back as +0
    for back in (ManifoldExpansion.load(tmp_path / "one.json"),
                 ManifoldExpansion.from_dict(man.to_dict())):
        for got, blocks in ((back.W, man.W), (back.R, man.R)):
            assert sorted(got) == sorted(blocks)
            for i in blocks:
                stored = blocks[i] != 0
                assert got[i].shape == blocks[i].shape
                assert got[i][stored].tobytes() == blocks[i][stored].tobytes()
                assert not got[i][~stored].any()
        for name in ("V", "U"):
            got, mat = getattr(back.master, name), getattr(man.master, name)
            assert got.shape == mat.shape
            assert got.tobytes() == mat.tobytes()
        assert back.master.lambdas.tobytes() == man.master.lambdas.tobytes()
        assert np.array_equal(back.master.pairing, man.master.pairing)


def test_format_1_files_are_refused(tmp_path, lorenz_man3):
    path = tmp_path / "old.json"
    _per_entry_save(lorenz_man3, path)
    with pytest.raises(ValidationError, match="format 1.*recompute"):
        ManifoldExpansion.load(path)


def _column(entry, key, dtype, change):
    """Re-encode one binary column of a block after ``change`` edits a
    writable copy of its entries."""
    arr = np.frombuffer(base64.b64decode(entry[key]), dtype=dtype).copy()
    if key == "factors":
        arr = arr.reshape(-1, entry["count"])
    arr = change(arr)
    entry[key] = base64.b64encode(arr.tobytes()).decode("ascii")


def _set(index, value):
    def change(arr):
        arr[index] = value
        return arr
    return change


def _repeat_entry(entry):
    # append a copy of the fourth stored entry to every column
    for key, dtype in (("rows", "<i4"), ("factors", "<i4"),
                       ("values", "<c16")):
        _column(entry, key, dtype,
                lambda arr: np.concatenate([arr, arr[..., 3:4]], axis=-1))
    entry["count"] += 1


def _truncate(entry, key, nbytes):
    raw = base64.b64decode(entry[key])[:-nbytes]
    entry[key] = base64.b64encode(raw).decode("ascii")


def _extend(arr):
    return np.concatenate([arr, arr[..., :1]], axis=-1)


@pytest.mark.parametrize("block,edit,message", [
    ("W3", lambda e: _column(e, "rows", "<i4", _set(0, 0)),
     "W3: row 0 outside 1..4"),
    ("W3", lambda e: _column(e, "rows", "<i4", _set(0, 5)),
     "W3: row 5 outside 1..4"),
    ("R2", lambda e: _column(e, "rows", "<i4", _set(0, 3)),
     "R2: row 3 outside 1..2"),
    ("W3", lambda e: _column(e, "factors", "<i4", _set((1, 1), 3)),
     "W3: factor 3 outside 1..2"),
    ("W2", lambda e: _column(e, "factors", "<i4", _set((0, 0), 0)),
     "W2: factor 0 outside 1..2"),
    ("W3", lambda e: _repeat_entry(e),
     r"W3: a \(row, tuple\) entry is given twice"),
    # each column must hold count entries
    ("W3", lambda e: _column(e, "rows", "<i4", _extend),
     "W3: each entry needs one row"),
    ("W3", lambda e: _column(e, "factors", "<i4", lambda a: a.ravel()[:-1]),
     "W3: each entry needs a tuple of 3 factors"),
    ("R2", lambda e: _column(e, "factors", "<i4", lambda a: a.ravel()[1:]),
     "R2: each entry needs a tuple of 2 factors"),
    ("W3", lambda e: _column(e, "values", "<c16", lambda a: a[:-1]),
     "W3: values must be"),
    ("W3", lambda e: _column(e, "values", "<c16", _extend),
     "W3: values must be"),
    ("W3", lambda e: e.__setitem__("count", e["count"] + 1),
     "W3: each entry needs one row: count is 7, rows holds 6"),
    # the payload itself
    ("W3", lambda e: e.__setitem__("rows", "AQAAAAEAAA*="),
     "W3: rows is not valid base64"),
    ("R2", lambda e: e.__setitem__("values", 12),
     "R2: values is not valid base64"),
    ("W3", lambda e: _truncate(e, "values", 3),
     "W3: values holds 93 bytes, not whole 16-byte <c16 entries"),
    ("W2", lambda e: _truncate(e, "factors", 1),
     "W2: factors holds 23 bytes, not whole 4-byte <i4 entries"),
    ("W3", lambda e: e.__setitem__("count", 1.5),
     "W3: count must be an integer"),
    ("R2", lambda e: e.pop("factors"),
     "R2: needs count, rows, factors and values"),
])
def test_load_rejects_malformed_entries(tmp_path, lorenz_man3, block, edit,
                                        message):
    # the counts in the messages are those of a W3 with six entries:
    # the five of the expansion and one set by hand
    W = dict(lorenz_man3.W)
    W[3] = W[3].copy()
    W[3][3, 3] = 0.5
    data = ManifoldExpansion(lorenz_man3.system, lorenz_man3.master, 3,
                             lorenz_man3.style, W, lorenz_man3.R,
                             None).to_dict()
    edit(data[block[0]][block[1:]])
    with pytest.raises(ValidationError, match=message):
        ManifoldExpansion.from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match=message):
        ManifoldExpansion.load(path)


def _matrix(mat):
    return {"shape": list(mat.shape), "data": encode_column(mat, "<c16")}


def _add_lambda(master):
    for part in ("real", "imag"):
        master["lambdas"][part].append(0.0)


@pytest.mark.parametrize("edit,message", [
    (lambda m, ms: m.__setitem__("V", _matrix(ms.V[:5])),
     r"master V has shape \(5, 2\), not \(state_dim, dim\) = \(6, 2\)"),
    (lambda m, ms: m.__setitem__("U", _matrix(ms.U[:, :1])),
     r"master U has shape \(6, 1\)"),
    (lambda m, ms: _add_lambda(m), "master has 3 lambdas for dim 2"),
    (lambda m, ms: m.__setitem__("pairing", [1]),
     "master has 1 pairing for dim 2"),
    (lambda m, ms: m.__setitem__("pairing", [1, 2]),
     r"master pairing \[1, 2\] leaves 0..1"),
    (lambda m, ms: m["V"].__setitem__("shape", [6]),
     "master V: shape must be two counts"),
    (lambda m, ms: m["V"].__setitem__("shape", [6, 3]),
     r"master V: shape \[6, 3\] needs 18 entries, data holds 12"),
])
def test_load_rejects_a_master_that_does_not_fit(edit, message):
    man = _first_pair_manifold(oscillator_chain(3), order=3)
    data = man.to_dict()
    edit(data["master"], man.master)
    with pytest.raises(ValidationError, match=message):
        ManifoldExpansion.from_dict(data)


@pytest.mark.parametrize("edit,message", [
    (lambda d: d.__setitem__("order", 5), r"W holds the degrees \['1', "
     r"'2', '3'\], not 1..5"),
    (lambda d: d["W"].pop("2"), r"W holds the degrees \['1', '3'\], "
     "not 1..3"),
    (lambda d: d["R"].pop("3"), r"R holds the degrees \['1', '2'\], "
     "not 1..3"),
    (lambda d: d.__setitem__("W", {}), r"W holds the degrees \[\], "
     "not 1..3"),
    (lambda d: d.__setitem__("order", 0), "order must be an integer >= 1, "
     "not 0"),
    (lambda d: d.__setitem__("order", 3.0), "order must be an integer"),
    (lambda d: d.__setitem__("style", "banana"), "style 'banana' is not "
     "one of"),
], ids=["order-5", "no-W2", "no-R3", "no-W", "order-0", "order-float",
        "style-banana"])
def test_load_rejects_a_header_that_does_not_fit_the_blocks(
        chain_mode2_master, chain10_forced, edit, message):
    man = compute_manifold(chain10_forced, chain_mode2_master, order=3)
    data = man.to_dict()
    edit(data)
    with pytest.raises(ValidationError, match=message):
        ManifoldExpansion.from_dict(data)


def test_coefficient_accessors_accept_any_order(lorenz_man3,
                                               chain_mode2_man5):
    mis = MultiIndexSet(2, 2)
    assert (lorenz_man3.reduced_coefficient(2, 0, (1, 0))
            == lorenz_man3.R[2][0, mis.position((0, 1))])
    assert (lorenz_man3.coefficient(2, 3, (1, 1))
            == lorenz_man3.W[2][3, mis.position((1, 1))])
    man = chain_mode2_man5
    for degree in range(1, 6):
        for idx in MultiIndexSet(degree, 2).tuples():
            for perm in set(itertools.permutations(idx)):
                assert (man.coefficient(degree, 4, perm)
                        == man.coefficient(degree, 4, idx))
                assert (man.reduced_coefficient(degree, 1, perm)
                        == man.reduced_coefficient(degree, 1, idx))


@pytest.mark.parametrize("count, order", [(2, 7), (4, 5)])
def test_blocks_hold_one_column_per_monomial(chain10_forced, count, order):
    master = master_spectrum(chain10_forced,
                             select={"mode": "smallest", "count": count},
                             n_outer=8)
    man = compute_manifold(chain10_forced, master, order, style="graph")
    for i in range(1, order + 1):
        assert man.W[i].shape == (man.N, math.comb(count + i - 1, i))
        assert man.R[i].shape == (count, math.comb(count + i - 1, i))


def test_permuted_tuples_load_as_their_sum(lorenz_man3):
    # files that kept every ordering of a monomial in its own entry
    data = lorenz_man3.to_dict()
    entry = data["W"]["3"]
    factors = np.frombuffer(base64.b64decode(entry["factors"]),
                            "<i4").reshape(3, -1)
    values = np.frombuffer(base64.b64decode(entry["values"]), "<c16")
    rows = np.frombuffer(base64.b64decode(entry["rows"]), "<i4")
    # split each value whose tuple has a second ordering into two parts
    rolled = np.roll(factors, 1, axis=0)
    two = (rolled != factors).any(axis=0)
    assert two.sum() >= 2
    split = {"count": entry["count"] + int(two.sum()),
             "rows": encode_column(np.concatenate([rows, rows[two]]), "<i4"),
             "factors": encode_column(np.hstack([factors, rolled[:, two]]),
                                      "<i4"),
             "values": encode_column(np.concatenate(
                 [np.where(two, 0.25, 1.0) * values, 0.75 * values[two]]),
                 "<c16")}
    data["W"]["3"] = split
    back = ManifoldExpansion.from_dict(data)
    want = lorenz_man3.W[3]
    assert np.abs(back.W[3] - want).max() <= 1e-15 * np.abs(want).max()
    assert np.array_equal(back.W[2], lorenz_man3.W[2])


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
