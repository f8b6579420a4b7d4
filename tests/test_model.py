"""Model builders: chain, extended Lorenz and the first-order liftings."""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from ssmkit import (MechanicalSystem, FirstOrderSystem, build_first_order,
                    as_first_order, oscillator_chain, lorenz_extended,
                    cosine_forcing)
from ssmkit.errors import ValidationError
from ssmkit.polytensor import PolyCoeffs


def chain_force_oracle(x, kappa):
    """Cubic wall-to-wall spring force, straight from its definition."""
    e = np.concatenate(([x[0]], np.diff(x), [-x[-1]]))
    return kappa * (e[:-1] ** 3 - e[1:] ** 3)


def test_single_mass_reduces_to_duffing():
    mech = oscillator_chain(1, k=1.3, kappa=0.4)
    assert mech.K[0, 0] == pytest.approx(2.6)
    for x in (0.3, -1.1):
        assert mech.f_eval([x]) == pytest.approx(2 * 0.4 * x**3)


def test_chain_force_values():
    mech = oscillator_chain(3, kappa=0.3)
    got = mech.f_eval([1.0, 0.0, 0.0])
    assert np.allclose(got, [0.6, -0.3, 0.0])


def test_chain_force_matches_oracle():
    rng = np.random.default_rng(0)
    mech = oscillator_chain(7, kappa=0.25)
    for _ in range(5):
        x = rng.standard_normal(7)
        assert np.allclose(mech.f_eval(x), chain_force_oracle(x, 0.25))


def test_chain_matrices():
    mech = oscillator_chain(4, m=2.0, k=1.5, c=0.2)
    L = np.array([[2, -1, 0, 0], [-1, 2, -1, 0],
                  [0, -1, 2, -1], [0, 0, -1, 2]], dtype=float)
    assert np.allclose(mech.M, 2.0 * np.eye(4))
    assert np.allclose(mech.K, 1.5 * L)
    assert np.allclose(mech.C, 0.2 * L)
    assert mech.symmetric


def test_l2_lift_blocks():
    mech = oscillator_chain(3)
    sys = build_first_order(mech)
    assert sys.variant == "L2" and sys.symmetric
    n = 3
    A, B = sys.dense_pencil()
    assert np.allclose(A[:n, :n], -mech.K)
    assert np.allclose(A[n:, n:], mech.M)
    assert np.allclose(A[:n, n:], 0.0) and np.allclose(A[n:, :n], 0.0)
    assert np.allclose(B[:n, :n], mech.C)
    assert np.allclose(B[:n, n:], mech.M)
    assert np.allclose(B[n:, :n], mech.M)
    assert np.allclose(B[n:, n:], 0.0)


def test_l1_lift_blocks():
    mech = oscillator_chain(3)
    sys = build_first_order(mech, variant="L1")
    assert sys.variant == "L1" and not sys.symmetric
    n = 3
    A, B = sys.dense_pencil()
    assert np.allclose(A[:n, n:], np.eye(n))
    assert np.allclose(A[n:, :n], -mech.K)
    assert np.allclose(A[n:, n:], -mech.C)
    assert np.allclose(B[:n, :n], np.eye(n))
    assert np.allclose(B[n:, n:], mech.M)


def test_l1_minus_k_keeps_symmetry():
    sys = build_first_order(oscillator_chain(3), variant="L1",
                            n_choice="minus-k")
    assert sys.symmetric


def test_lift_rhs_consistency():
    # first-order rhs must reproduce x'' = -M^-1 (Cv + Kx + f) on both
    # layouts, including the forcing column
    mech = oscillator_chain(4, c=0.3, kappa=0.5,
                            forcing_amplitude=[1.0, 0.0, -2.0, 0.5], eps=0.2)
    rng = np.random.default_rng(8)
    x, v = rng.standard_normal(4), rng.standard_normal(4)
    acc = np.linalg.solve(
        mech.M, -(mech.C @ v + mech.K @ x + mech.f_eval(x))
        + mech.eps * np.array([1.0, 0.0, -2.0, 0.5]) * np.cos(0.7))
    for variant in ("L1", "L2"):
        sys = build_first_order(mech, variant=variant)
        z = np.concatenate([x, v])
        A, B = sys.dense_pencil()
        rhs = A @ z + sys.F_eval(z) + mech.eps * sys.forcing_eval([0.7])
        zdot = np.linalg.solve(B, rhs)
        assert np.allclose(zdot[:4], v)
        assert np.allclose(zdot[4:], acc)


def test_l1_l2_same_eigenvalues():
    mech = oscillator_chain(5, c=0.2)
    w1 = la.eigvals(*build_first_order(mech, variant="L1").dense_pencil())
    w2 = la.eigvals(*build_first_order(mech, variant="L2").dense_pencil())
    assert np.allclose(np.sort_complex(w1), np.sort_complex(w2), atol=1e-9)


def test_sparse_chain_roundtrip():
    mech = oscillator_chain(30)
    mech_sp = MechanicalSystem(sp.csr_matrix(mech.M), sp.csr_matrix(mech.C),
                               sp.csr_matrix(mech.K), mech.f_coeffs)
    sys = build_first_order(mech_sp)
    assert sp.issparse(sys.A) and sp.issparse(sys.B)
    dense = build_first_order(mech)
    assert np.allclose(sys.A.toarray(), dense.A)
    assert np.allclose(sys.B.toarray(), dense.B)


def test_cosine_forcing_table():
    table = cosine_forcing([2.0, 4.0], kappa=2)
    assert sorted(kt for kt, _ in table) == [(-2,), (2,)]
    for _, vec in table:
        assert np.allclose(vec, [1.0, 2.0])


def test_forcing_validation():
    eye = np.eye(2)
    with pytest.raises(ValidationError, match="closed under conjugation"):
        MechanicalSystem(eye, eye, eye, forcing=[((1,), [1.0, 1j])])
    with pytest.raises(ValidationError, match="must be real"):
        MechanicalSystem(eye, eye, eye, forcing=[((0,), [1j, 0.0])])
    with pytest.raises(ValidationError, match="not complex conjugates"):
        MechanicalSystem(eye, eye, eye,
                         forcing=[((1,), [1j, 0]), ((-1,), [1j, 0])])
    with pytest.raises(ValidationError, match="state-dependent"):
        MechanicalSystem(eye, eye, eye, forcing=[((1,), lambda x: x)])
    with pytest.raises(ValidationError, match="duplicate"):
        MechanicalSystem(eye, eye, eye,
                         forcing=[((1,), [1, 0]), ((1,), [1, 0]),
                                  ((-1,), [1, 0])])


def test_forcing_eval_is_real_cosine():
    # L2 layout keeps the force balance in the first block rows
    mech = oscillator_chain(2, forcing_amplitude=[1.0, 3.0], eps=1.0)
    sys = build_first_order(mech)
    for phi in (0.0, 0.4, 2.0):
        want = np.array([1.0, 3.0, 0, 0]) * np.cos(phi)
        got = sys.forcing_eval([phi])
        assert got.dtype.kind == "f"
        assert np.allclose(got, want)


def test_l1_forcing_sits_in_second_block():
    mech = oscillator_chain(2, forcing_amplitude=[1.0, 3.0], eps=1.0)
    sys = build_first_order(mech, variant="L1")
    got = sys.forcing_eval([0.0])
    assert np.allclose(got, [0, 0, 1.0, 3.0])


def test_singular_mass_rejected():
    with pytest.raises(ValidationError, match="mass matrix"):
        MechanicalSystem(np.diag([1.0, 0.0]), np.eye(2), np.eye(2))


def test_singular_b_rejected():
    with pytest.raises(ValidationError, match="matrix B"):
        FirstOrderSystem(np.eye(2), np.diag([1.0, 0.0]))


@pytest.mark.parametrize("sparse", [False, True])
def test_singular_auxiliary_block_rejected(sparse):
    # a free-free pair: K is singular, so N = -K makes B singular
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    mats = (np.eye(2), 0.1 * np.eye(2), K)
    if sparse:
        mats = tuple(sp.csr_matrix(m) for m in mats)
    mech = MechanicalSystem(*mats)
    with pytest.raises(ValidationError, match="singular"):
        build_first_order(mech, variant="L1", n_choice="minus-k")


def test_nonlinearity_shape_rejected():
    fc = PolyCoeffs.from_entries(2, 3, 3, [(0, (0, 0), 1.0)])
    with pytest.raises(ValidationError, match="does not match"):
        MechanicalSystem(np.eye(2), np.eye(2), np.eye(2), f_coeffs=[fc])
    lin = PolyCoeffs.from_entries(1, 2, 2, [(0, (0,), 1.0)])
    with pytest.raises(ValidationError, match="degrees must be >= 2"):
        MechanicalSystem(np.eye(2), np.eye(2), np.eye(2), f_coeffs=[lin])


def test_lorenz_extended_model():
    sys = lorenz_extended()
    A, B = sys.dense_pencil()
    assert np.allclose(B, np.eye(4))
    assert np.allclose(A, [[-1, 1, 0, 0], [1, -1, 0, 0],
                           [0, 0, -1, 0], [0, 0, 0, 0]])
    w = np.sort(la.eigvals(A).real)
    assert np.allclose(w, [-2.0, -1.0, 0.0, 0.0], atol=1e-12)
    # quadratic terms: x*mu into row 2, -x*z into row 2, x*y into row 3
    z = np.array([0.5, -0.3, 0.8, 1.1])
    want = np.array([0.0, z[0] * z[3] - z[0] * z[2], z[0] * z[1], 0.0])
    assert np.allclose(sys.F_eval(z), want)


def test_as_first_order():
    mech = oscillator_chain(2)
    sys = as_first_order(mech)
    assert isinstance(sys, FirstOrderSystem)
    assert as_first_order(sys) is sys
    with pytest.raises(ValidationError):
        as_first_order(np.eye(3))
