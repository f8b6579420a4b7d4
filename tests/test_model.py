"""Model builders: chain, extended Lorenz and the first-order liftings."""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from ssmkit import (MechanicalSystem, FirstOrderSystem, build_first_order,
                    as_first_order, oscillator_chain, lorenz_extended,
                    cosine_forcing)
from ssmkit import model
from ssmkit.errors import NumericalError, ValidationError
from ssmkit.model import left_vectors
from ssmkit.polytensor import PolyCoeffs
from test_spectrum import plain_pencil


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


def test_force_evaluation_takes_a_batch():
    mech = oscillator_chain(4)
    system = build_first_order(mech)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 3))
    Z = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    got_f, got_F = mech.f_eval(X), system.F_eval(Z)
    assert got_f.shape == (4, 3) and got_F.shape == (8, 3)
    for j in range(3):
        assert np.array_equal(got_f[:, j], mech.f_eval(X[:, j]))
        assert np.array_equal(got_F[:, j], system.F_eval(Z[:, j]))
        assert np.allclose(got_f[:, j], chain_force_oracle(X[:, j], 0.3))


def test_chain_matrices():
    mech = oscillator_chain(4, m=2.0, k=1.5, c=0.2)
    L = np.array([[2, -1, 0, 0], [-1, 2, -1, 0],
                  [0, -1, 2, -1], [0, 0, -1, 2]], dtype=float)
    assert np.allclose(mech.M, 2.0 * np.eye(4))
    assert np.allclose(mech.K, 1.5 * L)
    assert np.allclose(mech.C, 0.2 * L)
    assert mech.symmetric


def test_l1_lift_blocks():
    mech = oscillator_chain(3)
    sys = build_first_order(mech)
    assert sys.mech is mech
    n = 3
    A, B = sys.dense_pencil()
    assert np.allclose(A[:n, :n], 0.0) and np.allclose(A[:n, n:], np.eye(n))
    assert np.allclose(A[n:, :n], -mech.K)
    assert np.allclose(A[n:, n:], -mech.C)
    assert np.allclose(B[:n, :n], np.eye(n))
    assert np.allclose(B[:n, n:], 0.0) and np.allclose(B[n:, :n], 0.0)
    assert np.allclose(B[n:, n:], mech.M)


def test_l2_lift_blocks():
    # the L2 layout survives as the plain reference pencil the layout
    # comparisons use; it must keep its blocks, its symmetry and no mech
    mech = oscillator_chain(3)
    sys = plain_pencil(mech, "L2", "mass")
    assert sys.mech is None
    n = 3
    A, B = sys.dense_pencil()
    assert np.allclose(A[:n, :n], -mech.K)
    assert np.allclose(A[n:, n:], mech.M)
    assert np.allclose(A[:n, n:], 0.0) and np.allclose(A[n:, :n], 0.0)
    assert np.allclose(B[:n, :n], mech.C)
    assert np.allclose(B[:n, n:], mech.M)
    assert np.allclose(B[n:, :n], mech.M)
    assert np.allclose(B[n:, n:], 0.0)
    assert np.allclose(A, A.T) and np.allclose(B, B.T)


def test_lift_rhs_consistency():
    # first-order rhs must reproduce x'' = -M^-1 (Cv + Kx + f) on the
    # lift and on the tests' other pencils, including the forcing column
    mech = oscillator_chain(4, c=0.3, kappa=0.5,
                            forcing_amplitude=[1.0, 0.0, -2.0, 0.5], eps=0.2)
    rng = np.random.default_rng(8)
    x, v = rng.standard_normal(4), rng.standard_normal(4)
    acc = np.linalg.solve(
        mech.M, -(mech.C @ v + mech.K @ x + mech.f_eval(x))
        + mech.eps * np.array([1.0, 0.0, -2.0, 0.5]) * np.cos(0.7))
    for sys in (build_first_order(mech), plain_pencil(mech, "L1", "minus-k"),
                plain_pencil(mech, "L2", "mass")):
        z = np.concatenate([x, v])
        A, B = sys.dense_pencil()
        rhs = A @ z + sys.F_eval(z) + mech.eps * sys.forcing_eval([0.7])
        zdot = np.linalg.solve(B, rhs)
        assert np.allclose(zdot[:4], v)
        assert np.allclose(zdot[4:], acc)


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_reduced_force_folds_the_lifted_nonlinearity(storage):
    # the implicit step (sigma B - A) z - F(z) = c at N/2 rows: G has the
    # bits of F's last n rows (its first n are zero), and at z =
    # unfold(x, c) the first n rows of the 2N residual vanish and the
    # last n are Q x - G(x) - fold(c)
    mech = oscillator_chain(5, c=0.3, kappa=0.5)
    if storage == "csr":
        mech = MechanicalSystem(*(sp.csr_matrix(mat) for mat in
                                  (mech.M, mech.C, mech.K)), mech.f_coeffs)
    system = build_first_order(mech)
    part, G = model.reduced_force(system)
    rng = np.random.default_rng(9)
    z, c = rng.standard_normal(10), rng.standard_normal(10)
    F = system.F_eval(z)
    assert np.array_equal(part(z), z[:5])
    assert not F[:5].any() and np.array_equal(G(part(z)), F[5:])
    sigma = 1.7
    mat, fold, unfold = model.reduced_shifted(system, sigma)
    x = part(z)
    zx = unfold(x, c)
    A, B = system.dense_pencil()
    residual = (sigma * B - A) @ zx - system.F_eval(zx) - c
    assert np.abs(residual[:5]).max() <= 1e-14 * np.abs(c).max()
    assert np.allclose(residual[5:], mat @ x - G(x) - fold(c),
                       rtol=0, atol=1e-13)
    # a pencil without its mechanical model iterates on the whole state
    plain = plain_pencil(mech)
    part, G = model.reduced_force(plain)
    assert part(z) is z and np.array_equal(G(z), plain.F_eval(z))


def test_l1_l2_same_eigenvalues():
    mech = oscillator_chain(5, c=0.2)
    w1 = la.eigvals(*build_first_order(mech).dense_pencil())
    w2 = la.eigvals(*plain_pencil(mech, "L2", "mass").dense_pencil())
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

    with pytest.raises(ValidationError, match="one entry per frequency"):
        MechanicalSystem(eye, eye, eye,
                         forcing=[((1,), [1, 0]), ((-1,), [1, 0]),
                                  ((1, 1), [0, 1]), ((-1, -1), [0, 1])])
    with pytest.raises(ValidationError, match="one entry per frequency"):
        FirstOrderSystem(eye, eye, forcing=[((1, 0), [1, 0]), (-1, [1, 0])])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_forcing_is_refused(bad):
    # a NaN pair passes the conjugation check, since NaN compares false
    eye = np.eye(2)
    with pytest.raises(ValidationError, match=r"harmonic \(1,\) has "
                       "non-finite entries"):
        MechanicalSystem(eye, np.zeros((2, 2)), eye, eps=0.1,
                         forcing=[(1, [bad, 0]), (-1, [np.conj(bad), 0])])
    with pytest.raises(ValidationError, match=r"harmonic \(0,\) has "
                       "non-finite entries"):
        FirstOrderSystem(eye, eye, forcing=[(0, [0, bad])])


def test_forcing_eval_matches_the_per_harmonic_loop():
    # two base frequencies, a combination harmonic and a static load
    rng = np.random.default_rng(3)
    a, b = (rng.standard_normal(4) + 1j * rng.standard_normal(4)
            for _ in range(2))
    table = [((1, 0), a), ((-1, 0), a.conj()), ((1, -2), b),
             ((-1, 2), b.conj()), ((0, 0), rng.standard_normal(4))]
    sys = FirstOrderSystem(np.eye(4), np.eye(4), forcing=table, eps=1.0)
    assert sys.nfreq == 2
    for phase in ([0.0, 0.0], [0.7, -1.3], [12.5, 3.1]):
        want = np.zeros(4, dtype=complex)
        for kt, vec in sys.forcing:
            want += vec * np.exp(1j * np.dot(kt, phase))
        got = sys.forcing_eval(phase)
        assert got.dtype.kind == "f"
        assert np.allclose(got, want.real, rtol=1e-14, atol=1e-14)
    unforced = FirstOrderSystem(np.eye(4), np.eye(4))
    assert unforced.nfreq == 0
    assert np.array_equal(unforced.forcing_eval([0.3]), np.zeros(4))


def test_forcing_eval_is_real_cosine():
    # the lift keeps the force balance in the second block rows
    mech = oscillator_chain(2, forcing_amplitude=[1.0, 3.0], eps=1.0)
    sys = build_first_order(mech)
    for phi in (0.0, 0.4, 2.0):
        want = np.array([0, 0, 1.0, 3.0]) * np.cos(phi)
        got = sys.forcing_eval([phi])
        assert got.dtype.kind == "f"
        assert np.allclose(got, want)


def test_l1_forcing_sits_in_second_block():
    mech = oscillator_chain(2, forcing_amplitude=[1.0, 3.0], eps=1.0)
    sys = build_first_order(mech)
    got = sys.forcing_eval([0.0])
    assert np.allclose(got, [0, 0, 1.0, 3.0])


def test_singular_mass_rejected():
    with pytest.raises(ValidationError, match="mass matrix"):
        MechanicalSystem(np.diag([1.0, 0.0]), np.eye(2), np.eye(2))


def test_singular_b_rejected():
    with pytest.raises(ValidationError, match="matrix B"):
        FirstOrderSystem(np.eye(2), np.diag([1.0, 0.0]))


def test_ill_conditioned_sparse_b_reports_its_pivot_ratio():
    # dense and CSR are judged by one number, the condition estimate
    for conv in (np.asarray, sp.csr_matrix):
        B = conv(np.diag([1.0, 1e-15]))
        with pytest.raises(ValidationError, match=r"matrix B is singular or "
                           r"ill-conditioned \(reciprocal condition "
                           r"estimate 1\.0e-15\)"):
            FirstOrderSystem(-conv(np.eye(2)), B)


@pytest.mark.parametrize("conv", [np.asarray, sp.csr_matrix],
                         ids=["dense", "csr"])
def test_one_nonsingularity_verdict_for_both_storages(conv):
    # a lumped mass of 1e-15 kg is as well conditioned as one of 1 kg;
    # a pivot ratio floored at 1 refused the CSR copy
    eye = np.eye(4)
    before = np.random.get_state()
    mech = MechanicalSystem(conv(1e-15 * eye), conv(1e-15 * eye), conv(eye))
    # B = diag(I, M) is singular exactly when M is, so the lift takes
    # M's verdict; a pencil given without its mechanical model is judged
    lifted = build_first_order(mech)
    with pytest.raises(ValidationError, match="pencil matrix B is singular "
                       "or ill-conditioned"):
        FirstOrderSystem(lifted.A, lifted.B)
    MechanicalSystem(conv(np.diag([1.0, 2.0, 3.0, 4.0])), conv(eye),
                     conv(eye))
    # the estimate starts from a fixed vector, not numpy's global draws
    after = np.random.get_state()
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])
    for bad in (np.nan, np.inf):
        M = eye.copy()
        M[0, 1] = bad
        with pytest.raises(ValidationError, match="mass matrix M is singular "
                           "or ill-conditioned"):
            MechanicalSystem(conv(M), conv(eye), conv(eye))


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, "abc", None,
                                 True])
def test_non_finite_eps_is_refused(eps):
    with pytest.raises(ValidationError, match="eps must be a finite number"):
        oscillator_chain(2, eps=eps)
    with pytest.raises(ValidationError, match="eps must be a finite number"):
        FirstOrderSystem(-np.eye(2), np.eye(2), eps=eps)


def test_nonlinearity_shape_rejected():
    fc = PolyCoeffs.from_entries(2, 3, 3, [(0, (0, 0), 1.0)])
    with pytest.raises(ValidationError, match="does not match"):
        MechanicalSystem(np.eye(2), np.eye(2), np.eye(2), f_coeffs=[fc])
    lin = PolyCoeffs.from_entries(1, 2, 2, [(0, (0,), 1.0)])
    with pytest.raises(ValidationError, match="degrees must be >= 2"):
        MechanicalSystem(np.eye(2), np.eye(2), np.eye(2), f_coeffs=[lin])


def test_complex_nonlinearity_rejected():
    # the cubic block of a Duffing oscillator with value 1 + 0.5j
    cubic = PolyCoeffs.from_entries(3, 1, 1, [(0, (0, 0, 0), 1.0 + 0.5j)])
    with pytest.raises(ValidationError, match="imaginary"):
        MechanicalSystem(np.eye(1), 0.1 * np.eye(1), np.eye(1),
                         f_coeffs=[cubic])
    lifted = PolyCoeffs.from_entries(3, 2, 2, [(1, (0, 0, 0), -1.0 - 0.5j)])
    with pytest.raises(ValidationError, match="imaginary"):
        FirstOrderSystem(-np.eye(2), np.eye(2), [lifted])
    # a complex dtype with zero imaginary parts is a real nonlinearity
    real = PolyCoeffs.from_entries(3, 1, 1, [(0, (0, 0, 0), 1.0 + 0j)])
    mech = MechanicalSystem(np.eye(1), 0.1 * np.eye(1), np.eye(1),
                            f_coeffs=[real])
    z = np.array([0.5, 0.0])
    got = build_first_order(mech).F_eval(z)
    assert got.dtype == np.float64 and np.array_equal(got, [0.0, -0.125])
    lifted = PolyCoeffs.from_entries(3, 2, 2, [(1, (0, 0, 0), -1.0 + 0j)])
    got = FirstOrderSystem(-np.eye(2), np.eye(2), [lifted]).F_eval(z)
    assert got.dtype == np.float64 and np.array_equal(got, [0.0, -0.125])


def test_sparse_lift_past_the_position_capacity():
    # (2n)**3 = 5.1e14 Kronecker positions for the lifted cubic, far past
    # what a dense block could hold
    n = 4 * 10**4
    eye = sp.identity(n, format="csr")
    cubic = PolyCoeffs.from_entries(3, n, n, [(0, (0, 0, 0), 2.0),
                                              (n - 1, (0, n - 2, n - 1), -1.5),
                                              (n - 1, (n - 1, n - 1, 7), 0.5)])
    mech = MechanicalSystem(eye, 0.01 * eye, eye, f_coeffs=[cubic])
    system = build_first_order(mech)
    assert system.N == 2 * n
    z = np.random.default_rng(0).standard_normal(2 * n)
    f = cubic.evaluate(z[:n])
    assert np.count_nonzero(f) == 2
    assert np.array_equal(system.F_eval(z), np.concatenate([np.zeros(n), -f]))


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


@pytest.mark.parametrize("conv", [np.asarray, sp.csr_matrix],
                         ids=["dense", "csr"])
def test_left_vectors_step_next_to_an_exactly_singular_factor(conv):
    # a zero eigenvalue of a plain pencil, as Lorenz's, makes the
    # inverse-iteration matrix exactly singular at lambda = 0
    A, B = np.diag([0.0, -1.0]), np.eye(2)
    sys = FirstOrderSystem(conv(A), conv(B))
    V = np.array([[1.0], [0.0]], dtype=complex)
    u = left_vectors(sys, V, np.zeros(1, dtype=complex))[:, 0]
    assert np.abs(A.T @ u).max() <= 1e-15 * np.abs(u).max()
    assert abs(u.conj() @ B @ V[:, 0]) >= 0.5 * np.abs(u).max()


@pytest.mark.parametrize("lifted", [True, False], ids=["mech", "plain"])
@pytest.mark.parametrize("conv", [np.asarray, sp.csr_matrix],
                         ids=["dense", "csr"])
def test_factorize_near_returns_the_shift_it_factored(conv, lifted):
    # lambda = 2 is an eigenvalue of both: Q(2) = 4 M + K = diag(0, 5),
    # 2 B - A = diag(0, 3)
    if lifted:
        sys = build_first_order(MechanicalSystem(
            conv(np.eye(2)), conv(np.zeros((2, 2))),
            conv(np.diag([-4.0, 1.0]))))
    else:
        sys = FirstOrderSystem(conv(np.diag([2.0, -1.0])), conv(np.eye(2)))
    eps = np.finfo(float).eps
    for shift, want in ((0.5, 0.5), (2.0, 2.0 + 2.0 * eps),
                        (2.0 + 0j, 2.0 + 2.0 * eps)):
        solve, _, used, (_, fold, unfold) = model.factorize_near(sys, shift)
        assert used == want
        # the solve is the one at the shift it reports
        rhs = np.ones(sys.N)
        x = unfold(solve(fold(rhs)), rhs)
        A, B = sys.dense_pencil()
        resid = (used * B - A) @ x - rhs
        assert np.abs(resid).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("conv", [np.asarray, sp.csr_matrix],
                         ids=["dense", "csr"])
def test_left_vectors_refuse_when_the_next_shift_is_singular_too(conv):
    # the eigenvalues 0 and eps: lambda = 0 and the shift next to it both
    # have an exactly zero pivot
    eps = np.finfo(float).eps
    sys = FirstOrderSystem(conv(np.diag([0.0, eps])), conv(np.eye(2)))
    V = np.array([[1.0], [0.0]], dtype=complex)
    with pytest.raises(NumericalError, match="exactly singular at 0j"):
        left_vectors(sys, V, np.zeros(1, dtype=complex))


@pytest.mark.parametrize("lifted", [True, False], ids=["mech", "plain"])
def test_left_vectors_solve_once_per_conjugate_pair(monkeypatch, lifted):
    mech = oscillator_chain(6, c=0.05)
    C = mech.C.copy()
    C[0, 1] += 0.02
    lift = build_first_order(MechanicalSystem(mech.M, C, mech.K))
    sys = lift if lifted else FirstOrderSystem(lift.A, lift.B)
    w, vecs = la.eig(*sys.dense_pencil())
    upper = np.flatnonzero(w.imag > 0)[:2]
    # two pairs, the second with its negative member first
    lambdas = np.array([w[upper[0]], w[upper[0]].conjugate(),
                        w[upper[1]].conjugate(), w[upper[1]]])
    V = np.column_stack([vecs[:, upper[0]], vecs[:, upper[0]].conj(),
                         vecs[:, upper[1]].conj(), vecs[:, upper[1]]])
    calls = []
    real_factorize = model.factorize

    def counting(mat):
        calls.append(mat)
        return real_factorize(mat)
    monkeypatch.setattr(model, "factorize", counting)
    U = left_vectors(sys, V, lambdas)
    assert len(calls) == 2
    assert U[:, 1].tobytes() == U[:, 0].conj().tobytes()
    assert U[:, 2].tobytes() == U[:, 3].conj().tobytes()
    # each solved column has the bits of its own solve
    for k in (0, 3):
        alone = left_vectors(sys, V[:, k:k + 1], lambdas[k:k + 1])
        assert alone.tobytes() == U[:, k:k + 1].tobytes()
    A, B = sys.dense_pencil()
    for k in range(4):
        u = U[:, k]
        resid = A.conj().T @ u - lambdas[k].conjugate() * (B.conj().T @ u)
        assert la.norm(resid) <= 1e-10 * la.norm(u) * la.norm(A)


def test_as_first_order():
    mech = oscillator_chain(2)
    sys = as_first_order(mech)
    assert isinstance(sys, FirstOrderSystem)
    assert as_first_order(sys) is sys
    with pytest.raises(ValidationError):
        as_first_order(np.eye(3))
