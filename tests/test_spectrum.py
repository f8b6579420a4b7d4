"""Master spectrum: values, normalization, selection and the sparse path."""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from ssmkit import (FirstOrderSystem, MechanicalSystem, oscillator_chain,
                    lorenz_extended, master_spectrum, check_normalization,
                    MasterSubspace, build_first_order, cosine_forcing)
from ssmkit.errors import NumericalError, ValidationError
from ssmkit.spectrum import check_norm_arrays

CHAIN_PAIRS = [-0.0041 + 0.2846j, -0.0159 + 0.5632j, -0.0345 + 0.8301j]


def test_chain_modal_eigenvalues(chain10):
    ms = master_spectrum(chain10, select={"mode": "smallest", "count": 6},
                         n_outer=4)
    reps = [ms.lambdas[i] for i in ms.pair_representatives()]
    assert len(reps) == 3
    for got, want in zip(sorted(reps, key=lambda z: z.imag), CHAIN_PAIRS):
        assert got.real == pytest.approx(want.real, abs=1e-3)
        assert got.imag == pytest.approx(want.imag, abs=1e-3)


def test_biorthogonal_normalization(chain10):
    ms = master_spectrum(chain10, select={"mode": "smallest", "count": 6})
    sys = __import__("ssmkit").as_first_order(chain10)
    assert check_normalization(ms, sys) <= 1e-10


def test_normalization_nonsymmetric_variant():
    # the lift's pencil is not symmetric; its left vectors come in
    # closed form from M, C and K
    sys = build_first_order(oscillator_chain(6))
    ms = master_spectrum(sys, select={"mode": "smallest", "count": 4})
    assert ms.diagnostics["left_vectors"] == "closed-form"
    assert check_normalization(ms, sys) <= 1e-10


def test_eigenvalues_independent_of_variant():
    # the symmetric L2 pencil B = [[C, M], [M, 0]], given as a plain
    # first-order system, takes one inverse-iteration step
    mech = oscillator_chain(6, c=0.15)
    lifted = master_spectrum(build_first_order(mech),
                             select={"mode": "smallest", "count": 6})
    l2 = plain_pencil(mech, "L2", "mass")
    plain = master_spectrum(l2, select={"mode": "smallest", "count": 6})
    assert plain.diagnostics["left_vectors"] == "inverse-iteration"
    assert np.allclose(np.sort_complex(lifted.lambdas),
                       np.sort_complex(plain.lambdas), atol=1e-9)
    assert check_normalization(plain, l2) <= 1e-10


def test_conjugate_pairing_is_exact(chain10):
    ms = master_spectrum(chain10, select={"mode": "smallest", "count": 6})
    assert np.array_equal(ms.lambdas[ms.pairing], ms.lambdas.conjugate())
    assert np.array_equal(ms.V[:, ms.pairing], ms.V.conjugate())
    assert np.array_equal(ms.U[:, ms.pairing], ms.U.conjugate())


def test_canonical_vector_scaling(chain10):
    ms = master_spectrum(chain10, select={"mode": "smallest", "count": 2})
    for i in range(2):
        v = ms.V[:, i]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        top = np.argmax(np.abs(v))
        assert abs(v[top].imag) <= 1e-12 and v[top].real > 0


def test_selection_modes(chain10):
    count = master_spectrum(chain10, select=4)
    assert count.dim == 4
    idx = master_spectrum(chain10, select={"mode": "indices",
                                           "indices": [0]})
    assert idx.dim == 2  # closed under conjugation
    pair2 = master_spectrum(chain10, select={"mode": "pair", "pair": 2})
    assert pair2.dim == 2
    assert pair2.lambdas[0].imag == pytest.approx(0.5632, abs=1e-3)
    slowest = master_spectrum(chain10, select={"mode": "slowest", "count": 2})
    assert slowest.lambdas[0].real == pytest.approx(-0.0041, abs=1e-3)


def test_selection_validation(chain10):
    with pytest.raises(ValidationError, match="pair"):
        master_spectrum(chain10, select={"mode": "pair", "pair": 40})
    with pytest.raises(ValidationError, match="outside"):
        master_spectrum(chain10, select={"mode": "indices", "indices": [99]})
    with pytest.raises(ValidationError):
        master_spectrum(chain10, select={"mode": "banana"})
    with pytest.raises(ValidationError, match="count must be >= 1"):
        master_spectrum(chain10, select={"mode": "smallest", "count": 0})
    with pytest.raises(ValidationError, match="lists no indices"):
        master_spectrum(chain10, select={"mode": "indices", "indices": []})
    with pytest.raises(ValidationError, match="method"):
        master_spectrum(chain10, method="qr")


def test_outer_spectrum_excludes_selection(chain10):
    ms = master_spectrum(chain10, select={"mode": "pair", "pair": 1},
                         n_outer=6)
    assert ms.outer_lambdas.size == 6
    for lam in ms.lambdas:
        assert np.abs(ms.outer_lambdas - lam).min() > 1e-6


def test_lorenz_center_pair(lorenz_master):
    # lambda = 0 is an exact zero pivot of -A; the step is taken next to it
    sys, ms = lorenz_master
    assert ms.diagnostics["left_vectors"] == "inverse-iteration"
    assert np.allclose(ms.lambdas, 0.0, atol=1e-12)
    # the center basis: the symmetric (x+y) direction and the
    # parameter axis
    v1 = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(np.abs(ms.V[:, 0]), np.abs(v1), atol=1e-12)
    assert np.allclose(np.abs(ms.V[:, 1]), [0, 0, 0, 1.0], atol=1e-12)
    assert check_norm_arrays(ms.U, sys.B, ms.V) <= 1e-12
    assert np.allclose(np.sort(ms.outer_lambdas.real), [-2.0, -1.0],
                       atol=1e-12)


def test_defective_pencil_rejected():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    sys = FirstOrderSystem(A, np.eye(2))
    with pytest.raises(ValidationError, match="defective|do not span"):
        master_spectrum(sys, select=2, n_outer=0)


def test_cluster_splitting_rejected(lorenz_master):
    sys, _ = lorenz_master
    with pytest.raises(ValidationError, match="cluster"):
        master_spectrum(sys, select={"mode": "indices", "indices": [0]},
                        n_outer=3)


def test_shift_invert_matches_dense():
    mech = oscillator_chain(40, c=0.05)
    dense = master_spectrum(mech, select={"mode": "smallest", "count": 4},
                            method="dense", n_outer=0)
    si = master_spectrum(mech, select={"mode": "smallest", "count": 4},
                         method="shift-invert", shift=0.3j, n_outer=0)
    assert np.allclose(np.sort_complex(si.lambdas),
                       np.sort_complex(dense.lambdas), atol=1e-8)
    sys = __import__("ssmkit").as_first_order(mech)
    assert check_normalization(si, sys) <= 1e-8


def test_shift_invert_nonsymmetric():
    sys = build_first_order(oscillator_chain(40, c=0.05))
    si = master_spectrum(sys, select={"mode": "smallest", "count": 4},
                         method="shift-invert", shift=0.3j, n_outer=0)
    dense = master_spectrum(sys, select={"mode": "smallest", "count": 4},
                            method="dense", n_outer=0)
    assert np.allclose(np.sort_complex(si.lambdas),
                       np.sort_complex(dense.lambdas), atol=1e-8)
    assert check_normalization(si, sys) <= 1e-8


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("lifted", [True, False], ids=["lift", "plain"])
def test_a_shift_on_the_spectrum_is_refused(sparse, lifted):
    # a free-free chain has K singular, so 0 is an eigenvalue; SuperLU
    # raises on the exact zero pivot, dense getrf only reports it
    n = 8
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    lap[0, 0] = lap[-1, -1] = 1.0
    conv = sp.csr_matrix if sparse else np.asarray
    mech = MechanicalSystem(conv(np.eye(n)), conv(0.1 * lap), conv(lap))
    sys = build_first_order(mech) if lifted else plain_pencil(mech)
    with pytest.raises(NumericalError, match="pick a shift away from the "
                                             "spectrum") as err:
        master_spectrum(sys, select=2, method="shift-invert", shift=0.0)
    assert "sigma=0j" in str(err.value)


def csr_chain(n, c=0.05):
    """The builtin chain with CSR matrices."""
    mech = oscillator_chain(n, c=c)
    return MechanicalSystem(sp.csr_matrix(mech.M), sp.csr_matrix(mech.C),
                            sp.csr_matrix(mech.K), mech.f_coeffs)


def csr_bar(n, seed):
    """
    A seeded linear CSR bar of n nodes between two walls, FE-scaled as
    the benchmark's ``fe_bar``: lumped masses h = 1/(n+1), springs
    (1 +- 25 %)/h, grounding springs 20 h, damping 0.002 K and a
    uniform cosine load h at eps = 0.0067.
    """
    rng = np.random.default_rng(seed)
    h = 1.0 / (n + 1)
    ks = (1.0 + 0.25 * rng.uniform(-1.0, 1.0, n + 1)) / h
    K = sp.diags([ks[:-1] + ks[1:] + 20.0 * h, -ks[1:-1], -ks[1:-1]],
                 [0, 1, -1], format="csr")
    return MechanicalSystem(sp.identity(n, format="csr") * h, 0.002 * K, K,
                            forcing=cosine_forcing(h * np.ones(n)),
                            eps=0.0067)


def plain_pencil(mech, layout="L1", aux="identity"):
    """
    ``mech`` realized as a plain FirstOrderSystem, with no ``mech``
    attached, so that every solve takes the general routes. Layout "L1"
    is ``A = [[0, N], [-K, -C]]``, ``B = diag(N, M)`` and "L2" is
    ``A = diag(-K, N)``, ``B = [[C, M], [N, 0]]``; the auxiliary block N
    is "identity", "minus-k" (-K) or "mass" (M). "L1" with "identity" is
    the pencil of ``build_first_order``; "L1" with "minus-k" and "L2"
    with "mass" are symmetric for symmetric M, C and K.
    """
    n = mech.n
    M, C, K = mech.M, mech.C, mech.K
    sparse = sp.issparse(M)
    eye = sp.identity(n, format="csr") if sparse else np.eye(n)
    N = {"identity": eye, "minus-k": -K, "mass": M}[aux]
    zero = None if sparse else np.zeros((n, n))
    bmat = sp.bmat if sparse else np.block
    if layout == "L1":
        A = bmat([[zero, N], [-K, -C]])
        B = bmat([[N, zero], [zero, M]])
        rows = n
    else:
        A = bmat([[-K, zero], [zero, N]])
        B = bmat([[C, M], [N, zero]])
        rows = 0
    F = [fc.relabel(2 * n, 2 * n, row_offset=rows, value_scale=-1.0)
         for fc in mech.f_coeffs]
    forcing = []
    for kt, vec in mech.forcing:
        full = np.zeros(2 * n, dtype=complex)
        full[rows:rows + n] = vec
        forcing.append((kt, full))
    return FirstOrderSystem(A, B, F, forcing, eps=mech.eps)


def test_default_lift_of_an_fe_scale_bar_is_accepted():
    # the symmetric layout B = [[C, M], [M, 0]] had an LU pivot ratio of
    # 8.9e-16 at this size and was refused
    mech = csr_bar(10**5, 4)
    sys = build_first_order(mech)
    assert sys.N == 2 * 10**5 and sys.mech is mech
    assert sp.issparse(sys.A) and sp.issparse(sys.B)


def test_defect_test_scales_with_the_cluster_not_with_b():
    # B = diag(-K, M) and ||B||_F grows with the mesh; at 10^4 nodes it
    # once made the simple first pair (next eigenvalue 2.2 away) look
    # defective
    sys = plain_pencil(csr_bar(10**4, 4), "L1", "minus-k")
    ms = master_spectrum(sys, select={"mode": "pair", "pair": 1}, n_outer=8)
    rep = ms.lambdas[ms.pair_representatives()[0]]
    assert rep.real == pytest.approx(-0.0297, abs=1e-4)
    assert rep.imag == pytest.approx(5.448, abs=1e-3)
    assert np.abs(ms.outer_lambdas - rep).min() > 1.0
    assert check_normalization(ms, sys) <= 1e-10


@pytest.mark.parametrize("layout", ["L1", "L2"])
def test_sparse_spectrum_is_repeatable(layout):
    # N = 620 > 600 takes the shift-invert path: the lift (L1) takes
    # closed-form left vectors, the L2 pencil as a plain first-order
    # system inverse iteration
    mech = csr_chain(310)
    sys = (build_first_order(mech) if layout == "L1"
           else plain_pencil(mech, "L2", "mass"))
    assert sp.issparse(sys.A) and sys.N > 600
    one, two = (master_spectrum(sys, select={"mode": "pair", "pair": 1},
                                n_outer=4) for _ in range(2))
    assert one.diagnostics["left_vectors"] == (
        "closed-form" if layout == "L1" else "inverse-iteration")
    for attr in ("lambdas", "V", "U"):
        assert np.array_equal(getattr(one, attr), getattr(two, attr))


@pytest.mark.parametrize("mech,select", [
    (oscillator_chain(10, c=0.1), {"mode": "smallest", "count": 6}),
    (csr_chain(310), {"mode": "smallest", "count": 4}),
    (csr_bar(10**4, 4), {"mode": "pair", "pair": 1}),
], ids=["dense-chain", "csr-N620", "csr-bar-N2e4"])
def test_closed_form_left_vectors_match_the_general_routes(mech, select):
    # the same pencil without its mechanical model takes one
    # inverse-iteration step, dense or sparse
    lifted = master_spectrum(build_first_order(mech), select=select)
    plain = master_spectrum(plain_pencil(mech), select=select)
    assert lifted.diagnostics["left_vectors"] == "closed-form"
    assert plain.diagnostics["left_vectors"] == "inverse-iteration"
    assert plain.diagnostics["residual_left"] <= 1e-10
    for attr in ("lambdas", "V", "U"):
        want = getattr(plain, attr)
        got = getattr(lifted, attr)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("method,conv", [
    pytest.param("dense", np.asarray, id="dense"),
    pytest.param("shift-invert", np.asarray,
                 id="shift-invert-inverse-iteration"),
    # SuperLU's factor of Q(lambda)^H on the N/2 route
    pytest.param("shift-invert", sp.csr_matrix,
                 id="csr-shift-invert-inverse-iteration"),
])
def test_nonsymmetric_damping_takes_the_general_left_vectors(method, conv):
    mech = oscillator_chain(40, c=0.05)
    C = mech.C.copy()
    C[0, 1] += 0.02
    skewed = MechanicalSystem(conv(mech.M), conv(C), conv(mech.K),
                              mech.f_coeffs)
    assert not skewed.symmetric
    sys = build_first_order(skewed)
    ms = master_spectrum(sys, select={"mode": "smallest", "count": 4},
                         method=method, shift=0.3j, n_outer=0)
    assert ms.diagnostics["left_vectors"] == "inverse-iteration"
    assert check_normalization(ms, sys) <= 1e-10


def test_inverse_iteration_matches_lapack_left_vectors():
    # LAPACK's left vectors of a dense non-symmetric pencil, scaled as
    # the Gram correction scales them, are the oracle
    mech = oscillator_chain(40, c=0.05)
    C = mech.C.copy()
    C[0, 1] += 0.02
    lift = build_first_order(MechanicalSystem(mech.M, C, mech.K))
    A, B = lift.dense_pencil()
    ms = master_spectrum(FirstOrderSystem(A, B), select=6, n_outer=0)
    w, UL = la.eig(A, B, left=True, right=False)
    for lam, v, u in zip(ms.lambdas, ms.V.T, ms.U.T):
        ul = UL[:, np.argmin(np.abs(w - lam))]
        want = ul / np.conj(ul.conj() @ B @ v)
        assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()


def twin(mech, delta=0.0):
    """Two decoupled copies of ``mech``, the second with its stiffness
    scaled by 1 + delta: each eigenvalue is double, or near-double."""
    if sp.issparse(mech.M):
        def cat(a, b):
            return sp.block_diag((a, b), format="csr")
    else:
        cat = la.block_diag
    return MechanicalSystem(cat(mech.M, mech.M), cat(mech.C, mech.C),
                            cat(mech.K, (1.0 + delta) * mech.K))


@pytest.mark.parametrize("make", [
    lambda: build_first_order(twin(oscillator_chain(10))),
    lambda: build_first_order(twin(csr_chain(310))),
    lambda: plain_pencil(twin(csr_chain(310))),
    lambda: build_first_order(twin(csr_chain(310), 3e-8)),
], ids=["dense-N40", "csr-N1240", "csr-N1240-plain", "csr-N1240-near"])
def test_a_double_pair_is_one_cluster(make):
    # a double pair sorts as lambda, conj, lambda, conj; its Gram
    # correction and the split check must still see each double as one
    # cluster
    sys = make()
    ms = master_spectrum(sys, select=4)
    assert check_normalization(ms, sys) <= 1e-10
    assert np.array_equal(ms.lambdas[ms.pairing], ms.lambdas.conjugate())
    with pytest.raises(ValidationError, match="splits a cluster"):
        master_spectrum(sys, select=2)


def test_pairing_indexes_the_sorted_modes():
    # the real mode comes after the pair from LAPACK but sorts first
    A = np.array([[-0.1, 1.0, 0.0], [-1.0, -0.1, 0.0], [0.0, 0.0, -0.5]])
    ms = master_spectrum(FirstOrderSystem(A, np.eye(3)),
                         select={"mode": "pair", "pair": 1})
    assert ms.pairing.tolist() == [1, 0]
    assert ms.pair_representatives() == [0]


def test_subspace_dict_roundtrip(chain10):
    ms = master_spectrum(chain10, select={"mode": "pair", "pair": 2},
                         n_outer=3)
    back = MasterSubspace.from_dict(ms.to_dict())
    assert np.allclose(back.lambdas, ms.lambdas)
    assert np.allclose(back.V, ms.V)
    assert np.allclose(back.U, ms.U)
    assert np.array_equal(back.pairing, ms.pairing)
    assert np.allclose(back.outer_lambdas, ms.outer_lambdas)


def test_diagnostics_reported(chain10):
    ms = master_spectrum(chain10, select=2)
    assert ms.diagnostics["method"] == "dense"
    assert ms.diagnostics["normalization_error"] <= 1e-10
    assert ms.diagnostics["residual_right"] <= 1e-10
