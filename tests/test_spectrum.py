"""Master spectrum: values, normalization, selection and the sparse path."""

import numpy as np
import pytest
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
    from ssmkit import build_first_order
    sys = build_first_order(oscillator_chain(6), variant="L1")
    assert not sys.symmetric
    ms = master_spectrum(sys, select={"mode": "smallest", "count": 4})
    assert check_normalization(ms, sys) <= 1e-10


def test_eigenvalues_independent_of_variant():
    from ssmkit import build_first_order
    mech = oscillator_chain(6, c=0.15)
    w1 = master_spectrum(build_first_order(mech, variant="L1"),
                         select={"mode": "smallest", "count": 6}).lambdas
    w2 = master_spectrum(build_first_order(mech, variant="L2"),
                         select={"mode": "smallest", "count": 6}).lambdas
    assert np.allclose(np.sort_complex(w1), np.sort_complex(w2), atol=1e-9)


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
    with pytest.raises(ValidationError, match="method"):
        master_spectrum(chain10, method="qr")


def test_outer_spectrum_excludes_selection(chain10):
    ms = master_spectrum(chain10, select={"mode": "pair", "pair": 1},
                         n_outer=6)
    assert ms.outer_lambdas.size == 6
    for lam in ms.lambdas:
        assert np.abs(ms.outer_lambdas - lam).min() > 1e-6


def test_lorenz_center_pair(lorenz_master):
    sys, ms = lorenz_master
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
    from ssmkit import build_first_order
    sys = build_first_order(oscillator_chain(40, c=0.05), variant="L1")
    si = master_spectrum(sys, select={"mode": "smallest", "count": 4},
                         method="shift-invert", shift=0.3j, n_outer=0)
    dense = master_spectrum(sys, select={"mode": "smallest", "count": 4},
                            method="dense", n_outer=0)
    assert np.allclose(np.sort_complex(si.lambdas),
                       np.sort_complex(dense.lambdas), atol=1e-8)
    assert check_normalization(si, sys) <= 1e-8


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


def test_defect_test_scales_with_the_cluster_not_with_b():
    # under L1 "minus-k", B = diag(-K, M) and ||B||_F grows with the
    # mesh; at 10^4 nodes it once made the simple first pair (next
    # eigenvalue 2.2 away) look defective
    sys = build_first_order(csr_bar(10**4, 4), variant="L1",
                            n_choice="minus-k")
    ms = master_spectrum(sys, select={"mode": "pair", "pair": 1}, n_outer=8)
    rep = ms.lambdas[ms.pair_representatives()[0]]
    assert rep.real == pytest.approx(-0.0297, abs=1e-4)
    assert rep.imag == pytest.approx(5.448, abs=1e-3)
    assert np.abs(ms.outer_lambdas - rep).min() > 1.0
    assert check_normalization(ms, sys) <= 1e-10


@pytest.mark.parametrize("variant", ["L1", "L2"])
def test_sparse_spectrum_is_repeatable(variant):
    # N = 620 > 600 takes the shift-invert path; L1 also runs the
    # transposed solve for the left vectors
    sys = build_first_order(csr_chain(310), variant=variant)
    assert sp.issparse(sys.A) and sys.N > 600
    one, two = (master_spectrum(sys, select={"mode": "pair", "pair": 1},
                                n_outer=4) for _ in range(2))
    for attr in ("lambdas", "V", "U"):
        assert np.array_equal(getattr(one, attr), getattr(two, attr))


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
