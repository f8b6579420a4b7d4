"""Order-eps forced response, harmonic by harmonic."""

import numpy as np
import pytest
import scipy.sparse as sp

from ssmkit import (FirstOrderSystem, ValidationError, as_first_order,
                    leading_order, master_spectrum, oscillator_chain)
from ssmkit.forcing import NonAutonomousLeading


def harmonic_defect(system, master, nonaut, kappa):
    """Residual of (i nu B - A) x0 = f - B V s0 for one harmonic."""
    system = as_first_order(system)
    f = dict(system.forcing)[tuple(kappa)]
    nu = float(np.dot(kappa, nonaut.Omega))
    x0 = nonaut.x0(kappa)
    s0 = nonaut.s0(kappa)
    lhs = 1j * nu * (system.B @ x0) - system.A @ x0
    rhs = f - system.B @ (master.V @ s0)
    return np.abs(lhs - rhs).max()


def test_harmonic_blocks_solve_their_equation(chain10_forced,
                                              chain_mode2_master):
    nonaut = leading_order(chain10_forced, chain_mode2_master, 0.6)
    for kt in ((1,), (-1,)):
        assert harmonic_defect(chain10_forced, chain_mode2_master,
                               nonaut, kt) < 1e-10
    assert max(nonaut.diagnostics["residuals"].values()) < 1e-10


def test_negative_harmonic_mirrors_positive(chain10_forced,
                                            chain_mode2_master):
    nonaut = leading_order(chain10_forced, chain_mode2_master, 0.6)
    pairing = chain_mode2_master.pairing
    assert np.array_equal(nonaut.x0((-1,)), nonaut.x0((1,)).conjugate())
    assert np.array_equal(nonaut.s0((-1,)),
                          nonaut.s0((1,))[pairing].conjugate())


def test_off_resonance_keeps_reduced_forcing_empty(chain10_forced,
                                                   chain_mode2_master):
    nonaut = leading_order(chain10_forced, chain_mode2_master, 0.6)
    assert np.abs(nonaut.s0((1,))).max() == 0.0


def test_near_resonant_harmonic_is_projected(chain10_forced,
                                             chain_mode2_master):
    ms = chain_mode2_master
    row = 0 if ms.lambdas[0].imag > 0 else 1
    nu = ms.lambdas[row].imag
    nonaut = leading_order(chain10_forced, ms, nu)
    s0 = nonaut.s0((1,))
    f = dict(as_first_order(chain10_forced).forcing)[(1,)]
    assert abs(s0[row] - np.vdot(ms.U[:, row], f)) < 1e-12
    assert s0[1 - row] == 0.0
    assert harmonic_defect(chain10_forced, ms, nonaut, (1,)) < 1e-10


def test_graph_style_projects_every_mode(chain10_forced,
                                         chain_mode2_master):
    ms = chain_mode2_master
    nonaut = leading_order(chain10_forced, ms, 0.6, style="graph")
    f = dict(as_first_order(chain10_forced).forcing)[(1,)]
    s0 = nonaut.s0((1,))
    for j in range(2):
        assert abs(s0[j] - np.vdot(ms.U[:, j], f)) < 1e-12
    assert np.abs(s0).min() > 0.0


def test_resonant_modes_override_pins_the_projection(chain10_forced,
                                                     chain_mode2_master):
    nonaut = leading_order(chain10_forced, chain_mode2_master, 0.6,
                           resonant_modes={(1,): [0, 1]})
    assert np.abs(nonaut.s0((1,))).min() > 0.0
    assert harmonic_defect(chain10_forced, chain_mode2_master,
                           nonaut, (1,)) < 1e-10


def test_forcing_near_outer_mode_warns(chain10_forced, chain_mode2_master):
    with pytest.warns(UserWarning, match="reduced domain of convergence"):
        nonaut = leading_order(chain10_forced, chain_mode2_master, 0.2846)
    assert len(nonaut.diagnostics["outer_resonances"]) == 1


def test_exactly_resonant_undamped_harmonic():
    chain = oscillator_chain(10, m=1.0, k=1.0, c=0.0, kappa=0.3,
                             forcing_amplitude=np.linspace(0.1, 1.0, 10),
                             eps=0.05)
    ms = master_spectrum(chain, select={"mode": "pair", "pair": 2},
                         n_outer=4)
    row = 0 if ms.lambdas[0].imag > 0 else 1
    nu = ms.lambdas[row].imag
    nonaut = leading_order(chain, ms, nu)
    x0 = nonaut.x0((1,))
    B = as_first_order(chain).B
    # the kernel direction is projected out through the B inner product
    assert abs(np.vdot(ms.U[:, row], B @ x0)) < 1e-9
    assert harmonic_defect(chain, ms, nonaut, (1,)) < 1e-9


def test_exactly_resonant_undamped_harmonic_on_a_sparse_pencil():
    chain = oscillator_chain(10, m=1.0, k=1.0, c=0.0, kappa=0.3,
                             forcing_amplitude=np.linspace(0.1, 1.0, 10),
                             eps=0.05)
    ms = master_spectrum(chain, select={"mode": "pair", "pair": 2},
                         n_outer=4)
    fo = as_first_order(chain)
    csr = FirstOrderSystem(sp.csr_matrix(fo.A), sp.csr_matrix(fo.B),
                           fo.F_coeffs, forcing=fo.forcing, eps=fo.eps)
    row = 0 if ms.lambdas[0].imag > 0 else 1
    nu = ms.lambdas[row].imag
    x0 = leading_order(csr, ms, nu).x0((1,))
    # the sparse LU does not fail on the singular block, so the kernel
    # projection has to run on its solution as well
    assert abs(np.vdot(ms.U[:, row], csr.B @ x0)) < 1e-9
    assert np.abs(x0 - leading_order(chain, ms, nu).x0((1,))).max() < 1e-9


def test_static_harmonic_comes_out_real(chain10_forced, chain_mode2_master):
    fo = as_first_order(chain10_forced)
    f = np.zeros(20)
    f[:10] = np.linspace(0.5, -0.5, 10)
    sys = FirstOrderSystem(fo.A, fo.B, fo.F_coeffs,
                           forcing=[((0,), f)], eps=0.02)
    nonaut = leading_order(sys, chain_mode2_master, 0.6)
    x0 = nonaut.x0((0,))
    assert np.abs(x0.imag).max() == 0.0
    assert np.abs(fo.A @ x0 + f).max() < 1e-10


def test_correction_is_a_real_shape(chain10_forced, chain_mode2_master):
    nonaut = leading_order(chain10_forced, chain_mode2_master, 0.6)
    shape = nonaut.correction([0.3])
    assert shape.shape == (20,)
    assert shape.dtype.kind == "f"
    x0 = nonaut.x0((1,))
    want = 2 * np.real(x0 * np.exp(0.3j))
    assert np.abs(shape - want).max() < 1e-14
    red = nonaut.reduced([0.3])
    assert red.shape == (2,)


def test_two_base_frequencies(chain10_forced, chain_mode2_master):
    fo = as_first_order(chain10_forced)
    v = np.zeros(20)
    v[3] = 0.5
    w = np.zeros(20)
    w[7] = 0.25
    sys = FirstOrderSystem(fo.A, fo.B, fo.F_coeffs,
                           forcing=[((1, 0), v), ((-1, 0), v),
                                    ((0, 1), w), ((0, -1), w)],
                           eps=0.01)
    nonaut = leading_order(sys, chain_mode2_master, [0.6, 0.9])
    assert len(nonaut.harmonics) == 4
    for kt in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        assert harmonic_defect(sys, chain_mode2_master, nonaut, kt) < 1e-10
    assert nonaut.correction([0.1, 0.2]).dtype.kind == "f"


def test_harmonic_frequency_length_mismatch(chain10_forced,
                                            chain_mode2_master):
    with pytest.raises(ValidationError, match="indices but Omega has"):
        leading_order(chain10_forced, chain_mode2_master, [0.6, 0.9])


def test_unforced_system_rejected(chain10, chain_mode2_master):
    with pytest.raises(ValidationError, match="no forcing"):
        leading_order(chain10, chain_mode2_master, 0.6)


def test_style_validated(chain10_forced, chain_mode2_master):
    with pytest.raises(ValidationError, match="style must be"):
        leading_order(chain10_forced, chain_mode2_master, 0.6,
                      style="modal")


def test_leading_order_roundtrips_through_dict(chain10_forced,
                                               chain_mode2_master):
    nonaut = leading_order(chain10_forced, chain_mode2_master, 0.6)
    back = NonAutonomousLeading.from_dict(nonaut.to_dict())
    assert np.array_equal(back.Omega, nonaut.Omega)
    assert back.style == nonaut.style
    assert back.eps == nonaut.eps
    for kt in nonaut.harmonics:
        assert np.allclose(back.x0(kt), nonaut.x0(kt), atol=1e-15)
        assert np.allclose(back.s0(kt), nonaut.s0(kt), atol=1e-15)
