"""Residual decay checks and full-model reference integration."""

import numpy as np
import pytest
import scipy.linalg as la

from ssmkit import (FirstOrderSystem, NumericalError, ValidationError,
                    as_first_order, compute_manifold, integrate_full,
                    invariance_residual, master_spectrum, oscillator_chain,
                    steady_state_amplitude)
from ssmkit.cohomology import ManifoldExpansion
from ssmkit.polytensor import PolyCoeffs

SPEC_RADII = np.logspace(-4, -2, 7)


def test_center_manifold_slope_sits_in_band(lorenz_man3):
    report = invariance_residual(lorenz_man3, SPEC_RADII)
    assert report.expected_order == 3
    assert report.slope is not None
    assert 3.5 <= report.slope <= 4.5
    assert report.passed
    assert not report.at_floor


def test_chain_expansion_residuals_hit_rounding(chain_mode2_man5):
    report = invariance_residual(chain_mode2_man5, SPEC_RADII)
    assert report.residuals.max() <= report.floor
    assert report.at_floor
    assert report.slope is None
    assert report.passed
    assert any("not fitted" in ln for ln in report.describe())


def test_odd_nonlinearity_overshoots_the_generic_band(chain10_forced,
                                                      chain_mode2_master):
    man3 = compute_manifold(chain10_forced, chain_mode2_master, order=3)
    report = invariance_residual(man3, np.logspace(-2, -1, 7))
    # cubic-only force laws have no even orders, so the first missing
    # term is degree 5 and the decay beats order + 1 by one; the band
    # follows the model's parity and accepts it
    assert report.slope is not None
    assert 4.5 <= report.slope <= 5.5
    assert report.decay_degree == 5
    assert report.band == (4.5, 5.5)
    assert report.passed


def test_quadratic_variant_restores_the_generic_rate(chain10):
    fo = as_first_order(chain10)
    F2 = PolyCoeffs.from_entries(2, 20, 20, [
        (0, (0, 0), 0.4), (3, (0, 1), 0.3), (6, (4, 4), -0.2)])
    sys = FirstOrderSystem(fo.A, fo.B, fo.F_coeffs + [F2])
    ms = master_spectrum(sys, select={"mode": "pair", "pair": 2}, n_outer=8)
    man = compute_manifold(sys, ms, order=3)
    report = invariance_residual(man, SPEC_RADII)
    assert report.slope is not None
    assert 3.5 <= report.slope <= 4.5
    assert report.band == (3.5, 4.5)
    assert report.passed


def test_linear_truncation_is_exact(chain10):
    fo = as_first_order(chain10)
    sys = FirstOrderSystem(fo.A, fo.B)
    ms = master_spectrum(sys, select={"mode": "pair", "pair": 2}, n_outer=8)
    man = compute_manifold(sys, ms, order=3)
    report = invariance_residual(man, SPEC_RADII)
    assert report.at_floor
    assert report.passed


def test_residual_radii_are_validated(chain_mode2_man5):
    with pytest.raises(ValidationError, match=r"\(0, 0.1\]"):
        invariance_residual(chain_mode2_man5, [0.01, 0.5])
    with pytest.raises(ValidationError, match="at least one radius"):
        invariance_residual(chain_mode2_man5, [])
    detached = ManifoldExpansion.from_dict(chain_mode2_man5.to_dict())
    with pytest.raises(ValidationError, match="no system attached"):
        invariance_residual(detached, SPEC_RADII)


def test_adaptive_integration_matches_matrix_exponential(chain10):
    fo = as_first_order(chain10)
    sys = FirstOrderSystem(fo.A, fo.B)
    A, B = sys.dense_pencil()
    G = la.solve(B, A)
    rng = np.random.default_rng(2)
    z0 = rng.normal(size=20) * 0.1
    out = integrate_full(sys, z0, (0.0, 5.0), rtol=1e-10, atol=1e-12,
                         t_eval=[5.0])
    want = la.expm(5.0 * G) @ z0
    assert np.abs(out["z"][:, -1] - want).max() < 1e-7


def test_trapezoid_preserves_quadratic_energy():
    chain = oscillator_chain(6, m=1.0, k=1.0, c=0.0, kappa=0.0)
    fo = as_first_order(chain)
    n = 6
    K = chain.K
    M = chain.M
    rng = np.random.default_rng(4)
    z0 = np.concatenate([rng.normal(size=n) * 0.2, np.zeros(n)])
    out = integrate_full(fo, z0, (0.0, 50.0), method="trapezoid", dt=0.05)
    x, v = out["z"][:n], out["z"][n:]
    energy = 0.5 * np.einsum("it,ij,jt->t", v, M, v) \
        + 0.5 * np.einsum("it,ij,jt->t", x, K, x)
    drift = np.abs(energy - energy[0]).max() / energy[0]
    assert drift < 1e-10


def test_trapezoid_converges_at_second_order():
    duff = oscillator_chain(1, m=1.0, k=1.0, c=0.0, kappa=0.3)
    z0 = np.array([0.5, 0.0])
    ref = integrate_full(duff, z0, (0.0, 10.0), rtol=1e-12, atol=1e-14,
                         t_eval=[10.0])["z"][:, -1]
    errs = []
    for dt in (0.01, 0.005):
        out = integrate_full(duff, z0, (0.0, 10.0), method="trapezoid",
                             dt=dt)
        errs.append(np.abs(out["z"][:, -1] - ref).max())
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_integrate_full_validations(chain10_forced, chain10):
    with pytest.raises(ValidationError, match="pass Omega"):
        integrate_full(chain10_forced, np.zeros(20), (0.0, 1.0))
    with pytest.raises(ValidationError, match="positive dt"):
        integrate_full(chain10, np.zeros(20), (0.0, 1.0),
                       method="trapezoid")
    with pytest.raises(ValidationError, match="method must be"):
        integrate_full(chain10, np.zeros(20), (0.0, 1.0), method="euler")
    with pytest.raises(ValidationError, match="expected 20"):
        integrate_full(chain10, np.zeros(7), (0.0, 1.0))


def test_forced_linear_steady_state_matches_transfer_function():
    f0 = np.linspace(0.2, 1.0, 10)
    chain = oscillator_chain(10, m=1.0, k=1.0, c=0.1, kappa=0.0,
                             forcing_amplitude=f0, eps=0.1)
    Omega = 0.6
    X = la.solve(chain.K + 1j * Omega * chain.C - Omega**2 * chain.M,
                 0.1 * f0)
    amp = steady_state_amplitude(chain, Omega, 4, n_transient=150,
                                 n_window=10)
    assert abs(amp - abs(X[4])) < 0.01 * abs(X[4])


def test_steady_state_validations(chain10, chain10_forced):
    with pytest.raises(ValidationError, match="forced system"):
        steady_state_amplitude(chain10, 0.6, 4)
    with pytest.raises(ValidationError, match="Omega must be positive"):
        steady_state_amplitude(chain10_forced, -0.6, 4)
    with pytest.raises(ValidationError, match="outside the state"):
        steady_state_amplitude(chain10_forced, 0.6, 25)
