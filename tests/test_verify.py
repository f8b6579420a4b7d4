"""Residual decay checks and full-model reference integration."""

import functools
import importlib.util
import itertools
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from ssmkit import (FirstOrderSystem, MechanicalSystem, NumericalError,
                    ValidationError, as_first_order, build_first_order,
                    compute_manifold, integrate_full, invariance_residual,
                    master_spectrum, oscillator_chain,
                    steady_state_amplitude)
from ssmkit import verify
from ssmkit.cli import DEFAULTS
from ssmkit.cohomology import ManifoldExpansion
from ssmkit.polytensor import PolyCoeffs
from ssmkit.verify import MARGIN, _symmetric_directions
from test_spectrum import csr_bar, plain_pencil

SPEC_RADII = np.logspace(-4, -2, 7)
MODELS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "ssmbench", "models.py")


def cubic_bar(n, seed):
    """
    ``csr_bar`` with the cubic springs of the benchmark's ``fe_bar``:
    node r feels kappa_h (e_r^3 - e_(r+1)^3), with e_s = x_s - x_(s-1)
    and kappa_h = 30 / h^3, stored expanded as ``fe_bar`` stores it (16
    ordered monomials per inner spring) but built without its loop.
    """
    bar = csr_bar(n, seed)
    h = 1.0 / (n + 1)
    s = np.arange(n + 1)
    ends = np.stack([s, s - 1])  # spring s joins nodes s and s - 1
    sign = np.array([1.0, -1.0])
    # the force node and three factors, each one end of the spring, in
    # fe_bar's order; a wall end (node -1 or n) drops the entry
    pick = np.array(list(itertools.product((0, 1), repeat=4))).T
    nodes = ends[pick].transpose(0, 2, 1).reshape(4, -1)
    values = np.tile(30.0 / h**3 * sign[pick].prod(axis=0), n + 1)
    keep = ((nodes >= 0) & (nodes < n)).all(axis=0)
    f3 = PolyCoeffs.from_factors(3, n, n, nodes[0, keep], nodes[1:, keep],
                                 values[keep])
    return MechanicalSystem(bar.M, bar.C, bar.K, [f3], bar.forcing, bar.eps)


def test_center_manifold_slope_sits_in_band(lorenz_man3):
    report = invariance_residual(lorenz_man3, SPEC_RADII)
    assert report.expected_order == 3
    # the r^4 decay reaches 3.6e-17 at r = 1e-4, each residual above its
    # floor, so the fit takes all seven
    assert (report.residuals > report.floor).all()
    assert report.slope is not None
    assert 3.5 <= report.slope <= 4.5
    assert report.passed
    assert not report.at_floor


def test_chain_expansion_residuals_hit_rounding(chain_mode2_man5):
    report = invariance_residual(chain_mode2_man5, SPEC_RADII)
    assert report.floor.shape == report.radii.shape
    assert (report.residuals <= report.floor).all()
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


def test_slope_is_fitted_above_the_floor_only(chain10_forced,
                                              chain_mode2_master):
    man3 = compute_manifold(chain10_forced, chain_mode2_master, order=3)
    # r = 1e-3..1e-1: six residuals above their floors, three under them
    # down to 1.5e-18, where rounding bends the decay; a fit through all
    # nine reads 4.80
    report = invariance_residual(man3, np.logspace(-3, -1, 9))
    above = report.residuals > report.floor
    assert above.sum() == 6
    want = np.polyfit(np.log(report.radii[above]),
                      np.log(report.residuals[above]), 1)[0]
    assert report.slope == want
    assert abs(report.slope - 5.0) <= 1e-3
    # one residual above its floor: no fit, and not at the floor either
    report = invariance_residual(man3, [1e-4, 1e-3, 0.1])
    assert (report.residuals > report.floor).tolist() == [False, False,
                                                          True]
    assert report.slope is None
    assert not report.at_floor and not report.passed
    assert any("one residual above its floor" in ln
               for ln in report.describe())


def test_quadratic_variant_restores_the_generic_rate(chain10):
    fo = as_first_order(chain10)
    F2 = PolyCoeffs.from_entries(2, 20, 20, [
        (0, (0, 0), 0.4), (3, (0, 1), 0.3), (6, (4, 4), -0.2)])
    sys = FirstOrderSystem(fo.A, fo.B, fo.F_coeffs + [F2])
    ms = master_spectrum(sys, select={"mode": "pair", "pair": 2}, n_outer=8)
    man = compute_manifold(sys, ms, order=3)
    # the residual decays like r^4 down to 2.6e-19 at r = 1e-4; on
    # 1e-4..1e-2 its floor, 3.9e-18 there, leaves five radii to fit
    for radii in (SPEC_RADII, np.logspace(-2, -1, 7)):
        report = invariance_residual(man, radii)
        assert report.slope is not None
        assert 3.5 <= report.slope <= 4.5
        assert report.band == (3.5, 4.5)
        assert report.passed


def _floor_by_definition(man, radii, n_dirs=16, seed=0):
    """MARGIN eps max_d [r (|B| |V L d| + |A| |V d|) + sum_j r^j
    ||F_j|(|V d|)|], one direction at a time, with dense |F_j| acting
    on Kronecker powers."""
    sys, ms = man.system, man.master
    norm_A, norm_B = (max(np.abs(mat).sum(axis=1))
                      for mat in sys.dense_pencil())
    out = []
    for r in radii:
        worst = 0.0
        for d in _symmetric_directions(ms, n_dirs, seed).T:
            Vd = ms.V @ d
            size = r * (norm_B * la.norm(ms.V @ (ms.lambdas * d))
                        + norm_A * la.norm(Vd))
            for fc in sys.F_coeffs:
                power = functools.reduce(np.kron, [np.abs(Vd)] * fc.degree)
                size += r**fc.degree * la.norm(np.abs(fc.to_dense()) @ power)
            worst = max(worst, size)
        out.append(MARGIN * np.finfo(float).eps * worst)
    return np.array(out)


@pytest.mark.parametrize("case", ["lorenz", "chain5"])
def test_floor_is_the_leading_order_rounding_bound(case, lorenz_man3,
                                                   chain_mode2_man5):
    man = lorenz_man3 if case == "lorenz" else chain_mode2_man5
    report = invariance_residual(man, SPEC_RADII)
    want = _floor_by_definition(man, report.radii)
    assert np.allclose(report.floor, want, rtol=1e-12, atol=0.0)
    assert report.to_dict()["floor"] == report.floor.tolist()


def test_fe_bar_residuals_sit_at_the_floor():
    # the loop-built fe_bar stores the same cubic, bit for bit
    spec = importlib.util.spec_from_file_location("ssmbench_models", MODELS)
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    want, got = models.fe_bar(40, 4).f_coeffs[0], cubic_bar(40, 4).f_coeffs[0]
    assert np.array_equal(got.rows, want.rows)
    assert np.array_equal(got.factors, want.factors)
    assert np.array_equal(got.values, want.values)
    # at n = 10^4 every residual of the order-3 expansion is rounding of
    # N-dimensional sums, at most 0.03 of its floor
    system = build_first_order(cubic_bar(10**4, 4))
    ms = master_spectrum(system, select={"mode": "pair", "pair": 1},
                         n_outer=8)
    man = compute_manifold(system, ms, order=3)
    report = invariance_residual(man, DEFAULTS["verify"]["radii"], n_dirs=4)
    assert report.at_floor and report.passed
    assert report.slope is None


def test_linear_truncation_is_exact(chain10):
    fo = as_first_order(chain10)
    sys = FirstOrderSystem(fo.A, fo.B)
    ms = master_spectrum(sys, select={"mode": "pair", "pair": 2}, n_outer=8)
    man = compute_manifold(sys, ms, order=3)
    report = invariance_residual(man, SPEC_RADII)
    assert report.at_floor
    assert report.passed


def _per_direction_residuals(man, radii, n_dirs=16, seed=0):
    """The residual one point at a time: single-point evaluate, tangent
    and reduced_rhs, the worst 2-norm over directions per radius."""
    sys = man.system
    dirs = _symmetric_directions(man.master, n_dirs, seed)
    out = []
    for r in np.sort(radii):
        worst = 0.0
        for d in dirs.T:
            p = r * d
            z = man.evaluate(p)
            lhs = sys.B @ (man.tangent(p) @ man.reduced_rhs(p))
            rhs = sys.A @ z + sum(fc.evaluate(z) for fc in sys.F_coeffs)
            worst = max(worst, float(la.norm(lhs - rhs)))
        out.append(worst)
    return np.array(out)


@pytest.mark.parametrize("case", ["lorenz", "chain3", "chain5"])
def test_batched_residual_matches_the_per_direction_loop(
        case, lorenz_man3, chain10_forced, chain_mode2_master,
        chain_mode2_man5):
    if case == "lorenz":
        man, radii = lorenz_man3, SPEC_RADII
    elif case == "chain3":
        man = compute_manifold(chain10_forced, chain_mode2_master, order=3)
        radii = np.logspace(-2, -1, 7)
    else:
        man, radii = chain_mode2_man5, SPEC_RADII
    report = invariance_residual(man, radii)
    want = _per_direction_residuals(man, radii)
    above = want > report.floor
    assert np.array_equal(report.residuals > report.floor, above)
    # the two sum in different orders; the residual is a difference of
    # O(r) terms, so besides 1e-9 relative they may differ by the
    # rounding of those terms (measured: at most 5.1e-17 r above the floor)
    gap = np.abs(report.residuals - want)
    assert (gap <= 1e-9 * want + 1e-15 * report.radii)[above].all()
    # the verdicts and the slope the loop's residuals give
    assert report.at_floor == bool((want <= report.floor).all())
    if report.slope is None:
        assert report.at_floor
    else:
        # the fit takes only the residuals above the floor
        slope = np.polyfit(np.log(report.radii[above]), np.log(want[above]),
                           1)[0]
        assert abs(report.slope - slope) <= 1e-5
        assert report.passed == (report.band[0] <= slope <= report.band[1])


def test_residual_radii_are_validated(chain_mode2_man5):
    with pytest.raises(ValidationError, match=r"\(0, 0.1\]"):
        invariance_residual(chain_mode2_man5, [0.01, 0.5])
    with pytest.raises(ValidationError, match="at least one radius"):
        invariance_residual(chain_mode2_man5, [])
    detached = ManifoldExpansion.from_dict(chain_mode2_man5.to_dict())
    with pytest.raises(ValidationError, match="no system attached"):
        invariance_residual(detached, SPEC_RADII)


@pytest.mark.parametrize("n_dirs", [0, -3, 2.5])
def test_direction_count_is_validated(n_dirs, chain_mode2_man5):
    with pytest.raises(ValidationError, match="n_dirs must be an integer"):
        invariance_residual(chain_mode2_man5, SPEC_RADII, n_dirs=n_dirs)


def _with_label(kappa):
    """A one-mass model forced at the harmonic label ``kappa``."""
    vec = np.ones(1, dtype=complex)
    neg = [-k for k in kappa]
    return MechanicalSystem(np.eye(1), np.eye(1), np.eye(1),
                            forcing=[(kappa, vec), (neg, vec)])


def _trapezoid(max_newton):
    """Ten trapezoidal steps of a cubic mass with ``max_newton``."""
    sys = oscillator_chain(1, kappa=1.0)
    integrate_full(sys, [0.1, 0.0], (0.0, 1.0), method="trapezoid", dt=0.1,
                   max_newton=max_newton)


# each input used to be truncated, taken as an int or left to raise
# TypeError or a stalled iteration; a real-valued one read True as 1.0
# and ran (steady_state_amplitude at Omega = True gave 0.0891, and
# t_span = (False, True) integrated to t = 1)
@pytest.mark.parametrize("match, call", [
    ("a harmonic label entry must be an integer",
     lambda man, forced: _with_label([1.5])),
    ("a harmonic label entry must be an integer",
     lambda man, forced: _with_label([True])),
    ("seed must be an integer", lambda man, forced: invariance_residual(
        man, SPEC_RADII, n_dirs=2, seed=True)),
    ("seed must be an integer", lambda man, forced: invariance_residual(
        man, SPEC_RADII, n_dirs=2, seed=2.5)),
    ("n_dirs must be an integer", lambda man, forced: invariance_residual(
        man, SPEC_RADII, n_dirs=True)),
    ("n_transient must be an integer", lambda man, forced:
     steady_state_amplitude(forced, 0.6, 4, n_transient=False)),
    ("n_window must be an integer", lambda man, forced:
     steady_state_amplitude(forced, 0.6, 4, n_window=True)),
    ("max_newton must be an integer", lambda man, forced: _trapezoid(2.5)),
    ("max_newton must be an integer", lambda man, forced: _trapezoid(0)),
    ("t_span takes real numbers", lambda man, forced: integrate_full(
        forced, np.zeros(20), (False, True), Omega=0.6)),
    ("t_span takes real numbers", lambda man, forced: integrate_full(
        forced, np.zeros(20), (0.0, np.True_), Omega=0.6)),
    ("Omega takes real numbers", lambda man, forced: integrate_full(
        forced, np.zeros(20), (0.0, 1.0), Omega=True)),
    ("Omega takes real numbers", lambda man, forced: integrate_full(
        forced, np.zeros(20), (0.0, 1.0), Omega=np.array([True]))),
    ("rtol takes real numbers", lambda man, forced: integrate_full(
        forced, np.zeros(20), (0.0, 1.0), Omega=0.6, rtol=True)),
    ("atol takes real numbers", lambda man, forced: integrate_full(
        forced, np.zeros(20), (0.0, 1.0), Omega=0.6, atol=True)),
    ("dt takes real numbers", lambda man, forced: integrate_full(
        forced, np.zeros(20), (0.0, 1.0), Omega=0.6, method="trapezoid",
        dt=True)),
    ("t_eval takes real numbers", lambda man, forced: integrate_full(
        forced, np.zeros(20), (0.0, 1.0), Omega=0.6, t_eval=[0.5, True])),
    ("newton_tol takes real numbers", lambda man, forced: integrate_full(
        forced, np.zeros(20), (0.0, 1.0), Omega=0.6, method="trapezoid",
        dt=0.5, newton_tol=True)),
    ("Omega takes real numbers", lambda man, forced:
     steady_state_amplitude(forced, True, 4)),
    ("tol takes real numbers", lambda man, forced:
     steady_state_amplitude(forced, 0.6, 4, tol=True)),
], ids=["label-1.5", "label-True", "seed-True", "seed-2.5", "n_dirs-True",
        "n_transient-False", "n_window-True", "max_newton-2.5",
        "max_newton-0", "t_span-bools", "t_span-numpy-True", "Omega-True",
        "Omega-array-True", "rtol-True", "atol-True", "dt-True",
        "t_eval-True", "newton_tol-True", "steady-Omega-True",
        "steady-tol-True"])
def test_counts_and_labels_take_integers_only(match, call, chain_mode2_man5,
                                              chain10_forced):
    with pytest.raises(ValidationError, match=match):
        call(chain_mode2_man5, chain10_forced)


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


def test_adaptive_forced_chain_matches_a_tight_reference(chain10_forced):
    Omega = 0.6158
    t_end = 5 * 2.0 * np.pi / Omega
    t_eval = np.linspace(0.0, t_end, 101)
    z0 = np.random.default_rng(6).normal(size=20) * 0.1
    ref = integrate_full(chain10_forced, z0, (0.0, t_end), Omega=Omega,
                         rtol=1e-12, atol=1e-14, t_eval=t_eval)["z"]
    got = integrate_full(chain10_forced, z0, (0.0, t_end), Omega=Omega,
                         t_eval=t_eval)["z"]
    assert np.abs(got - ref).max() <= 1e-7 * np.abs(ref).max()


def _quadratic_cubic_system(forced, storage):
    """
    A seeded 8-state pencil with a non-diagonal B, a degree-2 and a
    degree-3 piece and, when forced, a two-frequency forcing table with
    a real zero harmonic and the harmonics (1, 0), (0, 1), (1, -2) and
    their conjugates. A "lumped-" storage has B = diag(I, h I) at
    h = 0.1 instead, the B of a lifted lumped-mass model.
    """
    rng = np.random.default_rng(11)
    N = 8
    A = rng.normal(size=(N, N))
    B = np.eye(N) + 0.2 * rng.normal(size=(N, N))
    if storage.startswith("lumped-"):
        B = np.diag(np.repeat([1.0, 0.1], N // 2))
        storage = storage[len("lumped-"):]
    pieces = []
    for degree, nnz in ((2, 30), (3, 40)):
        pieces.append(PolyCoeffs.from_factors(
            degree, N, N, rng.integers(0, N, nnz),
            rng.integers(0, N, (degree, nnz)), rng.normal(size=nnz)))
    forcing = None
    if forced:
        forcing = [((0, 0), rng.normal(size=N))]
        for kappa in ((1, 0), (0, 1), (1, -2)):
            vec = rng.normal(size=N) + 1j * rng.normal(size=N)
            forcing += [(kappa, vec), (tuple(-k for k in kappa), vec.conj())]
    if storage == "csr":
        A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    return FirstOrderSystem(A, B, pieces, forcing, eps=0.3 if forced else 0.0)


@pytest.mark.parametrize("storage",
                         ["dense", "csr", "lumped-dense", "lumped-csr"])
@pytest.mark.parametrize("forced", [True, False], ids=["forced", "unforced"])
def test_adaptive_rhs_matches_the_model_equation(forced, storage):
    # the stacked operator against B^-1 (A z + F(z) + eps Fext(Omega t))
    # from the model's own evaluators and a dense solve, each state and
    # time set up as the DOP853 stepper sets up a stage; a diagonal B
    # divides H's rows instead of solving
    system = _quadratic_cubic_system(forced, storage)
    Omega = np.array([0.7, 1.3]) if forced else None
    states, trigs, rates, rhs = verify._adaptive_rhs(system, Omega)
    A, B = system.dense_pencil()
    rng = np.random.default_rng(12)
    for t in (0.0, 0.37, 41.5):
        z = rng.normal(size=system.N)
        g = A @ z + system.F_eval(z)
        size = np.abs(A) @ np.abs(z) + sum(
            fc.absolute().evaluate(np.abs(z)) for fc in system.F_coeffs)
        if forced:
            g += system.eps * system.forcing_eval(Omega * t)
            size += abs(system.eps) * sum(np.abs(vec)
                                          for _, vec in system.forcing)
        # both sides sum the same terms in other orders and solve with
        # other LU factors: a few ulps of each term's size, through B^-1
        bound = 8 * np.finfo(float).eps * la.norm(la.inv(B), np.inf) \
            * size.max()
        states[0] = z
        trigs[0] = verify._trig(rates, t)
        got = np.zeros(system.N)
        rhs(0, got)
        assert np.abs(got - la.solve(B, g)).max() <= bound


def _scipy_dop853(system, Omega, z0, t_span, t_eval):
    """scipy's ``solve_ivp(method="DOP853")`` on the stage evaluation
    of the in-house stepper, at integrate_full's default tolerances."""
    states, trigs, rates, rhs = verify._adaptive_rhs(system, Omega)

    def fun(t, z):
        states[0] = z
        trigs[0] = verify._trig(rates, t)
        out = np.zeros(z.size)
        rhs(0, out)
        return out

    return solve_ivp(fun, t_span, z0, method="DOP853", rtol=1e-8,
                     atol=1e-10, t_eval=t_eval)


@pytest.mark.parametrize("case", ["chain-t_eval", "quadratic-cubic-steps",
                                  "lumped-quadratic-cubic-steps"])
def test_adaptive_takes_scipys_steps(case, chain10_forced):
    # scipy's DOP853 on the same right-hand side is the oracle: the same
    # step sizes, accepted and rejected alike, give the same count of
    # right-hand sides, and the same arithmetic the same states
    if case == "chain-t_eval":
        # ten forced periods of the README chain, 64 samples a period
        system = as_first_order(chain10_forced)
        Omega = np.array([0.6158])
        t_span = (0.0, 10 * 2.0 * np.pi / Omega[0])
        t_eval = np.linspace(*t_span, 641)
        z0 = np.random.default_rng(6).normal(size=20) * 0.1
    else:
        # a non-diagonal B, or a diagonal B = diag(I, 0.1 I) that
        # divides H's rows, and two frequencies, every accepted step
        # returned; the general system blows up soon after t = 0.4, the
        # lumped one after t = 0.1 (12 steps to 0.07, rejections among
        # them)
        lumped = case.startswith("lumped")
        system = _quadratic_cubic_system(
            True, "lumped-dense" if lumped else "dense")
        Omega = np.array([0.7, 1.3])
        t_span, t_eval = (0.0, 0.07 if lumped else 0.25), None
        z0 = np.random.default_rng(13).normal(size=8) * 0.01
    ref = _scipy_dop853(system, Omega, z0, t_span, t_eval)
    assert ref.success
    got = integrate_full(system, z0, t_span, Omega=Omega, t_eval=t_eval)
    assert got["rhs_evaluations"] == ref.nfev
    assert got["t"].shape == ref.t.shape and got["z"].shape == ref.y.shape
    assert np.abs(got["t"] - ref.t).max() <= 1e-12 * t_span[1]
    assert np.abs(got["z"] - ref.y).max() <= 1e-12 * np.abs(ref.y).max()


def test_adaptive_integration_does_not_depend_on_earlier_calls(
        chain10_forced):
    # every buffer a step touches is allocated per call: a run between
    # two identical ones, on another model with a general B and two
    # frequencies, must leave the second with the bits of the first
    Omega = 0.6158
    t_end = 3 * 2.0 * np.pi / Omega
    t_eval = np.linspace(0.0, t_end, 97)
    z0 = np.random.default_rng(6).normal(size=20) * 0.1

    def chain():
        return integrate_full(chain10_forced, z0, (0.0, t_end), Omega=Omega,
                              t_eval=t_eval)

    first = chain()
    other = integrate_full(_quadratic_cubic_system(True, "dense"),
                           np.random.default_rng(13).normal(size=8) * 0.01,
                           (0.0, 0.25), Omega=[0.7, 1.3])
    assert np.isfinite(other["z"]).all()
    second = chain()
    assert first["rhs_evaluations"] == second["rhs_evaluations"]
    assert np.array_equal(first["z"], second["z"])


def test_adaptive_blow_up_raises():
    # z' = z^2 from z = 1 reaches infinity at t = 1; the step falls
    # below 10 ulps of t there, as scipy's does
    square = FirstOrderSystem(np.zeros((1, 1)), np.eye(1), [
        PolyCoeffs.from_factors(2, 1, 1, [0], [[0], [0]], [1.0])])
    with pytest.raises(NumericalError, match="10 ulps of t"):
        integrate_full(square, [1.0], (0.0, 2.0))


def test_adaptive_does_not_depend_on_matrix_storage(chain10_forced):
    dense = as_first_order(chain10_forced)
    assert not sp.issparse(dense.A) and not sp.issparse(dense.B)
    csr = FirstOrderSystem(sp.csr_matrix(dense.A), sp.csr_matrix(dense.B),
                           dense.F_coeffs, dense.forcing, dense.eps)
    Omega = 0.6158
    t_end = 5 * 2.0 * np.pi / Omega
    t_eval = np.linspace(0.0, t_end, 101)
    z0 = np.random.default_rng(6).normal(size=20) * 0.1
    one, two = (integrate_full(system, z0, (0.0, t_end), Omega=Omega,
                               t_eval=t_eval)["z"]
                for system in (dense, csr))
    # the stacked operator is one CSR matrix whatever A's storage, so
    # the two runs differ only by the rounding of LAPACK's and SuperLU's
    # solves with B; a step-size choice moved by that would show as a
    # difference of the 1e-8 tolerance, a rounding difference stays
    # near 1e-16 times the growth over five periods
    assert np.abs(one - two).max() <= 1e-12 * np.abs(one).max()


def test_adaptive_path_stays_sparse():
    # N = 2 * 10^4: a dense N x N matrix would take 8 N^2 = 3.2 GB
    system = build_first_order(cubic_bar(10**4, 5))
    assert sp.issparse(system.A) and system.N == 2 * 10**4
    z0 = np.random.default_rng(3).normal(size=system.N) * 1e-3
    tracemalloc.start()
    try:
        # about ten explicit steps of the stiff bar, the build of the
        # stacked operator and B's factors included
        out = integrate_full(system, z0, (0.0, 1e-7), Omega=5.4,
                             t_eval=[1e-7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(out["z"]).all()
    # 21 MB at N = 2 * 10^4: the cubic's monomial plan, H and the stages
    assert peak < 0.01 * 8 * system.N**2


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


def _trapezoid_period(system, **kw):
    """One forcing period of the README chain at Omega = 0.6158, in
    128 trapezoidal steps."""
    Omega = 0.6158
    period = 2.0 * np.pi / Omega
    z0 = np.random.default_rng(6).normal(size=20) * 0.1
    return integrate_full(system, z0, (0.0, period), Omega=Omega,
                          method="trapezoid", dt=period / 128, **kw)


def test_trapezoid_does_not_depend_on_matrix_storage(chain10_forced):
    dense = as_first_order(chain10_forced)
    assert not sp.issparse(dense.A) and not sp.issparse(dense.B)
    csr = FirstOrderSystem(sp.csr_matrix(dense.A), sp.csr_matrix(dense.B),
                           dense.F_coeffs, dense.forcing, dense.eps)
    one = _trapezoid_period(dense, newton_tol=1e-9)
    two = _trapezoid_period(csr, newton_tol=1e-9)
    assert one["newton_iterations"] == two["newton_iterations"]
    assert (np.abs(one["z"] - two["z"]).max()
            <= 1e-12 * np.abs(one["z"]).max())


@pytest.mark.parametrize("model,Omega,most", [
    (lambda: oscillator_chain(10, c=0.1, kappa=0.3,
                              forcing_amplitude=np.linspace(0.1, 1.0, 10),
                              eps=0.1), 0.6, 2 * 64),
    (lambda: csr_bar(1500, 4), 5.4, 64),
], ids=["chain", "csr-bar-1500"])
def test_trapezoid_on_the_n2_matrix_matches_the_2n_pencil(model, Omega,
                                                          most):
    # the lift iterates on the displacements with sigma^2 M + sigma C + K,
    # the same pencil without its mechanical model on the whole state
    # with the 2N matrix sigma B - A
    mech = model()
    period = 2.0 * np.pi / Omega
    z0 = np.random.default_rng(6).normal(size=2 * mech.n) * 0.01
    one, two = (integrate_full(system, z0, (0.0, period), Omega=Omega,
                               method="trapezoid", dt=period / 64,
                               newton_tol=1e-9)
                for system in (build_first_order(mech), plain_pencil(mech)))
    assert (np.abs(one["z"] - two["z"]).max()
            <= 1e-12 * np.abs(two["z"]).max())
    # from the quadratic extrapolation the cubic chain takes at most two
    # chord iterations a step (150 in all from the linear one), and the
    # linear bar one, which solves its step (two before)
    assert one["newton_iterations"] == two["newton_iterations"] <= most


def test_trapezoid_newton_work_and_accuracy(chain10_forced):
    got = _trapezoid_period(chain10_forced, newton_tol=1e-9)
    assert got["z"].shape[1] == 129
    assert got["newton_iterations"] <= 3 * 128
    ref = _trapezoid_period(chain10_forced, newton_tol=1e-14,
                            max_newton=200)
    assert (np.abs(got["z"] - ref["z"]).max()
            <= 1e-8 * np.abs(ref["z"]).max())


@pytest.mark.parametrize("lifted", [True, False], ids=["mech", "plain"])
@pytest.mark.parametrize("conv", [np.asarray, sp.csr_matrix],
                         ids=["dense", "csr"])
def test_trapezoid_refuses_a_step_on_the_spectrum(conv, lifted):
    # dt = 2 puts sigma = 2/h = 1 on the eigenvalue 1 of both models,
    # whatever the storage
    if lifted:
        sys = MechanicalSystem(conv(np.eye(1)), conv(np.zeros((1, 1))),
                               conv(-np.eye(1)))
    else:
        sys = FirstOrderSystem(conv(np.diag([1.0, -1.0])), conv(np.eye(2)))
    z0 = np.zeros(as_first_order(sys).N)
    with pytest.raises(NumericalError, match="exactly singular at dt=2"):
        integrate_full(sys, z0, (0.0, 2.0), method="trapezoid", dt=2.0)


def test_integrate_full_validations(chain10_forced, chain10):
    with pytest.raises(ValidationError, match="pass Omega"):
        integrate_full(chain10_forced, np.zeros(20), (0.0, 1.0))
    for dt in (None, 0.0, float("nan")):
        with pytest.raises(ValidationError, match="positive dt"):
            integrate_full(chain10, np.zeros(20), (0.0, 1.0),
                           method="trapezoid", dt=dt)
    for method in ("adaptive", "trapezoid"):
        with pytest.raises(ValidationError, match="two finite times"):
            integrate_full(chain10, np.zeros(20), (0.0, float("nan")),
                           method=method, dt=0.1)
    with pytest.raises(ValidationError, match="method must be"):
        integrate_full(chain10, np.zeros(20), (0.0, 1.0), method="euler")
    with pytest.raises(ValidationError, match="expect 1"):
        integrate_full(chain10_forced, np.zeros(20), (0.0, 1.0),
                       Omega=[0.6, 0.7])
    with pytest.raises(ValidationError, match="Omega must be finite"):
        integrate_full(chain10_forced, np.zeros(20), (0.0, 1.0),
                       Omega=float("nan"))
    with pytest.raises(ValidationError, match="expected 20"):
        integrate_full(chain10, np.zeros(7), (0.0, 1.0))
    with pytest.raises(ValidationError, match="takes no t_eval"):
        integrate_full(chain10, np.zeros(20), (0.0, 1.0),
                       method="trapezoid", dt=0.1, t_eval=[0.5])
    # both methods integrate forward only, over a span that is not empty
    for method in ("adaptive", "trapezoid"):
        for span in ((1.0, 1.0), (1.0, 0.0)):
            with pytest.raises(ValidationError, match="t0 < t1"):
                integrate_full(chain10, np.zeros(20), span, method=method,
                               dt=0.1)
    for t_eval, match in (([0.5, 0.2], "strictly ascending"),
                          ([0.2, 0.2], "strictly ascending"),
                          ([0.5, 1.5], "inside t_span"),
                          ([-0.1, 0.5], "inside t_span"),
                          ([float("nan")], "inside t_span"),
                          ([[0.5]], "one-dimensional")):
        with pytest.raises(ValidationError, match=match):
            integrate_full(chain10, np.zeros(20), (0.0, 1.0), t_eval=t_eval)
    for tol in (dict(rtol=-1e-8), dict(atol=-1e-10), dict(rtol=np.inf),
                dict(atol=float("nan"))):
        with pytest.raises(ValidationError, match="rtol and atol"):
            integrate_full(chain10, np.zeros(20), (0.0, 1.0), **tol)


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
    for Omega in (-0.6, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="Omega must be positive"):
            steady_state_amplitude(chain10_forced, Omega, 4)
    with pytest.raises(ValidationError, match="outside the state"):
        steady_state_amplitude(chain10_forced, 0.6, 25)
    # True used to be integrated as state 1
    for dof in (2.7, True):
        with pytest.raises(ValidationError, match="integer state index"):
            steady_state_amplitude(chain10_forced, 0.6, dof)
    for kw, name in ((dict(n_window=0), "n_window"),
                     (dict(n_window=2.5), "n_window"),
                     (dict(n_transient=-1), "n_transient"),
                     (dict(n_transient=1.5), "n_transient")):
        with pytest.raises(ValidationError, match="%s must be an integer"
                           % name):
            steady_state_amplitude(chain10_forced, 0.6, 4, **kw)
    for tol in (0.0, -0.01, float("nan")):
        with pytest.raises(ValidationError, match="tol must be positive"):
            steady_state_amplitude(chain10_forced, 0.6, 4, tol=tol)


def test_start_state_must_be_real(chain10_forced):
    z0 = np.random.default_rng(6).normal(size=20) * 0.1
    kw = dict(Omega=0.6158, t_eval=[1.0])
    want = integrate_full(chain10_forced, z0, (0.0, 1.0), **kw)["z"]
    # a complex dtype holding real values is the same start state
    got = integrate_full(chain10_forced, z0 + 0j, (0.0, 1.0), **kw)["z"]
    assert np.array_equal(got, want)
    z0c = z0 + 1e-3j
    for method, extra in (("adaptive", kw), ("trapezoid", dict(
            Omega=0.6158, dt=0.5))):
        with pytest.raises(ValidationError, match="nonzero imaginary"):
            integrate_full(chain10_forced, z0c, (0.0, 1.0), method=method,
                           **extra)
    with pytest.raises(ValidationError, match="nonzero imaginary"):
        steady_state_amplitude(chain10_forced, 0.6, 4, n_transient=1,
                               z0=z0c)
