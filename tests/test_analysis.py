"""Polar reduced models, backbone curves and forced response sweeps."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import ssmkit.analysis
from ssmkit import (ManifoldExpansion, MechanicalSystem, ValidationError,
                    backbone, compute_manifold, extract_polar_rom, frc_sweep,
                    leading_order, master_spectrum, oscillator_chain,
                    physical_amplitude, stability_jacobian,
                    steady_state_amplitude, write_backbone_csv,
                    write_frc_csv, write_frc_json, write_frc_svg)
from ssmkit.multiindex import MultiIndexSet


def duffing_manifold(order=5):
    """Conservative single mass between two walls, cubic springs."""
    sys = oscillator_chain(1, m=1.0, k=1.0, c=0.0, kappa=0.3)
    ms = master_spectrum(sys, select={"mode": "pair", "pair": 1}, n_outer=0)
    return compute_manifold(sys, ms, order=order)


def duffing_frequency(a, k2=2.0, beta=0.6):
    """Oscillation frequency of x'' + k2 x + beta x^3 = 0 at amplitude a."""
    val, _ = quad(lambda phi: 1.0 / np.sqrt(
        k2 + beta * a * a * (1.0 + np.sin(phi) ** 2) / 2.0), 0.0, np.pi / 2)
    return 2.0 * np.pi / (4.0 * val)


def resonant_coefficient(manifold, Omega):
    """Rotating-frame forcing coefficient the sweep uses at one Omega."""
    rom = extract_polar_rom(manifold)
    override = {(1,): [rom.row], (-1,): [rom.partner]}
    nonaut = leading_order(manifold.system, manifold.master, [Omega],
                           style=manifold.style, resonant_modes=override)
    return manifold.system.eps * complex(nonaut.s0((1,))[rom.row]), nonaut


def test_polar_rom_reads_resonant_monomials(chain_mode2_man5):
    rom = extract_polar_rom(chain_mode2_man5)
    ms = chain_mode2_man5.master
    assert rom.lam.imag > 0
    assert rom.lam == ms.lambdas[rom.row]
    assert rom.partner == 1 - rom.row
    assert rom.gammas.shape == (2,)
    assert rom.eta == 1 and rom.f == 0.0

    mis = MultiIndexSet(3, 2)
    total = sum(chain_mode2_man5.R[3][rom.row, pos]
                for pos, t in enumerate(mis.tuples())
                if sum(1 for k in t if k == rom.row) == 2)
    assert abs(rom.gammas[0] - total) < 1e-15


def test_polar_rom_validations(lorenz_man3, lorenz_master,
                               chain10_forced, chain_mode2_master):
    with pytest.raises(ValidationError, match="complex conjugate"):
        extract_polar_rom(lorenz_man3)
    sys, _ = lorenz_master
    ms1 = master_spectrum(sys, select=[2], n_outer=2)
    man1 = compute_manifold(sys, ms1, order=1)
    with pytest.raises(ValidationError, match="two-dimensional"):
        extract_polar_rom(man1)
    graph_man = compute_manifold(chain10_forced, chain_mode2_master,
                                 order=3, style="graph")
    with pytest.raises(ValidationError, match="normal-form style"):
        extract_polar_rom(graph_man)


def test_backbone_matches_periodic_orbit_frequency():
    man = duffing_manifold()
    curve = backbone(man, rho_max=0.16, n=9, dof=0)
    assert curve.rho[0] == 0.0
    assert abs(curve.omega[0] - np.sqrt(2.0)) < 1e-12
    for r, w, a in zip(curve.rho[1:], curve.omega[1:], curve.amp[1:]):
        w_orbit = duffing_frequency(a)
        assert abs(w - w_orbit) < 1e-5 * w_orbit
    # conservative models keep the radial dynamics silent
    assert abs(curve.rom.gammas.real).max() < 1e-9


def test_backbone_rejects_damped_pairs(chain_mode2_man5):
    with pytest.raises(ValidationError, match="forced response"):
        backbone(chain_mode2_man5, rho_max=0.1)


def test_backbone_validates_rho_max():
    man = duffing_manifold(order=3)
    # a NaN or infinite rho_max used to give a NaN curve
    for rho_max in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="rho_max"):
            backbone(man, rho_max=rho_max)


def test_backbone_grid_size_is_an_integer_of_at_least_one():
    man = duffing_manifold(order=3)
    # 2.7 used to be truncated to 2, and 0 to give an empty curve
    for n in (2.7, 0, -1, True):
        with pytest.raises(ValidationError, match="n must be an integer"):
            backbone(man, rho_max=0.1, n=n)
    assert backbone(man, rho_max=0.1, n=np.int64(1)).rho.tolist() == [0.0]


def test_frc_points_are_polar_fixed_points(chain_mode2_man5):
    result = frc_sweep(chain_mode2_man5, [0.56, 0.6158, 0.66])
    assert result.eta == 1
    rom = result.rom
    assert [pt["Omega"] for pt in result.points] == \
        sorted(pt["Omega"] for pt in result.points)
    for Omega in result.omegas():
        f, _ = resonant_coefficient(chain_mode2_man5, Omega)
        for pt in result.at(Omega):
            rho, psi = pt["rho"], pt["psi"]
            rot = f * np.exp(-1j * psi)
            assert abs(rom.a(rho) + rot.real) < 1e-10
            assert abs(rom.b(rho, Omega) + rot.imag) < 1e-10


def test_frc_default_dof_is_largest_modal_row(chain_mode2_man5):
    result = frc_sweep(chain_mode2_man5, [0.6158])
    rom = result.rom
    mag = np.abs(chain_mode2_man5.master.V[:, rom.row])
    # the mirror-symmetric mode has two largest entries, equal up to
    # rounding; the default is the first of them
    top = np.flatnonzero(mag >= (1.0 - 1e-10) * mag.max())
    assert top.size == 2
    assert result.dofs == [int(top[0])]


def test_frc_amplitudes_match_the_lift(chain_mode2_man5):
    result = frc_sweep(chain_mode2_man5, [0.60], dofs=(4,))
    f, nonaut = resonant_coefficient(chain_mode2_man5, 0.60)
    for pt in result.points:
        want = physical_amplitude(chain_mode2_man5, pt["rho"], pt["psi"], 4,
                                  nonaut=nonaut, eps=result.eps, eta=1)
        assert abs(pt["amp"][4] - want) < 1e-12


def _per_phase_amplitude(manifold, rho, psi, dof, nonaut=None, eps=0.0,
                         eta=1):
    """The amplitude lift one phase at a time: one single-point
    evaluate (and correction) per phase, at 128 phases a cycle."""
    row = 0 if manifold.master.lambdas[0].imag > 0 else 1
    peak = 0.0
    for phi in 2.0 * np.pi * np.arange(128) / 128:
        theta = psi + eta * phi
        p = np.zeros(2, dtype=complex)
        p[row] = rho * np.exp(1j * theta)
        p[1 - row] = rho * np.exp(-1j * theta)
        z = manifold.evaluate(p).real
        if nonaut is not None and eps:
            z = z + eps * nonaut.correction([phi])
        peak = max(peak, abs(float(z[dof])))
    return peak


def test_physical_amplitude_matches_the_per_phase_loop(chain_mode2_man5):
    man = chain_mode2_man5
    result = frc_sweep(man, [0.58, 0.6158], dofs=(4, 0, 9))
    for pt in result.points:
        _, nonaut = resonant_coefficient(man, pt["Omega"])
        kw = dict(nonaut=nonaut, eps=result.eps, eta=result.eta)
        many = physical_amplitude(man, pt["rho"], pt["psi"], [4, 0, 9], **kw)
        for k, dof in enumerate((4, 0, 9)):
            want = _per_phase_amplitude(man, pt["rho"], pt["psi"], dof, **kw)
            one = physical_amplitude(man, pt["rho"], pt["psi"], dof, **kw)
            assert isinstance(one, float)
            for got in (one, many[k], pt["amp"][dof]):
                assert abs(got - want) <= 1e-15 * want
    # unforced lift, as backbone curves use it
    for rho in (1e-3, 0.05):
        want = _per_phase_amplitude(man, rho, 0.3, 4)
        got = physical_amplitude(man, rho, 0.3, 4)
        assert abs(got - want) <= 1e-15 * want


def test_frc_validations(chain10, chain10_forced, chain_mode2_master,
                         chain_mode2_man5):
    unforced = compute_manifold(chain10, chain_mode2_master, order=3)
    with pytest.raises(ValidationError, match="backbone"):
        frc_sweep(unforced, [0.6])
    eps0 = MechanicalSystem(chain10_forced.M, chain10_forced.C,
                            chain10_forced.K, chain10_forced.f_coeffs,
                            chain10_forced.forcing, eps=0.0)
    with pytest.raises(ValidationError, match="backbone"):
        frc_sweep(compute_manifold(eps0, chain_mode2_master, order=3), [0.6])
    with pytest.raises(ValidationError, match="omega_values is empty"):
        frc_sweep(chain_mode2_man5, [])
    # NaN used to reach the forcing solve, which found the pencil
    # singular there, and 0 and -0.6 each gave a response
    for Omega in (float("nan"), float("inf"), 0.0, -0.6):
        with pytest.raises(ValidationError, match="positive and finite"):
            frc_sweep(chain_mode2_man5, [0.6, Omega])
    with pytest.raises(ValidationError, match="eta must be an integer"):
        frc_sweep(chain_mode2_man5, [0.6], eta=1.5)
    with pytest.raises(ValidationError, match="no forcing harmonic"):
        frc_sweep(chain_mode2_man5, [0.6], eta=3)
    detached = ManifoldExpansion.from_dict(chain_mode2_man5.to_dict())
    with pytest.raises(ValidationError, match="no system attached"):
        frc_sweep(detached, [0.6])


def test_frc_screens_the_forcing_with_the_manifold_tolerance(
        monkeypatch, chain10_forced, chain_mode2_master):
    man = compute_manifold(chain10_forced, chain_mode2_master, order=3,
                           tol={"rel": 2e-3, "slack": 0.5})
    seen = []
    solve = ssmkit.analysis.leading_order

    def spy(*args, **kwargs):
        seen.append(kwargs["tol"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(ssmkit.analysis, "leading_order", spy)
    frc_sweep(man, [0.58, 0.6158])
    assert man.resonances.params["rel"] == 2e-3
    assert seen == [man.resonances.params] * 2
    # a loaded manifold holds no classification; its screen takes the
    # defaults
    loaded = ManifoldExpansion.from_dict(man.to_dict(), system=man.system)
    seen.clear()
    frc_sweep(loaded, [0.6])
    assert seen == [None]


def test_frc_at_the_second_harmonic_matches_the_full_model(chain10_forced):
    # the README load at twice the frequency, f0 cos(2 Omega t), drives
    # the second pair near Omega = omega_2/2 (eta = 2); the fixed points
    # used to be read off the eta = 1 model, which raised a phase
    # inconsistency
    base = chain10_forced
    chain = MechanicalSystem(base.M, base.C, base.K, base.f_coeffs,
                             [((2 * kt[0],), f) for kt, f in base.forcing],
                             eps=0.002)
    ms = master_spectrum(chain, select={"mode": "pair", "pair": 2},
                         n_outer=8)
    man = compute_manifold(chain, ms, order=5)
    half = extract_polar_rom(man).lam.imag / 2.0
    omegas = [0.995 * half, 1.01 * half]
    result = frc_sweep(man, omegas, dofs=(4,))
    assert result.eta == 2 and result.rom.eta == 2
    rom = result.rom
    override = {(2,): [rom.row], (-2,): [rom.partner]}
    for Omega in omegas:
        stable = [pt for pt in result.at(Omega) if pt["stable"]]
        pt = max(stable, key=lambda q: q["rho"])
        nonaut = leading_order(chain, ms, [Omega], style=man.style,
                               resonant_modes=override)
        p = np.zeros(2, dtype=complex)
        p[rom.row] = pt["rho"] * np.exp(1j * pt["psi"])
        p[rom.partner] = np.conj(p[rom.row])
        z0 = man.evaluate(p).real + chain.eps * nonaut.correction([0.0])
        oracle = steady_state_amplitude(chain, Omega, 4, n_transient=50,
                                        n_window=10, tol=0.002, z0=z0)
        assert abs(pt["amp"][4] - oracle) <= 0.02 * oracle


def test_fractional_dofs_are_refused(tmp_path, chain_mode2_man5):
    # 4.5 used to be truncated to state 4 without a word, and True was
    # read as state 1
    for bad in (4.5, True):
        with pytest.raises(ValidationError, match="integer state index"):
            frc_sweep(chain_mode2_man5, [0.6], dofs=(bad,))
        with pytest.raises(ValidationError, match="integer state index"):
            physical_amplitude(chain_mode2_man5, 0.05, 0.0, [4, bad])
    for bad in (0.5, False):
        with pytest.raises(ValidationError, match="integer state index"):
            backbone(duffing_manifold(order=3), rho_max=0.1, n=3, dof=bad)
    result = frc_sweep(chain_mode2_man5, [0.6], dofs=(np.int64(4), 1))
    assert result.dofs == [4, 1]
    for bad in (4.5, True):
        with pytest.raises(ValidationError, match="integer state index"):
            write_frc_svg(result, tmp_path / "frc.svg", dof=bad)


def test_dofs_outside_the_states_are_refused(tmp_path, chain_mode2_man5):
    # the README chain has N = 20 states; 25 used to raise a bare
    # IndexError and -1 was reported as state 19 under key -1
    man = chain_mode2_man5
    assert man.N == 20
    for dof in (25, -1, 20):
        with pytest.raises(ValidationError, match="outside the states"):
            frc_sweep(man, [0.6], dofs=(dof,))
        with pytest.raises(ValidationError, match="outside the states"):
            physical_amplitude(man, 0.05, 0.0, dof)
        with pytest.raises(ValidationError, match="outside the states"):
            physical_amplitude(man, 0.05, 0.0, [4, dof])
    # 0.5 used to lift state 0
    with pytest.raises(ValidationError, match="integer state index"):
        physical_amplitude(man, 0.05, 0.0, 0.5)
    duff = duffing_manifold(order=3)
    with pytest.raises(ValidationError, match="outside the states"):
        backbone(duff, rho_max=0.1, n=3, dof=2)
    with pytest.raises(ValidationError, match="outside the states"):
        backbone(duff, rho_max=0.1, n=3, dof=-1)
    result = frc_sweep(man, [0.6], dofs=(4, 19))
    assert result.dofs == [4, 19]
    write_frc_svg(result, tmp_path / "frc.svg", dof=19)
    # a state the sweep did not lift used to raise a bare KeyError
    with pytest.raises(ValidationError, match="not among the swept"):
        write_frc_svg(result, tmp_path / "frc.svg", dof=0)


def test_stability_jacobian_rejects_the_origin(chain_mode2_man5):
    rom = extract_polar_rom(chain_mode2_man5)
    with pytest.raises(ValidationError, match="singular at rho = 0"):
        stability_jacobian(rom, 0.0)


def rom_integrate(rom, q0, t_span, f=0.0, Omega=None):
    """
    Integrate the polar model in Cartesian form, q = rho exp(i psi):
    q' = (lam - i eta Omega) q + sum_l gamma_l |q|^(2l) q + f, smooth at
    q = 0 where the polar chart is not; without f, and with no Omega, it
    is q' = lam q + sum_l gamma_l |q|^(2l) q. A forced model needs the
    frame's Omega. Returns a dict with "t", "q", "rho" and "psi".
    """
    frame = 0.0
    if f != 0:
        if Omega is None:
            raise ValidationError("a forced reduced model needs Omega")
        frame = 1j * rom.eta * float(Omega)

    def rhs(t, y):
        q = y[0] + 1j * y[1]
        dq = (rom.lam - frame) * q + f
        for l, g in enumerate(rom.gammas, start=1):
            dq = dq + g * abs(q) ** (2 * l) * q
        return [dq.real, dq.imag]

    q0 = complex(q0)
    sol = solve_ivp(rhs, t_span, [q0.real, q0.imag], rtol=1e-9, atol=1e-12)
    assert sol.success, sol.message
    q = sol.y[0] + 1j * sol.y[1]
    return {"t": sol.t, "q": q, "rho": np.abs(q), "psi": np.angle(q)}


def test_rom_integrate_matches_radial_equation(chain_mode2_man5):
    rom = extract_polar_rom(chain_mode2_man5)
    out = rom_integrate(rom, 0.05, (0.0, 200.0))
    radial = solve_ivp(lambda t, r: [float(rom.a(r[0]))], (0.0, 200.0),
                       [0.05], rtol=1e-10, atol=1e-13)
    assert abs(out["rho"][-1] - radial.y[0, -1]) < 1e-7
    assert out["rho"][-1] < 0.05


def test_rom_integrate_settles_on_stable_branch(chain_mode2_man5):
    Omega = 0.6158
    result = frc_sweep(chain_mode2_man5, [Omega])
    stable = [pt for pt in result.points if pt["stable"]]
    pt = max(stable, key=lambda q: q["rho"])
    f, _ = resonant_coefficient(chain_mode2_man5, Omega)
    q0 = 1.1 * pt["rho"] * np.exp(1j * (pt["psi"] + 0.2))
    out = rom_integrate(result.rom, q0, (0.0, 800.0), f, Omega)
    assert abs(out["rho"][-1] - pt["rho"]) < 1e-6
    assert abs(np.exp(1j * out["psi"][-1]) - np.exp(1j * pt["psi"])) < 1e-4


def test_forced_rom_requires_a_frame(chain_mode2_man5):
    rom = extract_polar_rom(chain_mode2_man5)
    with pytest.raises(ValidationError, match="needs Omega"):
        rom_integrate(rom, 0.01, (0.0, 1.0), 0.01, None)


def test_amplitude_lift_linearizes_at_small_rho(chain_mode2_man5):
    ms = chain_mode2_man5.master
    rom = extract_polar_rom(chain_mode2_man5)
    rho = 1e-6
    for dof in (0, 4, 9):
        amp = physical_amplitude(chain_mode2_man5, rho, 0.0, dof)
        want = 2.0 * rho * abs(ms.V[dof, rom.row])
        assert abs(amp - want) < 5e-3 * want


def test_frc_writers_are_deterministic(tmp_path, chain_mode2_man5):
    result = frc_sweep(chain_mode2_man5, [0.60, 0.6158], dofs=(4,))
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_frc_csv(result, csv1)
    write_frc_csv(result, csv2)
    assert csv1.read_bytes() == csv2.read_bytes()
    lines = csv1.read_text().splitlines()
    assert lines[0] == "Omega,rho,psi,stable,amp_dof_4"
    assert len(lines) == 1 + len(result.points)
    first = lines[1].split(",")
    assert float(first[0]) == result.points[0]["Omega"]
    assert first[3] in ("0", "1")

    js1, js2 = tmp_path / "a.json", tmp_path / "b.json"
    write_frc_json(result, js1)
    write_frc_json(result, js2)
    assert js1.read_bytes() == js2.read_bytes()
    data = json.loads(js1.read_text())
    assert data["kind"] == "frc"
    assert len(data["points"]) == len(result.points)

    svg = tmp_path / "a.svg"
    write_frc_svg(result, svg)
    root = ET.fromstring(svg.read_text())
    circles = [el for el in root.iter()
               if el.tag.endswith("circle")]
    assert len(circles) == len(result.points)


def test_backbone_writer_roundtrips_numbers(tmp_path):
    man = duffing_manifold()
    curve = backbone(man, rho_max=0.1, n=5, dof=0)
    path = tmp_path / "bb.csv"
    write_backbone_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,omega,amp_dof_0"
    got = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(got[:, 0], curve.rho)
    assert np.array_equal(got[:, 1], curve.omega)
    assert np.array_equal(got[:, 2], curve.amp)
