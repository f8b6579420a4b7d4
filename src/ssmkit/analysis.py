"""
Two-dimensional reduced-order models in polar form.

On a manifold over one lightly damped conjugate pair, written in the
normal-form style, the reduced dynamics keeps only the resonant
monomials q |q|^(2l). With q = rho exp(i psi) this is the polar system

    rho' = a(rho) + Re(f exp(-i psi))
    psi' = b(rho, Omega) / rho + Im(f exp(-i psi)) / rho

    a(rho) = Re(lam) rho + sum_l Re(gamma_l) rho^(2l+1)
    b(rho, Omega) = (Im(lam) - eta Omega) rho + sum_l Im(gamma_l) rho^(2l+1)

where f is the rotating-frame forcing coefficient of the harmonic eta
resonant with the pair (zero for unforced models). Fixed points of the
polar system are periodic orbits of the full model; their amplitudes
satisfy the polynomial equation

    s (A(s)^2 + B(s)^2) = |f|^2,      s = rho^2,

with A, B the odd polynomials above divided by rho. This module
extracts the polar model, computes backbone curves of conservative
models, sweeps forced response curves with stability from the polar
Jacobian, and lifts reduced amplitudes back to physical coordinates.

``PolarROM`` holds lam and the gamma_l once, and a sweep takes its
roots, phases and Jacobians from one model at its eta (eta = 2 for a
load cos(2 Omega t) near half the pair's frequency). The amplitude lift
samples ``N_PHASES`` = 128 phases per response cycle.
"""

import json

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import NumericalError, ValidationError, as_index
from .forcing import leading_order
from .spectrum import largest_entry, state_index

__all__ = [
    "PolarROM", "extract_polar_rom", "BackboneCurve", "backbone",
    "FrcResult", "frc_sweep", "stability_jacobian", "physical_amplitude",
    "write_frc_csv", "write_frc_json", "write_frc_svg", "write_backbone_csv",
]

# phases per response cycle at which the amplitude lift samples a state
N_PHASES = 128
# how close Re(lambda) of a backbone's master pair must be to zero,
# relative to |lambda|
CONSERVATIVE_RTOL = 1e-9


class PolarROM:
    """
    Polar reduced model of a conjugate-pair manifold.

    Attributes
    ----------
    coeffs : (L+1,) complex ndarray
        lam, gamma_1, .., gamma_L: the only copy of the polynomial. a
        and A read the real parts, b and B the imaginary ones.
    lam : complex
        Master eigenvalue with positive imaginary part, ``coeffs[0]``.
    gammas : (L,) complex ndarray
        Coefficients of q |q|^(2l), l = 1..L, ``coeffs[1:]``.
    row, partner : int
        Positions of the pair inside the master arrays.
    eta : int
        Resonant harmonic multiple (eta Omega near Im lam). 1 unless
        set by the sweep.
    f : complex
        Rotating-frame forcing coefficient (eps included); 0 unforced.
    Omega : float or None
        Rotating-frame frequency associated with f.
    """

    def __init__(self, lam, gammas, row, partner, eta=1, f=0.0, Omega=None):
        self.coeffs = np.concatenate(([complex(lam)],
                                      np.asarray(gammas, dtype=complex)))
        self.row = int(row)
        self.partner = int(partner)
        self.eta = int(eta)
        self.f = complex(f)
        self.Omega = Omega

    @property
    def lam(self):
        return complex(self.coeffs[0])

    @property
    def gammas(self):
        return self.coeffs[1:]

    def _b_coeffs(self, Omega):
        """Imaginary parts of the coefficients, eta Omega taken off Im lam;
        Omega defaults to the model's own, and without one there is no
        rotating frame."""
        if Omega is None:
            Omega = self.Omega
        c = self.coeffs.imag.copy()
        if Omega is not None:
            c[0] -= self.eta * float(Omega)
        return c

    @staticmethod
    def _sum(c, rho, shift, weighted=False):
        """sum_l w_l c_l rho^(2l + shift), w_l = 2l + 1 when ``weighted``
        and 1 otherwise, added from l = 0 up: the odd polynomial at shift
        1, its derivative at shift 0 weighted, its quotient by rho at
        shift 0."""
        rho = np.asarray(rho, dtype=float)
        out = c[0] * rho if shift else np.full_like(rho, c[0])
        for l in range(1, c.size):
            w = 2 * l + 1 if weighted else 1
            out = out + w * c[l] * rho ** (2 * l + shift)
        return out

    def a(self, rho):
        return self._sum(self.coeffs.real, rho, 1)

    def a_prime(self, rho):
        return self._sum(self.coeffs.real, rho, 0, weighted=True)

    def b(self, rho, Omega=None):
        return self._sum(self._b_coeffs(Omega), rho, 1)

    def b_prime(self, rho, Omega=None):
        return self._sum(self._b_coeffs(Omega), rho, 0, weighted=True)

    def phase_velocity(self, rho):
        """Instantaneous frequency of the unforced model, b/rho at
        Omega = 0: Im lam + sum Im(gamma_l) rho^(2l)."""
        return self._sum(self.coeffs.imag, rho, 0)

    def amplitude_polynomial(self, f, Omega=None):
        """Ascending coefficients of g(s) = s (A(s)^2 + B(s)^2) - |f|^2 in
        s = rho^2, A = a/rho and B = b/rho: its positive roots are the
        squared amplitudes of the fixed points under the forcing
        coefficient f."""
        re, im = self.coeffs.real, self._b_coeffs(Omega)
        return np.concatenate(([-abs(f) ** 2],
                               np.convolve(re, re) + np.convolve(im, im)))

    def to_dict(self):
        return {
            "lam": [self.lam.real, self.lam.imag],
            "gammas": [[g.real, g.imag] for g in self.gammas],
            "row": self.row, "partner": self.partner, "eta": self.eta,
            "f": [self.f.real, self.f.imag],
            "Omega": self.Omega,
        }

    def __repr__(self):
        return ("PolarROM(lam=%s, L=%d, eta=%d, |f|=%g)"
                % (self.lam, self.gammas.size, self.eta, abs(self.f)))


def extract_polar_rom(manifold):
    """
    Read the polar model off a normal-form expansion over one pair.

    Raises
    ------
    ValidationError
        If the master subspace is not a single conjugate pair or the
        expansion was not computed in the normal-form style.
    """
    master = manifold.master
    if master.dim != 2:
        raise ValidationError(
            "polar reduction needs a two-dimensional master subspace, "
            "got dimension %d" % master.dim)
    lam = master.lambdas
    if master.pairing[0] != 1 or lam[0].imag == 0:
        raise ValidationError(
            "polar reduction needs a complex conjugate master pair; "
            "eigenvalues are %s" % lam)
    if manifold.style != "normal-form":
        raise ValidationError(
            "polar reduction reads resonant monomials only, which "
            "requires the normal-form style (expansion used %r)"
            % manifold.style)
    row = 0 if lam[0].imag > 0 else 1
    partner = 1 - row
    L = (manifold.order - 1) // 2
    gammas = np.array([manifold.reduced_coefficient(
        2 * l + 1, row, (row,) * (l + 1) + (partner,) * l)
        for l in range(1, L + 1)], dtype=complex)
    return PolarROM(lam[row], gammas, row, partner)


def stability_jacobian(rom, rho, Omega=None):
    """
    Jacobian of the polar vector field at a fixed point with rho > 0.
    """
    rho = float(rho)
    if rho <= 0:
        raise ValidationError("the polar chart is singular at rho = 0")
    a = float(rom.a(rho))
    b = float(rom.b(rho, Omega))
    return np.array([
        [float(rom.a_prime(rho)), -b],
        [float(rom.b_prime(rho, Omega)) / rho, a / rho],
    ])


class BackboneCurve:
    """Amplitude-frequency relation of an unforced conservative pair."""

    def __init__(self, rho, omega, amp, dof, rom):
        self.rho = np.asarray(rho, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        self.amp = np.asarray(amp, dtype=float)
        self.dof = state_index(dof)
        self.rom = rom


def physical_amplitude(manifold, rho, psi, dof, nonaut=None, eps=0.0,
                       eta=1):
    """
    Peak amplitude of one state (a float) or of a sequence of states
    (an array) over a response cycle, sampled at ``N_PHASES`` phases.

    The reduced phase advances as theta = psi + eta * phi with phi the
    forcing phase; the state is the manifold evaluation plus the
    order-eps time-periodic correction when one is supplied. One
    batched evaluation covers every phase and state.
    """
    # a list is read entry by entry, as an array would turn True into 1
    dofs = [dof] if np.ndim(dof) == 0 else dof
    rows = np.array([state_index(d, manifold.N) for d in dofs],
                    dtype=np.int64)
    phases = 2.0 * np.pi * np.arange(N_PHASES) / N_PHASES
    theta = psi + eta * phases
    row = 0 if manifold.master.lambdas[0].imag > 0 else 1
    p = np.empty((2, N_PHASES), dtype=complex)
    p[row] = rho * np.exp(1j * theta)
    p[1 - row] = rho * np.exp(-1j * theta)
    z = manifold.evaluate(p, rows=rows).real
    if nonaut is not None and eps:
        z = z + eps * nonaut.correction(phases[None, :], rows=rows)
    peak = np.abs(z).max(axis=1)
    return float(peak[0]) if np.ndim(dof) == 0 else peak


def backbone(manifold, rho_max, n=40, dof=0):
    """
    Backbone curve of a conservative conjugate-pair manifold.

    Parameters
    ----------
    manifold : ManifoldExpansion
        Normal-form expansion over one conjugate pair.
    rho_max : float
        Largest reduced amplitude on the grid, positive and finite.
    n : int, optional
        Number of grid points (rho = 0 included), at least 1.
    dof : int, optional
        State index reported in the amplitude column.

    Returns
    -------
    BackboneCurve

    Raises
    ------
    ValidationError
        For a damped master pair, |Re lambda| above
        ``CONSERVATIVE_RTOL`` |lambda|; the frequency of a damped free
        oscillation decays through amplitudes, so the meaningful
        amplitude-frequency relation is the forced response sweep.
    """
    rom = extract_polar_rom(manifold)
    if abs(rom.lam.real) > CONSERVATIVE_RTOL * abs(rom.lam):
        raise ValidationError(
            "backbone curves are defined for conservative systems; the "
            "master eigenvalue %s has nonzero decay rate. Run a forced "
            "response sweep instead." % rom.lam)
    rho_max = float(rho_max)
    if not 0 < rho_max < np.inf:
        raise ValidationError("rho_max must be positive and finite, got %r"
                              % rho_max)
    n = as_index(n, "n")
    if n < 1:
        raise ValidationError("n must be an integer >= 1, got %d" % n)
    dof = state_index(dof, manifold.N)
    rho = np.linspace(0.0, rho_max, n)
    omega = rom.phase_velocity(rho)
    amp = np.array([physical_amplitude(manifold, r, 0.0, dof) for r in rho])
    return BackboneCurve(rho, omega, amp, dof, rom)


class FrcResult:
    """
    Forced response sweep output.

    ``points`` is a list of dicts with keys Omega, rho, psi, stable and
    amp (a dict keyed by state index), sorted by (Omega, rho).
    """

    def __init__(self, points, eta, eps, dofs, rom, diagnostics=None):
        self.points = points
        self.eta = int(eta)
        self.eps = float(eps)
        self.dofs = list(dofs)
        self.rom = rom
        self.diagnostics = dict(diagnostics or {})

    def omegas(self):
        return sorted({pt["Omega"] for pt in self.points})

    def at(self, Omega):
        return [pt for pt in self.points if pt["Omega"] == Omega]

    def to_dict(self):
        return {
            "kind": "frc",
            "eta": self.eta,
            "eps": self.eps,
            "dofs": self.dofs,
            "rom": self.rom.to_dict(),
            "points": [
                {"Omega": pt["Omega"], "rho": pt["rho"], "psi": pt["psi"],
                 "stable": bool(pt["stable"]),
                 "amp": {str(d): pt["amp"][d] for d in sorted(pt["amp"])}}
                for pt in self.points
            ],
            "diagnostics": self.diagnostics,
        }


def _real_positive_roots(g_asc, scale):
    roots = np.roots(g_asc[::-1]) if np.any(g_asc[1:]) else np.array([])
    keep = []
    for r in roots:
        if abs(r.imag) <= 1e-8 * max(abs(r), scale) and r.real > 0:
            keep.append(float(r.real))
    keep.sort()
    dedup = []
    for s in keep:
        if not dedup or abs(s - dedup[-1]) > 1e-12 * max(s, 1.0):
            dedup.append(s)
    return dedup


def _refine_root(g_asc, s0):
    """Polish one real root by bisection when a sign change brackets it."""
    def g(s):
        return float(npp.polyval(s, g_asc))

    v0 = g(s0)
    if v0 == 0.0:
        return s0
    delta = 1e-9 * max(s0, 1e-9)
    lo, hi = s0, s0
    vlo = vhi = v0
    for _ in range(60):
        lo = max(s0 - delta, 0.0)
        hi = s0 + delta
        vlo, vhi = g(lo), g(hi)
        if vlo == 0.0:
            return lo
        if vhi == 0.0:
            return hi
        if np.sign(vlo) != np.sign(vhi):
            break
        delta *= 2.0
        if delta > 0.5 * max(s0, 1e-6):
            return s0
    else:
        return s0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        vm = g(mid)
        if vm == 0.0 or (hi - lo) <= 1e-15 * max(hi, 1.0):
            return mid
        if np.sign(vm) == np.sign(vlo):
            lo, vlo = mid, vm
        else:
            hi, vhi = mid, vm
    return 0.5 * (lo + hi)


def frc_sweep(manifold, omega_values, dofs=(), eta=None):
    """
    Forced response curve over a frequency grid.

    For each Omega the order-eps forcing response is solved with the
    master pair held resonant (so the branch stays consistent across
    the sweep), the polar fixed-point equation is reduced to a real
    polynomial in s = rho^2, its positive roots are polished by
    bisection, and each fixed point is classified by the polar
    Jacobian and lifted to physical amplitudes. The polynomial, the
    fixed points and the Jacobian all come from one polar model at the
    sweep's eta. The forcing amplitude is the system's ``eps``; the
    forcing screen takes the resonance tolerance the manifold was
    classified with (the defaults for a loaded manifold, which holds
    none).

    Parameters
    ----------
    manifold : ManifoldExpansion
        Normal-form expansion over one conjugate pair, with its system
        attached.
    omega_values : sequence of float
        Forcing frequencies to sweep, each positive and finite.
    dofs : int or sequence of int, optional
        State indices to lift amplitudes for. Defaults to the state
        with the largest master-mode displacement, the first of equal
        ones (``spectrum.largest_entry``).
    eta : int, optional
        Harmonic multiple resonant with the pair. Autodetected from
        the grid midpoint among 1..3 when omitted.

    Returns
    -------
    FrcResult
        Its ``rom`` is the polar model at the sweep's eta.

    Raises
    ------
    ValidationError
        When the system carries no forcing; backbone curves are the
        unforced object.
    """
    system = manifold.system
    if system is None:
        raise ValidationError(
            "the manifold has no system attached; rebuild or attach one")
    rom = extract_polar_rom(manifold)
    eps = system.eps
    if not system.forcing or eps == 0.0:
        raise ValidationError(
            "the model is unforced (no harmonics or eps = 0); the "
            "amplitude-frequency relation of the unforced model is the "
            "backbone curve")
    for kt, _ in system.forcing:
        if len(kt) != 1:
            raise ValidationError(
                "forced response sweeps take single-frequency forcing; "
                "harmonic %r has %d frequency slots" % (kt, len(kt)))
    omega_values = sorted(float(w) for w in np.asarray(omega_values).ravel())
    if not omega_values:
        raise ValidationError("omega_values is empty")
    bad = [w for w in omega_values if not 0 < w < np.inf]
    if bad:
        raise ValidationError("every Omega must be positive and finite, "
                              "got %r" % bad[0])

    if eta is None:
        mid = omega_values[len(omega_values) // 2]
        eta = min(range(1, 4), key=lambda e: abs(rom.lam.imag - e * mid))
    rom.eta = as_index(eta, "eta")
    kplus = (rom.eta,)
    table = dict(system.forcing)
    if kplus not in table:
        raise ValidationError(
            "no forcing harmonic matches the resonant multiple eta=%d; "
            "harmonics present: %s" % (rom.eta, sorted(table)))
    master = manifold.master
    override = {kplus: [rom.row], tuple(-k for k in kplus): [rom.partner]}
    tol = None if manifold.resonances is None else manifold.resonances.params

    if np.ndim(dofs) == 0:
        dofs = [dofs]
    if not dofs:
        dofs = [largest_entry(master.V[:, rom.row])]
    dofs = [state_index(d, manifold.N) for d in dofs]

    points = []
    consistency_worst = 0.0
    for Omega in omega_values:
        nonaut = leading_order(system, master, [Omega],
                               style=manifold.style, tol=tol,
                               resonant_modes=override)
        f = eps * complex(nonaut.s0(kplus)[rom.row])
        if f == 0:
            raise ValidationError(
                "the resonant forcing coefficient vanishes at Omega=%g; "
                "the model is effectively unforced there" % Omega)
        g_asc = rom.amplitude_polynomial(f, Omega)
        f2 = abs(f) ** 2
        scale = max(abs(f) ** (2.0 / 3.0), 1e-12)
        roots = [_refine_root(g_asc, s) for s in
                 _real_positive_roots(g_asc, scale)]
        for s in roots:
            rho = float(np.sqrt(s))
            a = float(rom.a(rho))
            b = float(rom.b(rho, Omega))
            cpsi = -(a * f.real + b * f.imag) / f2
            spsi = (b * f.real - a * f.imag) / f2
            err = abs(cpsi * cpsi + spsi * spsi - 1.0)
            consistency_worst = max(consistency_worst, err)
            if err > 1e-9:
                raise NumericalError(
                    "fixed-point phase inconsistency %.3e at Omega=%g, "
                    "rho=%g; the amplitude root is unreliable" % (err, Omega, rho))
            norm = np.hypot(cpsi, spsi)
            psi = float(np.arctan2(spsi / norm, cpsi / norm))
            J = stability_jacobian(rom, rho, Omega)
            tr = J[0, 0] + J[1, 1]
            det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
            stable = bool(tr < 0.0 and det > 0.0)
            peaks = physical_amplitude(manifold, rho, psi, dofs,
                                       nonaut=nonaut, eps=eps, eta=rom.eta)
            amps = dict(zip(dofs, peaks.tolist()))
            points.append({"Omega": float(Omega), "rho": rho, "psi": psi,
                           "stable": stable, "amp": amps})
    points.sort(key=lambda pt: (pt["Omega"], pt["rho"]))
    diag = {"consistency_worst": consistency_worst,
            "truncation": "order-eps response; amplitudes include the "
                          "time-periodic correction at that order"}
    return FrcResult(points, rom.eta, eps, dofs, rom, diag)


def _fmt(x):
    return "%.17g" % float(x)


def write_frc_csv(result, path):
    """CSV rows Omega,rho,psi,stable,amp_dof_<i>.. sorted by (Omega, rho)."""
    cols = ["Omega", "rho", "psi", "stable"] + \
        ["amp_dof_%d" % d for d in result.dofs]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for pt in result.points:
            row = [_fmt(pt["Omega"]), _fmt(pt["rho"]), _fmt(pt["psi"]),
                   "1" if pt["stable"] else "0"]
            row += [_fmt(pt["amp"][d]) for d in result.dofs]
            fh.write(",".join(row) + "\n")


def write_backbone_csv(curve, path):
    """CSV rows rho,omega,amp."""
    with open(path, "w") as fh:
        fh.write("rho,omega,amp_dof_%d\n" % curve.dof)
        for r, w, a in zip(curve.rho, curve.omega, curve.amp):
            fh.write("%s,%s,%s\n" % (_fmt(r), _fmt(w), _fmt(a)))


def write_frc_json(result, path):
    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_frc_svg(result, path, dof=None):
    """
    Self-contained response-curve plot, 640 by 420 pixels: amplitude of
    one state against forcing frequency, stable points filled, unstable
    points open.
    """
    width, height = 640, 420
    dof = result.dofs[0] if dof is None else state_index(dof)
    if dof not in result.dofs:
        raise ValidationError("dof %d is not among the swept dofs %s"
                              % (dof, result.dofs))
    xs = [pt["Omega"] for pt in result.points]
    ys = [pt["amp"][dof] for pt in result.points]
    if not xs:
        raise ValidationError("empty sweep; nothing to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(ys) * 1.08 or 1.0
    ml, mr, mt, mb = 62, 16, 16, 46
    pw, ph = width - ml - mr, height - mt - mb

    def sx(x):
        return ml + pw * ((x - x0) / (x1 - x0) if x1 > x0 else 0.5)

    def sy(y):
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<g stroke="#444" stroke-width="1" fill="none">',
        '<path d="M %.2f %.2f H %.2f"/>' % (ml, mt + ph, ml + pw),
        '<path d="M %.2f %.2f V %.2f"/>' % (ml, mt, mt + ph),
        '</g>',
    ]
    for k in range(5):
        xv = x0 + (x1 - x0) * k / 4 if x1 > x0 else x0
        yv = y0 + (y1 - y0) * k / 4
        parts.append('<text x="%.2f" y="%.2f" font-size="11" '
                     'text-anchor="middle" fill="#222">%.4g</text>'
                     % (sx(xv), mt + ph + 16, xv))
        parts.append('<text x="%.2f" y="%.2f" font-size="11" '
                     'text-anchor="end" fill="#222">%.4g</text>'
                     % (ml - 6, sy(yv) + 4, yv))
    parts.append('<text x="%.2f" y="%.2f" font-size="12" '
                 'text-anchor="middle" fill="#222">forcing frequency'
                 '</text>' % (ml + pw / 2, height - 10))
    parts.append('<text x="14" y="%.2f" font-size="12" fill="#222" '
                 'transform="rotate(-90 14 %.2f)" text-anchor="middle">'
                 'amplitude dof %d</text>' % (mt + ph / 2, mt + ph / 2, dof))
    for pt in result.points:
        cx, cy = sx(pt["Omega"]), sy(pt["amp"][dof])
        if pt["stable"]:
            parts.append('<circle cx="%.2f" cy="%.2f" r="2.6" '
                         'fill="#1f6fb4"/>' % (cx, cy))
        else:
            parts.append('<circle cx="%.2f" cy="%.2f" r="2.6" fill="none" '
                         'stroke="#c23b22" stroke-width="1.2"/>' % (cx, cy))
    parts.append('</svg>')
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
