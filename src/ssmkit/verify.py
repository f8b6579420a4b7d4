"""
Independent checks of a computed expansion.

The invariance residual

    r(p) = B . DW(p) . R(p) - A . W(p) - F(W(p))

vanishes identically for the exact manifold; a truncation at order
Gamma leaves r(p) = O(|p|^(Gamma+1)), or O(|p|^(Gamma+2)) when Gamma is
odd and the force law is odd (every block of odd degree), because every
even order of W vanishes then. Sampling r on shrinking spheres and
fitting the log-log slope therefore measures whether the computed
coefficients satisfy the equation to the claimed order, without reusing
any of the expansion machinery.

Full-model reference trajectories come from either an adaptive
explicit integrator or a fixed-step trapezoidal rule. The trapezoidal
rule is the natural companion for conservative checks because it
preserves quadratic invariants exactly and has no artificial damping.
"""

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .errors import NumericalError, ValidationError
from .model import as_first_order

__all__ = [
    "ResidualReport", "invariance_residual", "integrate_full",
    "steady_state_amplitude",
]


class ResidualReport:
    """
    Invariance residual decay measurement.

    Attributes
    ----------
    radii : (R,) float ndarray
        Sampling radii, ascending.
    residuals : (R,) float ndarray
        Largest residual 2-norm over the direction sample per radius.
    slope : float or None
        Fitted log-log decay rate (None when residuals sat at the
        floor, where a fit would measure noise).
    expected_order : int
        Truncation order Gamma of the expansion under test.
    decay_degree : int
        Degree of the first omitted term the model's parity allows:
        Gamma + 2 for an odd force law at odd Gamma, else Gamma + 1.
    passed : bool
        True when slope lies in ``band`` = decay_degree -+ 0.5 or all
        residuals are below the floor.
    """

    def __init__(self, radii, residuals, slope, expected_order,
                 decay_degree, floor, n_dirs, seed):
        self.radii = np.asarray(radii, dtype=float)
        self.residuals = np.asarray(residuals, dtype=float)
        self.slope = slope
        self.expected_order = int(expected_order)
        self.decay_degree = int(decay_degree)
        self.floor = float(floor)
        self.n_dirs = int(n_dirs)
        self.seed = int(seed)
        self.band = (self.decay_degree - 0.5, self.decay_degree + 0.5)
        at_floor = bool((self.residuals <= self.floor).all())
        in_band = (slope is not None
                   and self.band[0] <= slope <= self.band[1])
        self.at_floor = at_floor
        self.passed = at_floor or in_band

    def describe(self):
        lines = []
        for r, v in zip(self.radii, self.residuals):
            lines.append("radius %.6g: max residual %.6e" % (r, v))
        if self.slope is None:
            lines.append("slope: not fitted (residuals at floor %.1e)"
                         % self.floor)
        else:
            lines.append("fitted slope %.4f, expected band [%.1f, %.1f]"
                         % (self.slope, self.band[0], self.band[1]))
        lines.append("residual check %s"
                     % ("PASS" if self.passed else "FAIL"))
        return lines

    def to_dict(self):
        return {
            "kind": "residual-report",
            "radii": self.radii.tolist(),
            "residuals": self.residuals.tolist(),
            "slope": self.slope,
            "expected_order": self.expected_order,
            "band": list(self.band),
            "floor": self.floor,
            "n_dirs": self.n_dirs,
            "seed": self.seed,
            "at_floor": self.at_floor,
            "passed": self.passed,
        }


def _symmetric_directions(master, n_dirs, seed):
    """Random unit directions mapped to themselves by conjugation."""
    rng = np.random.default_rng(seed)
    M = master.dim
    pairing = master.pairing
    dirs = []
    for _ in range(n_dirs):
        p = np.zeros(M, dtype=complex)
        for j in range(M):
            if pairing[j] == j:
                p[j] = rng.standard_normal()
            elif pairing[j] > j:
                c = rng.standard_normal() + 1j * rng.standard_normal()
                p[j] = c
                p[pairing[j]] = np.conj(c)
        p /= la.norm(p)
        dirs.append(p)
    return dirs


def invariance_residual(manifold, radii, n_dirs=16, seed=0, floor=1e-11):
    """
    Measure how fast the invariance residual decays with radius.

    Parameters
    ----------
    manifold : ManifoldExpansion
        Must have its system attached.
    radii : sequence of float
        Sampling radii; every radius must lie in (0, 0.1]. The fit is
        only as honest as the radii: too large leaves higher-order
        terms dominant, too small drowns the signal in round-off.
    n_dirs : int, optional
        Conjugate-symmetric random directions per radius.
    seed : int, optional
        Seed for the direction sample (fixed default for repeatable
        reports).
    floor : float, optional
        Residual size treated as numerically zero.

    Returns
    -------
    ResidualReport
    """
    system = manifold.system
    if system is None:
        raise ValidationError(
            "the manifold has no system attached; residuals need A, B, F")
    radii = np.sort(np.asarray(radii, dtype=float).ravel())
    if radii.size < 1:
        raise ValidationError("need at least one radius")
    if (radii <= 0).any() or (radii > 0.1).any():
        raise ValidationError(
            "radii must lie in (0, 0.1]; the expansion is local and a "
            "slope fit outside that range does not measure the order")
    A, B = system.A, system.B
    dirs = _symmetric_directions(manifold.master, n_dirs, seed)
    res = np.zeros(radii.size)
    for k, r in enumerate(radii):
        worst = 0.0
        for d in dirs:
            p = r * d
            z = manifold.evaluate(p)
            lhs = B @ (manifold.tangent(p) @ manifold.reduced_rhs(p))
            rhs = A @ z + _f_eval_complex(system, z)
            worst = max(worst, float(la.norm(lhs - rhs)))
        res[k] = worst
    slope = None
    if (res > floor).any() and radii.size >= 2:
        mask = res > 0
        if mask.sum() >= 2:
            slope = float(np.polyfit(np.log(radii[mask]),
                                     np.log(res[mask]), 1)[0])
    # an odd force law makes every even order of W vanish, so at odd
    # order the first omitted nonzero term has degree order + 2
    odd = all(fc.degree % 2 == 1 for fc in system.F_coeffs)
    degree = manifold.order + (2 if odd and manifold.order % 2 else 1)
    return ResidualReport(radii, res, slope, manifold.order, degree, floor,
                          n_dirs, seed)


def _f_eval_complex(system, z):
    out = np.zeros(system.N, dtype=complex)
    for fc in system.F_coeffs:
        out = out + fc.evaluate(z)
    return out


def _b_solver(B):
    if sp.issparse(B):
        lu = spla.splu(B.tocsc())
        return lu.solve
    lu = la.lu_factor(B)
    return lambda v: la.lu_solve(lu, v)


def integrate_full(system, z0, t_span, Omega=None, method="adaptive",
                   dt=None, rtol=1e-8, atol=1e-10, t_eval=None,
                   newton_tol=1e-12, max_newton=50):
    """
    Integrate the full model B z' = A z + F(z) + eps Fext(Omega t).

    Parameters
    ----------
    system : FirstOrderSystem
    z0 : (N,) array_like
    t_span : (t0, t1)
    Omega : float or sequence, optional
        Forcing base frequencies; required when the system is forced
        with eps != 0.
    method : {"adaptive", "trapezoid"}, optional
        "adaptive" is an explicit Runge-Kutta pair with error control;
        "trapezoid" is the fixed-step implicit trapezoidal rule solved
        by Newton chord iterations with the constant matrix
        B - (h/2) A.
    dt : float, optional
        Step size, required for "trapezoid".
    t_eval : array_like, optional
        Output times ("adaptive" only).

    Returns
    -------
    dict with keys "t" ((n,) times) and "z" ((N, n) states).
    """
    system = as_first_order(system)
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.size != system.N:
        raise ValidationError("z0 has length %d, expected %d"
                              % (z0.size, system.N))
    forced = bool(system.forcing) and system.eps != 0.0
    if forced and Omega is None:
        raise ValidationError("the system is forced; pass Omega")
    Om = np.atleast_1d(np.asarray(Omega, dtype=float)) if forced else None
    A, B = system.A, system.B
    solveB = _b_solver(B)
    eps = system.eps

    def raw_rhs(t, z):
        g = A @ z + system.F_eval(z)
        if forced:
            g = g + eps * system.forcing_eval(Om * t)
        return g

    if method == "adaptive":
        sol = solve_ivp(lambda t, z: solveB(raw_rhs(t, z)), t_span, z0,
                        method="RK45", rtol=rtol, atol=atol, t_eval=t_eval)
        if not sol.success:
            raise NumericalError("integration failed: %s" % sol.message)
        return {"t": sol.t, "z": sol.y}

    if method != "trapezoid":
        raise ValidationError("method must be 'adaptive' or 'trapezoid'")
    if dt is None or dt <= 0:
        raise ValidationError("the trapezoidal rule needs a positive dt")
    t0, t1 = float(t_span[0]), float(t_span[1])
    n = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n
    if sp.issparse(A) or sp.issparse(B):
        J = (B - 0.5 * h * A).tocsc()
        solveJ = spla.splu(J).solve
    else:
        luJ = la.lu_factor(B - 0.5 * h * A)
        solveJ = lambda v: la.lu_solve(luJ, v)
    ts = t0 + h * np.arange(n + 1)
    zs = np.empty((system.N, n + 1))
    zs[:, 0] = z0
    z = z0.copy()
    for k in range(n):
        t, tn = ts[k], ts[k + 1]
        gk = raw_rhs(t, z)
        rhs_const = B @ z + 0.5 * h * gk
        znew = z + h * solveB(gk)
        for it in range(max_newton):
            G = B @ znew - 0.5 * h * raw_rhs(tn, znew) - rhs_const
            step = solveJ(G)
            znew = znew - step
            if la.norm(step) <= newton_tol * (1.0 + la.norm(znew)):
                break
        else:
            raise NumericalError(
                "trapezoidal Newton iteration stalled at t=%.6g; "
                "reduce dt" % tn)
        z = znew
        zs[:, k + 1] = z
    return {"t": ts, "z": zs}


def steady_state_amplitude(system, Omega, dof, n_transient=300,
                           n_window=20, tol=0.005, max_windows=30,
                           samples_per_period=64, z0=None,
                           rtol=1e-8, atol=1e-10):
    """
    Peak steady-state amplitude of one state under periodic forcing.

    Integrates through a transient, then compares the peak of
    ``|z[dof]|`` over successive windows of ``n_window`` periods until
    two windows agree to within ``tol`` relative.

    Parameters
    ----------
    system : FirstOrderSystem
        Forced, with scalar base frequency.
    Omega : float
    dof : int
        State index whose amplitude is reported.
    z0 : (N,) array_like, optional
        Start state; a good guess (for instance a point predicted by a
        reduced model) shortens the transient and selects among
        coexisting stable branches.

    Returns
    -------
    float
    """
    system = as_first_order(system)
    if not system.forcing or system.eps == 0.0:
        raise ValidationError("steady-state amplitude needs a forced system")
    Omega = float(Omega)
    if Omega <= 0:
        raise ValidationError("Omega must be positive")
    if not 0 <= int(dof) < system.N:
        raise ValidationError("dof %d outside the state dimension" % dof)
    T = 2.0 * np.pi / Omega
    z = (np.zeros(system.N) if z0 is None
         else np.asarray(z0, dtype=float).reshape(-1))
    t = 0.0
    if n_transient > 0:
        out = integrate_full(system, z, (t, t + n_transient * T),
                             Omega=Omega, rtol=rtol, atol=atol,
                             t_eval=[t + n_transient * T])
        z = out["z"][:, -1]
        t += n_transient * T
    prev = None
    for _ in range(max_windows):
        t_end = t + n_window * T
        t_eval = np.linspace(t, t_end, samples_per_period * n_window + 1)
        out = integrate_full(system, z, (t, t_end), Omega=Omega,
                             rtol=rtol, atol=atol, t_eval=t_eval)
        amp = float(np.abs(out["z"][int(dof)]).max())
        z = out["z"][:, -1]
        t = t_end
        if prev is not None and abs(amp - prev) <= tol * max(amp, 1e-300):
            return amp
        prev = amp
    raise NumericalError(
        "steady-state amplitude did not settle within %d windows; the "
        "response may be quasi-periodic or chaotic at Omega=%g"
        % (max_windows, Omega))
