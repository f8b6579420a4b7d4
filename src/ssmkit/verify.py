"""
Independent checks of a computed expansion.

The invariance residual

    r(p) = B . DW(p) . R(p) - A . W(p) - F(W(p))

vanishes identically for the exact manifold; a truncation at order
Gamma leaves r(p) = O(|p|^(Gamma+1)), or O(|p|^(Gamma+2)) when Gamma is
odd and the force law is odd (every block of odd degree), because every
even order of W vanishes then. Sampling r on shrinking spheres and
fitting the log-log slope of the residuals above a rounding floor
(below it they measure rounding) therefore measures whether the
computed coefficients satisfy the equation to the claimed order,
without reusing any of the expansion machinery.

The floor is worked out per radius from the run itself, by running
error analysis (Higham, Accuracy and Stability of Numerical Algorithms,
SIAM 2002, ch. 3): at leading order W(p) = V p and DW(p) R(p) = V L p,
with L the master eigenvalues, so the three terms of r(p) round to at
most

    eps * [ |B| |V L p| + |A| |V p| + sum_j |F_j|(|V p|) ]

in norm, with |B|, |A| the infinity norms and |F_j| the degree-j
piece with absolute coefficients. ``MARGIN`` times the largest such
bound over the direction sample is the floor at that radius.

Full-model reference trajectories come from either the adaptive
explicit Runge-Kutta pair of order 8(5,3), DOP853 (Hairer, Norsett &
Wanner, Solving ODEs I, 1993), or a fixed-step trapezoidal rule. The
steady-state oracle uses the explicit pair: on the forced 10-mass chain
at its tolerances (rtol 1e-8, atol 1e-10) it needs 40 % fewer
right-hand sides than the 5(4) pair RK45. The trapezoidal
rule is the natural companion for stiff models and conservative checks,
because it preserves quadratic invariants exactly and has no artificial
damping.

The adaptive path factors B once per call and stacks, whatever A's
storage, one CSR operator

    H = [A | F_2 | F_3 ... | eps Re f_kappa | -eps Im f_kappa]

with each F_j over its distinct sorted monomials, so that every
right-hand side is one product H u, u = [z; monomials of z;
cos(<kappa, Omega> t); sin(<kappa, Omega> t)], and one solve with B.
On models the size of the forced chain a right-hand side costs a few
microseconds, so the count of small numpy calls, not the arithmetic,
sets its time. The trapezoidal path factors only its Newton matrix
B - (h/2) A, once per call, and never solves with B. That matrix is
(h/2) (sigma B - A) at the real shift sigma = 2/h, so it is factored
by ``model.shifted_solver``: on the real N/2 matrix
sigma^2 M + sigma C + K for a lifted mechanical model.
"""

import numbers

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse._sparsetools import csr_matvec

from .errors import NumericalError, ValidationError
from .model import as_first_order, factorize, shifted_solver

__all__ = [
    "ResidualReport", "invariance_residual", "integrate_full",
    "steady_state_amplitude",
]

# A residual counts as truncation once it exceeds MARGIN times its
# rounding estimate, and a slope fit needs two such residuals. On the
# benchmark's models the ratio of residual to estimate is at most 7.6
# where rounding dominates (the order-7 chain at r = 0.1; the FE bar at
# n = 10^4 and 10^5, at most 0.7), and at least 103 at the two largest
# radii where truncation dominates (the n = 1500 bar at r = 0.0631).
# A MARGIN inside that window keeps those verdicts off a single radius.
MARGIN = 30.0

# steady_state_amplitude's DOP853 tolerances, windows allowed and output
# samples per period
STEADY_RTOL, STEADY_ATOL = 1e-8, 1e-10
STEADY_MAX_WINDOWS, STEADY_SAMPLES = 30, 64


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
        Log-log decay rate fitted to the residuals above ``floor`` only
        (None when fewer than two lie above it): below the floor a
        residual measures rounding, not truncation.
    floor : (R,) float ndarray
        Rounding floor per radius: ``MARGIN`` times the leading-order
        running-error bound of the residual (see the module docstring).
    expected_order : int
        Truncation order Gamma of the expansion under test.
    decay_degree : int
        Degree of the first omitted term the model's parity allows:
        Gamma + 2 for an odd force law at odd Gamma, else Gamma + 1.
    passed : bool
        True when slope lies in ``band`` = decay_degree -+ 0.5 or every
        residual is at or below its floor (``at_floor``).
    """

    def __init__(self, radii, residuals, slope, expected_order,
                 decay_degree, floor, n_dirs, seed):
        self.radii = np.asarray(radii, dtype=float)
        self.residuals = np.asarray(residuals, dtype=float)
        self.slope = slope
        self.expected_order = int(expected_order)
        self.decay_degree = int(decay_degree)
        self.floor = np.asarray(floor, dtype=float)
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
        for r, v, f in zip(self.radii, self.residuals, self.floor):
            lines.append("radius %.6g: max residual %.6e, floor %.1e"
                         % (r, v, f))
        if self.slope is None and self.at_floor:
            lines.append("slope: not fitted (every residual at its floor)")
        elif self.slope is None:
            lines.append("slope: not fitted (one residual above its "
                         "floor, a fit needs two)")
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
            "floor": self.floor.tolist(),
            "n_dirs": self.n_dirs,
            "seed": self.seed,
            "at_floor": self.at_floor,
            "passed": self.passed,
        }


def _symmetric_directions(master, n_dirs, seed):
    """Conjugation-invariant random unit directions, columns of (M, n)."""
    rng = np.random.default_rng(seed)
    M = master.dim
    pairing = master.pairing
    dirs = np.zeros((M, n_dirs), dtype=complex)
    for d in dirs.T:
        for j in range(M):
            if pairing[j] == j:
                d[j] = rng.standard_normal()
            elif pairing[j] > j:
                c = rng.standard_normal() + 1j * rng.standard_normal()
                d[j] = c
                d[pairing[j]] = np.conj(c)
        d /= la.norm(d)
    return dirs


def _rounding_floor(system, master, dirs, radii):
    """``MARGIN`` times the leading-order rounding bound of the residual
    at each radius, the largest over the directions (columns of dirs)."""
    norm_A, norm_B = system.inf_norms
    Vd = master.V @ dirs
    VLd = master.V @ (master.lambdas[:, None] * dirs)
    bound = np.outer(radii, norm_B * la.norm(VLd, axis=0)
                     + norm_A * la.norm(Vd, axis=0))
    absVd = np.abs(Vd)
    for fc in system.F_coeffs:
        bound += np.outer(radii**fc.degree,
                          la.norm(fc.absolute().evaluate(absVd), axis=0))
    return MARGIN * np.finfo(float).eps * bound.max(axis=1)


def invariance_residual(manifold, radii, n_dirs=16, seed=0):
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
        Conjugate-symmetric random directions per radius (>= 1).
    seed : int, optional
        Seed for the direction sample (fixed default for repeatable
        reports).

    The slope is fitted to the residuals above the rounding floor that
    the module docstring derives, one per radius.

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
    if not isinstance(n_dirs, numbers.Integral) or n_dirs < 1:
        raise ValidationError("n_dirs must be an integer >= 1, got %r"
                              % (n_dirs,))
    A, B = system.A, system.B
    dirs = _symmetric_directions(manifold.master, n_dirs, seed)
    res = np.zeros(radii.size)
    for k, r in enumerate(radii):
        # every direction of a radius in one batch, columns of P
        P = r * dirs
        Z = manifold.evaluate(P)
        lhs = B @ manifold.derivative(P, manifold.reduced_rhs(P))
        rhs = A @ Z + system.F_eval(Z)
        res[k] = float(la.norm(lhs - rhs, axis=0).max())
    # residuals at or below the floor measure rounding, not truncation
    floor = _rounding_floor(system, manifold.master, dirs, radii)
    above = res > floor
    slope = None
    if above.sum() >= 2:
        slope = float(np.polyfit(np.log(radii[above]),
                                 np.log(res[above]), 1)[0])
    # an odd force law makes every even order of W vanish, so at odd
    # order the first omitted nonzero term has degree order + 2
    odd = all(fc.degree % 2 == 1 for fc in system.F_coeffs)
    degree = manifold.order + (2 if odd and manifold.order % 2 else 1)
    return ResidualReport(radii, res, slope, manifold.order, degree, floor,
                          n_dirs, seed)


def _adaptive_rhs(system, Om):
    """
    ``rhs(t, z) = B^-1 (A z + F(z) + eps Fext(Om t))`` of the adaptive
    path through the stacked operator H of the module docstring, built
    once (no forcing columns when ``Om`` is None). Each F_j block is
    ``PolyCoeffs.monomials``, its entries in storage order and not
    folded, so each row of H sums A's entries, then each piece's as
    ``evaluate`` does, then the forcing's.
    """
    N = system.N
    # A, each F_j and the forcing as CSR blocks over their own columns,
    # and the gather table of A's and F's columns: row s holds the s-th
    # factor of a column's monomial, and z's own columns and shorter
    # monomials point their missing factors at a trailing 1
    A = sp.csr_matrix(system.A)
    tables = [np.arange(N)[None]]
    blocks = [(A.indptr, A.indices, A.data)]
    for fc in system.F_coeffs:
        tuples, *csr = fc.monomials
        tables.append(tuples)
        blocks.append(csr)
    depth = max(tuples.shape[0] for tuples in tables)
    factors = np.hstack([np.pad(tuples, ((0, depth - tuples.shape[0]), (0, 0)),
                                constant_values=N) for tuples in tables])
    width = factors.shape[1]
    rates = np.zeros(0)
    if Om is not None:
        rates = np.array([kt for kt, _ in system.forcing], float) @ Om
        vectors = system.eps * np.array([vec for _, vec in system.forcing]).T
        Fext = sp.csr_matrix(np.hstack([vectors.real, -vectors.imag]))
        blocks.append((Fext.indptr, Fext.indices, Fext.data))
    # the blocks side by side, each row's entries block by block and
    # each block's in its stored order
    offsets = np.cumsum([0] + [tuples.shape[1] for tuples in tables])
    rows = np.concatenate([np.repeat(np.arange(N), np.diff(indptr))
                           for indptr, _, _ in blocks])
    order = np.argsort(rows, kind="stable")
    indices = np.concatenate([index.astype(np.int64) + offset for
                              (_, index, _), offset in zip(blocks, offsets)])
    data = np.concatenate([values for _, _, values in blocks])
    indices, data = indices[order], data.astype(float)[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=N))])
    solveB = factorize(system.B)[0]
    padded = np.ones(N + 1)
    u = np.empty(width + 2 * rates.size)
    monomials, cos, sin = np.split(u, [width, width + rates.size])

    def rhs(t, z):
        padded[:N] = z
        # left to right down each column, as evaluate multiplies
        np.multiply.reduce(padded[factors], axis=0, out=monomials)
        phase = rates * t
        np.cos(phase, out=cos)
        np.sin(phase, out=sin)
        g = np.zeros(N)
        csr_matvec(N, u.size, indptr, indices, data, u, g)
        return solveB(g)

    return rhs


def integrate_full(system, z0, t_span, Omega=None, method="adaptive",
                   dt=None, rtol=1e-8, atol=1e-10, t_eval=None,
                   newton_tol=1e-12, max_newton=50):
    """
    Integrate the full model B z' = A z + F(z) + eps Fext(Omega t).

    Parameters
    ----------
    system : FirstOrderSystem
    z0 : (N,) array_like
        Start state, real: a complex dtype is accepted when every
        imaginary part is zero.
    t_span : (t0, t1)
    Omega : float or sequence, optional
        Forcing base frequencies, one per entry of the harmonic labels;
        required when the system is forced with eps != 0.
    method : {"adaptive", "trapezoid"}, optional
        "adaptive" is the explicit Runge-Kutta pair of order 8(5,3)
        (DOP853 of Hairer, Norsett & Wanner) with error control. Once
        per call, B is factored and A, the F pieces and the forcing
        vectors are stacked side by side into one CSR operator, whatever
        A's storage; every right-hand side is then one product of that
        operator with z, its monomials and the cosines and sines of the
        forcing phases, and one solve with B's factors.
        "trapezoid" is the fixed-step implicit trapezoidal rule, solved
        by chord Newton iterations with the constant matrix
        B - (h/2) A = (h/2) (sigma B - A), sigma = 2/h, factored once
        per call by ``model.shifted_solver``; it never factors or solves
        with B.
    dt : float, optional
        Step size, required for "trapezoid"; the span is split into
        the nearest whole number of equal steps h.
    rtol, atol : float, optional
        Error tolerances of "adaptive".
    t_eval : array_like, optional
        Output times ("adaptive" only; "trapezoid" returns every step
        and rejects ``t_eval``).
    newton_tol : float, optional
        Relative tolerance of the chord iteration ("trapezoid" only):
        with Newton step Delta_k, the iteration stops once
        ``|Delta_k| <= newton_tol * (1 + |z|)``, or once the estimate
        ``theta_k / (1 - theta_k) * |Delta_k|`` of the remaining error
        is within that bound, where the contraction rate
        ``theta_k = |Delta_k| / |Delta_(k-1)|`` is below 1 (Hairer &
        Wanner, Solving ODEs II, 1996, section IV.8).
    max_newton : int, optional
        Chord iterations allowed per step ("trapezoid" only); a step
        that needs more raises NumericalError.

    Each trapezoidal step, scaled by ``sigma = 2/h``, solves
    ``(sigma B - A) z - F(z) = (sigma B + A) z_k + F(z_k) + f_k + f_(k+1)``
    with ``f_k = eps Fext(Omega t_k)``, starting from the linear
    extrapolation ``2 z_k - z_(k-1)`` (``z_0`` on the first step).

    Returns
    -------
    dict with keys "t" ((n,) times) and "z" ((N, n) states);
    "trapezoid" adds "newton_iterations", the chord iterations summed
    over all steps.
    """
    system = as_first_order(system)
    z0 = np.asarray(z0).reshape(-1)
    if z0.size != system.N:
        raise ValidationError("z0 has length %d, expected %d"
                              % (z0.size, system.N))
    if np.iscomplexobj(z0):
        # as for the model's nonlinearity: a cast to real would drop
        # nonzero imaginary parts with only a warning
        if np.any(z0.imag != 0):
            raise ValidationError(
                "z0 has nonzero imaginary parts; the state must be real")
        z0 = z0.real
    z0 = z0.astype(float)
    if method not in ("adaptive", "trapezoid"):
        raise ValidationError("method must be 'adaptive' or 'trapezoid'")
    t0, t1 = (float(t) for t in t_span)
    if not np.isfinite([t0, t1]).all():
        # DOP853 never reaches a NaN end and steps on without end
        raise ValidationError("t_span must hold two finite times")
    forced = bool(system.forcing) and system.eps != 0.0
    if forced and Omega is None:
        raise ValidationError("the system is forced; pass Omega")
    Om = np.asarray(Omega, dtype=float).ravel() if forced else None
    if forced and Om.size != system.nfreq:
        raise ValidationError(
            "Omega has %d frequencies; the forcing labels expect %d"
            % (Om.size, system.nfreq))
    if forced and not np.isfinite(Om).all():
        raise ValidationError("Omega must be finite")

    if method == "adaptive":
        sol = solve_ivp(_adaptive_rhs(system, Om), (t0, t1), z0,
                        method="DOP853", rtol=rtol, atol=atol, t_eval=t_eval)
        if not sol.success:
            raise NumericalError("integration failed: %s" % sol.message)
        return {"t": sol.t, "z": sol.y}

    if t_eval is not None:
        raise ValidationError(
            "the trapezoidal rule returns every step and takes no t_eval; "
            "choose dt so the steps land on the wanted times")
    if dt is None or not dt > 0:
        raise ValidationError("the trapezoidal rule needs a positive dt")
    n = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n
    A, B = system.A, system.B
    eps = system.eps

    def forcing(t):
        return eps * system.forcing_eval(Om * t) if forced else 0.0

    sigma = 2.0 / h
    J = sigma * B - A
    P = sigma * B + A
    solve = shifted_solver(system, sigma)
    ts = t0 + h * np.arange(n + 1)
    zs = np.empty((system.N, n + 1))
    zs[:, 0] = z0
    z, z_prev = z0, z0
    f = forcing(ts[0])
    iterations = 0
    for k in range(n):
        f_next = forcing(ts[k + 1])
        c = P @ z + system.F_eval(z) + f + f_next
        znew = 2.0 * z - z_prev
        size_prev = None
        for it in range(max_newton):
            step = solve(J @ znew - system.F_eval(znew) - c)
            znew = znew - step
            size = np.linalg.norm(step)
            bound = newton_tol * (1.0 + np.linalg.norm(znew))
            if size <= bound:
                break
            if size_prev is not None and size < size_prev:
                theta = size / size_prev
                if theta / (1.0 - theta) * size <= bound:
                    break
            size_prev = size
        else:
            raise NumericalError(
                "trapezoidal Newton iteration stalled at t=%.6g; "
                "reduce dt" % ts[k + 1])
        iterations += it + 1
        z_prev, z, f = z, znew, f_next
        zs[:, k + 1] = z
    return {"t": ts, "z": zs, "newton_iterations": iterations}


def steady_state_amplitude(system, Omega, dof, n_transient=300,
                           n_window=20, tol=0.005, z0=None):
    """
    Peak steady-state amplitude of one state under periodic forcing.

    Integrates through a transient, then compares the peak of
    ``|z[dof]|`` over successive windows of ``n_window`` periods until
    two windows agree to within ``tol`` relative, for at most
    ``STEADY_MAX_WINDOWS`` windows sampled ``STEADY_SAMPLES`` times per
    period. Every stretch is one adaptive (DOP853) ``integrate_full``
    call at ``STEADY_RTOL`` and ``STEADY_ATOL``.

    Parameters
    ----------
    system : FirstOrderSystem
        Forced, with scalar base frequency.
    Omega : float
    dof : int
        State index whose amplitude is reported; an integer, since a
        fractional index names no state.
    n_transient : int, optional
        Periods integrated before the first window (>= 0).
    n_window : int, optional
        Periods per window (>= 1).
    tol : float, optional
        Relative agreement of two successive window peaks (> 0).
    z0 : (N,) array_like, optional
        Start state; a good guess (for instance a point predicted by a
        reduced model) shortens the transient and selects among
        coexisting stable branches. A complex dtype is accepted when
        every imaginary part is zero.

    Returns
    -------
    float
    """
    system = as_first_order(system)
    if not system.forcing or system.eps == 0.0:
        raise ValidationError("steady-state amplitude needs a forced system")
    Omega = float(Omega)
    if not 0 < Omega < np.inf:
        # a NaN period would send the integrator into an endless loop
        raise ValidationError("Omega must be positive and finite")
    if not isinstance(dof, numbers.Integral):
        raise ValidationError("dof must be an integer state index, got %r"
                              % (dof,))
    if not 0 <= dof < system.N:
        raise ValidationError("dof %d outside the state dimension" % dof)
    for name, count, least in (("n_transient", n_transient, 0),
                               ("n_window", n_window, 1)):
        if not isinstance(count, numbers.Integral) or count < least:
            raise ValidationError("%s must be an integer >= %d, got %r"
                                  % (name, least, count))
    if not (isinstance(tol, numbers.Real) and tol > 0):
        raise ValidationError("tol must be positive, got %r" % (tol,))
    T = 2.0 * np.pi / Omega
    # integrate_full checks z0's length and that it is real
    z = np.zeros(system.N) if z0 is None else z0
    t = 0.0
    if n_transient > 0:
        out = integrate_full(system, z, (t, t + n_transient * T),
                             Omega=Omega, rtol=STEADY_RTOL,
                             atol=STEADY_ATOL, t_eval=[t + n_transient * T])
        z = out["z"][:, -1]
        t += n_transient * T
    prev = None
    for _ in range(STEADY_MAX_WINDOWS):
        t_end = t + n_window * T
        t_eval = np.linspace(t, t_end, STEADY_SAMPLES * n_window + 1)
        out = integrate_full(system, z, (t, t_end), Omega=Omega,
                             rtol=STEADY_RTOL, atol=STEADY_ATOL,
                             t_eval=t_eval)
        amp = float(np.abs(out["z"][dof]).max())
        z = out["z"][:, -1]
        t = t_end
        if prev is not None and abs(amp - prev) <= tol * max(amp, 1e-300):
            return amp
        prev = amp
    raise NumericalError(
        "steady-state amplitude did not settle within %d windows; the "
        "response may be quasi-periodic or chaotic at Omega=%g"
        % (STEADY_MAX_WINDOWS, Omega))
