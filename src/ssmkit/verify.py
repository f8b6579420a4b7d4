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

The adaptive path stacks, once per call and whatever A's storage, one
CSR operator

    H = [A | 0 | F_2 | F_3 ... | eps Re f_kappa | -eps Im f_kappa]

with each F_j over its distinct sorted monomials, so that every
right-hand side is one product H u,
u = [z; 1; monomials of z; cos(<kappa, Omega> t); sin(<kappa, Omega> t)];
the monomials are gathered from u[:N+1] itself, the 1 standing in for
the missing factors of shorter ones. A B with nonzeros only on its
diagonal, as the lift diag(I, M) of a lumped-mass model, divides H's
rows once and takes no solve (B = I leaves H's bits); any other B is
factored once per call. On models the size of the forced chain a
right-hand side costs a few microseconds, so the count of small numpy
calls, not the arithmetic, sets its time. DOP853 is therefore stepped
in house: the algorithm of scipy's ``solve_ivp(method="DOP853")``,
whose steps, right-hand sides and rounding it repeats bit for bit,
without its per-call wrappers and copies. Each of a step attempt's 16
stages has its own u, a row of one buffer, and the forcing phases of
all 16 are written into their cosine and sine columns in place, once
per attempt. One stage loop then runs over tuples built once per call,
with no Python call of its own: a stage forms its state
y + (sum_j a_sj K_j) h in place, gathers the monomials, makes one
``csr_matvec`` straight into K_s and, only for a B that is not
diagonal, solves with B. The error norm and the dense output go
through buffers allocated once per call too. The state keeps scipy's
rounding because DOP853's error estimate cancels down to about rtol of
the stages it combines: the one-product form [1, h a_s] . [y; K_0; ...]
saves two calls a stage, but it moved the step sizes of a cubic test
system by up to 4e-8 relative at rtol 1e-8.
The trapezoidal path factors only its Newton matrix
B - (h/2) A = (h/2) (sigma B - A), sigma = 2/h, once per call through
``model.factorize_near``, refusing a dt at which it is exactly singular
whatever the storage, and never solves with B. Its chord iteration runs
on the unknown of ``model.reduced_shifted``: for a lifted mechanical
model the displacements x, with the N/2 matrix sigma^2 M + sigma C + K
and ``model.reduced_force``'s -f(x). Each iterate is measured on the whole
state [x; sigma x - c_x], so the stop decisions are those of the
iteration on sigma B - A in exact arithmetic. Each step starts from the
quadratic extrapolation 3 z_k - 3 z_(k-1) + z_(k-2) (Hairer & Wanner,
Solving ODEs II, section IV.8): over one period of the forced 10-mass
chain in 64 steps it took 128 chord iterations where the linear one
took 150.
"""

import bisect
import math
import numbers

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.integrate import DOP853
from scipy.sparse._sparsetools import csr_matvec

from .errors import NumericalError, ValidationError, as_index
from .model import as_first_order, factorize, factorize_near, reduced_force
from .spectrum import state_index

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


def _count(value, name, least):
    """``value`` as an int of at least ``least`` (:func:`as_index`)."""
    count = as_index(value, name)
    if count < least:
        raise ValidationError("%s must be an integer >= %d, got %r"
                              % (name, least, value))
    return count


def _refuse_bools(value, name):
    """ValidationError when ``value`` is a bool or holds one: a
    real-valued argument does not read True as 1.0, as
    ``model.finite_eps`` refuses a bool eps. An array is judged by its
    dtype, a scalar or sequence entry by entry."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        bools = value.dtype == bool
    else:
        bools = any(isinstance(v, (bool, np.bool_))
                    for v in np.asarray(value, dtype=object).ravel())
    if bools:
        raise ValidationError("%s takes real numbers, not bools; got %r"
                              % (name, value))


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
        Seed for the direction sample, an integer >= 0 (fixed default
        for repeatable reports).

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
    n_dirs = _count(n_dirs, "n_dirs", 1)
    seed = _count(seed, "seed", 0)
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
    The stacked operator H of the module docstring, built once (no
    forcing columns when ``Om`` is None), over one buffer u = [z; 1;
    monomials; cos; sin] per stage of :func:`_dop853`, the extra stages
    of its dense output included, the rows of one array. Returns
    ``(states, trig, rates, rhs)``: ``states[s]`` and ``trig[s]`` are
    views of row s's z and of its cosines then sines of ``rates * t``
    (a row of :func:`_trig`), and ``rhs(s, out)`` writes ``B^-1 H u_s =
    B^-1 (A z + F(z) + eps Fext(Om t))`` into ``out``, which must hold
    zeros: ``csr_matvec`` adds into it. ``rhs.kernel`` is what ``rhs``
    runs, for :func:`_dop853` to run inline in its stage loop:
    ``(plans, factors, matrix, solveB)``, with ``plans[s]`` row s and
    the view of its monomials, ``factors`` the gather table,
    ``matrix`` the leading arguments of ``csr_matvec`` and ``solveB``
    None or B's solve. When B has nonzeros only on its diagonal, as
    every lifted lumped-mass model's, H's rows are divided by that
    diagonal once and no solve is made; B = I leaves H's bits.
    Each F_j block is ``PolyCoeffs.monomials``, its entries in storage
    order and not folded, so each row of H sums A's entries, then each
    piece's as ``evaluate`` does, then the forcing's.
    """
    N = system.N
    # A, each F_j and the forcing as CSR blocks over their own columns,
    # and the gather table of F's columns: row s holds the s-th factor
    # of a column's monomial, and shorter monomials point their missing
    # factors at u's 1
    A = sp.csr_matrix(system.A)
    tables, blocks = [], [(A.indptr, A.indices, A.data)]
    for fc in system.F_coeffs:
        tuples, *csr = fc.monomials
        tables.append(tuples)
        blocks.append(csr)
    widths = [tuples.shape[1] for tuples in tables]
    width = sum(widths)
    depth = max([1] + [len(tuples) for tuples in tables])
    factors = np.full((depth, width), N)
    for tuples, start in zip(tables, np.cumsum([0] + widths)):
        factors[:len(tuples), start:start + tuples.shape[1]] = tuples
    rates = np.zeros(0)
    if Om is not None:
        rates = np.array([kt for kt, _ in system.forcing], float) @ Om
        vectors = system.eps * np.array([vec for _, vec in system.forcing]).T
        Fext = sp.csr_matrix(np.hstack([vectors.real, -vectors.imag]))
        blocks.append((Fext.indptr, Fext.indices, Fext.data))
    # the blocks side by side, each row's entries block by block and
    # each block's in its stored order; A's columns are z's, then u's 1
    offsets = np.cumsum([0, N + 1] + widths)
    rows = np.concatenate([np.repeat(np.arange(N), np.diff(indptr))
                           for indptr, _, _ in blocks])
    order = np.argsort(rows, kind="stable")
    indices = np.concatenate([index.astype(np.int64) + offset for
                              (_, index, _), offset in zip(blocks, offsets)])
    data = np.concatenate([values for _, _, values in blocks])
    indices, data = indices[order], data.astype(float)[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=N))])
    B = system.B
    diagonal = B.diagonal()
    nnz = B.count_nonzero() if sp.issparse(B) else np.count_nonzero(B)
    solveB = None
    if nnz == np.count_nonzero(diagonal):
        data /= diagonal[rows[order]]
    else:
        solveB = factorize(B)[0]
    U = np.ones((DOP853.n_stages + 4, N + 1 + width + 2 * rates.size))
    plans = [(u, u[N + 1:N + 1 + width]) for u in U]
    matrix = (N, U.shape[1], indptr, indices, data)

    def rhs(s, out):
        u, monomials = plans[s]
        # left to right down each column, as evaluate multiplies
        np.multiply.reduce(u[factors], axis=0, out=monomials)
        csr_matvec(*matrix, u, out)
        if solveB is not None:
            out[:] = solveB(out)

    rhs.kernel = plans, factors, matrix, solveB
    return U[:, :N], U[:, N + 1 + width:], rates, rhs


def _trig(rates, t):
    """Cosines then sines of the forcing phases ``rates * t``, one row
    per time of ``t`` (a scalar gives one row as a 1-D array)."""
    phase = np.multiply.outer(t, rates)
    return np.concatenate([np.cos(phase), np.sin(phase)], axis=-1)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _norm(x):
    """``np.linalg.norm(x)`` of a real vector, with its bits and without
    its per-call checks."""
    return math.sqrt(x.dot(x))


def _dop853(system, Om, z0, t0, t1, t_eval, rtol, atol):
    """
    DOP853 from t0 to t1 > t0 on the stacked operator, step for step
    and bit for bit scipy's ``solve_ivp(method="DOP853")``: its tableau
    (the public attributes of ``scipy.integrate.DOP853``), step-size
    controller, initial step and error norm, and its 7th-degree dense
    output, whose three extra stages run only on steps that hold a time
    of ``t_eval`` (Hairer, Norsett & Wanner, Solving ODEs I, 1993,
    sections II.4 to II.6). One stage loop runs both a step attempt's
    stages and the dense output's extra ones, over tuples and buffers
    built once per call: each stage's state ``y + (sum_j a_sj K_j) h``
    is formed in place in its own row of the u buffer, rounded as scipy
    rounds it, and ``rhs.kernel`` of :func:`_adaptive_rhs` is run
    inline to write its right-hand side into K_s. The forcing phases of
    all 16 stages are written into their trig columns once per step
    attempt, and the controller's scalars are Python floats. Returns
    ``(t, z, right-hand sides evaluated)``.
    """
    n = DOP853.n_stages
    # rows of a: 1 to n - 1 the stages, n the solution at t + h, the
    # last three the extra stages of the dense output; c holds their
    # times in units of h
    a = np.zeros((n + 4, n + 4))
    a[:n, :n] = DOP853.A
    a[n, :n] = DOP853.B
    a[n + 1:] = DOP853.A_EXTRA
    c = np.concatenate([DOP853.C, [1.0], DOP853.C_EXTRA])
    exponent = -1.0 / 8.0  # the error estimate's order is 7
    states, trigs, rates, rhs = _adaptive_rhs(system, Om)
    plans, factors, (N, size, indptr, indices, data), solveB = rhs.kernel
    y = np.empty(N)
    K = np.zeros((n + 4, N))
    # stage s weighs K_0 ... K_(s-1) by a[s, :s] into its z, a view of
    # its u, and writes K_s
    stages = [(a[s, :s], K[:s], states[s], *plans[s], K[s])
              for s in range(n + 4)]
    attempt, extra = stages[1:n + 1], stages[n + 1:]
    ynew, Kn = states[n], K[:n + 1]
    # h for the in-place scale; the times t + c h of the 16 stages and
    # their phases, written into the cosine then sine columns of trigs
    hh = np.empty(())
    times, phase = np.empty(n + 4), np.empty((n + 4, rates.size))
    cos, sin = trigs[:, :rates.size], trigs[:, rates.size:]
    scale, err, two = np.empty(N), np.empty(N), np.empty(N)
    F = np.empty((7, N))

    def run_stages(group):
        for weights, previous, z, u, monomials, k in group:
            np.dot(weights, previous, out=z)
            np.multiply(z, hh, out=z)
            np.add(z, y, out=z)
            # left to right down each column, as evaluate multiplies
            np.multiply.reduce(u[factors], axis=0, out=monomials)
            csr_matvec(N, size, indptr, indices, data, u, k)
            if solveB is not None:
                k[:] = solveB(k)

    def square_norm(weights):
        """``np.linalg.norm((weights . K) / scale) ** 2``, rounded as
        that rounds it."""
        np.dot(weights, Kn, out=err)
        np.divide(err, scale, out=err)
        return math.sqrt(err.dot(err)) ** 2

    y[:] = z0
    states[0] = z0
    trigs[0] = _trig(rates, t0)
    rhs(0, K[0])
    # scipy's initial step (Solving ODEs I, section II.4)
    scale0 = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale0), _rms(K[0] / scale0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t1 - t0)
    states[1] = y + h0 * K[0]
    trigs[1] = _trig(rates, t0 + h0)
    rhs(1, K[1])
    d2 = _rms((K[1] - K[0]) / scale0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = float(min(100 * h0, h1, t1 - t0))
    nfev = 2

    if t_eval is None:
        ts, zs = [t0], [z0.copy()]
    else:
        ts, zs = t_eval, np.empty((t_eval.size, N))
        ends = t_eval.tolist()
        done = 0
    t = t0
    while t < t1:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalError(
                    "integration failed at t=%.17g: the step fell below "
                    "10 ulps of t" % t)
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            hh[()] = h
            np.multiply(c, hh, out=times)
            np.add(times, t, out=times)
            np.multiply.outer(times, rates, out=phase)
            np.cos(phase, out=cos)
            np.sin(phase, out=sin)
            K[1:] = 0.0
            run_stages(attempt)
            nfev += n
            np.abs(y, out=scale)
            np.abs(ynew, out=err)
            np.maximum(scale, err, out=scale)
            np.multiply(scale, rtol, out=scale)
            np.add(scale, atol, out=scale)
            err5 = square_norm(DOP853.E5)
            err3 = square_norm(DOP853.E3)
            error_norm = 0.0
            if err5 != 0 or err3 != 0:
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * N)
            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(
                    10.0, 0.9 * error_norm ** exponent)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** exponent)
            rejected = True

        t_old, t = t, t_new
        if t_eval is None:
            ts.append(t)
            zs.append(ynew.copy())
        else:
            upto = bisect.bisect_right(ends, t, lo=done)
            if upto > done:
                run_stages(extra)
                nfev += 3
                np.subtract(ynew, y, out=F[0])
                np.multiply(K[0], hh, out=F[1])
                np.subtract(F[1], F[0], out=F[1])
                np.add(K[n], K[0], out=F[2])
                np.multiply(F[2], hh, out=F[2])
                np.multiply(F[0], 2, out=two)
                np.subtract(two, F[2], out=F[2])
                np.dot(DOP853.D, K, out=F[3:])
                np.multiply(F[3:], hh, out=F[3:])
                x = ((t_eval[done:upto] - t_old) / h)[:, None]
                rest = 1 - x
                out = zs[done:upto]
                out[:] = 0.0
                for i, row in enumerate(F[::-1]):
                    out += row
                    out *= x if i % 2 == 0 else rest
                out += y
                done = upto
        y[:] = ynew
        K[0] = K[n]
    return np.array(ts, dtype=float), np.asarray(zs).T, nfev


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
        Finite start and end times, t0 < t1. Neither, nor any entry of
        Omega or t_eval, nor dt, rtol, atol or newton_tol, may be a bool.
    Omega : float or sequence, optional
        Forcing base frequencies, one per entry of the harmonic labels;
        required when the system is forced with eps != 0.
    method : {"adaptive", "trapezoid"}, optional
        "adaptive" is the explicit Runge-Kutta pair of order 8(5,3)
        (DOP853 of Hairer, Norsett & Wanner) with error control, stepped
        in house with the steps, right-hand sides and rounding of
        scipy's ``solve_ivp(method="DOP853")``. Once per call, A, the F
        pieces and the forcing vectors are stacked side by side into
        one CSR operator, whatever A's storage, and its rows are divided
        by B's diagonal when B has no other nonzeros, as the lift of a
        lumped-mass model; any other B is factored. Every right-hand
        side is then one product of that operator with z, its monomials
        and the cosines and sines of the forcing phases, written
        straight into its stage, and one solve with B's factors only
        for a non-diagonal B. It integrates forward only.
        "trapezoid" is the fixed-step implicit trapezoidal rule, solved
        by chord Newton iterations with the constant matrix
        B - (h/2) A = (h/2) (sigma B - A), sigma = 2/h, on the unknown of
        ``model.reduced_shifted``: the displacements, with the N/2
        matrix sigma^2 M + sigma C + K factored once per call, for a
        lifted mechanical model, else the whole state. It never
        factors or solves with B.
    dt : float, optional
        Step size, required for "trapezoid"; the span is split into
        the nearest whole number of equal steps h.
    rtol, atol : float, optional
        Error tolerances of "adaptive", finite and >= 0; an rtol below
        100 eps is raised to it, as scipy raises it.
    t_eval : array_like, optional
        Output times, strictly ascending and inside ``t_span``; the
        states there come from the dense output of the steps that hold
        them. Without it every accepted step is returned, t0 included
        ("adaptive" only; "trapezoid" returns every step and rejects
        ``t_eval``).
    newton_tol : float, optional
        Relative tolerance of the chord iteration ("trapezoid" only):
        with Delta_k the change of the state z from one iterate to the
        next (the first from the extrapolated start), the iteration
        stops once ``|Delta_k| <= newton_tol * (1 + |z|)``, or once the
        estimate ``theta_k / (1 - theta_k) * |Delta_k|`` of the
        remaining error is within that bound, where the contraction rate
        ``theta_k = |Delta_k| / |Delta_(k-1)|`` is below 1 (Hairer &
        Wanner, Solving ODEs II, 1996, section IV.8). A model without
        nonlinearity stops after the first iterate, which solves its
        step.
    max_newton : int, optional
        Chord iterations allowed per step, an integer >= 1 ("trapezoid"
        only); a step that needs more raises NumericalError.

    Each trapezoidal step, scaled by ``sigma = 2/h``, solves
    ``(sigma B - A) z - F(z) = (sigma B + A) z_k + F(z_k) + f_k + f_(k+1)``
    with ``f_k = eps Fext(Omega t_k)``, starting from the quadratic
    extrapolation ``3 z_k - 3 z_(k-1) + z_(k-2)`` (``z_0`` on the first
    step and ``2 z_1 - z_0`` on the second).

    Returns
    -------
    dict with keys "t" ((n,) times) and "z" ((N, n) states);
    "adaptive" adds "rhs_evaluations", the right-hand sides evaluated
    (12 per step attempt, 3 more per dense output and 2 for the initial
    step), "trapezoid" adds "newton_iterations", the chord iterations
    summed over all steps.
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
    for name, value in (("t_span", t_span), ("Omega", Omega), ("rtol", rtol),
                        ("atol", atol), ("t_eval", t_eval), ("dt", dt),
                        ("newton_tol", newton_tol)):
        _refuse_bools(value, name)
    t0, t1 = (float(t) for t in t_span)
    if not np.isfinite([t0, t1]).all():
        # DOP853 never reaches a NaN end and steps on without end
        raise ValidationError("t_span must hold two finite times")
    if not t0 < t1:
        raise ValidationError("t_span must run forward, t0 < t1; got "
                              "(%g, %g)" % (t0, t1))
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
        if t_eval is not None:
            t_eval = np.asarray(t_eval, dtype=float)
            if t_eval.ndim != 1:
                raise ValidationError("t_eval must be one-dimensional")
            if (np.diff(t_eval) <= 0).any():
                raise ValidationError("t_eval must be strictly ascending")
            if t_eval.size and not t0 <= t_eval[0] <= t_eval[-1] <= t1:
                raise ValidationError("t_eval must lie inside t_span")
        if not (np.isfinite([rtol, atol]).all() and rtol >= 0 and atol >= 0):
            raise ValidationError("rtol and atol must be finite and >= 0")
        # scipy's floor on rtol, below which the error estimate itself
        # is rounding
        rtol = max(rtol, 100 * np.finfo(float).eps)
        t, z, nfev = _dop853(system, Om, z0, t0, t1, t_eval, rtol, atol)
        return {"t": t, "z": z, "rhs_evaluations": nfev}

    if t_eval is not None:
        raise ValidationError(
            "the trapezoidal rule returns every step and takes no t_eval; "
            "choose dt so the steps land on the wanted times")
    if dt is None or not dt > 0:
        raise ValidationError("the trapezoidal rule needs a positive dt")
    max_newton = _count(max_newton, "max_newton", 1)
    n = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n
    A, B = system.A, system.B
    eps = system.eps

    def forcing(t):
        return eps * system.forcing_eval(Om * t) if forced else 0.0

    sigma = 2.0 / h
    P = sigma * B + A
    try:
        solve, _, used, (mat, fold, unfold) = factorize_near(system, sigma)
    except NumericalError:  # exactly singular next to sigma too
        used = None
    if used != sigma:
        raise NumericalError("the trapezoidal matrix B - (h/2) A is "
                             "exactly singular at dt=%g; change dt" % h)
    part, G = reduced_force(system)
    linear = not system.F_coeffs
    ts = t0 + h * np.arange(n + 1)
    zs = np.empty((system.N, n + 1))
    zs[:, 0] = z0
    z = z_prev = z_prev2 = z0
    f = forcing(ts[0])
    iterations = 0
    for k in range(n):
        f_next = forcing(ts[k + 1])
        c = P @ z + system.F_eval(z) + f + f_next
        rhs = fold(c)
        # z_0, then linear and from the third step quadratic
        # extrapolation of the states before
        if k >= 2:
            znew = 3.0 * (z - z_prev) + z_prev2
        else:
            znew = 2.0 * z - z_prev
        y = part(znew)
        size_prev = None
        for it in range(max_newton):
            y = y - solve(mat @ y - G(y) - rhs)
            # every step measured on the state z = unfold(y, c), the
            # first from the extrapolated one
            zold, znew = znew, unfold(y, c)
            size = _norm(znew - zold)
            bound = newton_tol * (1.0 + _norm(znew))
            # without F the first iterate solves the step
            if size <= bound or linear:
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
        z_prev2, z_prev, z, f = z_prev, z, znew, f_next
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
        Positive and finite, not a bool.
    dof : int
        State index in 0..N-1 whose amplitude is reported; a bool or a
        fractional index names no state (``spectrum.state_index``).
    n_transient : int, optional
        Periods integrated before the first window (>= 0).
    n_window : int, optional
        Periods per window (>= 1).
    tol : float, optional
        Relative agreement of two successive window peaks (> 0, not a
        bool).
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
    _refuse_bools(Omega, "Omega")
    Omega = float(Omega)
    if not 0 < Omega < np.inf:
        # a NaN period would send the integrator into an endless loop
        raise ValidationError("Omega must be positive and finite")
    dof = state_index(dof, system.N)
    n_transient = _count(n_transient, "n_transient", 0)
    n_window = _count(n_window, "n_window", 1)
    _refuse_bools(tol, "tol")
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
