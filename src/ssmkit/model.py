"""
System containers and first-order realization.

Mechanical models come in as ``M x'' + C x' + K x + f(x) = eps * fext(t)``
with ``f`` a polynomial nonlinearity of degree >= 2 and ``fext`` a sum of
harmonics. They are rewritten as the first-order pencil

    B z' = A z + F(z) + eps * Fext(phase),    z = [x; x']

    A = [[0, I], [-K, -C]]      B = [[I, 0], [0, M]]      F = [0; -f]

whose B is as well conditioned as M. Only this module knows that layout.
Every shifted pencil ``lambda B - A`` is factored through its
``reduced_shifted``: for a lifted model the N/2 matrix
``lambda^2 M + lambda C + K`` (Tisseur & Meerbergen, SIAM Rev. 43,
2001), else ``lambda B - A`` itself. ``left_vectors`` gives the left
eigenvectors of the pencil from its right ones: in closed form for
symmetric M, C and K, else by one inverse-iteration step on the adjoint
of that matrix (Ipsen, SIAM Rev. 39, 1997), whatever the size or storage.

Forcing is position-independent: each harmonic is a constant complex
vector. State-dependent forcing input is rejected.
"""

import functools
import numbers

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError, ValidationError
from .polytensor import PolyCoeffs

__all__ = [
    "MechanicalSystem", "FirstOrderSystem", "build_first_order",
    "as_first_order", "oscillator_chain", "lorenz_extended",
    "cosine_forcing", "factorize", "factorize_near", "shifted_route",
    "shifted_solver", "reduced_shifted", "left_vectors",
]


def _as_2d(mat, name):
    if sp.issparse(mat):
        return mat.tocsr()
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError("%s must be a square matrix" % name)
    return arr


def _is_symmetric(mat, rtol=1e-12):
    if sp.issparse(mat):
        d = (mat - mat.T)
        scale = abs(mat).max() or 1.0
        return bool(abs(d).max() <= rtol * scale) if d.nnz else True
    scale = np.abs(mat).max() or 1.0
    return bool(np.abs(mat - mat.T).max() <= rtol * scale)


def _check_nonsingular(mat, name):
    """Factorization-based singularity check, dense or sparse."""
    if sp.issparse(mat):
        try:
            lu = spla.splu(mat.tocsc())
        except RuntimeError as exc:
            raise ValidationError("%s is singular (%s)" % (name, exc)) from exc
        du = np.abs(lu.U.diagonal())
        ratio = du.min() / max(du.max(), 1.0)
        if ratio <= 1e-14:
            raise ValidationError("%s is singular or ill-conditioned (LU "
                                  "pivot ratio %.1e)" % (name, ratio))
        return
    if mat.shape[0] == 0:
        return
    if np.linalg.cond(mat) > 1e14:
        raise ValidationError("%s is singular or numerically rank-deficient" % name)


def _checked_nonlinearity(blocks, name, n):
    """
    The homogeneous pieces of a nonlinearity over ``n`` variables as a
    list: degrees >= 2, ``n`` rows and variables, and real values (a
    complex dtype is accepted when every imaginary part is zero, and
    such a block is returned with real values).
    """
    blocks = list(blocks) if blocks else []
    for k, fc in enumerate(blocks):
        if fc.degree < 2:
            raise ValidationError("nonlinearity degrees must be >= 2")
        if fc.nrows != n or fc.nvars != n:
            raise ValidationError(
                "nonlinearity block %r does not match %s=%d" % (fc, name, n))
        if np.iscomplexobj(fc.values):
            if np.any(fc.values.imag != 0):
                raise ValidationError(
                    "the degree-%d nonlinearity block has nonzero imaginary "
                    "parts; the nonlinearity must be real" % fc.degree)
            blocks[k] = PolyCoeffs.from_factors(fc.degree, n, n, fc.rows,
                                                fc.factors, fc.values.real)
    return blocks


def _sum_of(blocks, nrows, z):
    """The sum of the real ``blocks`` at ``z``, added into one output."""
    z = np.asarray(z)
    out = np.zeros((nrows,) + z.shape[1:], np.promote_types(z.dtype, np.float64))
    for fc in blocks:
        fc.evaluate(z, add_to=out)
    return out


def kappa_tuple(kappa):
    """Normalize a harmonic label to a tuple of ints."""
    if isinstance(kappa, numbers.Integral):
        return (int(kappa),)
    return tuple(int(k) for k in kappa)


def _validate_forcing(forcing, n):
    """
    Check one forcing table: entries are (kappa, vector), vectors have
    length n, the table is closed under conjugation and any zero
    harmonic is real. Returns a normalized list of (tuple, complex
    ndarray) with deterministic ordering.
    """
    if forcing is None:
        return []
    table = {}
    for kappa, vec in forcing:
        if callable(vec) or isinstance(vec, PolyCoeffs):
            raise ValidationError(
                "state-dependent forcing is not supported; each harmonic "
                "must be a constant vector")
        kt = kappa_tuple(kappa)
        nfreq = len(next(iter(table), kt))  # set by the first label
        if len(kt) != nfreq:
            raise ValidationError(
                "forcing harmonic %r has %d frequencies, the first one %d; "
                "every label needs one entry per frequency"
                % (kt, len(kt), nfreq))
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.size != n:
            raise ValidationError(
                "forcing vector for harmonic %r has length %d, expected %d"
                % (kt, vec.size, n))
        if kt in table:
            raise ValidationError("duplicate forcing harmonic %r" % (kt,))
        table[kt] = vec
    for kt, vec in table.items():
        neg = tuple(-k for k in kt)
        if neg == kt:
            if np.abs(vec.imag).max(initial=0.0) > 1e-12 * max(np.abs(vec).max(initial=0.0), 1.0):
                raise ValidationError("zero-harmonic forcing must be real")
        else:
            if neg not in table:
                raise ValidationError(
                    "forcing table is not closed under conjugation: "
                    "harmonic %r has no partner %r" % (kt, neg))
            err = np.abs(table[neg] - vec.conj()).max(initial=0.0)
            if err > 1e-12 * max(np.abs(vec).max(initial=0.0), 1.0):
                raise ValidationError(
                    "forcing harmonics %r and %r are not complex conjugates"
                    % (kt, neg))
    return sorted(table.items())


def cosine_forcing(amplitude, kappa=1):
    """
    Forcing table for ``amplitude * cos(kappa * Omega * t)``: the pair of
    harmonics ``(+kappa, a/2)`` and ``(-kappa, a/2)``.
    """
    amplitude = np.asarray(amplitude, dtype=float)
    half = amplitude.astype(complex) / 2.0
    kt = kappa_tuple(kappa)
    neg = tuple(-k for k in kt)
    return [(kt, half), (neg, half.copy())]


class MechanicalSystem:
    """
    Second-order mechanical model.

    Parameters
    ----------
    M, C, K : (n, n) array_like or sparse
        Mass, damping and stiffness matrices.
    f_coeffs : list of PolyCoeffs, optional
        Homogeneous pieces of the position nonlinearity f(x) (degrees
        >= 2, over the n displacement variables).
    forcing : list of (kappa, vector), optional
        External forcing harmonics: fext(t) = sum f_kappa exp(i<kappa,
        Omega> t). Must be closed under conjugation.
    eps : float, optional
        Forcing amplitude parameter, stored separately from the shapes.
    """

    def __init__(self, M, C, K, f_coeffs=None, forcing=None, eps=0.0):
        self.M = _as_2d(M, "M")
        self.C = _as_2d(C, "C")
        self.K = _as_2d(K, "K")
        n = self.M.shape[0]
        if self.C.shape != (n, n) or self.K.shape != (n, n):
            raise ValidationError("M, C, K must share one shape")
        self.n = n
        self.f_coeffs = _checked_nonlinearity(f_coeffs, "n", n)
        self.forcing = _validate_forcing(forcing, n)
        self.eps = float(eps)
        _check_nonsingular(self.M, "mass matrix M")

    @property
    def symmetric(self):
        return (_is_symmetric(self.M) and _is_symmetric(self.C)
                and _is_symmetric(self.K))

    def f_eval(self, x):
        """Evaluate the nonlinearity f(x) at one state or an (n, k) batch."""
        return _sum_of(self.f_coeffs, self.n, x).real

    def __repr__(self):
        return ("MechanicalSystem(n=%d, degrees=%r, harmonics=%d, eps=%g)"
                % (self.n, [fc.degree for fc in self.f_coeffs],
                   len(self.forcing), self.eps))


class FirstOrderSystem:
    """
    First-order pencil ``B z' = A z + F(z) + eps * Fext(phase)``.

    Attributes
    ----------
    A, B : (N, N) ndarray or sparse
        Pencil matrices; B must be nonsingular.
    F_coeffs : list of PolyCoeffs
        Homogeneous nonlinearity pieces over the N state variables.
    forcing : list of (kappa tuple, complex vector)
        Normalized forcing table, closed under conjugation.
    nfreq : int
        Number of forcing base frequencies, the length of every label
        (0 when unforced).
    eps : float
    mech : MechanicalSystem or None
        The model this pencil was lifted from by ``build_first_order``,
        else None.
    """

    def __init__(self, A, B, F_coeffs=None, forcing=None, eps=0.0,
                 mech=None):
        self.A = A.tocsr() if sp.issparse(A) else np.asarray(A, dtype=float)
        self.B = B.tocsr() if sp.issparse(B) else np.asarray(B, dtype=float)
        N = self.A.shape[0]
        if self.A.shape != (N, N) or self.B.shape != (N, N):
            raise ValidationError("A and B must be square with one shape")
        self.N = N
        self.F_coeffs = _checked_nonlinearity(F_coeffs, "N", N)
        self.forcing = _validate_forcing(forcing, N)
        # the table as one (N, K) matrix of vectors and (K, nfreq) labels
        nharm = len(self.forcing)
        self.nfreq = len(self.forcing[0][0]) if self.forcing else 0
        self._forcing_vectors = np.zeros((N, nharm), dtype=complex)
        for col, (_, vec) in enumerate(self.forcing):
            self._forcing_vectors[:, col] = vec
        self._harmonics = np.array([kt for kt, _ in self.forcing],
                                   dtype=float).reshape(nharm, self.nfreq)
        self.eps = float(eps)
        self.mech = mech
        _check_nonsingular(self.B, "pencil matrix B")

    @functools.cached_property
    def _second_order(self):
        """``mech``'s :class:`_SecondOrder`, made at the first solve."""
        return _SecondOrder(self.mech)

    @functools.cached_property
    def inf_norms(self):
        """(||A||_inf, ||B||_inf), the largest absolute row sums."""
        return tuple(float(np.asarray(abs(mat).sum(axis=1)).max(initial=0.0))
                     for mat in (self.A, self.B))

    def dense_pencil(self):
        """Return (A, B) as dense arrays."""
        A = self.A.toarray() if sp.issparse(self.A) else self.A
        B = self.B.toarray() if sp.issparse(self.B) else self.B
        return A, B

    def F_eval(self, z):
        """Evaluate the autonomous nonlinearity F(z) at one state or an
        (N, k) batch."""
        return _sum_of(self.F_coeffs, self.N, z)

    def forcing_eval(self, phase):
        """
        Evaluate Fext at a phase vector phi (one angle per forcing
        frequency): ``sum_kappa f_kappa exp(i <kappa, phi>)``. Real for
        conjugation-closed tables.
        """
        if not self.forcing:
            return np.zeros(self.N)
        phase = np.atleast_1d(np.asarray(phase, dtype=float))
        return (self._forcing_vectors
                @ np.exp(1j * (self._harmonics @ phase))).real

    def __repr__(self):
        return ("FirstOrderSystem(N=%d, degrees=%r, harmonics=%d)"
                % (self.N, [fc.degree for fc in self.F_coeffs],
                   len(self.forcing)))


def build_first_order(mech):
    """
    Realize a mechanical model as the first-order pencil
    ``A = [[0, I], [-K, -C]]``, ``B = diag(I, M)``, ``F = [0; -f]``, with
    the forcing in the second block rows. The pencil is CSR when any of
    M, C, K is sparse, and it keeps ``mech``.

    Parameters
    ----------
    mech : MechanicalSystem

    Returns
    -------
    FirstOrderSystem
    """
    n = mech.n
    M, C, K = mech.M, mech.C, mech.K
    if any(sp.issparse(mat) for mat in (M, C, K)):
        eye = sp.identity(n, format="csr")
        A = sp.bmat([[None, eye], [-sp.csr_matrix(K), -sp.csr_matrix(C)]],
                    format="csr")
        B = sp.block_diag((eye, sp.csr_matrix(M)), format="csr")
    else:
        zero = np.zeros((n, n))
        A = np.block([[zero, np.eye(n)], [-K, -C]])
        B = np.block([[np.eye(n), zero], [zero, M]])

    F_coeffs = [fc.relabel(2 * n, 2 * n, row_offset=n, value_scale=-1.0)
                for fc in mech.f_coeffs]
    forcing = []
    for kt, vec in mech.forcing:
        full = np.zeros(2 * n, dtype=complex)
        full[n:] = vec
        forcing.append((kt, full))
    return FirstOrderSystem(A, B, F_coeffs, forcing, eps=mech.eps, mech=mech)


@functools.lru_cache(maxsize=None)
def _dense_lu(typecode):
    """LAPACK getrf, gecon and getrs for one dtype."""
    return la.get_lapack_funcs(("getrf", "gecon", "getrs"),
                               dtype=np.dtype(typecode))


def factorize(mat):
    """
    Factor ``mat`` once: SuperLU for a sparse matrix, LAPACK ``getrf``
    for a dense one. Returns ``(solve, rcond)``: ``solve(v)`` applies
    ``mat^-1`` to an (n,) or (n, k) array of ``mat``'s dtype through
    SuperLU or ``getrs``, without the per-call checks of ``lu_solve``.
    ``rcond`` is LAPACK's 1-norm condition estimate of a dense ``mat``
    (0 when a pivot is exactly zero), None for a sparse one. SuperLU
    raises RuntimeError on an exactly singular ``mat``.
    """
    if sp.issparse(mat):
        return spla.splu(mat.tocsc()).solve, None
    getrf, gecon, getrs = _dense_lu(mat.dtype.char)
    lu, piv, info = getrf(mat)
    anorm = np.linalg.norm(mat, 1)
    rcond = float(gecon(lu, anorm)[0]) if anorm > 0 and info == 0 else 0.0
    return (lambda v: getrs(lu, piv, v)[0]), rcond


def shifted_route(system):
    """The route of :func:`reduced_shifted`: "second-order" when
    ``system`` carries its mechanical model, else "first-order"."""
    return "first-order" if system.mech is None else "second-order"


class _SecondOrder:
    """M, C and K of a mechanical model. Sparse ones share one CSC pattern,
    their union, so that ``Q(shift)`` costs one vector expression."""

    def __init__(self, mech):
        n = self.n = mech.n
        self.pattern = None
        self.values = (mech.M, mech.C, mech.K)
        if any(sp.issparse(mat) for mat in self.values):
            M, C, K = (sp.csr_matrix(mat) for mat in self.values)
            union = ((M != 0) + (C != 0) + (K != 0)).tocsc()
            union.sort_indices()
            rows = union.indices
            cols = np.repeat(np.arange(n), np.diff(union.indptr))
            self.pattern = (rows, union.indptr)
            self.values = np.array([np.asarray(mat[rows, cols]).ravel()
                                    for mat in (M, C, K)], dtype=float)

    def matrices(self, shift):
        """``Q = shift^2 M + shift C + K`` and ``D = shift M + C``, dense
        or CSC, of the dtype of ``shift``."""
        vm, vc, vk = self.values
        d = shift * vm + vc
        q = shift * d + vk
        if self.pattern is None:
            return q, d
        return tuple(sp.csc_matrix((vals, *self.pattern),
                                   shape=(self.n, self.n)) for vals in (q, d))


def reduced_shifted(system, shift):
    """
    The matrix that ``(shift B - A) X = rhs`` is solved on, with the
    maps of ``rhs`` into its right-hand side and of its solution back to
    X. With ``mech`` these are ``Q = shift^2 M + shift C + K``,
    ``rhs -> rd + (shift M + C) rk`` and ``x -> [x; shift x - rk]``
    (``rk``, ``rd`` the first and last n rows of ``rhs``); else
    ``shift B - A`` (CSC when sparse) and the identity maps.
    """
    if system.mech is None:
        A, B = system.A, system.B
        mat = shift * B - A
        if sp.issparse(A) or sp.issparse(B):
            mat = sp.csc_matrix(mat)
        return mat, (lambda rhs: rhs), (lambda x, rhs: x)
    n = system.mech.n
    Q, D = system._second_order.matrices(shift)
    return (Q, lambda rhs: rhs[n:] + D @ rhs[:n],
            lambda x, rhs: np.concatenate([x, shift * x - rhs[:n]]))


def shifted_solver(system, shift):
    """
    Factor ``shift B - A`` once, on the route of :func:`shifted_route`,
    and return ``solve``: ``solve(rhs)`` gives X with
    ``(shift B - A) X = rhs`` for an (N,) or (N, k) ``rhs``, in real
    arithmetic for a real ``shift`` and ``rhs``. An exactly singular
    matrix raises RuntimeError, dense or sparse, as the shift-invert
    eigensolve and the trapezoidal rule need; :func:`factorize_near`
    takes the blocks that may sit on the spectrum.
    """
    mat, fold, unfold = reduced_shifted(system, shift)
    solve, rcond = factorize(mat)
    if rcond == 0.0:
        raise RuntimeError("a pivot of the dense LU is exactly zero")
    return lambda rhs: unfold(solve(fold(rhs)), rhs)


def factorize_near(system, shift, adjoint=False):
    """
    :func:`factorize` of :func:`reduced_shifted`'s matrix at ``shift``
    (its conjugate transpose with ``adjoint``) or, when a pivot is
    exactly zero, of the one at ``shift + eps max(|shift|, 1)``, as
    LAPACK's ``xLAEIN`` does: a solve then errs only along the null
    vector (Peters & Wilkinson, SIAM Rev. 21, 1979). Returns ``(solve,
    rcond, reduced)``, ``reduced`` being :func:`reduced_shifted` at
    ``shift`` itself; NumericalError when both are exactly singular.
    """
    reduced = reduced_shifted(system, shift)
    mat = reduced[0]
    for _ in range(2):
        try:
            solve, rcond = factorize(mat.conj().T if adjoint else mat)
        except RuntimeError:  # SuperLU on an exactly zero pivot
            rcond = 0.0
        if rcond != 0.0:
            return solve, rcond, reduced
        near = shift + np.finfo(float).eps * max(abs(shift), 1.0)
        mat = reduced_shifted(system, near)[0]
    raise NumericalError("the shifted pencil is exactly singular at %s and "
                         "next to it" % shift)


def left_vectors(system, V, lambdas):
    """
    Left eigenvectors of ``system``'s pencil for the right ones, the
    columns ``v_k`` of V with eigenvalues ``lambdas``, up to a Gram
    correction within each cluster of equal eigenvalues. A lifted model
    has ``u_k = [(C^H + conj(lambda_k) M^H) y_k; y_k]`` with
    ``Q(lambda_k)^H y_k = 0``: ``y_k = conj(phi_k)`` when M, C and K are
    symmetric (``phi_k`` the displacement part of ``v_k``), else one
    inverse-iteration step, ``Q(lambda_k)^H y_k = phi_k``. Any other
    system takes the step ``(lambda_k B - A)^H u_k = v_k``. The right
    side is ``v_k``: a step grows along ``u_k`` by ``v_k^H`` times its
    right side, and ``v_k^H B v_k`` vanishes for some pencils, such as
    ``B = [[C, M], [M, 0]]``. A column with negative imaginary part
    whose eigenvalue and vector are the exact conjugates of another
    column's takes the conjugate of that column's left vector, without a
    solve of its own. Each step factors through :func:`factorize_near`,
    so an exactly zero pivot, as at Lorenz's ``lambda = 0``, moves the
    shift by one ulp, and NumericalError is raised only when the shift
    next to ``lambda_k`` is exactly singular too.
    """
    mech = system.mech
    if mech is not None and mech.symmetric:
        phi = V[:mech.n].conj()
        return np.vstack([mech.C @ phi + (mech.M @ phi) * lambdas.conj(), phi])
    U = np.empty_like(V)
    partner = {}
    for k in np.flatnonzero(lambdas.imag < 0):
        for j in np.flatnonzero(lambdas == lambdas[k].conjugate()):
            if np.array_equal(V[:, j], V[:, k].conj()):
                partner[k] = j
                break
    for k, lam in enumerate(lambdas):
        if k in partner:
            continue
        solve = factorize_near(system, lam, adjoint=True)[0]
        if mech is None:
            U[:, k] = solve(V[:, k])
        else:
            y = solve(V[:mech.n, k])
            U[:, k] = np.concatenate(
                [mech.C.conj().T @ y + lam.conjugate() * (mech.M.conj().T @ y),
                 y])
    for k, j in partner.items():
        U[:, k] = U[:, j].conj()
    return U


def as_first_order(system):
    """
    Return ``system`` as a FirstOrderSystem, lifting a mechanical model
    with :func:`build_first_order` when needed.
    """
    if isinstance(system, FirstOrderSystem):
        return system
    if isinstance(system, MechanicalSystem):
        return build_first_order(system)
    raise ValidationError("expected a FirstOrderSystem or MechanicalSystem, "
                          "got %r" % type(system).__name__)


def oscillator_chain(n, m=1.0, k=1.0, c=0.1, kappa=0.3,
                     forcing_amplitude=None, eps=0.0):
    """
    Chain of n unit masses between two walls, coupled by springs with
    linear constant k, dashpots c and cubic hardening kappa.

    The matrices are ``M = m I``, ``K = k L``, ``C = c L`` with L the
    tridiagonal (2, -1) Laplacian, so both end masses attach to walls.
    The cubic force on mass r is

        f_r = kappa * ((x_r - x_{r-1})**3 - (x_{r+1} - x_r)**3)

    with the wall conventions x_0 = x_{n+1} = 0. For n = 1 this reduces
    to ``K = [[2 k]]`` and ``f = 2 kappa x**3``.

    Parameters
    ----------
    n : int
        Number of masses.
    m, k, c, kappa : float, optional
        Mass, spring, dashpot and cubic constants.
    forcing_amplitude : (n,) array_like, optional
        Real amplitude vector a of a ``a cos(Omega t)`` load. Stored as
        the harmonic pair (+1, a/2), (-1, a/2).
    eps : float, optional
        Forcing scale.

    Returns
    -------
    MechanicalSystem
    """
    if n < 1:
        raise ValidationError("need at least one mass")
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    M = m * np.eye(n)
    K = k * lap
    C = c * lap

    def spring_terms(s):
        # extension of spring s (0..n) as signed variables, walls dropped
        terms = []
        if s <= n - 1:
            terms.append((s, 1.0))
        if s - 1 >= 0:
            terms.append((s - 1, -1.0))
        return terms

    entries = []
    for r in range(n):
        for s, s_sign in ((r, 1.0), (r + 1, -1.0)):
            terms = spring_terms(s)
            for a, ca in terms:
                for b, cb in terms:
                    for d, cd in terms:
                        entries.append((r, (a, b, d), kappa * s_sign * ca * cb * cd))
    f3 = PolyCoeffs.from_entries(3, n, n, entries)

    forcing = None
    if forcing_amplitude is not None:
        forcing = cosine_forcing(forcing_amplitude)
    return MechanicalSystem(M, C, K, [f3], forcing, eps=eps)


def lorenz_extended(sigma=1.0, beta=1.0):
    """
    Lorenz equations at the critical Rayleigh number rho = 1 with the
    unfolding parameter mu = rho - 1 appended as a constant state, so
    the center subspace of the origin becomes two-dimensional.

    States are (x, y, z, mu) and

        x' = sigma (y - x)
        y' = x (1 + mu) - y - x z
        z' = x y - beta z
        mu' = 0

    Returns
    -------
    FirstOrderSystem
        With B the identity and a single quadratic nonlinearity block
        holding the x*mu, x*z and x*y terms.
    """
    A = np.array([
        [-sigma, sigma, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -beta, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    F2 = PolyCoeffs.from_entries(2, 4, 4, [
        (1, (0, 3), 1.0),    # x * mu
        (1, (0, 2), -1.0),   # -x * z
        (2, (0, 1), 1.0),    # x * y
    ])
    return FirstOrderSystem(A, np.eye(4), [F2])
