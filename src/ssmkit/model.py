"""
System containers and first-order realization.

Mechanical models come in as ``M x'' + C x' + K x + f(x) = eps * fext(t)``
with ``f`` a polynomial nonlinearity of degree >= 2 and ``fext`` a sum of
harmonics. They are rewritten as a first-order pencil

    B z' = A z + F(z) + eps * Fext(phase),    z = [x; x']

using one of two equivalent block layouts. With symmetric ``M, C, K`` and
a suitable auxiliary block the pencil itself is symmetric, which later
lets left eigenvectors be taken as conjugates of right ones.

Layout "L1" (auxiliary block N in the kinematic identity):

    A = [[0, N], [-K, -C]]      B = [[N, 0], [0, M]]      F = [0; -f]

Layout "L2":

    A = [[-K, 0], [0, N]]       B = [[C, M], [N, 0]]      F = [-f; 0]

Forcing is position-independent: each harmonic is a constant complex
vector. State-dependent forcing input is rejected.
"""

import functools
import numbers

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import ValidationError
from .polytensor import PolyCoeffs

__all__ = [
    "MechanicalSystem", "FirstOrderSystem", "build_first_order",
    "as_first_order", "oscillator_chain", "lorenz_extended",
    "cosine_forcing",
]

N_CHOICES = ("minus-k", "mass", "identity")
VARIANTS = ("L1", "L2")


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
        return abs(d).max() <= rtol * scale if d.nnz else True
    scale = np.abs(mat).max() or 1.0
    return np.abs(mat - mat.T).max() <= rtol * scale


def _check_nonsingular(mat, name):
    """Factorization-based singularity check, dense or sparse."""
    if sp.issparse(mat):
        import scipy.sparse.linalg as spla
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
        """Evaluate the nonlinearity f(x)."""
        out = np.zeros(self.n)
        for fc in self.f_coeffs:
            out = out + fc.evaluate(x).real
        return out

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
    symmetric : bool
        True when A and B are both symmetric (within 1e-12 relative),
        which the eigensolver exploits.
    variant : str or None
        "L1"/"L2" when built from a mechanical model, else None.
    """

    def __init__(self, A, B, F_coeffs=None, forcing=None, eps=0.0,
                 variant=None, mech=None):
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
        self.variant = variant
        self.mech = mech
        # cohomology's N/2 blocks, set at the first shifted solve
        self._second_order = None
        self.symmetric = _is_symmetric(self.A) and _is_symmetric(self.B)
        _check_nonsingular(self.B, "pencil matrix B")

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
        """Evaluate the autonomous nonlinearity F(z)."""
        out = np.zeros(self.N, dtype=np.result_type(z, np.float64))
        for fc in self.F_coeffs:
            out = out + fc.evaluate(z)
        return out

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
        return ("FirstOrderSystem(N=%d, degrees=%r, harmonics=%d, "
                "symmetric=%s, variant=%r)"
                % (self.N, [fc.degree for fc in self.F_coeffs],
                   len(self.forcing), self.symmetric, self.variant))


def build_first_order(mech, variant=None, n_choice=None):
    """
    Realize a mechanical model as a first-order pencil.

    Parameters
    ----------
    mech : MechanicalSystem
    variant : {"L1", "L2"}, optional
        Block layout. Default: "L2" when M, C, K are all symmetric
        (keeping the pencil symmetric), else "L1".
    n_choice : {"minus-k", "mass", "identity"}, optional
        Auxiliary block N: ``-K``, ``M`` or the identity. Any
        nonsingular choice is valid; the default pairs "mass" with L2
        and "identity" with L1. Symmetry of the pencil requires
        "minus-k" under L1 or "mass" under L2. A singular N is rejected
        through B, since det B = +-det N det M in both layouts.

    Returns
    -------
    FirstOrderSystem
    """
    if variant is None:
        variant = "L2" if mech.symmetric else "L1"
    if variant not in VARIANTS:
        raise ValidationError("variant must be one of %r" % (VARIANTS,))
    if n_choice is None:
        n_choice = "mass" if variant == "L2" else "identity"
    if n_choice not in N_CHOICES:
        raise ValidationError("n_choice must be one of %r" % (N_CHOICES,))

    n = mech.n
    sparse_in = any(sp.issparse(mat) for mat in (mech.M, mech.C, mech.K))
    eye = sp.identity(n, format="csr") if sparse_in else np.eye(n)
    M, C, K = mech.M, mech.C, mech.K
    if sparse_in:
        M, C, K = (m if sp.issparse(m) else sp.csr_matrix(m) for m in (M, C, K))
    if n_choice == "minus-k":
        Nb = -K
    elif n_choice == "mass":
        Nb = M
    else:
        Nb = eye

    zero = sp.csr_matrix((n, n)) if sparse_in else np.zeros((n, n))
    bmat = sp.bmat if sparse_in else (lambda rows: np.block(
        [[blk if blk is not None else zero for blk in row] for row in rows]))
    if variant == "L1":
        A = bmat([[zero, Nb], [-K, -C]])
        B = bmat([[Nb, zero], [zero, M]])
        row_offset, sign, force_offset = n, -1.0, n
    else:
        A = bmat([[-K, zero], [zero, Nb]])
        B = bmat([[C, M], [Nb, zero]])
        row_offset, sign, force_offset = 0, -1.0, 0

    F_coeffs = [fc.relabel(2 * n, 2 * n, row_offset=row_offset,
                           value_scale=sign)
                for fc in mech.f_coeffs]
    forcing = []
    for kt, vec in mech.forcing:
        full = np.zeros(2 * n, dtype=complex)
        full[force_offset:force_offset + n] = vec
        forcing.append((kt, full))

    if sparse_in:
        A, B = A.tocsr(), B.tocsr()
    return FirstOrderSystem(A, B, F_coeffs, forcing, eps=mech.eps,
                            variant=variant, mech=mech)


def as_first_order(system):
    """
    Return ``system`` as a FirstOrderSystem, lifting a mechanical model
    with its stored layout hints when needed.
    """
    if isinstance(system, FirstOrderSystem):
        return system
    if isinstance(system, MechanicalSystem):
        return build_first_order(system,
                                 variant=getattr(system, "variant_hint", None),
                                 n_choice=getattr(system, "n_choice_hint", None))
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
