"""
Master spectral subspace extraction.

Eigenpairs of the pencil ``(A, B)`` come normalized so that the left
and right families are biorthogonal through B::

    A v_i = lambda_i B v_i,   u_i^H A = lambda_i u_i^H B,   u_i^H B v_j = delta_ij

Repeated eigenvalues are handled as clusters, the eigenvalues within
``CLUSTER_RTOL`` of one another: a cluster's Gram matrix
``G = U~^H B V~`` is inverted to restore biorthogonality, and a singular
G flags a defective (non-semisimple) eigenvalue, which is rejected.

Only right eigenvectors come from the eigensolver, dense or sparse. The
left ones come from ``model.left_vectors`` up to that same Gram
correction: in closed form for a pencil lifted from a mechanical model
with symmetric M, C and K (Tisseur & Meerbergen, SIAM Rev. 43, 2001),
else by one inverse-iteration step per master eigenvalue (Ipsen, SIAM
Rev. 39, 1997).

Shift-invert takes one of two routes, both from a fixed start, and
``diagnostics["route"]`` names it. A lifted model with symmetric
positive definite M and K, Rayleigh damping ``C = alpha M + beta K``
(alpha, beta >= 0, recognized from the stored entries) and shift 0 takes
the "modal" route: one real symmetric shift-invert Lanczos run on
``K phi = omega^2 M phi`` at N/2 unknowns, each mode giving the roots of
``lambda^2 + (alpha + beta omega^2) lambda + omega^2 = 0`` and the
vectors ``[phi; lambda phi]`` (Tisseur & Meerbergen, SIAM Rev. 43, 2001),
when a bound on the uncomputed modes shows that the computed roots are
the ones nearest 0. Every other pencil takes complex ARPACK on
``(sigma B - A)^-1 B``, factored by ``model.factorize_near``: the N/2
matrix ``sigma^2 M + sigma C + K`` for a lifted model ("second-order"),
else ``sigma B - A`` ("first-order"). A sigma at which that matrix
has an exactly zero pivot, dense or sparse, is refused, since the run
needs its inverse. ``diagnostics["modal"]`` says why the modal route
was not taken ("taken" when it was), and
``diagnostics["rayleigh"]`` holds the fitted ``(alpha, beta)``.

Each right eigenvector is scaled to unit norm with its largest entry
rotated onto the positive real axis, and complex conjugate pairs are
stored as exact conjugates with the positive-frequency member first.
"""

import functools
import numbers

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError, ValidationError, as_index
from .model import (as_first_order, factorize_near, left_vectors,
                    shifted_route)

__all__ = ["MasterSubspace", "master_spectrum", "check_normalization",
           "largest_entry", "as_index", "state_index"]

CLUSTER_RTOL = 1e-8
RESIDUAL_RTOL = 1e-9
TIE_RTOL = 1e-10


class MasterSubspace:
    """
    A selected invariant subspace of the pencil.

    Attributes
    ----------
    lambdas : (M,) complex ndarray
        Master eigenvalues, conjugate pairs adjacent (Im > 0 first).
    V, U : (N, M) complex ndarray
        Right and left eigenvectors with ``U^H B V = I``.
    pairing : (M,) int ndarray
        ``pairing[i]`` is the index of the conjugate partner of mode i
        (itself for a real eigenvalue).
    outer_lambdas : (n_outer,) complex ndarray
        The eigenvalues immediately following the selection in the same
        ordering, kept for resonance screening.
    diagnostics : dict
        Residual norms and bookkeeping from the solve, and where U came
        from: "left_vectors" is "closed-form" or "inverse-iteration".
    """

    def __init__(self, lambdas, V, U, pairing, outer_lambdas, diagnostics=None):
        self.lambdas = np.asarray(lambdas, dtype=complex)
        self.V = np.asarray(V, dtype=complex)
        self.U = np.asarray(U, dtype=complex)
        self.pairing = np.asarray(pairing, dtype=int)
        self.outer_lambdas = np.asarray(outer_lambdas, dtype=complex)
        self.diagnostics = dict(diagnostics or {})

    @property
    def dim(self):
        return self.lambdas.size

    def to_dict(self):
        """The subspace's arrays by name: lambdas, outer_lambdas,
        pairing, V and U, themselves, not copies."""
        return {"lambdas": self.lambdas, "outer_lambdas": self.outer_lambdas,
                "pairing": self.pairing, "V": self.V, "U": self.U}

    @classmethod
    def from_dict(cls, data):
        """Rebuild from :meth:`to_dict` data, holding its arrays."""
        return cls(data["lambdas"], data["V"], data["U"], data["pairing"],
                   data["outer_lambdas"])

    def __repr__(self):
        return "MasterSubspace(dim=%d, lambdas=%s)" % (
            self.dim, np.array2string(self.lambdas, precision=4))


def state_index(value, n=None):
    """
    ``value`` as a state index by :func:`as_index`, so a bool or a
    fraction is refused; with the state count ``n`` given, also one
    outside 0..n-1 (a negative index would count from the end).
    """
    dof = as_index(value, "dof (an integer state index)")
    if n is not None and not 0 <= dof < n:
        raise ValidationError("dof %d outside the states 0..%d"
                              % (dof, n - 1))
    return dof


def _resolve_select(select):
    """Normalize the selection argument to a canonical dict."""
    if isinstance(select, numbers.Integral):
        select = {"mode": "smallest", "count": select}
    elif isinstance(select, (list, tuple)) and all(
            isinstance(i, numbers.Integral) for i in select):
        select = {"mode": "indices", "indices": select}
    if isinstance(select, dict):
        mode = select.get("mode", "smallest")
        if mode not in ("smallest", "slowest", "indices", "pair"):
            raise ValidationError("unknown selection mode %r" % mode)
        out = {"mode": mode}
        if mode == "indices":
            out["indices"] = [as_index(i, "a selection index")
                              for i in select["indices"]]
            if not out["indices"]:
                raise ValidationError("the selection lists no indices")
        elif mode == "pair":
            out["pair"] = as_index(select.get("pair", 1), "the pair")
        else:
            out["count"] = as_index(select.get("count", 2),
                                    "the selection count")
            if out["count"] < 1:
                raise ValidationError("the selection count must be >= 1, "
                                      "not %d" % out["count"])
        return out
    raise ValidationError("cannot interpret selection %r" % (select,))


def _enforce_conjugation(w, VR, scale):
    """
    Pair each complex eigenvalue with its conjugate and overwrite the
    pair with exact conjugates. The spectrum of a real pencil is
    symmetric about the real axis, but a complex shift converges to the
    half plane nearest it: a complex eigenvalue left without a partner
    gets its conjugate appended. Returns w, VR and ``partner``, the
    index of each eigenvalue's partner (its own for a real one).
    """
    tol = 1e-12 * max(scale, 1.0)
    used = np.zeros(w.size, dtype=bool)
    partner = np.arange(w.size)
    for i in np.argsort(-w.imag):
        if used[i] or w[i].imag <= tol:
            continue
        cands = [j for j in range(w.size)
                 if not used[j] and j != i and w[j].imag < -0.5 * tol]
        if not cands:
            continue
        j = min(cands, key=lambda j: abs(w[j] - w[i].conjugate()))
        if abs(w[j] - w[i].conjugate()) > 1e-6 * max(scale, 1.0):
            continue
        w[j] = w[i].conjugate()
        VR[:, j] = VR[:, i].conjugate()
        used[i] = used[j] = True
        partner[i], partner[j] = j, i
    lone = np.flatnonzero(~used & (np.abs(w.imag) > tol))
    if lone.size:
        partner[lone] = w.size + np.arange(lone.size)
        partner = np.concatenate([partner, lone])
        w = np.concatenate([w, w[lone].conjugate()])
        VR = np.hstack([VR, VR[:, lone].conjugate()])
    return w, VR, partner


def largest_entry(v):
    """
    Index of the largest ``|v_i|``, the first within ``TIE_RTOL`` of it,
    so rounding does not pick between equal entries of a symmetric mode.

    >>> largest_entry(np.array([0.5, -1.0, 1.0 + 1e-15]))
    1
    """
    mag = np.abs(v)
    return int(np.argmax(mag >= (1.0 - TIE_RTOL) * mag.max()))


def _order_with_vectors(w, VR):
    """Canonical order; ties inside eigenvalue clusters broken by the
    position of each eigenvector's largest entry."""
    tie = np.array([largest_entry(VR[:, i]) for i in range(w.size)],
                   dtype=float)
    return np.lexsort((tie, -np.sign(w.imag), w.real, np.abs(w)))


def _select_indices(w_sorted, spec, scale):
    m = len(w_sorted)
    mode = spec["mode"]
    if mode == "indices":
        idx = spec["indices"]
        for i in idx:
            if not 0 <= i < m:
                raise ValidationError(
                    "selection index %d outside 0..%d" % (i, m - 1))
        chosen = list(dict.fromkeys(idx))
    elif mode == "smallest":
        chosen = list(range(min(spec["count"], m)))
    elif mode == "slowest":
        order = np.lexsort((np.abs(w_sorted), -np.sign(w_sorted.imag),
                            -w_sorted.real))
        chosen = [int(i) for i in order[:spec["count"]]]
    else:  # pair
        tol = 1e-12 * max(scale, 1.0)
        pairs = [i for i in range(m) if w_sorted[i].imag > tol]
        want = spec["pair"]
        if not 1 <= want <= len(pairs):
            raise ValidationError(
                "requested pair %d; the conjugate pairs are numbered 1..%d"
                % (want, len(pairs)))
        i = pairs[want - 1]
        chosen = [i]
    # close the selection under conjugation; every complex eigenvalue
    # has its exact conjugate in the set
    closed = list(chosen)
    for i in chosen:
        lam = w_sorted[i]
        if abs(lam.imag) > 1e-12 * max(scale, 1.0):
            j = int(np.argmin(np.abs(w_sorted - lam.conjugate())))
            if j not in closed:
                closed.append(j)
    closed.sort()
    return closed


def _dense_eigen(A, B):
    w, VR = la.eig(A, B, right=True)
    bad = ~np.isfinite(w)
    if bad.any():
        raise NumericalError(
            "pencil has %d infinite or undefined eigenvalues; "
            "B may be singular" % bad.sum())
    # lapack hands back real vectors when every eigenvalue is real, but the
    # canonical scaling below assigns complex values into the columns
    return w, VR.astype(complex)


def _shift_invert_eigen(system, k, shift):
    N = system.N
    sigma = complex(shift)
    try:
        solve, _, used, (_, fold, unfold) = factorize_near(system, sigma)
    except NumericalError:  # exactly singular next to sigma too
        used = None
    if used != sigma:
        raise NumericalError(
            "(sigma B - A) has an exactly zero pivot at sigma=%s; pick a "
            "shift away from the spectrum" % sigma)
    # a fixed start makes sparse results repeatable; a random one, unlike
    # a constant, is not orthogonal to the antisymmetric modes
    v0 = np.random.default_rng(0).standard_normal(N) + 0j

    def matvec(x):
        # nu = 1 / (lambda - sigma) of x -> -(sigma B - A)^-1 B x
        rhs = system.B @ x
        return -unfold(solve(fold(rhs)), rhs)

    op = spla.LinearOperator((N, N), matvec=matvec, dtype=complex)
    nu, VR = spla.eigs(op, k=k, v0=v0)
    return sigma + 1.0 / nu, VR


def _modal_eigen(system, k, shift):
    """
    The eigenpairs nearest 0 of a lifted model with symmetric positive
    definite M and K and ``C = alpha M + beta K``, alpha, beta >= 0,
    from the undamped modes ``K phi = omega^2 M phi``: each mode gives
    the roots of ``lambda^2 + (alpha + beta omega^2) lambda + omega^2 =
    0`` and ``v = [phi; lambda phi]`` (Tisseur & Meerbergen, SIAM Rev. 43,
    2001). One real shift-invert Lanczos run from a fixed start computes
    ``k // 2 + 2`` modes at N/2 unknowns, one to spare beyond a double
    mode. Every uncomputed mode has roots of modulus at least
    ``min(omega_m, omega_m^2 / (alpha + beta omega_m^2))``, ``omega_m``
    the largest computed one, so the roots below that bound, less the
    cluster tolerance, are all of the spectrum there; the k smallest of
    them, with every root of equal modulus, are returned as ``(w, VR)``.
    Returns instead, as a string, why the route does not apply, and the
    Arnoldi run is taken.
    """
    mech = system.mech
    if mech is None:
        return "no mechanical model"
    if not mech.symmetric:
        return "M, C and K are not all symmetric"
    if shift != 0:
        return "the shift is not 0"
    rayleigh = system._second_order.rayleigh
    if rayleigh is None:
        return "C is not alpha M + beta K with alpha, beta >= 0"
    alpha, beta = rayleigh
    for mat in (mech.M, mech.K):  # K's solve is the one kept
        try:
            if sp.issparse(mat):
                # pivots on the diagonal only: perm_r == perm_c makes
                # diag(U) the D of L D L^T, whose signs are the inertia
                lu = spla.splu(sp.csc_matrix(mat), permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.0,
                               options={"SymmetricMode": True})
                if not (np.array_equal(lu.perm_r, lu.perm_c)
                        and (lu.U.diagonal() > 0).all()):
                    return "M or K is not positive definite"
                solve = lu.solve
            else:
                cho = la.cho_factor(mat)
                solve = functools.partial(la.cho_solve, cho)
        except (RuntimeError, la.LinAlgError):
            return "M or K is not positive definite"
    n = mech.n
    m = min(k // 2 + 2, n - 1)
    op = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    w2, phi = spla.eigsh(mech.K, m, mech.M, sigma=0.0, OPinv=op, v0=v0)
    order = np.argsort(w2)
    w2, phi = w2[order], phi[:, order]
    c = alpha + beta * w2
    disc = 0.25 * c * c - w2
    root = np.sqrt(np.abs(disc))
    big = 0.5 * c + root  # > 0, as omega > 0
    # an underdamped mode gives a conjugate pair of modulus omega, an
    # overdamped one two real roots, the smaller as omega^2 over the
    # larger, without cancellation
    first = np.where(disc < 0, -0.5 * c + 1j * root, -big)
    second = np.where(disc < 0, first.conj(), -w2 / big)
    lam = np.column_stack([first, second]).ravel()  # mode j at 2j, 2j + 1
    omega_m = np.sqrt(w2[-1])
    bound = omega_m if c[-1] <= omega_m else w2[-1] / c[-1]
    mod = np.abs(lam)
    # a root within the cluster tolerance of the bound may tie with an
    # uncomputed one, and a cluster must not straddle the cut
    below = np.sort(mod[mod < (1.0 - CLUSTER_RTOL) * bound])
    if below.size < k:
        return ("%d eigenvalues lie below the bound %.3g on the uncomputed "
                "modes, %d are needed" % (below.size, bound, k))
    keep = np.flatnonzero(mod <= below[k - 1])
    vecs = phi[:, keep // 2]
    return lam[keep], np.vstack([vecs, vecs * lam[keep]])


def master_spectrum(system, select=2, n_outer=10, method="auto", shift=0.0):
    """
    Compute the master eigenpairs of a first-order system.

    Parameters
    ----------
    system : FirstOrderSystem
    select : int, list of int, or dict
        Which eigenvalues span the subspace. An int m takes the m
        smallest in magnitude; a list gives 0-based positions into the
        magnitude-sorted spectrum; dicts choose explicitly:
        ``{"mode": "smallest"|"slowest", "count": m}``,
        ``{"mode": "indices", "indices": [...]}`` or
        ``{"mode": "pair", "pair": k}`` for the k-th conjugate pair
        (1-based, sorted by magnitude). Selections are closed under
        conjugation automatically.
    n_outer : int, optional
        How many of the following eigenvalues to retain for resonance
        screening.
    method : {"auto", "dense", "shift-invert"}, optional
        "auto" uses the dense QZ solver up to N = 600 and shift-invert
        beyond. Shift-invert computes the eigenvalues nearest ``shift``;
        the selection then applies within that computed set. It runs a
        real Lanczos solve of the undamped modes at N/2 unknowns for a
        Rayleigh-damped model with symmetric positive definite M and K
        at shift 0, and complex Arnoldi otherwise (module docstring).
    shift : complex, optional
        Target for shift-invert. Must not be an eigenvalue.

    Returns
    -------
    MasterSubspace

    Raises
    ------
    ValidationError
        For defective eigenvalues or a selection that splits a cluster
        of equal eigenvalues.
    NumericalError
        When residuals or factorizations fail.
    """
    spec = _resolve_select(select)
    system = as_first_order(system)
    N = system.N
    if method not in ("auto", "dense", "shift-invert"):
        raise ValidationError("method must be auto, dense or shift-invert")
    dense = method == "dense" or (method == "auto" and N <= 600)

    modal = "dense QZ"
    if dense:
        A, B = system.dense_pencil()
        w, VR = _dense_eigen(A, B)
    else:
        # a count or indices selection may close with the conjugate
        # just past its reach, one slot more than it names
        if spec["mode"] == "indices":
            k_need = max(spec["indices"]) + 2 + n_outer
        elif spec["mode"] == "pair":
            k_need = 2 * spec["pair"] + 2 + n_outer
        else:
            k_need = spec["count"] + 1 + n_outer
        k = min(max(k_need, 6), N - 2)
        modal = _modal_eigen(system, k, shift)
        if isinstance(modal, str):
            w, VR = _shift_invert_eigen(system, k, shift)
        else:
            (w, VR), modal = modal, "taken"
        A, B = system.A, system.B

    scale = float(np.abs(w).max()) if w.size else 1.0
    w, VR, partner = _enforce_conjugation(w, VR, scale)
    order = _order_with_vectors(w, VR)
    # partner holds unsorted positions; move both its index and its
    # values to the sorted ones
    partner = np.argsort(order)[partner[order]]
    w = w[order]
    VR = VR[:, order]

    chosen = _select_indices(w, spec, scale)
    sel = np.zeros(w.size, dtype=bool)
    sel[chosen] = True

    # clusters of numerically equal eigenvalues must not straddle the cut;
    # a cluster need not be contiguous in the order (a double pair sorts
    # as lambda, conj, lambda, conj), so each eigenvalue joins the first
    # one within ctol of it
    ctol = CLUSTER_RTOL * max(scale, 1.0)
    cluster_id = (np.abs(w[:, None] - w) <= ctol).argmax(axis=0)
    for c in np.unique(cluster_id):
        members = np.nonzero(cluster_id == c)[0]
        inside = sel[members]
        if inside.any() and not inside.all():
            raise ValidationError(
                "selection splits a cluster of equal eigenvalues near %s; "
                "select the whole cluster" % w[members[0]])

    lambdas = w[chosen]
    V = VR[:, chosen].copy()
    Ut = left_vectors(system, V, lambdas)

    # cluster-wise Gram correction restores U^H B V = I. A cluster's
    # Gram G = U_c^H B V_c is bounded by ||U_c|| ||B V_c||; a G that is
    # small against that bound means the cluster has too few independent
    # eigenvectors. The bound is the cluster's own: ||B|| grows with the
    # mesh of an FE model, and a simple pair's Gram does not.
    BV = B @ V
    sel_cluster = cluster_id[chosen]
    for c in np.unique(sel_cluster):
        cols = np.nonzero(sel_cluster == c)[0]
        G = Ut[:, cols].conj().T @ BV[:, cols]
        svals = la.svdvals(G)
        bound = la.norm(Ut[:, cols]) * la.norm(BV[:, cols])
        if svals[-1] <= 1e-10 * max(bound, 1e-300):
            raise ValidationError(
                "eigenvalue %s is defective (non-semisimple); no "
                "biorthogonal eigenbasis exists" % lambdas[cols[0]])
        Ut[:, cols] = Ut[:, cols] @ la.inv(G).conj().T

    # canonical scaling of one member per pair (Im > 0) and of each real
    # mode, its partner mirrored exactly; the closure and the cluster
    # check leave every partner inside the selection
    position = np.empty(w.size, dtype=int)
    position[chosen] = np.arange(len(chosen))
    pairing = position[partner[chosen]]
    for rep in np.flatnonzero((pairing == np.arange(len(chosen)))
                              | (lambdas.imag > 0)):
        v = V[:, rep]
        nrm = la.norm(v)
        if nrm == 0:
            raise NumericalError("zero eigenvector returned by the solver")
        top = largest_entry(v)
        beta = 1.0 / (nrm * np.exp(1j * np.angle(v[top])))
        V[:, rep] = v * beta
        Ut[:, rep] = Ut[:, rep] / np.conj(beta)
        oth = pairing[rep]
        if oth != rep:
            lambdas[oth] = lambdas[rep].conjugate()
            V[:, oth] = V[:, rep].conjugate()
            Ut[:, oth] = Ut[:, rep].conjugate()

    # residual check against the Frobenius scale of A
    A_fro = (spla.norm(A) if sp.issparse(A) else la.norm(A))
    res_r = res_l = 0.0
    for i in range(len(chosen)):
        rv = (A @ V[:, i]) - lambdas[i] * (B @ V[:, i])
        res_r = max(res_r, la.norm(rv) / max(la.norm(V[:, i]), 1e-300))
        ru = (A.conj().T @ Ut[:, i]) - np.conj(lambdas[i]) * (B.conj().T @ Ut[:, i])
        res_l = max(res_l, la.norm(ru) / max(la.norm(Ut[:, i]), 1e-300))
    if max(res_r, res_l) > RESIDUAL_RTOL * max(A_fro, 1e-300):
        raise NumericalError(
            "eigenpair residual %.3e exceeds %.1e * ||A||_F; the pencil "
            "may be ill conditioned" % (max(res_r, res_l), RESIDUAL_RTOL))

    remaining = [i for i in range(w.size) if i not in set(chosen)]
    if spec["mode"] == "slowest":
        remaining.sort(key=lambda i: (-w[i].real, abs(w[i].imag)))
    outer = w[remaining[:n_outer]] if remaining else np.zeros(0, complex)

    diag = {
        "method": "dense" if dense else "shift-invert",
        "left_vectors": ("closed-form" if system.mech is not None
                         and system.mech.symmetric else "inverse-iteration"),
        "route": (None if dense else "modal" if modal == "taken"
                  else shifted_route(system)),
        "modal": modal,
        "rayleigh": (None if dense or system.mech is None
                     else system._second_order.rayleigh),
        "selection": spec,
        "residual_right": res_r,
        "residual_left": res_l,
        "normalization_error": check_norm_arrays(Ut, B, V),
    }
    return MasterSubspace(lambdas, V, Ut, pairing, outer, diag)


def check_norm_arrays(U, B, V):
    """Max-abs deviation of U^H B V from the identity."""
    G = U.conj().T @ (B @ V)
    return float(np.abs(G - np.eye(G.shape[0])).max())


def check_normalization(master, system):
    """Max-abs deviation of ``U^H B V - I`` for a computed subspace."""
    return check_norm_arrays(master.U, system.B, master.V)
