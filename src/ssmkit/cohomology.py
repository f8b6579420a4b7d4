"""
Invariant manifold expansion by order-by-order solves.

The manifold ``z = W(p)`` and reduced dynamics ``p' = R(p)`` are
homogeneous polynomial series determined by the invariance equation

    B . DW(p) . R(p) = A . W(p) + F(W(p)).

Order 1 is the master eigenpair data: W_1 = V, R_1 = diag(lambda). At
each order i >= 2 the unknowns decouple across monomials: for monomial
position l with exponent tuple (l_1, .., l_i) the coefficient column
solves

    (lam_l B - A) w_l = c_l - B V r_l,       lam_l = sum_k lambda_{l_k}

where c_l collects the nonlinearity composed with lower orders minus
the lower-order cross terms B W_j R_(i-j+1) lifted to order i. The
reduced-dynamics column r_l is the style decision:

* "normal-form": r_l is zero except at modes flagged as near-resonant
  with lam_l, where r_jl = u_j^H c_l removes the unsolvable component.
* "graph": r_l = U^H c_l entirely, which keeps the parametrization a
  graph over the master modes.
* "per-mode": graph rows for a chosen subset of modes, normal-form
  behaviour for the rest.

Monomials whose exponent tuples are conjugate images of each other are
solved once and mirrored, so coefficient arrays are exactly conjugate
symmetric and evaluations at conjugate-symmetric points are exactly
real.

Every block, here and in ``forcing``, goes through ``solve_shifted``:
dense LU unless the condition estimate marks the block singular, sparse
LU unless its residual fails, else minimum-norm least squares; on every
path master directions whose eigenvalue sits on the shift are projected
out through ``U^H B``.
"""

import json
import warnings

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError, OuterResonanceError, ValidationError
from .model import as_first_order
from .multiindex import MultiIndexSet, conjugate_permutation, decode_positions
from .polytensor import apply_kron_sum, compose
from .spectrum import MasterSubspace

__all__ = [
    "ResonanceReport", "classify_resonances", "resonance_tolerance",
    "is_resonant", "solve_shifted", "solve_order", "compute_manifold",
    "ManifoldExpansion",
]

STYLES = ("normal-form", "graph", "per-mode")
RCOND_SINGULAR = 1e-12
LAMBDA_MERGE_RTOL = 1e-14


class ResonanceReport:
    """
    Near-resonances of eigenvalue sums against master and outer modes.

    Attributes
    ----------
    inner : dict
        order -> list of (position, exponent tuple, mode index).
    outer : dict
        order -> list of (position, exponent tuple, outer lambda).
    params : dict
        The tolerance parameters that produced the report.
    """

    def __init__(self, inner, outer, params):
        self.inner = inner
        self.outer = outer
        self.params = params

    def inner_at(self, order):
        """Set of (position, mode) pairs flagged at one order."""
        return {(pos, j) for pos, _, j in self.inner.get(order, [])}

    def outer_at(self, order):
        return self.outer.get(order, [])

    def has_outer(self):
        return any(self.outer.values())

    def to_dict(self):
        return {
            "params": self.params,
            "inner": {str(o): [[pos, list(t), j] for pos, t, j in flags]
                      for o, flags in self.inner.items()},
            "outer": {str(o): [[pos, list(t), lam.real, lam.imag]
                               for pos, t, lam in flags]
                      for o, flags in self.outer.items()},
        }

    def describe(self):
        lines = []
        for o in sorted(self.inner):
            for pos, t, j in self.inner[o]:
                lines.append(
                    "order %d: monomial %s resonates with master mode %d"
                    % (o, "".join("p%d" % (k + 1) for k in t), j + 1))
        for o in sorted(self.outer):
            for pos, t, lam in self.outer[o]:
                lines.append(
                    "order %d: monomial %s resonates with outer eigenvalue %s"
                    % (o, "".join("p%d" % (k + 1) for k in t), lam))
        return lines


def resonance_tolerance(master, tol=None):
    """
    Fill in the resonance tolerance: "rel" (default 1e-3), "slack"
    (default 1.0) and "abs" (default 1e-8 times "scale", the largest
    screened eigenvalue magnitude), plus "re_span", the largest
    ``|Re lambda|`` over the master set.
    """
    tol = dict(tol or {})
    lam = master.lambdas
    mags = np.abs(np.concatenate([lam, master.outer_lambdas]))
    scale = float(mags.max()) if mags.size else 1.0
    tol_abs = (float(tol["abs"]) if tol.get("abs") is not None
               else 1e-8 * max(scale, 1e-300))
    return {"rel": float(tol.get("rel", 1e-3)),
            "slack": float(tol.get("slack", 1.0)),
            "abs": tol_abs, "scale": scale,
            "re_span": float(np.abs(lam.real).max()) if lam.size else 0.0}


def is_resonant(lam_l, mu, order, tol):
    """
    Near-resonance of an order-``order`` eigenvalue sum with ``mu``::

        |Im lam_l - Im mu| <= abs + rel * |mu|
        |Re lam_l - Re mu| <= abs + rel * |mu| + slack * (order+1) * re_span

    with ``tol`` from :func:`resonance_tolerance`. The real-part slack
    accounts for damping: sums of lightly damped eigenvalues drift off
    the imaginary axis linearly in the order, and resonance is a
    statement about frequencies. A forcing frequency nu enters as the
    order-1 sum ``1j * nu``. Broadcasts over arrays.
    """
    bound = tol["abs"] + tol["rel"] * np.abs(mu)
    re_slack = tol["slack"] * (order + 1) * tol["re_span"]
    return ((np.abs(np.imag(lam_l) - np.imag(mu)) <= bound)
            & (np.abs(np.real(lam_l) - np.real(mu)) <= bound + re_slack))


def classify_resonances(master, order, tol=None):
    """
    Flag the eigenvalue sums of orders 2..``order`` that are near-resonant
    (:func:`is_resonant`) with a master or an outer eigenvalue.

    ``tol`` is described in :func:`resonance_tolerance`. Returns a
    :class:`ResonanceReport`.
    """
    tol = resonance_tolerance(master, tol)
    lam, outer = master.lambdas, master.outer_lambdas
    inner_flags, outer_flags = {}, {}
    for i in range(2, order + 1):
        factors = decode_positions(np.arange(lam.size ** i), i, lam.size)
        lam_l = 0
        for row in factors:
            lam_l = lam_l + lam[row]
        hits_i = np.nonzero(is_resonant(lam_l[:, None], lam, i, tol))
        hits_o = np.nonzero(is_resonant(lam_l[:, None], outer, i, tol))
        flags_i = [(int(p), tuple(factors[:, p].tolist()), int(j))
                   for p, j in zip(*hits_i)]
        flags_o = [(int(p), tuple(factors[:, p].tolist()), complex(outer[j]))
                   for p, j in zip(*hits_o)]
        if flags_i:
            inner_flags[i] = flags_i
        if flags_o:
            outer_flags[i] = flags_o
    return ResonanceReport(inner_flags, outer_flags,
                           {key: tol[key] for key in ("rel", "slack", "abs")})


def solve_shifted(system, master, shift, rhs, scale, what, rhs_scale=1.0):
    """
    Solve ``(shift B - A) X = rhs`` for one (N,) or (N, k) block.

    A dense block is singular when LAPACK's condition estimate is at most
    ``RCOND_SINGULAR``, a sparse one when its sparse LU fails, is not
    finite or leaves a relative residual above 1e-6. A singular block
    takes the minimum-norm least-squares solution and must then satisfy
    the system to 1e-6 relative to ``max(|rhs|, rhs_scale, 1)``, else
    NumericalError names the block by ``what``. On every path, each
    master direction whose eigenvalue lies within ``1e-8 * scale`` of
    ``shift`` is removed: ``X -= v_k (u_k^H B X)``.

    Returns (X, rcond, singular): rcond is the dense condition estimate
    (None for sparse pencils), singular whether least squares was used.
    """
    A, B = system.A, system.B
    if sp.issparse(A) or sp.issparse(B):
        mat = (shift * B - A).tocsc().astype(complex)
        rcond = None
        try:
            X = spla.splu(mat).solve(rhs)
            singular = (not np.isfinite(X).all()
                        or np.abs(mat @ X - rhs).max()
                        > 1e-6 * max(np.abs(rhs).max(), 1.0))
        except RuntimeError:
            singular = True
        if singular:
            mat = mat.toarray()
    else:
        mat = shift * np.asarray(B, dtype=complex) - A
        with warnings.catch_warnings():
            # exactly singular blocks are expected at resonances and are
            # routed to least squares via rcond, so LU may grumble
            warnings.simplefilter("ignore", la.LinAlgWarning)
            lu, piv = la.lu_factor(mat)
        anorm = np.linalg.norm(mat, 1)
        gecon = la.get_lapack_funcs("gecon", (mat,))
        rcond = float(gecon(lu, anorm)[0]) if anorm > 0 else 0.0
        singular = rcond <= RCOND_SINGULAR
        if not singular:
            X = la.lu_solve((lu, piv), rhs)
    if singular:
        X = la.lstsq(mat, rhs, cond=RCOND_SINGULAR, lapack_driver="gelsd")[0]
    lam, V, U = master.lambdas, master.V, master.U
    for k in range(master.dim):
        if abs(shift - lam[k]) <= 1e-8 * scale:
            X -= np.multiply.outer(V[:, k], U[:, k].conj() @ (B @ X))
    if singular:
        rnorm = float(np.abs(mat @ X - rhs).max())
        if rnorm > 1e-6 * max(np.abs(rhs).max(), rhs_scale, 1.0):
            raise NumericalError(
                "%s is singular and inconsistent (residual %.3e); the "
                "resonance tolerance likely missed a true resonance"
                % (what, rnorm))
    return X, rcond, singular


def solve_order(system, master, w_blocks, r_blocks, order, style,
                report, graph_modes=()):
    """
    Solve one order of the invariance equation.

    Parameters
    ----------
    system : FirstOrderSystem
    master : MasterSubspace
    w_blocks, r_blocks : dict
        Lower-order coefficient arrays, keyed by degree (1..order-1).
    order : int
        The order to solve (>= 2).
    style : str
        "normal-form", "graph" or "per-mode".
    report : ResonanceReport
        Decides which reduced-dynamics entries are active.
    graph_modes : sequence of int, optional
        Modes given full graph rows under "per-mode".

    Returns
    -------
    (W_i, R_i, info) : two complex ndarrays of shapes (N, M**order) and
        (M, M**order), and a diagnostics dict.
    """
    lam = master.lambdas
    M = master.dim
    N = system.N
    B = system.B
    mis = MultiIndexSet(order, M)
    n_pos = mis.size

    C = compose(system.F_coeffs, w_blocks, order, M, nrows=N)
    for j in range(2, order):
        C -= B @ apply_kron_sum(r_blocks[order - j + 1], w_blocks[j],
                                order, j, M)

    sigma = conjugate_permutation(master.pairing, order)
    # reduced-dynamics rows: the style's fixed rows plus flagged modes
    fixed = (set(range(M)) if style == "graph" else
             {int(g) for g in graph_modes} if style == "per-mode" else set())
    flagged = {}
    for pos, j in report.inner_at(order):
        flagged.setdefault(pos, set()).add(j)

    W_i = np.zeros((N, n_pos), dtype=complex)
    R_i = np.zeros((M, n_pos), dtype=complex)

    # canonical positions (each conjugate orbit solved once)
    canonical = [pos for pos in range(n_pos) if sigma[pos] >= pos]

    # group by sorted exponent multiset so equal eigenvalue sums share
    # a factorization, then merge near-equal sums across multisets
    groups = {}
    for pos in canonical:
        groups.setdefault(tuple(sorted(mis.index_tuple(pos))), []).append(pos)
    scale = max(float(np.abs(lam).max()), 1.0)
    merged = []
    for key in sorted(groups):
        lam_l = complex(sum(lam[k] for k in key))
        for entry in merged:
            if abs(entry["lam"] - lam_l) <= LAMBDA_MERGE_RTOL * scale:
                entry["pos"].extend(groups[key])
                break
        else:
            merged.append({"lam": lam_l, "pos": list(groups[key])})

    V, U = master.V, master.U
    c_scale = float(np.abs(C).max()) if C.size else 1.0

    min_rcond = None
    lstsq_cols = 0
    for entry in merged:
        positions = entry["pos"]
        rhs = np.empty((N, len(positions)), dtype=complex)
        for col, pos in enumerate(positions):
            c = C[:, pos]
            r = np.zeros(M, dtype=complex)
            for j in sorted(fixed | flagged.get(pos, set())):
                r[j] = np.vdot(U[:, j], c)
            R_i[:, pos] = r
            rhs[:, col] = c - B @ (V @ r)
        sols, rcond, singular = solve_shifted(
            system, master, entry["lam"], rhs, scale,
            "order-%d block at eigenvalue sum %s" % (order, entry["lam"]),
            rhs_scale=c_scale)
        if rcond is not None:
            min_rcond = rcond if min_rcond is None else min(min_rcond, rcond)
        if singular:
            lstsq_cols += len(positions)
        W_i[:, positions] = sols

    # mirror conjugate positions for exact symmetry
    pairing = master.pairing
    for pos in canonical:
        mir = sigma[pos]
        if mir != pos:
            W_i[:, mir] = W_i[:, pos].conjugate()
            R_i[:, mir] = R_i[pairing, pos].conjugate()

    info = {"order": order, "groups": len(merged), "min_rcond": min_rcond,
            "lstsq_columns": lstsq_cols}
    return W_i, R_i, info


def compute_manifold(system, master, order, style="normal-form",
                     graph_modes=(), tol=None, on_outer=None):
    """
    Expand the invariant manifold over a master subspace.

    Parameters
    ----------
    system : FirstOrderSystem
    master : MasterSubspace
    order : int
        Polynomial order of the expansion (>= 1).
    style : {"normal-form", "graph", "per-mode"}, optional
        Parametrization style, see the module docstring.
    graph_modes : sequence of int, optional
        Only for "per-mode": master modes whose reduced-dynamics rows
        are kept full.
    tol : dict, optional
        Resonance tolerance, see classify_resonances.
    on_outer : {"error", "warn"}, optional
        What to do when an outer resonance is flagged. Defaults to
        "error" under "normal-form" (the expansion is invalid there)
        and "warn" otherwise.

    Returns
    -------
    ManifoldExpansion

    Raises
    ------
    OuterResonanceError
        Under on_outer="error" when an eigenvalue sum collides with an
        eigenvalue outside the master set.
    """
    system = as_first_order(system)
    if style not in STYLES:
        raise ValidationError("style must be one of %r" % (STYLES,))
    if order < 1:
        raise ValidationError("order must be >= 1")
    if style == "per-mode":
        for g in graph_modes:
            if not 0 <= int(g) < master.dim:
                raise ValidationError("graph mode %r outside 0..%d"
                                      % (g, master.dim - 1))
    report = classify_resonances(master, order, tol)
    if on_outer is None:
        on_outer = "error" if style == "normal-form" else "warn"
    if on_outer not in ("error", "warn"):
        raise ValidationError("on_outer must be 'error' or 'warn'")
    if report.has_outer():
        lines = [ln for ln in report.describe() if "outer" in ln]
        if on_outer == "error":
            pairs = [(pos, lam) for o in sorted(report.outer)
                     for pos, _, lam in report.outer[o]]
            raise OuterResonanceError(
                "outer resonance obstructs the expansion:\n  "
                + "\n  ".join(lines), pairs=pairs)
        warnings.warn("outer resonance detected; the manifold expansion "
                      "continues but its domain of validity shrinks:\n  "
                      + "\n  ".join(lines))

    M = master.dim
    W = {1: master.V.copy()}
    R = {1: np.diag(master.lambdas).astype(complex)}
    infos = []
    for i in range(2, order + 1):
        W_i, R_i, info = solve_order(system, master, W, R, i, style,
                                     report, graph_modes)
        W[i] = W_i
        R[i] = R_i
        infos.append(info)
    return ManifoldExpansion(system, master, order, style, W, R, report,
                             {"orders": infos})


class ManifoldExpansion:
    """
    Polynomial manifold ``z = W(p)`` with reduced dynamics ``p' = R(p)``.

    W and R are dicts of dense coefficient arrays keyed by degree: W[i]
    has shape (N, M**i) over Kronecker monomial columns, R[i] shape
    (M, M**i). Conjugate-symmetric by construction when the master set
    is closed under conjugation.
    """

    def __init__(self, system, master, order, style, W, R, resonances,
                 diagnostics=None):
        self.system = system
        self.master = master
        self.order = order
        self.style = style
        self.W = W
        self.R = R
        self.resonances = resonances
        self.diagnostics = dict(diagnostics or {})

    @property
    def dim(self):
        return self.master.dim

    @property
    def N(self):
        return self.W[1].shape[0]

    def evaluate(self, p):
        """Embed reduced coordinates: z = sum_i W_i p^(kron i)."""
        p = np.asarray(p, dtype=complex).reshape(-1)
        out = np.zeros(self.N, dtype=complex)
        kp = np.ones(1, dtype=complex)
        for i in range(1, self.order + 1):
            kp = np.kron(kp, p)
            out = out + self.W[i] @ kp
        return out

    def reduced_rhs(self, p):
        """Reduced vector field: p' = sum_i R_i p^(kron i)."""
        p = np.asarray(p, dtype=complex).reshape(-1)
        out = np.zeros(self.dim, dtype=complex)
        kp = np.ones(1, dtype=complex)
        for i in range(1, self.order + 1):
            kp = np.kron(kp, p)
            out = out + self.R[i] @ kp
        return out

    def tangent(self, p):
        """Jacobian dW/dp at p, shape (N, M)."""
        p = np.asarray(p, dtype=complex).reshape(-1)
        M = self.dim
        out = np.zeros((self.N, M), dtype=complex)
        for i in range(1, self.order + 1):
            if i == 1:
                out += self.W[1]
                continue
            blk = self.W[i].reshape((self.N,) + (M,) * i)
            for k in range(i):
                # contract all slots but k with p
                axes = list(range(1, i + 1))
                sub = blk
                shift = 0
                for s, ax in enumerate(axes):
                    if s == k:
                        continue
                    sub = np.tensordot(sub, p, axes=([ax - shift], [0]))
                    shift += 1
                out += sub
        return out

    def coefficient(self, degree, row, exponents):
        """One W coefficient by (degree, row, exponent tuple)."""
        mis = MultiIndexSet(degree, self.dim)
        return self.W[degree][row, mis.position(tuple(exponents))]

    def reduced_coefficient(self, degree, mode, exponents):
        """One R coefficient by (degree, mode row, exponent tuple)."""
        mis = MultiIndexSet(degree, self.dim)
        return self.R[degree][mode, mis.position(tuple(exponents))]

    def to_dict(self):
        """JSON-ready dict; polynomial data as sparse 1-based triplets."""
        def pack(block, degree):
            mis = MultiIndexSet(degree, self.dim)
            entries = []
            rows, cols = np.nonzero(np.abs(block) > 0)
            order_idx = np.lexsort((cols, rows))
            for k in order_idx:
                r, c = int(rows[k]), int(cols[k])
                t = mis.index_tuple(c)
                v = block[r, c]
                entries.append([r + 1, [i + 1 for i in t], v.real, v.imag])
            return entries

        return {
            "kind": "manifold-expansion",
            "order": self.order,
            "style": self.style,
            "dim": self.dim,
            "state_dim": self.N,
            "master": self.master.to_dict(),
            "W": {str(i): pack(self.W[i], i) for i in sorted(self.W)},
            "R": {str(i): pack(self.R[i], i) for i in sorted(self.R)},
            "resonances": self.resonances.to_dict() if self.resonances else None,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_dict(cls, data, system=None):
        M = int(data["dim"])
        N = int(data["state_dim"])
        master = MasterSubspace.from_dict(data["master"])

        def unpack(entries, degree, nrows):
            mis = MultiIndexSet(degree, M)
            block = np.zeros((nrows, mis.size), dtype=complex)
            for row, t, re, im in entries:
                pos = mis.position(tuple(i - 1 for i in t))
                block[row - 1, pos] = re + 1j * im
            return block

        W = {int(i): unpack(e, int(i), N) for i, e in data["W"].items()}
        R = {int(i): unpack(e, int(i), M) for i, e in data["R"].items()}
        return cls(system, master, int(data["order"]), data["style"], W, R,
                   None)

    @classmethod
    def load(cls, path, system=None):
        with open(path) as fh:
            return cls.from_dict(json.load(fh), system=system)

    def __repr__(self):
        return ("ManifoldExpansion(order=%d, dim=%d, N=%d, style=%r)"
                % (self.order, self.dim, self.N, self.style))
