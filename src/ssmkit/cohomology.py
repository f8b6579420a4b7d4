"""
Invariant manifold expansion by order-by-order solves.

The manifold ``z = W(p)`` and reduced dynamics ``p' = R(p)`` are
homogeneous polynomial series determined by the invariance equation

    B . DW(p) . R(p) = A . W(p) + F(W(p)).

W and R hold one column per monomial, over the sorted exponent tuples
of :mod:`ssmkit.multiindex`. Order 1 is the master eigenpair data:
W_1 = V, R_1 = diag(lambda). At each order i >= 2 the unknowns decouple
across monomials: the column of the monomial at position l, with sorted
exponent tuple (l_1, .., l_i), solves

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
solved once and mirrored, and a monomial that is its own image keeps
the real part of its W column and mirrored R rows, so coefficient
arrays are exactly conjugate symmetric and evaluations at
conjugate-symmetric points are real to rounding.

Every block, here and in ``forcing``, goes through ``solve_shifted``.
The matrix it factors comes from ``model.reduced_shifted``, the one
layer that knows the lift's layout: for a system lifted from a
mechanical model (it carries ``mech``) the "second-order" route solves
with the N/2 matrix ``lam^2 M + lam C + K``, any other system the
"first-order" route with the 2N matrix ``lam B - A``. Dense or sparse,
the matrix takes one path: LU, one ulp off the shift when a pivot is
exactly zero, a residual check at the shift itself, then the removal of
the master directions whose eigenvalue sits on the shift, through
``U^H B``. Each order's diagnostics name the route and count the
columns whose block removed a master direction.
"""

import json
import warnings

import numpy as np

from .errors import NumericalError, OuterResonanceError, ValidationError
from .fileio import decode_column, encode_column
from .model import as_first_order, factorize_near, shifted_route
from .multiindex import (MultiIndexSet, conjugate_permutation,
                         kron_sum_lambdas, tuple_positions)
from .polytensor import apply_kron_sum, compose
from .spectrum import MasterSubspace

__all__ = [
    "ResonanceReport", "classify_resonances", "resonance_tolerance",
    "is_resonant", "check_style", "solve_shifted", "solve_order",
    "compute_manifold", "ManifoldExpansion",
]

STYLES = ("normal-form", "graph", "per-mode")
LAMBDA_MERGE_RTOL = 1e-14
FORMAT = 2  # the manifold file layout ManifoldExpansion.save writes


class ResonanceReport:
    """
    Near-resonances of eigenvalue sums against master and outer modes.

    Attributes
    ----------
    inner : dict
        order -> list of (position, sorted exponent tuple, mode index).
    outer : dict
        order -> list of (position, sorted exponent tuple, outer lambda).
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

    def has_outer(self):
        return any(self.outer.values())

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
    (:func:`is_resonant`) with a master or an outer eigenvalue, one sum
    per monomial.

    ``tol`` is described in :func:`resonance_tolerance`. Returns a
    :class:`ResonanceReport`.
    """
    tol = resonance_tolerance(master, tol)
    lam, outer = master.lambdas, master.outer_lambdas
    inner_flags, outer_flags = {}, {}
    for i in range(2, order + 1):
        factors = MultiIndexSet(i, lam.size).factors
        lam_l = kron_sum_lambdas(lam, i)
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


def solve_shifted(system, master, shift, rhs, what, rhs_scale=1.0):
    """
    Solve ``(shift B - A) X = rhs`` for one (N,) or (N, k) block on the
    matrix ``Q`` of ``model.reduced_shifted``: the N/2 matrix
    ``shift^2 M + shift C + K`` for a system that carries its mechanical
    model, else ``shift B - A``. Dense or sparse, the path is one.

    ``Q`` is factored by ``model.factorize_near``, one ulp off ``shift``
    when a pivot is exactly zero. The solution must satisfy ``Q x = b``
    at ``shift`` itself to 1e-6 relative to ``max(|b|, rhs_scale, 1)``
    (``b`` is ``rhs`` on ``Q``'s rows), else NumericalError names the
    block by ``what``: a singular block is consistent or refused. Then
    each master direction whose eigenvalue lies within
    ``1e-8 max(|lambda_master|, 1)`` of ``shift`` is removed,
    ``X -= v_k (u_k^H B X)``, for autonomous and forced blocks alike.
    The component along the null vector of a block singular at an outer
    eigenvalue is left as the factor gives it: the equation does not
    determine it.

    Returns (X, rcond, removed): rcond is the dense condition estimate
    of the matrix factored (None when it is sparse), removed the number
    of master directions projected out.
    """
    shift = complex(shift)
    solve, rcond, (mat, fold, unfold) = factorize_near(system, shift)
    b = fold(rhs)
    x = solve(b)
    rnorm = float(np.abs(mat @ x - b).max())
    # rnorm <= 1e-6 max(|b|, rhs_scale, 1), |b| taken only when needed
    if not (rnorm <= 1e-6 * max(rhs_scale, 1.0)
            or rnorm <= 1e-6 * np.abs(b).max()):
        raise NumericalError(
            "%s is singular and inconsistent (residual %.3e); the "
            "resonance tolerance likely missed a true resonance"
            % (what, rnorm))
    X = unfold(x, rhs)
    scale = max(float(np.abs(master.lambdas).max(initial=0.0)), 1.0)
    kernel = np.flatnonzero(np.abs(shift - master.lambdas) <= 1e-8 * scale)
    for k in kernel:
        X -= np.multiply.outer(master.V[:, k],
                               master.U[:, k].conj() @ (system.B @ X))
    return X, rcond, kernel.size


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
    (W_i, R_i, info) : two complex ndarrays of shapes (N, C) and (M, C),
        one column per monomial (C = C(M+order-1, order)), and a
        diagnostics dict: the order, the number of merged
        eigenvalue-sum groups, the smallest dense condition estimate,
        the columns whose block removed a master direction
        (``kernel_columns``; ``lstsq_columns`` is always 0) and the
        solve route of ``model.shifted_route``.
    """
    lam = master.lambdas
    M = master.dim
    N = system.N
    B = system.B
    n_col = MultiIndexSet(order, M).size

    C = compose(system.F_coeffs, w_blocks, order, M, nrows=N)
    if order > 2:
        C -= B @ sum(apply_kron_sum(r_blocks[order - j + 1], w_blocks[j],
                                    order, j, M) for j in range(2, order))

    sigma = conjugate_permutation(master.pairing, order)
    # active reduced-dynamics entries: the style's fixed rows plus the
    # (position, mode) pairs flagged as near-resonant
    active = np.zeros((M, n_col), dtype=bool)
    if style == "graph":
        active[:] = True
    elif style == "per-mode":
        active[[int(g) for g in graph_modes]] = True
    for pos, j in report.inner_at(order):
        active[j, pos] = True

    W_i = np.zeros((N, n_col), dtype=complex)
    R_i = np.zeros((M, n_col), dtype=complex)

    # canonical columns (each conjugate orbit solved once); near-equal
    # eigenvalue sums share one factorization
    canonical = np.flatnonzero(sigma >= np.arange(n_col))
    lam_l = kron_sum_lambdas(lam, order)
    scale = max(float(np.abs(lam).max()), 1.0)
    merged = []
    for col in canonical.tolist():
        for entry in merged:
            if abs(entry["lam"] - lam_l[col]) <= LAMBDA_MERGE_RTOL * scale:
                entry["cols"].append(col)
                break
        else:
            merged.append({"lam": complex(lam_l[col]), "cols": [col]})

    V, U = master.V, master.U
    c_scale = float(np.abs(C).max()) if C.size else 1.0

    min_rcond = None
    kernel_cols = 0
    for entry in merged:
        cols = entry["cols"]
        rhs = C[:, cols]
        act = active[:, cols]
        modes = np.flatnonzero(act.any(axis=1))
        if modes.size:
            R_i[np.ix_(modes, cols)] = np.where(
                act[modes], U[:, modes].conj().T @ rhs, 0)
            rhs -= B @ (V @ R_i[:, cols])
        sols, rcond, removed = solve_shifted(
            system, master, entry["lam"], rhs,
            "order-%d block at eigenvalue sum %s" % (order, entry["lam"]),
            rhs_scale=c_scale)
        if rcond is not None:
            min_rcond = rcond if min_rcond is None else min(min_rcond, rcond)
        if removed:
            kernel_cols += len(cols)
        W_i[:, cols] = sols

    # mirror conjugate columns for exact symmetry. A column that is its
    # own image keeps the real part of W, and of R on a real mode's
    # row; the later row of a pair takes the conjugate of the earlier
    own = canonical[sigma[canonical] != canonical]
    W_i[:, sigma[own]] = W_i[:, own].conjugate()
    R_i[:, sigma[own]] = R_i[np.ix_(master.pairing, own)].conjugate()
    fixed = canonical[sigma[canonical] == canonical]
    W_i[:, fixed] = W_i[:, fixed].real
    later = np.flatnonzero(master.pairing < np.arange(M))
    R_i[np.ix_(later, fixed)] = R_i[np.ix_(master.pairing[later],
                                           fixed)].conjugate()
    real = master.pairing == np.arange(M)
    R_i[np.ix_(real, fixed)] = R_i[np.ix_(real, fixed)].real

    # no block takes least squares; the benchmark still reads the counter
    info = {"order": order, "groups": len(merged), "min_rcond": min_rcond,
            "lstsq_columns": 0, "kernel_columns": kernel_cols,
            "route": shifted_route(system)}
    return W_i, R_i, info


def check_style(style, graph_modes, dim):
    """
    Refuse a style outside ``STYLES``, and under "per-mode" a graph
    mode outside the ``dim`` master modes.
    """
    if style not in STYLES:
        raise ValidationError("style must be one of %r" % (STYLES,))
    if style == "per-mode":
        for g in graph_modes:
            if not 0 <= int(g) < dim:
                raise ValidationError("graph mode %r outside 0..%d"
                                      % (g, dim - 1))


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
    check_style(style, graph_modes, master.dim)
    if order < 1:
        raise ValidationError("order must be >= 1")
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


def _pack(block, degree, M):
    """
    The format-2 entry of one coefficient block: its entries other than
    zero (a NaN part counts as nonzero), sorted by row, then by column
    (``np.nonzero`` scans row-major), as binary columns of 1-based rows
    (n,) and sorted factor indices (degree, n) and of complex values
    (n,).
    """
    rows, cols = np.nonzero(block != 0)
    factors = MultiIndexSet(degree, M).factors[:, cols] + 1
    return {"count": int(rows.size),
            "rows": encode_column(rows + 1, "<i4"),
            "factors": encode_column(factors, "<i4"),
            "values": encode_column(block[rows, cols], "<c16")}


def _in_range(arr, what, name, high):
    """ValidationError naming the block unless ``arr`` lies in 1..high."""
    if arr.size and (arr.min() < 1 or arr.max() > high):
        bad = arr[(arr < 1) | (arr > high)][0]
        raise ValidationError("manifold block %s: %s %s outside 1..%d"
                              % (what, name, bad, high))


def _unpack(entry, what, degree, nrows, M):
    """
    A dense (nrows, C(M+degree-1, degree)) block from its :func:`_pack`
    entry. Entries whose factor tuples permute one another name one
    monomial and are summed, in the order stored; an exactly repeated
    (row, tuple) is refused.
    """
    if not isinstance(entry, dict) or not {"count", "rows", "factors",
                                           "values"} <= entry.keys():
        raise ValidationError("manifold block %s: needs count, rows, "
                              "factors and values" % what)
    count = entry["count"]
    if type(count) is not int or count < 0:
        raise ValidationError("manifold block %s: count must be an integer "
                              ">= 0" % what)

    def column(key, dtype, per, need):
        arr = decode_column(entry[key], dtype,
                            "manifold block %s: %s" % (what, key))
        if arr.size != per * count:
            raise ValidationError("manifold block %s: %s: count is %d, %s "
                                  "holds %d" % (what, need, count, key,
                                                arr.size))
        return arr

    rows = column("rows", "<i4", 1, "each entry needs one row")
    factors = column("factors", "<i4", degree, "each entry needs a tuple "
                     "of %d factors" % degree).reshape(degree, count)
    values = column("values", "<c16", 1,
                    "values must be one complex number per entry")
    _in_range(rows, what, "row", nrows)
    _in_range(factors, what, "factor", M)
    size = MultiIndexSet(degree, M).size
    flat = ((rows.astype(np.int64) - 1) * size
            + tuple_positions(factors - 1, M))
    block = np.zeros((nrows, size), dtype=complex)
    ordered = np.sort(flat)
    if (ordered[1:] != ordered[:-1]).all():
        block.reshape(-1)[flat] = values
        return block
    # tuples that permute one another: their values are summed in the
    # order stored, unless one repeats a (row, tuple) exactly
    if np.unique(np.vstack([rows, factors]), axis=1).shape[1] < count:
        raise ValidationError("manifold block %s: a (row, tuple) entry is "
                              "given twice" % what)
    order = np.argsort(flat, kind="stable")
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    block.reshape(-1)[ordered[starts]] = np.add.reduceat(values[order],
                                                         starts)
    return block


def _check_master(master, N, M):
    """ValidationError unless the master fits the blocks: V and U of
    shape (state_dim, dim), dim lambdas and dim pairing entries in
    0..dim-1."""
    for name, mat in (("V", master.V), ("U", master.U)):
        if mat.shape != (N, M):
            raise ValidationError(
                "manifold master %s has shape %s, not (state_dim, dim) = %s"
                % (name, mat.shape, (N, M)))
    for name, arr in (("lambdas", master.lambdas),
                      ("pairing", master.pairing)):
        if arr.shape != (M,):
            raise ValidationError("manifold master has %d %s for dim %d"
                                  % (arr.size, name, M))
    if M and (master.pairing.min() < 0 or master.pairing.max() >= M):
        raise ValidationError("manifold master pairing %s leaves 0..%d"
                              % (master.pairing.tolist(), M - 1))


class ManifoldExpansion:
    """
    Polynomial manifold ``z = W(p)`` with reduced dynamics ``p' = R(p)``.

    W and R are dicts of dense coefficient arrays keyed by degree, one
    column per monomial over the sorted exponent tuples of
    :class:`~ssmkit.multiindex.MultiIndexSet`: W[i] has shape (N, C) and
    R[i] shape (M, C), C = C(M+i-1, i). Conjugate-symmetric by
    construction when the master set is closed under conjugation.
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

    def _powers(self, p):
        """The monomial tables of orders 1..order at ``p``, (C,) or
        (C, n) each: every table is the previous one gathered at each
        tuple's prefix and multiplied by its last factor."""
        table = np.ones((1,) + p.shape[1:], dtype=complex)
        for i in range(1, self.order + 1):
            mis = MultiIndexSet(i, self.dim)
            table = table[mis.parent] * p[mis.last]
            yield table

    def _series(self, blocks, p, rows):
        """sum_i blocks[i][rows] p^alpha, one product per order."""
        out = 0
        for i, table in enumerate(self._powers(np.asarray(p, complex)), 1):
            block = blocks[i] if rows is None else blocks[i][rows]
            out = out + block @ table
        return out

    def evaluate(self, p, rows=None):
        """
        Embed reduced coordinates: z = sum_i W_i p^alpha, shape (N,) at
        a point (M,) and (N, n) on a batch (M, n) of columns. Only the
        state indices in ``rows`` are computed when it is given.
        """
        return self._series(self.W, p, rows)

    def reduced_rhs(self, p):
        """Reduced vector field p' = sum_i R_i p^alpha: (M,) or (M, n)."""
        return self._series(self.R, p, None)

    def derivative(self, p, v):
        """
        The directional derivative DW(p) v, (N,) at a point and (N, n)
        on a batch of columns of p and v, without the Jacobian: along
        v, each order's monomials differentiate to
        ``d(q p_k) = dq p_k + q v_k`` from the previous order's.
        """
        p = np.asarray(p, dtype=complex)
        v = np.asarray(v, dtype=complex)
        table = np.ones((1,) + p.shape[1:], dtype=complex)
        deriv = np.zeros_like(table)
        out = 0
        for i in range(1, self.order + 1):
            mis = MultiIndexSet(i, self.dim)
            prev = table[mis.parent]
            deriv = deriv[mis.parent] * p[mis.last] + prev * v[mis.last]
            table = prev * p[mis.last]
            out = out + self.W[i] @ deriv
        return out

    def tangent(self, p):
        """Jacobian dW/dp, (N, M) at a point and (N, M, n) on a batch:
        the derivatives along every e_j, as one batch of
        :meth:`derivative`."""
        p = np.asarray(p, dtype=complex)
        M = self.dim
        n = p[0].size
        points = np.repeat(p.reshape(M, 1, n), M, axis=1).reshape(M, -1)
        units = np.repeat(np.eye(M)[:, :, None], n, axis=2).reshape(M, -1)
        return self.derivative(points, units).reshape(
            (self.N, M) + p.shape[1:])

    def coefficient(self, degree, row, exponents):
        """One W coefficient by (degree, row, exponent tuple in any
        order): the monomial's full coefficient."""
        mis = MultiIndexSet(degree, self.dim)
        return self.W[degree][row, mis.position(tuple(exponents))]

    def reduced_coefficient(self, degree, mode, exponents):
        """One R coefficient by (degree, mode row, exponent tuple in any
        order): the monomial's full coefficient."""
        mis = MultiIndexSet(degree, self.dim)
        return self.R[degree][mode, mis.position(tuple(exponents))]

    def to_dict(self):
        """
        JSON-ready dict, format 2 (``"format": 2``). Each W and R degree
        holds its nonzero coefficients, sorted by row, then by column,
        each under its sorted factor tuple, as
        ``{"count": n, "rows": <"<i4" (n,)>, "factors": <"<i4" (degree,
        n)>, "values": <"<c16" (n,)>}``, rows and factor indices 1-based;
        each ``<...>`` is a base64 binary column of
        ``fileio.encode_column``. The master's V and U are stored by
        ``MasterSubspace.to_dict``. Every stored value is exact.
        """
        M = self.dim
        return {
            "format": FORMAT,
            "kind": "manifold-expansion",
            "order": self.order,
            "style": self.style,
            "dim": M,
            "state_dim": self.N,
            "master": self.master.to_dict(),
            "W": {str(i): _pack(self.W[i], i, M) for i in sorted(self.W)},
            "R": {str(i): _pack(self.R[i], i, M) for i in sorted(self.R)},
        }

    def save(self, path):
        """
        Write :meth:`to_dict` as indent-1 JSON with sorted keys and a
        final newline, in one write. The same expansion always gives the
        same bytes. :meth:`load` rejects what :meth:`from_dict` rejects.
        """
        text = json.dumps(self.to_dict(), indent=1, sort_keys=True)
        with open(path, "w") as fh:
            fh.write(text + "\n")

    @classmethod
    def from_dict(cls, data, system=None):
        """
        Rebuild from :meth:`to_dict` data; stored coefficients and the
        master's V and U come back bit for bit, unstored ones as zeros.
        Data without ``"format": 2`` (files of earlier versions are
        format 1) raises ValidationError: recompute such a file. Tuples
        of one block that permute one another, as files of versions that
        stored every ordering kept them, are read as one monomial whose
        coefficient is their sum. A W or R block whose columns are not
        base64 or do not hold ``count`` entries, with a row outside
        1..nrows, a factor outside 1..dim, or a (row, tuple) given twice
        in the same order raises ValidationError naming the
        block (``W3``, ``R2``); so does a master whose V or U is not
        (state_dim, dim) or whose lambdas or pairing do not have dim
        entries in range. So does an ``order`` that is not an integer
        >= 1, a W or R that does not hold exactly the degrees 1..order,
        and a ``style`` outside ``STYLES``. The stored U is the left
        family of the pencil the data was computed on, so ``system``
        must be that pencil.
        """
        fmt = data.get("format", 1) if isinstance(data, dict) else None
        if fmt != FORMAT:
            raise ValidationError(
                "manifold data is format %r, and only format %d is read; "
                "recompute the file with this version" % (fmt, FORMAT))
        order = data["order"]
        if type(order) is not int or order < 1:
            raise ValidationError("manifold order must be an integer >= 1, "
                                  "not %r" % (order,))
        if data["style"] not in STYLES:
            raise ValidationError("manifold style %r is not one of %r"
                                  % (data["style"], STYLES))
        for name in ("W", "R"):
            held = set(data[name])
            if (len(held) != order
                    or held != set(map(str, range(1, order + 1)))):
                raise ValidationError(
                    "manifold %s holds the degrees %s, not 1..%d"
                    % (name, sorted(data[name], key=str), order))
        M = int(data["dim"])
        N = int(data["state_dim"])
        master = MasterSubspace.from_dict(data["master"])
        _check_master(master, N, M)
        W = {int(i): _unpack(e, "W" + i, int(i), N, M)
             for i, e in data["W"].items()}
        R = {int(i): _unpack(e, "R" + i, int(i), M, M)
             for i, e in data["R"].items()}
        return cls(system, master, order, data["style"], W, R, None)

    @classmethod
    def load(cls, path, system=None):
        """Read a file written by :meth:`save`; see :meth:`from_dict`."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh), system=system)

    def __repr__(self):
        return ("ManifoldExpansion(order=%d, dim=%d, N=%d, style=%r)"
                % (self.order, self.dim, self.N, self.style))
