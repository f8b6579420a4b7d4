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
import math
import os
import warnings

import numpy as np

from .errors import (NumericalError, OuterResonanceError, ValidationError,
                     as_index)
from .model import as_first_order, factorize_near, shifted_route
from .multiindex import (MultiIndexSet, conjugate_permutation,
                         kron_sum_lambdas)
from .polytensor import apply_kron_sum, compose
from .spectrum import MasterSubspace

__all__ = [
    "ResonanceReport", "classify_resonances", "resonance_tolerance",
    "is_resonant", "check_style", "solve_shifted", "solve_order",
    "compute_manifold", "ManifoldExpansion",
]

STYLES = ("normal-form", "graph", "per-mode")
LAMBDA_MERGE_RTOL = 1e-14
FORMAT = 3  # the manifold file layout ManifoldExpansion.save writes
# the near-resonance screen of is_resonant: the relative and real-part
# slack factors, and the absolute floor per unit of the largest screened
# eigenvalue magnitude
RESONANCE_REL = 1e-3
RESONANCE_SLACK = 1.0
RESONANCE_ABS = 1e-8


class ResonanceReport:
    """
    Near-resonances of eigenvalue sums against master and outer modes.

    Attributes
    ----------
    inner : dict
        order -> list of (position, sorted exponent tuple, mode index).
    outer : dict
        order -> list of (position, sorted exponent tuple, outer lambda).
    """

    def __init__(self, inner, outer):
        self.inner = inner
        self.outer = outer

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


def resonance_tolerance(master):
    """
    The screen's terms that depend on the master subspace: "abs",
    ``RESONANCE_ABS`` times the largest screened eigenvalue magnitude,
    and "re_span", the largest ``|Re lambda|`` over the master set.
    """
    lam = master.lambdas
    mags = np.abs(np.concatenate([lam, master.outer_lambdas]))
    scale = float(mags.max()) if mags.size else 1.0
    return {"abs": RESONANCE_ABS * max(scale, 1e-300),
            "re_span": float(np.abs(lam.real).max()) if lam.size else 0.0}


def is_resonant(lam_l, mu, order, tol):
    """
    Near-resonance of an order-``order`` eigenvalue sum with ``mu``::

        |Im lam_l - Im mu| <= abs + rel * |mu|
        |Re lam_l - Re mu| <= abs + rel * |mu| + slack * (order+1) * re_span

    with rel and slack the constants ``RESONANCE_REL`` (1e-3) and
    ``RESONANCE_SLACK`` (1.0), and ``tol`` from
    :func:`resonance_tolerance`. The real-part slack accounts for
    damping: sums of lightly damped eigenvalues drift off the imaginary
    axis linearly in the order, and resonance is a statement about
    frequencies. A forcing frequency nu enters as the order-1 sum
    ``1j * nu``. Broadcasts over arrays.
    """
    bound = tol["abs"] + RESONANCE_REL * np.abs(mu)
    re_slack = RESONANCE_SLACK * (order + 1) * tol["re_span"]
    return ((np.abs(np.imag(lam_l) - np.imag(mu)) <= bound)
            & (np.abs(np.real(lam_l) - np.real(mu)) <= bound + re_slack))


def classify_resonances(master, order):
    """
    Flag the eigenvalue sums of orders 2..``order`` that are near-resonant
    (:func:`is_resonant`) with a master or an outer eigenvalue, one sum
    per monomial. Returns a :class:`ResonanceReport`.
    """
    tol = resonance_tolerance(master)
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
    return ResonanceReport(inner_flags, outer_flags)


def solve_shifted(system, master, shift, rhs, what, rhs_scale=1.0):
    """
    Solve ``(shift B - A) X = rhs`` for one (N,) or (N, k) block on the
    matrix ``Q`` of ``model.reduced_shifted``: the N/2 matrix
    ``shift^2 M + shift C + K`` for a system that carries its mechanical
    model, else ``shift B - A``. Dense or sparse, the path is one.

    ``Q`` is factored by ``model.factorize_near``, whose factor one ulp
    off ``shift``, when a pivot is exactly zero, is accepted. The
    solution must satisfy ``Q x = b`` at ``shift`` itself to 1e-6
    relative to ``max(|b|, rhs_scale, 1)`` (``b`` is ``rhs`` on ``Q``'s
    rows), else NumericalError names the block by ``what``: a singular
    block is consistent or refused. Then each master direction whose
    eigenvalue lies within ``1e-8 max(|lambda_master|, 1)`` of ``shift``
    is removed, ``X -= v_k (u_k^H B X)``, for autonomous and forced
    blocks alike.
    The component along the null vector of a block singular at an outer
    eigenvalue is left as the factor gives it: the equation does not
    determine it.

    Returns (X, rcond, removed): rcond is the dense condition estimate
    of the matrix factored (None when it is sparse), removed the number
    of master directions projected out.
    """
    shift = complex(shift)
    solve, rcond, _, (mat, fold, unfold) = factorize_near(system, shift)
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
            if not 0 <= as_index(g, "a graph mode") < dim:
                raise ValidationError("graph mode %r outside 0..%d"
                                      % (g, dim - 1))


def compute_manifold(system, master, order, style="normal-form",
                     graph_modes=()):
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

    Returns
    -------
    ManifoldExpansion

    Raises
    ------
    OuterResonanceError
        Under "normal-form", when an eigenvalue sum collides with an
        eigenvalue outside the master set: the expansion is invalid
        there. The other styles warn and continue.
    """
    system = as_first_order(system)
    check_style(style, graph_modes, master.dim)
    order = as_index(order, "order")
    if order < 1:
        raise ValidationError("order must be >= 1")
    report = classify_resonances(master, order)
    if report.has_outer():
        lines = [ln for ln in report.describe() if "outer" in ln]
        if style == "normal-form":
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


def _check_header(data):
    """
    ValidationError unless ``data`` holds the header fields of format 3:
    an integer ``order`` >= 1, a ``style`` of ``STYLES`` and integers
    1 <= ``dim`` <= ``state_dim``. Data of formats 1 and 2 is refused
    with its format named: recompute such a file.
    """
    fmt = data.get("format", 1) if isinstance(data, dict) else None
    if fmt != FORMAT:
        raise ValidationError(
            "manifold data is format %r, and only format %d is read; "
            "recompute the file with this version" % (fmt, FORMAT))
    order = data.get("order")
    if type(order) is not int or order < 1:
        raise ValidationError("manifold order must be an integer >= 1, "
                              "not %r" % (order,))
    if data.get("style") not in STYLES:
        raise ValidationError("manifold style %r is not one of %r"
                              % (data.get("style"), STYLES))
    dim, state_dim = data.get("dim"), data.get("state_dim")
    if not (type(dim) is int and type(state_dim) is int
            and 1 <= dim <= state_dim):
        raise ValidationError("manifold dim %r and state_dim %r must be "
                              "integers with 1 <= dim <= state_dim"
                              % (dim, state_dim))


def _check_array(arr, what, shape=None, named=None):
    """ValidationError naming ``what`` unless ``arr`` is a complex128
    array, of ``shape`` when given (``named`` spells it in header
    fields)."""
    if not isinstance(arr, np.ndarray) or arr.dtype != complex:
        raise ValidationError("manifold %s is %s, not a complex128 array"
                              % (what, getattr(arr, "dtype",
                                               type(arr).__name__)))
    if shape is not None and arr.shape != shape:
        raise ValidationError("manifold %s has shape %s, not %s = %s"
                              % (what, arr.shape, named, shape))


def _check_master(master, N, M):
    """ValidationError unless the master's arrays fit the blocks:
    complex V and U of shape (state_dim, dim), dim complex lambdas, a
    complex (n_outer,) outer_lambdas and dim integer pairing entries
    in 0..dim-1."""
    for name in ("V", "U"):
        _check_array(master[name], "master " + name, (N, M),
                     "(state_dim, dim)")
    for name in ("lambdas", "outer_lambdas"):
        _check_array(master[name], "master " + name)
    if master["outer_lambdas"].ndim != 1:
        raise ValidationError("manifold master outer_lambdas has shape %s, "
                              "not (n_outer,)"
                              % (master["outer_lambdas"].shape,))
    pairing = master["pairing"]
    if not isinstance(pairing, np.ndarray) or pairing.dtype.kind not in "iu":
        raise ValidationError("manifold master pairing is not an integer "
                              "array")
    for name in ("lambdas", "pairing"):
        if master[name].shape != (M,):
            raise ValidationError("manifold master has %d %s for dim %d"
                                  % (master[name].size, name, M))
    if pairing.min() < 0 or pairing.max() >= M:
        raise ValidationError("manifold master pairing %s leaves 0..%d"
                              % (pairing.tolist(), M - 1))


def _file_shapes(header):
    """The shapes of a format-3 file's arrays, in file order: lambdas,
    outer lambdas, V, U, W_1..W_order, then R_1..R_order."""
    M, N = header["dim"], header["state_dim"]
    yield from ((M,), (header["n_outer"],), (N, M), (N, M))
    for rows in (N, M):
        for i in range(1, header["order"] + 1):
            yield (rows, math.comb(M + i - 1, i))


def _read_header(fh, path):
    """The JSON object on the first line of ``fh``, else ValidationError.
    A file of format 1 or 2 is one indented JSON document, read whole so
    that :func:`_check_header` refuses it by its format."""
    text = fh.readline()
    if text == b"{\n":
        text += fh.read()
    try:
        header = json.loads(text)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise ValidationError("manifold file %s does not start with a JSON "
                              "header line" % path)
    return header


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
        The data of a format-3 file: the header fields ``format`` (3),
        ``kind``, ``order``, ``style``, ``dim`` and ``state_dim``, the
        master's arrays (``MasterSubspace.to_dict``) and the W and R
        blocks keyed by degree. The arrays are this expansion's own, not
        copies, and the dict is not JSON-ready: :meth:`save` writes it.
        """
        return {
            "format": FORMAT,
            "kind": "manifold-expansion",
            "order": self.order,
            "style": self.style,
            "dim": self.dim,
            "state_dim": self.N,
            "master": self.master.to_dict(),
            "W": dict(self.W),
            "R": dict(self.R),
        }

    def save(self, path):
        """
        Write the format-3 file of :meth:`to_dict`. Its first line is the
        header, sorted-key JSON of the scalar fields plus ``n_outer`` and
        the master ``pairing``. The arrays follow as little-endian
        complex128 in C order with no metadata, since every shape
        follows from the header: lambdas (dim,), outer lambdas
        (n_outer,), V and U (state_dim, dim), W_1..W_order (state_dim,
        C(dim+i-1, i)), then R_1..R_order (dim, C(dim+i-1, i)). The
        same expansion always gives the same bytes.
        """
        data = self.to_dict()
        master, W, R = data.pop("master"), data.pop("W"), data.pop("R")
        data.update(n_outer=master["outer_lambdas"].size,
                    pairing=master["pairing"].tolist())
        arrays = ([master[name] for name in ("lambdas", "outer_lambdas",
                                             "V", "U")]
                  + [W[i] for i in sorted(W)] + [R[i] for i in sorted(R)])
        with open(path, "wb") as fh:
            fh.write(json.dumps(data, sort_keys=True).encode() + b"\n")
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr, "<c16"))

    @classmethod
    def from_dict(cls, data, system=None):
        """
        Rebuild from :meth:`to_dict` data, holding its arrays. Data of
        another format than 3 raises ValidationError: recompute such a
        file. So does an ``order`` that is not an integer >= 1, a
        ``style`` outside ``STYLES``, a ``dim`` or ``state_dim`` that is
        not an integer with 1 <= dim <= state_dim, and a W or R that
        does not hold exactly the degrees 1..order; a block that is not
        complex128 of shape (state_dim, C(dim+i-1, i)) for W_i and (dim,
        C(dim+i-1, i)) for R_i, named (``W3``); and a master whose
        arrays do not fit (see ``_check_master``). The stored U is the
        left family of the pencil the data was computed on, so
        ``system`` must be that pencil.
        """
        _check_header(data)
        order, M, N = data["order"], data["dim"], data["state_dim"]
        for name in ("W", "R"):
            held = set(data[name])
            if held != set(range(1, order + 1)):
                raise ValidationError(
                    "manifold %s holds the degrees %s, not 1..%d"
                    % (name, sorted(held, key=str), order))
        _check_master(data["master"], N, M)
        for i in range(1, order + 1):
            C = math.comb(M + i - 1, i)
            named = "C(dim+%d, %d)" % (i - 1, i)
            _check_array(data["W"][i], "block W%d" % i, (N, C),
                         "(state_dim, %s)" % named)
            _check_array(data["R"][i], "block R%d" % i, (M, C),
                         "(dim, %s)" % named)
        return cls(system, MasterSubspace.from_dict(data["master"]), order,
                   data["style"], dict(data["W"]), dict(data["R"]), None)

    @classmethod
    def load(cls, path, system=None):
        """
        Read a file written by :meth:`save`; see :meth:`from_dict`. A
        file whose first line is not a JSON header of format 3, whose
        ``n_outer`` is not an integer >= 0 or ``pairing`` not a list of
        integers, or which does not hold exactly the bytes its header
        implies raises ValidationError, before any array is allocated.
        """
        with open(path, "rb") as fh:
            header = _read_header(fh, path)
            _check_header(header)
            n_outer, pairing = header.get("n_outer"), header.get("pairing")
            if type(n_outer) is not int or n_outer < 0:
                raise ValidationError("manifold n_outer must be an integer "
                                      ">= 0, not %r" % (n_outer,))
            if not (isinstance(pairing, list)
                    and all(type(k) is int for k in pairing)):
                raise ValidationError("manifold pairing must be a list of "
                                      "integers, not %r" % (pairing,))
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            shapes, need = [], 0
            # every W_i holds at least one entry (1 <= dim <= state_dim),
            # so a header with a huge order stops here too
            for shape in _file_shapes(header):
                shapes.append(shape)
                need += 16 * math.prod(shape)
                if need > held:
                    break
            if need != held:
                raise ValidationError(
                    "manifold file %s holds %d bytes after its header, and "
                    "the header implies %s%d" % (path, held, "at least "
                                                 if need > held else "",
                                                 need))
            arrays = [np.fromfile(fh, "<c16", math.prod(shape)).astype(
                complex, copy=False).reshape(shape) for shape in shapes]
        lambdas, outer, V, U, *blocks = arrays
        order = header["order"]
        data = dict(header, W=dict(enumerate(blocks[:order], 1)),
                    R=dict(enumerate(blocks[order:], 1)),
                    master={"lambdas": lambdas, "outer_lambdas": outer,
                            "V": V, "U": U, "pairing": np.array(pairing)})
        return cls.from_dict(data, system=system)

    def __repr__(self):
        return ("ManifoldExpansion(order=%d, dim=%d, N=%d, style=%r)"
                % (self.order, self.dim, self.N, self.style))
