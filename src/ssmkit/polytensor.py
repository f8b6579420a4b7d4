"""
Sparse homogeneous polynomial tensors in Kronecker-power coordinates.

A degree-``k`` map ``F_k`` from ``m`` variables to ``nrows`` outputs is
a ``nrows x m**k`` matrix acting on the Kronecker power ``z^(x)k``. The
entries are kept as coordinate triplets (row, factor tuple, value). The
tuple's lexicographic position (``multiindex.encode_positions``) is
formed only for dense blocks, so a sparse block is bounded by memory
alone. No symmetrization is imposed, so raw and symmetrized tensors are
both representable; only the symmetrized part matters when the
polynomial is evaluated, since permuted index tuples multiply the same
monomial. ``PolyCoeffs.evaluate`` and ``compose`` therefore form each
monomial once, over the distinct sorted tuples, and sum each output row
over the stored entries in storage order.

The order-collection helpers at the bottom (``compose``,
``apply_kron_sum``) are the kernels of the invariance-equation solver.
They work on dense coefficient blocks with one column per monomial,
over the sorted tuples of :mod:`ssmkit.multiindex`, which is the cheap
representation at the small numbers of master variables these
expansions use.
"""

import functools
import math

import numpy as np
# the CSR kernels behind scipy's sparse-dense products; called directly
# because they add into a given output, which the public product, with
# its freshly zeroed result, does not. Both sum each row in the same
# sequence, one vector at a time (csr_matvec) or a block of them
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .errors import ValidationError
from .multiindex import (MultiIndexSet, decode_positions, encode_positions,
                         multiset_sum, tuple_positions)

__all__ = ["PolyCoeffs", "compose", "apply_kron_sum"]


def _runs(keys):
    """Stable lexicographic order of the columns of ``keys``, and its run starts."""
    order = np.lexsort(keys[::-1])
    ordered = keys[:, order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    return order, starts


def _summed(rows, factors, values):
    """The entries in (row, tuple) order, duplicates summed from zero."""
    rows, values = np.asarray(rows, dtype=np.int64), np.asarray(values)
    if rows.ndim != 1 or values.shape != rows.shape:
        raise ValidationError("rows and values must be equal-length 1d arrays")
    order, starts = _runs(np.vstack([rows, factors]))
    summed = np.zeros(starts.sum(), np.result_type(values, np.float64))
    np.add.at(summed, np.cumsum(starts) - 1, values[order])
    kept = order[starts]
    return rows[kept], factors.take(kept, axis=1), summed


class PolyCoeffs:
    """
    Coefficients of one homogeneous degree-``degree`` polynomial map.

    Parameters
    ----------
    degree : int
        Polynomial degree k (number of index factors per entry).
    nrows : int
        Number of output rows.
    nvars : int
        Number of input variables m.
    rows, positions, values : array_like
        Coordinate data. ``positions`` are lexicographic positions into
        the degree-k index set over m variables; duplicate
        (row, position) pairs are summed. Values may be real or complex.

    Notes
    -----
    The entries are ``rows``, ``factors`` (one tuple per column of a
    ``(degree, nnz)`` array) and ``values``, in (row, tuple) order.
    ``distinct_factors`` is built on first use: entries on different
    rows often share one tuple. So is ``monomials``, the CSR matrix over
    sorted tuples that ``evaluate`` and ``compose`` work with.
    """

    def __init__(self, degree, nrows, nvars, rows, positions, values):
        positions = np.asarray(positions, dtype=np.int64)
        if positions.shape != np.shape(rows):
            raise ValidationError("rows, positions, values must be equal-length 1d arrays")
        size = int(nvars)**degree  # exact: it may overflow int64
        if positions.size and (positions.min() < 0 or int(positions.max()) >= size):
            raise ValidationError("position out of range for degree %d over %d vars"
                                  % (degree, nvars))
        self._store(degree, nrows, nvars, *_summed(
            rows, decode_positions(positions, degree, nvars), values))

    def _store(self, degree, nrows, nvars, rows, factors, values):
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise ValidationError("row index out of range 0..%d" % (nrows - 1))
        self.degree, self.nrows, self.nvars = degree, nrows, nvars
        self.rows, self.factors, self.values = rows, factors, values
        self._distinct = self._plan = None
        return self

    @classmethod
    def from_factors(cls, degree, nrows, nvars, rows, factors, values):
        """
        Build from 0-based ``rows``, ``values`` and a ``(degree, nnz)``
        array of 0-based index ``factors``, one column per entry.
        """
        rows = np.asarray(rows, dtype=np.int64)
        factors = np.asarray(factors, dtype=np.int64)
        if factors.shape != (degree, rows.size):
            raise ValidationError("factors have shape %r, expected (degree, nnz) = (%d, %d)"
                                  % (factors.shape, degree, rows.size))
        if factors.size and (factors.min() < 0 or factors.max() >= nvars):
            raise ValidationError("index entry out of range 0..%d" % (nvars - 1))
        return cls.__new__(cls)._store(degree, nrows, nvars,
                                       *_summed(rows, factors, values))

    @classmethod
    def from_entries(cls, degree, nrows, nvars, entries):
        """
        Build from an iterable of ``(row, index_tuple, value)`` triples
        with 0-based rows and index tuples.
        """
        entries = list(entries)
        for _, idx, _ in entries:
            if len(idx) != degree:
                raise ValidationError(
                    "index tuple %r has length %d, expected degree %d"
                    % (tuple(idx), len(idx), degree))
        rows, factors, values = zip(*entries) if entries else ((), (), ())
        return cls.from_factors(degree, nrows, nvars, rows,
                                np.reshape(factors, (-1, degree)).T, values)

    @property
    def nnz(self):
        return self.rows.size

    @property
    def distinct_factors(self):
        """
        ``(tuples, index)``: the distinct ordered factor tuples as a
        ``(degree, ntuples)`` array in lexicographic order, and for
        each stored entry the column of its tuple.
        """
        # set in _store and filled here rather than a cached_property,
        # whose write through __dict__ slows every later attribute read
        # of the instance, and evaluate is called per integration step
        if self._distinct is None:
            order, starts = _runs(self.factors)
            index = np.empty(self.nnz, dtype=np.int64)
            index[order] = np.cumsum(starts) - 1
            self._distinct = (self.factors.take(order[starts], axis=1), index)
        return self._distinct

    def entries(self):
        """Iterate ``(row, index_tuple, value)`` triples in storage order."""
        return zip(self.rows.tolist(), map(tuple, self.factors.T.tolist()),
                   self.values)

    def to_dense(self):
        """Dense ``(nrows, nvars**degree)`` coefficient matrix."""
        out = np.zeros((self.nrows, self.nvars**self.degree),
                       dtype=np.result_type(self.values, np.float64))
        np.add.at(out, (self.rows, encode_positions(self.factors, self.nvars)),
                  self.values)
        return out

    @classmethod
    def from_dense(cls, degree, nvars, dense, tol=0.0):
        """Collect the nonzero entries of a dense coefficient block."""
        dense = np.asarray(dense)
        mask = np.abs(dense) > tol
        rows, positions = np.nonzero(mask)
        return cls(degree, dense.shape[0], nvars, rows, positions, dense[mask])

    @property
    def monomials(self):
        """
        ``(tuples, indptr, index, values)``: the distinct sorted factor
        tuples, a ``(degree, ntuples)`` array in lexicographic order, one
        per monomial, and the stored entries as a CSR matrix over them,
        in storage order: for each entry the column of its sorted tuple,
        and its value. Built on first use.

        Entries whose tuples permute one another share a monomial but
        are not folded into one: an expanded FE force law cancels across
        its entries, and each output row summed over its stored entries
        in storage order cancels early. Folded, the cubic of ssmbench's
        ``fe_bar`` (n = 1500), composed with the master mode and
        projected on it, erred by 8e-8 against the strain form, against
        2e-9 as stored; and the trapezoidal cross-check of the fe_sparse
        workload stalled at its 1e-9 Newton tolerance on seeds 11 and
        13, which it passes as stored.
        """
        if self._plan is None:
            distinct, index = self.distinct_factors
            keys = np.sort(distinct, axis=0)
            order, starts = _runs(keys)
            column = np.empty(keys.shape[1], dtype=np.int64)
            column[order] = np.cumsum(starts) - 1
            indptr = np.zeros(self.nrows + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.rows, minlength=self.nrows),
                      out=indptr[1:])
            self._plan = (keys.take(order[starts], axis=1), indptr,
                          column[index], self.values)
        return self._plan

    def evaluate(self, z, add_to=None):
        """
        Evaluate the polynomial at one state ``z`` (length ``nvars``), or
        at each column of an ``(nvars, n)`` batch, giving ``(nrows,)`` or
        ``(nrows, n)``. Given ``add_to``, a C-contiguous array of that
        shape whose dtype the result casts to safely, the result is
        added into it and it is returned.

        Notes
        -----
        Each call forms every distinct monomial of :attr:`monomials`
        once and adds the stored entries with one CSR product, each
        output row summed from zero over its entries in storage order.
        Entries whose tuples permute one another multiply the same
        computed monomial, so this differs at rounding from a sum of
        per-entry products; a batch column has the bits of its single
        state.
        """
        tuples, indptr, index, values = self.monomials
        z = np.asarray(z)
        shape = (self.nrows,) + z.shape[1:]
        # values are float64 or complex128, so this is the product's type
        dtype = np.promote_types(values.dtype, z.dtype)
        if add_to is None:
            add_to = np.zeros(shape, dtype)
        elif (add_to.shape != shape or not add_to.flags.c_contiguous
              or np.promote_types(dtype, add_to.dtype) != add_to.dtype):
            # the kernel would add into a copy and lose the sums
            raise ValidationError(
                "add_to must be a C-contiguous %r array of a dtype %s casts to"
                % (shape, dtype))
        dtype = add_to.dtype
        z = z.astype(dtype, copy=False)
        monomials = z[tuples[0]]
        for axis in range(1, self.degree):
            monomials *= z[tuples[axis]]
        values = values.astype(dtype, copy=False)
        if z.ndim == 1:
            # a third of the time of the block kernel on one vector
            csr_matvec(self.nrows, tuples.shape[1], indptr, index, values,
                       monomials, add_to)
        else:
            csr_matvecs(self.nrows, tuples.shape[1], math.prod(shape[1:]),
                        indptr, index, values, monomials, add_to)
        return add_to

    def absolute(self):
        """
        The polynomial with every stored value replaced by its absolute
        value, sharing this one's factor tables and monomial plan, so
        that it costs no sort: ``|F|(|z|)`` bounds the rounding error of
        ``F(z)`` entry by entry.
        """
        tuples, indptr, index, _ = self.monomials
        out = PolyCoeffs.__new__(PolyCoeffs)._store(
            self.degree, self.nrows, self.nvars, self.rows, self.factors,
            np.abs(self.values))
        out._distinct = self._distinct
        out._plan = (tuples, indptr, index, out.values)
        return out

    def relabel(self, nrows, nvars, row_offset=0, value_scale=1.0):
        """
        Re-embed into a larger space: same index tuples over ``nvars``
        variables (entries must already fit), rows shifted by
        ``row_offset`` and values scaled. Used to lift second-order
        nonlinearities into first-order form.
        """
        if self.nvars > nvars:
            raise ValidationError("cannot shrink variable count in relabel")
        # shifted rows keep the order; + 0.0 clears -0.0 as sums from zero do
        return PolyCoeffs.__new__(PolyCoeffs)._store(
            self.degree, nrows, nvars, self.rows + row_offset, self.factors,
            self.values * value_scale + 0.0)

    def __repr__(self):
        return ("PolyCoeffs(degree=%d, nrows=%d, nvars=%d, nnz=%d)"
                % (self.degree, self.nrows, self.nvars, self.nnz))


@functools.lru_cache(maxsize=256)
def _sum_matrix(a, b, nvars):
    """
    ``(indptr, indices)`` of the 0/1 CSR matrix that adds the products
    of the degree-``a`` and degree-``b`` monomials into the degree
    ``a + b`` ones: row gamma lists, ascending, the flat (alpha, beta)
    positions of ``multiindex.multiset_sum`` that give gamma.
    """
    flat = multiset_sum(a, b, nvars).ravel()
    indptr = np.zeros(math.comb(nvars + a + b - 1, a + b) + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=indptr.size - 1), out=indptr[1:])
    return indptr, np.argsort(flat, kind="stable")


def _multiply_into(acc, x, y, a, b, nvars):
    """
    ``acc += x * y`` for coefficient tables of polynomials of degrees
    ``a`` and ``b``, one column per series: ``x`` is ``(C(nvars+a-1, a),
    n)``, ``y`` likewise, ``acc`` the C-contiguous complex table of
    degree ``a + b``. Each product of two monomials is added into its
    monomial in (alpha, beta) order, adding ones on the real and
    imaginary parts apart, which is exact.
    """
    indptr, indices = _sum_matrix(a, b, nvars)
    prod = (x[:, None, :] * y[None, :, :]).astype(complex, copy=False)
    width = 2 * acc.shape[1]
    csr_matvecs(acc.shape[0], indices.size, width, indptr, indices,
                np.ones(indices.size), prod.reshape(-1).view(np.float64),
                acc.reshape(-1).view(np.float64))


def compose(f_coeffs, w_blocks, order, nvars, nrows=None):
    """
    Degree-``order`` coefficients of the composition ``F(W(p))``.

    Parameters
    ----------
    f_coeffs : list of PolyCoeffs
        The homogeneous pieces of F (degrees >= 2, any order).
    w_blocks : dict of int -> ndarray
        Coefficient blocks of W, one column per monomial
        (:mod:`ssmkit.multiindex`): ``w_blocks[q]`` has shape
        ``(n_states, C(nvars+q-1, q))``. Orders ``1 .. order-1`` must
        be present; higher orders are not touched.
    order : int
        The collected degree i (>= 2).
    nvars : int
        Number of manifold variables m.
    nrows : int, optional
        Output row count. Defaults to the row count of the F pieces;
        must be given when ``f_coeffs`` is empty (linear system).

    Returns
    -------
    ndarray
        Complex ``(nrows, C(nvars+order-1, order))`` block.

    Notes
    -----
    The collected term is ``S_j`` times the order-``order``
    coefficients of the products ``W(p)_(t_1) ... W(p)_(t_j)``, one per
    distinct sorted factor tuple t of F_j, with ``S_j`` the stored
    entries of F_j over those tuples (``PolyCoeffs.monomials``). The
    products come slot by slot: the partial product of the first ``s``
    factors is kept at the orders ``s .. order - (j - s)`` that can
    still reach ``order``, and each next factor multiplies it order by
    order, a product of two coefficient tables costing one product per
    pair of monomials. Only
    the rows of W that the tuples name enter, and each output row is
    summed from zero over its stored entries in storage order, which
    keeps the cancellation of an expanded FE force law accurate (see
    ``PolyCoeffs.monomials``).
    """
    for q in range(1, order):
        if q not in w_blocks:
            raise ValidationError("compose at order %d needs W up to order %d; "
                                  "missing order %d" % (order, order - 1, q))
    if nrows is None:
        if not f_coeffs:
            raise ValidationError("compose needs nrows when f_coeffs is empty")
        nrows = f_coeffs[0].nrows
    if any(fj.nrows != nrows for fj in f_coeffs):
        raise ValidationError("compose needs F pieces of %d rows" % nrows)
    ncols = math.comb(nvars + order - 1, order)
    out = np.zeros((nrows, ncols), dtype=complex)
    for fj in f_coeffs:
        j = fj.degree
        if j > order or fj.nnz == 0:
            continue
        tuples, indptr, index, values = fj.monomials

        def factor(slot, q):
            """The order-q coefficients of the slot's factor, per tuple."""
            return w_blocks[q][tuples[slot]].T

        partial = {q: factor(0, q) for q in range(1, order - j + 2)}
        for slot in range(1, j):
            targets = ([order] if slot == j - 1
                       else range(slot + 1, order - j + slot + 2))
            grown = {}
            for q in targets:
                acc = grown[q] = np.zeros(
                    (math.comb(nvars + q - 1, q), tuples.shape[1]), complex)
                for a in range(slot, q):
                    _multiply_into(acc, partial[a], factor(slot, q - a),
                                   a, q - a, nvars)
            partial = grown
        K = np.ascontiguousarray(partial[order].T)
        csr_matvecs(nrows, tuples.shape[1], ncols, indptr, index,
                    values.astype(complex), K, out)
    return out


def apply_kron_sum(r_block, w_block, order, w_order, nvars):
    """
    Coefficients of ``DW_j(p) R_r(p)``, ``j = w_order`` and
    ``r = order - j + 1``, the order-``order`` cross term of the
    invariance equation: ``p^alpha`` differentiates to
    ``sum_k alpha_k p^(alpha - e_k)``, and its k-th term times
    ``R_r(p)_k`` lands on the monomials ``alpha - e_k + beta``.

    Parameters
    ----------
    r_block : ndarray
        ``(nvars, C(nvars+r-1, r))`` reduced-dynamics block R_r.
    w_block : ndarray
        ``(n_states, C(nvars+j-1, j))`` manifold block W_j.
    order : int
        Target collected order i.
    w_order : int
        The order j of ``w_block``.
    nvars : int
        Number of manifold variables m.

    Returns
    -------
    ndarray
        ``(n_states, C(nvars+order-1, order))`` contribution: ``W_j``
        times the small ``(C(m+j-1, j), C(m+i-1, i))`` matrix of the
        operator, which is built first.
    """
    m, j = nvars, w_order
    r_order = order - j + 1
    want = (m, math.comb(m + r_order - 1, r_order))
    if r_block.shape != want:
        raise ValidationError("R block has shape %r, expected %r"
                              % (r_block.shape, want))
    rows, cols, modes = _cross_index(j, r_order, m)
    vals = r_block[modes].reshape(-1)
    ncols = math.comb(m + order - 1, order)
    flat = (rows[:, None] * ncols + cols).reshape(-1)
    size = w_block.shape[1] * ncols
    op = np.bincount(flat, vals.real, size) + 1j * np.bincount(
        flat, vals.imag, size)
    return w_block @ op.reshape(w_block.shape[1], ncols)


@functools.lru_cache(maxsize=256)
def _cross_index(j, r, nvars):
    """
    ``(rows, cols, modes)`` of the operator of :func:`apply_kron_sum`:
    removing factor slot s from a degree-``j`` tuple alpha leaves
    alpha - e_k with k the removed factor, and each degree-``r`` tuple
    beta then adds ``R[k, beta]`` at (alpha, position of alpha - e_k +
    beta); one entry per (slot, alpha), so factor k counts alpha_k
    times.
    """
    factors = MultiIndexSet(j, nvars).factors
    rows, cols, modes = [], [], []
    sums = multiset_sum(j - 1, r, nvars)
    for s in range(j):
        lower = tuple_positions(np.delete(factors, s, axis=0), nvars)
        rows.append(np.arange(factors.shape[1]))
        cols.append(sums[lower])
        modes.append(factors[s])
    return np.concatenate(rows), np.vstack(cols), np.concatenate(modes)
