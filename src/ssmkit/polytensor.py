"""
Sparse homogeneous polynomial tensors in Kronecker-power coordinates.

A degree-``k`` map ``F_k`` from ``m`` variables to ``nrows`` outputs is
a ``nrows x m**k`` matrix acting on the Kronecker power ``z^(x)k``. The
entries are kept as coordinate triplets (row, factor tuple, value). The
tuple's lexicographic position (:mod:`ssmkit.multiindex`) is formed only
for dense blocks, so a sparse block is bounded by memory alone. No
symmetrization is imposed, so raw and symmetrized tensors are both
representable; only the symmetrized part matters when the polynomial is
evaluated, since permuted index tuples multiply the same monomial.
``PolyCoeffs.evaluate`` therefore folds the entries of each (row,
sorted tuple) into one and sums each output row in that order, which
rounds differently from a sum over the stored entries in storage order.

The order-collection helpers at the bottom (``compose``,
``apply_kron_sum``) are the kernels of the invariance-equation solver
and work on dense ``(nrows, m**i)`` coefficient blocks, which is the
cheap representation at the small numbers of master variables these
expansions use.
"""

import math

import numpy as np
# the CSR kernel behind scipy's sparse-dense product; called directly
# because it adds into a given output, which the public product, with
# its freshly zeroed result, does not
from scipy.sparse._sparsetools import csr_matvecs

from .errors import ValidationError
from .multiindex import decode_positions, encode_positions

__all__ = [
    "PolyCoeffs", "compositions", "compose", "apply_kron_sum",
]


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


def _csr(fc):
    """
    ``(tuples, indptr, index)``: the entries of ``fc`` as a CSR matrix
    over its distinct factor tuples, row-major by its storage order.
    """
    tuples, index = fc.distinct_factors
    indptr = np.zeros(fc.nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(fc.rows, minlength=fc.nrows), out=indptr[1:])
    return tuples, indptr, index


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
    rows often share one tuple, and ``compose`` works per tuple. So is
    the folded CSR matrix that ``evaluate`` works with.
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

    def evaluate(self, z, add_to=None):
        """
        Evaluate the polynomial at one state ``z`` (length ``nvars``), or
        at each column of an ``(nvars, n)`` batch, giving ``(nrows,)`` or
        ``(nrows, n)``. Given ``add_to``, a C-contiguous array of that
        shape whose dtype the result casts to safely, the result is
        added into it and it is returned.

        Notes
        -----
        Entries whose factor tuples are permutations of one another
        multiply one monomial. On first use the entries that share a
        (row, sorted tuple) are folded into one, their values summed
        from zero in storage order, and kept as a CSR matrix over the
        distinct sorted tuples. Each call forms every distinct monomial
        once and adds them with one CSR product, so each output row is
        summed over its folded terms in (row, sorted tuple) order. This
        differs at rounding from a sum over the stored entries in
        storage order; a batch column has the bits of its single state.
        """
        if self._plan is None:
            folded = PolyCoeffs.from_factors(
                self.degree, self.nrows, self.nvars, self.rows,
                np.sort(self.factors, axis=0), self.values)
            self._plan = _csr(folded) + (folded.values,)
        tuples, indptr, index, values = self._plan
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
        csr_matvecs(self.nrows, tuples.shape[1], math.prod(shape[1:]), indptr,
                    index, values.astype(dtype, copy=False), monomials, add_to)
        return add_to

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


def compositions(total, parts):
    """
    All ordered tuples of ``parts`` positive integers summing to ``total``.

    >>> list(compositions(4, 2))
    [(1, 3), (2, 2), (3, 1)]
    """
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _row_kron(blocks, out):
    """Row-wise Kronecker product of 2d blocks with equal row counts,
    written into the preallocated 2d ``out``."""
    acc = blocks[0]
    for b in blocks[1:-1]:
        acc = (acc[:, :, None] * b[:, None, :]).reshape(acc.shape[0], -1)
    if len(blocks) == 1:
        out[...] = acc
        return
    last = blocks[-1]
    np.multiply(acc[:, :, None], last[:, None, :],
                out=out.reshape(acc.shape[0], acc.shape[1], last.shape[1]))


def compose(f_coeffs, w_blocks, order, nvars, nrows=None):
    """
    Degree-``order`` coefficients of the composition ``F(W(p))``.

    Parameters
    ----------
    f_coeffs : list of PolyCoeffs
        The homogeneous pieces of F (degrees >= 2, any order).
    w_blocks : dict of int -> ndarray
        Dense coefficient blocks of W: ``w_blocks[q]`` has shape
        ``(n_states, nvars**q)``. Orders ``1 .. order-1`` must be
        present; higher orders are not touched.
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
        Dense ``(nrows, nvars**order)`` block.

    Notes
    -----
    The collected term is ``sum_j F_j sum_{|q|=order} W_{q_1} (x) ...
    (x) W_{q_j}`` over ordered positive integer compositions q. Only the
    rows of the W blocks selected by the sparse F entries enter, and
    entries that share an ordered factor tuple share its row-Kronecker
    product, so each (F_j, q) pair costs ``ntuples(F_j) * nvars**order``
    multiplies into one preallocated block K (one row per tuple), and
    one CSR product ``out += S_j @ K`` with ``S_j`` the entries of F_j
    (row, tuple, value) in storage order. Each output row is summed
    from zero in (F_j, q, storage) order, which is the order an
    entry-by-entry ``np.add.at`` scatter adds in, so the result has
    the same bits; a product per term added into ``out`` afterwards
    would re-associate those sums. ``S_j`` is complex even for real F:
    the product then multiplies by an exact zero imaginary part, where
    a real ``S_j`` over split real and imaginary parts could be fused
    into one rounding of ``y + v * K``.
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
    ncols = nvars**order
    # flat buffers: the kernel writes into a copy of a non-contiguous
    # output, which would lose the sums
    out = np.zeros(nrows * ncols, dtype=complex)
    for fj in f_coeffs:
        j = fj.degree
        if j > order or fj.nnz == 0:
            continue
        tuples, indptr, index = _csr(fj)
        values = fj.values.astype(complex)
        K = np.empty(tuples.shape[1] * ncols, dtype=complex)
        for q in compositions(order, j):
            _row_kron([w_blocks[q[slot]][tuples[slot]] for slot in range(j)],
                      K.reshape(tuples.shape[1], ncols))
            csr_matvecs(nrows, tuples.shape[1], ncols, indptr, index, values,
                        K, out)
    return out.reshape(nrows, ncols)


def apply_kron_sum(r_block, w_block, order, w_order, nvars):
    """
    Apply the Kronecker-sum factor to a coefficient block:
    ``W_j * sum_{k=1..j} I^(x)(k-1) (x) R_{i-j+1} (x) I^(x)(j-k)``
    without materializing the ``nvars**j x nvars**i`` operator.

    Parameters
    ----------
    r_block : ndarray
        Dense ``(nvars, nvars**(order - w_order + 1))`` reduced-dynamics
        block R of order ``order - w_order + 1``.
    w_block : ndarray
        Dense ``(n_states, nvars**w_order)`` manifold block W_j.
    order : int
        Target collected order i.
    w_order : int
        The order j of ``w_block`` (number of insertion slots).
    nvars : int
        Number of manifold variables m.

    Returns
    -------
    ndarray
        Dense ``(n_states, nvars**order)`` contribution.
    """
    m = nvars
    j = w_order
    r_order = order - j + 1
    if r_block.shape != (m, m**r_order):
        raise ValidationError("R block has shape %r, expected %r"
                              % (r_block.shape, (m, m**r_order)))
    n = w_block.shape[0]
    out = np.zeros((n, m**order), dtype=np.result_type(r_block, w_block, complex))
    for k in range(j):
        wt = w_block.reshape(n, m**k, m, m**(j - k - 1))
        # contract the slot-k variable of W with the row index of R
        term = np.einsum("npsq,sm->npmq", wt, r_block.reshape(m, m**r_order))
        out += term.reshape(n, m**order)
    return out
