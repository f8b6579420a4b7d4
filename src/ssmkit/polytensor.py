"""
Sparse homogeneous polynomial tensors in Kronecker-power coordinates.

A degree-``k`` map ``F_k`` from ``m`` variables to ``nrows`` outputs is
a ``nrows x m**k`` matrix acting on the Kronecker power ``z^(x)k``. The
entries are kept as coordinate triplets (row, position, value) with the
lexicographic position convention of :mod:`ssmkit.multiindex`. No
symmetrization is imposed, so raw and symmetrized tensors are both
representable; only the symmetrized part matters when the polynomial is
evaluated, since permuted index tuples multiply the same monomial.

The order-collection helpers at the bottom (``compose``,
``apply_kron_sum``) are the kernels of the invariance-equation solver
and work on dense ``(nrows, m**i)`` coefficient blocks, which is the
cheap representation at the small numbers of master variables these
expansions use. ``compose`` forms one row-Kronecker product per
distinct ordered factor tuple of F, not per stored entry, so each
(F_j, composition) term of order i costs ``distinct tuples * m**i``
multiplies, then one sparse product of that term's entries adds the
products onto F's rows. Each output row is summed from zero in
(F_j, composition, storage) order, the order of an entry-by-entry
scatter, so the result has its bits.
"""

import numpy as np
# the CSR kernel behind scipy's sparse-dense product; called directly
# because it adds into a given output, which the public product, with
# its freshly zeroed result, does not
from scipy.sparse._sparsetools import csr_matvecs

from .errors import ValidationError
from .multiindex import MultiIndexSet, decode_positions, encode_positions

__all__ = [
    "PolyCoeffs", "compositions", "compose", "apply_kron_sum",
]


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
    ``factors`` (shape ``(degree, nnz)``) caches the decoded index
    tuples so evaluation is a plain gather-product-scatter.
    ``distinct_factors`` is built on first use: entries on different
    rows often share one tuple, and ``compose`` works per tuple.
    """

    def __init__(self, degree, nrows, nvars, rows, positions, values):
        iset = MultiIndexSet(degree, nvars)
        rows = np.asarray(rows, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        values = np.asarray(values)
        if not (rows.shape == positions.shape == values.shape) or rows.ndim != 1:
            raise ValidationError("rows, positions, values must be equal-length 1d arrays")
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise ValidationError("row index out of range 0..%d" % (nrows - 1))
        if positions.size and (positions.min() < 0 or positions.max() >= len(iset)):
            raise ValidationError("position out of range for degree %d over %d vars"
                                  % (degree, nvars))
        # sum duplicates and store in deterministic (row, position) order
        if rows.size:
            key = rows * len(iset) + positions
            order = np.argsort(key, kind="stable")
            key, rows, positions, values = key[order], rows[order], positions[order], values[order]
            uniq, inverse = np.unique(key, return_inverse=True)
            summed = np.zeros(uniq.size, dtype=np.result_type(values, np.float64))
            np.add.at(summed, inverse, values)
            rows = (uniq // len(iset)).astype(np.int64)
            positions = (uniq % len(iset)).astype(np.int64)
            values = summed
        self.degree = degree
        self.nrows = nrows
        self.nvars = nvars
        self.rows = rows
        self.positions = positions
        self.values = values
        self.factors = decode_positions(positions, degree, nvars)
        self._distinct = None

    @classmethod
    def from_factors(cls, degree, nrows, nvars, rows, factors, values):
        """
        Build from 0-based ``rows``, ``values`` and a ``(degree, nnz)``
        array of 0-based index ``factors``, one column per entry.
        """
        rows = np.asarray(rows, dtype=np.int64)
        factors = np.asarray(factors, dtype=np.int64)
        if factors.shape != (degree, rows.size):
            raise ValidationError(
                "factors have shape %r, expected (degree, nnz) = (%d, %d)"
                % (factors.shape, degree, rows.size))
        if factors.size and (factors.min() < 0 or factors.max() >= nvars):
            raise ValidationError(
                "index entry out of range 0..%d" % (nvars - 1))
        return cls(degree, nrows, nvars, rows,
                   encode_positions(factors, nvars), values)

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
        factors = np.array([idx for _, idx, _ in entries], dtype=np.int64)
        return cls.from_factors(degree, nrows, nvars,
                                [row for row, _, _ in entries],
                                factors.reshape(len(entries), degree).T,
                                [val for _, _, val in entries])

    @property
    def nnz(self):
        return self.rows.size

    @property
    def distinct_factors(self):
        """
        ``(tuples, index)``: the distinct ordered factor tuples as a
        ``(degree, ntuples)`` array in position order, and for each
        stored entry the column of its tuple.
        """
        # set in __init__ and filled here rather than a cached_property,
        # whose write through __dict__ slows every later attribute read
        # of the instance, and evaluate is called per integration step
        if self._distinct is None:
            _, first, index = np.unique(self.positions, return_index=True,
                                        return_inverse=True)
            self._distinct = (self.factors[:, first], index)
        return self._distinct

    def entries(self):
        """Yield ``(row, index_tuple, value)`` triples in storage order."""
        iset = MultiIndexSet(self.degree, self.nvars)
        for r, p, v in zip(self.rows, self.positions, self.values):
            yield int(r), iset.index_tuple(int(p)), v

    def to_dense(self):
        """Dense ``(nrows, nvars**degree)`` coefficient matrix."""
        out = np.zeros((self.nrows, self.nvars**self.degree),
                       dtype=np.result_type(self.values, np.float64))
        np.add.at(out, (self.rows, self.positions), self.values)
        return out

    @classmethod
    def from_dense(cls, degree, nvars, dense, tol=0.0):
        """Collect the nonzero entries of a dense coefficient block."""
        dense = np.asarray(dense)
        mask = np.abs(dense) > tol
        rows, positions = np.nonzero(mask)
        return cls(degree, dense.shape[0], nvars, rows, positions, dense[mask])

    def evaluate(self, z):
        """
        Evaluate the polynomial at one state ``z`` (length ``nvars``), or
        at each column of an ``(nvars, n)`` batch, giving ``(nrows,)`` or
        ``(nrows, n)``. Vectorized over the stored entries, so repeated
        calls inside integrators stay cheap.

        Each output is summed over its entries in storage order by
        ``np.bincount`` on (row, column) bins, which gives the same sums
        as an ``np.add.at`` scatter, bit for bit.
        """
        z = np.asarray(z)
        values, bins, size = self.values, self.rows, self.nrows
        if z.ndim > 1:
            # result (row, column) is bin row * n + column
            n = z.shape[1]
            values = values[:, None]
            bins = (bins[:, None] * n + np.arange(n)).ravel()
            size *= n
        prod = values * z[self.factors[0]]
        for axis in range(1, self.degree):
            prod *= z[self.factors[axis]]
        prod = prod.ravel()
        shape = (self.nrows,) + z.shape[1:]
        if not np.iscomplexobj(prod):
            return np.bincount(bins, prod, size).reshape(shape)
        out = np.empty(size, dtype=complex)
        out.real = np.bincount(bins, prod.real, size)
        out.imag = np.bincount(bins, prod.imag, size)
        return out.reshape(shape)

    def relabel(self, nrows, nvars, row_offset=0, value_scale=1.0):
        """
        Re-embed into a larger space: same index tuples over ``nvars``
        variables (entries must already fit), rows shifted by
        ``row_offset`` and values scaled. Used to lift second-order
        nonlinearities into first-order form.
        """
        if self.nvars > nvars:
            raise ValidationError("cannot shrink variable count in relabel")
        positions = encode_positions(self.factors, nvars)
        return PolyCoeffs(self.degree, nrows, nvars,
                          self.rows + row_offset, positions,
                          self.values * value_scale)

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
    ncols = nvars**order
    # flat buffers: the kernel writes into a copy of a non-contiguous
    # output, which would lose the sums
    out = np.zeros(nrows * ncols, dtype=complex)
    for fj in f_coeffs:
        j = fj.degree
        if j > order or fj.nnz == 0:
            continue
        tuples, index = fj.distinct_factors
        # F_j in CSR: its storage order is row-major
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(fj.rows, minlength=nrows), out=indptr[1:])
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
