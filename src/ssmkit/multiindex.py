"""
Sorted multi-indices: one column per monomial.

A degree-``k`` monomial ``p_(l_1) ... p_(l_k)`` in ``m`` variables is
addressed by its factor tuple sorted ascending, ``l_1 <= ... <= l_k``
with every ``l_j`` in ``0..m-1``; a tuple in any order names the same
monomial. There are ``C(m+k-1, k)`` sorted tuples, and their
lexicographic order numbers the columns of the manifold's coefficient
blocks W and R, so each column holds one monomial's full coefficient.
The tuples of degree ``k`` are those of degree ``k-1`` with one factor
appended that is no smaller than their last, so a table of monomial
values is the previous degree's table gathered at each tuple's prefix
(``parent``) and multiplied by the variable of its last factor
(``last``).

The ordered Kronecker positions ``l_1*m**(k-1) + ... + l_k`` of
:func:`decode_positions` and :func:`encode_positions` remain the
coordinate input of ``PolyCoeffs``.

Tuples are 0-based throughout the package. The text file format for
tensors is 1-based and converted on load/save (see ``ssmkit.fileio``).
"""

import functools
import itertools
import math

import numpy as np

from .errors import ValidationError

# Hard cap on the number of monomials C(m+k-1, k) of one index set,
# which guards the dense blocks with one column per monomial (the
# manifold's W and R) and the tables built over them. Sparse polynomial
# blocks are keyed by factor tuples and have no such cap.
MAX_COLUMNS = 2**24


class MultiIndexSet:
    """
    The sorted degree-``degree`` multi-indices over ``nvars`` variables
    in lexicographic order.

    Supports ``len``, iteration, ``position(tuple)`` and
    ``index_tuple(position)`` without materializing anything; ``tuples()``
    builds the explicit list and ``factors``, ``parent`` and ``last``
    the cached arrays the solver works with.

    Examples
    --------
    >>> s = MultiIndexSet(3, 2)
    >>> len(s)
    4
    >>> s.tuples()
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    >>> s.position((1, 0, 1))
    2
    """

    def __init__(self, degree, nvars):
        if degree < 0 or nvars < 1:
            raise ValidationError(
                "need degree >= 0 and nvars >= 1, got degree=%d nvars=%d"
                % (degree, nvars))
        size = math.comb(nvars + degree - 1, degree)
        if size > MAX_COLUMNS:
            raise ValidationError(
                "index set of degree %d over %d variables has %d monomials, "
                "past the capacity of %d" % (degree, nvars, size, MAX_COLUMNS))
        self.degree = degree
        self.nvars = nvars
        self.size = size

    def __len__(self):
        return self.size

    def __iter__(self):
        return itertools.combinations_with_replacement(range(self.nvars),
                                                       self.degree)

    def position(self, idx):
        """Return the position of an index tuple, in any order."""
        if len(idx) != self.degree:
            raise ValidationError(
                "index tuple %r has length %d, expected degree %d"
                % (tuple(idx), len(idx), self.degree))
        for l in idx:
            if not 0 <= l < self.nvars:
                raise ValidationError(
                    "index entry %d out of range 0..%d" % (l, self.nvars - 1))
        return int(tuple_positions(np.reshape(idx, (-1, 1)), self.nvars)[0])

    def index_tuple(self, pos):
        """Return the sorted index tuple stored at a position."""
        if not 0 <= pos < self.size:
            raise ValidationError(
                "position %d out of range 0..%d" % (pos, self.size - 1))
        out, v = [], 0
        for j in range(self.degree):
            rest = self.degree - j - 1
            # the tuples with factor v in slot j and larger ones after it
            while pos >= math.comb(self.nvars - v + rest - 1, rest):
                pos -= math.comb(self.nvars - v + rest - 1, rest)
                v += 1
            out.append(v)
        return tuple(out)

    def tuples(self):
        """Materialize the full sorted tuple list (small sets only)."""
        if self.size > 2**22:
            raise ValidationError(
                "refusing to materialize %d tuples; iterate instead" % self.size)
        return list(iter(self))

    @property
    def factors(self):
        """The tuples as a read-only ``(degree, size)`` int array."""
        return _table(self.degree, self.nvars)[0]

    @property
    def parent(self):
        """For each tuple, the position of its first ``degree - 1``
        factors in the set of degree ``degree - 1``."""
        return _table(self.degree, self.nvars)[1]

    @property
    def last(self):
        """For each tuple, its last (largest) factor."""
        return _table(self.degree, self.nvars)[2]


@functools.lru_cache(maxsize=256)
def _table(degree, nvars):
    """(factors, parent, last) of the sorted tuples, built degree by
    degree: each tuple of degree k - 1 is followed by every factor from
    its last one up to nvars - 1, which keeps the lexicographic order."""
    MultiIndexSet(degree, nvars)  # validates
    factors = np.zeros((0, 1), dtype=np.int64)
    parent = last = np.zeros(1, dtype=np.int64)
    for _ in range(degree):
        low = factors[-1] if factors.shape[0] else np.zeros(1, np.int64)
        counts = nvars - low
        parent = np.repeat(np.arange(low.size), counts)
        start = np.repeat(np.cumsum(counts) - counts, counts)
        last = low[parent] + np.arange(parent.size) - start
        factors = np.vstack([factors[:, parent], last])
    for arr in (factors, parent, last):
        arr.flags.writeable = False
    return factors, parent, last


def tuple_positions(factors, nvars):
    """
    Vectorized :meth:`MultiIndexSet.position`: the columns of a
    ``(degree, n)`` factor array, each in any order, to their positions
    among the sorted tuples.
    """
    factors = np.sort(np.asarray(factors, dtype=np.int64), axis=0)
    degree = factors.shape[0]
    # cum[j, x]: the tuples whose slot-j factor is below x, given the
    # slots before it; slot j leaves degree - j - 1 slots after it
    cum = np.zeros((degree, nvars + 1), dtype=np.int64)
    for j in range(degree):
        rest = degree - j - 1
        counts = [math.comb(nvars - v + rest - 1, rest) for v in range(nvars)]
        cum[j, 1:] = np.cumsum(counts)
    pos = np.zeros(factors.shape[1], dtype=np.int64)
    low = np.zeros(factors.shape[1], dtype=np.int64)
    for j in range(degree):
        pos += cum[j, factors[j]] - cum[j, low]
        low = factors[j]
    return pos


@functools.lru_cache(maxsize=256)
def multiset_sum(a, b, nvars):
    """
    The ``(C(nvars+a-1, a), C(nvars+b-1, b))`` int array whose entry
    (alpha, beta) is the position of the degree-``a + b`` tuple that
    joins the sorted tuples alpha of degree ``a`` and beta of degree
    ``b``: the product ``p^alpha p^beta`` is the monomial there.
    """
    fa, fb = _table(a, nvars)[0], _table(b, nvars)[0]
    joined = np.concatenate([np.repeat(fa, fb.shape[1], axis=1),
                             np.tile(fb, fa.shape[1])])
    out = tuple_positions(joined, nvars).reshape(fa.shape[1], fb.shape[1])
    out.flags.writeable = False
    return out


def decode_positions(positions, degree, nvars):
    """
    Ordered Kronecker positions ``l_1*nvars**(degree-1) + ... + l_k`` to
    a ``(degree, len(positions))`` array of factor indices.
    """
    positions = np.asarray(positions, dtype=np.int64)
    out = np.empty((degree, positions.size), dtype=np.int64)
    rem = positions.copy()
    for axis in range(degree - 1, -1, -1):
        rem, out[axis] = np.divmod(rem, nvars)
    return out


def encode_positions(factors, nvars):
    """``(degree, n)`` factor indices to ordered Kronecker positions."""
    factors = np.asarray(factors, dtype=np.int64)
    pos = np.zeros(factors.shape[1], dtype=np.int64)
    for axis in range(factors.shape[0]):
        pos = pos * nvars + factors[axis]
    return pos


def kron_sum_lambdas(lambdas, degree):
    """
    Eigenvalue sums of the degree-``degree`` monomials: position ``l``
    holds ``lambdas[l_1] + ... + lambdas[l_k]`` for the sorted tuple at
    ``l``. Each is an eigenvalue of the Kronecker-sum operator of
    ``diag(lambdas)``, as often as the tuple has orderings.

    Examples
    --------
    >>> kron_sum_lambdas(np.array([1j, -1j]), 2)
    array([0.+2.j, 0.+0.j, 0.-2.j])
    """
    lambdas = np.asarray(lambdas)
    out = np.zeros(1, dtype=lambdas.dtype)
    for row in MultiIndexSet(degree, lambdas.size).factors:
        out = out + lambdas[row]
    return out


def conjugate_permutation(pairing, degree):
    """
    Column permutation induced on degree-``degree`` monomials by swapping
    each variable with its conjugate partner.

    ``pairing[j]`` is the partner variable of ``j`` (itself if real).
    Returns an int array ``perm`` with ``perm[l] = position of the
    partner tuple of l``, so conjugate-symmetric coefficient arrays
    satisfy ``W[:, perm] == conj(W)``.
    """
    pairing = np.asarray(pairing, dtype=np.int64)
    factors = MultiIndexSet(degree, pairing.size).factors
    return tuple_positions(pairing[factors], pairing.size)
