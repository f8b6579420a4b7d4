"""
Ordered multi-indices for Kronecker-power coordinates.

A degree-``k`` monomial in ``m`` variables is addressed by an ordered
tuple ``(l_1, ..., l_k)`` with every ``l_j`` in ``0..m-1``. The tuples
are ordered lexicographically, which is exactly the ordering produced
by repeated Kronecker products: position ``l_1*m**(k-1) + ... + l_k``.
Indexing is unsymmetrized, so ``(0, 1)`` and ``(1, 0)`` are distinct
columns whose coefficients add when the polynomial is evaluated.

Tuples are 0-based throughout the package. The text file format for
tensors is 1-based and converted on load/save (see ``ssmkit.fileio``).
"""

import numpy as np

from .errors import ValidationError

# Hard cap on the number of addressable positions m**k, which guards
# the dense blocks indexed by position (the manifold's W and R): past it
# the position arithmetic no longer fits comfortably in an int64 and a
# dense block would not fit in memory. Sparse polynomial blocks are
# keyed by factor tuples and have no such cap.
MAX_POSITIONS = 2**48


class MultiIndexSet:
    """
    The set of ordered degree-``degree`` multi-indices over ``nvars``
    variables in lexicographic order.

    Supports ``len``, iteration, ``position(tuple)`` and
    ``index_tuple(position)`` without materializing anything, so large
    sets are cheap to hold. ``tuples()`` builds the explicit list.

    Examples
    --------
    >>> s = MultiIndexSet(3, 2)
    >>> len(s)
    8
    >>> s.index_tuple(1)
    (0, 0, 1)
    >>> s.position((1, 0, 1))
    5
    """

    def __init__(self, degree, nvars):
        if degree < 0 or nvars < 1:
            raise ValidationError(
                "need degree >= 0 and nvars >= 1, got degree=%d nvars=%d"
                % (degree, nvars))
        size = nvars**degree
        if size > MAX_POSITIONS:
            raise ValidationError(
                "index set with %d**%d positions exceeds the addressable "
                "capacity of %d" % (nvars, degree, MAX_POSITIONS))
        self.degree = degree
        self.nvars = nvars
        self.size = size

    def __len__(self):
        return self.size

    def __iter__(self):
        for pos in range(self.size):
            yield self.index_tuple(pos)

    def position(self, idx):
        """Return the lexicographic position of an index tuple."""
        if len(idx) != self.degree:
            raise ValidationError(
                "index tuple %r has length %d, expected degree %d"
                % (tuple(idx), len(idx), self.degree))
        pos = 0
        for l in idx:
            if not 0 <= l < self.nvars:
                raise ValidationError(
                    "index entry %d out of range 0..%d" % (l, self.nvars - 1))
            pos = pos * self.nvars + l
        return pos

    def index_tuple(self, pos):
        """Return the index tuple stored at a lexicographic position."""
        if not 0 <= pos < self.size:
            raise ValidationError(
                "position %d out of range 0..%d" % (pos, self.size - 1))
        out = []
        for _ in range(self.degree):
            pos, l = divmod(pos, self.nvars)
            out.append(l)
        return tuple(reversed(out))

    def tuples(self):
        """Materialize the full ordered tuple list (small sets only)."""
        if self.size > 2**22:
            raise ValidationError(
                "refusing to materialize %d tuples; iterate instead" % self.size)
        return list(iter(self))


def decode_positions(positions, degree, nvars):
    """
    Vectorized inverse of ``position``: an int array of positions becomes
    a ``(degree, len(positions))`` array of factor indices.
    """
    positions = np.asarray(positions, dtype=np.int64)
    out = np.empty((degree, positions.size), dtype=np.int64)
    rem = positions.copy()
    for axis in range(degree - 1, -1, -1):
        rem, out[axis] = np.divmod(rem, nvars)
    return out


def encode_positions(factors, nvars):
    """Vectorized ``position``: ``(degree, n)`` factor indices to positions."""
    factors = np.asarray(factors, dtype=np.int64)
    pos = np.zeros(factors.shape[1], dtype=np.int64)
    for axis in range(factors.shape[0]):
        pos = pos * nvars + factors[axis]
    return pos


def kron_step(a, b):
    """Row-wise Kronecker product, row ``i*len(b) + j`` = ``a[i] * b[j]``;
    trailing axes broadcast, so columns of ``(A, n)`` and ``(B, n)``
    give the ``np.kron`` of each column pair."""
    prod = a[:, None] * b[None, :]
    return prod.reshape((-1,) + prod.shape[2:])


def kron_sum_lambdas(lambdas, degree):
    """
    Eigenvalues of the Kronecker-sum operator built from ``diag(lambdas)``.

    Position ``l`` holds ``lambdas[l_1] + ... + lambdas[l_k]``, the sum
    eigenvalue attached to the degree-``degree`` monomial at ``l``.

    Examples
    --------
    >>> kron_sum_lambdas(np.array([1j, -1j]), 2)
    array([0.+2.j, 0.+0.j, 0.+0.j, 0.-2.j])
    """
    lambdas = np.asarray(lambdas)
    out = np.zeros(1, dtype=lambdas.dtype)
    for _ in range(degree):
        out = np.add.outer(out, lambdas).ravel()
    return out


def conjugate_permutation(pairing, degree):
    """
    Column permutation induced on degree-``degree`` positions by swapping
    each variable with its conjugate partner.

    ``pairing[j]`` is the partner variable of ``j`` (itself if real).
    Returns an int array ``perm`` with ``perm[l] = position of the
    partner tuple of l``, so conjugate-symmetric coefficient arrays
    satisfy ``W[:, perm] == conj(W)``.
    """
    pairing = np.asarray(pairing, dtype=np.int64)
    m = pairing.size
    size = m**degree
    factors = decode_positions(np.arange(size), degree, m)
    return encode_positions(pairing[factors], m)
