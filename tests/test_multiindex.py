"""Ordering, coding and monomial identities of the multi-index layer."""

import functools
import itertools
import math

import numpy as np
import pytest

from ssmkit.errors import ValidationError
from ssmkit.multiindex import (MultiIndexSet, decode_positions,
                               encode_positions, kron_sum_lambdas,
                               conjugate_permutation, multiset_sum,
                               tuple_positions)


def test_set_size_and_order():
    s = MultiIndexSet(3, 2)
    assert len(s) == 4
    assert s.tuples() == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    for m, k in [(2, 11), (4, 7), (3, 5)]:
        assert len(MultiIndexSet(k, m)) == math.comb(m + k - 1, k)


def test_position_tuple_roundtrip():
    s = MultiIndexSet(4, 3)
    for pos in range(len(s)):
        assert s.position(s.index_tuple(pos)) == pos
    assert [s.index_tuple(pos) for pos in range(len(s))] == s.tuples()


def test_position_accepts_any_order():
    s = MultiIndexSet(3, 3)
    for idx in s.tuples():
        for perm in itertools.permutations(idx):
            assert s.position(perm) == s.position(idx)


def test_position_matches_kron_convention():
    # the ordered Kronecker position l1*m**(k-1) + ... + lk of the
    # coordinate input is exactly where np.kron puts p[l1]*...*p[lk]
    rng = np.random.default_rng(3)
    p = rng.standard_normal(3)
    kp = functools.reduce(np.kron, [p] * 3)
    for idx in [(0, 1, 2), (2, 2, 0), (1, 1, 1)]:
        pos = encode_positions(np.array(idx)[:, None], 3)[0]
        assert kp[pos] == pytest.approx(np.prod(p[list(idx)]))


def test_degree_zero():
    s = MultiIndexSet(0, 4)
    assert len(s) == 1
    assert s.index_tuple(0) == ()


def test_bad_inputs_raise():
    s = MultiIndexSet(2, 3)
    with pytest.raises(ValidationError):
        s.position((0, 3))
    with pytest.raises(ValidationError):
        s.position((0, 1, 2))
    with pytest.raises(ValidationError):
        s.index_tuple(6)
    with pytest.raises(ValidationError):
        MultiIndexSet(-1, 2)
    with pytest.raises(ValidationError):
        MultiIndexSet(60, 10)


def test_encode_decode_vectorized():
    pos = np.arange(16)
    factors = decode_positions(pos, 4, 2)
    assert factors.shape == (4, 16)
    assert np.array_equal(encode_positions(factors, 2), pos)


@pytest.mark.parametrize("degree, nvars", [(1, 3), (3, 2), (4, 3), (5, 4)])
def test_tables_follow_the_tuples(degree, nvars):
    s = MultiIndexSet(degree, nvars)
    factors = s.factors
    assert [tuple(c) for c in factors.T.tolist()] == s.tuples()
    # any order of each tuple finds its position
    assert np.array_equal(tuple_positions(factors[::-1], nvars),
                          np.arange(len(s)))
    lower = MultiIndexSet(degree - 1, nvars).factors
    assert np.array_equal(np.vstack([lower[:, s.parent], s.last]), factors)


def test_multiset_sum_joins_tuples():
    s1, s2, s3 = (MultiIndexSet(k, 3) for k in (1, 2, 3))
    sums = multiset_sum(1, 2, 3)
    assert sums.shape == (3, 6)
    for a, alpha in enumerate(s1.tuples()):
        for b, beta in enumerate(s2.tuples()):
            assert sums[a, b] == s3.position(alpha + beta)


def test_kron_sum_lambdas_positions():
    lam = np.array([1.0 + 2j, -3.0])
    out = kron_sum_lambdas(lam, 2)
    s = MultiIndexSet(2, 2)
    for idx in s.tuples():
        assert out[s.position(idx)] == lam[idx[0]] + lam[idx[1]]


def test_conjugate_permutation_is_involution():
    pairing = np.array([1, 0, 2])
    perm = conjugate_permutation(pairing, 3)
    assert np.array_equal(perm[perm], np.arange(perm.size))


def test_conjugate_permutation_conjugates_powers():
    # z with z[pairing] = conj(z) has monomials symmetric under perm
    z = np.array([0.3 + 0.7j, 0.3 - 0.7j, 0.5 + 0.0j])
    pairing = np.array([1, 0, 2])
    mono = np.prod(z[MultiIndexSet(3, 3).factors], axis=0)
    perm = conjugate_permutation(pairing, 3)
    assert np.allclose(mono[perm], mono.conjugate())
