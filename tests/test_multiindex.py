"""Ordering, coding and Kronecker identities of the multi-index layer."""

import numpy as np
import pytest

from ssmkit.errors import ValidationError
from ssmkit.multiindex import (MultiIndexSet, decode_positions,
                               encode_positions, kron_power,
                               kron_sum_lambdas, conjugate_permutation)


def test_set_size_and_order():
    s = MultiIndexSet(3, 2)
    assert len(s) == 8
    assert s.tuples() == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                          (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_position_tuple_roundtrip():
    s = MultiIndexSet(4, 3)
    for pos in range(len(s)):
        assert s.position(s.index_tuple(pos)) == pos


def test_position_matches_kron_convention():
    # position l1*m**(k-1) + ... + lk is exactly where np.kron puts the
    # product p[l1]*...*p[lk]
    rng = np.random.default_rng(3)
    p = rng.standard_normal(3)
    kp = kron_power(p, 3)
    s = MultiIndexSet(3, 3)
    for idx in [(0, 1, 2), (2, 2, 0), (1, 1, 1)]:
        assert kp[s.position(idx)] == pytest.approx(np.prod(p[list(idx)]))


def test_degree_zero():
    s = MultiIndexSet(0, 4)
    assert len(s) == 1
    assert s.index_tuple(0) == ()
    assert np.allclose(kron_power(np.arange(4.0), 0), [1.0])


def test_bad_inputs_raise():
    s = MultiIndexSet(2, 3)
    with pytest.raises(ValidationError):
        s.position((0, 3))
    with pytest.raises(ValidationError):
        s.position((0, 1, 2))
    with pytest.raises(ValidationError):
        s.index_tuple(9)
    with pytest.raises(ValidationError):
        MultiIndexSet(-1, 2)
    with pytest.raises(ValidationError):
        MultiIndexSet(60, 10)


def test_encode_decode_vectorized():
    pos = np.arange(16)
    factors = decode_positions(pos, 4, 2)
    assert factors.shape == (4, 16)
    assert np.array_equal(encode_positions(factors, 2), pos)


def test_kron_power_matches_np_kron():
    rng = np.random.default_rng(11)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    expected = np.kron(np.kron(p, p), p)
    assert np.allclose(kron_power(p, 3), expected)


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
    # z with z[pairing] = conj(z) has kron powers symmetric under perm
    z = np.array([0.3 + 0.7j, 0.3 - 0.7j, 0.5 + 0.0j])
    pairing = np.array([1, 0, 2])
    kp = kron_power(z, 3)
    perm = conjugate_permutation(pairing, 3)
    assert np.allclose(kp[perm], kp.conjugate())
