"""Property tests for the algebraic identities the solver leans on."""

import functools
import math

import numpy as np
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ssmkit import classify_resonances
from ssmkit.multiindex import (MultiIndexSet, conjugate_permutation,
                               kron_sum_lambdas)
from ssmkit.polytensor import PolyCoeffs
from ssmkit.spectrum import MasterSubspace


def orderings(mis):
    """The number of distinct orderings of each sorted tuple of ``mis``."""
    return np.array([math.factorial(mis.degree)
                     // math.prod(math.factorial(t.count(k)) for k in set(t))
                     for t in mis.tuples()])


finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                   allow_infinity=False)


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10**6))
def test_position_tuple_bijection(degree, nvars, raw):
    mis = MultiIndexSet(degree, nvars)
    pos = raw % mis.size
    assert mis.position(mis.index_tuple(pos)) == pos


@given(st.integers(min_value=1, max_value=3),
       st.lists(finite, min_size=2, max_size=3),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_kron_sum_matches_dense_operator(degree, diag, seed):
    rng = np.random.default_rng(seed)
    m = len(diag)
    R = rng.normal(size=(m, m)) + np.diag(diag)
    lam = la.eigvals(R)
    eye = np.eye(m)
    op = np.zeros((m**degree, m**degree), dtype=complex)
    for k in range(degree):
        term = np.ones((1, 1))
        for slot in range(degree):
            term = np.kron(term, R if slot == k else eye)
        op = op + term
    want = la.eigvals(op)
    # each monomial's sum, once per ordering of its tuple
    got = np.repeat(kron_sum_lambdas(lam, degree),
                    orderings(MultiIndexSet(degree, m)))
    cost = np.abs(want[:, None] - got[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-10 * max(1.0, np.abs(want).max())


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reciprocal_eigenpairs_annihilate_the_pencil_kron(seed):
    # with A v = lam B v and C f = (1/lam) D f, the product vector
    # f (x) v sits in the kernel of D (x) B - C (x) A
    rng = np.random.default_rng(seed)
    n = 3
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, n)) + 3 * np.eye(n)
    w, V = la.eig(A, B)
    pick = int(np.argmax(np.abs(w)))
    lam, v = w[pick], V[:, pick]
    D = rng.normal(size=(n, n)) + 3 * np.eye(n)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    C = rng.normal(size=(n, n)).astype(complex)
    C = C + np.outer((D @ f) / lam - C @ f, f.conj()) / np.vdot(f, f)
    E = np.kron(D, B) - np.kron(C, A)
    resid = la.norm(E @ np.kron(f, v))
    scale = la.norm(E) * la.norm(np.kron(f, v))
    assert resid <= 1e-10 * max(scale, 1.0)


@given(st.floats(min_value=0.001, max_value=0.05),
       st.floats(min_value=0.3, max_value=2.0),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=25)
def test_resonance_report_respects_conjugation(decay, freq, order):
    lam = np.array([-decay + 1j * freq, -decay - 1j * freq])
    pairing = np.array([1, 0])
    eye = np.eye(2, dtype=complex)
    master = MasterSubspace(lam, eye, eye, pairing, np.array([]))
    report = classify_resonances(master, order)
    for o in range(2, order + 1):
        flagged = report.inner_at(o)
        sigma = conjugate_permutation(pairing, o)
        mirrored = {(int(sigma[pos]), int(pairing[j]))
                    for pos, j in flagged}
        assert mirrored == flagged


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=3))
def test_poly_evaluation_ignores_entry_order(seed, degree):
    rng = np.random.default_rng(seed)
    mis = MultiIndexSet(degree, 3)
    entries = [(int(rng.integers(2)), mis.index_tuple(int(rng.integers(mis.size))),
                float(rng.normal())) for _ in range(6)]
    fc = PolyCoeffs.from_entries(degree, 2, 3, entries)
    shuffled = list(entries)
    rng.shuffle(shuffled)
    fc2 = PolyCoeffs.from_entries(degree, 2, 3, shuffled)
    assert np.allclose(fc.to_dense(), fc2.to_dense(), atol=0.0)
    z = rng.normal(size=3)
    assert np.allclose(fc.evaluate(z), fc.to_dense() @ functools.reduce(np.kron, [z] * degree),
                       rtol=1e-12, atol=1e-12)


@given(st.integers(min_value=1, max_value=4))
def test_conjugate_permutation_is_an_involution_for_pairs(degree):
    pairing = np.array([1, 0, 2])
    sigma = conjugate_permutation(pairing, degree)
    assert np.array_equal(sigma[sigma], np.arange(sigma.size))
