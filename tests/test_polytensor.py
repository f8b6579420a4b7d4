"""Sparse polynomial blocks against dense Kronecker-product oracles."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from ssmkit import build_first_order, oscillator_chain
from ssmkit.errors import ValidationError
from ssmkit.multiindex import (MultiIndexSet, decode_positions,
                               encode_positions, tuple_positions)
from ssmkit.polytensor import PolyCoeffs, compose, apply_kron_sum


def random_poly(degree, nrows, nvars, nnz, seed, complex_values=False):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, nnz)
    positions = rng.integers(0, nvars**degree, nnz)
    values = rng.standard_normal(nnz)
    if complex_values:
        values = values + 1j * rng.standard_normal(nnz)
    return PolyCoeffs(degree, nrows, nvars, rows, positions, values)


def test_duplicates_are_summed():
    fc = PolyCoeffs(2, 2, 2, [0, 0, 1], [3, 3, 0], [1.0, 2.0, 5.0])
    assert fc.nnz == 2
    dense = fc.to_dense()
    assert dense[0, 3] == 3.0 and dense[1, 0] == 5.0


def test_evaluate_matches_dense_kron():
    fc = random_poly(3, 4, 3, 12, seed=0, complex_values=True)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.allclose(fc.evaluate(z), fc.to_dense() @ functools.reduce(np.kron, [z] * 3))


def test_evaluate_on_a_batch_stacks_single_states():
    rng = np.random.default_rng(5)
    rows, positions = rng.integers(0, 4, 12), rng.integers(0, 27, 12)
    Z = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    for values in (rng.standard_normal(12),
                   rng.standard_normal(12) + 1j * rng.standard_normal(12)):
        fc = PolyCoeffs(3, 4, 3, rows, positions, values)
        for batch in (Z, Z.real.copy()):
            got = fc.evaluate(batch)
            assert got.shape == (4, 6)
            for j in range(6):
                assert np.array_equal(got[:, j], fc.evaluate(batch[:, j]))


def add_at_evaluate(fc, z):
    """Reference evaluation: gather-product, then an np.add.at scatter."""
    z = np.asarray(z)
    values, shape = fc.values, fc.nrows
    if z.ndim > 1:
        values, shape = values[:, None], (shape, z.shape[1])
    prod = values * z[fc.factors[0]]
    for axis in range(1, fc.degree):
        prod = prod * z[fc.factors[axis]]
    out = np.zeros(shape, dtype=np.result_type(prod, np.float64))
    np.add.at(out, fc.rows, prod)
    return out


def assert_within_rounding(fc, z):
    """
    ``fc.evaluate(z)`` against the ordered scatter, within the a-priori
    bound of their difference. Each sums the nnz_row terms of its row
    from zero, and each term is a product of degree + 1 factors, so
    each lies within (nnz_row + 2 degree) u S of the exact value, with
    u = 2**-53 and S the row's sum of |v| |z_a| ... |z_k| (the 2 covers
    complex products, which round by at most sqrt(5) u).
    """
    got, want = fc.evaluate(z), add_at_evaluate(fc, z)
    assert got.dtype == want.dtype and got.shape == want.shape
    absolute = PolyCoeffs.from_factors(fc.degree, fc.nrows, fc.nvars,
                                       fc.rows, fc.factors, np.abs(fc.values))
    scale = add_at_evaluate(absolute, np.abs(np.asarray(z, dtype=complex)))
    nnz_row = np.bincount(fc.rows, minlength=fc.nrows)
    if scale.ndim > 1:
        nnz_row = nnz_row[:, None]
    bound = 2 * (nnz_row + 2 * fc.degree) * 2.0**-53 * scale
    assert (np.abs(got - want) <= bound).all()
    return got


@pytest.mark.parametrize("complex_values", [False, True])
def test_evaluate_agrees_with_the_add_at_scatter(complex_values):
    # 60 entries on 4 rows, so every output sums many terms
    fc = random_poly(3, 4, 5, 60, seed=7, complex_values=complex_values)
    rng = np.random.default_rng(8)
    state = rng.standard_normal(5)
    batch = rng.standard_normal((5, 9))
    for z in (state, state + 1j * rng.standard_normal(5),
              batch, batch + 1j * rng.standard_normal((5, 9)),
              state.astype(np.float32), rng.integers(-3, 4, 5),
              state.tolist(), np.zeros((5, 0))):
        assert_within_rounding(fc, z)


def bar_cubic(n, seed):
    """
    The cubic of a bar of n nodes between walls: node r feels
    +-k_s (x_s - x_{s-1})**3 from each spring s at it, with random
    stiffnesses k_s, stored as every ordered factor tuple of the
    expanded cube, as an assembler writes it.
    """
    rng = np.random.default_rng(seed)
    rows, factors, values = [], [], []
    for s, k in enumerate(rng.uniform(0.5, 1.5, n + 1)):
        ends = [(node, sign) for node, sign in ((s, 1.0), (s - 1, -1.0))
                if 0 <= node < n]
        for node, force_sign in ends:
            for cube in itertools.product(ends, repeat=3):
                rows.append(node)
                factors.append([a for a, _ in cube])
                values.append(k * force_sign * np.prod([c for _, c in cube]))
    return PolyCoeffs.from_factors(3, n, n, rows, np.array(factors).T,
                                   values)


def test_evaluate_folds_the_permuted_tuples_of_the_bar_cubic():
    fc = bar_cubic(30, seed=3)
    assert fc._plan is None
    rng = np.random.default_rng(4)
    x = rng.standard_normal(30)
    got = assert_within_rounding(fc, x)
    assert_within_rounding(fc, rng.standard_normal((30, 5)))
    # one monomial per distinct sorted tuple: a cube per node, and
    # x_a^2 x_b and x_a x_b^2 per interior spring, of 16 ordered tuples
    tuples = fc._plan[0]
    assert (np.diff(tuples, axis=0) >= 0).all()
    assert tuples.shape[1] == 30 + 2 * 29
    assert fc.evaluate(x).tobytes() == got.tobytes()


def test_entries_that_cancel_on_folding_give_exact_zeros():
    fc = PolyCoeffs.from_entries(2, 3, 2, [
        (0, (0, 1), 2.5), (0, (1, 0), -2.5), (1, (1, 1), 3.0),
        (2, (0, 0), 1.0), (2, (0, 0), -1.0)])
    rng = np.random.default_rng(6)
    for z in (rng.standard_normal(2), rng.standard_normal((2, 4))
              + 1j * rng.standard_normal((2, 4))):
        got = fc.evaluate(z)
        assert (got[0] == 0).all() and (got[2] == 0).all()
        assert np.array_equal(got[1], 3.0 * (z[1] * z[1]))


def test_evaluate_adds_into_a_given_output():
    fc = random_poly(2, 4, 3, 10, seed=9)
    rng = np.random.default_rng(10)
    Z = rng.standard_normal((3, 5))
    out = np.ones((4, 5))
    assert fc.evaluate(Z, add_to=out) is out
    # the sums start from the given output
    assert np.allclose(out - 1.0, fc.evaluate(Z), rtol=0, atol=1e-15)
    wide = np.zeros((4, 5), dtype=complex)
    assert np.array_equal(fc.evaluate(Z, add_to=wide), fc.evaluate(Z))
    for bad in (np.zeros((4, 6)), np.zeros((5, 4)).T, np.zeros(4),
                np.zeros((4, 5), dtype=np.float32)):
        with pytest.raises(ValidationError, match="add_to"):
            fc.evaluate(Z, add_to=bad)
    with pytest.raises(ValidationError, match="add_to"):
        fc.evaluate(Z + 1j, add_to=np.zeros((4, 5)))


def test_evaluate_without_entries_gives_zeros():
    fc = PolyCoeffs(2, 3, 2, [], [], [])
    assert np.array_equal(fc.evaluate(np.ones(2)), np.zeros(3))
    assert np.array_equal(fc.evaluate(np.ones((2, 4))), np.zeros((3, 4)))


def test_from_entries_and_entries_roundtrip():
    entries = [(0, (1, 2), 2.5), (3, (0, 0), -1.0)]
    fc = PolyCoeffs.from_entries(2, 4, 3, entries)
    assert sorted(fc.entries()) == sorted(entries)


def test_from_factors_matches_positions():
    entries = [(0, (1, 2), 2.5), (3, (0, 0), -1.0), (0, (1, 2), 0.5)]
    factors = np.array([[1, 0, 1], [2, 0, 2]])
    fc = PolyCoeffs.from_factors(2, 4, 3, [0, 3, 0], factors,
                                 [2.5, -1.0, 0.5])
    positions = encode_positions(factors, 3)
    ref = PolyCoeffs(2, 4, 3, [0, 3, 0], positions, [2.5, -1.0, 0.5])
    for name in ("rows", "values", "factors"):
        assert np.array_equal(getattr(fc, name), getattr(ref, name))
    assert fc.nnz == 2 and fc.to_dense()[0, positions[0]] == 3.0


def test_from_factors_and_entries_validate():
    with pytest.raises(ValidationError, match="shape"):
        PolyCoeffs.from_factors(2, 2, 2, [0], [[0, 1]], [1.0])
    with pytest.raises(ValidationError, match="shape"):
        PolyCoeffs.from_factors(2, 2, 2, [0, 1], [[0], [1]], [1.0, 1.0])
    with pytest.raises(ValidationError, match="out of range"):
        PolyCoeffs.from_factors(2, 2, 2, [0], [[0], [2]], [1.0])
    with pytest.raises(ValidationError, match="out of range"):
        PolyCoeffs.from_factors(2, 2, 2, [0], [[-1], [0]], [1.0])
    with pytest.raises(ValidationError, match="length 1, expected degree 2"):
        PolyCoeffs.from_entries(2, 2, 2, [(0, (0, 1), 1.0), (1, (0,), 1.0)])
    with pytest.raises(ValidationError, match="out of range"):
        PolyCoeffs.from_entries(2, 2, 2, [(0, (0, 2), 1.0)])
    empty = PolyCoeffs.from_entries(3, 2, 2, [])
    assert empty.nnz == 0 and empty.factors.shape == (3, 0)


def position_keyed(degree, nvars, rows, positions, values):
    """
    Reference normalization, keyed by flat positions: a stable sort on
    ``row * nvars**degree + position``, duplicates summed by np.add.at
    over np.unique's inverse. Returns the stored rows, factors and
    values and the distinct tuples with each entry's column.
    """
    size = nvars**degree
    key = np.asarray(rows) * size + np.asarray(positions)
    order = np.argsort(key, kind="stable")
    uniq, inverse = np.unique(key[order], return_inverse=True)
    values = np.asarray(values)[order]
    summed = np.zeros(uniq.size, dtype=np.result_type(values, np.float64))
    np.add.at(summed, inverse, values)
    factors = decode_positions(uniq % size, degree, nvars)
    _, first, index = np.unique(uniq % size, return_index=True,
                                return_inverse=True)
    return uniq // size, factors, summed, factors[:, first], index


@pytest.mark.parametrize("complex_values", [False, True])
def test_storage_is_bitwise_the_position_keyed_one(complex_values):
    rng = np.random.default_rng(21)
    for degree, nrows, nvars, nnz in [(1, 3, 4, 9), (2, 5, 3, 40),
                                      (3, 4, 4, 80), (4, 2, 3, 60)]:
        # few distinct (row, position) pairs, so most entries repeat one
        rows = rng.integers(0, nrows, nnz)
        positions = rng.choice(nvars**degree, 6)[rng.integers(0, 6, nnz)]
        values = rng.standard_normal(nnz)
        if complex_values:
            values = values + 1j * rng.standard_normal(nnz)
        want = position_keyed(degree, nvars, rows, positions, values)
        factors = decode_positions(positions, degree, nvars)
        for fc in (PolyCoeffs(degree, nrows, nvars, rows, positions, values),
                   PolyCoeffs.from_factors(degree, nrows, nvars, rows,
                                           factors, values)):
            got = (fc.rows, fc.factors, fc.values) + fc.distinct_factors
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("degree, nvars", [(3, 10**6), (4, 2 * 10**5)])
def test_blocks_past_the_position_capacity(degree, nvars):
    # nvars**degree is 1e18 and 1.6e21 positions: far past what a dense
    # block could hold, and at degree 4 past int64
    nrows, m = 6, 2
    rng = np.random.default_rng(degree)
    factors = rng.integers(0, nvars, (degree, 8))[:, rng.integers(0, 8, 30)]
    rows = rng.integers(0, nrows, 30)
    fc = PolyCoeffs.from_factors(degree, nrows, nvars, rows, factors,
                                 rng.standard_normal(30))
    assert 0 < fc.nnz <= 30 and fc.distinct_factors[0].shape[1] <= 8
    z = rng.standard_normal(nvars)
    assert_within_rounding(fc, z)
    lifted = fc.relabel(2 * nrows, nvars + 1, row_offset=nrows,
                        value_scale=-1.0)
    assert np.array_equal(lifted.factors, fc.factors)
    assert np.array_equal(lifted.evaluate(np.append(z, 3.0)),
                          np.concatenate([np.zeros(nrows), -fc.evaluate(z)]))
    # at order = degree only W_1 enters; the others stay untouched pages
    w_blocks = {q: np.zeros((nvars, MultiIndexSet(q, m).size))
                for q in range(2, degree)}
    w_blocks[1] = rng.standard_normal((nvars, m))
    ordered = {q: np.zeros((nvars, m**q)) for q in range(2, degree)}
    ordered[1] = w_blocks[1]
    assert_compose_within_rounding([fc], w_blocks, degree, m, nrows, ordered)


def test_from_dense_roundtrip():
    fc = random_poly(2, 3, 4, 9, seed=7)
    back = PolyCoeffs.from_dense(2, 4, fc.to_dense())
    assert np.allclose(back.to_dense(), fc.to_dense())


def test_relabel_shifts_rows_and_scales():
    fc = PolyCoeffs.from_entries(3, 2, 2, [(1, (0, 1, 1), 4.0)])
    lifted = fc.relabel(5, 3, row_offset=2, value_scale=-0.5)
    (row, idx, val), = lifted.entries()
    assert (row, idx, val) == (3, (0, 1, 1), -2.0)
    # index tuples keep their meaning in the larger variable space
    z = np.array([2.0, 3.0, 9.0])
    pos = encode_positions(np.array([[0], [1], [1]]), 3)[0]
    assert lifted.to_dense()[3, pos] == -2.0


def test_absolute_shares_the_plan_of_its_polynomial():
    fc = random_poly(3, 5, 4, 30, seed=11)
    absolute = fc.absolute()
    # the same tables, no sort: only the values change
    for shared, own in zip(absolute.monomials[:3], fc.monomials[:3]):
        assert shared is own
    assert absolute.distinct_factors is fc.distinct_factors
    want = PolyCoeffs.from_factors(3, 5, 4, fc.rows, fc.factors,
                                   np.abs(fc.values))
    z = np.random.default_rng(3).normal(size=(4, 6))
    assert np.array_equal(absolute.evaluate(z), want.evaluate(z))
    assert (np.abs(fc.evaluate(z)) <= absolute.evaluate(np.abs(z))).all()


def test_relabel_rejects_shrinking():
    fc = PolyCoeffs.from_entries(2, 2, 3, [(0, (2, 2), 1.0)])
    with pytest.raises(ValidationError):
        fc.relabel(2, 2)


def test_validation_errors():
    with pytest.raises(ValidationError):
        PolyCoeffs(2, 2, 2, [2], [0], [1.0])
    with pytest.raises(ValidationError):
        PolyCoeffs(2, 2, 2, [0], [4], [1.0])
    with pytest.raises(ValidationError):
        PolyCoeffs(2, 2, 2, [0, 1], [0], [1.0])


def compositions(total, parts):
    """All ordered tuples of ``parts`` positive integers summing to
    ``total``: the order splits of the Kronecker-basis oracles."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions():
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    assert list(compositions(2, 3)) == []


def fold(block, degree, nvars):
    """A block over ordered Kronecker positions summed onto its
    monomials, one column per sorted tuple."""
    sorted_pos = tuple_positions(
        decode_positions(np.arange(nvars**degree), degree, nvars), nvars)
    out = np.zeros((block.shape[0], MultiIndexSet(degree, nvars).size),
                   dtype=complex)
    np.add.at(out.T, sorted_pos, block.T)
    return out


def unfold(block, degree, nvars):
    """The Kronecker-position block of the same polynomial: each
    monomial's coefficient at the position of its sorted tuple."""
    out = np.zeros((block.shape[0], nvars**degree), dtype=block.dtype)
    out[:, encode_positions(MultiIndexSet(degree, nvars).factors,
                            nvars)] = block
    return out


def sorted_blocks(rng, nstates, nvars, orders, complex_w=True):
    blocks = {}
    for q in orders:
        shape = (nstates, MultiIndexSet(q, nvars).size)
        blocks[q] = rng.standard_normal(shape)
        if complex_w:
            blocks[q] = blocks[q] + 1j * rng.standard_normal(shape)
    return blocks


def dense_compose_oracle(f_coeffs, w_blocks, order, nvars, nrows):
    """Collect F(W(p)) at one degree by brute-force Kronecker products
    of Kronecker-position blocks."""
    out = np.zeros((nrows, nvars**order), dtype=complex)
    for fj in f_coeffs:
        j = fj.degree
        for q in compositions(order, j):
            big = w_blocks[q[0]]
            for part in q[1:]:
                big = np.einsum("ax,by->abxy", big, w_blocks[part]).reshape(
                    big.shape[0] * w_blocks[part].shape[0], -1)
            out += fj.to_dense() @ big
    return out


def test_compose_matches_dense_oracle():
    nvars, nstates = 2, 4
    rng = np.random.default_rng(42)
    w_blocks = sorted_blocks(rng, nstates, nvars, (1, 2, 3))
    ordered = {q: unfold(b, q, nvars) for q, b in w_blocks.items()}
    f_coeffs = [random_poly(2, nstates, nstates, 10, seed=2, complex_values=True),
                random_poly(3, nstates, nstates, 10, seed=3, complex_values=True)]
    for order in (2, 3, 4):
        got = compose(f_coeffs, w_blocks, order, nvars)
        want = fold(dense_compose_oracle(f_coeffs, ordered, order, nvars,
                                         nstates), order, nvars)
        assert got.shape == (nstates, MultiIndexSet(order, nvars).size)
        assert np.allclose(got, want)


def add_at_compose(f_coeffs, w_blocks, order, nvars, nrows):
    """
    Reference composition over Kronecker positions: a row-Kronecker
    product for every stored entry, scaled by its value and scattered
    with ``np.add.at``.
    """
    out = np.zeros((nrows, nvars**order), dtype=complex)
    for fj in f_coeffs:
        j = fj.degree
        if j > order or fj.nnz == 0:
            continue
        for q in compositions(order, j):
            kron = w_blocks[q[0]][fj.factors[0]]
            for slot in range(1, j):
                block = w_blocks[q[slot]][fj.factors[slot]]
                kron = (kron[:, :, None] * block[:, None, :]).reshape(
                    kron.shape[0], -1)
            np.add.at(out, fj.rows, fj.values[:, None] * kron)
    return out


def assert_compose_within_rounding(f_coeffs, w_blocks, order, nvars, nrows,
                                   ordered=None):
    """
    ``compose`` on the monomial blocks against the folded scatter on the
    Kronecker-position blocks of the same polynomials, within 1e-13 of
    the scatter of the absolute values: a bound on the rounding of the
    sums of products whatever their order.
    """
    if ordered is None:
        ordered = {q: unfold(b, q, nvars) for q, b in w_blocks.items()}
    got = compose(f_coeffs, w_blocks, order, nvars, nrows=nrows)
    want = fold(add_at_compose(f_coeffs, ordered, order, nvars, nrows),
                order, nvars)
    magnitudes = [PolyCoeffs.from_factors(fj.degree, fj.nrows, fj.nvars,
                                          fj.rows, fj.factors,
                                          np.abs(fj.values))
                  for fj in f_coeffs]
    scale = fold(add_at_compose(magnitudes, {q: np.abs(b) for q, b
                                             in ordered.items()},
                                order, nvars, nrows), order, nvars).real
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (np.abs(got - want) <= 1e-13 * scale).all()
    return got


def shared_tuple_poly(degree, nrows, nvars, nnz, seed, complex_values=False):
    """Entries on random rows drawn from a few index tuples, so most
    tuples serve several rows."""
    rng = np.random.default_rng(seed)
    positions = rng.choice(nvars**degree, 5, replace=False)[
        rng.integers(0, 5, nnz)]
    values = rng.standard_normal(nnz)
    if complex_values:
        values = values + 1j * rng.standard_normal(nnz)
    return PolyCoeffs(degree, nrows, nvars, rng.integers(0, nrows, nnz),
                      positions, values)


def test_distinct_factors_are_built_on_first_use():
    fc = shared_tuple_poly(3, 6, 4, 40, seed=1)
    assert fc._distinct is None
    tuples, index = fc.distinct_factors
    assert tuples.shape == (3, 5) and index.shape == (fc.nnz,)
    assert np.array_equal(tuples[:, index], fc.factors)
    # distinct and in position order
    assert np.array_equal(encode_positions(tuples, 4),
                          np.unique(encode_positions(fc.factors, 4)))
    assert fc.distinct_factors is fc.distinct_factors


@pytest.mark.parametrize("complex_w", [False, True])
def test_compose_matches_the_folded_scatter(complex_w):
    nvars, nstates = 2, 7
    rng = np.random.default_rng(11)
    w_blocks = sorted_blocks(rng, nstates, nvars, (1, 2, 3, 4), complex_w)
    w_blocks[3] = np.zeros_like(w_blocks[3])
    f_coeffs = [shared_tuple_poly(2, nstates, nstates, 30, seed=2),
                PolyCoeffs(3, nstates, nstates, [], [], []),
                random_poly(3, nstates, nstates, 40, seed=3),
                shared_tuple_poly(3, nstates, nstates, 50, seed=4)]
    for order in (2, 3, 4, 5):
        assert_compose_within_rounding(f_coeffs, w_blocks, order, nvars,
                                       nstates)
        linear = compose([], w_blocks, order, nvars, nrows=nstates)
        assert linear.dtype == complex and not linear.any()


def test_compose_of_complex_f_agrees_to_rounding():
    # complex F is refused by the systems, yet compose takes it
    nvars, nstates = 2, 6
    rng = np.random.default_rng(12)
    w_blocks = sorted_blocks(rng, nstates, nvars, (1, 2, 3))
    f_coeffs = [shared_tuple_poly(2, nstates, nstates, 30, seed=5,
                                  complex_values=True),
                shared_tuple_poly(3, nstates, nstates, 30, seed=6,
                                  complex_values=True)]
    for order in (2, 3, 4):
        assert_compose_within_rounding(f_coeffs, w_blocks, order, nvars,
                                       nstates)


def test_compose_over_four_variables_agrees_to_rounding():
    nvars, nstates = 4, 5
    rng = np.random.default_rng(13)
    w_blocks = sorted_blocks(rng, nstates, nvars, (1, 2, 3, 4))
    f_coeffs = [random_poly(2, nstates, nstates, 12, seed=7),
                shared_tuple_poly(3, nstates, nstates, 30, seed=8)]
    for order in (2, 3, 4, 5):
        assert_compose_within_rounding(f_coeffs, w_blocks, order, nvars,
                                       nstates)


@pytest.mark.parametrize("order", [3, 4, 5, 6, 7])
def test_compose_peak_memory_is_no_higher_than_the_scatter(order):
    # the lifted cubic of a 40-mass chain: each spring's tuples serve
    # both of its masses; each gets the blocks of its own basis
    system = build_first_order(oscillator_chain(40))
    rng = np.random.default_rng(order)
    w_blocks = sorted_blocks(rng, system.N, 2, range(1, order))
    ordered = {q: unfold(b, q, 2) for q, b in w_blocks.items()}
    peaks = []
    for fn, blocks in ((compose, w_blocks), (add_at_compose, ordered)):
        tracemalloc.start()
        try:
            fn(system.F_coeffs, blocks, order, 2, system.N)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_compose_value_check():
    # scalar sanity: F(w) = w^2 with w(p) = p + p^2 gives
    # (w(p))^2 = p^2 + 2 p^3 + p^4
    f = [PolyCoeffs.from_entries(2, 1, 1, [(0, (0, 0), 1.0)])]
    w = {1: np.array([[1.0]]), 2: np.array([[1.0]]), 3: np.array([[0.0]])}
    assert compose(f, w, 2, 1) == pytest.approx(1.0)
    assert compose(f, w, 3, 1) == pytest.approx(2.0)
    assert compose(f, w, 4, 1) == pytest.approx(1.0)


def test_compose_needs_nrows_for_linear_systems():
    with pytest.raises(ValidationError):
        compose([], {1: np.eye(2)}, 2, 2)
    assert np.allclose(compose([], {1: np.eye(2)}, 2, 2, nrows=3), 0.0)
    f = [PolyCoeffs.from_entries(2, 3, 2, [(2, (0, 1), 1.0)])]
    with pytest.raises(ValidationError, match="of 2 rows"):
        compose(f, {1: np.eye(2)}, 2, 2, nrows=2)


def dense_kron_sum_operator(r_block, j, nvars):
    """The operator sum_k I^(x)(k-1) (x) R (x) I^(x)(j-k), materialized."""
    m = nvars
    out = None
    for k in range(j):
        term = np.eye(1)
        for slot in range(j):
            term = np.kron(term, r_block if slot == k else np.eye(m))
        out = term if out is None else out + term
    return out


def test_apply_kron_sum_matches_dense_operator():
    rng = np.random.default_rng(9)
    n = 3
    for m, order, j in [(2, 3, 2), (2, 4, 2), (2, 4, 3), (2, 5, 3),
                        (3, 4, 2), (4, 5, 3)]:
        r_order = order - j + 1
        R = sorted_blocks(rng, m, m, (r_order,))[r_order]
        W = sorted_blocks(rng, n, m, (j,))[j]
        got = apply_kron_sum(R, W, order, j, m)
        want = fold(unfold(W, j, m) @ dense_kron_sum_operator(
            unfold(R, r_order, m), j, m), order, m)
        assert got.shape == (n, MultiIndexSet(order, m).size)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_apply_kron_sum_shape_check():
    with pytest.raises(ValidationError):
        apply_kron_sum(np.zeros((2, 2)), np.zeros((3, 4)), 4, 2, 2)
