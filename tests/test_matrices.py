"""Block-column partitioning and the shared matrix surface."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from codedfl import coding as cd
from codedfl import matrices as mx


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# partitioning

def test_partition_uniform_shapes_and_roundtrip():
    A = mx.random_dense(12, 20, rng())
    P = mx.partition_uniform(A, 5)
    assert P.k == 5
    assert P.block_cols == 4
    assert P.widths() == (4, 4, 4, 4, 4)
    # concatenating the blocks reconstructs A exactly
    np.testing.assert_array_equal(P.concat().to_dense(), A.to_dense())


def test_partition_nonuniform_widths():
    A = mx.random_dense(6, 10, rng(1))
    P = mx.partition(A, [2, 4, 4])
    assert P.widths() == (2, 4, 4)
    assert P.block_cols is None
    with pytest.raises(mx.ExpansionError):
        P.require_uniform()
    np.testing.assert_array_equal(P.concat().to_dense(), A.to_dense())


def test_partition_blocks_are_consecutive_columns():
    A = mx.DenseMatrix(np.arange(24, dtype=float).reshape(4, 6))
    P = mx.partition_uniform(A, 3)
    np.testing.assert_array_equal(P.blocks[1].to_dense(), A.to_dense()[:, 2:4])


def test_partition_rejects_bad_widths():
    A = mx.random_dense(3, 10, rng(2))
    with pytest.raises(mx.PartitionError):
        mx.partition(A, [3, 3, 3])          # sums to 9, not 10
    with pytest.raises(mx.PartitionError):
        mx.partition(A, [10, 0])            # zero width
    with pytest.raises(mx.PartitionError):
        mx.partition_uniform(A, 3)          # 10 % 3 != 0


# ---------------------------------------------------------------------------
# transpose products

def test_matvec_t_dense_equals_explicit_transpose():
    A = mx.random_dense(9, 4, rng(4))
    x = rng(5).standard_normal(9)
    np.testing.assert_allclose(A.matvec_t(x), A.to_dense().T @ x, rtol=1e-12)


def test_matvec_t_sparse_agrees_with_dense_route():
    S = mx.random_sparse(40, 15, 0.2, rng(6))
    x = rng(7).standard_normal(40)
    dense = mx.DenseMatrix(S.to_dense())
    np.testing.assert_allclose(S.matvec_t(x), dense.matvec_t(x), atol=1e-12)


def test_matvec_t_rejects_wrong_length():
    A = mx.random_dense(5, 3, rng(8))
    with pytest.raises(mx.ShapeError):
        A.matvec_t(np.ones(4))


def test_blockwise_matvec_t_concatenates():
    # M^T x of the whole equals the stacked per-block products
    A = mx.random_dense(8, 12, rng(9))
    x = rng(10).standard_normal(8)
    P = mx.partition_uniform(A, 4)
    stacked = np.concatenate([b.matvec_t(x) for b in P.blocks])
    np.testing.assert_allclose(stacked, A.matvec_t(x), rtol=1e-12)


# ---------------------------------------------------------------------------
# linear combinations

def test_linear_combination_dense_matches_manual_sum():
    P = mx.partition_uniform(mx.random_dense(6, 9, rng(11)), 3)
    coeffs = [0.5, -2.0, 3.25]
    got = mx.linear_combination(P.blocks, coeffs)
    want = sum(c * b.to_dense() for c, b in zip(coeffs, P.blocks))
    np.testing.assert_allclose(got.to_dense(), want, atol=1e-12)


def test_linear_combination_sparse_pattern_containment():
    blocks = [mx.random_sparse(30, 8, 0.1, rng(s)) for s in (12, 13, 14)]
    out = mx.linear_combination(blocks, [1.0, 2.0, -1.0])
    assert out.nnz() <= sum(b.nnz() for b in blocks)
    # the combined pattern lies inside the union of the input patterns
    union = np.zeros((30, 8), dtype=bool)
    for b in blocks:
        union |= b.to_dense() != 0
    assert np.all((out.to_dense() != 0) <= union)


def test_linear_combination_sparse_matches_dense_route():
    blocks = [mx.random_sparse(25, 6, 0.15, rng(s)) for s in (15, 16)]
    coeffs = [1.5, -0.25]
    got = mx.linear_combination(blocks, coeffs).to_dense()
    want = coeffs[0] * blocks[0].to_dense() + coeffs[1] * blocks[1].to_dense()
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_linear_combination_rejects_mismatches():
    a = mx.random_dense(4, 3, rng(17))
    b = mx.random_dense(4, 2, rng(18))
    with pytest.raises(mx.ShapeError):
        mx.linear_combination([a, b], [1.0, 1.0])
    with pytest.raises(mx.ShapeError):
        mx.linear_combination([a], [1.0, 2.0])
    with pytest.raises(mx.ShapeError):
        mx.linear_combination([], [])
    s = mx.random_sparse(4, 3, 0.5, rng(19))
    with pytest.raises(mx.ShapeError):
        mx.linear_combination([a, s], [1.0, 1.0])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 4))
def test_combination_commutes_with_matvec_t(seed, k, alpha):
    # (sum_q g_q B_q)^T x == sum_q g_q (B_q^T x)
    g = np.random.default_rng(seed)
    P = mx.partition_uniform(mx.random_dense(7, k * alpha, g), k)
    coeffs = g.uniform(-1, 1, size=k)
    x = g.standard_normal(7)
    left = mx.linear_combination(P.blocks, coeffs).matvec_t(x)
    right = sum(c * b.matvec_t(x) for c, b in zip(coeffs, P.blocks))
    np.testing.assert_allclose(left, right, atol=1e-10)


# ---------------------------------------------------------------------------
# nnz and immutability

def test_nnz_counts_stored_entries():
    d = mx.DenseMatrix([[1.0, 0.0], [0.0, 3.0]])
    assert d.nnz() == 2
    s = mx.SparseMatrix(sp.csc_matrix(np.array([[0.0, 2.0], [0.0, 0.0]])))
    assert s.nnz() == 1


def test_sparse_constructor_normalises():
    # duplicate coordinates summed, explicit zeros dropped
    m = sp.coo_matrix(([1.0, 2.0, 0.0], ([0, 0, 1], [0, 0, 1])), shape=(2, 2))
    s = mx.SparseMatrix(m)
    assert s.nnz() == 1
    assert s.to_dense()[0, 0] == 3.0
    # a caller's csc matrix is normalised in a copy, not in place
    c = sp.csc_matrix((np.array([1.0, 0.0, 2.0]), np.array([0, 1, 2]),
                       np.array([0, 2, 3])), shape=(3, 2))
    s = mx.SparseMatrix(c)
    assert s.nnz() == 2
    np.testing.assert_array_equal(c.data, [1.0, 0.0, 2.0])
    np.testing.assert_array_equal(c.indices, [0, 1, 2])
    np.testing.assert_array_equal(c.indptr, [0, 2, 3])
    assert all(part.flags.writeable for part in (c.data, c.indices, c.indptr))


def test_dense_is_immutable():
    A = mx.random_dense(3, 3, rng(20))
    with pytest.raises(ValueError):
        A.a[0, 0] = 99.0


def test_sparse_is_immutable():
    # constructed and arithmetic-result storage alike is read-only
    S = mx.random_sparse(30, 12, 0.3, rng(23))
    P = mx.partition_uniform(S, 3)
    plan = cd.build_dense_plan(cd.make_roster([1] * 3, [1]), seed=24)
    coded = cd.encode(P, plan).coded[0]
    cases = [S, P.blocks[1], coded,
             mx.linear_combination(P.blocks, [1.0, -2.0, 0.5]), P.concat()]
    for M in cases:
        for part in (M.m.data, M.m.indices, M.m.indptr):
            with pytest.raises(ValueError):
                part[0] = 0
    # frozen storage can still be wrapped anew (normalised in a copy)
    again = mx.SparseMatrix(coded.m)
    assert again.nnz() == coded.nnz()
    np.testing.assert_array_equal(again.to_dense(), coded.to_dense())
    assert not again.m.data.flags.writeable


def test_rejects_empty_and_bad_dims():
    with pytest.raises(mx.ShapeError):
        mx.DenseMatrix(np.zeros((0, 4)))
    with pytest.raises(mx.ShapeError):
        mx.DenseMatrix(np.zeros(5))


# ---------------------------------------------------------------------------
# file ingestion

def test_csv_roundtrip(tmp_path):
    A = mx.random_dense(5, 4, rng(21))
    p = tmp_path / "m.csv"
    mx.save_dense_csv(A, p)
    # first line is a header
    assert p.read_text().splitlines()[0] == "c0,c1,c2,c3"
    B = mx.load_matrix(p)
    assert B.kind == "dense"
    np.testing.assert_allclose(B.to_dense(), A.to_dense(), rtol=1e-12)


def test_matrix_market_roundtrip(tmp_path):
    S = mx.random_sparse(12, 7, 0.25, rng(22))
    p = tmp_path / "m.mtx"
    mx.save_sparse_mm(S, p)
    T = mx.load_matrix(p)
    assert T.kind == "sparse"
    np.testing.assert_allclose(T.to_dense(), S.to_dense(), atol=1e-12)
    assert T.nnz() == S.nnz()


def test_load_matrix_rejects_unknown_suffix(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"")
    with pytest.raises(ValueError):
        mx.load_matrix(p)
