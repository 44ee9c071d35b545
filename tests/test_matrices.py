"""Block-column views, the shared matrix surface and random generation."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp
from scipy import stats

from codedfl import coding as cd
from codedfl import matrices as mx
from helpers import block, column_slice, save_dense_csv, save_sparse_mm


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# partitioning

def test_partition_uniform_shapes_and_roundtrip():
    for A in (mx.random_dense(12, 20, rng()),
              mx.random_sparse(12, 20, 0.3, rng())):
        P = mx.partition_uniform(A, 5)
        assert (P.k, P.alpha, P.rows, P.kind) == (5, 4, 12, A.kind)
        # the partition holds the caller's matrix, not a copy of it
        assert P.matrix is A
        # the blocks side by side reconstruct A exactly
        np.testing.assert_array_equal(
            np.hstack([block(P, q).to_dense() for q in range(P.k)]),
            A.to_dense())


def test_partition_blocks_are_consecutive_columns():
    A = mx.DenseMatrix(np.arange(24, dtype=float).reshape(4, 6))
    P = mx.partition_uniform(A, 3)
    np.testing.assert_array_equal(block(P, 1).to_dense(), A.to_dense()[:, 2:4])


def test_partition_rejects_bad_widths():
    A = mx.random_dense(3, 10, rng(2))
    for k in (0, -1, 3, 11):                # k < 1, or 10 % k != 0
        with pytest.raises(mx.PartitionError):
            mx.partition_uniform(A, k)


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


def test_sparse_matvec_t_reads_one_transpose_of_the_same_arrays():
    # the transpose is built once per matrix, as a csr view of its frozen
    # arrays, and the product is the csr kernel's on them: the same bits
    # as transposing on every call
    S = mx.random_sparse(40, 15, 0.2, rng(6))
    x = rng(7).standard_normal(40)
    for M in (S, mx.SparseMatrix(S.m), column_slice(S, 3, 11)):
        assert M._t.format == "csr" and M._t.shape == M.m.shape[::-1]
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(M._t, name), getattr(M.m, name))
        assert np.array_equal(M.matvec_t(x), M.m.T @ x)
    # an integer vector is coerced to float64, as before
    assert np.array_equal(S.matvec_t(np.arange(40)),
                          S.m.T @ np.arange(40, dtype=np.float64))
    with pytest.raises(mx.ShapeError):
        S.matvec_t(np.ones(39))


def test_matvec_t_rejects_wrong_length():
    A = mx.random_dense(5, 3, rng(8))
    with pytest.raises(mx.ShapeError):
        A.matvec_t(np.ones(4))


def test_blockwise_matvec_t_concatenates():
    # M^T x of the whole equals the stacked per-block products
    A = mx.random_dense(8, 12, rng(9))
    x = rng(10).standard_normal(8)
    P = mx.partition_uniform(A, 4)
    stacked = np.concatenate([block(P, q).matvec_t(x) for q in range(P.k)])
    np.testing.assert_allclose(stacked, A.matvec_t(x), rtol=1e-12)


# ---------------------------------------------------------------------------
# coded combinations

@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 4))
def test_combination_commutes_with_matvec_t(seed, k, alpha):
    # (sum_q g_q B_q)^T x == sum_q g_q (B_q^T x) for every coded block
    g = np.random.default_rng(seed)
    P = mx.partition_uniform(mx.random_dense(7, k * alpha, g), k)
    wl = cd.encode(P, cd.build_dense_plan(cd.make_roster([1] * k), seed=seed))
    x = g.standard_normal(7)
    per_block = [block(P, q).matvec_t(x) for q in range(k)]
    for coeffs, blk in zip(wl.G, wl.coded):
        right = sum(c * p for c, p in zip(coeffs, per_block))
        np.testing.assert_allclose(blk.matvec_t(x), right, atol=1e-10)


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


@pytest.mark.parametrize("make", [sp.csr_matrix, sp.coo_matrix, sp.csc_matrix,
                                  sp.csr_array])
def test_as_matrix_wraps_scipy_sparse(make):
    a = np.array([[0.0, 2.0, 0.0], [1.5, 0.0, -3.0]])
    m = mx.as_matrix(make(a))
    assert isinstance(m, mx.SparseMatrix)
    np.testing.assert_array_equal(m.to_dense(), a)


def test_as_matrix_wraps_ndarray_and_keeps_wrappers():
    a = np.array([[0.0, 2.0, 0.0], [1.5, 0.0, -3.0]])
    m = mx.as_matrix(a)
    assert isinstance(m, mx.DenseMatrix)
    np.testing.assert_array_equal(m.to_dense(), a)
    assert mx.as_matrix(m) is m
    s = mx.SparseMatrix(sp.csc_matrix(a))
    assert mx.as_matrix(s) is s


def test_dense_is_immutable():
    A = mx.random_dense(3, 3, rng(20))
    with pytest.raises(ValueError):
        A.a[0, 0] = 99.0


def test_sparse_is_immutable():
    # constructed and arithmetic-result storage alike is read-only: encoded
    # full-support blocks share the union's index arrays, a narrower support
    # or a cancelled cell gives a block arrays of its own
    S = mx.random_sparse(30, 12, 0.3, rng(23))
    P = mx.partition_uniform(S, 3)
    roster = cd.make_roster([1] * 3, [1])
    dense = cd.encode(P, cd.build_dense_plan(roster, seed=24)).coded
    coded = dense[0]
    narrow = cd.encode(P, cd.build_plan("proposed", roster, seed=24)).coded[0]
    twins = mx.partition_uniform(mx.SparseMatrix(sp.hstack(
        [block(P, 0).m, block(P, 0).m, block(P, 1).m])), 3)
    spec = cd.CodedBlockSpec((0, 1, 2), (1.0, -1.0, 0.5), "cancel")
    others = cd.build_uncoded_plan(roster).specs[1:]
    cancelled = cd.encode(twins,
                          cd.CodingPlan("dense", roster, (spec, *others)))
    cases = [S, block(P, 1), *dense, narrow, cancelled.coded[0]]
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
# random sparse generation

@pytest.mark.parametrize("density", [0.0, 1e-6, 0.05, 0.5, 0.9, 1.0])
def test_random_sparse_exact_count_canonical_and_quick(density):
    # 0.9 and 1.0 draw the zero cells: with-replacement drawing of the
    # nonzeros themselves would take coupon-collector time there
    t0 = time.perf_counter()
    S = mx.random_sparse(200, 3000, density, rng(30))
    assert time.perf_counter() - t0 < 10.0
    m = S.m
    assert S.nnz() == int(round(density * 200 * 3000))
    assert np.all(m.data != 0)
    assert m.indptr[0] == 0 and m.indptr[-1] == S.nnz()
    for j in range(S.cols):
        col = m.indices[m.indptr[j]:m.indptr[j + 1]]
        assert np.all(col[1:] > col[:-1])         # sorted, no duplicates
    assert not any(a.flags.writeable for a in (m.data, m.indices, m.indptr))


def test_random_sparse_same_seed_same_matrix():
    a, b = (mx.random_sparse(300, 400, 0.05, rng(31)).m for _ in range(2))
    for x, y in ((a.data, b.data), (a.indices, b.indices),
                 (a.indptr, b.indptr)):
        np.testing.assert_array_equal(x, y)
    c = mx.random_sparse(300, 400, 0.05, rng(32)).m
    assert not np.array_equal(a.indices, c.indices)


@pytest.mark.parametrize("density", [0.3, 0.7])
def test_random_sparse_positions_are_uniform(density):
    # per-cell hit counts over many draws of a 4x5 matrix.  Each count is
    # Binomial(T, p) and the counts sum to T*size, so the scaled statistic
    # below is chi-square with n - 1 degrees of freedom.
    rows, cols, T = 4, 5, 4000
    n = rows * cols
    g = rng(33)
    hits = np.zeros((rows, cols))
    for _ in range(T):
        hits += mx.random_sparse(rows, cols, density, g).to_dense() != 0
    p = round(density * n) / n
    stat = ((hits - T * p) ** 2).sum() * (n - 1) / (n * T * p * (1 - p))
    assert stats.chi2.sf(stat, n - 1) > 1e-3


class _RepeatingFirstDraw:
    """A generator whose first batch of cells is one cell over and over."""

    def __init__(self, seed):
        self.g, self.first = rng(seed), True

    def integers(self, low, high, size):
        if self.first:
            self.first = False
            return np.zeros(size, dtype=np.int64)
        return self.g.integers(low, high, size)

    def __getattr__(self, name):
        return getattr(self.g, name)


def test_random_sparse_tops_up_a_shortfall():
    S = mx.random_sparse(40, 30, 0.2, _RepeatingFirstDraw(34))
    assert S.nnz() == 240
    assert S.m.has_canonical_format and np.all(S.m.data != 0)


def test_random_sparse_memory_is_o_nnz():
    # scipy.sparse.random permutes all rows*cols cells: 13.9x the output
    g = rng(35)
    tracemalloc.start()
    try:
        S = mx.random_sparse(1000, 31500, 0.05, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(a.nbytes for a in (S.m.data, S.m.indices, S.m.indptr))
    assert peak <= 4 * out


def test_random_sparse_rejects_bad_density():
    for density in (-0.1, 1.5):
        with pytest.raises(ValueError):
            mx.random_sparse(3, 3, density, rng())


# ---------------------------------------------------------------------------
# file ingestion

def test_csv_roundtrip(tmp_path):
    A = mx.random_dense(5, 4, rng(21))
    p = tmp_path / "m.csv"
    save_dense_csv(A, p)
    # first line is a header
    assert p.read_text().splitlines()[0] == "c0,c1,c2,c3"
    B = mx.load_matrix(p)
    assert B.kind == "dense"
    np.testing.assert_allclose(B.to_dense(), A.to_dense(), rtol=1e-12)


def test_matrix_market_roundtrip(tmp_path):
    S = mx.random_sparse(12, 7, 0.25, rng(22))
    p = tmp_path / "m.mtx"
    save_sparse_mm(S, p)
    T = mx.load_matrix(p)
    assert T.kind == "sparse"
    np.testing.assert_allclose(T.to_dense(), S.to_dense(), atol=1e-12)
    assert T.nnz() == S.nnz()


def test_load_matrix_rejects_unknown_suffix(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"")
    with pytest.raises(ValueError):
        mx.load_matrix(p)
