"""Dense and compressed-sparse matrix storage with block-column views.

Every matrix in this package is one of two immutable wrapper types:
``DenseMatrix`` (a C-ordered float64 array) or ``SparseMatrix`` (CSC
storage without duplicate coordinates; the constructor also sorts indices
and drops zeros; arithmetic results keep their kernel's index order, sorted
from the overlay that encodes full-support coded blocks but unspecified in
general).
Both expose the same small surface: ``matvec_t`` (the transpose product
M^T x), ``nnz`` and ``to_dense``.
``PartitionedMatrix`` views a matrix as k equal block-columns, the unit of
work distributed to clients; it holds the matrix itself, not block copies.

``scipy.sparse`` and ``scipy.io`` are imported inside the functions that
make a sparse matrix or read a ``.mtx`` file, never at module level:
together they cost about 0.2 s of every process start, and dense
planning, certification and rounds never touch them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse as _sp


class PartitionError(ValueError):
    """The matrix columns do not split into the requested equal blocks."""


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _canonical(m: _sp.csc_matrix) -> _sp.csc_matrix:
    """Reject an empty shape; sum duplicates, drop zeros, sort indices in place."""
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"matrix must be non-empty, got shape {m.shape}")
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return m


def _freeze_csc(m: _sp.csc_matrix) -> _sp.csc_matrix:
    for part in (m.data, m.indices, m.indptr):
        _freeze(part)
    return m


class DenseMatrix:
    """Row-major dense matrix, immutable after construction."""

    __slots__ = ("a",)
    kind = "dense"

    def __init__(self, a):
        a = np.ascontiguousarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError(f"expected a 2-d array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeError(f"matrix must be non-empty, got shape {a.shape}")
        self.a = _freeze(a)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def nnz(self) -> int:
        return int(np.count_nonzero(self.a))

    def matvec_t(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape[0] != self.rows:
            raise ShapeError(f"x has length {x.shape[0]}, expected {self.rows}")
        return self.a.T @ x

    def to_dense(self) -> np.ndarray:
        return self.a

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


class SparseMatrix:
    """Compressed column-oriented sparse matrix, immutable after construction.

    Construction normalises the input (duplicates summed, explicit zeros
    dropped, indices sorted), so stored values are nonzero and the row
    indices within each column are strictly increasing.  Results of
    arithmetic are wrapped without re-normalising: they have no duplicate
    coordinates and their pattern lies within the union of the operand
    patterns, but their index order within a column is unspecified.
    The transpose ``matvec_t`` reads is built once, as a CSR view of the
    same frozen arrays.
    """

    __slots__ = ("m", "_t")
    kind = "sparse"

    def __init__(self, m):
        from scipy import sparse as _sp

        # normalise a private copy: the caller's matrix stays as it was
        self.m = _freeze_csc(_canonical(_sp.csc_matrix(m, dtype=np.float64,
                                                       copy=True)))
        self._t = self.m.T

    @classmethod
    def _wrap(cls, m: _sp.csc_matrix) -> "SparseMatrix":
        # Arithmetic results carry no duplicate coordinates, so they are
        # frozen as the kernel produced them: sorting the indices would cost
        # as much as the product itself, and nothing here needs the order
        # (SpMV, toarray, nnz and mmwrite take any).  The overlay route of
        # coding.iter_encoded_blocks yields sorted indices, a sparse product
        # need not, so callers may assume no order.  Probability-zero
        # cancellations are not hunted down either.
        out = object.__new__(cls)
        out.m = _freeze_csc(m.tocsc())
        out._t = out.m.T
        return out

    @property
    def rows(self) -> int:
        return self.m.shape[0]

    @property
    def cols(self) -> int:
        return self.m.shape[1]

    def nnz(self) -> int:
        return int(self.m.nnz)

    def matvec_t(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape[0] != self.rows:
            raise ShapeError(f"x has length {x.shape[0]}, expected {self.rows}")
        # csc transpose is a csr view, so this is a row-major SpMV
        return np.asarray(self._t @ x).ravel()

    def to_dense(self) -> np.ndarray:
        return self.m.toarray()

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


Matrix = DenseMatrix | SparseMatrix


def as_matrix(obj) -> Matrix:
    """Coerce an ndarray / scipy sparse / Matrix into the wrapper types."""
    if isinstance(obj, (DenseMatrix, SparseMatrix)):
        return obj
    # a scipy sparse object exists only if scipy.sparse was ever imported
    sp = sys.modules.get("scipy.sparse")
    if sp is not None and sp.issparse(obj):
        return SparseMatrix(obj)
    return DenseMatrix(obj)


@dataclass(frozen=True)
class PartitionedMatrix:
    """A matrix viewed as ``k`` equal block-columns, without copying it.

    Block q is columns ``q*alpha .. (q+1)*alpha - 1`` of ``matrix``.
    """

    matrix: Matrix
    k: int

    @property
    def alpha(self) -> int:
        return self.matrix.cols // self.k

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def kind(self) -> str:
        return self.matrix.kind


def partition_uniform(A, k: int) -> PartitionedMatrix:
    """View ``A`` as ``k`` equal-width block-columns."""
    A = as_matrix(A)
    if k < 1 or A.cols % k != 0:
        raise PartitionError(f"{A.cols} columns cannot be split into {k} equal blocks")
    return PartitionedMatrix(A, k)


# ---------------------------------------------------------------------------
# randomised generation (used by simulations and tests)

def random_dense(rows: int, cols: int, rng: np.random.Generator) -> DenseMatrix:
    return DenseMatrix(rng.standard_normal((rows, cols)))


def _distinct_sorted(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` distinct integers of range(n), sorted, uniform over subsets.

    Draws with replacement, oversampled by about the expected number of
    repeats (size**2 / n, plus 16 for small sizes), keeps the distinct
    values, tops up in the rare case of a shortfall and drops a uniformly
    chosen excess.  Every step treats all values alike, so the result is a
    uniform size-subset.  Time and memory are O(size) while size <= n / 2;
    beyond that repeats pile up like coupons, so callers sample the
    complement instead.
    """
    if size == 0:
        return np.empty(0, dtype=np.int64)
    extra = size * size // n + 16
    cells = rng.integers(0, n, size + extra)
    while True:
        cells.sort()
        fresh = np.empty(cells.size, dtype=bool)
        fresh[0] = True
        np.not_equal(cells[1:], cells[:-1], out=fresh[1:])
        cells = cells[fresh]
        if cells.size >= size:
            break
        cells = np.concatenate(
            [cells, rng.integers(0, n, size - cells.size + extra)])
    if cells.size > size:
        keep = np.ones(cells.size, dtype=bool)
        keep[rng.choice(cells.size, cells.size - size, replace=False,
                        shuffle=False)] = False
        cells = cells[keep]
    return cells


def random_sparse(rows: int, cols: int, density: float,
                  rng: np.random.Generator) -> SparseMatrix:
    """Random sparse matrix with standard normal nonzeros at uniform positions.

    It holds exactly ``int(round(density * rows * cols))`` nonzeros, the
    count ``scipy.sparse.random`` gives, and every set of cells of that size
    is equally likely.  Time and memory are O(nnz): cells are drawn as flat
    column-major indices (``_distinct_sorted``), and above density 1/2 the
    zero cells are drawn and their complement taken.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    from scipy import sparse as _sp

    n = rows * cols
    size = int(round(density * n))
    if 2 * size <= n:
        flat = _distinct_sorted(n, size, rng)
    else:
        nonzero = np.ones(n, dtype=bool)
        nonzero[_distinct_sorted(n, n - size, rng)] = False
        flat = np.flatnonzero(nonzero)
        del nonzero
    idx = _sp.get_index_dtype(maxval=max(rows, cols, size))
    indptr = np.searchsorted(flat, np.arange(cols + 1) * rows).astype(idx)
    indices = np.remainder(flat, rows, out=flat).astype(idx)
    del flat
    m = _sp.csc_matrix((rng.standard_normal(size), indices, indptr),
                       shape=(rows, cols))
    return SparseMatrix._wrap(_canonical(m))    # m is ours: no copy


# ---------------------------------------------------------------------------
# ingestion: Matrix Market coordinate files (sparse) and headered CSV (dense)

def load_dense_csv(path) -> DenseMatrix:
    """Dense matrix from CSV; the first line is a header and is skipped."""
    body = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    return DenseMatrix(body)


def load_sparse_mm(path) -> SparseMatrix:
    """Sparse matrix from a Matrix Market coordinate file."""
    from scipy.io import mmread

    return SparseMatrix(mmread(path))


def load_matrix(path) -> Matrix:
    """Dispatch on file suffix: .mtx (Matrix Market, sparse) or .csv (dense)."""
    p = str(path)
    if p.endswith(".mtx") or p.endswith(".mtx.gz"):
        return load_sparse_mm(path)
    if p.endswith(".csv"):
        return load_dense_csv(path)
    raise ValueError(f"unsupported matrix file suffix: {p}")
