"""Dense and compressed-sparse matrix storage with block-column partitioning.

Every matrix in this package is one of two immutable wrapper types:
``DenseMatrix`` (a C-ordered float64 array) or ``SparseMatrix`` (CSC
storage without duplicate coordinates; the constructor also sorts indices
and drops zeros, arithmetic results keep their kernel's index order).
Both expose the same small surface: ``matvec_t`` (the transpose product
M^T x), ``nnz``, ``column_slice`` and ``to_dense``.
``PartitionedMatrix`` holds a matrix as an ordered list of disjoint
block-columns, the unit of work distributed to clients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as _sp
from scipy.io import mmread, mmwrite


class PartitionError(ValueError):
    """Block widths do not tile the matrix columns."""


class ExpansionError(ValueError):
    """Block widths are not divisible into the requested uniform width."""


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

    def column_slice(self, j0: int, j1: int) -> "DenseMatrix":
        return DenseMatrix(self.a[:, j0:j1])

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
    """

    __slots__ = ("m",)
    kind = "sparse"

    def __init__(self, m):
        # normalise a private copy: the caller's matrix stays as it was
        self.m = _freeze_csc(_canonical(_sp.csc_matrix(m, dtype=np.float64,
                                                       copy=True)))

    @classmethod
    def _wrap(cls, m: _sp.csc_matrix) -> "SparseMatrix":
        # Arithmetic results carry no duplicate coordinates, so they are
        # frozen as the scipy kernel produced them: sorting the indices would
        # cost as much as the product itself, and nothing here needs the
        # order (SpMV, toarray, nnz and mmwrite take any).  Probability-zero
        # cancellations are not hunted down either.
        out = object.__new__(cls)
        out.m = _freeze_csc(m.tocsc())
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
        return np.asarray(self.m.T @ x).ravel()

    def column_slice(self, j0: int, j1: int) -> "SparseMatrix":
        return SparseMatrix._wrap(self.m[:, j0:j1])

    def to_dense(self) -> np.ndarray:
        return self.m.toarray()

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


Matrix = DenseMatrix | SparseMatrix


def as_matrix(obj) -> Matrix:
    """Coerce an ndarray / scipy sparse / Matrix into the wrapper types."""
    if isinstance(obj, (DenseMatrix, SparseMatrix)):
        return obj
    if _sp.issparse(obj):
        return SparseMatrix(obj)
    return DenseMatrix(obj)


@dataclass(frozen=True)
class PartitionedMatrix:
    """A matrix held as an ordered tuple of disjoint block-columns.

    ``block_cols`` is the uniform block width when all blocks share one
    (the homogeneous / expanded form), else ``None``.
    """

    blocks: tuple[Matrix, ...]
    block_cols: int | None
    total_cols: int

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def rows(self) -> int:
        return self.blocks[0].rows

    @property
    def kind(self) -> str:
        return self.blocks[0].kind

    def widths(self) -> tuple[int, ...]:
        return tuple(b.cols for b in self.blocks)

    def require_uniform(self) -> int:
        if self.block_cols is None:
            raise ExpansionError(f"blocks have non-uniform widths {self.widths()}")
        return self.block_cols

    def concat(self) -> Matrix:
        """Horizontal concatenation of the blocks, reconstructing the matrix."""
        if self.kind == "dense":
            return DenseMatrix(np.hstack([b.a for b in self.blocks]))
        return SparseMatrix._wrap(_sp.hstack([b.m for b in self.blocks], format="csc"))


def partition(A, widths) -> PartitionedMatrix:
    """Split ``A`` into consecutive block-columns of the given widths."""
    A = as_matrix(A)
    widths = [int(w) for w in widths]
    if any(w < 1 for w in widths):
        raise PartitionError(f"every width must be >= 1, got {widths}")
    if sum(widths) != A.cols:
        raise PartitionError(
            f"widths sum to {sum(widths)} but the matrix has {A.cols} columns")
    blocks = []
    j = 0
    for w in widths:
        blocks.append(A.column_slice(j, j + w))
        j += w
    uniform = widths[0] if all(w == widths[0] for w in widths) else None
    return PartitionedMatrix(tuple(blocks), uniform, A.cols)


def partition_uniform(A, k: int) -> PartitionedMatrix:
    """Split ``A`` into ``k`` equal-width block-columns."""
    A = as_matrix(A)
    if k < 1 or A.cols % k != 0:
        raise PartitionError(f"{A.cols} columns cannot be split into {k} equal blocks")
    return partition(A, [A.cols // k] * k)


def matvec_t(M, x: np.ndarray) -> np.ndarray:
    """Compute M^T x."""
    return as_matrix(M).matvec_t(x)


def nnz(M) -> int:
    """Number of stored nonzeros (for dense input, count of entries != 0)."""
    return as_matrix(M).nnz()


def linear_combination(blocks, coeffs) -> Matrix:
    """Entrywise sum of ``coeffs[q] * blocks[q]`` over equally shaped blocks."""
    blocks = [as_matrix(b) for b in blocks]
    coeffs = np.asarray(coeffs, dtype=np.float64).ravel()
    if len(blocks) == 0:
        raise ShapeError("linear_combination of an empty block list")
    if coeffs.shape[0] != len(blocks):
        raise ShapeError(f"{coeffs.shape[0]} coefficients for {len(blocks)} blocks")
    shape = (blocks[0].rows, blocks[0].cols)
    kind = blocks[0].kind
    for b in blocks:
        if (b.rows, b.cols) != shape:
            raise ShapeError(f"block shapes differ: {(b.rows, b.cols)} vs {shape}")
        if b.kind != kind:
            raise ShapeError("blocks mix dense and sparse representations")
    if kind == "dense":
        out = np.zeros(shape)
        for c, b in zip(coeffs, blocks):
            out += c * b.a
        return DenseMatrix(out)
    acc = coeffs[0] * blocks[0].m
    for c, b in zip(coeffs[1:], blocks[1:]):
        acc = acc + c * b.m
    return SparseMatrix._wrap(acc)


# ---------------------------------------------------------------------------
# randomised generation (used by simulations and tests)

def random_dense(rows: int, cols: int, rng: np.random.Generator) -> DenseMatrix:
    return DenseMatrix(rng.standard_normal((rows, cols)))


def random_sparse(rows: int, cols: int, density: float,
                  rng: np.random.Generator) -> SparseMatrix:
    """Uniformly random sparse matrix with ~density*rows*cols nonzeros."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    m = _sp.random(rows, cols, density=density, random_state=rng, format="csc",
                   data_rvs=lambda n: rng.standard_normal(n))
    return SparseMatrix._wrap(_canonical(m))    # m is ours: no copy


# ---------------------------------------------------------------------------
# ingestion: Matrix Market coordinate files (sparse) and headered CSV (dense)

def load_dense_csv(path) -> DenseMatrix:
    """Dense matrix from CSV; the first line is a header and is skipped."""
    body = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    return DenseMatrix(body)

def save_dense_csv(M, path) -> None:
    M = as_matrix(M)
    header = ",".join(f"c{j}" for j in range(M.cols))
    np.savetxt(path, M.to_dense(), delimiter=",", header=header, comments="")


def load_sparse_mm(path) -> SparseMatrix:
    """Sparse matrix from a Matrix Market coordinate file."""
    return SparseMatrix(mmread(path))


def save_sparse_mm(M, path) -> None:
    M = as_matrix(M)
    mmwrite(path, M.m if M.kind == "sparse" else _sp.coo_matrix(M.to_dense()))


def load_matrix(path) -> Matrix:
    """Dispatch on file suffix: .mtx (Matrix Market, sparse) or .csv (dense)."""
    p = str(path)
    if p.endswith(".mtx") or p.endswith(".mtx.gz"):
        return load_sparse_mm(path)
    if p.endswith(".csv"):
        return load_dense_csv(path)
    raise ValueError(f"unsupported matrix file suffix: {p}")
