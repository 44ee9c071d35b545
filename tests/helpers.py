"""Helpers the tests share: matrix fixture files and lazily encoded blocks."""

import numpy as np

from codedfl import coding as cd
from codedfl import matrices as mx


def save_dense_csv(M, path) -> None:
    """Write M as the headered CSV ``matrices.load_dense_csv`` reads."""
    M = mx.as_matrix(M)
    header = ",".join(f"c{j}" for j in range(M.cols))
    np.savetxt(path, M.to_dense(), delimiter=",", header=header, comments="")


def save_sparse_mm(M, path) -> None:
    """Write M as the Matrix Market file ``matrices.load_sparse_mm`` reads."""
    from scipy import sparse as sp
    from scipy.io import mmwrite

    M = mx.as_matrix(M)
    mmwrite(path, M.m if M.kind == "sparse" else sp.coo_matrix(M.to_dense()))


def lazy_blocks(P, plans):
    """(plan, its coded blocks) per plan, each block encoded as it is read."""
    return [(plan, (blk for _, blk in cd.iter_encoded_blocks(P, plan)))
            for plan in plans]
