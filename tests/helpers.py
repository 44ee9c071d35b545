"""Helpers the tests share: matrix fixture files, block-column views,
lazily encoded blocks, straggler-pattern lookup and stored-plan edits."""

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


def column_slice(M, j0, j1):
    """Columns j0 .. j1-1 of M, in M's own storage."""
    if M.kind == "sparse":
        return mx.SparseMatrix._wrap(M.m[:, j0:j1])
    return mx.DenseMatrix(M.a[:, j0:j1])


def block(P, q):
    """Block-column q of the partitioned matrix P."""
    return column_slice(P.matrix, q * P.alpha, (q + 1) * P.alpha)


def pattern_entry(report, types):
    """The entry of a ``PatternReport`` for straggler ``types``, in any order."""
    key = tuple(sorted(types))
    for e in report.entries:
        if e.types == key:
            return e
    raise KeyError(f"no straggler pattern {key}")


def with_derived_transfers(d):
    """The stored plan d, edited in place to list the transfers its workers
    derive: a plan whose supports were tampered with then loads, and the
    checks past the transfer comparison see the tampering."""
    specs = tuple(cd.CodedBlockSpec(tuple(w["support"]), tuple(w["coeffs"]),
                                    w["seed_tag"])
                  for w in sorted(d["workers"], key=lambda w: w["worker"]))
    plan = cd.CodingPlan(d["scheme"], cd.roster_from_dict(d["roster"]), specs)
    d["transfers"] = cd.plan_to_dict(plan)["transfers"]
    return d
