"""Fixed reference computations timed between the passes of a run.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to 1.5x over minutes; CPU time drifts with wall time and steal stays
near 0, so a pass's raw seconds partly measure the neighbours.  Each
workload therefore has a reference: a fixed computation made only of
numpy, scipy and plain Python, never of codedfl, shaped like the
operations that dominate the workload's pass.  A run times the reference
before its first pass and after every pass, in the same process, and
divides each pass's wall time by the mean of the two references around it.
Drift that slows the pass slows its neighbouring references alike and
cancels; a change to codedfl moves the pass and not the reference.

The inputs are fixed (seeded with a constant, not with ``--seed``), so the
reference is the same work on every run and every commit.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp

_SEED = 20230224
SAMPLES = 5


class _SparseEncode:
    """Sparse generation plus a ``H @ kron(g^T, I)`` product with sorted
    indices: the random_sparse and dense-row encode of a sparse pass."""

    def __init__(self, toy: bool):
        self.rng = np.random.default_rng(_SEED)
        self.k, width, self.rows = (6, 20, 200) if toy else (28, 750, 1000)
        self.H = sp.random(self.rows, self.k * width, density=0.05,
                           random_state=self.rng, format="csc",
                           data_rvs=self.rng.standard_normal)
        self.eye = sp.identity(width, format="csc")

    def __call__(self) -> float:
        acc = sp.random(self.rows, 2000, density=0.05, random_state=self.rng,
                        format="csc").nnz
        row = sp.csc_matrix(self.rng.standard_normal((self.k, 1)))
        C = self.H @ sp.kron(row, self.eye, format="csc")
        C.sort_indices()
        return acc + C.nnz


def _augment(adj, i, seen, match_right) -> bool:
    for j in adj[i]:
        if j not in seen:
            seen.add(j)
            if match_right[j] < 0 or _augment(adj, match_right[j], seen,
                                              match_right):
                match_right[j] = i
                return True
    return False


class _CertifyRounds:
    """Rank and condition tests of square row subsets, augmenting-path
    matchings, per-block dense products, an explicit pivoted elimination
    and CSV formatting: the mix of a certify-and-rounds pass."""

    def __init__(self, toy: bool):
        rng = np.random.default_rng(_SEED)
        k = self.k = 6 if toy else 28
        self.G = rng.standard_normal((k + 4, k))
        self.A = rng.standard_normal((2000, 40))
        self.x = rng.standard_normal(2000)
        self.adj = [sorted(set(rng.integers(0, k, 5).tolist()) | {i})
                    for i in range(k)]
        self.subsets = [np.sort(rng.permutation(k + 4)[:k]) for _ in range(60)]

    def __call__(self) -> float:
        k, G = self.k, self.G
        acc = 0.0
        for subset in self.subsets:
            sub = G[subset]
            acc += np.linalg.matrix_rank(sub) + np.linalg.cond(sub)
        for _ in range(60):
            match_right = [-1] * k
            acc += sum(_augment(self.adj, i, set(), match_right)
                       for i in range(k))
        Y = np.array([self.A.T @ self.x for _ in range(k)])
        M = G[:k].copy()
        for col in range(k):
            p = col + int(np.argmax(np.abs(M[col:, col])))
            if p != col:
                M[[col, p]] = M[[p, col]]
                Y[[col, p]] = Y[[p, col]]
            f = M[col + 1:, col] / M[col, col]
            M[col + 1:, col:] -= np.outer(f, M[col, col:])
            Y[col + 1:] -= np.outer(f, Y[col])
        line = ",".join(f"{v:.17g}" for v in Y[:, 0])
        return acc + len(line)


# kernel, and how many calls make one sample: a reference (SAMPLES
# samples) takes about 1 s on a 2-vCPU Xeon VM
KERNELS = {"sparse-encode": (_SparseEncode, 3),
           "certify-rounds": (_CertifyRounds, 10)}


class Reference:
    """The reference of one workload; its inputs are built on creation."""

    def __init__(self, workload: str, toy: bool = False):
        kind, calls = KERNELS[workload]
        self.kernel, self.calls = kind(toy), 1 if toy else calls

    def time(self) -> float:
        """Seconds of one reference: SAMPLES times the median of SAMPLES
        short samples, so a hiccup inside one sample does not move it
        while a slower host moves them all."""
        samples = []
        for _ in range(SAMPLES):
            t0 = perf_counter()
            for _ in range(self.calls):
                self.kernel()
            samples.append(perf_counter() - t0)
        return SAMPLES * statistics.median(samples)
