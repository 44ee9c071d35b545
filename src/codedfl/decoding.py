"""Recovery of A^T x from returned coded products, plus the certificates
behind the straggler-resilience claims.

The decoder solves G_S U = Y by LAPACK's LU with partial pivoting (dgetrf,
dgetrs), where G_S stacks the coefficient rows of the workers actually used
and Y stacks their product vectors; row q of U is then the block product
A_q^T x.  A pivot on diag(U) below PIVOT_REL_TOL times the scale of G_S
counts as zero and fails the decode.  The verification side is
deliberately independent of that solver.  Subsets are ranked in chunks by
one stacked SVD, which gives each subset's rank (with
``np.linalg.matrix_rank``'s tolerance) and its condition number; the
straggler-pattern survey ranks its surviving worker sets the same way.

The matching certificate follows from rank.  If sigma_min of G_S clears the
SVD tolerance, G_S is nonsingular (the computed singular values lie within
rounding of the exact ones), so its determinant has a nonzero Leibniz
term: a permutation pairing every selected equation with a distinct unknown
in its support, i.e. a perfect matching of the support graph.  Explicit
augmenting-path matchings are therefore only needed on rank failures, where
they tell a structural defect (no matching) from an unlucky cancellation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .coding import ClientRoster, CodingPlan
from .matrices import ShapeError

DECODE_TOL = 1e-8       # row-wise relative residual bound
PIVOT_REL_TOL = 1e-10   # pivot below this times the matrix scale is zero
SUBSET_GUARD = 10 ** 6  # most subsets or straggler sets enumerated in full
RANK_CHUNK = 2048       # matrices per stacked SVD: 12.8 MB at 28x28


class DecodeError(Exception):
    """Base for decode failures."""


class NotEnoughResultsError(DecodeError):
    """Fewer returned results than unknown blocks."""


class RankDeficientError(DecodeError):
    """The selected coefficient rows do not determine all blocks."""

    def __init__(self, msg, subset):
        super().__init__(msg)
        self.subset = tuple(subset)


class SubsetGuardError(ValueError):
    """Exhaustive enumeration would exceed its guard."""


# ---------------------------------------------------------------------------
# decode

@dataclass(frozen=True, eq=False)
class ReturnedResult:
    worker: int
    coeff_row: np.ndarray      # length k_bar
    product: np.ndarray        # length alpha


@dataclass(frozen=True, eq=False)
class DecodeProblem:
    returned: tuple[ReturnedResult, ...]
    k_bar: int

    def __post_init__(self):
        lengths = {len(r.product) for r in self.returned}
        if len(lengths) > 1:
            raise ShapeError(f"product vectors differ in length: {sorted(lengths)}")
        for r in self.returned:
            if len(r.coeff_row) != self.k_bar:
                raise ShapeError(
                    f"worker {r.worker} coefficient row has length "
                    f"{len(r.coeff_row)}, expected {self.k_bar}")


def problem_from_workload(workload, x, workers) -> DecodeProblem:
    """Compute the listed workers' products and package them arrival-ordered."""
    returned = tuple(
        ReturnedResult(int(w), workload.G[w], workload.coded[w].matvec_t(x))
        for w in workers)
    return DecodeProblem(returned, workload.G.shape[1])


@dataclass(frozen=True, eq=False)
class DecodeResult:
    block_products: np.ndarray     # k_bar x alpha, row q = block q's product
    residual: float
    used_workers: tuple[int, ...]

    def concatenated(self) -> np.ndarray:
        """Block products in block order, i.e. the full A^T x."""
        return self.block_products.ravel()


def decode(problem: DecodeProblem, rows=None) -> DecodeResult:
    """Solve for all block products from k_bar returned results.

    Uses the first k_bar results in arrival order unless ``rows`` picks an
    explicit subset of ``problem.returned``.
    """
    k = problem.k_bar
    if rows is None:
        if len(problem.returned) < k:
            raise NotEnoughResultsError(
                f"{len(problem.returned)} results for {k} unknown blocks")
        chosen = problem.returned[:k]
    else:
        if len(rows) != k:
            raise NotEnoughResultsError(f"{len(rows)} rows selected, need {k}")
        chosen = [problem.returned[i] for i in rows]
    used = tuple(r.worker for r in chosen)
    G = np.array([r.coeff_row for r in chosen], dtype=np.float64)
    Y = np.array([r.product for r in chosen], dtype=np.float64)

    # Imported here, not at module level: scipy.linalg costs about 7 MB and
    # 0.07 s to import, and plan, verify and config loading never decode.
    from scipy.linalg import lapack

    # dgetrf, not lu_factor: an exactly singular G_S reaches the pivot test
    # below through diag(U) instead of raising a LinAlgWarning first.
    lu, piv, _ = lapack.dgetrf(G)
    threshold = PIVOT_REL_TOL * max(1.0, np.abs(G).max())
    small = np.flatnonzero(np.abs(np.diag(lu)) < threshold)
    if small.size:
        raise RankDeficientError(
            f"zero pivot in column {small[0]} for workers {used}", used)
    U, _ = lapack.dgetrs(lu, piv, Y)

    # row-wise relative residual against the rows actually used
    denom = np.linalg.norm(Y, axis=1)
    rel = np.linalg.norm(G @ U - Y, axis=1) / np.where(denom > 0, denom, 1.0)
    residual = float(rel.max())
    if residual > DECODE_TOL:
        raise RankDeficientError(
            f"solution residual {residual:.3e} exceeds {DECODE_TOL:.0e} "
            f"for workers {used}", used)
    return DecodeResult(U, residual, used)


# ---------------------------------------------------------------------------
# subset rank survey

@dataclass(frozen=True)
class ResilienceReport:
    scheme: str
    k_bar: int
    s_bar: int
    subsets_checked: int
    failures: tuple[tuple[int, ...], ...]
    min_cond: float
    max_cond: float
    worst_subset: tuple[int, ...] | None   # first subset at max_cond
    exhaustive: bool

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "k_bar": self.k_bar,
            "s_bar": self.s_bar,
            "subsets_checked": self.subsets_checked,
            "failures": [list(f) for f in self.failures],
            "min_cond": self.min_cond,
            "max_cond": self.max_cond,
            "worst_subset": (None if self.worst_subset is None
                             else list(self.worst_subset)),
            "exhaustive": self.exhaustive,
            "ok": self.ok,
        }


def iter_subsets(n_bar, k_bar, sample, seed):
    """All k_bar-subsets of range(n_bar), or `sample` random ones."""
    if sample is None:
        yield from itertools.combinations(range(n_bar), k_bar)
        return
    rng = np.random.default_rng(seed)
    for _ in range(sample):
        pick = np.sort(rng.permutation(n_bar)[:k_bar])
        yield tuple(int(i) for i in pick)


def _rank_and_cond(G: np.ndarray, rows: list):
    """Rank and 2-norm condition number of each G[rows[b]], by one SVD.

    ``rows`` holds equal-length row lists.  The stacked call runs the same
    LAPACK routine per matrix as ``np.linalg.matrix_rank`` and
    ``np.linalg.cond``, and the tolerance is matrix_rank's own, so both
    values are bit-identical to the per-matrix calls.  cond is only
    meaningful where the rank is full.
    """
    S = np.linalg.svd(G[np.asarray(rows)], compute_uv=False)
    rtol = max(len(rows[0]), G.shape[1]) * np.finfo(S.dtype).eps
    tol = S.max(axis=-1, keepdims=True, initial=0) * rtol
    with np.errstate(all="ignore"):
        cond = S[:, 0] / S[:, -1]
    return np.count_nonzero(S > tol, axis=-1), cond


def check_all_subsets(plan: CodingPlan, guard: int = SUBSET_GUARD,
                      sample: int | None = None, seed: int = 0) -> ResilienceReport:
    """Rank-test every k_bar-subset of coefficient rows (or a random sample).

    Rank comes from the SVD, a route fully independent of the decoder's LU,
    so the two can cross-check each other.  Subsets stream
    through in chunks of RANK_CHUNK, one stacked SVD each.
    """
    G = plan.coefficient_matrix()
    n_bar, k_bar = G.shape
    total = math.comb(n_bar, k_bar)
    if sample is None and total > guard:
        raise SubsetGuardError(
            f"{total} subsets exceed the exhaustive guard ({guard}); "
            "pass a sample size to switch to sampling")
    subsets = iter_subsets(n_bar, k_bar, sample, seed)
    failures = []
    min_cond = max_cond = float("inf")
    worst = None
    checked = 0
    while chunk := list(itertools.islice(subsets, RANK_CHUNK)):
        checked += len(chunk)
        rank, cond = _rank_and_cond(G, chunk)
        full = np.flatnonzero(rank == k_bar)
        failures.extend(chunk[i] for i in np.flatnonzero(rank < k_bar))
        if full.size == 0:
            continue
        good = cond[full]
        top = int(np.argmax(good))
        min_cond = min(min_cond, float(good.min()))
        if worst is None or good[top] > max_cond:
            max_cond, worst = float(good[top]), chunk[full[top]]
    return ResilienceReport(
        scheme=plan.scheme, k_bar=k_bar, s_bar=plan.s_bar,
        subsets_checked=checked, failures=tuple(failures),
        min_cond=min_cond, max_cond=max_cond, worst_subset=worst,
        exhaustive=sample is None)


# ---------------------------------------------------------------------------
# matching certificates

def maximum_bipartite_matching(adjacency, n_right: int):
    """Augmenting-path maximum matching; adjacency[i] lists right-vertices.

    Returns match_left where match_left[i] is the right vertex matched to
    left vertex i, or -1.  Graphs here have tens of vertices, so the
    simple O(V*E) routine is plenty.
    """
    match_left = [-1] * len(adjacency)
    match_right = [-1] * n_right

    def augment(i, seen):
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_right[j] == -1 or augment(match_right[j], seen):
                match_left[i] = j
                match_right[j] = i
                return True
        return False

    for i in range(len(adjacency)):
        augment(i, set())
    return match_left


@dataclass(frozen=True)
class MatchingResult:
    perfect: bool
    matching: tuple[tuple[int, int], ...]   # (worker, block) pairs


def check_hall_condition(plan: CodingPlan, subset) -> MatchingResult:
    """Try to match each selected equation to a distinct unknown it touches."""
    subset = tuple(subset)
    if len(subset) != plan.k_bar:
        raise ValueError(f"subset size {len(subset)} != k_bar {plan.k_bar}")
    specs = {s.worker: s for s in plan.specs}
    adjacency = [sorted(specs[w].support) for w in subset]
    match = maximum_bipartite_matching(adjacency, plan.k_bar)
    pairs = tuple((w, j) for w, j in zip(subset, match) if j != -1)
    return MatchingResult(len(pairs) == plan.k_bar, pairs)


def measured_neighborhood(plan: CodingPlan, workers) -> int:
    """Count distinct unknowns touched by the given workers' supports."""
    specs = {s.worker: s for s in plan.specs}
    seen = set()
    for w in workers:
        seen.update(specs[w].support)
    return len(seen)


def neighborhood_lower_bound(k_bar: int, s_bar: int, m: int) -> int:
    """Guaranteed distinct-unknown count for any m equations of the scheme."""
    if not 1 <= m <= k_bar:
        raise ValueError(f"m must be in [1, {k_bar}], got {m}")
    weight = s_bar + 1
    if m <= 2 * s_bar:
        return min(weight + math.ceil(m / 2) - 1, k_bar)
    q = m - 2 * s_bar
    return min(weight + s_bar + q - 1, k_bar)


# ---------------------------------------------------------------------------
# straggler patterns over physical clients

@dataclass(frozen=True)
class PatternEntry:
    types: tuple[int, ...]       # sorted type indices of the straggler set
    n_sets: int
    n_tolerable: int
    removed_virtual: int         # virtual workers lost (same for the multiset)

    @property
    def all_tolerable(self) -> bool:
        return self.n_tolerable == self.n_sets

    def label(self) -> str:
        counts = Counter(self.types)
        return ", ".join(f"{c}x type-{t}" for t, c in sorted(counts.items()))


@dataclass(frozen=True)
class PatternReport:
    k_bar: int
    s_bar: int
    entries: tuple[PatternEntry, ...]
    maximal_tolerable: tuple[tuple[int, ...], ...]

    def entry(self, types) -> PatternEntry:
        key = tuple(sorted(types))
        for e in self.entries:
            if e.types == key:
                return e
        raise KeyError(f"no straggler pattern {key}")

    def describe(self) -> list[str]:
        out = []
        for e in self.entries:
            verdict = ("tolerable" if e.all_tolerable
                       else f"not tolerable ({e.n_tolerable}/{e.n_sets} sets)")
            out.append(f"{e.label()}: {verdict} (removes {e.removed_virtual} "
                       f"virtual workers)")
        return out


def _contains(big: tuple, small: tuple) -> bool:
    b, s = Counter(big), Counter(small)
    return all(b[t] >= c for t, c in s.items())


def resilience_patterns(roster: ClientRoster, plan: CodingPlan,
                        max_stragglers: int | None = None) -> PatternReport:
    """Classify straggler sets of physical clients by type multiset.

    A set is tolerable when the surviving workers still span all k_bar
    unknowns: at least k_bar coefficient rows remain and their stacked
    matrix has full numerical rank.  Straggler sets stream through in chunks
    of RANK_CHUNK, their survivors ranked by one stacked SVD per row count.
    """
    n_clients = roster.n_clients
    if max_stragglers is None:
        max_stragglers = n_clients
    total = sum(math.comb(n_clients, size) for size in range(max_stragglers + 1))
    if total > SUBSET_GUARD:
        raise SubsetGuardError(
            f"{total} straggler sets exceed the guard ({SUBSET_GUARD}); "
            "lower max_stragglers")
    G = plan.coefficient_matrix()
    owned = {c.id: [s.worker for s in plan.specs if s.owner_client == c.id]
             for c in roster.clients}
    straggler_sets = (combo for size in range(max_stragglers + 1)
                      for combo in itertools.combinations(roster.clients, size))
    buckets: dict[tuple, list] = {}
    while chunk := list(itertools.islice(straggler_sets, RANK_CHUNK)):
        by_rows: dict[int, list] = {}    # row count -> (pattern key, survivors)
        for combo in chunk:
            removed = {w for c in combo for w in owned[c.id]}
            key = tuple(sorted(c.type_index for c in combo))
            bucket = buckets.setdefault(key, [0, 0, len(removed)])
            bucket[0] += 1
            rows = tuple(w for w in range(plan.n_bar) if w not in removed)
            if len(rows) >= plan.k_bar:
                by_rows.setdefault(len(rows), []).append((key, rows))
        for group in by_rows.values():
            rank, _ = _rank_and_cond(G, [rows for _, rows in group])
            for (key, _), r in zip(group, rank):
                buckets[key][1] += int(r == plan.k_bar)
    entries = tuple(PatternEntry(k, n, t, rv)
                    for k, (n, t, rv) in sorted(buckets.items(),
                                                key=lambda kv: (len(kv[0]), kv[0])))
    tolerable = [e.types for e in entries if e.all_tolerable and e.types]
    maximal = tuple(t for t in tolerable
                    if not any(u != t and _contains(u, t) for u in tolerable))
    return PatternReport(plan.k_bar, plan.s_bar, entries, maximal)
