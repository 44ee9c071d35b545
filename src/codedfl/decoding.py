"""Recovery of A^T x from returned coded products, plus the certificates
behind the straggler-resilience claims.

The decoder solves G_S U = Y by LAPACK's LU with partial pivoting (dgetrf,
dgetrs), where G_S stacks the coefficient rows of the workers actually used
and Y stacks their product vectors; row q of U is then the block product
A_q^T x.  A pivot on diag(U) below PIVOT_REL_TOL times the scale of G_S
counts as zero and fails the decode.  The verification side is
deliberately independent of that solver.  Subsets are ranked in chunks by
one stacked SVD, which gives each subset's rank (with
``np.linalg.matrix_rank``'s tolerance) and its condition number; straggler
patterns that ``certify`` cannot count rank their survivors the same way.

Most subsets never need that SVD: a bound from G's left null space settles
them (the generator/parity-check duality, via the CS decomposition; Golub &
Van Loan, *Matrix Computations*).  Take G = QR in complete mode, so that
Q = [Q_1 N] is orthogonal, N = Q[:, k_bar:] spans the left null space, and
G = Q_1 R_1 with R_1 = R[:k_bar].  Split the rows into a kept subset S and
the s_bar removed rows D.  Orthogonality of Q gives

    Q_1[S]^T Q_1[S] = I - Q_1[D]^T Q_1[D],   N[D] N[D]^T = I - Q_1[D] Q_1[D]^T,

and the nonunit eigenvalues of both are 1 - sigma_i(Q_1[D])^2, so
sigma_min(Q_1[S]) = sigma_min(N[D]) =: sigma.  A plan has s_bar < k_bar, so
Q_1[D] has a null vector and sigma_max(Q_1[S]) = 1.  As G[S] = Q_1[S] R_1,

    1 / (kappa(R_1) sigma)  <=  cond(G[S])  <=  kappa(R_1) / sigma.

One QR and one stacked SVD of the s_bar x s_bar blocks N[D] bound every
subset.  The exact SVD then runs only on the open subsets:
  - those whose upper bound reaches RANK_MARGIN / (k_bar eps), where
    matrix_rank's threshold 1 / (k_bar eps) may be near, so the verdict is
    open;
  - those whose upper bound reaches, less BOUND_SLACK, the exact cond of the
    settled subset with the largest lower bound (one extra SVD), so they
    might hold the maximum.
A settled subset has k_bar eps cond < RANK_MARGIN, so rounding in the QR and
the SVDs moves its bound and its computed cond by about RANK_MARGIN
relative, well inside BOUND_SLACK: a subset that is not open is full rank
and its computed cond is below the maximum.  The exact SVD runs in
enumeration order on the same rows as before, so failures, max_cond and
worst_subset are those of ranking every subset.  Every subset is open where
the bound does not apply: s_bar = 0, or a G of rank below k_bar, whose kappa
is inf or far above the limit.

The matching certificate follows from rank.  If sigma_min of G_S clears the
SVD tolerance, G_S is nonsingular (the computed singular values lie within
rounding of the exact ones), so its determinant has a nonzero Leibniz
term: a permutation pairing every selected equation with a distinct unknown
in its support, i.e. a perfect matching of the support graph.  So only rank
failures are matched, by scipy's bipartite matching on the supports: that
tells a structural defect (no matching) from an unlucky cancellation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .coding import CodingPlan, EncodedWorkload
from .matrices import ShapeError

DECODE_TOL = 1e-8       # row-wise relative residual bound
PIVOT_REL_TOL = 1e-10   # pivot below this times the matrix scale is zero
SUBSET_GUARD = 10 ** 6  # most subsets or straggler sets enumerated or drawn
RANK_CHUNK = 2048       # matrices per stacked SVD: 12.8 MB at 28x28
RANK_MARGIN = 1e-3      # bound below RANK_MARGIN / (k_bar eps) settles rank
BOUND_SLACK = 1e-2      # relative slack when a bound is compared to the max


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


@dataclass(eq=False)
class ProductMemo:
    """Every worker's product for one workload and one x, computed once.

    A product depends only on its coded block and x, so rounds that share x
    share products.  Missing ones go through problem_from_workload, the one
    place a product is computed.
    """
    workload: EncodedWorkload
    x: np.ndarray
    results: dict = field(default_factory=dict, init=False)  # worker -> result

    def problem(self, workers) -> DecodeProblem:
        """The listed workers' results in the order given."""
        missing = [w for w in workers if w not in self.results]
        if missing:
            fresh = problem_from_workload(self.workload, self.x, missing)
            self.results.update((r.worker, r) for r in fresh.returned)
        return DecodeProblem(tuple(self.results[w] for w in workers),
                             self.workload.G.shape[1])


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

    # Imported here, not at module level, as every scipy import in codedfl
    # is: scipy.linalg costs about 7 MB and 0.1-0.3 s to import, and plan,
    # verify and config loading never decode.
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
    if not residual <= DECODE_TOL:     # NaN and Inf fail too
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
    subsets_ranked: int                    # of those, ranked by the exact SVD
    failures: tuple[tuple[int, ...], ...]
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
            "subsets_ranked": self.subsets_ranked,
            "failures": [list(f) for f in self.failures],
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
    for start in range(0, sample, RANK_CHUNK):
        # permuted shuffles row after row: the draws of one
        # rng.permutation(n_bar) per subset, in one call per chunk
        rows = np.tile(np.arange(n_bar), (min(RANK_CHUNK, sample - start), 1))
        picks = np.sort(rng.permuted(rows, axis=1)[:, :k_bar], axis=1)
        yield from map(tuple, picks.tolist())


def _chunks(items):
    """Consecutive lists of at most RANK_CHUNK items."""
    items = iter(items)
    while chunk := list(itertools.islice(items, RANK_CHUNK)):
        yield chunk


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


def _open_subsets(G: np.ndarray, sample, seed) -> np.ndarray:
    """One flag per subset, in enumeration order: does it need the exact SVD?

    A subset is open when its null-space upper bound on cond reaches
    RANK_MARGIN / (k_bar eps), or reaches the exact cond of the settled
    subset with the largest lower bound, less BOUND_SLACK; see the module
    docstring.  Every subset is open where the bound does not apply.
    """
    n_bar, k_bar = G.shape
    s_bar = n_bar - k_bar
    upper = np.full(math.comb(n_bar, k_bar) if sample is None else sample,
                    np.inf)
    floor = 0.0     # a cond the maximum reaches
    if s_bar > 0:       # and a plan's s_bar is below its k_bar
        limit = RANK_MARGIN / (k_bar * np.finfo(G.dtype).eps)
        Q, R = np.linalg.qr(G, mode="complete")
        sv = np.linalg.svd(R[:k_bar], compute_uv=False)
        N = Q[:, k_bar:]
        start = 0
        least, least_sigma = None, np.inf   # settled, largest lower bound
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = sv[0] / sv[-1]
            for chunk in _chunks(iter_subsets(n_bar, k_bar, sample, seed)):
                kept = np.zeros((len(chunk), n_bar), dtype=bool)
                kept[np.arange(len(chunk))[:, None], chunk] = True
                removed = np.nonzero(~kept)[1].reshape(len(chunk), s_bar)
                sigma = np.linalg.svd(N[removed], compute_uv=False)[:, -1]
                bound = upper[start:start + len(chunk)] = kappa / sigma
                start += len(chunk)
                settled = np.flatnonzero(bound < limit)
                if settled.size:
                    i = settled[np.argmin(sigma[settled])]
                    if sigma[i] < least_sigma:
                        least, least_sigma = chunk[i], sigma[i]
        if least is not None:
            rank, cond = _rank_and_cond(G, [least])
            floor = float(cond[rank == k_bar].max(initial=0))
    # the cut is below limit, so only settled subsets close; NaN stays open
    return ~(upper < (1 - BOUND_SLACK) * floor)


def check_all_subsets(plan: CodingPlan, sample: int | None = None,
                      seed: int = 0) -> ResilienceReport:
    """Rank-test every k_bar-subset of coefficient rows (or a random sample).

    Rank comes from the SVD, a route fully independent of the decoder's LU,
    so the two can cross-check each other.  A null-space bound settles most
    subsets first; the rest stream through in chunks of RANK_CHUNK, one
    stacked SVD each, with the verdicts and conds of ranking every subset.
    An exhaustive survey and a sample alike stop at SUBSET_GUARD subsets; a
    sample checks at least one, so no report is vacuous.
    """
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    if sample is not None and sample > SUBSET_GUARD:
        # the two passes hold a float and a flag per drawn subset
        raise SubsetGuardError(
            f"sample of {sample} subsets exceeds the guard ({SUBSET_GUARD})")
    G = plan.G
    n_bar, k_bar = G.shape
    total = math.comb(n_bar, k_bar)
    if sample is None and total > SUBSET_GUARD:
        raise SubsetGuardError(
            f"{total} subsets exceed the exhaustive guard ({SUBSET_GUARD}); "
            "use --sample N")
    is_open = _open_subsets(G, sample, seed)
    failures = []
    max_cond = float("inf")
    worst = None
    checked = 0
    for chunk in _chunks(iter_subsets(n_bar, k_bar, sample, seed)):
        picked = [chunk[i] for i in
                  np.flatnonzero(is_open[checked:checked + len(chunk)])]
        checked += len(chunk)
        if not picked:
            continue
        rank, cond = _rank_and_cond(G, picked)
        full = np.flatnonzero(rank == k_bar)
        failures.extend(picked[i] for i in np.flatnonzero(rank < k_bar))
        if full.size == 0:
            continue
        good = cond[full]
        top = int(np.argmax(good))
        if worst is None or good[top] > max_cond:
            max_cond, worst = float(good[top]), picked[full[top]]
    return ResilienceReport(
        scheme=plan.scheme, k_bar=k_bar, s_bar=plan.s_bar,
        subsets_checked=checked, subsets_ranked=int(is_open.sum()),
        failures=tuple(failures), max_cond=max_cond, worst_subset=worst,
        exhaustive=sample is None)


# ---------------------------------------------------------------------------
# matching certificates

@dataclass(frozen=True)
class MatchingResult:
    perfect: bool
    matching: tuple[tuple[int, int], ...]   # (worker, block) pairs


def check_hall_condition(plan: CodingPlan, subset) -> MatchingResult:
    """Match each selected equation to a distinct unknown in its support
    (the support, not G's nonzeros: the certificate is structural)."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    subset, k = tuple(subset), plan.k_bar
    if len(subset) != k:
        raise ValueError(f"subset size {len(subset)} != k_bar {k}")
    supports = [plan.specs[w].support for w in subset]
    indptr = np.cumsum([0] + [len(s) for s in supports])
    indices = np.array([q for s in supports for q in s], dtype=np.int64)
    graph = csr_array((np.ones(indices.size), indices, indptr), shape=(k, k))
    match = maximum_bipartite_matching(graph, perm_type="column")
    pairs = tuple((w, int(j)) for w, j in zip(subset, match) if j != -1)
    return MatchingResult(len(pairs) == k, pairs)


# ---------------------------------------------------------------------------
# straggler patterns over physical clients

@dataclass(frozen=True)
class PatternEntry:
    types: tuple[int, ...]       # sorted type indices of the straggler set
    n_sets: int
    n_tolerable: int
    removed_virtual: int   # virtual workers its first enumerated set removes

    @property
    def all_tolerable(self) -> bool:
        return self.n_tolerable == self.n_sets

    def label(self) -> str:
        counts = Counter(self.types)
        return ", ".join(f"{c}x type-{t}" for t, c in sorted(counts.items()))


@dataclass(frozen=True)
class PatternReport:
    entries: tuple[PatternEntry, ...]
    maximal_tolerable: tuple[tuple[int, ...], ...]

    def describe(self) -> list[str]:
        out = []
        for e in self.entries:
            verdict = ("tolerable" if e.all_tolerable
                       else f"not tolerable ({e.n_tolerable}/{e.n_sets} sets)")
            out.append(f"{e.label()}: {verdict} (removes {e.removed_virtual} "
                       f"virtual workers)")
        return out


def _check_pattern_guard(n_clients: int, max_stragglers: int) -> None:
    total = sum(math.comb(n_clients, size) for size in range(max_stragglers + 1))
    if total > SUBSET_GUARD:
        raise SubsetGuardError(
            f"{total} straggler sets exceed the guard ({SUBSET_GUARD}); "
            "lower --max-stragglers")


def _pattern_report(buckets: dict) -> PatternReport:
    """Report from {type multiset: (sets, tolerable sets, removed_virtual)}."""
    entries = tuple(PatternEntry(k, n, t, rv)
                    for k, (n, t, rv) in sorted(buckets.items(),
                                                key=lambda kv: (len(kv[0]), kv[0])))
    tolerable = [e.types for e in entries if e.all_tolerable and e.types]
    maximal = tuple(t for t in tolerable if not any(
        u != t and Counter(t) <= Counter(u) for u in tolerable))
    return PatternReport(entries, maximal)


def resilience_patterns(plan: CodingPlan,
                        max_stragglers: int | None = None) -> PatternReport:
    """Classify straggler sets of physical clients by type multiset.

    A set is tolerable when the surviving workers still span all k_bar
    unknowns: at least k_bar coefficient rows remain and their stacked
    matrix has full numerical rank.  Straggler sets stream through in chunks
    of RANK_CHUNK, their survivors ranked by one stacked SVD per row count.
    """
    clients = plan.roster.clients
    if max_stragglers is None:
        max_stragglers = len(clients)
    _check_pattern_guard(len(clients), max_stragglers)
    straggler_sets = (combo for size in range(max_stragglers + 1)
                      for combo in itertools.combinations(clients, size))
    buckets: dict[tuple, list] = {}
    for chunk in _chunks(straggler_sets):
        by_rows: dict[int, list] = {}    # row count -> (pattern key, survivors)
        for combo in chunk:
            removed = {w for c in combo for w in plan.workers_of(c.id)}
            key = tuple(sorted(c.type_index for c in combo))
            bucket = buckets.setdefault(key, [0, 0, len(removed)])
            bucket[0] += 1
            rows = tuple(w for w in range(plan.n_bar) if w not in removed)
            if len(rows) >= plan.k_bar:
                by_rows.setdefault(len(rows), []).append((key, rows))
        for group in by_rows.values():
            rank, _ = _rank_and_cond(plan.G, [rows for _, rows in group])
            for (key, _), r in zip(group, rank):
                buckets[key][1] += int(r == plan.k_bar)
    return _pattern_report(buckets)


@dataclass(frozen=True)
class Certificate:
    subsets: ResilienceReport
    unmatched: tuple[tuple[int, ...], ...]   # rank failures with no matching
    patterns: PatternReport
    max_stragglers: int

    @property
    def ok(self) -> bool:
        return self.subsets.ok and not self.unmatched


def certify(plan: CodingPlan, max_stragglers: int | None = None,
            sample: int | None = None, seed: int = 0) -> Certificate:
    """Subset ranks, matchings and straggler patterns of one plan.

    Only rank failures are matched: full rank implies a perfect matching.
    max_stragglers defaults to min(n_clients, s_bar + 1).  After a clean
    exhaustive subset report, every k_bar rows have full rank and adding
    rows never lowers sigma_min, so a straggler set is tolerable when k_bar
    workers survive it, and patterns are counted from the multipliers: a
    client runs as many workers as its multiplier.  A sampled or failing
    report, or a plan that runs fewer workers than its roster has (uncoded
    with passives), takes the survey instead.
    """
    roster = plan.roster
    if max_stragglers is None:
        max_stragglers = min(roster.n_clients, plan.s_bar + 1)
    if max_stragglers < 0:
        raise ValueError(f"max_stragglers must be >= 0, got {max_stragglers}")
    subsets = check_all_subsets(plan, sample=sample, seed=seed)
    unmatched = tuple(f for f in subsets.failures
                      if not check_hall_condition(plan, f).perfect)
    if not (subsets.exhaustive and subsets.ok) or plan.n_bar < len(roster.owner):
        patterns = resilience_patterns(plan, max_stragglers)
        return Certificate(subsets, unmatched, patterns, max_stragglers)
    _check_pattern_guard(roster.n_clients, max_stragglers)
    types = Counter(c.type_index for c in roster.clients)
    width = {c.type_index: c.multiplier for c in roster.clients}
    buckets = {}   # m_t clients of type t: prod C(N_t, m_t) sets
    for size in range(min(max_stragglers, roster.n_clients) + 1):
        for key in itertools.combinations_with_replacement(sorted(types), size):
            if n := math.prod(math.comb(types[t], key.count(t)) for t in types):
                lost = sum(width[t] for t in key)
                buckets[key] = (n, n * (plan.n_bar - lost >= plan.k_bar), lost)
    return Certificate(subsets, unmatched, _pattern_report(buckets),
                       max_stragglers)
