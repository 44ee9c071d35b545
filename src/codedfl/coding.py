"""Worker assignment and encoding for straggler-resilient coded products.

A roster of physical clients (active clients generate block-columns,
passive ones only compute) expands into virtual workers of a homogeneous
system: a client with multiplier c owns c consecutive virtual workers,
actives first (``roster.owner``), and an active one generates c blocks.
The proposed cyclic scheme gives virtual worker i the support S_i = {i,
i+1, ..., i+w-1} mod k_bar with weight w = s_bar + 1; passive worker
k_bar + i reuses S_i with independent coefficients.  Worker i already
holds block i, so it receives the remaining w - 1 blocks raw over D2D
links; each passive client receives one ready-made coded block instead of
any raw data.

Every builder, baselines (dense random, polynomial, uncoded) included,
returns a CodingPlan (scheme, roster, specs), so downstream analysis is
scheme-blind and takes the plan alone.  A plan's workers are the first
n_bar of its roster's virtual workers: spec w holds worker w's support,
coefficients and tag, and roster.owner[w] runs it.  The plan derives k_bar,
s_bar and its D2D transfers, and checks its own structure when it is made,
however built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .matrices import (DenseMatrix, Matrix, PartitionedMatrix, SparseMatrix,
                       _freeze)

if TYPE_CHECKING:
    from scipy import sparse as _sp


class RosterError(ValueError):
    """Client roster violates a model constraint."""


class PlanError(ValueError):
    """Coding plan is internally inconsistent or malformed."""


COEFF_FLOOR = 1e-6  # coefficient draws inside (-floor, floor) are redrawn


def draw_coeffs(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform on [-1,1] excluding a small ball around zero."""
    out = rng.uniform(-1.0, 1.0, size)
    while True:
        bad = np.abs(out) < COEFF_FLOOR
        if not bad.any():
            return out
        out[bad] = rng.uniform(-1.0, 1.0, int(bad.sum()))


def worker_rng(root_seed: int, worker: int) -> np.random.Generator:
    # per-worker stream keyed by (seed, worker) so draw order never matters
    return np.random.default_rng([int(root_seed), int(worker)])


# ---------------------------------------------------------------------------
# rosters

@dataclass(frozen=True)
class Client:
    id: int
    role: str              # "active" | "passive"
    type_index: int        # 0 = weakest type
    multiplier: int


@dataclass(frozen=True)
class ClientRoster:
    clients: tuple[Client, ...]
    base_width: int        # alpha, columns per virtual block
    base_speed: float      # beta, columns per unit time for the weakest type

    def actives(self) -> tuple[Client, ...]:
        return tuple(c for c in self.clients if c.role == "active")

    def passives(self) -> tuple[Client, ...]:
        return tuple(c for c in self.clients if c.role == "passive")

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    @cached_property
    def owner(self) -> tuple[int, ...]:
        """Client id of each virtual worker: actives first, in roster order,
        a client of multiplier c owning c consecutive workers."""
        return tuple(c.id for c in self.actives() + self.passives()
                     for _ in range(c.multiplier))

    @cached_property
    def k_bar(self) -> int:
        """Virtual workers of the actives, one generated block each."""
        return sum(c.multiplier for c in self.actives())


def make_roster(active_multipliers, passive_multipliers=(),
                base_width: int = 1, base_speed: float = 1.0) -> ClientRoster:
    """Build a validated roster; ids are assigned actives-first.

    Multiplier lists are sorted non-increasing within each role group.
    Type indices are ranks of the distinct multiplier values, ascending,
    so the weakest clients are type 0.
    """
    act = sorted((int(c) for c in active_multipliers), reverse=True)
    pas = sorted((int(c) for c in passive_multipliers), reverse=True)
    if not act:
        raise RosterError("at least one active client is required")
    if any(c < 1 for c in act + pas):
        raise RosterError("multipliers must be positive integers")
    if len(pas) >= len(act):
        raise RosterError(
            f"{len(pas)} passive clients but only {len(act)} active; "
            "passives must be fewer than actives")
    for c in set(pas):
        # passives of a type may not outnumber actives of the same type
        if pas.count(c) > act.count(c):
            raise RosterError(
                f"{pas.count(c)} passive clients of multiplier {c} but only "
                f"{act.count(c)} active of that type")
    if base_width < 1:
        raise RosterError(f"base_width must be >= 1, got {base_width}")
    if not 0 < base_speed < math.inf:    # NaN fails too
        raise RosterError(f"base_speed must be finite and > 0, got {base_speed}")
    types = {c: j for j, c in enumerate(sorted(set(act + pas)))}
    clients = []
    for c in act:
        clients.append(Client(len(clients), "active", types[c], c))
    for c in pas:
        clients.append(Client(len(clients), "passive", types[c], c))
    return ClientRoster(tuple(clients), base_width, float(base_speed))


# ---------------------------------------------------------------------------
# plans

@dataclass(frozen=True)
class CodedBlockSpec:
    support: tuple[int, ...]   # block indices, aligned with coeffs
    coeffs: tuple[float, ...]
    seed_tag: str


@dataclass(frozen=True)
class Transfer:
    src: int                   # physical client id
    dst: int
    kind: str                  # "raw" | "coded"
    payload: int               # raw: block index; coded: worker index


@dataclass(frozen=True)
class CodingPlan:
    """A scheme's coded blocks over its roster.

    specs[w] is worker w's spec, and roster.owner[w] runs it; k_bar, s_bar
    and the transfers are derived, not stored.  Every structural rule is
    checked here, for built and stored plans alike.
    """
    scheme: str                # one of SCHEMES
    roster: ClientRoster
    specs: tuple[CodedBlockSpec, ...]   # indexed by worker

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise PlanError(f"unknown scheme {self.scheme!r}; expected one of "
                            f"{', '.join(SCHEMES)}")
        k_bar, n_bar, n_virtual = self.k_bar, self.n_bar, len(self.roster.owner)
        if not 1 <= k_bar <= n_bar <= n_virtual:
            # the workers are the first n_bar virtual workers, actives first
            raise PlanError(f"need 1 <= k_bar <= n_bar <= {n_virtual}, the "
                            f"roster's virtual workers; got k_bar={k_bar}, "
                            f"s_bar={self.s_bar}")
        for w, s in enumerate(self.specs):
            if len(s.support) != len(s.coeffs):
                # G would broadcast or drop coefficients the encode pairs up
                raise PlanError(f"worker {w}: support/coeff length mismatch")
            if any(not 0 <= q < k_bar for q in s.support):
                raise PlanError(f"worker {w}: block index out of range")
            if len(set(s.support)) != len(s.support):
                # G would keep one coefficient where encode sums them all
                raise PlanError(f"worker {w}: support repeats a block")
            if not all(map(math.isfinite, s.coeffs)):
                raise PlanError(f"worker {w}: coefficients {s.coeffs} not finite")

    @property
    def k_bar(self) -> int:
        return self.roster.k_bar

    @property
    def s_bar(self) -> int:
        return self.n_bar - self.k_bar

    @property
    def n_bar(self) -> int:
        return len(self.specs)

    @cached_property
    def G(self) -> np.ndarray:
        """The n_bar x k_bar matrix, row w on spec w; built once, read-only."""
        G = np.zeros((self.n_bar, self.k_bar))
        for w, s in enumerate(self.specs):
            G[w, list(s.support)] = s.coeffs
        return _freeze(G)

    @cached_property
    def transfers(self) -> tuple[Transfer, ...]:
        """The D2D transfers that deliver every worker's blocks.

        dense and poly ship every block raw to every other client, block by
        block.  Otherwise worker w is coded by the client that runs it, and
        passive worker k_bar+i by the one that runs worker i; that client
        fetches each support block it does not generate, raw, from the
        block's generator, each (src, dst, block) once in worker and
        support order.  Then each passive worker gets its coded block.
        """
        owner, k_bar = self.roster.owner, self.k_bar
        if self.scheme in ("dense", "poly"):
            return tuple(Transfer(owner[q], c.id, "raw", q) for q in range(k_bar)
                         for c in self.roster.clients if c.id != owner[q])
        coder = owner[:k_bar] + owner[:self.s_bar]
        raw = dict.fromkeys((owner[q], coder[w], q)
                            for w, s in enumerate(self.specs)
                            for q in s.support if owner[q] != coder[w])
        return (*(Transfer(src, dst, "raw", q) for src, dst, q in raw),
                *(Transfer(coder[w], owner[w], "coded", w)
                  for w in range(k_bar, self.n_bar)))

    @cached_property
    def _owned(self) -> dict[int, tuple[int, ...]]:
        owner = self.roster.owner[:self.n_bar]
        return {c: tuple(w for w, o in enumerate(owner) if o == c)
                for c in set(owner)}

    def workers_of(self, client: int) -> tuple[int, ...]:
        """The workers a client runs, in worker order; () if it runs none."""
        return self._owned.get(client, ())

    def raw_transfers(self) -> tuple[Transfer, ...]:
        return tuple(t for t in self.transfers if t.kind == "raw")

    def coded_transfers(self) -> tuple[Transfer, ...]:
        return tuple(t for t in self.transfers if t.kind == "coded")


def _cyclic_support(i: int, weight: int, k_bar: int) -> tuple[int, ...]:
    return tuple((i + d) % k_bar for d in range(weight))


def _spec_coeffs(seed, worker: int, size: int):
    vals = draw_coeffs(worker_rng(seed, worker), size)
    return tuple(float(v) for v in vals), f"seed={seed}/worker={worker}"


def build_heterogeneous_plan(roster: ClientRoster, seed: int = 0) -> CodingPlan:
    """Cyclic plan over the roster's virtual workers.

    Active virtual worker i combines blocks S_i = {i..i+s_bar} mod k_bar;
    passive worker k_bar+i reuses S_i with fresh coefficients, so the
    client running worker i holds all of S_i and codes it on that
    worker's behalf (``CodingPlan.transfers``).
    """
    k_bar, n_bar = roster.k_bar, len(roster.owner)
    weight = n_bar - k_bar + 1
    # the support of passive worker k_bar+i starts at (k_bar+i) mod k_bar = i
    specs = tuple(CodedBlockSpec(_cyclic_support(w, weight, k_bar),
                                 *_spec_coeffs(seed, w, weight))
                  for w in range(n_bar))
    return CodingPlan("proposed", roster, specs)


def build_homogeneous_plan(k_a: int, s: int, seed: int = 0) -> CodingPlan:
    """All-multiplier-one special case: k_a active and s passive clients."""
    if not 0 <= s < k_a:
        raise RosterError(f"need 0 <= s < k_a, got k_a={k_a}, s={s}")
    roster = make_roster([1] * k_a, [1] * s)
    return build_heterogeneous_plan(roster, seed)


def build_dense_plan(roster: ClientRoster, seed: int = 0) -> CodingPlan:
    """Dense-random baseline: every worker combines all k_bar blocks."""
    k_bar = roster.k_bar
    specs = tuple(CodedBlockSpec(tuple(range(k_bar)),
                                 *_spec_coeffs(seed, w, k_bar))
                  for w in range(len(roster.owner)))
    return CodingPlan("dense", roster, specs)


def build_poly_plan(roster: ClientRoster) -> CodingPlan:
    """Polynomial-code baseline: worker i evaluates p(z) = sum_q T_q(z) A_q.

    Worker i's row is (T_0(x_i), ..., T_{k-1}(x_i)), Chebyshev polynomials
    at the Chebyshev nodes x_i = cos((2i+1) pi / 2n_bar).  The nodes are
    distinct, so any k_bar rows determine p.  Both nodes and basis are
    chosen for conditioning: monomials at the points 0..n_bar-1 make every
    k_bar=28 subset singular to working precision (cond near 1e40).
    """
    from numpy.polynomial.chebyshev import chebvander

    k_bar, n_bar = roster.k_bar, len(roster.owner)
    nodes = np.cos((2 * np.arange(n_bar) + 1) * np.pi / (2 * n_bar))
    rows = chebvander(nodes, k_bar - 1)
    support = tuple(range(k_bar))
    specs = tuple(
        CodedBlockSpec(support, tuple(float(v) for v in rows[w]),
                       f"node={float(nodes[w])!r}")
        for w in range(n_bar))
    return CodingPlan("poly", roster, specs)


def build_uncoded_plan(roster: ClientRoster) -> CodingPlan:
    """No-redundancy control: active worker i computes its own block, coeff 1."""
    specs = tuple(CodedBlockSpec((i,), (1.0,), "unit")
                  for i in range(roster.k_bar))
    return CodingPlan("uncoded", roster, specs)


SCHEMES = ("proposed", "dense", "poly", "uncoded")


def build_plan(scheme: str, roster: ClientRoster, seed: int = 0) -> CodingPlan:
    """Dispatch by scheme name."""
    if scheme == "proposed":
        return build_heterogeneous_plan(roster, seed)
    if scheme == "dense":
        return build_dense_plan(roster, seed)
    if scheme == "poly":
        return build_poly_plan(roster)
    if scheme == "uncoded":
        return build_uncoded_plan(roster)
    raise PlanError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# encoding

@dataclass(frozen=True)
class EncodedWorkload:
    """A plan and its workers' coded blocks; G and alpha are read off them."""
    plan: CodingPlan
    coded: tuple[Matrix, ...]      # one rows x alpha block per worker

    @property
    def G(self) -> np.ndarray:
        return self.plan.G

    @property
    def alpha(self) -> int:
        return self.coded[0].cols

    @property
    def n_bar(self) -> int:
        return self.plan.n_bar


# Cells of the union per chunk of the overlay.  A chunk's slice of the
# output (512 KB of float64) stays in cache while all k_bar blocks add into
# it; one column per block would sweep the whole output k_bar times.
# Encoding the 30 dense-baseline workers of a 1000 x 31500 matrix at 95%
# zeros (a 14-chunk union) took 98 ms at 2^14 cells, 100 at 2^15 and
# 2^16, 106 at 2^17, 129 at 2^18 and 196 as one chunk; at 98% zeros 52,
# 56, 56, 57, 66 and 87 ms (medians of 7 on a 2-vCPU Xeon, one thread).
OVERLAY_CHUNK = 1 << 16


def _overlay(A: _sp.csc_matrix, k: int, alpha: int):
    """The k block-columns of A laid over the union of their patterns.

    The union's cells, ranked in column-major order, fall into chunks of
    ``OVERLAY_CHUNK`` cells.  Returns (S, indices, indptr, shape): column
    c*k + q of the n_union x (chunks*k) matrix S holds block q's entries
    whose cell falls in chunk c, each at the rank of its cell, ranks
    increasing; indices/indptr are the union's read-only CSC pattern as a
    block of that shape, row indices sorted.  S holds a copy of A's values,
    so it costs A's nnz in values and indices while it lives.
    """
    from scipy import sparse as _sp

    if not A.has_sorted_indices:
        A = A.sorted_indices()
    rows = A.shape[0]
    # flat cell (col mod alpha) * rows + row of every stored entry
    flat = np.repeat(np.arange(A.shape[1]) % alpha * rows, np.diff(A.indptr))
    flat += A.indices
    mark = np.zeros(alpha * rows, dtype=bool)
    mark[flat] = True
    pos = np.flatnonzero(mark)
    n_union = pos.size
    chunks = max(1, -(-n_union // OVERLAY_CHUNK))
    idx = _sp.get_index_dtype(maxval=max(rows, alpha, A.nnz, chunks * k))
    indptr = np.searchsorted(pos, np.arange(alpha + 1) * rows).astype(idx)
    indices = (pos % rows).astype(idx)
    del pos
    rank = np.cumsum(mark, dtype=idx)
    del mark
    rank -= 1
    rank = rank[flat]       # increasing within each block: indices are sorted
    del flat
    # cut[q, c]: A's first entry of block q at or past chunk c; column
    # c*k + q of S is the slice of A's entries from cut[q, c] to cut[q, c+1]
    starts = A.indptr[::alpha]
    bounds = np.arange(chunks + 1) * OVERLAY_CHUNK
    cut = np.array([lo + np.searchsorted(rank[lo:hi], bounds)
                    for lo, hi in zip(starts[:-1], starts[1:])]).T
    cols = [slice(a, b) for a, b in zip(cut[:-1].flat, cut[1:].flat)]
    S = _sp.csc_matrix(
        (np.concatenate([A.data[c] for c in cols]),
         np.concatenate([rank[c] for c in cols]),
         np.concatenate(([0], np.cumsum(cut[1:] - cut[:-1]))).astype(idx)),
        shape=(n_union, chunks * k))
    return S, _freeze(indices), _freeze(indptr), (rows, alpha)


def _combine(union, g: np.ndarray) -> _sp.csc_matrix:
    """The sum of the overlaid blocks weighted by g, exact zeros dropped.

    One matvec S @ tile(g, chunks): chunk by chunk, each cell sums
    g_q * A_q over q in block order from 0.0, so the values do not depend
    on the chunking, and a chunk's slice of the output stays in cache.  The
    shared index arrays are never written: a block with exact zeros gets
    compressed arrays of its own, as the sparse product drops them.
    """
    from scipy import sparse as _sp

    S, indices, indptr, shape = union
    vals = S @ np.tile(g, S.shape[1] // g.size)
    if not vals.all():
        keep = vals != 0
        vals, indices = vals[keep], indices[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr].astype(
            indptr.dtype)
    return _sp.csc_matrix((vals, indices, indptr), shape=shape)


def _selector(g: np.ndarray, alpha: int) -> _sp.csc_matrix:
    """kron(g^T, I_alpha) as a (g.size * alpha) x alpha CSC matrix.

    Column j holds g_q at row q*alpha + j for every nonzero g_q, q
    ascending: the arrays ``scipy.sparse.kron(g[:, None], I_alpha,
    format="csc")`` holds, built directly.
    """
    from scipy import sparse as _sp

    q = np.flatnonzero(g)
    shape = (g.size * alpha, alpha)
    idx = _sp.get_index_dtype(maxval=max(shape))
    indices = q * alpha + np.arange(alpha)[:, None]     # row j: column j
    return _sp.csc_matrix(
        (np.tile(g[q], alpha), indices.ravel().astype(idx),
         np.arange(alpha + 1, dtype=idx) * q.size), shape=shape)


def iter_encoded_blocks(P: PartitionedMatrix, plan: CodingPlan):
    """Yield (worker, coded block) lazily; holds one coded block at a time.

    Sparse input takes one of two routes, chosen by support width.  A spec
    whose support covers all k_bar blocks (dense, poly, and proposed at
    s_bar = k_bar - 1) has the union of the k_bar block patterns as its
    pattern, so the first such spec builds the overlay of the blocks on
    that union (``_overlay``, cut into chunks of cells that stay in cache)
    and every one of them is one matvec over it (``_combine``) with the
    worker's row g of ``plan.G``.  The sums run in block order from 0.0,
    as in the product below, so values are bit-identical, and blocks
    without exact zeros share the union's read-only index arrays.  A
    narrower support is one sparse product A @ kron(g^T, I_alpha), with A
    the partitioned matrix itself and the selector's arrays built directly
    (``_selector``); its cost scales with the nnz of the supported blocks
    only, where the overlay would cost the nnz of all k_bar.
    Dense input sums ``c * A_q`` over the support, in support order.
    """
    if P.k != plan.k_bar:
        raise PlanError(f"partition has {P.k} blocks, plan expects {plan.k_bar}")
    alpha = P.alpha
    if P.kind == "sparse":
        A = P.matrix.m
        union = None
        for w, spec in enumerate(plan.specs):
            # no block outlives its yield here: the caller may drop it
            if len(spec.support) == plan.k_bar:
                if union is None:
                    union = _overlay(A, plan.k_bar, alpha)
                yield w, SparseMatrix._wrap(_combine(union, plan.G[w]))
            else:
                yield w, SparseMatrix._wrap(A @ _selector(plan.G[w], alpha))
    else:
        a = P.matrix.a
        for w, spec in enumerate(plan.specs):
            out = np.zeros((P.rows, alpha))
            for c, q in zip(spec.coeffs, spec.support):
                out += c * a[:, q * alpha:(q + 1) * alpha]
            yield w, DenseMatrix(out)


def encode(P: PartitionedMatrix, plan: CodingPlan) -> EncodedWorkload:
    """Materialize every worker's coded block per the plan's coefficients."""
    coded = [None] * plan.n_bar
    for w, blk in iter_encoded_blocks(P, plan):
        coded[w] = blk
    return EncodedWorkload(plan, tuple(coded))


# ---------------------------------------------------------------------------
# plan serialization

PLAN_FORMAT = "codedfl-plan-1"


def roster_to_dict(roster: ClientRoster) -> dict:
    return {
        "base_width": roster.base_width,
        "base_speed": roster.base_speed,
        "clients": [
            {"id": c.id, "role": c.role, "type_index": c.type_index,
             "multiplier": c.multiplier}
            for c in roster.clients
        ],
    }


def _stored(v, kind=int):
    """A stored int (or, for kind=float, any number) as written, not coerced."""
    if isinstance(v, bool) or not isinstance(v, (int, kind)):
        raise TypeError(f"expected {kind.__name__}, got {v!r}")
    return kind(v)


def roster_from_dict(d: dict) -> ClientRoster:
    """Rebuild a stored roster through make_roster, which must give it back."""
    try:
        clients = tuple(
            Client(_stored(c["id"]), str(c["role"]), _stored(c["type_index"]),
                   _stored(c["multiplier"]))
            for c in d["clients"])
        roster = make_roster(
            [c.multiplier for c in clients if c.role == "active"],
            [c.multiplier for c in clients if c.role == "passive"],
            _stored(d["base_width"]), _stored(d["base_speed"], float))
    except (KeyError, TypeError, ValueError) as e:
        raise PlanError(f"malformed roster: {e}") from e
    if roster.clients != clients:
        raise PlanError("stored clients differ from the roster their "
                        "multipliers define (ids, roles, types or order)")
    return roster


def plan_to_dict(plan: CodingPlan) -> dict:
    return {
        "format": PLAN_FORMAT,
        "scheme": plan.scheme,
        "k_bar": plan.k_bar,
        "s_bar": plan.s_bar,
        "roster": roster_to_dict(plan.roster),
        "workers": [
            {"worker": w, "owner": plan.roster.owner[w],
             "support": list(s.support), "coeffs": list(s.coeffs),
             "seed_tag": s.seed_tag}
            for w, s in enumerate(plan.specs)
        ],
        "transfers": [
            {"src": t.src, "dst": t.dst, "kind": t.kind, "payload": t.payload}
            for t in plan.transfers
        ],
    }


def plan_from_dict(d: dict) -> CodingPlan:
    """Parse a stored plan; the plan itself checks its structure.

    Stored workers may come in any order; the plan's specs are sorted by
    worker.  The stored k_bar and s_bar must equal the derived ones, the
    stored workers and owners the roster's layout, and the stored
    transfers the plan's derived ones, entry by entry.  The checks are
    structural only; rank properties are the verifier's job, so a plan
    with tampered coefficients loads fine.
    """
    if not isinstance(d, dict):
        raise PlanError("malformed plan: top level must be an object")
    if d.get("format") != PLAN_FORMAT:
        raise PlanError(f"unrecognized plan format {d.get('format')!r}")
    if "roster" not in d:
        raise PlanError("malformed plan: no roster")
    roster = roster_from_dict(d["roster"])
    try:
        scheme = str(d["scheme"])
        stored = _stored(d["k_bar"]), _stored(d["s_bar"])
        workers = sorted(d["workers"], key=lambda w: _stored(w["worker"]))
        layout = [(_stored(w["worker"]), _stored(w["owner"])) for w in workers]
        specs = tuple(CodedBlockSpec(
            tuple(map(_stored, w["support"])),
            tuple(_stored(v, float) for v in w["coeffs"]),
            str(w.get("seed_tag", ""))) for w in workers)
        transfers = tuple(
            Transfer(_stored(t["src"]), _stored(t["dst"]), str(t["kind"]),
                     _stored(t["payload"]))
            for t in d["transfers"])
    except (KeyError, TypeError, ValueError) as e:
        raise PlanError(f"malformed plan: {e}") from e
    k_bar = roster.k_bar
    if stored != (k_bar, len(specs) - k_bar):
        raise PlanError(f"stored k_bar={stored[0]}, s_bar={stored[1]}; roster "
                        f"and workers give {k_bar}, {len(specs) - k_bar}")
    for w, (worker, owner) in enumerate(layout[:len(roster.owner)]):
        if (worker, owner) != (w, roster.owner[w]):
            raise PlanError(f"stored worker {worker} of client {owner} breaks "
                            f"the roster's layout, where worker {w} is client "
                            f"{roster.owner[w]}'s")
    plan = CodingPlan(scheme, roster, specs)
    for i, (t, derived) in enumerate(zip(transfers, plan.transfers)):
        if t != derived:
            raise PlanError(f"stored transfer {i}, {t}, differs from the "
                            f"derived {derived}")
    if len(transfers) != len(plan.transfers):
        raise PlanError(f"{len(transfers)} stored transfers; the plan derives "
                        f"{len(plan.transfers)}")
    return plan
