"""Worker assignment and encoding for straggler-resilient coded products.

A roster of physical clients (active clients generate block-columns,
passive ones only compute) is expanded into virtual workers of a
homogeneous system: a client with multiplier c owns c virtual workers and
c generated blocks.  The proposed cyclic scheme gives virtual worker i the
support S_i = {i, i+1, ..., i+w-1} mod k_bar with weight w = s_bar + 1;
passive worker k_bar + i reuses S_i with independent coefficients.  Worker
i already holds block i, so it receives the remaining w - 1 blocks raw
over D2D links; each passive client receives one ready-made coded block
instead of any raw data.

Baseline builders (dense random, polynomial/Vandermonde, uncoded) share
the same plan and workload types so downstream analysis is scheme-blind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as _sp

from .matrices import Matrix, PartitionedMatrix, SparseMatrix, linear_combination


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

    def client(self, cid: int) -> Client:
        return self.clients[cid]


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
    if base_speed <= 0:
        raise RosterError(f"base_speed must be > 0, got {base_speed}")
    types = {c: j for j, c in enumerate(sorted(set(act + pas)))}
    clients = []
    for c in act:
        clients.append(Client(len(clients), "active", types[c], c))
    for c in pas:
        clients.append(Client(len(clients), "passive", types[c], c))
    return ClientRoster(tuple(clients), base_width, float(base_speed))


def expand_heterogeneous(roster: ClientRoster):
    """Expand a roster into virtual workers of the weakest type.

    Returns (k_bar, s_bar, owner) where owner[v] is the physical client id
    of virtual worker v; actives occupy 0..k_bar-1 in roster order (so the
    owner of virtual block q is owner[q]), passives k_bar..n_bar-1.
    """
    owner = []
    for c in roster.actives():
        owner.extend([c.id] * c.multiplier)
    k_bar = len(owner)
    for c in roster.passives():
        owner.extend([c.id] * c.multiplier)
    s_bar = len(owner) - k_bar
    return k_bar, s_bar, tuple(owner)


# ---------------------------------------------------------------------------
# plans

@dataclass(frozen=True)
class CodedBlockSpec:
    worker: int
    owner_client: int
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
    scheme: str                # "proposed" | "dense" | "poly" | "uncoded"
    k_bar: int
    s_bar: int
    specs: tuple[CodedBlockSpec, ...]
    transfers: tuple[Transfer, ...]

    @property
    def n_bar(self) -> int:
        return len(self.specs)

    def coefficient_matrix(self) -> np.ndarray:
        """The n_bar x k_bar matrix G with row i supported on spec i."""
        G = np.zeros((self.n_bar, self.k_bar))
        for s in self.specs:
            G[s.worker, list(s.support)] = s.coeffs
        return G

    def raw_transfers(self) -> tuple[Transfer, ...]:
        return tuple(t for t in self.transfers if t.kind == "raw")

    def coded_transfers(self) -> tuple[Transfer, ...]:
        return tuple(t for t in self.transfers if t.kind == "coded")


def _cyclic_support(i: int, weight: int, k_bar: int) -> tuple[int, ...]:
    return tuple((i + d) % k_bar for d in range(weight))


def _spec_coeffs(seed, worker: int, size: int, unit: bool):
    if unit:
        return tuple([1.0] * size), "unit"
    vals = draw_coeffs(worker_rng(seed, worker), size)
    return tuple(float(v) for v in vals), f"seed={seed}/worker={worker}"


def build_heterogeneous_plan(roster: ClientRoster, seed: int = 0,
                             unit_coeffs: bool = False) -> CodingPlan:
    """Cyclic plan over the roster's virtual workers.

    Active virtual worker i combines blocks S_i = {i..i+s_bar} mod k_bar;
    passive worker k_bar+i reuses S_i with fresh coefficients.  Raw
    transfers ship each needed block from its generator unless source and
    destination are the same physical client; one coded transfer feeds
    each passive virtual worker.
    """
    k_bar, s_bar, owner = expand_heterogeneous(roster)
    if s_bar >= k_bar:
        raise RosterError(
            f"s_bar={s_bar} must be < k_bar={k_bar} for weight s_bar+1 supports")
    weight = s_bar + 1
    specs = []
    for i in range(k_bar):
        coeffs, tag = _spec_coeffs(seed, i, weight, unit_coeffs)
        specs.append(CodedBlockSpec(i, owner[i], _cyclic_support(i, weight, k_bar),
                                    coeffs, tag))
    for i in range(s_bar):
        w = k_bar + i
        coeffs, tag = _spec_coeffs(seed, w, weight, unit_coeffs)
        specs.append(CodedBlockSpec(w, owner[w], _cyclic_support(i, weight, k_bar),
                                    coeffs, tag))

    transfers = []
    seen = set()
    for i in range(k_bar):
        # worker i holds block i already; fetch the rest of its support
        for q in specs[i].support[1:]:
            src, dst = owner[q], owner[i]
            if src == dst or (src, dst, q) in seen:
                continue
            seen.add((src, dst, q))
            transfers.append(Transfer(src, dst, "raw", q))
    for i in range(s_bar):
        # the client running paired active worker i holds all of S_i and
        # computes the passive combination on its behalf
        transfers.append(Transfer(owner[i], owner[k_bar + i], "coded", k_bar + i))
    return CodingPlan("proposed", k_bar, s_bar, tuple(specs), tuple(transfers))


def build_homogeneous_plan(k_a: int, s: int, seed: int = 0,
                           unit_coeffs: bool = False) -> CodingPlan:
    """All-multiplier-one special case: k_a active and s passive clients."""
    if not 0 <= s < k_a:
        raise RosterError(f"need 0 <= s < k_a, got k_a={k_a}, s={s}")
    roster = make_roster([1] * k_a, [1] * s)
    return build_heterogeneous_plan(roster, seed, unit_coeffs)


def _full_support_transfers(roster: ClientRoster, k_bar: int, owner):
    # every generated block goes raw to every other physical client
    transfers = []
    for q in range(k_bar):
        for c in roster.clients:
            if c.id != owner[q]:
                transfers.append(Transfer(owner[q], c.id, "raw", q))
    return tuple(transfers)


def build_dense_plan(roster: ClientRoster, seed: int = 0) -> CodingPlan:
    """Dense-random baseline: every worker combines all k_bar blocks."""
    k_bar, s_bar, owner = expand_heterogeneous(roster)
    support = tuple(range(k_bar))
    specs = []
    for w in range(k_bar + s_bar):
        coeffs, tag = _spec_coeffs(seed, w, k_bar, False)
        specs.append(CodedBlockSpec(w, owner[w], support, coeffs, tag))
    return CodingPlan("dense", k_bar, s_bar, tuple(specs),
                      _full_support_transfers(roster, k_bar, owner))


def build_poly_plan(roster: ClientRoster, points=None) -> CodingPlan:
    """Polynomial-code baseline: worker i's row is (x_i^0, ..., x_i^{k-1})."""
    k_bar, s_bar, owner = expand_heterogeneous(roster)
    n_bar = k_bar + s_bar
    if points is None:
        points = list(range(n_bar))
    points = [float(p) for p in points]
    if len(points) != n_bar:
        raise PlanError(f"{len(points)} evaluation points for {n_bar} workers")
    if len(set(points)) != n_bar:
        raise PlanError("evaluation points must be pairwise distinct")
    support = tuple(range(k_bar))
    specs = []
    for w in range(n_bar):
        row = tuple(points[w] ** q for q in range(k_bar))
        specs.append(CodedBlockSpec(w, owner[w], support, row, f"point={points[w]}"))
    return CodingPlan("poly", k_bar, s_bar, tuple(specs),
                      _full_support_transfers(roster, k_bar, owner))


def build_uncoded_plan(roster: ClientRoster) -> CodingPlan:
    """No-redundancy control: active worker i computes its own block, coeff 1."""
    actives = make_roster([c.multiplier for c in roster.actives()],
                          base_width=roster.base_width,
                          base_speed=roster.base_speed)
    k_bar, _, owner = expand_heterogeneous(actives)
    specs = tuple(CodedBlockSpec(i, owner[i], (i,), (1.0,), "unit")
                  for i in range(k_bar))
    return CodingPlan("uncoded", k_bar, 0, specs, ())


def build_plan(scheme: str, roster: ClientRoster, seed: int = 0,
               points=None) -> CodingPlan:
    """Dispatch by scheme name."""
    if scheme == "proposed":
        return build_heterogeneous_plan(roster, seed)
    if scheme == "dense":
        return build_dense_plan(roster, seed)
    if scheme == "poly":
        return build_poly_plan(roster, points)
    if scheme == "uncoded":
        return build_uncoded_plan(roster)
    raise PlanError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# encoding

@dataclass(frozen=True)
class EncodedWorkload:
    coded: tuple[Matrix, ...]      # one t x alpha block per worker
    G: np.ndarray                  # n_bar x k_bar coefficient matrix
    alpha: int

    @property
    def n_bar(self) -> int:
        return len(self.coded)


def _check_plan_fits(P: PartitionedMatrix, plan: CodingPlan) -> int:
    if P.k != plan.k_bar:
        raise PlanError(f"partition has {P.k} blocks, plan expects {plan.k_bar}")
    return P.require_uniform()


def iter_encoded_blocks(P: PartitionedMatrix, plan: CodingPlan):
    """Yield (worker, coded block) lazily; holds one coded block at a time.

    For sparse input the whole combination is one sparse product
    H @ kron(g^T, I_alpha) with H the block concatenation, so cost scales
    with the nnz of the supported blocks only.
    """
    alpha = _check_plan_fits(P, plan)
    if P.kind == "sparse":
        H = _sp.hstack([b.m for b in P.blocks], format="csc")
        eye = _sp.identity(alpha, format="csc")
        for spec in plan.specs:
            row = _sp.csc_matrix(
                (spec.coeffs, (list(spec.support), [0] * len(spec.support))),
                shape=(plan.k_bar, 1))
            yield spec.worker, SparseMatrix._wrap(H @ _sp.kron(row, eye, format="csc"))
    else:
        for spec in plan.specs:
            blocks = [P.blocks[q] for q in spec.support]
            yield spec.worker, linear_combination(blocks, spec.coeffs)


def encode(P: PartitionedMatrix, plan: CodingPlan) -> EncodedWorkload:
    """Materialize every worker's coded block per the plan's coefficients."""
    alpha = _check_plan_fits(P, plan)
    coded = [None] * plan.n_bar
    for w, blk in iter_encoded_blocks(P, plan):
        coded[w] = blk
    G = plan.coefficient_matrix()
    G.setflags(write=False)
    return EncodedWorkload(tuple(coded), G, alpha)


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


def roster_from_dict(d: dict) -> ClientRoster:
    try:
        clients = tuple(
            Client(int(c["id"]), str(c["role"]), int(c["type_index"]),
                   int(c["multiplier"]))
            for c in d["clients"])
        roster = ClientRoster(clients, int(d["base_width"]), float(d["base_speed"]))
    except (KeyError, TypeError, ValueError) as e:
        raise PlanError(f"malformed roster: {e}") from e
    for c in roster.clients:
        if c.role not in ("active", "passive"):
            raise PlanError(f"client {c.id} has unknown role {c.role!r}")
    return roster


def plan_to_dict(plan: CodingPlan, roster: ClientRoster) -> dict:
    return {
        "format": PLAN_FORMAT,
        "scheme": plan.scheme,
        "k_bar": plan.k_bar,
        "s_bar": plan.s_bar,
        "roster": roster_to_dict(roster),
        "workers": [
            {"worker": s.worker, "owner": s.owner_client,
             "support": list(s.support), "coeffs": list(s.coeffs),
             "seed_tag": s.seed_tag}
            for s in plan.specs
        ],
        "transfers": [
            {"src": t.src, "dst": t.dst, "kind": t.kind, "payload": t.payload}
            for t in plan.transfers
        ],
    }


def plan_from_dict(d: dict):
    """Parse and structurally validate a stored plan; returns (plan, roster).

    Validation is structural only (shapes, index ranges); rank properties
    are the verifier's job, so a tampered-but-well-formed plan loads fine.
    """
    if d.get("format") != PLAN_FORMAT:
        raise PlanError(f"unrecognized plan format {d.get('format')!r}")
    roster = roster_from_dict(d["roster"])
    try:
        k_bar, s_bar = int(d["k_bar"]), int(d["s_bar"])
        specs = tuple(
            CodedBlockSpec(int(w["worker"]), int(w["owner"]),
                           tuple(int(q) for q in w["support"]),
                           tuple(float(v) for v in w["coeffs"]),
                           str(w.get("seed_tag", "")))
            for w in d["workers"])
        transfers = tuple(
            Transfer(int(t["src"]), int(t["dst"]), str(t["kind"]), int(t["payload"]))
            for t in d["transfers"])
    except (KeyError, TypeError, ValueError) as e:
        raise PlanError(f"malformed plan: {e}") from e
    scheme = str(d["scheme"])
    if len(specs) != k_bar + s_bar:
        raise PlanError(f"{len(specs)} worker specs, expected {k_bar + s_bar}")
    n_clients = roster.n_clients
    for s in specs:
        if len(s.support) != len(s.coeffs):
            raise PlanError(f"worker {s.worker}: support/coeff length mismatch")
        if any(not 0 <= q < k_bar for q in s.support):
            raise PlanError(f"worker {s.worker}: block index out of range")
        if not 0 <= s.owner_client < n_clients:
            raise PlanError(f"worker {s.worker}: unknown owner {s.owner_client}")
    if sorted(s.worker for s in specs) != list(range(k_bar + s_bar)):
        raise PlanError("worker indices must cover 0..n_bar-1")
    for t in transfers:
        if t.kind not in ("raw", "coded"):
            raise PlanError(f"unknown transfer kind {t.kind!r}")
        limit = k_bar if t.kind == "raw" else k_bar + s_bar
        if not 0 <= t.payload < limit:
            raise PlanError(f"transfer payload {t.payload} out of range")
        if not (0 <= t.src < n_clients and 0 <= t.dst < n_clients):
            raise PlanError(f"transfer endpoints ({t.src}, {t.dst}) out of range")
    plan = CodingPlan(scheme, k_bar, s_bar, specs, transfers)
    return plan, roster
