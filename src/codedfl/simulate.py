"""Round-level simulation: D2D transfer cost, straggler timing, decode
outcome, privacy exposure, sparse-compute benchmarking, and a small
federated gradient-descent demo whose every step is one simulated round.

Timing is shifted-exponential per task: a virtual worker of a client with
multiplier c needs alpha/(c*beta) time units plus nonnegative exponential
noise, and a client's virtual workers run sequentially on its single
processor.  A failed client is gone for the round; a late one (the demo's
stragglers) starts once every on-time client has finished.  Communication
is a parametric per-transfer cost model; the absolute numbers are only
meaningful relative to each other.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import decoding as dec
from .coding import CodingPlan, encode
from .matrices import as_matrix, partition_uniform


MAX_RETRIES = 5   # fresh straggler draws per fl_demo step before giving up


class SimConfigError(ValueError):
    """Model parameters out of range."""


@dataclass(frozen=True)
class CommModel:
    link_latency: float = 0.0        # per transfer
    per_byte_cost: float = 1e-9      # per byte moved
    bytes_per_element: float = 8.0
    broadcast_cost: float = 0.0      # one-off cost of shipping x

    def __post_init__(self):
        for name in ("link_latency", "per_byte_cost", "bytes_per_element",
                     "broadcast_cost"):
            if getattr(self, name) < 0:
                raise SimConfigError(f"{name} must be >= 0")


@dataclass(frozen=True)
class TimingModel:
    noise: float = 1.0               # exponential noise mean = noise * shift
    failed_clients: tuple[int, ...] = ()
    failure_prob: float = 0.0

    def __post_init__(self):
        if self.noise < 0:
            raise SimConfigError("noise must be >= 0")
        if not 0.0 <= self.failure_prob <= 1.0:
            raise SimConfigError("failure_prob must be in [0, 1]")

    def task_time(self, client, alpha: float, beta: float,
                  rng: np.random.Generator) -> float:
        """One virtual-worker task on the given client: shift plus noise."""
        shift = alpha / (client.multiplier * beta)
        mean = self.noise * shift
        return shift + (rng.exponential(mean) if mean > 0 else 0.0)


@dataclass(frozen=True)
class ClientExposure:
    client: int
    raw_fraction: Fraction
    coded_support_fraction: Fraction


@dataclass(frozen=True)
class SimReport:
    total_bytes_d2d: float
    comm_delay: float
    compute_finish: dict            # worker -> finish time (failed: absent)
    completion_time: float
    decoded: dec.DecodeResult | None     # None when the round failed
    decode_error: str | None
    failed_clients: tuple[int, ...]

    @property
    def decode_ok(self) -> bool:
        return self.decoded is not None

    @property
    def decode_residual(self) -> float | None:
        return self.decoded.residual if self.decoded is not None else None


def privacy_report(plan: CodingPlan) -> dict[int, ClientExposure]:
    """Exact exposure fractions by client id, in units of 1/k_bar.

    raw_fraction counts block-columns a client holds uncoded: its own plus
    raw blocks received over D2D.  coded_support_fraction adds the supports
    of coded blocks it received: the columns it could learn something
    about, not the columns it can read.
    """
    k_bar, roster = plan.k_bar, plan.roster
    raw = {c.id: {q for q in plan.workers_of(c.id) if q < k_bar}   # its own
           for c in roster.clients}
    coded: dict[int, set] = {c.id: set() for c in roster.clients}
    for t in plan.transfers:
        if t.kind == "raw":
            raw[t.dst].add(t.payload)
        else:
            coded[t.dst].update(plan.specs[t.payload].support)
    return {c.id: ClientExposure(c.id, Fraction(len(raw[c.id]), k_bar),
                                 Fraction(len(raw[c.id] | coded[c.id]), k_bar))
            for c in roster.clients}


def simulate_round(products: dec.ProductMemo, timing: TimingModel,
                   comm: CommModel, rng: np.random.Generator, *,
                   late: tuple[int, ...] = ()) -> SimReport:
    """One full round: transfers, compute with stragglers, decode.

    The plan is the memo's workload's, so the plan a round times is the one
    whose products it decodes, each computed once per memo.  Clients in
    ``late`` start their tasks once the last on-time client has finished.
    """
    wl = products.workload
    plan, rows, alpha = wl.plan, wl.coded[0].rows, wl.alpha
    roster = plan.roster
    total_bytes = comm.bytes_per_element * rows * alpha * len(plan.transfers)
    comm_delay = (comm.broadcast_cost
                  + len(plan.transfers) * comm.link_latency
                  + comm.per_byte_cost * total_bytes)

    failed = set(timing.failed_clients)
    if timing.failure_prob > 0:
        for c in roster.clients:
            if rng.random() < timing.failure_prob:
                failed.add(c.id)

    # sequential execution per physical client, on-time clients starting
    # after comms and late ones after the last on-time finish
    finish: dict[int, float] = {}
    start = comm_delay
    for is_late in (False, True):
        for c in roster.clients:
            if c.id in failed or (c.id in late) != is_late:
                continue
            clock = start
            for w in plan.workers_of(c.id):
                clock += timing.task_time(c, alpha, roster.base_speed, rng)
                finish[w] = clock
        start = max(finish.values(), default=comm_delay)

    arrival = sorted(finish, key=lambda w: (finish[w], w))
    k = plan.k_bar
    result = error = None
    if len(arrival) < k:
        completion = math.inf
        error = (f"insufficient results: {len(arrival)} of {k} needed "
                 f"(failed clients: {sorted(failed)})")
    else:
        completion = finish[arrival[k - 1]]
        # decode reads the first k arrivals only, so only those are computed;
        # worker order makes the result depend on who arrived, not when
        first = sorted(arrival[:k])
        try:
            result = dec.decode(products.problem(first))
        except dec.DecodeError as e:
            error = str(e)

    return SimReport(
        total_bytes_d2d=total_bytes,
        comm_delay=comm_delay,
        compute_finish=finish,
        completion_time=completion,
        decoded=result,
        decode_error=error,
        failed_clients=tuple(sorted(failed)),
    )


# ---------------------------------------------------------------------------
# sparse-compute benchmark

@dataclass(frozen=True)
class BenchmarkRow:
    scheme: str
    zero_fraction: float       # zeta, share of zero entries in A
    k_bar: int
    n_workers: int
    alpha: int
    rows: int
    mean_nnz: float
    max_nnz: int
    mean_time: float           # mean over workers of per-worker median seconds
    max_time: float
    trials: int


def _median_matvec_time(block, x, trials: int, warmup: int) -> float:
    for _ in range(warmup):
        block.matvec_t(x)
    times = []
    for _ in range(trials):
        t0 = _time.perf_counter()
        block.matvec_t(x)
        times.append(_time.perf_counter() - t0)
    return float(np.median(times))


def sparse_compute_benchmark(pairs, x, zero_fraction: float = float("nan"),
                             trials: int = 11, warmup: int = 2) -> list:
    """Per-scheme nnz and SpMV timing over every worker's coded block.

    ``pairs`` holds (plan, blocks), blocks being the plan's coded blocks in
    worker order, one row each.  Each block is measured once and not kept,
    so blocks handed over lazily (as ``iter_encoded_blocks`` yields them)
    keep memory bounded by a single coded block.  Timings are medians of
    ``trials`` runs after ``warmup`` discarded runs; only orderings across
    schemes are meaningful.
    """
    if trials < 1:
        raise SimConfigError("trials must be >= 1")
    x = np.asarray(x, dtype=np.float64).ravel()
    rows = []
    for plan, blocks in pairs:
        nnzs = []
        times = []
        for blk in blocks:
            nnzs.append(blk.nnz())
            times.append(_median_matvec_time(blk, x, trials, warmup))
        rows.append(BenchmarkRow(
            scheme=plan.scheme, zero_fraction=zero_fraction,
            k_bar=plan.k_bar, n_workers=plan.n_bar,
            alpha=blk.cols, rows=blk.rows,
            mean_nnz=float(np.mean(nnzs)), max_nnz=int(np.max(nnzs)),
            mean_time=float(np.mean(times)), max_time=float(np.max(times)),
            trials=trials))
    return rows


# ---------------------------------------------------------------------------
# federated gradient-descent demo

def gradient_lipschitz_bound(D: np.ndarray) -> float:
    """L such that the gradient of ||D b - y||^2 is L-Lipschitz."""
    return 2.0 * float(np.linalg.norm(D, 2)) ** 2


def plain_gd(D, y, steps: int, stepsize: float):
    """Uncoded reference: exact gradient descent on ||D b - y||^2."""
    D = as_matrix(D).to_dense()
    y = np.asarray(y, dtype=np.float64).ravel()
    beta = np.zeros(D.shape[1])
    betas = [beta.copy()]
    losses = []
    for _ in range(steps):
        e = D @ beta - y
        losses.append(float(e @ e))
        beta = beta - stepsize * 2.0 * (D.T @ e)
        betas.append(beta.copy())
    losses.append(float(np.linalg.norm(D @ betas[-1] - y) ** 2))
    return np.array(betas), np.array(losses)


@dataclass(frozen=True)
class FlResult:
    betas: np.ndarray          # (steps+1) x r
    losses: np.ndarray         # steps+1
    stepsize: float
    lipschitz: float
    rounds_retried: int
    straggled: tuple[tuple[int, ...], ...]   # per step, clients started late


def fl_demo(D, y, plan: CodingPlan, steps: int, seed: int = 0,
            stragglers_per_round: int = 0,
            timing: TimingModel = TimingModel()) -> FlResult:
    """Gradient descent where every gradient is decoded from coded products.

    The driver keeps the forward pass local and routes the heavy product
    D^T e through one simulate_round per step, with
    ``stragglers_per_round`` clients drawn to start late.  A round that
    fails to decode is retried with a fresh straggler draw; ``seed`` keys
    those draws and the round timing.  The step is 0.5/L for the exact
    gradient Lipschitz constant L (0 when L = 0).
    """
    D = as_matrix(D)
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != D.rows:
        raise ValueError(f"y has length {y.shape[0]}, expected {D.rows}")
    wl = encode(partition_uniform(D, plan.k_bar), plan)

    dense = D.to_dense()
    L = gradient_lipschitz_bound(dense)
    stepsize = 0.5 / L if L > 0 else 0.0

    clients = [c.id for c in plan.roster.clients]
    rng = np.random.default_rng(seed)            # straggler draws
    round_rng = np.random.default_rng([seed, 1])  # round timing draws
    beta = np.zeros(D.cols)
    betas = [beta.copy()]
    losses = []
    straggled = []
    retried = 0
    for _ in range(steps):
        e = dense @ beta - y
        losses.append(float(e @ e))
        products = dec.ProductMemo(wl, e)   # retries reuse this step's products
        for attempt in range(MAX_RETRIES + 1):
            late = tuple(sorted(
                int(c) for c in rng.choice(clients, size=stragglers_per_round,
                                           replace=False)))
            # comm delay shifts every finish alike, never who decodes
            rep = simulate_round(products, timing, CommModel(), round_rng,
                                 late=late)
            if rep.decode_ok:
                break
            retried += 1
            if attempt == MAX_RETRIES:
                raise dec.DecodeError(rep.decode_error)
        straggled.append(late)
        beta = beta - stepsize * 2.0 * rep.decoded.concatenated()
        betas.append(beta.copy())
    losses.append(float(np.linalg.norm(dense @ beta - y) ** 2))
    return FlResult(np.array(betas), np.array(losses), stepsize, L, retried,
                    tuple(straggled))
