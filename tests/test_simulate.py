"""Round simulation, privacy accounting, benchmark, and the FL demo."""

from fractions import Fraction

import numpy as np
import pytest

from codedfl import coding as cd
from codedfl import decoding as dec
from codedfl import matrices as mx
from codedfl import simulate as sim
from helpers import block, lazy_blocks


def rng(seed=0):
    return np.random.default_rng(seed)


def memo_of(plan):
    """Products of the plan over one standard normal row whose blocks are
    roster.base_width wide: the matrix simulate draws with no matrix."""
    g = rng(0)
    A = mx.random_dense(1, plan.k_bar * plan.roster.base_width, g)
    wl = cd.encode(mx.partition_uniform(A, plan.k_bar), plan)
    return dec.ProductMemo(wl, g.standard_normal(1))


def table1_rosters():
    return cd.make_roster([1] * 18, [1] * 2, base_width=4)


# ---------------------------------------------------------------------------
# transfer accounting and modeled delay

def test_transfer_counts_proposed_vs_dense():
    roster = table1_rosters()
    prop = cd.build_heterogeneous_plan(roster, seed=0)
    dense = cd.build_dense_plan(roster, seed=0)
    r1 = sim.simulate_round(memo_of(prop), sim.TimingModel(noise=0),
                            sim.CommModel(), rng(1))
    r2 = sim.simulate_round(memo_of(dense), sim.TimingModel(noise=0),
                            sim.CommModel(), rng(1))
    assert len(prop.raw_transfers()) == 36 and len(prop.coded_transfers()) == 2
    assert len(dense.raw_transfers()) == 342 and len(dense.coded_transfers()) == 0
    assert r1.total_bytes_d2d * 5 < r2.total_bytes_d2d
    assert r1.comm_delay <= r2.comm_delay


def test_delay_dominance_any_nonnegative_comm_model():
    roster = table1_rosters()
    prop = cd.build_heterogeneous_plan(roster, seed=0)
    dense = cd.build_dense_plan(roster, seed=0)
    g = rng(2)
    for _ in range(25):
        comm = sim.CommModel(link_latency=float(g.uniform(0, 3)),
                             per_byte_cost=float(g.uniform(0, 1e-6)),
                             bytes_per_element=float(g.uniform(1, 16)),
                             broadcast_cost=float(g.uniform(0, 2)))
        d1 = sim.simulate_round(memo_of(prop), sim.TimingModel(noise=0), comm,
                                rng(3)).comm_delay
        d2 = sim.simulate_round(memo_of(dense), sim.TimingModel(noise=0), comm,
                                rng(3)).comm_delay
        assert d1 <= d2


def test_comm_model_rejects_negative():
    with pytest.raises(sim.SimConfigError):
        sim.CommModel(link_latency=-1)
    with pytest.raises(sim.SimConfigError):
        sim.TimingModel(noise=-0.5)
    with pytest.raises(sim.SimConfigError):
        sim.TimingModel(failure_prob=1.5)


# ---------------------------------------------------------------------------
# timing, stragglers, completion

def test_zero_noise_completion_is_deterministic():
    roster = cd.make_roster([1] * 6, [1] * 2, base_width=5, base_speed=2.0)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    comm = sim.CommModel(per_byte_cost=0.0)
    a = sim.simulate_round(memo_of(plan), sim.TimingModel(noise=0), comm,
                           rng(4))
    b = sim.simulate_round(memo_of(plan), sim.TimingModel(noise=0), comm,
                           rng(99))
    # alpha/beta = 5/2 per worker, no comm cost
    assert a.completion_time == pytest.approx(2.5)
    assert a.completion_time == b.completion_time
    assert a.decode_ok


def test_comm_delay_shifts_every_finish_time():
    roster = cd.make_roster([1] * 4, [1], base_width=2)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    comm = sim.CommModel(link_latency=1.0, per_byte_cost=0.0)
    rep = sim.simulate_round(memo_of(plan), sim.TimingModel(noise=0), comm,
                             rng(5))
    # 4*1 raw + 1 coded transfers, one time unit each
    assert rep.comm_delay == pytest.approx(5.0)
    assert min(rep.compute_finish.values()) >= rep.comm_delay


def test_virtual_workers_run_sequentially():
    # one client with multiplier 3 owns three workers finishing in sequence
    roster = cd.make_roster([3, 1], [1], base_width=6)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    rep = sim.simulate_round(memo_of(plan), sim.TimingModel(noise=0),
                             sim.CommModel(per_byte_cost=0.0), rng(6))
    # per-task time for the multiplier-3 client is 6/3 = 2
    assert rep.compute_finish[0] == pytest.approx(2.0)
    assert rep.compute_finish[1] == pytest.approx(4.0)
    assert rep.compute_finish[2] == pytest.approx(6.0)
    # the weak client needs 6 time units for its single task
    assert rep.compute_finish[3] == pytest.approx(6.0)


def test_explicit_failures_are_coupled():
    # a failed client contributes none of its virtual workers
    roster = cd.make_roster([2, 1, 1], [1], base_width=2)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    timing = sim.TimingModel(noise=0, failed_clients=(0,))
    rep = sim.simulate_round(memo_of(plan), timing, sim.CommModel(), rng(7))
    assert rep.failed_clients == (0,)
    owned = {w for w, c in enumerate(plan.roster.owner) if c == 0}
    assert owned and not owned & set(rep.compute_finish)


def test_two_stragglers_decode_three_do_not():
    roster = cd.make_roster([1] * 10, [1] * 2, base_width=3)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    ok = sim.simulate_round(memo_of(plan),
                            sim.TimingModel(noise=0, failed_clients=(3, 7)),
                            sim.CommModel(), rng(8))
    assert ok.decode_ok and ok.decode_error is None
    assert ok.decode_residual <= dec.DECODE_TOL
    bad = sim.simulate_round(memo_of(plan),
                             sim.TimingModel(noise=0, failed_clients=(3, 7, 9)),
                             sim.CommModel(), rng(9))
    assert not bad.decode_ok
    assert "insufficient" in bad.decode_error
    assert bad.completion_time == float("inf")


def test_late_clients_finish_after_on_time_ones_and_still_decode():
    # clients 0 (multiplier 2) and 5 (passive) hold three virtual workers,
    # one more than s_bar = 2, so decoding needs one late product
    _, plan = example2()
    late = (0, 5)
    rep = sim.simulate_round(memo_of(plan), sim.TimingModel(noise=0),
                             sim.CommModel(), rng(15), late=late)
    owner = plan.roster.owner
    on_time = [t for w, t in rep.compute_finish.items() if owner[w] not in late]
    tardy = [t for w, t in rep.compute_finish.items() if owner[w] in late]
    assert len(tardy) == 3 and len(on_time) == plan.n_bar - 3
    assert min(tardy) > max(on_time)
    assert rep.decode_ok and rep.completion_time == min(tardy)
    used = rep.decoded.used_workers
    assert used == tuple(sorted(used))        # decoded in worker order
    assert sum(owner[w] in late for w in used) == 1
    assert rep.failed_clients == ()


def test_probabilistic_failures_use_rng():
    roster = cd.make_roster([1] * 8, [1], base_width=2)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    timing = sim.TimingModel(noise=0, failure_prob=0.5)
    rep = sim.simulate_round(memo_of(plan), timing, sim.CommModel(), rng(10))
    rep2 = sim.simulate_round(memo_of(plan), timing, sim.CommModel(), rng(10))
    assert rep.failed_clients == rep2.failed_clients   # same stream, same draw
    assert 0 < len(rep.failed_clients) < 9


def test_simulate_with_real_workload():
    roster = cd.make_roster([1] * 6, [1] * 2, base_width=3)
    plan = cd.build_heterogeneous_plan(roster, seed=1)
    A = mx.random_dense(9, 18, rng(11))
    wl = cd.encode(mx.partition_uniform(A, 6), plan)
    x = rng(12).standard_normal(9)
    rep = sim.simulate_round(dec.ProductMemo(wl, x),
                             sim.TimingModel(noise=1.0), sim.CommModel(),
                             rng(13))
    assert rep.decode_ok
    # bytes use the real block shape: 9 rows x 3 cols x 8 bytes x transfers
    assert rep.total_bytes_d2d == pytest.approx(9 * 3 * 8 * len(plan.transfers))
    np.testing.assert_allclose(rep.decoded.concatenated(),
                               A.to_dense().T @ x, rtol=1e-10)


def test_rounds_sharing_a_memo_compute_each_product_once(monkeypatch):
    roster = cd.make_roster([1] * 6, [1] * 2, base_width=3)
    plan = cd.build_heterogeneous_plan(roster, seed=1)
    A = mx.random_dense(9, 18, rng(11))
    wl = cd.encode(mx.partition_uniform(A, 6), plan)
    x = rng(12).standard_normal(9)
    fresh = dec.problem_from_workload
    computed = []

    def counted(workload, x, workers):
        computed.extend(workers)
        return fresh(workload, x, workers)

    monkeypatch.setattr(dec, "problem_from_workload", counted)
    memo = dec.ProductMemo(wl, x)
    used = []
    for t in range(20):
        rep = sim.simulate_round(memo, sim.TimingModel(noise=1.0),
                                 sim.CommModel(), rng(t))
        used.append(rep.decoded.used_workers)
        # a memo decode equals the decode of a freshly computed problem
        again = dec.decode(fresh(wl, x, rep.decoded.used_workers))
        assert np.array_equal(rep.decoded.block_products, again.block_products)
    assert len(set(used)) > 1                    # the arrivals did vary
    assert len(computed) == len(set(computed))
    assert set(computed) == {w for u in used for w in u}


def test_task_times_follow_the_roster():
    # shift = alpha/(c*beta): 2 for the c=2 client, 4 for the c=1 active
    # and passive clients; the c=2 client's tasks run one after another
    roster = cd.make_roster([2, 1], [1], base_width=4)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    rep = sim.simulate_round(memo_of(plan), sim.TimingModel(noise=0),
                             sim.CommModel(per_byte_cost=0.0), rng(14))
    assert rep.compute_finish == pytest.approx({0: 2.0, 1: 4.0, 2: 4.0, 3: 4.0})


# ---------------------------------------------------------------------------
# privacy

def example2():
    roster = cd.make_roster([2, 2, 1, 1, 1], [1, 1])
    return roster, cd.build_heterogeneous_plan(roster, seed=0)


def test_privacy_example2_exact_fractions():
    _, plan = example2()
    exp = sim.privacy_report(plan)
    want = {0: Fraction(4, 7), 1: Fraction(4, 7), 2: Fraction(3, 7),
            3: Fraction(3, 7), 4: Fraction(3, 7)}
    for cid, frac in want.items():
        assert exp[cid].raw_fraction == frac
    # passive clients hold no raw data at all
    assert exp[5].raw_fraction == 0
    assert exp[6].raw_fraction == 0
    assert exp[5].coded_support_fraction == Fraction(3, 7)
    assert exp[6].coded_support_fraction == Fraction(3, 7)


def test_privacy_homogeneous_fraction():
    roster = cd.make_roster([1] * 10, [1] * 2)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    exp = sim.privacy_report(plan)
    for c in roster.actives():
        assert exp[c.id].raw_fraction == Fraction(3, 10)


def test_privacy_dense_baseline_total_exposure():
    roster, _ = example2()
    plan = cd.build_dense_plan(roster, seed=0)
    exp = sim.privacy_report(plan)
    for e in exp.values():
        assert e.coded_support_fraction == 1
        assert e.raw_fraction == 1


def test_privacy_dominance_bound():
    # raw exposure never exceeds own share plus s_bar received blocks
    for mults, pas in (([1] * 10, [1] * 2), ([2, 2, 1, 1, 1], [1, 1]),
                       ([3, 2, 1], [1])):
        roster = cd.make_roster(mults, pas)
        plan = cd.build_heterogeneous_plan(roster, seed=2)
        exp = sim.privacy_report(plan)
        for c in roster.clients:
            own = sum(cc.multiplier for cc in roster.actives() if cc.id == c.id)
            bound = Fraction(own + plan.s_bar, plan.k_bar)
            e = exp[c.id]
            assert e.raw_fraction <= bound
            assert e.raw_fraction <= e.coded_support_fraction
            if plan.k_bar > plan.s_bar + 1:
                assert e.raw_fraction < 1


def test_privacy_uncoded_plan_sees_only_own_blocks():
    roster = cd.make_roster([1] * 5, [1])
    exp = sim.privacy_report(cd.build_uncoded_plan(roster))
    for c in roster.actives():
        assert exp[c.id].raw_fraction == Fraction(1, 5)


# ---------------------------------------------------------------------------
# sparse benchmark (small instance; the desk-scale run lives in acceptance)

def test_benchmark_nnz_and_ordering_small():
    g = rng(15)
    P = mx.partition_uniform(mx.random_sparse(400, 120, 0.05, g), 12)
    roster = cd.make_roster([1] * 12, [1] * 2)
    prop = cd.build_heterogeneous_plan(roster, seed=3)
    dense = cd.build_dense_plan(roster, seed=3)
    x = g.standard_normal(400)
    rows = sim.sparse_compute_benchmark(lazy_blocks(P, [prop, dense]), x,
                                        zero_fraction=0.95, trials=3, warmup=1)
    by = {r.scheme: r for r in rows}
    assert by["proposed"].n_workers == 14
    assert by["dense"].mean_nnz > by["proposed"].mean_nnz
    # each proposed block's nnz is bounded by its three support blocks
    support_nnz = sorted(block(P, q).nnz() for q in range(P.k))
    assert by["proposed"].max_nnz <= 3 * support_nnz[-1]
    assert by["proposed"].mean_time > 0
    assert by["dense"].zero_fraction == 0.95


def test_benchmark_dense_pattern_is_union():
    g = rng(16)
    P = mx.partition_uniform(mx.random_sparse(200, 40, 0.05, g), 4)
    roster = cd.make_roster([1] * 4, [1])
    dense = cd.build_dense_plan(roster, seed=4)
    union = np.zeros((200, 10), dtype=bool)
    for q in range(P.k):
        union |= block(P, q).to_dense() != 0
    rows = sim.sparse_compute_benchmark(lazy_blocks(P, [dense]),
                                        g.standard_normal(200), trials=1,
                                        warmup=0)
    assert rows[0].max_nnz == int(union.sum())
    assert rows[0].mean_nnz == pytest.approx(union.sum())


def test_benchmark_fully_dense_blocks_equal_nnz():
    g = rng(17)
    P = mx.partition_uniform(mx.SparseMatrix(g.standard_normal((50, 20))), 4)
    roster = cd.make_roster([1] * 4, [1])
    rows = sim.sparse_compute_benchmark(
        lazy_blocks(P, [cd.build_heterogeneous_plan(roster, seed=5),
                        cd.build_dense_plan(roster, seed=5)]),
        g.standard_normal(50), trials=1, warmup=0)
    assert rows[0].mean_nnz == rows[1].mean_nnz == 50 * 5


def test_benchmark_rejects_zero_trials():
    g = rng(18)
    with pytest.raises(sim.SimConfigError):
        sim.sparse_compute_benchmark([], g.standard_normal(30), trials=0)


# ---------------------------------------------------------------------------
# FL demo

# On the mixed roster two late clients can hold three virtual workers, one
# more than s_bar = 2: the round must wait for a late product, not fail.
@pytest.mark.parametrize("active, passive, rows, cols, seed", [
    pytest.param([1] * 6, [1] * 2, 30, 12, 20, id="6+2-seed20"),
    pytest.param([2, 2, 1, 1, 1], [1, 1], 42, 21, 20, id="mixed-seed20"),
    pytest.param([2, 2, 1, 1, 1], [1, 1], 42, 21, 21, id="mixed-seed21"),
    pytest.param([2, 2, 1, 1, 1], [1, 1], 42, 21, 22, id="mixed-seed22"),
])
def test_fl_demo_matches_uncoded_oracle(active, passive, rows, cols, seed):
    g = rng(19)
    D = mx.random_dense(rows, cols, g)
    y = g.standard_normal(rows)
    plan = cd.build_heterogeneous_plan(cd.make_roster(active, passive), seed)
    res = sim.fl_demo(D, y, plan, steps=40, seed=seed, stragglers_per_round=2)
    betas, losses = sim.plain_gd(D, y, 40, res.stepsize)
    for t in range(41):
        scale = max(np.linalg.norm(betas[t]), 1.0)
        assert np.linalg.norm(res.betas[t] - betas[t]) <= 1e-6 * scale
    assert np.all(np.diff(res.losses) <= 1e-12)
    assert res.rounds_retried == 0
    assert len(res.straggled) == 40
    assert all(len(s) == 2 for s in res.straggled)


def _fl_demo_with_a_retry_every_step(monkeypatch, memo: bool):
    """fl_demo whose first decode in each step fails; returns the result and
    the (coded block, x) pair of every product computed."""
    g = rng(19)
    D = mx.random_dense(30, 12, g)
    y = g.standard_normal(30)
    plan = cd.build_homogeneous_plan(6, 2, seed=20)
    products = []
    matvec_t = mx.DenseMatrix.matvec_t

    def counted(block, x):
        products.append((id(block), x.tobytes()))
        return matvec_t(block, x)

    decode, calls = dec.decode, [0]

    def flaky(problem, rows=None):
        calls[0] += 1
        if calls[0] % 2:
            raise dec.RankDeficientError("forced failure", ())
        return decode(problem, rows)

    monkeypatch.setattr(mx.DenseMatrix, "matvec_t", counted)
    monkeypatch.setattr(dec, "decode", flaky)
    if not memo:
        monkeypatch.setattr(dec.ProductMemo, "problem", lambda self, workers:
                            dec.problem_from_workload(self.workload, self.x,
                                                      workers))
    res = sim.fl_demo(D, y, plan, steps=15, seed=20, stragglers_per_round=2)
    monkeypatch.undo()
    return res, products


def test_fl_demo_retries_reuse_the_steps_products(monkeypatch):
    res, products = _fl_demo_with_a_retry_every_step(monkeypatch, memo=True)
    assert res.rounds_retried == 15
    assert len(products) == len(set(products))   # none twice within a step
    fresh, recomputed = _fl_demo_with_a_retry_every_step(monkeypatch, memo=False)
    assert len(recomputed) == 2 * 15 * 6
    assert len(products) < len(recomputed)
    assert np.array_equal(res.betas, fresh.betas)
    assert res.straggled == fresh.straggled


def test_fl_demo_identity_converges_to_target():
    # L = 2 for the identity, so the derived step 0.5/L halves the error
    # every step
    y = rng(21).standard_normal(8)
    D = mx.DenseMatrix(np.eye(8))
    plan = cd.build_homogeneous_plan(4, 1, seed=22)
    res = sim.fl_demo(D, y, plan, steps=120, seed=22)
    assert res.stepsize == 0.25
    np.testing.assert_allclose(res.betas[-1], y, atol=1e-8)
    assert res.losses[-1] <= 1e-12


def test_fl_demo_zero_matrix_takes_no_step():
    # L = 0 gives a step of 0, not a division by zero
    g = rng(23)
    D = mx.DenseMatrix(np.zeros((10, 6)))
    plan = cd.build_homogeneous_plan(3, 1)
    res = sim.fl_demo(D, g.standard_normal(10), plan, steps=5)
    assert res.lipschitz == 0.0 and res.stepsize == 0.0
    assert np.all(res.betas == 0)


def test_fl_demo_rejects_bad_shapes():
    g = rng(25)
    plan = cd.build_homogeneous_plan(3, 1)
    with pytest.raises(ValueError):
        sim.fl_demo(mx.random_dense(10, 7, g), g.standard_normal(10), plan, 3)
    with pytest.raises(ValueError):
        sim.fl_demo(mx.random_dense(10, 6, g), g.standard_normal(9), plan, 3)


def test_lipschitz_bound_is_exact():
    # 2 * lambda_max(D^T D) to rounding, also on the 28x7 case, where 100
    # power-iteration steps fall 2.4e-4 short
    g = rng(26)
    cases = [g.standard_normal((9, 5)) for _ in range(5)]
    cases.append(mx.random_dense(28, 7, np.random.default_rng(19)).to_dense())
    for D in cases:
        want = 2.0 * float(np.linalg.eigvalsh(D.T @ D)[-1])
        assert sim.gradient_lipschitz_bound(D) == pytest.approx(want, rel=1e-12)
