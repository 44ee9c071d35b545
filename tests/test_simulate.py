"""Round simulation, privacy accounting, benchmark, and the FL demo."""

from fractions import Fraction

import numpy as np
import pytest

from codedfl import coding as cd
from codedfl import decoding as dec
from codedfl import matrices as mx
from codedfl import simulate as sim


def rng(seed=0):
    return np.random.default_rng(seed)


def table1_rosters():
    return cd.make_roster([1] * 18, [1] * 2, base_width=4)


# ---------------------------------------------------------------------------
# transfer accounting and modeled delay

def test_transfer_counts_proposed_vs_dense():
    roster = table1_rosters()
    prop = cd.build_heterogeneous_plan(roster, seed=0)
    dense = cd.build_dense_plan(roster, seed=0)
    r1 = sim.simulate_round(prop, roster, sim.TimingModel(noise=0),
                            sim.CommModel(), rng(1))
    r2 = sim.simulate_round(dense, roster, sim.TimingModel(noise=0),
                            sim.CommModel(), rng(1))
    assert r1.raw_block_transfers == 36 and r1.coded_block_transfers == 2
    assert r2.raw_block_transfers == 342 and r2.coded_block_transfers == 0
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
        d1 = sim.simulate_round(prop, roster, sim.TimingModel(noise=0), comm,
                                rng(3)).comm_delay
        d2 = sim.simulate_round(dense, roster, sim.TimingModel(noise=0), comm,
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
    a = sim.simulate_round(plan, roster, sim.TimingModel(noise=0), comm, rng(4))
    b = sim.simulate_round(plan, roster, sim.TimingModel(noise=0), comm, rng(99))
    # alpha/beta = 5/2 per worker, no comm cost
    assert a.completion_time == pytest.approx(2.5)
    assert a.completion_time == b.completion_time
    assert a.decode_ok


def test_comm_delay_shifts_every_finish_time():
    roster = cd.make_roster([1] * 4, [1], base_width=2)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    comm = sim.CommModel(link_latency=1.0, per_byte_cost=0.0)
    rep = sim.simulate_round(plan, roster, sim.TimingModel(noise=0), comm, rng(5))
    # 4*1 raw + 1 coded transfers, one time unit each
    assert rep.comm_delay == pytest.approx(5.0)
    assert min(rep.compute_finish.values()) >= rep.comm_delay


def test_virtual_workers_run_sequentially():
    # one client with multiplier 3 owns three workers finishing in sequence
    roster = cd.make_roster([3, 1], [1], base_width=6)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    rep = sim.simulate_round(plan, roster, sim.TimingModel(noise=0),
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
    rep = sim.simulate_round(plan, roster, timing, sim.CommModel(), rng(7))
    assert rep.failed_clients == (0,)
    owned = {s.worker for s in plan.specs if s.owner_client == 0}
    assert owned and not owned & set(rep.compute_finish)


def test_two_stragglers_decode_three_do_not():
    roster = cd.make_roster([1] * 10, [1] * 2, base_width=3)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    ok = sim.simulate_round(plan, roster,
                            sim.TimingModel(noise=0, failed_clients=(3, 7)),
                            sim.CommModel(), rng(8))
    assert ok.decode_ok and ok.decode_error is None
    assert ok.decode_residual <= dec.DECODE_TOL
    bad = sim.simulate_round(plan, roster,
                             sim.TimingModel(noise=0, failed_clients=(3, 7, 9)),
                             sim.CommModel(), rng(9))
    assert not bad.decode_ok
    assert "insufficient" in bad.decode_error
    assert bad.completion_time == float("inf")


def test_late_clients_finish_after_on_time_ones_and_still_decode():
    # clients 0 (multiplier 2) and 5 (passive) hold three virtual workers,
    # one more than s_bar = 2, so decoding needs one late product
    roster, plan = example2()
    late = (0, 5)
    rep = sim.simulate_round(plan, roster, sim.TimingModel(noise=0),
                             sim.CommModel(), rng(15), late=late)
    owner = {s.worker: s.owner_client for s in plan.specs}
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
    rep = sim.simulate_round(plan, roster, timing, sim.CommModel(), rng(10))
    rep2 = sim.simulate_round(plan, roster, timing, sim.CommModel(), rng(10))
    assert rep.failed_clients == rep2.failed_clients   # same stream, same draw
    assert 0 < len(rep.failed_clients) < 9


def test_simulate_with_real_workload():
    roster = cd.make_roster([1] * 6, [1] * 2, base_width=3)
    plan = cd.build_heterogeneous_plan(roster, seed=1)
    A = mx.random_dense(9, 18, rng(11))
    wl = cd.encode(mx.partition_uniform(A, 6), plan)
    x = rng(12).standard_normal(9)
    rep = sim.simulate_round(plan, roster, sim.TimingModel(noise=1.0),
                             sim.CommModel(), rng(13), workload=wl, x=x)
    assert rep.decode_ok
    # bytes use the real block shape: 9 rows x 3 cols x 8 bytes x transfers
    assert rep.total_bytes_d2d == pytest.approx(9 * 3 * 8 * len(plan.transfers))


def test_timing_overrides_per_type():
    roster = cd.make_roster([2, 1], [1], base_width=4)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    timing = sim.TimingModel(noise=0, shift_by_type={0: 0.25, 1: 0.25})
    rep = sim.simulate_round(plan, roster, timing,
                             sim.CommModel(per_byte_cost=0.0), rng(14))
    assert rep.compute_finish[2] == pytest.approx(0.25)   # weak active client
    assert rep.compute_finish[1] == pytest.approx(0.5)    # second task of strong


# ---------------------------------------------------------------------------
# privacy

def example2():
    roster = cd.make_roster([2, 2, 1, 1, 1], [1, 1])
    return roster, cd.build_heterogeneous_plan(roster, seed=0)


def test_privacy_example2_exact_fractions():
    roster, plan = example2()
    exp = sim.privacy_report(plan, roster)
    want = {0: Fraction(4, 7), 1: Fraction(4, 7), 2: Fraction(3, 7),
            3: Fraction(3, 7), 4: Fraction(3, 7)}
    for cid, frac in want.items():
        assert exp.of(cid).raw_fraction == frac
    # passive clients hold no raw data at all
    assert exp.of(5).raw_fraction == 0
    assert exp.of(6).raw_fraction == 0
    assert exp.of(5).coded_support_fraction == Fraction(3, 7)
    assert exp.of(6).coded_support_fraction == Fraction(3, 7)


def test_privacy_homogeneous_fraction():
    roster = cd.make_roster([1] * 10, [1] * 2)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    exp = sim.privacy_report(plan, roster)
    for c in roster.actives():
        assert exp.of(c.id).raw_fraction == Fraction(3, 10)


def test_privacy_dense_baseline_total_exposure():
    roster, _ = example2()
    plan = cd.build_dense_plan(roster, seed=0)
    exp = sim.privacy_report(plan, roster)
    for e in exp.per_client:
        assert e.coded_support_fraction == 1
        assert e.raw_fraction == 1


def test_privacy_dominance_bound():
    # raw exposure never exceeds own share plus s_bar received blocks
    for mults, pas in (([1] * 10, [1] * 2), ([2, 2, 1, 1, 1], [1, 1]),
                       ([3, 2, 1], [1])):
        roster = cd.make_roster(mults, pas)
        plan = cd.build_heterogeneous_plan(roster, seed=2)
        exp = sim.privacy_report(plan, roster)
        for c in roster.clients:
            own = sum(cc.multiplier for cc in roster.actives() if cc.id == c.id)
            bound = Fraction(own + plan.s_bar, plan.k_bar)
            e = exp.of(c.id)
            assert e.raw_fraction <= bound
            assert e.raw_fraction <= e.coded_support_fraction
            if plan.k_bar > plan.s_bar + 1:
                assert e.raw_fraction < 1


def test_privacy_uncoded_plan_sees_only_own_blocks():
    roster = cd.make_roster([1] * 5, [1])
    exp = sim.privacy_report(cd.build_uncoded_plan(roster), roster)
    for c in roster.actives():
        assert exp.of(c.id).raw_fraction == Fraction(1, 5)


# ---------------------------------------------------------------------------
# sparse benchmark (small instance; the desk-scale run lives in acceptance)

def test_benchmark_nnz_and_ordering_small():
    g = rng(15)
    P = mx.partition_uniform(mx.random_sparse(400, 120, 0.05, g), 12)
    roster = cd.make_roster([1] * 12, [1] * 2)
    prop = cd.build_heterogeneous_plan(roster, seed=3)
    dense = cd.build_dense_plan(roster, seed=3)
    x = g.standard_normal(400)
    rows = sim.sparse_compute_benchmark(P, [prop, dense], x,
                                        zero_fraction=0.95, trials=3, warmup=1)
    by = {r.scheme: r for r in rows}
    assert by["proposed"].n_workers == 14
    assert by["dense"].mean_nnz > by["proposed"].mean_nnz
    # each proposed block's nnz is bounded by its three support blocks
    support_nnz = sorted(b.nnz() for b in P.blocks)
    assert by["proposed"].max_nnz <= 3 * support_nnz[-1]
    assert by["proposed"].mean_time > 0
    assert by["dense"].zero_fraction == 0.95


def test_benchmark_dense_pattern_is_union():
    g = rng(16)
    P = mx.partition_uniform(mx.random_sparse(200, 40, 0.05, g), 4)
    roster = cd.make_roster([1] * 4, [1])
    dense = cd.build_dense_plan(roster, seed=4)
    union = np.zeros((200, 10), dtype=bool)
    for b in P.blocks:
        union |= b.to_dense() != 0
    rows = sim.sparse_compute_benchmark(P, [dense], g.standard_normal(200),
                                        trials=1, warmup=0)
    assert rows[0].max_nnz == int(union.sum())
    assert rows[0].mean_nnz == pytest.approx(union.sum())


def test_benchmark_fully_dense_blocks_equal_nnz():
    g = rng(17)
    P = mx.partition_uniform(mx.SparseMatrix(g.standard_normal((50, 20))), 4)
    roster = cd.make_roster([1] * 4, [1])
    rows = sim.sparse_compute_benchmark(
        P, [cd.build_heterogeneous_plan(roster, seed=5),
            cd.build_dense_plan(roster, seed=5)],
        g.standard_normal(50), trials=1, warmup=0)
    assert rows[0].mean_nnz == rows[1].mean_nnz == 50 * 5


def test_benchmark_rejects_zero_trials():
    g = rng(18)
    P = mx.partition_uniform(mx.random_sparse(30, 6, 0.2, g), 3)
    with pytest.raises(sim.SimConfigError):
        sim.sparse_compute_benchmark(P, [], g.standard_normal(30), trials=0)


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
    roster = cd.make_roster(active, passive)
    res = sim.fl_demo(D, y, roster, steps=40, seed=seed, stragglers_per_round=2)
    betas, losses = sim.plain_gd(D, y, 40, res.stepsize)
    for t in range(41):
        scale = max(np.linalg.norm(betas[t]), 1.0)
        assert np.linalg.norm(res.betas[t] - betas[t]) <= 1e-6 * scale
    assert np.all(np.diff(res.losses) <= 1e-12)
    assert res.rounds_retried == 0
    assert len(res.straggled) == 40
    assert all(len(s) == 2 for s in res.straggled)


def test_fl_demo_identity_converges_to_target():
    y = rng(21).standard_normal(8)
    D = mx.DenseMatrix(np.eye(8))
    roster = cd.make_roster([1] * 4, [1])
    res = sim.fl_demo(D, y, roster, steps=120, stepsize=0.4, seed=22)
    np.testing.assert_allclose(res.betas[-1], y, atol=1e-8)
    assert res.losses[-1] <= 1e-12


def test_fl_demo_zero_stepsize_keeps_beta():
    g = rng(23)
    D = mx.random_dense(10, 6, g)
    roster = cd.make_roster([1, 1, 1], [1])
    res = sim.fl_demo(D, g.standard_normal(10), roster, steps=5, stepsize=0.0)
    assert np.all(res.betas == 0)


def test_fl_demo_stepsize_guard():
    g = rng(24)
    D = mx.random_dense(10, 6, g)
    roster = cd.make_roster([1, 1, 1], [1])
    L = sim.gradient_lipschitz_bound(D.to_dense())
    with pytest.raises(sim.StepsizeError):
        sim.fl_demo(D, g.standard_normal(10), roster, steps=3, stepsize=1.1 / L)


def test_fl_demo_rejects_bad_shapes():
    g = rng(25)
    roster = cd.make_roster([1, 1, 1], [1])
    with pytest.raises(ValueError):
        sim.fl_demo(mx.random_dense(10, 7, g), g.standard_normal(10), roster, 3)
    with pytest.raises(ValueError):
        sim.fl_demo(mx.random_dense(10, 6, g), g.standard_normal(9), roster, 3)


def test_lipschitz_bound_is_exact():
    # 2 * lambda_max(D^T D) to rounding, also on the 28x7 case, where 100
    # power-iteration steps fall 2.4e-4 short
    g = rng(26)
    cases = [g.standard_normal((9, 5)) for _ in range(5)]
    cases.append(mx.random_dense(28, 7, np.random.default_rng(19)).to_dense())
    for D in cases:
        want = 2.0 * float(np.linalg.eigvalsh(D.T @ D)[-1])
        assert sim.gradient_lipschitz_bound(D) == pytest.approx(want, rel=1e-12)
