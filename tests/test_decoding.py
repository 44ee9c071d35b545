"""Decoding, subset rank surveys, matching certificates, straggler patterns."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedfl import coding as cd
from codedfl import decoding as dec
from codedfl import matrices as mx


def rng(seed=0):
    return np.random.default_rng(seed)


def fig1_setup(seed=0, rows=30, alpha=4):
    plan = cd.build_homogeneous_plan(10, 2, seed)
    A = mx.random_dense(rows, 10 * alpha, rng(seed + 100))
    P = mx.partition_uniform(A, 10)
    wl = cd.encode(P, plan)
    x = rng(seed + 200).standard_normal(rows)
    return plan, A, wl, x


# ---------------------------------------------------------------------------
# decode

def test_decode_identity_plan_returns_products():
    plan = cd.build_homogeneous_plan(4, 0, unit_coeffs=True)
    A = mx.random_dense(6, 8, rng(1))
    P = mx.partition_uniform(A, 4)
    wl = cd.encode(P, plan)
    x = rng(2).standard_normal(6)
    problem = dec.problem_from_workload(wl, x, range(4))
    res = dec.decode(problem)
    np.testing.assert_allclose(res.concatenated(), A.matvec_t(x), rtol=1e-12)
    assert res.residual <= dec.DECODE_TOL


def test_decode_systematic_toy_by_subtraction():
    # from A_0^T x and (A_0+A_1)^T x the missing half is the difference
    A = mx.random_dense(7, 6, rng(3))
    P = mx.partition_uniform(A, 2)
    specs = (cd.CodedBlockSpec(0, 0, (0,), (1.0,), "unit"),
             cd.CodedBlockSpec(1, 1, (1,), (1.0,), "unit"),
             cd.CodedBlockSpec(2, 2, (0, 1), (1.0, 1.0), "unit"))
    plan = cd.CodingPlan("proposed", 2, 1, specs, ())
    wl = cd.encode(P, plan)
    x = rng(4).standard_normal(7)
    problem = dec.problem_from_workload(wl, x, [0, 2])   # worker 1 straggles
    res = dec.decode(problem)
    np.testing.assert_allclose(res.block_products[1],
                               wl.coded[2].matvec_t(x) - wl.coded[0].matvec_t(x),
                               atol=1e-10)
    np.testing.assert_allclose(res.concatenated(), A.matvec_t(x), rtol=1e-10)


def test_decode_fig1_drop_two_workers():
    plan, A, wl, x = fig1_setup()
    want = A.matvec_t(x)
    workers = [w for w in range(12) if w not in (3, 7)]
    res = dec.decode(dec.problem_from_workload(wl, x, workers))
    err = np.linalg.norm(res.concatenated() - want) / np.linalg.norm(want)
    assert err <= 1e-8
    assert res.used_workers == tuple(workers)


def test_decode_uses_first_k_in_arrival_order():
    plan, A, wl, x = fig1_setup(seed=5)
    arrival = [11, 0, 9, 1, 8, 2, 7, 3, 6, 4, 5, 10]
    res = dec.decode(dec.problem_from_workload(wl, x, arrival))
    assert res.used_workers == tuple(arrival[:10])


def test_decode_rows_override():
    plan, A, wl, x = fig1_setup(seed=6)
    problem = dec.problem_from_workload(wl, x, range(12))
    res = dec.decode(problem, rows=range(2, 12))
    assert res.used_workers == tuple(range(2, 12))
    np.testing.assert_allclose(res.concatenated(), A.matvec_t(x), rtol=1e-8)


def test_decode_insufficient_rows():
    plan, A, wl, x = fig1_setup(seed=7)
    with pytest.raises(dec.NotEnoughResultsError):
        dec.decode(dec.problem_from_workload(wl, x, range(9)))
    problem = dec.problem_from_workload(wl, x, range(12))
    with pytest.raises(dec.NotEnoughResultsError):
        dec.decode(problem, rows=range(9))


def test_decode_rank_deficient_names_subset():
    # two copies of the same coefficient row cannot be solved
    row = np.array([1.0, 2.0])
    prod = np.array([3.0])
    returned = (dec.ReturnedResult(0, row, prod),
                dec.ReturnedResult(5, row.copy(), prod.copy()))
    # an exactly singular system fails by the pivot test, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dec.RankDeficientError) as exc:
            dec.decode(dec.DecodeProblem(returned, 2))
    assert exc.value.subset == (0, 5)
    assert "zero pivot in column 1" in str(exc.value)


def diagonal_problem(diag):
    G = np.diag(diag)
    Y = G @ np.array([[2.0, 1.0], [3.0, -1.0]])
    return dec.DecodeProblem(
        tuple(dec.ReturnedResult(i, G[i], Y[i]) for i in range(2)), 2)


def test_decode_pivot_tolerance_scales():
    # a tiny but honest pivot well above the relative threshold still solves
    res = dec.decode(diagonal_problem([1e-6, 1.0]))
    np.testing.assert_allclose(res.block_products,
                               [[2.0, 1.0], [3.0, -1.0]], rtol=1e-9)
    # one below PIVOT_REL_TOL times the scale counts as zero
    with pytest.raises(dec.RankDeficientError, match="column 1"):
        dec.decode(diagonal_problem([1.0, 1e-11]))


def test_problem_rejects_ragged_products():
    returned = (dec.ReturnedResult(0, np.ones(2), np.ones(3)),
                dec.ReturnedResult(1, np.ones(2), np.ones(4)))
    with pytest.raises(mx.ShapeError):
        dec.DecodeProblem(returned, 2)
    with pytest.raises(mx.ShapeError):
        dec.DecodeProblem((dec.ReturnedResult(0, np.ones(3), np.ones(2)),), 2)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.data())
def test_decode_any_subset_matches_direct_product(seed, k, data):
    s = data.draw(st.integers(1, min(3, k - 1)))
    alpha = data.draw(st.integers(1, 3))
    plan = cd.build_homogeneous_plan(k, s, seed=seed % 10_000)
    g = np.random.default_rng(seed)
    A = mx.random_dense(6, k * alpha, g)
    P = mx.partition_uniform(A, k)
    wl = cd.encode(P, plan)
    x = g.standard_normal(6)
    workers = sorted(g.permutation(k + s)[:k].tolist())
    res = dec.decode(dec.problem_from_workload(wl, x, workers))
    want = A.matvec_t(x)
    assert np.linalg.norm(res.concatenated() - want) <= 1e-8 * np.linalg.norm(want)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(0, 2**32 - 1))
def test_decode_forward_error_at_k28(plan_seed, seed):
    # every successful decode of a random 28-of-30 subset meets the
    # forward-error bound of a backward-stable solve, k_bar*eps*cond(G_S)
    k, s, alpha = 28, 2, 3
    plan = cd.build_homogeneous_plan(k, s, seed=plan_seed)
    g = np.random.default_rng(seed)
    A = mx.random_dense(20, k * alpha, g)
    wl = cd.encode(mx.partition_uniform(A, k), plan)
    x = g.standard_normal(20)
    workers = sorted(g.permutation(k + s)[:k].tolist())
    try:
        res = dec.decode(dec.problem_from_workload(wl, x, workers))
    except dec.RankDeficientError:
        return
    cond = np.linalg.cond(plan.coefficient_matrix()[workers])
    want = A.matvec_t(x)
    err = np.linalg.norm(res.concatenated() - want) / np.linalg.norm(want)
    assert err <= k * np.finfo(np.float64).eps * cond


# ---------------------------------------------------------------------------
# subset surveys

def reference_survey(plan, sample=None, seed=0):
    """Per-subset matrix_rank/cond loop: failures, min/max cond, worst subset."""
    G = plan.coefficient_matrix()
    failures, conds = [], []
    for subset in dec.iter_subsets(plan.n_bar, plan.k_bar, sample, seed):
        sub = G[list(subset)]
        if np.linalg.matrix_rank(sub) < plan.k_bar:
            failures.append(subset)
        else:
            conds.append((float(np.linalg.cond(sub)), subset))
    worst = max(conds, key=lambda c: c[0])     # first of equal maxima
    return (tuple(failures), min(c for c, _ in conds), worst[0], worst[1])


def assert_matches_reference(report, plan, sample=None, seed=0):
    # the stacked SVD must reproduce the per-subset route bit for bit
    assert (report.failures, report.min_cond, report.max_cond,
            report.worst_subset) == reference_survey(plan, sample, seed)


def tampered_plan():
    """A 3+1 plan whose worker 3 duplicates worker 0's row."""
    roster = cd.make_roster([1, 1, 1], [1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    d = cd.plan_to_dict(plan, roster)
    d["workers"][3]["support"] = list(d["workers"][0]["support"])
    d["workers"][3]["coeffs"] = list(d["workers"][0]["coeffs"])
    return cd.plan_from_dict(d)


def test_check_all_subsets_fig1_exhaustive():
    plan = cd.build_homogeneous_plan(10, 2, seed=0)
    report = dec.check_all_subsets(plan)
    assert report.subsets_checked == 66
    assert report.failures == ()
    assert report.ok and report.exhaustive
    assert np.isfinite(report.min_cond) and np.isfinite(report.max_cond)
    assert report.min_cond <= report.max_cond
    assert_matches_reference(report, plan)


def test_check_all_subsets_identity_plan():
    plan = cd.build_homogeneous_plan(5, 0)
    report = dec.check_all_subsets(plan)
    assert report.subsets_checked == 1
    assert report.ok
    assert report.worst_subset == (0, 1, 2, 3, 4)


def test_check_all_subsets_flags_duplicate_rows():
    tampered, _ = tampered_plan()
    report = dec.check_all_subsets(tampered)
    assert not report.ok
    assert (0, 1, 2) not in report.failures
    assert any(0 in f and 3 in f for f in report.failures)
    assert_matches_reference(report, tampered)


def test_check_all_subsets_guard_and_sampling():
    plan = cd.build_homogeneous_plan(30, 10, seed=1)
    with pytest.raises(dec.SubsetGuardError):
        dec.check_all_subsets(plan, guard=1000)
    report = dec.check_all_subsets(plan, guard=1000, sample=50, seed=2)
    assert report.subsets_checked == 50
    assert not report.exhaustive
    assert report.ok
    assert_matches_reference(report, plan, sample=50, seed=2)
    # a sample spanning several stacked chunks
    big = dec.check_all_subsets(plan, sample=2 * dec.RANK_CHUNK + 3, seed=4)
    assert big.subsets_checked == 2 * dec.RANK_CHUNK + 3
    assert_matches_reference(big, plan, sample=2 * dec.RANK_CHUNK + 3, seed=4)


def test_resilience_report_roundtrips_to_dict():
    report = dec.check_all_subsets(cd.build_homogeneous_plan(6, 2, seed=3))
    d = report.to_dict()
    assert d["ok"] and d["subsets_checked"] == 28
    assert d["failures"] == []
    assert d["worst_subset"] == list(report.worst_subset)
    assert dec.check_all_subsets(cd.build_homogeneous_plan(6, 2, seed=3),
                                 sample=0).to_dict()["worst_subset"] is None


# ---------------------------------------------------------------------------
# matching

def test_matching_on_all_fig1_subsets():
    plan = cd.build_homogeneous_plan(10, 2, seed=0)
    for subset in itertools.combinations(range(12), 10):
        result = dec.check_hall_condition(plan, subset)
        assert result.perfect
        workers = [w for w, _ in result.matching]
        blocks = [b for _, b in result.matching]
        assert sorted(workers) == sorted(subset)
        assert sorted(blocks) == list(range(10))
        # every matched pair is an actual support membership
        specs = {s.worker: s for s in plan.specs}
        for w, b in result.matching:
            assert b in specs[w].support


def test_matching_single_worker():
    plan = cd.build_homogeneous_plan(1, 0)
    result = dec.check_hall_condition(plan, [0])
    assert result.perfect and result.matching == ((0, 0),)


def test_matching_detects_hall_violation():
    # three left vertices crowded onto two right vertices
    match = dec.maximum_bipartite_matching([[0, 1], [0, 1], [0, 1]], 3)
    assert sum(1 for m in match if m != -1) == 2
    # and a graph where augmenting paths are needed to reach the maximum
    match = dec.maximum_bipartite_matching([[0], [0, 1], [1, 2]], 3)
    assert match == [0, 1, 2]


def test_check_hall_rejects_wrong_subset_size():
    plan = cd.build_homogeneous_plan(4, 1)
    with pytest.raises(ValueError):
        dec.check_hall_condition(plan, [0, 1])


def test_matching_implies_rank_on_fig1():
    # the two certificates must agree subset-by-subset at a fixed seed
    plan = cd.build_homogeneous_plan(10, 2, seed=4)
    G = plan.coefficient_matrix()
    for subset in itertools.combinations(range(12), 10):
        perfect = dec.check_hall_condition(plan, subset).perfect
        full = np.linalg.matrix_rank(G[list(subset)]) == 10
        assert perfect == full == True
    # full rank implies an explicit perfect matching, which is what lets
    # verify skip the matching search on full-rank subsets
    hetero = cd.make_roster([2, 2, 1, 1, 1], [1, 1])
    plans = [tampered_plan()[0], cd.build_heterogeneous_plan(hetero, seed=1)]
    for plan in plans:
        G = plan.coefficient_matrix()
        seen_failure = False
        for subset in itertools.combinations(range(plan.n_bar), plan.k_bar):
            full = np.linalg.matrix_rank(G[list(subset)]) == plan.k_bar
            seen_failure |= not full
            if full:
                assert dec.check_hall_condition(plan, subset).perfect
        assert seen_failure == (plan is plans[0])


# ---------------------------------------------------------------------------
# neighborhood bounds

def test_neighborhood_bound_values():
    assert dec.neighborhood_lower_bound(10, 2, 3) == 4
    assert dec.neighborhood_lower_bound(10, 2, 10) == 10
    assert dec.neighborhood_lower_bound(10, 2, 1) == 3
    with pytest.raises(ValueError):
        dec.neighborhood_lower_bound(10, 2, 0)
    with pytest.raises(ValueError):
        dec.neighborhood_lower_bound(10, 2, 11)


def test_neighborhoods_meet_bound_on_fig1_subsets():
    plan = cd.build_homogeneous_plan(10, 2, seed=0)
    for subset in itertools.combinations(range(12), 10):
        measured = dec.measured_neighborhood(plan, subset)
        assert measured >= dec.neighborhood_lower_bound(10, 2, 10)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(3, 9), st.data())
def test_neighborhoods_meet_bound_any_sub_subset(seed, k, data):
    s = data.draw(st.integers(1, min(3, k - 1)))
    plan = cd.build_homogeneous_plan(k, s, seed=0)
    g = np.random.default_rng(seed)
    chosen = sorted(g.permutation(k + s)[:k].tolist())
    m = data.draw(st.integers(1, k))
    sub = sorted(g.permutation(np.array(chosen))[:m].tolist())
    measured = dec.measured_neighborhood(plan, sub)
    assert measured >= dec.neighborhood_lower_bound(k, s, m)


def test_resilience_is_tight_beyond_s():
    # dropping the s+1 rows that cover an unseen unknown kills that unknown:
    # its column vanishes from every surviving row
    plan = cd.build_homogeneous_plan(10, 2, seed=0)
    G = plan.coefficient_matrix()
    q = 6   # a block no passive worker touches
    touching = [s.worker for s in plan.specs if q in s.support]
    assert len(touching) == 3
    remaining = [w for w in range(12) if w not in touching]
    assert np.all(G[remaining][:, q] == 0)
    assert np.linalg.matrix_rank(G[remaining]) < 10
    # and a decode attempt cannot even assemble k_bar rows
    A = mx.random_dense(8, 20, rng(8))
    wl = cd.encode(mx.partition_uniform(A, 10), plan)
    x = rng(9).standard_normal(8)
    with pytest.raises(dec.NotEnoughResultsError):
        dec.decode(dec.problem_from_workload(wl, x, remaining))


# ---------------------------------------------------------------------------
# straggler patterns over physical clients

def example2_patterns():
    roster = cd.make_roster([2, 2, 1, 1, 1], [1, 1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    return dec.resilience_patterns(roster, plan)


def test_example2_pattern_report():
    report = example2_patterns()
    assert report.entry(()).all_tolerable            # no stragglers
    assert report.entry((0,)).all_tolerable
    assert report.entry((1,)).all_tolerable          # one strong client
    assert report.entry((0, 0)).all_tolerable        # any two weak clients
    assert not report.entry((0, 1)).all_tolerable
    assert report.entry((0, 1)).n_tolerable == 0
    assert not report.entry((1, 1)).all_tolerable
    # every pattern removing more than s_bar virtual workers fails entirely
    for e in report.entries:
        if e.removed_virtual > 2:
            assert e.n_tolerable == 0
    assert set(report.maximal_tolerable) == {(0, 0), (1,)}


def test_example2_pattern_counts():
    report = example2_patterns()
    assert report.entry((0, 0)).n_sets == 10     # five weak clients, pairs
    assert report.entry((1,)).n_sets == 2
    assert report.entry((0, 0)).removed_virtual == 2
    assert report.entry((1,)).removed_virtual == 2


def test_example2_pattern_description_lines():
    lines = example2_patterns().describe()
    assert any(l.startswith("2x type-0: tolerable") for l in lines)
    assert any(l.startswith("1x type-1: tolerable") for l in lines)
    assert any(l.startswith("1x type-0, 1x type-1: not tolerable") for l in lines)


def test_homogeneous_two_client_patterns():
    roster = cd.make_roster([1] * 10, [1] * 2)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    report = dec.resilience_patterns(roster, plan, max_stragglers=2)
    assert report.entry((0, 0)).n_sets == 66
    assert report.entry((0, 0)).all_tolerable
    # all 2^21 straggler sets of 21 clients exceed the enumeration guard
    big = cd.make_roster([1] * 19, [1] * 2)
    with pytest.raises(dec.SubsetGuardError):
        dec.resilience_patterns(big, cd.build_heterogeneous_plan(big, seed=0))


def twelve_client_plan():
    """2^12 straggler sets (two chunks) leaving 14, 13, 12 or fewer rows."""
    roster = cd.make_roster([2, 2] + [1] * 8, [1, 1])
    return cd.build_heterogeneous_plan(roster, seed=2), roster


@pytest.mark.parametrize("setup", [tampered_plan, twelve_client_plan])
def test_patterns_match_per_set_rank(setup):
    # the batched survey equals a matrix_rank call per straggler set
    plan, roster = setup()
    report = dec.resilience_patterns(roster, plan)
    G = plan.coefficient_matrix()
    owned = {c.id: [s.worker for s in plan.specs if s.owner_client == c.id]
             for c in roster.clients}
    for e in report.entries:
        tolerable = 0
        for combo in itertools.combinations(roster.clients, len(e.types)):
            if tuple(sorted(c.type_index for c in combo)) != e.types:
                continue
            removed = {w for c in combo for w in owned[c.id]}
            rows = [w for w in range(plan.n_bar) if w not in removed]
            tolerable += (len(rows) >= plan.k_bar
                          and np.linalg.matrix_rank(G[rows]) == plan.k_bar)
        assert e.n_tolerable == tolerable
    if setup is tampered_plan:
        # dropping worker 1 or 2 leaves the duplicate pair 0, 3
        assert not report.entry((0,)).all_tolerable
