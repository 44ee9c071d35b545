"""Decoding, subset rank surveys, matching certificates, straggler patterns."""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedfl import coding as cd
from codedfl import decoding as dec
from codedfl import matrices as mx
from helpers import pattern_entry, with_derived_transfers
from test_acceptance import measured_neighborhood, neighborhood_lower_bound


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
    plan = cd.build_uncoded_plan(cd.make_roster([1] * 4))
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
    specs = (cd.CodedBlockSpec((0,), (1.0,), "unit"),
             cd.CodedBlockSpec((1,), (1.0,), "unit"),
             cd.CodedBlockSpec((0, 1), (1.0, 1.0), "unit"))
    plan = cd.CodingPlan("proposed", cd.make_roster([1, 1], [1]), specs)
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


def test_decode_rejects_nan_products():
    # a NaN product leaves the pivots alone but poisons the residual
    G = np.eye(2)
    returned = (dec.ReturnedResult(0, G[0], np.array([np.nan])),
                dec.ReturnedResult(1, G[1], np.array([1.0])))
    with pytest.raises(dec.RankDeficientError, match="residual nan"):
        dec.decode(dec.DecodeProblem(returned, 2))


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
    cond = np.linalg.cond(plan.G[workers])
    want = A.matvec_t(x)
    err = np.linalg.norm(res.concatenated() - want) / np.linalg.norm(want)
    assert err <= k * np.finfo(np.float64).eps * cond


# ---------------------------------------------------------------------------
# subset surveys

def reference_survey(plan, sample=None, seed=0):
    """Per-subset matrix_rank/cond loop: failures, max cond, worst subset."""
    G = plan.G
    failures, conds = [], []
    for subset in dec.iter_subsets(plan.n_bar, plan.k_bar, sample, seed):
        sub = G[list(subset)]
        if np.linalg.matrix_rank(sub) < plan.k_bar:
            failures.append(subset)
        else:
            conds.append((float(np.linalg.cond(sub)), subset))
    worst = max(conds, key=lambda c: c[0],     # first of equal maxima
                default=(float("inf"), None))
    return (tuple(failures), worst[0], worst[1])


def assert_matches_reference(report, plan, sample=None, seed=0):
    # the bound plus the stacked SVD must reproduce ranking every subset
    # one by one, bit for bit
    assert (report.failures, report.max_cond,
            report.worst_subset) == reference_survey(plan, sample, seed)
    assert 1 <= report.subsets_ranked <= report.subsets_checked


def tampered_plan():
    """A 3+1 plan whose worker 3 duplicates worker 0's row."""
    roster = cd.make_roster([1, 1, 1], [1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    d = cd.plan_to_dict(plan)
    d["workers"][3]["support"] = list(d["workers"][0]["support"])
    d["workers"][3]["coeffs"] = list(d["workers"][0]["coeffs"])
    return cd.plan_from_dict(d)


def with_row(plan, worker, row):
    """The plan with one worker's coefficient row replaced."""
    support = tuple(int(j) for j in np.flatnonzero(row))
    specs = tuple(
        cd.CodedBlockSpec(support, tuple(float(row[j]) for j in support),
                          "tampered")
        if w == worker else s for w, s in enumerate(plan.specs))
    return cd.CodingPlan(plan.scheme, plan.roster, specs)


def test_check_all_subsets_fig1_exhaustive():
    plan = cd.build_homogeneous_plan(10, 2, seed=0)
    report = dec.check_all_subsets(plan)
    assert report.subsets_checked == 66
    assert report.failures == ()
    assert report.ok and report.exhaustive
    assert np.isfinite(report.max_cond) and report.max_cond >= 1
    assert len(report.worst_subset) == 10
    assert report.subsets_ranked < report.subsets_checked
    assert_matches_reference(report, plan)


def test_check_all_subsets_identity_plan():
    # s_bar = 0: no null space to bound with, so the one subset is ranked
    plan = cd.build_homogeneous_plan(5, 0)
    report = dec.check_all_subsets(plan)
    assert report.subsets_checked == report.subsets_ranked == 1
    assert report.ok
    assert report.worst_subset == (0, 1, 2, 3, 4)
    assert_matches_reference(report, plan)


def test_check_all_subsets_flags_duplicate_rows():
    tampered = tampered_plan()
    report = dec.check_all_subsets(tampered)
    assert not report.ok
    assert (0, 1, 2) not in report.failures
    assert any(0 in f and 3 in f for f in report.failures)
    assert_matches_reference(report, tampered)


@pytest.mark.parametrize("delta", [10.0 ** (e / 2) for e in range(-34, -15)])
@pytest.mark.parametrize("j", [0, 3])
def test_near_singular_verdicts_equal_matrix_rank(delta, j):
    # worker 7 repeats worker 0's row up to delta in column j: subsets
    # holding both have cond near 1/delta, and the sweep crosses
    # matrix_rank's threshold 1/(6 eps), about 7.5e14
    plan = cd.build_homogeneous_plan(6, 2, seed=1)
    row = plan.G[0].copy()
    row[j] += delta
    near = with_row(plan, 7, row)
    report = dec.check_all_subsets(near)
    assert_matches_reference(report, near)
    both = {s for s in itertools.combinations(range(8), 6)
            if 0 in s and 7 in s}
    assert set(report.failures) <= both
    if delta <= 1e-16:
        assert set(report.failures) == both
    if delta >= 1e-12:
        assert report.ok


def rank_deficient_plan():
    """A dense 4+2 plan whose last block column repeats the first."""
    plan = cd.build_dense_plan(cd.make_roster([1] * 4, [1, 1]), seed=2)
    G = plan.G
    for w in range(plan.n_bar):
        row = G[w].copy()
        row[-1] = row[0]
        plan = with_row(plan, w, row)
    return plan


@pytest.mark.parametrize("setup", [
    rank_deficient_plan,
    lambda: cd.build_uncoded_plan(cd.make_roster([2, 1, 1], [1])),
], ids=["rank-below-k", "uncoded"])
def test_subsets_the_bound_cannot_settle_are_all_ranked(setup):
    # a G of rank below k_bar and s_bar = 0 (uncoded; see also the identity
    # plan) take the all-subsets selection through one loop
    plan = setup()
    report = dec.check_all_subsets(plan)
    assert report.subsets_ranked == report.subsets_checked
    assert_matches_reference(report, plan)
    if setup is rank_deficient_plan:
        assert np.linalg.matrix_rank(plan.G) == 3
        assert len(report.failures) == report.subsets_checked == 15
        assert report.worst_subset is None


def test_bound_prunes_a_k28_survey():
    # a 28+2 plan of the rounds benchmark's shape: most of the 435 subsets
    # are settled by the bound, with the verdicts and max of all 435
    plan = cd.build_homogeneous_plan(28, 2, seed=3)
    report = dec.check_all_subsets(plan)
    assert report.subsets_checked == 435
    assert report.subsets_ranked < report.subsets_checked // 2
    assert_matches_reference(report, plan)


def test_check_all_subsets_guard_and_sampling():
    plan = cd.build_homogeneous_plan(30, 10, seed=1)
    with pytest.raises(dec.SubsetGuardError):
        dec.check_all_subsets(plan)
    report = dec.check_all_subsets(plan, sample=50, seed=2)
    assert report.subsets_checked == 50
    assert not report.exhaustive
    assert report.ok
    assert_matches_reference(report, plan, sample=50, seed=2)
    # a sample spanning several stacked chunks
    big = dec.check_all_subsets(plan, sample=2 * dec.RANK_CHUNK + 3, seed=4)
    assert big.subsets_checked == 2 * dec.RANK_CHUNK + 3
    assert_matches_reference(big, plan, sample=2 * dec.RANK_CHUNK + 3, seed=4)


def test_sampled_subsets_are_one_permutation_each():
    # the chunked draw keeps the sample of one rng.permutation per subset,
    # so a seed picks the same subsets as before
    rng_ = np.random.default_rng(9)
    want = [tuple(int(i) for i in np.sort(rng_.permutation(31)[:28]))
            for _ in range(dec.RANK_CHUNK + 7)]
    assert list(dec.iter_subsets(31, 28, dec.RANK_CHUNK + 7, 9)) == want


def test_sampled_survey_with_repeats_across_chunks():
    # 28 distinct subsets drawn 2 * RANK_CHUNK + 5 times: every repeat gets
    # the same bound, and the worst subset is the first draw at the max
    plan = cd.build_homogeneous_plan(6, 2, seed=5)
    sample = 2 * dec.RANK_CHUNK + 5
    report = dec.check_all_subsets(plan, sample=sample, seed=6)
    assert report.subsets_checked == sample and not report.exhaustive
    assert len(set(dec.iter_subsets(8, 6, sample, 6))) == 28
    assert_matches_reference(report, plan, sample=sample, seed=6)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["proposed", "dense", "poly", "uncoded"]),
       st.lists(st.integers(1, 3), min_size=1, max_size=5),
       st.integers(0, 10_000), st.data())
def test_check_all_subsets_matches_reference_on_rosters(scheme, active, seed,
                                                        data):
    # heterogeneous rosters of every scheme, the passives a strict
    # sub-multiset of the actives
    keep = data.draw(st.lists(st.booleans(), min_size=len(active) - 1,
                              max_size=len(active) - 1))
    roster = cd.make_roster(active, [c for c, k in zip(active, keep) if k])
    plan = cd.build_plan(scheme, roster, seed)
    if math.comb(plan.n_bar, plan.k_bar) > 2000:
        return
    report = dec.check_all_subsets(plan)
    assert report.subsets_checked == math.comb(plan.n_bar, plan.k_bar)
    assert_matches_reference(report, plan)


def test_resilience_report_roundtrips_to_dict():
    report = dec.check_all_subsets(cd.build_homogeneous_plan(6, 2, seed=3))
    d = report.to_dict()
    assert d["ok"] and d["subsets_checked"] == 28
    assert d["failures"] == []
    assert d["worst_subset"] == list(report.worst_subset)
    assert d["subsets_ranked"] == report.subsets_ranked
    assert "min_cond" not in d
    # with no full-rank subset there is no worst one
    twins = cd.CodingPlan("dense", cd.make_roster([1, 1], [1]), tuple(
        cd.CodedBlockSpec((0, 1), (1.0, 1.0), "twin") for _ in range(3)))
    d = dec.check_all_subsets(twins).to_dict()
    assert len(d["failures"]) == 3 and d["worst_subset"] is None


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
        for w, b in result.matching:
            assert b in plan.specs[w].support


def test_matching_single_worker():
    plan = cd.build_homogeneous_plan(1, 0)
    result = dec.check_hall_condition(plan, [0])
    assert result.perfect and result.matching == ((0, 0),)


def support_plan(supports, n_active, n_passive=0):
    """A plan built by hand: worker w on supports[w], unit coefficients."""
    roster = cd.make_roster([1] * n_active, [1] * n_passive)
    specs = tuple(cd.CodedBlockSpec(tuple(s), (1.0,) * len(s), "")
                  for s in supports)
    return cd.CodingPlan("proposed", roster, specs)


def test_matching_detects_hall_violation():
    # three workers crowded onto the two blocks {0, 1}
    result = dec.check_hall_condition(support_plan([[0, 1]] * 3, 3), range(3))
    assert not result.perfect and len(result.matching) == 2
    # a graph with exactly one perfect matching
    result = dec.check_hall_condition(support_plan([[0], [0, 1], [1, 2]], 3),
                                      range(3))
    assert result.perfect and result.matching == ((0, 0), (1, 1), (2, 2))
    # a worker with an empty support matches nothing
    plan = support_plan([[0], [], [1]], 2, 1)
    assert dec.check_hall_condition(plan, [0, 1]).matching == ((0, 0),)
    assert dec.check_hall_condition(plan, [0, 2]).perfect
    # a zero coefficient is still an edge: the certificate is structural
    plan = cd.CodingPlan("proposed", plan.roster, (
        plan.specs[0], cd.CodedBlockSpec((1,), (0.0,), "")))
    assert np.linalg.matrix_rank(plan.G) == 1
    assert dec.check_hall_condition(plan, [0, 1]).perfect


def test_matching_on_a_long_chain():
    # worker i on {i, i+1 mod k}: the last worker's first choice, block 0,
    # frees only along the whole chain, which a recursive augmenting path
    # could not follow past the interpreter's recursion limit
    k = 1500
    supports = [[i, (i + 1) % k] for i in range(k)] + [[0, 1]]
    plan = support_plan(supports, k, 1)
    result = dec.check_hall_condition(plan, range(k))
    assert result.perfect
    assert sorted(b for _, b in result.matching) == list(range(k))


def test_check_hall_rejects_wrong_subset_size():
    plan = cd.build_homogeneous_plan(4, 1)
    with pytest.raises(ValueError):
        dec.check_hall_condition(plan, [0, 1])


def test_matching_implies_rank_on_fig1():
    # the two certificates must agree subset-by-subset at a fixed seed
    plan = cd.build_homogeneous_plan(10, 2, seed=4)
    G = plan.G
    for subset in itertools.combinations(range(12), 10):
        perfect = dec.check_hall_condition(plan, subset).perfect
        full = np.linalg.matrix_rank(G[list(subset)]) == 10
        assert perfect == full == True
    # full rank implies an explicit perfect matching, which is what lets
    # verify skip the matching search on full-rank subsets
    hetero = cd.make_roster([2, 2, 1, 1, 1], [1, 1])
    plans = [tampered_plan(), cd.build_heterogeneous_plan(hetero, seed=1)]
    for plan in plans:
        G = plan.G
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
    assert neighborhood_lower_bound(10, 2, 3) == 4
    assert neighborhood_lower_bound(10, 2, 10) == 10
    assert neighborhood_lower_bound(10, 2, 1) == 3
    with pytest.raises(ValueError):
        neighborhood_lower_bound(10, 2, 0)
    with pytest.raises(ValueError):
        neighborhood_lower_bound(10, 2, 11)


def test_neighborhoods_meet_bound_on_fig1_subsets():
    plan = cd.build_homogeneous_plan(10, 2, seed=0)
    for subset in itertools.combinations(range(12), 10):
        measured = measured_neighborhood(plan, subset)
        assert measured >= neighborhood_lower_bound(10, 2, 10)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(3, 9), st.data())
def test_neighborhoods_meet_bound_any_sub_subset(seed, k, data):
    s = data.draw(st.integers(1, min(3, k - 1)))
    plan = cd.build_homogeneous_plan(k, s, seed=0)
    g = np.random.default_rng(seed)
    chosen = sorted(g.permutation(k + s)[:k].tolist())
    m = data.draw(st.integers(1, k))
    sub = sorted(g.permutation(np.array(chosen))[:m].tolist())
    measured = measured_neighborhood(plan, sub)
    assert measured >= neighborhood_lower_bound(k, s, m)


def test_resilience_is_tight_beyond_s():
    # dropping the s+1 rows that cover an unseen unknown kills that unknown:
    # its column vanishes from every surviving row
    plan = cd.build_homogeneous_plan(10, 2, seed=0)
    G = plan.G
    q = 6   # a block no passive worker touches
    touching = [w for w, s in enumerate(plan.specs) if q in s.support]
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
    return dec.resilience_patterns(plan)


def test_example2_pattern_report():
    report = example2_patterns()
    assert pattern_entry(report, ()).all_tolerable         # no stragglers
    assert pattern_entry(report, (0,)).all_tolerable
    assert pattern_entry(report, (1,)).all_tolerable       # one strong client
    assert pattern_entry(report, (0, 0)).all_tolerable     # any two weak
    assert not pattern_entry(report, (0, 1)).all_tolerable
    assert pattern_entry(report, (0, 1)).n_tolerable == 0
    assert not pattern_entry(report, (1, 1)).all_tolerable
    # every pattern removing more than s_bar virtual workers fails entirely
    for e in report.entries:
        if e.removed_virtual > 2:
            assert e.n_tolerable == 0
    assert set(report.maximal_tolerable) == {(0, 0), (1,)}


def test_example2_pattern_counts():
    report = example2_patterns()
    assert pattern_entry(report, (0, 0)).n_sets == 10  # five weak, pairs
    assert pattern_entry(report, (1,)).n_sets == 2
    assert pattern_entry(report, (0, 0)).removed_virtual == 2
    assert pattern_entry(report, (1,)).removed_virtual == 2


def test_example2_pattern_description_lines():
    lines = example2_patterns().describe()
    assert any(l.startswith("2x type-0: tolerable") for l in lines)
    assert any(l.startswith("1x type-1: tolerable") for l in lines)
    assert any(l.startswith("1x type-0, 1x type-1: not tolerable") for l in lines)


def test_removed_virtual_is_the_first_sets_count():
    # under uncoded the README roster's type-0 clients are three actives of
    # one worker each and two passives of none: the two tolerable sets are
    # the passives, which remove no worker, while the entry reports the
    # first set in enumeration order, active client 2, which removes one
    plan = cd.build_uncoded_plan(cd.make_roster([2, 2, 1, 1, 1], [1, 1]))
    patterns = dec.certify(plan).patterns
    e = pattern_entry(patterns, (0,))
    assert (e.n_sets, e.n_tolerable, e.removed_virtual) == (5, 2, 1)
    assert ("1x type-0: not tolerable (2/5 sets) (removes 1 virtual workers)"
            in patterns.describe())


def test_homogeneous_two_client_patterns():
    roster = cd.make_roster([1] * 10, [1] * 2)
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    report = dec.resilience_patterns(plan, max_stragglers=2)
    assert pattern_entry(report, (0, 0)).n_sets == 66
    assert pattern_entry(report, (0, 0)).all_tolerable
    # all 2^21 straggler sets of 21 clients exceed the enumeration guard
    big = cd.make_roster([1] * 19, [1] * 2)
    with pytest.raises(dec.SubsetGuardError):
        dec.resilience_patterns(cd.build_heterogeneous_plan(big, seed=0))


def twelve_client_plan():
    """2^12 straggler sets (two chunks) leaving 14, 13, 12 or fewer rows."""
    roster = cd.make_roster([2, 2] + [1] * 8, [1, 1])
    return cd.build_heterogeneous_plan(roster, seed=2)


@pytest.mark.parametrize("setup", [tampered_plan, twelve_client_plan])
def test_patterns_match_per_set_rank(setup):
    # the batched survey equals a matrix_rank call per straggler set
    plan = setup()
    roster = plan.roster
    report = dec.resilience_patterns(plan)
    G = plan.G
    owned = {c.id: [w for w in range(plan.n_bar) if roster.owner[w] == c.id]
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
        assert not pattern_entry(report, (0,)).all_tolerable


# ---------------------------------------------------------------------------
# certify: one call for every certificate

SURVEY = dec.resilience_patterns   # the reference certify's counts must equal


@pytest.fixture
def survey_calls(monkeypatch):
    """Records each pattern survey that certify runs."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return SURVEY(*args, **kwargs)

    monkeypatch.setattr(dec, "resilience_patterns", recording)
    return calls


def random_roster_case(seed):
    # multipliers 1-3, 2-6 actives, passives a strict sub-multiset of them;
    # redrawn until the subset survey stays under 2000 subsets
    g = rng(1000 + seed)
    while True:
        active = g.integers(1, 4, size=g.integers(2, 7)).tolist()
        passive = g.choice(active, size=g.integers(0, len(active)),
                           replace=False).tolist()
        if math.comb(sum(active) + sum(passive), sum(active)) <= 2000:
            break
    n_clients = len(active) + len(passive)
    return active, passive, "proposed", seed, int(g.integers(0, n_clients + 1))


CERTIFY_CASES = (
    [([1] * 28, [1] * 3, "proposed", s, m) for s in range(4) for m in (3, 4)]
    + [([2, 2, 1, 1, 1], [1, 1], "proposed", s, 7) for s in range(8)]
    + [([2, 2] + [1] * 8, [1, 1], "proposed", s, 12) for s in range(8)]
    + [([3, 2, 2, 1, 1, 1], [2, 1], "proposed", s, 5) for s in range(8)]
    + [([2, 2, 1, 1, 1], [1, 1], "proposed", 7, None)]
    + [([2, 2, 1, 1, 1], [1, 1], scheme, 7, m)
       for scheme in ("dense", "poly", "uncoded") for m in (None, 7)]
    + [random_roster_case(s) for s in range(40)])


def certify_case_id(case):
    active, passive, scheme, seed, max_stragglers = case
    roster = [".".join(f"{c}x{n}" for c, n in sorted(Counter(ms).items(),
                                                    reverse=True)) or "0"
              for ms in (active, passive)]
    return f"{scheme}-{'+'.join(roster)}-seed{seed}-m{max_stragglers}"


@pytest.mark.parametrize("active, passive, scheme, seed, max_stragglers",
                         CERTIFY_CASES, ids=map(certify_case_id, CERTIFY_CASES))
def test_certify_counts_what_the_survey_ranks(survey_calls, active, passive,
                                              scheme, seed, max_stragglers):
    roster = cd.make_roster(active, passive)
    plan = cd.build_plan(scheme, roster, seed)
    cert = dec.certify(plan, max_stragglers)
    if max_stragglers is None:
        assert cert.max_stragglers == min(roster.n_clients, plan.s_bar + 1)
    assert cert.ok and cert.subsets.exhaustive
    assert cert.patterns == SURVEY(plan, cert.max_stragglers)
    # uncoded runs fewer workers than its roster has: its passives run none
    assert bool(survey_calls) == (scheme == "uncoded")


def readme_plan():
    roster = cd.make_roster([2, 2, 1, 1, 1], [1, 1])
    return cd.build_heterogeneous_plan(roster, seed=7)


@pytest.mark.parametrize("setup, sample", [
    (readme_plan, 25), (tampered_plan, None)],
    ids=["sampled", "duplicate-row"])
def test_certify_surveys_what_it_cannot_count(survey_calls, setup, sample):
    plan = setup()
    cert = dec.certify(plan, sample=sample)
    assert len(survey_calls) == 1
    assert cert.patterns == SURVEY(plan, cert.max_stragglers)


def test_certify_matches_only_rank_failures():
    # rows 1 and 8 take row 0's support, row 1 its coefficients too: four
    # rows on three columns fail Hall's condition
    d = cd.plan_to_dict(readme_plan())
    for w in (1, 8):
        d["workers"][w]["support"] = d["workers"][0]["support"]
    d["workers"][1]["coeffs"] = d["workers"][0]["coeffs"]
    plan = cd.plan_from_dict(with_derived_transfers(d))
    cert = dec.certify(plan)
    explicit = tuple(
        s for s in itertools.combinations(range(plan.n_bar), plan.k_bar)
        if not dec.check_hall_condition(plan, s).perfect)
    assert explicit and cert.unmatched == explicit
    assert not cert.ok


def test_sample_above_the_guard_is_refused_before_any_draw(monkeypatch):
    # the survey holds a float and a flag per drawn subset, so a sample is
    # bounded like an exhaustive survey
    plan = cd.build_homogeneous_plan(6, 2, seed=3)
    with pytest.raises(dec.SubsetGuardError, match="exceeds the guard"):
        dec.check_all_subsets(plan, sample=dec.SUBSET_GUARD + 1)

    def no_draws(*args):
        raise AssertionError("drew subsets past the guard")
    monkeypatch.setattr(dec, "SUBSET_GUARD", 40)
    assert dec.check_all_subsets(plan, sample=40).subsets_checked == 40
    monkeypatch.setattr(dec, "iter_subsets", no_draws)
    with pytest.raises(dec.SubsetGuardError, match="sample of 41 subsets"):
        dec.check_all_subsets(plan, sample=41)


def test_check_all_subsets_rejects_negative_sample():
    with pytest.raises(ValueError, match="sample must be >= 1"):
        dec.check_all_subsets(cd.build_homogeneous_plan(6, 2, seed=3),
                              sample=-3)


def test_certify_rejects_an_empty_sample():
    # a sample of no subsets would certify a plan without checking it
    with pytest.raises(ValueError, match="sample must be >= 1, got 0"):
        dec.certify(readme_plan(), sample=0)


def test_certify_rejects_negative_max_stragglers():
    with pytest.raises(ValueError, match="max_stragglers must be >= 0"):
        dec.certify(readme_plan(), max_stragglers=-1)
