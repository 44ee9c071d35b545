"""Roster expansion, cyclic plan construction, baselines, and encoding."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedfl import coding as cd
from codedfl import matrices as mx


def rng(seed=0):
    return np.random.default_rng(seed)


def fig1_plan(seed=0):
    return cd.build_homogeneous_plan(10, 2, seed)


def example2_roster():
    return cd.make_roster([2, 2, 1, 1, 1], [1, 1])


def one_block_roster(n_bar):
    # one generated block shared by n_bar workers; make_roster rejects this
    # shape (passives must be fewer than actives), a stored roster need not
    clients = tuple(cd.Client(i, "active" if i == 0 else "passive", 0, 1)
                    for i in range(n_bar))
    return cd.ClientRoster(clients, 1, 1.0)


# ---------------------------------------------------------------------------
# rosters and heterogeneous expansion

def test_make_roster_assigns_ids_and_types():
    r = example2_roster()
    assert r.n_clients == 7
    assert [c.role for c in r.clients] == ["active"] * 5 + ["passive"] * 2
    assert [c.multiplier for c in r.clients] == [2, 2, 1, 1, 1, 1, 1]
    # weakest multiplier is type 0
    assert [c.type_index for c in r.clients] == [1, 1, 0, 0, 0, 0, 0]


def test_make_roster_sorts_multipliers_non_increasing():
    r = cd.make_roster([1, 3, 2], [1])
    assert [c.multiplier for c in r.actives()] == [3, 2, 1]


def test_make_roster_rejects_invalid():
    with pytest.raises(cd.RosterError):
        cd.make_roster([], [])
    with pytest.raises(cd.RosterError):
        cd.make_roster([1, 1], [1, 1])        # passives not fewer than actives
    with pytest.raises(cd.RosterError):
        cd.make_roster([2, 2, 1], [1, 1])     # two weak passives, one weak active
    with pytest.raises(cd.RosterError):
        cd.make_roster([1, 0], [])
    with pytest.raises(cd.RosterError):
        cd.make_roster([2, 2], [3])           # passive type with no active peer


def test_make_roster_per_type_counts():
    # passives of a type up to the active count of that type are fine
    cd.make_roster([2, 1, 1], [1])
    cd.make_roster([2, 1, 1], [1, 1])
    cd.make_roster([3, 1], [1])
    # one more weak passive than weak actives: rejected
    with pytest.raises(cd.RosterError):
        cd.make_roster([2, 2, 1], [1, 1])


def test_expand_example2():
    k_bar, s_bar, owner = cd.expand_heterogeneous(example2_roster())
    assert (k_bar, s_bar) == (7, 2)
    assert owner[0:2] == (0, 0)       # first client owns virtual workers 0,1
    assert owner[6] == 4              # last active owns virtual worker 6
    assert owner[7:] == (5, 6)        # passive virtual workers


def test_expand_all_ones_is_identity():
    k_bar, s_bar, owner = cd.expand_heterogeneous(cd.make_roster([1] * 4, [1] * 2))
    assert (k_bar, s_bar) == (4, 2)
    assert owner == (0, 1, 2, 3, 4, 5)


def test_expand_prefix_sums():
    k_bar, s_bar, owner = cd.expand_heterogeneous(cd.make_roster([3, 1], [1]))
    assert (k_bar, s_bar) == (4, 1)
    assert owner == (0, 0, 0, 1, 2)


# ---------------------------------------------------------------------------
# homogeneous cyclic plans

def test_fig1_supports():
    plan = fig1_plan()
    sup = {s.worker: s.support for s in plan.specs}
    assert sup[0] == (0, 1, 2)
    assert sup[9] == (9, 0, 1)
    assert sup[10] == (0, 1, 2)
    assert sup[11] == (1, 2, 3)


def test_supports_are_cyclic_with_weight_s_plus_1():
    plan = cd.build_homogeneous_plan(9, 3, seed=1)
    for s in plan.specs:
        assert len(s.support) == 4
        base = s.support[0]
        assert s.support == tuple((base + d) % 9 for d in range(4))
        assert all(abs(c) >= cd.COEFF_FLOOR for c in s.coeffs)


def test_passive_pairing():
    plan = fig1_plan()
    for i in range(plan.s_bar):
        active = plan.specs[i]
        passive = plan.specs[plan.k_bar + i]
        assert passive.support == active.support
        assert passive.coeffs != active.coeffs   # independent draws


def test_identity_plan_s0():
    plan = cd.build_homogeneous_plan(4, 0, unit_coeffs=True)
    assert [s.support for s in plan.specs] == [(0,), (1,), (2,), (3,)]
    assert plan.transfers == ()
    assert plan.s_bar == 0


def test_homogeneous_rejects_bad_s():
    with pytest.raises(cd.RosterError):
        cd.build_homogeneous_plan(4, 4)
    with pytest.raises(cd.RosterError):
        cd.build_homogeneous_plan(4, -1)


def test_homogeneous_transfer_structure():
    plan = cd.build_homogeneous_plan(18, 2, seed=3)
    raw = plan.raw_transfers()
    coded = plan.coded_transfers()
    assert len(raw) == 18 * 2
    assert len(coded) == 2
    assert len(plan.transfers) == 38
    # every raw block goes to exactly s distinct clients, none to itself
    for q in range(18):
        dests = [t.dst for t in raw if t.payload == q]
        assert len(dests) == 2 and len(set(dests)) == 2
        assert all(t.src == q for t in raw if t.payload == q)
        assert q not in dests
    # each active client receives at most s raw blocks
    for c in range(18):
        assert sum(1 for t in raw if t.dst == c) <= 2
    # coded blocks flow from the paired active client to the passive one
    assert [(t.src, t.dst, t.payload) for t in coded] == [(0, 18, 18), (1, 19, 19)]


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 12), st.data())
def test_homogeneous_counts_property(k, data):
    s = data.draw(st.integers(0, k - 1))
    plan = cd.build_homogeneous_plan(k, s, seed=5)
    assert plan.n_bar == k + s
    assert len(plan.raw_transfers()) == k * s
    assert len(plan.coded_transfers()) == s
    for spec in plan.specs:
        assert len(spec.support) == s + 1


# ---------------------------------------------------------------------------
# heterogeneous plans

def test_example2_supports_and_owners():
    plan = cd.build_heterogeneous_plan(example2_roster(), seed=0)
    assert (plan.k_bar, plan.s_bar) == (7, 2)
    by_owner = {}
    for s in plan.specs:
        by_owner.setdefault(s.owner_client, []).append(s.support)
    assert by_owner[0] == [(0, 1, 2), (1, 2, 3)]
    assert by_owner[2] == [(4, 5, 6)]
    assert by_owner[5] == [(0, 1, 2)]     # passive reuses worker 0's support
    assert by_owner[6] == [(1, 2, 3)]


def test_example2_transfers_collapse_and_dedupe():
    plan = cd.build_heterogeneous_plan(example2_roster(), seed=0)
    raw = plan.raw_transfers()
    # 7*2 virtual-level sends, minus 2 same-client collapses and 2 duplicates
    assert len(raw) == 10
    assert len(set((t.src, t.dst, t.payload) for t in raw)) == 10
    assert all(t.src != t.dst for t in plan.transfers)
    # both passive clients are fed by the client running workers 0 and 1
    assert [(t.src, t.dst) for t in plan.coded_transfers()] == [(0, 5), (0, 6)]


def test_small_heterogeneous_by_hand():
    # multipliers [2,1 | 1]: three virtual blocks, weight 2
    plan = cd.build_heterogeneous_plan(cd.make_roster([2, 1], [1]), seed=0)
    assert (plan.k_bar, plan.s_bar) == (3, 1)
    assert [s.support for s in plan.specs] == [(0, 1), (1, 2), (2, 0), (0, 1)]
    assert [s.owner_client for s in plan.specs] == [0, 0, 1, 2]


def test_heterogeneous_reduces_to_homogeneous():
    roster = cd.make_roster([1] * 6, [1] * 2)
    het = cd.build_heterogeneous_plan(roster, seed=9)
    hom = cd.build_homogeneous_plan(6, 2, seed=9)
    assert het == hom


def test_heterogeneous_rejects_s_bar_ge_k_bar():
    # the per-type roster rule already implies s_bar < k_bar, so this guard
    # only fires on a roster assembled by hand
    clients = (cd.Client(0, "active", 0, 1), cd.Client(1, "active", 0, 1),
               cd.Client(2, "passive", 1, 3))
    roster = cd.ClientRoster(clients, 1, 1.0)
    with pytest.raises(cd.RosterError):
        cd.build_heterogeneous_plan(roster, seed=0)


def test_plan_determinism():
    a = cd.build_heterogeneous_plan(example2_roster(), seed=42)
    b = cd.build_heterogeneous_plan(example2_roster(), seed=42)
    c = cd.build_heterogeneous_plan(example2_roster(), seed=43)
    assert a == b
    np.testing.assert_array_equal(a.coefficient_matrix(), b.coefficient_matrix())
    assert a != c


def test_coefficient_matrix_support_exact():
    plan = fig1_plan(seed=7)
    G = plan.coefficient_matrix()
    assert G.shape == (12, 10)
    for s in plan.specs:
        on = np.zeros(10, dtype=bool)
        on[list(s.support)] = True
        assert np.all(G[s.worker, on] != 0)
        assert np.all(G[s.worker, ~on] == 0)


# ---------------------------------------------------------------------------
# baselines

def test_dense_plan_full_supports_and_transfers():
    roster = cd.make_roster([1] * 18, [1] * 2)
    plan = cd.build_dense_plan(roster, seed=0)
    assert all(s.support == tuple(range(18)) for s in plan.specs)
    assert len(plan.transfers) == 18 * 19
    assert len(plan.coded_transfers()) == 0
    # every client, passive included, receives every block it didn't generate
    for c in range(20):
        got = {t.payload for t in plan.transfers if t.dst == c}
        assert got == set(range(18)) - ({c} if c < 18 else set())


def test_uncoded_plan():
    plan = cd.build_uncoded_plan(cd.make_roster([1] * 5, [1]))
    assert plan.scheme == "uncoded"
    assert plan.n_bar == 5
    assert [s.support for s in plan.specs] == [(i,) for i in range(5)]
    assert all(s.coeffs == (1.0,) for s in plan.specs)
    assert plan.transfers == ()


def test_build_plan_dispatch():
    roster = cd.make_roster([1] * 4, [1])
    assert cd.build_plan("proposed", roster).scheme == "proposed"
    assert cd.build_plan("dense", roster).scheme == "dense"
    assert cd.build_plan("poly", roster).scheme == "poly"
    assert cd.build_plan("uncoded", roster).scheme == "uncoded"
    with pytest.raises(cd.PlanError):
        cd.build_plan("mystery", roster)


def test_poly_plan_small_vandermonde():
    roster = cd.make_roster([1, 1], [1])
    plan = cd.build_poly_plan(roster, points=[0, 1, 2])
    G = plan.coefficient_matrix()
    np.testing.assert_array_equal(G, [[1, 0], [1, 1], [1, 2]])
    # any 2 of the 3 rows are independent
    for drop in range(3):
        keep = [i for i in range(3) if i != drop]
        assert np.linalg.matrix_rank(G[keep]) == 2


def test_poly_rejects_duplicate_points():
    roster = cd.make_roster([1, 1], [1])
    with pytest.raises(cd.PlanError):
        cd.build_poly_plan(roster, points=[1, 1, 2])
    with pytest.raises(cd.PlanError):
        cd.build_poly_plan(roster, points=[1, 2])


def test_poly_single_block_rows_all_one():
    P = mx.partition_uniform(mx.random_dense(4, 3, rng(1)), 1)
    plan = cd.build_poly_plan(one_block_roster(3), points=[0, 5, 7])
    wl = cd.encode(P, plan)
    np.testing.assert_array_equal(wl.G, [[1.0], [1.0], [1.0]])
    for blk in wl.coded:
        np.testing.assert_array_equal(blk.to_dense(), P.blocks[0].to_dense())


# ---------------------------------------------------------------------------
# encoding

def test_encode_matches_manual_combination_dense():
    A = mx.random_dense(12, 20, rng(2))
    P = mx.partition_uniform(A, 10)
    plan = fig1_plan(seed=11)
    wl = cd.encode(P, plan)
    assert wl.alpha == 2 and wl.n_bar == 12
    for s in plan.specs:
        want = sum(c * P.blocks[q].to_dense() for c, q in zip(s.coeffs, s.support))
        np.testing.assert_allclose(wl.coded[s.worker].to_dense(), want, atol=1e-12)


def test_encode_sparse_route_matches_dense_route():
    S = mx.random_sparse(50, 20, 0.1, rng(3))
    P = mx.partition_uniform(S, 10)
    Pd = mx.partition_uniform(mx.DenseMatrix(S.to_dense()), 10)
    plan = fig1_plan(seed=4)
    ws = cd.encode(P, plan)
    wd = cd.encode(Pd, plan)
    x = rng(5).standard_normal(50)
    for a, b in zip(ws.coded, wd.coded):
        assert a.kind == "sparse"
        np.testing.assert_allclose(a.to_dense(), b.to_dense(), atol=1e-12)
        # toarray sums duplicate coordinates, so count the stored entries too
        assert a.nnz() == np.count_nonzero(b.to_dense())
        # unsorted storage only re-associates the SpMV sums
        scale = np.abs(b.to_dense()).T @ np.abs(x)
        assert np.all(np.abs(a.matvec_t(x) - b.matvec_t(x)) <= 1e-13 * scale)


def test_encode_products_match_combined_products():
    # matvec_T of a coded block equals the combination of block products
    A = mx.random_dense(15, 12, rng(5))
    P = mx.partition_uniform(A, 6)
    plan = cd.build_homogeneous_plan(6, 3, seed=6)
    wl = cd.encode(P, plan)
    x = rng(7).standard_normal(15)
    per_block = np.stack([b.matvec_t(x) for b in P.blocks])
    for i in range(wl.n_bar):
        want = wl.G[i] @ per_block
        got = wl.coded[i].matvec_t(x)
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1)


def test_encode_identity_plan_returns_blocks():
    P = mx.partition_uniform(mx.random_dense(6, 8, rng(8)), 4)
    wl = cd.encode(P, cd.build_homogeneous_plan(4, 0, unit_coeffs=True))
    for i in range(4):
        np.testing.assert_array_equal(wl.coded[i].to_dense(), P.blocks[i].to_dense())


def test_encode_handcrafted_systematic_plan():
    # two data workers plus one sum worker: classic one-straggler code
    A = mx.random_dense(5, 4, rng(9))
    P = mx.partition_uniform(A, 2)
    specs = (cd.CodedBlockSpec(0, 0, (0,), (1.0,), "unit"),
             cd.CodedBlockSpec(1, 1, (1,), (1.0,), "unit"),
             cd.CodedBlockSpec(2, 2, (0, 1), (1.0, 1.0), "unit"))
    plan = cd.CodingPlan("proposed", 2, 1, specs, ())
    wl = cd.encode(P, plan)
    np.testing.assert_array_equal(wl.coded[0].to_dense(), P.blocks[0].to_dense())
    np.testing.assert_array_equal(wl.coded[1].to_dense(), P.blocks[1].to_dense())
    np.testing.assert_allclose(
        wl.coded[2].to_dense(),
        P.blocks[0].to_dense() + P.blocks[1].to_dense(), atol=1e-12)


def test_encode_rejects_block_count_mismatch():
    P = mx.partition_uniform(mx.random_dense(6, 8, rng(10)), 4)
    with pytest.raises(cd.PlanError):
        cd.encode(P, cd.build_homogeneous_plan(5, 1))


def test_encode_determinism_bit_identical():
    P = mx.partition_uniform(mx.random_dense(8, 10, rng(11)), 5)
    a = cd.encode(P, cd.build_homogeneous_plan(5, 2, seed=123))
    b = cd.encode(P, cd.build_homogeneous_plan(5, 2, seed=123))
    np.testing.assert_array_equal(a.G, b.G)
    for x, y in zip(a.coded, b.coded):
        np.testing.assert_array_equal(x.to_dense(), y.to_dense())


def test_iter_encoded_blocks_streams_all_workers():
    S = mx.random_sparse(40, 12, 0.2, rng(12))
    P = mx.partition_uniform(S, 6)
    plan = cd.build_dense_plan(cd.make_roster([1] * 6, [1]), seed=13)
    wl = cd.encode(P, plan)
    seen = dict(cd.iter_encoded_blocks(P, plan))
    assert sorted(seen) == list(range(7))
    for w, blk in seen.items():
        np.testing.assert_allclose(blk.to_dense(), wl.coded[w].to_dense(),
                                   atol=1e-12)


def test_baseline_dense_pattern_union_and_rank():
    S = mx.random_sparse(60, 12, 0.08, rng(14))
    P = mx.partition_uniform(S, 4)
    wl = cd.encode(P, cd.build_dense_plan(cd.make_roster([1] * 4), seed=15))
    union = np.zeros((60, 3), dtype=bool)
    for b in P.blocks:
        union |= b.to_dense() != 0
    for blk in wl.coded:
        got = blk.to_dense() != 0
        assert np.all(got <= union)
        assert got.sum() == union.sum()   # random coeffs never cancel a pattern
    # square random G decodes with probability 1
    assert np.linalg.matrix_rank(wl.G) == 4


def test_baseline_dense_single_block_is_scalar_copy():
    P = mx.partition_uniform(mx.random_dense(5, 3, rng(16)), 1)
    wl = cd.encode(P, cd.build_dense_plan(one_block_roster(2), seed=17))
    for i in range(2):
        np.testing.assert_allclose(wl.coded[i].to_dense(),
                                   wl.G[i, 0] * P.blocks[0].to_dense(), atol=1e-12)


# ---------------------------------------------------------------------------
# plan serialization

def test_plan_json_roundtrip():
    roster = example2_roster()
    plan = cd.build_heterogeneous_plan(roster, seed=21)
    blob = json.dumps(cd.plan_to_dict(plan, roster))
    plan2, roster2 = cd.plan_from_dict(json.loads(blob))
    assert plan2 == plan
    assert roster2 == roster


def test_plan_roundtrip_all_schemes():
    roster = cd.make_roster([1] * 5, [1, 1])
    for scheme in ("proposed", "dense", "poly", "uncoded"):
        plan = cd.build_plan(scheme, roster, seed=3)
        plan2, _ = cd.plan_from_dict(cd.plan_to_dict(plan, roster))
        assert plan2 == plan


def test_plan_from_dict_rejects_malformed():
    roster = cd.make_roster([1, 1], [1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    good = cd.plan_to_dict(plan, roster)

    bad = json.loads(json.dumps(good))
    bad["format"] = "something-else"
    with pytest.raises(cd.PlanError):
        cd.plan_from_dict(bad)

    bad = json.loads(json.dumps(good))
    bad["workers"][0]["support"] = [0, 99]
    with pytest.raises(cd.PlanError):
        cd.plan_from_dict(bad)

    bad = json.loads(json.dumps(good))
    del bad["workers"][0]
    with pytest.raises(cd.PlanError):
        cd.plan_from_dict(bad)

    bad = json.loads(json.dumps(good))
    bad["transfers"][0]["kind"] = "quantum"
    with pytest.raises(cd.PlanError):
        cd.plan_from_dict(bad)


def test_plan_from_dict_accepts_tampered_coeffs():
    # duplicated coefficient rows are structurally valid; the verifier is
    # the layer that must flag them
    roster = cd.make_roster([1, 1, 1], [1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    d = cd.plan_to_dict(plan, roster)
    d["workers"][1]["coeffs"] = list(d["workers"][0]["coeffs"])
    d["workers"][1]["support"] = list(d["workers"][0]["support"])
    plan2, _ = cd.plan_from_dict(d)
    assert plan2.specs[1].coeffs == plan2.specs[0].coeffs
