"""Roster expansion, cyclic plan construction, baselines, and encoding."""

import dataclasses
import inspect
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from codedfl import coding as cd
from codedfl import matrices as mx
from helpers import block, with_derived_transfers


def rng(seed=0):
    return np.random.default_rng(seed)


def fig1_plan(seed=0):
    return cd.build_homogeneous_plan(10, 2, seed)


def example2_roster():
    return cd.make_roster([2, 2, 1, 1, 1], [1, 1])


def one_block_roster(n_bar):
    # one generated block shared by n_bar workers; make_roster rejects this
    # shape (passives must be fewer than actives), and roster_from_dict
    # rebuilds every stored roster through it, so only code can build one
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
    roster = example2_roster()
    # the first client owns virtual workers 0 and 1, the last active owns
    # virtual worker 6, and the passives own 7 and 8
    assert roster.owner == (0, 0, 1, 1, 2, 3, 4, 5, 6)
    assert roster.k_bar == 7


def test_expand_all_ones_is_identity():
    roster = cd.make_roster([1] * 4, [1] * 2)
    assert (roster.k_bar, roster.owner) == (4, (0, 1, 2, 3, 4, 5))


def test_expand_prefix_sums():
    roster = cd.make_roster([3, 1], [1])
    assert (roster.k_bar, roster.owner) == (4, (0, 0, 0, 1, 2))


# ---------------------------------------------------------------------------
# homogeneous cyclic plans

def test_fig1_supports():
    plan = fig1_plan()
    sup = [s.support for s in plan.specs]
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
    plan = cd.build_uncoded_plan(cd.make_roster([1] * 4))
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
    for owner, s in zip(plan.roster.owner, plan.specs):
        by_owner.setdefault(owner, []).append(s.support)
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


def builder_transfers(plan):
    """The transfers the builders listed before a plan derived them: the
    loops of build_heterogeneous_plan and _full_support_transfers, kept
    verbatim as the reference."""
    roster, specs, k_bar, s_bar = plan.roster, plan.specs, plan.k_bar, plan.s_bar
    owner = roster.owner
    Transfer = cd.Transfer
    if plan.scheme in ("dense", "poly"):
        return tuple(Transfer(owner[q], c.id, "raw", q) for q in range(roster.k_bar)
                     for c in roster.clients if c.id != owner[q])
    if plan.scheme == "uncoded":
        return ()
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
    return tuple(transfers)


def roster_sweep():
    """1-4 actives of multipliers 1-3, each with every legal passive set."""
    for n in range(1, 5):
        for act in itertools.combinations_with_replacement((3, 2, 1), n):
            for pas in sorted({p for m in range(n)
                               for p in itertools.combinations(act, m)}):
                yield cd.make_roster(act, pas)


def assert_transfers_deliver(plan):
    owner, k_bar, clients = plan.roster.owner, plan.k_bar, plan.roster.clients
    raw, coded = plan.raw_transfers(), plan.coded_transfers()
    made = {c.id: {q for q in range(k_bar) if owner[q] == c.id}
            for c in clients}
    held = {c: set(blocks) for c, blocks in made.items()}
    for t in raw:
        assert t.payload in made[t.src] and t.dst != t.src
        held[t.dst].add(t.payload)
    # worker w is coded by the source of its coded block, else by its owner
    coder = list(owner[:plan.n_bar])
    for t in coded:
        assert t.dst == owner[t.payload] != t.src
        coder[t.payload] = t.src
    for w, spec in enumerate(plan.specs):
        assert set(spec.support) <= held[coder[w]]
    needed = {(coder[w], q) for w, spec in enumerate(plan.specs)
              for q in spec.support}
    assert len(set(raw)) == len(raw)
    assert all((t.dst, t.payload) in needed for t in raw)
    assert len({t.payload for t in coded}) == len(coded)


def test_derived_transfers_match_the_builders_and_deliver():
    rosters = list(roster_sweep())
    assert len(rosters) == 175
    for roster in rosters:
        for scheme in cd.SCHEMES:
            plan = cd.build_plan(scheme, roster, seed=2)
            assert plan.transfers == builder_transfers(plan), (scheme, roster)
            assert_transfers_deliver(plan)


def test_hand_built_plans_get_transfers_that_deliver():
    # a passive worker on a support its paired active worker lacks: the
    # coder fetches the extra block before it codes
    roster = cd.make_roster([1, 1, 1], [1])
    specs = (cd.CodedBlockSpec((0,), (1.0,), ""),
             cd.CodedBlockSpec((1,), (1.0,), ""),
             cd.CodedBlockSpec((2,), (1.0,), ""),
             cd.CodedBlockSpec((0, 1, 2), (1.0, 1.0, 1.0), ""))
    plan = cd.CodingPlan("proposed", roster, specs)
    assert plan.transfers == (cd.Transfer(1, 0, "raw", 1),
                              cd.Transfer(2, 0, "raw", 2),
                              cd.Transfer(0, 3, "coded", 3))
    assert_transfers_deliver(plan)


def test_small_heterogeneous_by_hand():
    # multipliers [2,1 | 1]: three virtual blocks, weight 2
    plan = cd.build_heterogeneous_plan(cd.make_roster([2, 1], [1]), seed=0)
    assert (plan.k_bar, plan.s_bar) == (3, 1)
    assert [s.support for s in plan.specs] == [(0, 1), (1, 2), (2, 0), (0, 1)]
    assert plan.roster.owner == (0, 0, 1, 2)


def test_heterogeneous_reduces_to_homogeneous():
    roster = cd.make_roster([1] * 6, [1] * 2)
    het = cd.build_heterogeneous_plan(roster, seed=9)
    hom = cd.build_homogeneous_plan(6, 2, seed=9)
    assert het == hom


def test_heterogeneous_rejects_s_bar_ge_k_bar():
    # the per-type roster rule already implies s_bar < k_bar, so only a
    # roster assembled by hand gets here: weight-4 supports on 2 blocks
    # repeat a block
    clients = (cd.Client(0, "active", 0, 1), cd.Client(1, "active", 0, 1),
               cd.Client(2, "passive", 1, 3))
    roster = cd.ClientRoster(clients, 1, 1.0)
    with pytest.raises(cd.PlanError, match="support repeats a block"):
        cd.build_heterogeneous_plan(roster, seed=0)


def test_plan_determinism():
    a = cd.build_heterogeneous_plan(example2_roster(), seed=42)
    b = cd.build_heterogeneous_plan(example2_roster(), seed=42)
    c = cd.build_heterogeneous_plan(example2_roster(), seed=43)
    assert a == b
    np.testing.assert_array_equal(a.G, b.G)
    assert a != c


def test_coefficient_matrix_support_exact():
    plan = fig1_plan(seed=7)
    G = plan.G
    assert G.shape == (12, 10)
    for w, s in enumerate(plan.specs):
        on = np.zeros(10, dtype=bool)
        on[list(s.support)] = True
        assert np.all(G[w, on] != 0)
        assert np.all(G[w, ~on] == 0)


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
    # Chebyshev-Vandermonde rows at the Chebyshev nodes of n_bar = 5
    roster = cd.make_roster([1, 1, 1], [1, 1])
    plan = cd.build_poly_plan(roster)
    nodes = np.cos((2 * np.arange(5) + 1) * np.pi / 10)
    G = plan.G
    np.testing.assert_array_equal(
        G, np.polynomial.chebyshev.chebvander(nodes, 2))
    np.testing.assert_allclose(G[:, 2], 2 * nodes ** 2 - 1, atol=1e-15)
    # any 3 of the 5 rows are independent
    for keep in itertools.combinations(range(5), 3):
        assert np.linalg.matrix_rank(G[list(keep)]) == 3


def test_plan_derives_G_once_and_encode_shares_it():
    roster = cd.make_roster([2, 1, 1], [1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    G = plan.G
    assert plan.G is G                      # one derivation, on first use
    assert not G.flags.writeable
    with pytest.raises(ValueError):
        G[0, 0] = 1.0
    A = mx.random_dense(6, 8, np.random.default_rng(0))
    assert cd.encode(mx.partition_uniform(A, plan.k_bar), plan).G is G


def test_a_workload_carries_its_plan_and_derives_the_rest():
    plan = cd.build_heterogeneous_plan(cd.make_roster([2, 1, 1], [1]), seed=0)
    A = mx.random_dense(6, 12, rng(0))
    wl = cd.encode(mx.partition_uniform(A, plan.k_bar), plan)
    assert [f.name for f in dataclasses.fields(cd.EncodedWorkload)] == [
        "plan", "coded"]
    assert wl.plan is plan and wl.G is plan.G
    assert (wl.alpha, wl.n_bar) == (3, plan.n_bar)


def test_workers_of_maps_every_client_to_its_workers():
    # owners by worker: 0, 0, 1, 2 (actives), then 3 (the passive)
    roster = cd.make_roster([2, 1, 1], [1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    assert [plan.workers_of(c.id) for c in roster.clients] == [
        (0, 1), (2,), (3,), (4,)]
    # the uncoded control gives the passive client no worker
    uncoded = cd.build_uncoded_plan(roster)
    assert [uncoded.workers_of(c.id) for c in roster.clients] == [
        (0, 1), (2,), (3,), ()]


def test_poly_single_block_rows_all_one():
    P = mx.partition_uniform(mx.random_dense(4, 3, rng(1)), 1)
    plan = cd.build_poly_plan(one_block_roster(3))
    wl = cd.encode(P, plan)
    np.testing.assert_array_equal(wl.G, [[1.0], [1.0], [1.0]])
    for blk in wl.coded:
        np.testing.assert_array_equal(blk.to_dense(), block(P, 0).to_dense())


# ---------------------------------------------------------------------------
# encoding

def test_encode_matches_manual_combination_dense():
    A = mx.random_dense(12, 20, rng(2))
    P = mx.partition_uniform(A, 10)
    plan = fig1_plan(seed=11)
    wl = cd.encode(P, plan)
    assert wl.alpha == 2 and wl.n_bar == 12
    for w, s in enumerate(plan.specs):
        # the same products summed in the same (support) order: bit-identical
        want = np.zeros((12, 2))
        for c, q in zip(s.coeffs, s.support):
            want += c * block(P, q).to_dense()
        np.testing.assert_array_equal(wl.coded[w].to_dense(), want)


def test_encode_sparse_route_matches_dense_route():
    S = mx.random_sparse(50, 20, 0.1, rng(3))
    P = mx.partition_uniform(S, 10)
    Pd = mx.partition_uniform(mx.DenseMatrix(S.to_dense()), 10)
    plan = fig1_plan(seed=4)
    ws = cd.encode(P, plan)
    wd = cd.encode(Pd, plan)
    x = rng(5).standard_normal(50)
    for s, a, b in zip(plan.specs, ws.coded, wd.coded):
        assert a.kind == "sparse"
        # the coded pattern lies within the union of the support's patterns
        union = np.zeros((50, 2), dtype=bool)
        for q in s.support:
            union |= block(P, q).to_dense() != 0
        assert np.all((a.to_dense() != 0) <= union)
        assert a.nnz() <= sum(block(P, q).nnz() for q in s.support)
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
    per_block = np.stack([block(P, q).matvec_t(x) for q in range(P.k)])
    for i in range(wl.n_bar):
        want = wl.G[i] @ per_block
        got = wl.coded[i].matvec_t(x)
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1)


def test_encode_identity_plan_returns_blocks():
    P = mx.partition_uniform(mx.random_dense(6, 8, rng(8)), 4)
    wl = cd.encode(P, cd.build_uncoded_plan(cd.make_roster([1] * 4)))
    for i in range(4):
        np.testing.assert_array_equal(wl.coded[i].to_dense(), block(P, i).to_dense())


def test_encode_handcrafted_systematic_plan():
    # two data workers plus one sum worker: classic one-straggler code
    A = mx.random_dense(5, 4, rng(9))
    P = mx.partition_uniform(A, 2)
    specs = (cd.CodedBlockSpec((0,), (1.0,), "unit"),
             cd.CodedBlockSpec((1,), (1.0,), "unit"),
             cd.CodedBlockSpec((0, 1), (1.0, 1.0), "unit"))
    plan = cd.CodingPlan("proposed", cd.make_roster([1, 1], [1]), specs)
    wl = cd.encode(P, plan)
    np.testing.assert_array_equal(wl.coded[0].to_dense(), block(P, 0).to_dense())
    np.testing.assert_array_equal(wl.coded[1].to_dense(), block(P, 1).to_dense())
    np.testing.assert_allclose(
        wl.coded[2].to_dense(),
        block(P, 0).to_dense() + block(P, 1).to_dense(), atol=1e-12)


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


def spgemm_reference(P, spec, k_bar):
    # the narrow-support route, A @ kron(g^T, I_alpha), for any support
    row = sp.csc_matrix(
        (spec.coeffs, (list(spec.support), [0] * len(spec.support))),
        shape=(k_bar, 1))
    return P.matrix.m @ sp.kron(row, sp.identity(P.alpha, format="csc"),
                                format="csc")


@pytest.mark.parametrize("density", [0.01, 0.1, 0.6])
@pytest.mark.parametrize("scheme, passives, full", [
    ("dense", 2, True), ("poly", 2, True), ("proposed", 5, True),
    ("proposed", 2, False)])
def test_encoded_blocks_equal_the_sparse_product(scheme, passives, full,
                                                 density):
    # full supports (dense, poly, proposed at s_bar = k_bar - 1) are summed
    # over the blocks' overlay, narrower ones by the product itself: both in
    # block order from 0.0, so values are bit-identical and nnz equal
    P = mx.partition_uniform(mx.random_sparse(40, 36, density, rng(30)), 6)
    plan = cd.build_plan(scheme, cd.make_roster([1] * 6, [1] * passives),
                         seed=31)
    for w, blk in cd.iter_encoded_blocks(P, plan):
        spec = plan.specs[w]
        assert (len(spec.support) == plan.k_bar) == full
        want = spgemm_reference(P, spec, plan.k_bar)
        np.testing.assert_array_equal(blk.to_dense(), want.toarray())
        assert blk.nnz() == want.nnz


def test_encoded_cancellation_is_not_stored():
    # blocks 0 and 1 are equal, so worker 0's (1, -1, 0.5) cancels them
    # exactly: only block 2's cells stay stored, as in the sparse product
    B = mx.random_sparse(30, 4, 0.3, rng(32)).to_dense()
    C = mx.random_sparse(30, 4, 0.3, rng(33)).to_dense()
    P = mx.partition_uniform(mx.SparseMatrix(np.hstack([B, B, C])), 3)
    specs = (cd.CodedBlockSpec((0, 1, 2), (1.0, -1.0, 0.5), "cancel"),
             cd.CodedBlockSpec((2, 0, 1), (0.25, 1.0, 2.0), "mix"),
             cd.CodedBlockSpec((0, 1, 2), (-1.5, 0.75, 1.0), "mix"))
    plan = cd.CodingPlan("dense", cd.make_roster([1] * 3), specs)
    coded = cd.encode(P, plan).coded
    assert coded[0].nnz() == np.count_nonzero(C) < np.count_nonzero(B + C)
    np.testing.assert_array_equal(coded[0].to_dense(), 0.5 * C)
    for spec, blk in zip(specs, coded):
        want = spgemm_reference(P, spec, 3)
        np.testing.assert_array_equal(blk.to_dense(), want.toarray())
        assert blk.nnz() == want.nnz
    # the other workers keep the union's pattern in shared index arrays,
    # which the compressed block does not touch
    assert coded[1].nnz() == coded[2].nnz() == np.count_nonzero(B + C)
    assert np.shares_memory(coded[1].m.indices, coded[2].m.indices)
    assert not np.shares_memory(coded[0].m.indices, coded[1].m.indices)


def one_column_per_block(A, k, alpha, g):
    # the overlay with one column per block and the single matvec S @ g
    # over it: the reference the chunked overlay must match bit for bit
    rows = A.shape[0]
    flat = np.repeat(np.arange(A.shape[1]) % alpha * rows, np.diff(A.indptr))
    flat += A.indices
    mark = np.zeros(alpha * rows, dtype=bool)
    mark[flat] = True
    pos = np.flatnonzero(mark)
    idx = sp.get_index_dtype(maxval=max(rows, alpha, A.nnz))
    rank = np.cumsum(mark, dtype=idx) - 1
    S = sp.csc_matrix((A.data, rank[flat], A.indptr[::alpha]),
                      shape=(pos.size, k))
    indptr = np.searchsorted(pos, np.arange(alpha + 1) * rows).astype(idx)
    indices = (pos % rows).astype(idx)
    vals = S @ g
    if not vals.all():
        keep = vals != 0
        vals, indices = vals[keep], indices[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr].astype(
            indptr.dtype)
    return sp.csc_matrix((vals, indices, indptr), shape=(rows, alpha))


def assert_same_arrays(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def cancelling_blocks(rows, alpha):
    # blocks 0 and 1 are equal, so g = (1, -1, ...) cancels every cell that
    # blocks 2 and 3 leave empty, exactly
    B, C, D = (mx.random_sparse(rows, alpha, 0.4, rng(s)).to_dense()
               for s in (34, 35, 36))
    return mx.SparseMatrix(np.hstack([B, B, C, D])).m


def unsorted(m):
    # the same matrix with every column's row indices reversed
    m = m.copy()
    for j in range(m.shape[1]):
        lo, hi = m.indptr[j], m.indptr[j + 1]
        m.indices[lo:hi] = m.indices[lo:hi][::-1].copy()
        m.data[lo:hi] = m.data[lo:hi][::-1].copy()
    m.has_sorted_indices = False
    return m


# (matrix, k, alpha, fewest chunks); the toy sizes of tests/golden.json all
# fit in one chunk
OVERLAYS = {
    # 3 chunks, boundaries inside columns of 300 cells
    "three-chunks": (lambda: mx.random_sparse(300, 2400, 0.5, rng(37)).m,
                     4, 600, 3),
    "cancel-across-chunks": (lambda: cancelling_blocks(300, 600), 4, 600, 3),
    "unsorted-indices": (
        lambda: unsorted(mx.random_sparse(300, 2400, 0.5, rng(38)).m), 4, 600,
        3),
    "below-one-chunk": (lambda: mx.random_sparse(40, 36, 0.1, rng(39)).m,
                        6, 6, 1),
    # block 0 is full, so the union is exactly one chunk of 256 x 256 cells
    "exactly-one-chunk": (lambda: sp.hstack([
        sp.csc_matrix(rng(40).standard_normal((256, 256))),
        mx.random_sparse(256, 256, 0.1, rng(41)).m]).tocsc(), 2, 256, 1),
    "all-zero": (lambda: mx.SparseMatrix(np.zeros((30, 12))).m, 4, 3, 1),
}


@pytest.mark.parametrize("name", OVERLAYS)
def test_chunked_overlay_matches_one_column_per_block(name):
    make, k, alpha, chunks = OVERLAYS[name]
    A = make()
    union = cd._overlay(A, k, alpha)
    S, indptr = union[0], union[2]
    n_union = S.shape[0]
    assert S.shape[1] == k * max(chunks, -(-n_union // cd.OVERLAY_CHUNK))
    if chunks > 1:
        assert n_union > (chunks - 1) * cd.OVERLAY_CHUNK
        # a chunk boundary falls inside a column of the union
        assert set(range(cd.OVERLAY_CHUNK, n_union, cd.OVERLAY_CHUNK)) \
            - set(indptr.tolist())
    if name == "exactly-one-chunk":
        assert n_union == cd.OVERLAY_CHUNK
    coeffs = rng(42).uniform(-1.0, 1.0, (3, k))
    coeffs[2, 1] = 0.0
    if name == "cancel-across-chunks":
        coeffs[0, :2] = (1.0, -1.0)
    for g in coeffs:
        want = one_column_per_block(A, k, alpha, g)
        assert_same_arrays(cd._combine(union, g), want)
    if name == "cancel-across-chunks":
        # the cancelled cells lie in more than one chunk, and are dropped
        vals = S @ np.tile(coeffs[0], S.shape[1] // k)
        zeros = np.flatnonzero(vals == 0)
        assert len(set(zeros // cd.OVERLAY_CHUNK)) > 1
        assert cd._combine(union, coeffs[0]).nnz == n_union - zeros.size


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_small_chunks_match_one_column_per_block(monkeypatch, chunk):
    # many chunks, down to a cell each, on a matrix a chunk of 2^16 covers
    monkeypatch.setattr(cd, "OVERLAY_CHUNK", chunk)
    A = cancelling_blocks(20, 9)
    union = cd._overlay(A, 4, 9)
    assert union[0].shape[1] == 4 * -(-union[0].shape[0] // chunk)
    for g in ((1.0, -1.0, 0.5, 0.25), (0.3, -0.7, 0.0, 1.5)):
        g = np.array(g)
        assert_same_arrays(cd._combine(union, g),
                           one_column_per_block(A, 4, 9, g))


def test_an_all_zero_matrix_encodes_to_empty_blocks():
    P = mx.partition_uniform(mx.SparseMatrix(np.zeros((30, 12))), 4)
    for scheme in ("proposed", "dense"):
        plan = cd.build_plan(scheme, cd.make_roster([1] * 4, [1]), seed=43)
        assert [blk.nnz() for blk in cd.encode(P, plan).coded] == [0] * 5


@pytest.mark.parametrize("alpha", [1, 7])
@pytest.mark.parametrize("support", [(0, 1, 2), (27, 0, 1), (26, 27, 0), (5,)])
def test_selector_equals_scipy_kron(support, alpha):
    g = np.zeros(28)
    g[list(support)] = rng(44).uniform(-1.0, 1.0, len(support))
    want = sp.kron(sp.csc_matrix(g[:, None]),
                   sp.identity(alpha, format="csc"), format="csc")
    got = cd._selector(g, alpha)
    assert got.format == "csc"
    assert_same_arrays(got, want)


def test_baseline_dense_pattern_union_and_rank():
    S = mx.random_sparse(60, 12, 0.08, rng(14))
    P = mx.partition_uniform(S, 4)
    wl = cd.encode(P, cd.build_dense_plan(cd.make_roster([1] * 4), seed=15))
    union = np.zeros((60, 3), dtype=bool)
    for q in range(P.k):
        union |= block(P, q).to_dense() != 0
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
                                   wl.G[i, 0] * block(P, 0).to_dense(), atol=1e-12)


# ---------------------------------------------------------------------------
# plan serialization

def test_plan_json_roundtrip():
    roster = example2_roster()
    plan = cd.build_heterogeneous_plan(roster, seed=21)
    blob = json.dumps(cd.plan_to_dict(plan))
    plan2 = cd.plan_from_dict(json.loads(blob))
    assert plan2 == plan
    assert plan2.roster == roster


def test_plan_roundtrip_all_schemes():
    roster = cd.make_roster([1] * 5, [1, 1])
    for scheme in ("proposed", "dense", "poly", "uncoded"):
        plan = cd.build_plan(scheme, roster, seed=3)
        plan2 = cd.plan_from_dict(cd.plan_to_dict(plan))
        assert plan2 == plan


def test_plan_from_dict_rejects_malformed():
    roster = cd.make_roster([1, 1], [1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    good = cd.plan_to_dict(plan)

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


def test_a_support_that_repeats_a_block_is_rejected():
    # G would hold the last coefficient, 2 A_0, while every encode route
    # sums both into 3 A_0: decode then returned a wrong A^T x with a zero
    # residual
    roster = cd.make_roster([1, 1, 1], [1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    d = cd.plan_to_dict(plan)
    d["workers"][0].update(support=[0, 0], coeffs=[1.0, 2.0])
    with pytest.raises(cd.PlanError, match="worker 0: support repeats a block"):
        cd.plan_from_dict(d)
    # a plan built in code is held to the same rules; -1 used to land in
    # G's last column and break the dense encode
    for support, msg in [((0, 0), "support repeats a block"),
                         ((-1, 0), "block index out of range")]:
        specs = (cd.CodedBlockSpec(support, (1.0, 2.0), ""),
                 *plan.specs[1:])
        with pytest.raises(cd.PlanError, match=f"worker 0: {msg}"):
            cd.CodingPlan("proposed", roster, specs)


# each edit of a plan built in code used to be accepted: a single
# coefficient was broadcast over worker 0's two blocks in G while the dense
# encode used block 0 alone, so decoding workers 0-2 gave a wrong A^T x with
# a residual near 1e-16; a worker past the roster's four (once a worker of
# an unknown client 9, or a dense plan of 4 workers on 2 clients) never ran
# and never straggled
@pytest.mark.parametrize("edit, msg", [
    (lambda p: {"specs": (dataclasses.replace(p.specs[0], coeffs=(0.5,)),
                          *p.specs[1:])},
     "worker 0: support/coeff length mismatch"),
    (lambda p: {"specs": (*p.specs, p.specs[3])},
     "need 1 <= k_bar <= n_bar <= 4"),
    # it used to be accepted, and certify died in an SVD that did not converge
    (lambda p: {"specs": (dataclasses.replace(p.specs[0],
                                              coeffs=(float("nan"), 1.0)),
                          *p.specs[1:])},
     r"worker 0: coefficients \(nan, 1.0\) not finite"),
], ids=["coeff-count", "owner", "nan-coeff"])
def test_a_plan_built_in_code_is_checked_like_a_stored_one(edit, msg):
    plan = cd.build_heterogeneous_plan(cd.make_roster([1, 1, 1], [1]), seed=0)
    with pytest.raises(cd.PlanError, match=msg):
        dataclasses.replace(plan, **edit(plan))


# a plan derives its transfers, so only a stored plan can list others; each
# edit used to load (a transfer of an unknown kind, a payload out of range
# or an endpoint outside the roster was rejected, any other edit was not)
@pytest.mark.parametrize("edit, stored, derived", [
    (lambda t: t.update(dst=9), "src=1, dst=9, kind='raw', payload=1",
     "src=1, dst=0, kind='raw', payload=1"),
    (lambda t: t.update(kind="coded"), "src=1, dst=0, kind='coded', payload=1",
     "src=1, dst=0, kind='raw', payload=1"),
    (lambda t: t.update(payload=2), "src=1, dst=0, kind='raw', payload=2",
     "src=1, dst=0, kind='raw', payload=1"),
], ids=["transfer-endpoint", "transfer-kind", "transfer-payload"])
def test_a_stored_plan_lists_the_transfers_it_derives(edit, stored, derived):
    plan = cd.build_heterogeneous_plan(cd.make_roster([1, 1, 1], [1]), seed=0)
    d = cd.plan_to_dict(plan)
    edit(d["transfers"][0])
    with pytest.raises(cd.PlanError) as err:
        cd.plan_from_dict(d)
    assert str(err.value) == (f"stored transfer 0, Transfer({stored}), differs "
                              f"from the derived Transfer({derived})")


def test_plan_derives_k_bar_and_s_bar_from_its_roster():
    roster = cd.make_roster([2, 2, 1, 1, 1], [1, 1])
    for scheme, s_bar in [("proposed", 2), ("dense", 2), ("poly", 2),
                          ("uncoded", 0)]:
        plan = cd.build_plan(scheme, roster, seed=1)
        assert plan.roster is roster
        assert (plan.k_bar, plan.s_bar, plan.n_bar) == (7, s_bar, 7 + s_bar)
    assert [f.name for f in dataclasses.fields(cd.CodingPlan)] == [
        "scheme", "roster", "specs"]
    # the roster fixes each worker's index and owner
    assert [f.name for f in dataclasses.fields(cd.CodedBlockSpec)] == [
        "support", "coeffs", "seed_tag"]
    assert cd.build_homogeneous_plan(4, 1).roster == cd.make_roster([1] * 4,
                                                                    [1])


def test_no_function_takes_both_a_plan_and_a_roster():
    # a plan carries its roster and a workload (so a products memo) its
    # plan, so no caller can pass one that disagrees
    from codedfl import cli, config, decoding, matrices, simulate
    for mod in (cd, decoding, simulate, cli, config, matrices):
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            params = set(inspect.signature(fn).parameters)
            for carrier in ("roster", "products", "workload"):
                assert not {"plan", carrier} <= params, (name, carrier)


def test_plan_is_indexed_by_worker():
    roster = cd.make_roster([1, 1, 1], [1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    # worker w is specs[w], run by roster.owner[w]
    assert [plan.workers_of(c.id) for c in roster.clients] == [
        (0,), (1,), (2,), (3,)]
    no_actives = cd.ClientRoster((), 1, 1.0)
    for roster, specs, msg in [
            (no_actives, (), "got k_bar=0"),
            (roster, plan.specs[:2], "got k_bar=3, s_bar=-1")]:
        with pytest.raises(cd.PlanError, match=msg):
            cd.CodingPlan("proposed", roster, specs)


def test_plan_from_dict_takes_workers_in_any_order():
    roster = cd.make_roster([2, 2, 1, 1, 1], [1, 1])
    plan = cd.build_heterogeneous_plan(roster, seed=4)
    d = cd.plan_to_dict(plan)
    d["workers"].reverse()
    plan2 = cd.plan_from_dict(d)
    assert plan2 == plan
    # a repeated worker leaves another one out
    d["workers"][0]["worker"] = 0
    with pytest.raises(cd.PlanError, match="breaks the roster's layout"):
        cd.plan_from_dict(d)


def test_plan_from_dict_accepts_tampered_coeffs():
    # duplicated coefficient rows are structurally valid; the verifier is
    # the layer that must flag them
    roster = cd.make_roster([1, 1, 1], [1])
    plan = cd.build_heterogeneous_plan(roster, seed=0)
    d = cd.plan_to_dict(plan)
    d["workers"][1]["coeffs"] = list(d["workers"][0]["coeffs"])
    d["workers"][1]["support"] = list(d["workers"][0]["support"])
    plan2 = cd.plan_from_dict(with_derived_transfers(d))
    assert plan2.specs[1].coeffs == plan2.specs[0].coeffs
