"""Config validation and end-to-end command-line runs."""

import csv
import itertools
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from codedfl import cli, coding as cd, decoding as dec, matrices as mx
from codedfl.config import (BenchSpec, ConfigError, FlSpec, load_config,
                            parse_config)
from codedfl.simulate import TimingModel
from helpers import save_dense_csv, with_derived_transfers


def minimal_doc(**extra):
    doc = {"roster": {"active": [1, 1, 1]}}
    doc.update(extra)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

def test_defaults():
    cfg = parse_config(minimal_doc())
    assert cfg.seed == 0
    assert cfg.schemes == ("proposed",)
    assert cfg.scale == 10
    assert cfg.trials == 1
    assert cfg.out == "."
    assert cfg.matrix is None and cfg.bench is None and cfg.fl is None
    assert cfg.roster.n_clients == 3


def test_empty_sections_parse_to_the_class_defaults():
    cfg = parse_config(minimal_doc(
        matrix={"rows": 30, "cols": 21, "kind": "sparse", "zero_fraction": 0.9},
        fl={}, bench={}, timing={}))
    assert cfg.fl == FlSpec()
    assert cfg.bench == BenchSpec()
    assert cfg.timing == TimingModel()


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(minimal_doc(extra_knob=1))


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="timing"):
        parse_config(minimal_doc(timing={"nosie": 0.5}))


def test_scheme_is_an_unknown_key():
    # `schemes` is the one spelling; a one-element list selects one scheme
    with pytest.raises(ConfigError, match=r"config\.scheme: unknown key"):
        parse_config(minimal_doc(scheme="dense"))


def test_bad_scheme_name():
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(minimal_doc(schemes=["fountain"]))


def test_roster_required():
    with pytest.raises(ConfigError, match="roster"):
        parse_config({"seed": 1})


def test_roster_errors_become_config_errors():
    with pytest.raises(ConfigError, match="roster"):
        parse_config({"roster": {"active": []}})
    with pytest.raises(ConfigError, match="roster"):
        parse_config({"roster": {"active": [1], "passive": [1, 1]}})


def test_overrides_take_precedence():
    doc = minimal_doc(seed=1, schemes=["proposed", "dense"], out="a")
    cfg = parse_config(doc, {"seed": 9, "schemes": ["uncoded"], "out": None})
    assert cfg.seed == 9
    assert cfg.schemes == ("uncoded",)
    # None overrides are ignored, the config value stands
    assert cfg.out == "a"


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(minimal_doc(seed=True))


def test_value_range_errors():
    with pytest.raises(ConfigError, match="trials"):
        parse_config(minimal_doc(trials=-1))
    with pytest.raises(ConfigError, match="scale"):
        parse_config(minimal_doc(scale=0))
    with pytest.raises(ConfigError, match="zero_fraction"):
        parse_config(minimal_doc(matrix={"rows": 4, "cols": 3, "kind": "sparse",
                                         "zero_fraction": 1.0}))
    with pytest.raises(ConfigError, match="failure_prob"):
        parse_config(minimal_doc(timing={"failure_prob": 1.5}))


@pytest.mark.parametrize("key, value", [
    ("shift_by_type", {"0": 2.0}),
    ("rate_by_type", {"0": 0}),
], ids=["shift_by_type", "rate_by_type"])
def test_per_type_timing_keys_are_unknown(key, value):
    # a task's time follows from its client's multiplier alone
    with pytest.raises(ConfigError, match=rf"timing\.{key}: unknown key"):
        parse_config(minimal_doc(timing={key: value}))


def test_matrix_file_source_needs_path():
    with pytest.raises(ConfigError, match="path"):
        parse_config(minimal_doc(matrix={"source": "file"}))


@pytest.mark.parametrize("matrix, key", [
    ({"source": "file", "path": "A.csv", "kind": "sparse"}, "kind"),
    ({"source": "file", "path": "A.csv", "cols": 21}, "cols"),
    ({"source": "file", "path": "A.csv", "rows": 4}, "rows"),
    ({"source": "file", "path": "A.csv", "zero_fraction": 0.9},
     "zero_fraction"),
    ({"rows": 4, "cols": 3, "kind": "dense", "zero_fraction": 0.9},
     "zero_fraction"),
    ({"rows": 4, "cols": 3, "zero_fraction": 0.9}, "zero_fraction"),
    ({"rows": 4, "cols": 3, "path": "A.csv"}, "path"),
], ids=["file-kind", "file-cols", "file-rows", "file-zero_fraction",
        "dense-zero_fraction", "default-kind-zero_fraction", "synthetic-path"])
def test_matrix_keys_the_source_ignores_are_rejected(matrix, key):
    # a key that would be silently ignored is named instead
    with pytest.raises(ConfigError, match=rf"matrix\.{key}: not used by a"):
        parse_config(minimal_doc(matrix=matrix))


def test_fl_section_and_stepsize():
    # the step is derived as 0.5/L, so there is no step size to configure
    cfg = parse_config(minimal_doc(fl={"rows": 30, "steps": 10}))
    assert cfg.fl.rows == 30 and cfg.fl.steps == 10
    with pytest.raises(ConfigError, match=r"fl\.stepsize: unknown key"):
        parse_config(minimal_doc(fl={"stepsize": 0.001}))


def test_config_hash_tracks_content_not_key_order(tmp_path):
    a = parse_config({"seed": 4, "roster": {"active": [1, 1]}})
    b = parse_config({"roster": {"active": [1, 1]}, "seed": 4})
    c = parse_config({"seed": 5, "roster": {"active": [1, 1]}})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    # overrides change the hash the same way editing the file would
    d = parse_config({"seed": 5, "roster": {"active": [1, 1]}}, {"seed": 4})
    assert d.config_hash() == a.config_hash()


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(lst)


# ---------------------------------------------------------------------------
# command line, exercised through main()

def example_doc(out, **extra):
    doc = {
        "seed": 7,
        "schemes": ["proposed", "dense"],
        "roster": {"active": [2, 2, 1, 1, 1], "passive": [1, 1],
                   "base_width": 3},
        "matrix": {"rows": 42, "cols": 21, "kind": "dense"},
        "scale": 1,
        "trials": 2,
        "out": str(out),
    }
    doc.update(extra)
    return doc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_plan_writes_files_and_round_trips(tmp_path):
    cfg = write_config(tmp_path, example_doc(tmp_path / "out"))
    assert cli.main(["plan", "--config", cfg]) == 0
    out = tmp_path / "out"
    for scheme in ("proposed", "dense"):
        doc = json.loads((out / f"plan_{scheme}.json").read_text())
        plan = cd.plan_from_dict(doc)
        assert plan.scheme == scheme
        assert plan.k_bar == 7 and plan.roster.n_clients == 7
        text = (out / f"allocation_{scheme}.txt").read_text()
        assert "W_0 (active, type 1, c=2)" in text
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert any("plan_proposed.json" in o for o in manifest["outputs"])


def test_simulate_reads_each_plan_fact_once_per_scheme(tmp_path, monkeypatch):
    # the transfer split is a fact of the plan, not of a round
    calls = Counter()
    real = cd.CodingPlan.raw_transfers

    def counting(plan):
        calls[plan.scheme] += 1
        return real(plan)

    monkeypatch.setattr(cd.CodingPlan, "raw_transfers", counting)
    doc = example_doc(tmp_path / "out", trials=200)
    del doc["matrix"]                       # synthetic products
    assert cli.main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    assert all(n <= 1 for n in calls.values())
    rows = read_csv(tmp_path / "out" / "round.csv")
    assert len(rows) == 1 + 2 * 200


def test_verify_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path, example_doc(tmp_path / "out",
                                             schemes=["proposed"]))
    assert cli.main(["verify", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "resilience.json").read_text())
    assert doc["subsets"]["ok"] and doc["subsets"]["exhaustive"]
    assert doc["subsets"]["subsets_checked"] == 36
    assert 1 <= doc["subsets"]["subsets_ranked"] <= 36
    assert "min_cond" not in doc["subsets"]
    assert len(doc["subsets"]["worst_subset"]) == doc["subsets"]["k_bar"]
    stdout = capsys.readouterr().out
    assert (f"condition numbers: max={doc['subsets']['max_cond']:.3e} "
            f"worst subset={doc['subsets']['worst_subset']}") in stdout
    assert f"ranked {doc['subsets']['subsets_ranked']} of 36 exactly" in stdout
    assert doc["matching"]["all_perfect"]
    assert sorted(map(tuple, doc["patterns"]["maximal_tolerable"])) \
        == [(0, 0), (1,)]


@pytest.mark.parametrize("active, passive", [
    ([2, 2, 1, 1, 1], [1, 1]), ([1] * 28, [1, 1])], ids=["readme", "28+2"])
def test_verify_reruns_are_byte_identical(tmp_path, active, passive):
    # criterion 8: the bound's selection, and so subsets_ranked, is as
    # deterministic as the verdicts
    doc = {"seed": 3, "roster": {"active": active, "passive": passive}}
    cfg = write_config(tmp_path, doc)
    blobs = []
    for run in ("a", "b"):
        assert cli.main(["verify", "--config", cfg,
                         "--out", str(tmp_path / run)]) == 0
        blobs.append((tmp_path / run / "resilience.json").read_bytes())
    assert blobs[0] == blobs[1]
    subsets = json.loads(blobs[0])["subsets"]
    assert subsets["subsets_ranked"] < subsets["subsets_checked"]


def test_verify_stored_plan_and_tampered_plan(tmp_path):
    cfg = write_config(tmp_path, example_doc(tmp_path / "out",
                                             schemes=["proposed"]))
    assert cli.main(["plan", "--config", cfg]) == 0
    plan_file = tmp_path / "out" / "plan_proposed.json"
    assert cli.main(["verify", "--plan", str(plan_file),
                     "--out", str(tmp_path / "v1")]) == 0

    doc = json.loads(plan_file.read_text())
    doc["workers"][1]["support"] = doc["workers"][0]["support"]
    doc["workers"][1]["coeffs"] = doc["workers"][0]["coeffs"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(with_derived_transfers(doc)))
    assert cli.main(["verify", "--plan", str(tampered),
                     "--out", str(tmp_path / "v2")]) == 3
    rep = json.loads((tmp_path / "v2" / "resilience.json").read_text())
    assert not rep["subsets"]["ok"]
    assert rep["matching"]["all_perfect"]    # duplicate rows, distinct columns

    # four rows on the three columns {0, 1, 2}: Hall's condition fails, and
    # matchings searched on rank failures only agree with a search on all
    assert doc["workers"][7]["support"] == doc["workers"][0]["support"]
    doc["workers"][8]["support"] = doc["workers"][0]["support"]
    tampered.write_text(json.dumps(with_derived_transfers(doc)))
    assert cli.main(["verify", "--plan", str(tampered),
                     "--out", str(tmp_path / "v3")]) == 3
    rep = json.loads((tmp_path / "v3" / "resilience.json").read_text())
    plan = cd.plan_from_dict(doc)
    subsets = list(itertools.combinations(range(plan.n_bar), plan.k_bar))
    explicit = [list(s) for s in subsets
                if not dec.check_hall_condition(plan, s).perfect]
    assert explicit
    assert rep["matching"]["failures"] == explicit
    assert rep["matching"]["checked"] == len(subsets)


def test_verify_pattern_guard_is_exit_2(tmp_path, capsys):
    # 2^21 straggler sets exceed the enumeration guard
    doc = {"roster": {"active": [1] * 19, "passive": [1, 1]},
           "out": str(tmp_path / "out")}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", cfg, "--max-stragglers", "21"]) == 2
    assert "straggler sets exceed the guard" in capsys.readouterr().err


def test_verify_subset_guard_is_exit_2(tmp_path, capsys):
    # C(46, 40) = 9,366,819 subsets exceed the exhaustive guard
    doc = {"roster": {"active": [1] * 40, "passive": [1] * 6},
           "out": str(tmp_path / "out")}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "9366819 subsets exceed the exhaustive guard" in err
    assert "--sample" in err


def test_verify_sample_guard_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, example_doc(tmp_path / "out",
                                             schemes=["proposed"]))
    assert cli.main(["verify", "--config", cfg, "--sample", "1000001"]) == 2
    assert ("sample of 1000001 subsets exceeds the guard (1000000)"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "resilience.json").exists()


def test_verify_sampled_mode(tmp_path):
    cfg = write_config(tmp_path, example_doc(tmp_path / "out",
                                             schemes=["proposed"]))
    assert cli.main(["plan", "--config", cfg]) == 0
    plan_file = str(tmp_path / "out" / "plan_proposed.json")
    assert cli.main(["verify", "--plan", plan_file, "--sample", "25",
                     "--out", str(tmp_path / "vs")]) == 0
    rep = json.loads((tmp_path / "vs" / "resilience.json").read_text())
    assert not rep["subsets"]["exhaustive"]
    assert rep["subsets"]["subsets_checked"] == 25


def test_verify_stored_plan_with_config_uses_its_out_and_seed(tmp_path,
                                                               monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, example_doc(out, schemes=["proposed"]))
    assert cli.main(["plan", "--config", cfg]) == 0
    plan_file = out / "plan_proposed.json"
    plan = cd.plan_from_dict(json.loads(plan_file.read_text()))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--plan", str(plan_file), "--config", cfg,
                     "--sample", "5"]) == 0
    assert not (tmp_path / "resilience.json").exists()
    rep = json.loads((out / "resilience.json").read_text())
    # the config's seed 7 draws the sample, not the default 0
    sampled = {seed: dec.check_all_subsets(plan, sample=5, seed=seed).to_dict()
               for seed in (0, 7)}
    assert sampled[0] != sampled[7]
    assert rep["subsets"] == sampled[7]


def test_simulate_outputs_and_determinism(tmp_path):
    doc = example_doc(tmp_path / "out",
                      matrix={"rows": 42, "cols": 21, "kind": "sparse",
                              "zero_fraction": 0.5},
                      bench={"zero_fractions": [0.5, 0.8],
                             "timing_trials": 2, "warmup": 0})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 0
    out = tmp_path / "out"

    rounds = read_csv(out / "round.csv")
    assert rounds[0][0] == "scheme"
    assert len(rounds) == 1 + 2 * 2
    by_scheme = {r[0] for r in rounds[1:]}
    assert by_scheme == {"proposed", "dense"}
    proposed = next(r for r in rounds[1:] if r[0] == "proposed")
    dense = next(r for r in rounds[1:] if r[0] == "dense")
    assert int(proposed[4]) == 10 and int(proposed[5]) == 2
    assert int(dense[4]) == 42 and int(dense[5]) == 0
    assert proposed[9] == "true"

    privacy = read_csv(out / "privacy.csv")
    row = next(r for r in privacy[1:] if r[0] == "proposed" and r[1] == "0")
    assert row[5] == "4/7" and row[6] == "4/7"
    drow = next(r for r in privacy[1:] if r[0] == "dense" and r[1] == "6")
    assert drow[5] == "1" and drow[6] == "1"

    bench = read_csv(out / "benchmark.csv")
    assert len(bench) == 1 + 2 * 2
    times = read_csv(out / "benchmark_times.csv")
    assert len(times) == 1 + 2 * 2

    before = {n: (out / n).read_bytes()
              for n in ("round.csv", "privacy.csv", "benchmark.csv")}
    assert cli.main(["simulate", "--config", cfg]) == 0
    for name, blob in before.items():
        assert (out / name).read_bytes() == blob


@pytest.mark.parametrize("levels, own, encodes", [
    ([0.5, 0.8, 0.95], 0.8, 3),       # the own level, listed second
    ([0.5, 0.95], 0.8, 3),            # the own level, not listed
    ([0.8, 0.5, 0.8, 0.5], 0.8, 2),   # repeated levels
])
def test_bench_encodes_each_level_once(tmp_path, monkeypatch, levels, own,
                                       encodes):
    # the rounds' encode serves the matrix's own level, and every other
    # distinct level is encoded once, whatever its place in the list
    calls = Counter()
    inner = cd.iter_encoded_blocks

    def counted(P, plan):
        calls[plan.scheme] += 1
        return inner(P, plan)

    monkeypatch.setattr(cd, "iter_encoded_blocks", counted)
    doc = example_doc(tmp_path / "out",
                      matrix={"rows": 42, "cols": 21, "kind": "sparse",
                              "zero_fraction": own},
                      bench={"zero_fractions": levels, "timing_trials": 1,
                             "warmup": 0})
    path = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", path]) == 0
    assert calls == {"proposed": encodes, "dense": encodes}

    # rows in listed order, each holding its own level's blocks
    cfg = load_config(path)
    rows = read_csv(tmp_path / "out" / "benchmark.csv")[1:]
    assert [(r[0], float(r[1])) for r in rows] == [
        (s, z) for z in levels for s in cfg.schemes]
    for r in rows:
        P = mx.partition_uniform(cli._make_matrix(cfg, float(r[1])), 7)
        plan = cd.build_plan(r[0], cfg.roster, cfg.seed)
        nnz = [blk.nnz() for blk in cd.encode(P, plan).coded]
        assert r[6:8] == [repr(float(np.mean(nnz))), str(max(nnz))]
    # a repeated level is measured once: its rows repeat the first ones
    times = read_csv(tmp_path / "out" / "benchmark_times.csv")[1:]
    first = {}
    for r in times:
        assert first.setdefault((r[0], float(r[1])), r) == r


def test_simulate_zero_trials_header_only(tmp_path):
    cfg = write_config(tmp_path, example_doc(tmp_path / "out", trials=0))
    assert cli.main(["simulate", "--config", cfg]) == 0
    rounds = read_csv(tmp_path / "out" / "round.csv")
    assert len(rounds) == 1
    assert rounds[0][:2] == ["scheme", "trial"]


def test_simulate_require_decode_exit_code(tmp_path):
    doc = example_doc(tmp_path / "out", schemes=["proposed"], trials=1,
                      timing={"failed_clients": [0, 1, 2]})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg, "--require-decode"]) == 4
    # without the flag the failure is recorded, not fatal
    assert cli.main(["simulate", "--config", cfg]) == 0
    rounds = read_csv(tmp_path / "out" / "round.csv")
    assert rounds[1][9] == "false"
    assert "insufficient" in rounds[1][11]


def test_simulate_matrix_from_file(tmp_path):
    rng = np.random.default_rng(0)
    A = mx.random_dense(12, 6, rng)
    mpath = tmp_path / "A.csv"
    save_dense_csv(A, mpath)
    doc = example_doc(tmp_path / "out", schemes=["proposed"], trials=1,
                      roster={"active": [1, 1, 1]},
                      matrix={"source": "file", "path": str(mpath)})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 0
    rounds = read_csv(tmp_path / "out" / "round.csv")
    assert rounds[1][9] == "true"


def test_simulate_rejects_cols_not_divisible(tmp_path, capsys):
    doc = example_doc(tmp_path / "out", schemes=["proposed"],
                      matrix={"rows": 10, "cols": 20, "kind": "dense"})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "matrix.cols: 20 columns" in capsys.readouterr().err


def test_bench_requires_sparse_matrix(tmp_path, capsys):
    # rejected while the config is read, before any round runs
    doc = example_doc(tmp_path / "out",
                      bench={"zero_fractions": [0.5]})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "bench: requires a synthetic sparse matrix" in capsys.readouterr().err
    assert not (tmp_path / "out" / "round.csv").exists()


@pytest.mark.parametrize("key, extra", [
    ("config.scheme", {"scheme": "dense"}),
    ("timing.shift_by_type", {"timing": {"shift_by_type": {"0": 2.0}}}),
    ("timing.rate_by_type", {"timing": {"rate_by_type": {"0": 0}}}),
], ids=["scheme", "shift_by_type", "rate_by_type"])
@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_removed_keys_exit_2(tmp_path, capsys, command, key, extra):
    cfg = write_config(tmp_path, example_doc(tmp_path / "out", **extra))
    assert cli.main([command, "--config", cfg]) == 2
    assert f"{key}: unknown key" in capsys.readouterr().err


def test_scheme_flag_selects_one_scheme(tmp_path):
    cfg = write_config(tmp_path, example_doc(tmp_path / "out"))
    args = cli.build_parser().parse_args(
        ["plan", "--config", cfg, "--scheme", "uncoded"])
    assert cli._config_from_args(args).schemes == ("uncoded",)


def test_cli_scale_divides_rows(tmp_path):
    doc = example_doc(tmp_path / "out", schemes=["proposed"], trials=1,
                      matrix={"rows": 40, "cols": 21, "kind": "dense"})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg, "--scale", "4"]) == 0
    # bytes scale with alpha only, so check via comm bytes: 3 cols per block
    rounds = read_csv(tmp_path / "out" / "round.csv")
    n_transfers = int(rounds[1][4]) + int(rounds[1][5])
    assert float(rounds[1][6]) == pytest.approx(8.0 * 10 * 3 * n_transfers)


def test_missing_config_is_exit_2(tmp_path):
    assert cli.main(["simulate", "--config",
                     str(tmp_path / "absent.json")]) == 2
    assert cli.main(["verify"]) == 2


@pytest.mark.parametrize("scheme", ["proposed", "dense"])
def test_simulate_computes_each_product_once(tmp_path, monkeypatch, scheme):
    # 50 trials decode from 50 * k_bar products, all from n_bar coded blocks
    doc = example_doc(tmp_path / "out", schemes=[scheme], trials=50)
    cfg = write_config(tmp_path, doc)
    n_bar = cd.build_plan(scheme, load_config(cfg).roster, 7).n_bar
    blocks = []
    matvec_t = mx.DenseMatrix.matvec_t

    def counted(block, x):
        blocks.append(id(block))
        return matvec_t(block, x)

    monkeypatch.setattr(mx.DenseMatrix, "matvec_t", counted)
    assert cli.main(["simulate", "--config", cfg, "--require-decode"]) == 0
    assert 0 < len(blocks) <= n_bar
    assert len(blocks) == len(set(blocks))


def test_simulate_memo_matches_fresh_problems(tmp_path, monkeypatch):
    # round.csv is the same when every round computes its products afresh
    doc = example_doc(tmp_path / "memo", trials=30,
                      timing={"noise": 1.0, "failure_prob": 0.1})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 0
    monkeypatch.setattr(dec.ProductMemo, "problem", lambda self, workers:
                        dec.problem_from_workload(self.workload, self.x,
                                                  workers))
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "fresh")]) == 0
    memo = (tmp_path / "memo" / "round.csv").read_bytes()
    assert memo == (tmp_path / "fresh" / "round.csv").read_bytes()
    decoded = [r[9] for r in read_csv(tmp_path / "memo" / "round.csv")[1:]]
    assert "true" in decoded and "false" in decoded


def test_fl_demo_writes_trajectory(tmp_path):
    doc = {
        "seed": 3,
        "schemes": ["proposed"],
        "roster": {"active": [1] * 7, "passive": [1, 1]},
        "fl": {"rows": 28, "cols": 7, "steps": 20, "stragglers_per_round": 2},
        "out": str(tmp_path / "fl"),
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["fl-demo", "--config", cfg, "--check"]) == 0
    rows = read_csv(tmp_path / "fl" / "trajectory.csv")
    assert rows[0][:2] == ["step", "loss"]
    assert len(rows) == 1 + 21
    assert len(rows[1]) == 2 + 7
    losses = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# floats whose repr is least like an ordinary cell's
EDGE_FLOATS = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22,
                        0.1, -1e-300, 2 ** 53 + 1], dtype=np.float64)
_WIDE = np.random.default_rng(11)


@pytest.mark.parametrize("losses, betas", [
    # every edge value in every column
    (EDGE_FLOATS, np.vstack([np.roll(EDGE_FLOATS, i)
                             for i in range(len(EDGE_FLOATS))])),
    (EDGE_FLOATS[:1], EDGE_FLOATS[None, 1:]),      # a 0-step run: one row
    (EDGE_FLOATS, EDGE_FLOATS[:, None]),           # one column
    (_WIDE.standard_normal(31), _WIDE.standard_normal((31, 14))
     * 10.0 ** _WIDE.uniform(-300, 300, (31, 14))),
], ids=["edge-values", "zero-steps", "one-column", "wide-exponents"])
def test_trajectory_bytes_match_cell_by_cell_csv(tmp_path, losses, betas):
    header = ["step", "loss"] + [f"beta_{j}" for j in range(betas.shape[1])]
    cli._write_trajectory(tmp_path / "lines.csv", header, losses, betas)
    # the reference route: rows of numpy float64 scalars, each cell through
    # _fmt and csv.writer
    rows = [[t, losses[t]] + list(betas[t]) for t in range(len(losses))]
    cli._write_csv(tmp_path / "cells.csv", header, rows)
    assert ((tmp_path / "lines.csv").read_bytes()
            == (tmp_path / "cells.csv").read_bytes())


@pytest.mark.parametrize("doc, msg", [
    # the README roster (k_bar 7) with 20 columns
    ({"roster": {"active": [2, 2, 1, 1, 1], "passive": [1, 1]},
      "fl": {"rows": 60, "cols": 20}},
     "fl.cols: 20 columns do not split into 7 blocks"),
    # no fl section: fl-demo has nothing to run
    ({"roster": {"active": [1, 1, 1, 1]}}, "fl: section required"),
], ids=["fl-section", "default"])
def test_fl_demo_cols_not_divisible_is_config_error(tmp_path, capsys, doc, msg):
    doc = dict(doc, out=str(tmp_path / "fl"))
    assert cli.main(["fl-demo", "--config", write_config(tmp_path, doc)]) == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "fl").exists()


def test_fl_demo_bad_stepsize_is_config_error(tmp_path):
    doc = {
        "seed": 3,
        "roster": {"active": [1, 1, 1]},
        "fl": {"rows": 12, "cols": 3, "steps": 5, "stepsize": 10.0,
               "stragglers_per_round": 0},
        "out": str(tmp_path / "fl"),
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["fl-demo", "--config", cfg]) == 2


def test_poly_decodes_at_k28(tmp_path):
    # the polynomial baseline at the paper's k_bar: every 28 of 30 rows
    # decode, and the worst subset stays well conditioned
    out = tmp_path / "out"
    doc = {"seed": 4, "schemes": ["poly"],
           "roster": {"active": [1] * 28, "passive": [1, 1]},
           "trials": 5, "fl": {"rows": 40, "cols": 28, "steps": 20},
           "out": str(out)}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", cfg, "--max-stragglers", "1"]) == 0
    rep = json.loads((out / "resilience.json").read_text())["subsets"]
    assert rep["subsets_checked"] == 435 and rep["failures"] == []
    assert rep["max_cond"] <= 1e5
    assert cli.main(["simulate", "--config", cfg, "--require-decode"]) == 0
    assert cli.main(["fl-demo", "--config", cfg, "--check"]) == 0


@pytest.mark.parametrize("doc, msg", [
    (minimal_doc(fl={"rows": 12, "cols": 3, "stragglers_per_round": 4}),
     "fl.stragglers_per_round: must be <= 3, got 4"),
    # no fl section: fl-demo has nothing to run
    ({"roster": {"active": [3]}}, "fl: section required"),
], ids=["fl-section", "default"])
def test_stragglers_beyond_roster_is_config_error(tmp_path, capsys, doc, msg):
    doc = dict(doc, out=str(tmp_path / "fl"))
    assert cli.main(["fl-demo", "--config", write_config(tmp_path, doc)]) == 2
    assert msg in capsys.readouterr().err


def _no_draw(*args, **kwargs):
    raise AssertionError("a rejected config drew a matrix")


@pytest.mark.parametrize("doc, msg", [
    # 31501 columns on k_bar 4: rejected before 6 million cells are drawn
    ({"roster": {"active": [1, 1, 1, 1]},
      "matrix": {"rows": 4000, "cols": 31501, "kind": "sparse",
                 "zero_fraction": 0.95}},
     "matrix.cols: 31501 columns do not split into 4 blocks"),
    ({"roster": {"active": [2, 2, 1, 1, 1], "passive": [1, 1]},
      "fl": {"cols": 20}},
     "fl.cols: 20 columns do not split into 7 blocks"),
    ({"roster": {"active": [1, 1, 1]}, "fl": {"stragglers_per_round": 4}},
     "fl.stragglers_per_round: must be <= 3, got 4"),
    ({"roster": {"active": [1, 1, 1]}, "fl": {"stepsize": 0.01}},
     "fl.stepsize: unknown key"),
], ids=["matrix-cols", "fl-cols", "stragglers", "stepsize"])
@pytest.mark.parametrize("command", ["plan", "simulate", "fl-demo"])
def test_bad_config_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                            command, doc, msg):
    monkeypatch.setattr(mx, "random_sparse", _no_draw)
    monkeypatch.setattr(mx, "random_dense", _no_draw)
    cfg = write_config(tmp_path, dict(doc, out=str(tmp_path / "out")))
    assert cli.main([command, "--config", cfg]) == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# json reads Infinity; it used to pass these keys, so simulate ran rounds of
# infinite completion time and plan wrote "base_speed": Infinity, not JSON.
# It reads 401 digits as an int no float holds, which used to crash config
# parsing with an uncaught OverflowError (exit 1).
@pytest.mark.parametrize("command, section, key, value", [
    ("simulate", "timing", "noise", math.inf),
    ("plan", "roster", "base_speed", math.inf),
    *[("simulate", "comm", key, math.inf) for key in (
        "link_latency", "per_byte_cost", "bytes_per_element", "broadcast_cost")],
    ("simulate", "timing", "noise", 10 ** 400),
], ids=["noise", "base_speed", "link_latency", "per_byte_cost",
        "bytes_per_element", "broadcast_cost", "noise-past-float-range"])
def test_an_infinite_number_is_exit_2(tmp_path, capsys, command, section, key,
                                      value):
    doc = example_doc(tmp_path / "out", schemes=["proposed"])
    doc.setdefault(section, {})[key] = value
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert (f"{section}.{key}: expected a finite number, got {value!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_file_matrix_cols_not_divisible_is_exit_2(tmp_path, capsys):
    # a file's width is known only once it is read; the partition rejects it
    mpath = tmp_path / "A.csv"
    save_dense_csv(mx.random_dense(12, 6, np.random.default_rng(0)), mpath)
    doc = example_doc(tmp_path / "out", schemes=["proposed"],
                      matrix={"source": "file", "path": str(mpath)})
    assert cli.main(["simulate", "--config", write_config(tmp_path, doc)]) == 2
    assert "6 columns cannot be split into 7" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


# each edit returns the stored plan as it is written back; list.reverse
# and dict.update return None, so `or d` hands back the edited plan
@pytest.mark.parametrize("edit, msg", [
    (_without("scheme"), "malformed plan: 'scheme'"),
    (_without("roster"), "malformed plan: no roster"),
    (lambda d: [d], "top level must be an object"),
    (lambda d: d["roster"]["clients"][1].update(multiplier=0, type_index=5)
     or d, "multipliers must be positive"),
    (lambda d: d["roster"]["clients"].reverse() or d,
     "stored clients differ"),
    # seven blocks, workers 0-5: it used to print "subsets: 0/0 full rank"
    # and exit 0
    (lambda d: d.update(s_bar=-1, workers=d["workers"][:6], transfers=[
        t for t in d["transfers"] if t["kind"] == "raw"]) or d, "s_bar=-1"),
    # no blocks at all: it used to die with an IndexError
    (lambda d: d.update(k_bar=0, s_bar=0, workers=[], transfers=[]) or d,
     "k_bar=0"),
    # it used to load, and resilience.json reported the scheme as given
    (lambda d: d.update(scheme="quantum") or d, "unknown scheme 'quantum'"),
    # it used to load, and its rounds decoded a wrong A^T x
    (lambda d: d["workers"][0].update(support=[0, 0], coeffs=[1.0, 2.0])
     or d, "support repeats a block"),
    # k_bar and s_bar are derived from the roster and the workers
    (lambda d: d.update(k_bar=6, s_bar=3) or d, "stored k_bar=6, s_bar=3"),
    (lambda d: d["workers"][0].update(coeffs=[1.0]) or d,
     "worker 0: support/coeff length mismatch"),
    (lambda d: d["workers"][3].update(owner=9) or d,
     "stored worker 3 of client 9 breaks the roster's layout"),
    # it used to load: client 2, of multiplier 1, ran two workers without
    # receiving worker 0's blocks 0-2, privacy_report put client 0 at raw
    # 3/7 though it generates block 0, and verify exited 0
    (lambda d: d["workers"][0].update(owner=2) or d,
     "stored worker 0 of client 2 breaks the roster's layout, where worker "
     "0 is client 0's"),
    # make_roster only tested base_speed <= 0, so both used to pass verify
    (lambda d: d["roster"].update(base_speed=math.inf) or d,
     "base_speed must be finite and > 0, got inf"),
    (lambda d: d["roster"].update(base_speed=math.nan) or d,
     "base_speed must be finite and > 0, got nan"),
    # a plan derives its 12 transfers from its workers; a stored list that
    # differs used to load, and its privacy and D2D bytes were read off it
    (lambda d: d["transfers"][0].update(dst=9) or d,
     "stored transfer 0, Transfer(src=1, dst=9, kind='raw', payload=2), "
     "differs from the derived Transfer(src=1, dst=0, kind='raw', payload=2)"),
    (lambda d: d.update(transfers=[]) or d,
     "0 stored transfers; the plan derives 12"),
    (lambda d: d["transfers"].pop(4) and d,
     "stored transfer 4, Transfer(src=4, dst=2, kind='raw', payload=6), "
     "differs from the derived Transfer(src=3, dst=2, kind='raw', payload=5)"),
    (lambda d: d["transfers"].append(dict(d["transfers"][0], dst=4)) or d,
     "13 stored transfers; the plan derives 12"),
    (lambda d: d["transfers"][11].update(dst=5) or d,
     "stored transfer 11, Transfer(src=0, dst=5, kind='coded', payload=8), "
     "differs from the derived Transfer(src=0, dst=6, kind='coded', payload=8)"),
    # it used to die in an SVD that did not converge, with exit 1
    (lambda d: d["workers"][0]["coeffs"].__setitem__(0, math.nan) or d,
     "worker 0: coefficients (nan, "),
    # each used to be coerced by int() or float(), and the plan certified
    (lambda d: d["workers"][0].update(support=[0.9, 1.2, 2.5]) or d,
     "expected int, got 0.9"),
    (lambda d: d["workers"][1].update(worker="1") or d,
     "expected int, got '1'"),
    (lambda d: d["roster"]["clients"][2].update(multiplier=1.9) or d,
     "expected int, got 1.9"),
    (lambda d: d["workers"][0]["coeffs"].__setitem__(0, "0.25") or d,
     "expected float, got '0.25'"),
    (lambda d: d["transfers"][0].update(payload=True) or d,
     "expected int, got True"),
], ids=["no-scheme", "no-roster", "array", "zero-multiplier",
        "reordered-clients", "negative-s_bar", "zero-k_bar", "unknown-scheme",
        "repeated-block", "stored-k_bar", "coeff-count", "owner",
        "moved-owner", "infinite-speed", "nan-speed", "transfer-endpoint",
        "no-transfers", "dropped-transfer", "added-transfer",
        "redirected-transfer",
        "nan-coeff", "float-support", "string-worker", "float-multiplier",
        "string-coeff", "bool-payload"])
def test_verify_malformed_plan_is_exit_2(tmp_path, capsys, edit, msg):
    # exit 1 is a diverging descent; a bad plan file is a config error
    cfg = write_config(tmp_path, example_doc(tmp_path / "out",
                                             schemes=["proposed"]))
    assert cli.main(["plan", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "plan_proposed.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(doc)))
    capsys.readouterr()
    assert cli.main(["verify", "--plan", str(bad),
                     "--out", str(tmp_path / "v")]) == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command", ["plan", "verify", "simulate", "fl-demo"])
def test_an_out_that_is_a_file_is_exit_2(tmp_path, capsys, command):
    # it used to die with an uncaught FileExistsError, exit 1
    out = tmp_path / "taken"
    out.write_text("not a directory")
    cfg = write_config(tmp_path, example_doc(out, fl={"rows": 14, "steps": 2}))
    capsys.readouterr()
    assert cli.main([command, "--config", cfg]) == 2
    assert "out: " in capsys.readouterr().err
    assert out.read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]


def test_verify_stored_plan_with_workers_reversed(tmp_path):
    roster = cd.make_roster([1] * 6, [1] * 2)
    doc = cd.plan_to_dict(cd.build_heterogeneous_plan(roster, seed=0))
    outputs = []
    for name in ("in-order", "reversed"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / name
        assert cli.main(["verify", "--plan", str(path), "--out", str(out)]) == 0
        outputs.append((out / "resilience.json").read_bytes())
        doc["workers"].reverse()
    assert outputs[0] == outputs[1]


def test_failed_client_without_client_is_config_error(tmp_path, capsys):
    doc = example_doc(tmp_path / "out", timing={"failed_clients": [1, 99]})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg, "--require-decode"]) == 2
    assert "timing.failed_clients[1]" in capsys.readouterr().err


def test_readme_config_runs(tmp_path):
    # the documented example config, exactly as README.md shows it
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    cfg = write_config(tmp_path, json.loads(block))
    out = str(tmp_path / "results")
    for seed in ("1", "2", "7"):
        assert cli.main(["fl-demo", "--config", cfg, "--check", "--seed", seed,
                         "--out", out]) == 0
    assert cli.main(["simulate", "--config", cfg, "--require-decode",
                     "--out", out]) == 0


def test_readme_minimal_round_runs():
    # README's "A minimal round" example, exactly as shown, asserts included
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    assert "partition_uniform" in block and "dec.decode" in block
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_verify_rejects_sample_below_one(tmp_path, capsys, sample):
    # an empty sample certifies nothing, so it must not pass as a certificate
    cfg = write_config(tmp_path, example_doc(tmp_path / "out",
                                             schemes=["proposed"]))
    assert cli.main(["verify", "--config", cfg, "--sample", sample]) == 2
    assert "--sample" in capsys.readouterr().err
    assert not (tmp_path / "out" / "resilience.json").exists()


def test_verify_rejects_negative_max_stragglers(tmp_path, capsys):
    # no straggler set has -1 clients: the pattern table would come out empty
    cfg = write_config(tmp_path, example_doc(tmp_path / "out",
                                             schemes=["proposed"]))
    assert cli.main(["verify", "--config", cfg, "--max-stragglers", "-1"]) == 2
    assert "--max-stragglers" in capsys.readouterr().err
    assert not (tmp_path / "out" / "resilience.json").exists()


@pytest.mark.parametrize("roster, flags, remedy", [
    ({"active": [1] * 19, "passive": [1, 1]}, ["--max-stragglers", "21"],
     r"max.stragglers"),
    ({"active": [1] * 40, "passive": [1] * 6}, [], r"sample"),
], ids=["straggler-sets", "subsets"])
def test_verify_guard_names_its_remedy_once(tmp_path, capsys, roster, flags,
                                            remedy):
    cfg = write_config(tmp_path, {"roster": roster,
                                  "out": str(tmp_path / "out")})
    assert cli.main(["verify", "--config", cfg, *flags]) == 2
    assert len(re.findall(remedy, capsys.readouterr().err)) == 1
