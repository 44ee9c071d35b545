"""Config validation and end-to-end command-line runs."""

import csv
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from codedfl import cli, coding as cd, decoding as dec, matrices as mx
from codedfl.config import ConfigError, load_config, parse_config


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


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(minimal_doc(extra_knob=1))


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="timing"):
        parse_config(minimal_doc(timing={"nosie": 0.5}))


def test_scheme_and_schemes_conflict():
    with pytest.raises(ConfigError, match="not both"):
        parse_config(minimal_doc(scheme="dense", schemes=["proposed"]))


def test_bad_scheme_name():
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(minimal_doc(scheme="fountain"))


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
    cfg = parse_config(doc, {"seed": 9, "scheme": "uncoded", "out": None})
    assert cfg.seed == 9
    # a single-scheme override replaces the whole scheme list
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
        parse_config(minimal_doc(matrix={"rows": 4, "cols": 4,
                                         "zero_fraction": 1.0}))
    with pytest.raises(ConfigError, match="failure_prob"):
        parse_config(minimal_doc(timing={"failure_prob": 1.5}))


def test_timing_type_maps():
    cfg = parse_config(minimal_doc(timing={"shift_by_type": {"0": 2.0},
                                           "rate_by_type": {"0": 4.0}}))
    assert cfg.timing.shift_by_type == {0: 2.0}
    assert cfg.timing.rate_by_type == {0: 4.0}
    with pytest.raises(ConfigError, match="type index"):
        parse_config(minimal_doc(timing={"shift_by_type": {"slow": 2.0}}))


def test_matrix_file_source_needs_path():
    with pytest.raises(ConfigError, match="path"):
        parse_config(minimal_doc(matrix={"source": "file"}))


def test_fl_section_and_stepsize():
    cfg = parse_config(minimal_doc(fl={"rows": 30, "steps": 10,
                                       "stepsize": 0.001}))
    assert cfg.fl.rows == 30 and cfg.fl.steps == 10
    assert cfg.fl.stepsize == 0.001
    with pytest.raises(ConfigError, match="stepsize"):
        parse_config(minimal_doc(fl={"stepsize": -0.1}))


def test_poly_points_parsed():
    cfg = parse_config(minimal_doc(scheme="poly", poly_points=[0, 1, 2.5]))
    assert cfg.poly_points == (0, 1, 2.5)


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
        plan, roster = cd.plan_from_dict(doc)
        assert plan.scheme == scheme
        assert plan.k_bar == 7 and roster.n_clients == 7
        text = (out / f"allocation_{scheme}.txt").read_text()
        assert "W_0 (active, type 1, c=2)" in text
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert any("plan_proposed.json" in o for o in manifest["outputs"])


def test_verify_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path, example_doc(tmp_path / "out",
                                             schemes=["proposed"]))
    assert cli.main(["verify", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "resilience.json").read_text())
    assert doc["subsets"]["ok"] and doc["subsets"]["exhaustive"]
    assert doc["subsets"]["subsets_checked"] == 36
    assert len(doc["subsets"]["worst_subset"]) == doc["subsets"]["k_bar"]
    assert f"worst subset={doc['subsets']['worst_subset']}" \
        in capsys.readouterr().out
    assert doc["matching"]["all_perfect"]
    assert sorted(map(tuple, doc["patterns"]["maximal_tolerable"])) \
        == [(0, 0), (1,)]


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
    tampered.write_text(json.dumps(doc))
    assert cli.main(["verify", "--plan", str(tampered),
                     "--out", str(tmp_path / "v2")]) == 3
    rep = json.loads((tmp_path / "v2" / "resilience.json").read_text())
    assert not rep["subsets"]["ok"]
    assert rep["matching"]["all_perfect"]    # duplicate rows, distinct columns

    # four rows on the three columns {0, 1, 2}: Hall's condition fails, and
    # matchings searched on rank failures only agree with a search on all
    assert doc["workers"][7]["support"] == doc["workers"][0]["support"]
    doc["workers"][8]["support"] = doc["workers"][0]["support"]
    tampered.write_text(json.dumps(doc))
    assert cli.main(["verify", "--plan", str(tampered),
                     "--out", str(tmp_path / "v3")]) == 3
    rep = json.loads((tmp_path / "v3" / "resilience.json").read_text())
    plan, _ = cd.plan_from_dict(doc)
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
    mx.save_dense_csv(A, mpath)
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


def test_bench_requires_sparse_matrix(tmp_path):
    doc = example_doc(tmp_path / "out",
                      bench={"zero_fractions": [0.5]})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 2


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


def test_fl_demo_writes_trajectory(tmp_path):
    doc = {
        "seed": 3,
        "scheme": "proposed",
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


def test_fl_demo_builds_plan_with_poly_points(tmp_path, capsys):
    doc = {"scheme": "poly", "poly_points": [0, 1, 2],
           "roster": {"active": [1] * 7, "passive": [1, 1]},
           "fl": {"rows": 28, "cols": 7, "steps": 3},
           "out": str(tmp_path / "fl")}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["plan", "--config", cfg]) == 2
    assert cli.main(["fl-demo", "--config", cfg]) == 2
    assert "3 evaluation points for 9 workers" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    minimal_doc(fl={"rows": 12, "cols": 3, "stragglers_per_round": 4}),
    {"roster": {"active": [3]}},   # no fl section: the default of 2
], ids=["fl-section", "default"])
def test_stragglers_beyond_roster_is_config_error(tmp_path, capsys, doc):
    doc = dict(doc, out=str(tmp_path / "fl"))
    assert cli.main(["fl-demo", "--config", write_config(tmp_path, doc)]) == 2
    assert "fl.stragglers_per_round" in capsys.readouterr().err


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
