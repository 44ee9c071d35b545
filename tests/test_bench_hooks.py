"""The benchmark reaches into codedfl beyond the public commands: its span
tracer (bench/spans.py) patches functions by name, and bench/run.py and
bench/test_bench.py call a few internals directly.  Every such hook must
keep resolving, or the benchmark fails before it measures anything."""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from codedfl import cli, coding, decoding, matrices

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("layer, name", traced_names(),
                         ids=lambda v: v)
def test_traced_function_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"codedfl.{layer}"), name))


def test_iter_encoded_blocks_is_a_generator_function():
    # the tracer charges one span per next() of a generator function, which
    # is what splits coding.iter_encoded_blocks.busy_s by scheme per block
    assert inspect.isgeneratorfunction(coding.iter_encoded_blocks)


@pytest.mark.parametrize("cls", [matrices.DenseMatrix, matrices.SparseMatrix])
def test_traced_matvec_t_is_defined_on_the_class(cls):
    # the tracer wraps the method found in the class's own __dict__
    assert callable(cls.__dict__["matvec_t"])


# bench/run.py rebuilds the simulated matrix and x to check decoded A^T x
CLI_HOOKS = ["_make_matrix", "_TAG_X", "load_config"]


@pytest.mark.parametrize("name", CLI_HOOKS)
def test_cli_hook_resolves(name):
    assert hasattr(cli, name)


def test_decode_takes_rows_positionally_and_result_rebuilds():
    # bench/test_bench.py wraps decode as decode(problem, rows) and rebuilds
    # a perturbed DecodeResult from its three fields in order
    G = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    products = G @ np.array([[2.0], [3.0]])
    problem = decoding.DecodeProblem(
        tuple(decoding.ReturnedResult(w, g, p)
              for w, (g, p) in enumerate(zip(G, products))), 2)
    res = decoding.decode(problem, [1, 2])
    assert res.used_workers == (1, 2)
    again = decoding.DecodeResult(res.block_products, res.residual,
                                  res.used_workers)
    np.testing.assert_allclose(again.concatenated(), [2.0, 3.0])


def test_matching_result_constructs_positionally():
    # bench/test_bench.py fakes a failed matching as MatchingResult(False, ())
    m = decoding.MatchingResult(False, ())
    assert m.perfect is False and m.matching == ()


@pytest.mark.parametrize("hook", [
    *(f"cli.{name}" for name in CLI_HOOKS),
    "decoding.decode",
    "decoding.check_all_subsets",
    "decoding.DecodeResult",
    "decoding.MatchingResult",
])
def test_bench_still_uses_the_hook(hook):
    # a hook the benchmark no longer uses should leave this file too
    attr = re.escape(hook.split(".")[1])
    used = [f.name for f in (BENCH / "run.py", BENCH / "test_bench.py")
            if re.search(rf"\.{attr}\b", f.read_text())]
    assert used, f"{hook} is no longer used under bench/"


def test_verify_reports_a_patched_subset_survey(tmp_path, monkeypatch):
    # bench/test_bench.py undercounts the survey by patching
    # check_all_subsets with dataclasses.replace; certify must look the
    # function up at call time, and resilience.json must keep every key
    # bench/workloads.py::check_certify reads
    real = decoding.check_all_subsets

    def one_short(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report,
                                   subsets_checked=report.subsets_checked - 1)

    monkeypatch.setattr(decoding, "check_all_subsets", one_short)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "roster": {"active": [1] * 6,
                                                     "passive": [1, 1]}}))
    assert cli.main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
    res = json.loads((tmp_path / "out" / "resilience.json").read_text())
    sub = res["subsets"]
    assert sub["subsets_checked"] == 27       # C(8, 6) - 1
    assert sub["exhaustive"] is True and sub["failures"] == []
    assert isinstance(sub["max_cond"], float)
    assert res["matching"]["checked"] == 27
    assert res["patterns"]["max_stragglers"] == 3


@pytest.mark.parametrize("command, section", [
    ("simulate", {"matrix": {"rows": 42, "cols": 21, "kind": "dense"},
                  "trials": 20}),
    ("simulate", {"matrix": {"rows": 42, "cols": 21, "kind": "sparse",
                             "zero_fraction": 0.5}, "trials": 20}),
    ("simulate", {"trials": 20}),
    ("fl-demo", {"fl": {"rows": 42, "cols": 21, "steps": 10,
                        "stragglers_per_round": 2}}),
], ids=["simulate-dense", "simulate-sparse", "simulate-no-matrix", "fl-demo"])
def test_products_are_computed_in_problem_from_workload(tmp_path, monkeypatch,
                                                        command, section):
    # bench/run.py's decoding.products_computed counts only the matvec_t
    # calls made inside problem_from_workload
    doc = {"seed": 3, "schemes": ["proposed"], "scale": 1,
           "roster": {"active": [2, 2, 1, 1, 1], "passive": [1, 1],
                      "base_width": 3},
           "out": str(tmp_path / "out"), **section}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    calls = {"inside": 0, "outside": 0}
    depth = [0]
    problem_from_workload = decoding.problem_from_workload

    def traced(*args):
        depth[0] += 1
        try:
            return problem_from_workload(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(decoding, "problem_from_workload", traced)
    for cls in (matrices.DenseMatrix, matrices.SparseMatrix):
        def counted(block, x, matvec_t=cls.matvec_t):
            calls["inside" if depth[0] else "outside"] += 1
            return matvec_t(block, x)
        monkeypatch.setattr(cls, "matvec_t", counted)
    assert cli.main([command, "--config", str(cfg)]) == 0
    assert calls["inside"] > 0 and calls["outside"] == 0
