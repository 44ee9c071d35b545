"""The benchmark reaches into codedfl beyond the public commands: its span
tracer (bench/spans.py) patches functions by name, and bench/run.py and
bench/test_bench.py call a few internals directly.  Every such hook must
keep resolving, or the benchmark fails before it measures anything."""

import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from codedfl import cli, decoding, matrices

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
    "decoding.DecodeResult",
    "decoding.MatchingResult",
])
def test_bench_still_uses_the_hook(hook):
    # a hook the benchmark no longer uses should leave this file too
    attr = re.escape(hook.split(".")[1])
    used = [f.name for f in (BENCH / "run.py", BENCH / "test_bench.py")
            if re.search(rf"\.{attr}\b", f.read_text())]
    assert used, f"{hook} is no longer used under bench/"
