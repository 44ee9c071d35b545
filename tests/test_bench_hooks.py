"""The benchmark's span tracer (bench/spans.py) patches codedfl functions
by name.  Every name it lists must resolve, or ``bench/run.py --trace 1``
fails before it measures anything."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from codedfl import matrices

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
