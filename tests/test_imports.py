"""Which scipy modules each command loads, counted in a fresh interpreter
(pytest's own process holds scipy already).

scipy is imported only where it is used: ``scipy.sparse`` and ``scipy.io``
where a sparse matrix is made or a ``.mtx`` file read, ``scipy.linalg`` in
``decode``, and ``scipy.sparse`` with ``scipy.sparse.csgraph`` in the
matching a rank failure calls for.  Planning, and certifying a plan of
full rank, load none of it, and a dense round loads no ``scipy.sparse``.  The manifest names the scipy a command loaded,
so it reads it from ``sys.modules`` and writes null where there is none.
"""

import json
import os
import subprocess
import sys

import numpy as np
import scipy

from test_golden import ROOT, _bench_workloads

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# runs the commands, then prints the scipy modules loaded as its last line
SCRIPT = """
import json, sys
from codedfl import cli
config, commands = json.loads(sys.argv[1])
cli.load_config(config)
codes = [cli.main(argv) for argv in commands]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")]))
"""


def _run(config, commands, blas_env=None):
    """(exit codes, scipy modules loaded) of one fresh process.

    ``blas_env``, if given, replaces the BLAS thread variables it inherits.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if blas_env is not None:
        for var in BLAS_ENV:
            env.pop(var, None)
        env.update(blas_env)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([str(config), commands])],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _certify_rounds(tmp_path):
    """Paths of the toy certify-rounds configs, and its commands."""
    wl = _bench_workloads()["certify-rounds"]
    paths = {}
    for role, doc in wl.configs(3, True).items():
        paths[role] = tmp_path / f"{role}.json"
        paths[role].write_text(json.dumps(doc))
    out = tmp_path / "out"
    commands = [cmd if "--out" in cmd else cmd + ["--out", str(out)]
                for cmd in wl.commands(paths, out)]
    return paths, commands


def test_import_and_load_config_load_no_scipy(tmp_path):
    paths, _ = _certify_rounds(tmp_path)
    assert _run(paths["simulate"], []) == [[], []]


def test_plan_and_verify_load_no_scipy(tmp_path):
    paths, commands = _certify_rounds(tmp_path)
    assert [cmd[0] for cmd in commands[:2]] == ["plan", "verify"]
    assert _run(paths["certify"], commands[:2]) == [[0, 0], []]


def test_dense_rounds_load_no_scipy_sparse(tmp_path):
    paths, commands = _certify_rounds(tmp_path)
    assert [cmd[0] for cmd in commands[2:]] == ["simulate", "fl-demo"]
    codes, modules = _run(paths["simulate"], commands[2:])
    assert codes == [0, 0]
    assert "scipy.linalg" in modules          # the rounds did decode
    assert not [m for m in modules if m.startswith("scipy.sparse")]


def test_manifest_records_numpy_scipy_and_blas_env(tmp_path):
    paths, commands = _certify_rounds(tmp_path)
    manifest = tmp_path / "out" / "manifest.json"
    blas = {"OPENBLAS_NUM_THREADS": "1"}
    assert _run(paths["certify"], commands[:1], blas) == [[0], []]   # plan
    doc = json.loads(manifest.read_text())
    assert doc["numpy"] == np.__version__
    assert doc["scipy"] is None
    assert doc["blas_env"] == {"OPENBLAS_NUM_THREADS": "1",
                               "OMP_NUM_THREADS": None,
                               "MKL_NUM_THREADS": None}
    codes, _ = _run(paths["simulate"], commands[2:3], blas)        # simulate
    assert codes == [0]
    doc = json.loads(manifest.read_text())
    assert doc["scipy"] == scipy.__version__
    assert doc["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_verify_of_a_stored_plan_writes_a_manifest(tmp_path):
    # verify --plan overwrites plan's manifest with its own: no config to
    # hash, its one output, and no scipy loaded
    paths, commands = _certify_rounds(tmp_path)
    assert commands[1][:2] == ["verify", "--plan"]
    assert _run(paths["certify"], commands[:2]) == [[0, 0], []]
    doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert doc["config_hash"] is None and doc["scipy"] is None
    assert doc["outputs"] == [str(tmp_path / "out" / "resilience.json")]
