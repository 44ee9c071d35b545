"""Byte-identical reruns, pinned: the sha256 of every deterministic file
that the benchmark's toy configs and the README config write, and the exit
code of every command, as committed in golden.json.  The README config
runs with its own schemes and once each with ``--scheme poly`` and
``--scheme uncoded``, ``verify --plan`` reads back each seed's stored
dense plan, and ``simulate`` runs it without its matrix and bench
sections, on the one-row matrix the roster's base_width gives.  One more
``simulate`` config has a dense plan whose overlay spans three chunks of
cells (CHUNKED); every other union fits in one.

Every command runs in-process through ``cli.main``.  A change that means
to change outputs regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and names each file that
moved.
"""

import hashlib
import importlib.util
import json
import re
import sys
import tempfile
from pathlib import Path

from codedfl import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
TOY_SEEDS = (0, 3, 7)
README_SEEDS = (1, 2, 7)
README_EXTRA_SCHEMES = ("poly", "uncoded")
# measured wall-clock medians, and a creation time
NOT_DETERMINISTIC = {"benchmark_times.csv", "manifest.json"}
# k_bar = 4 blocks of 300 x 600 at 50% zeros: the union of the four
# patterns holds about 168,750 cells, three chunks of coding.OVERLAY_CHUNK
CHUNKED = {"seed": 5, "schemes": ["proposed", "dense"],
           "roster": {"active": [1, 1, 1, 1], "passive": [1],
                      "base_width": 600},
           "matrix": {"source": "synthetic", "rows": 300, "cols": 2400,
                      "kind": "sparse", "zero_fraction": 0.5},
           "scale": 1, "trials": 3, "timing": {"noise": 0.5},
           "bench": {"zero_fractions": [0.5, 0.9], "timing_trials": 1,
                     "warmup": 0}}


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod    # its dataclasses look the module up
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def _cases(tmp: Path):
    """Yield (case name, out dir, argv lists), every config written to tmp."""
    for name, wl in _bench_workloads().items():
        for seed in TOY_SEEDS:
            case = f"{name}/seed={seed}"
            paths = {}
            for role, doc in wl.configs(seed, True).items():
                paths[role] = tmp / f"{name}-{seed}-{role}.json"
                paths[role].write_text(json.dumps(doc))
            out = tmp / case
            yield case, out, [cmd if "--out" in cmd else cmd + ["--out", str(out)]
                              for cmd in wl.commands(paths, out)]
    readme = (ROOT / "README.md").read_text()
    cfg = tmp / "readme.json"
    cfg.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    # the config's own schemes, then each scheme it leaves out on its own
    for scheme in (None, *README_EXTRA_SCHEMES):
        for seed in README_SEEDS:
            case = (f"readme/seed={seed}" if scheme is None
                    else f"readme/scheme={scheme}/seed={seed}")
            out = tmp / case
            common = ["--config", str(cfg), "--seed", str(seed), "--out", str(out)]
            if scheme is not None:
                common += ["--scheme", scheme]
            yield case, out, [["plan", *common], ["verify", *common],
                              ["simulate", *common, "--require-decode"],
                              ["fl-demo", *common, "--check"]]
    # no matrix section: rounds decode the products of a one-row matrix
    bare = tmp / "readme-no-matrix.json"
    bare.write_text(json.dumps({k: v for k, v in json.loads(cfg.read_text())
                                .items() if k not in ("matrix", "bench")}))
    for seed in README_SEEDS:
        case = f"readme/matrix=none/seed={seed}"
        out = tmp / case
        yield case, out, [["simulate", "--config", str(bare), "--seed",
                           str(seed), "--out", str(out), "--require-decode"]]
    chunked = tmp / "chunked.json"
    chunked.write_text(json.dumps(CHUNKED))
    case = f"chunked/seed={CHUNKED['seed']}"
    yield case, tmp / case, [["simulate", "--config", str(chunked), "--out",
                              str(tmp / case), "--require-decode"]]
    # a stored plan of a scheme other than proposed, read back by verify
    for seed in README_SEEDS:
        case = f"readme/plan=dense/seed={seed}"
        stored = tmp / f"readme/seed={seed}" / "plan_dense.json"
        yield case, tmp / case, [["verify", "--plan", str(stored),
                                  "--out", str(tmp / case)]]


def digests(tmp: Path) -> dict:
    """{case: {"exit_codes": [...], "files": {name: sha256}}}."""
    result = {}
    for case, out, commands in _cases(tmp):
        codes = [cli.main(cmd) for cmd in commands]
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.iterdir())
                 if p.name not in NOT_DETERMINISTIC}
        result[case] = {"exit_codes": codes, "files": files}
    return result


def test_outputs_match_golden_digests(tmp_path):
    assert digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        doc = digests(Path(d))
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
