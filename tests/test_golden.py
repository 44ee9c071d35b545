"""Byte-identical reruns, pinned: the sha256 of every deterministic file
that the benchmark's toy configs and the README config write, and the exit
code of every command, as committed in golden.json.  The README config
runs with its own schemes and once each with ``--scheme poly`` and
``--scheme uncoded``, ``verify --plan`` reads back each seed's stored
dense, poly and uncoded plans, ``simulate`` runs it without its matrix
and bench sections, on the one-row matrix the roster's base_width gives,
and ``simulate`` and ``fl-demo`` run it with clients failing (FAILURES),
so a digest pins the order of a round's draws.  One more ``simulate`` config
has a dense plan whose overlay spans three chunks of cells (CHUNKED);
every other union fits in one.

Those commands run in-process through ``cli.main``.  Three cases run the
``certify-rounds`` workload's four commands at full size, one per seed of
FULL_SIZE_SEEDS, in one fresh interpreter with the BLAS thread variables
at 1 (about 3 s): the toy sizes cannot show a float that moves at full
size, and at those seeds the rounds or the demo fail, so a moved float
can move a failure.  A change that means to change outputs regenerates
the file with ``PYTHONPATH=src python tests/test_golden.py`` and names
each file that moved.
"""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
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
# the README config without its bench section, a passive client always
# failed and each client failing with probability 0.1: 2 of its 10 rounds
# do not decode (simulate exits 4), fl-demo retries 29 rounds
FAILURES_SEED = 1
FAILURES_TIMING = {"noise": 0.5, "failed_clients": [6], "failure_prob": 0.1}
FULL_SIZE_SEEDS = (0, 7, 13)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# runs the argv lists in sys.argv[1] through cli.main; its last line of
# stdout is their exit codes
FRESH_RUN = ("import json, sys\nfrom codedfl import cli\n"
             "print(json.dumps([cli.main(a)\n"
             "                  for a in json.loads(sys.argv[1])]))")


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
    readme_doc = json.loads(cfg.read_text())
    bare = tmp / "readme-no-matrix.json"
    bare.write_text(json.dumps({k: v for k, v in readme_doc.items()
                                if k not in ("matrix", "bench")}))
    for seed in README_SEEDS:
        case = f"readme/matrix=none/seed={seed}"
        out = tmp / case
        yield case, out, [["simulate", "--config", str(bare), "--seed",
                           str(seed), "--out", str(out), "--require-decode"]]
    failing = tmp / "readme-failures.json"
    failing.write_text(json.dumps({
        **{k: v for k, v in readme_doc.items() if k != "bench"},
        "timing": FAILURES_TIMING}))
    case = f"readme/failures/seed={FAILURES_SEED}"
    common = ["--config", str(failing), "--seed", str(FAILURES_SEED),
              "--out", str(tmp / case)]
    yield case, tmp / case, [["simulate", *common, "--require-decode"],
                             ["fl-demo", *common, "--check"]]
    chunked = tmp / "chunked.json"
    chunked.write_text(json.dumps(CHUNKED))
    case = f"chunked/seed={CHUNKED['seed']}"
    yield case, tmp / case, [["simulate", "--config", str(chunked), "--out",
                              str(tmp / case), "--require-decode"]]
    # a stored plan of a scheme other than proposed, read back by verify
    for scheme, written_by in [("dense", "readme"),
                               *((s, f"readme/scheme={s}")
                                 for s in README_EXTRA_SCHEMES)]:
        for seed in README_SEEDS:
            case = f"readme/plan={scheme}/seed={seed}"
            stored = tmp / f"{written_by}/seed={seed}" / f"plan_{scheme}.json"
            yield case, tmp / case, [["verify", "--plan", str(stored),
                                      "--out", str(tmp / case)]]


def _full_size_cases(tmp: Path):
    """Yield (case name, out dir, argv lists) of a full-size certify-rounds
    pass per seed of FULL_SIZE_SEEDS."""
    wl = _bench_workloads()["certify-rounds"]
    for seed in FULL_SIZE_SEEDS:
        case = f"certify-rounds/full/seed={seed}"
        out = tmp / case
        paths = {}
        for role, doc in wl.configs(seed, False).items():
            paths[role] = tmp / f"full-{seed}-{role}.json"
            paths[role].write_text(json.dumps(doc))
        yield case, out, [cmd if "--out" in cmd else cmd + ["--out", str(out)]
                          for cmd in wl.commands(paths, out)]


def _run_fresh(commands) -> list:
    """Exit codes of the commands, run in one new interpreter whose BLAS
    thread variables are 1 before numpy loads."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path,
           **{v: "1" for v in BLAS_THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, json.dumps(commands)], env=env,
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


def _record(codes, out: Path) -> dict:
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir()) if p.name not in NOT_DETERMINISTIC}
    return {"exit_codes": codes, "files": files}


def digests(tmp: Path) -> dict:
    """{case: {"exit_codes": [...], "files": {name: sha256}}}."""
    result = {case: _record([cli.main(cmd) for cmd in commands], out)
              for case, out, commands in _cases(tmp)}
    full = list(_full_size_cases(tmp))
    codes = iter(_run_fresh([cmd for _, _, commands in full
                             for cmd in commands]))
    for case, out, commands in full:
        result[case] = _record([next(codes) for _ in commands], out)
    return result


def test_outputs_match_golden_digests(tmp_path):
    assert digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        doc = digests(Path(d))
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
