"""The benchmark's workloads: a config built from the seed, the codedfl
subcommands one pass runs, the work units a pass completes, and the checks
on the files a pass writes.

Each workload has a full size (the one measured) and a toy size (the one
the self-check runs in seconds).  Why each workload exists is in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DECODE_TOL = 1e-8        # decode residual bound, as in codedfl.decoding
SCHEMES = ("proposed", "dense")
ZERO_FRACTIONS = (0.95, 0.98, 0.99)


def _roster(active: int, passive: int, base_width: int = 1) -> dict:
    return {"active": [1] * active, "passive": [1] * passive,
            "base_width": base_width}


# ---------------------------------------------------------------------------
# configs

def sparse_encode_config(seed: int, toy: bool) -> dict:
    k, width, rows = (6, 5, 200) if toy else (28, 1125, 1000)
    return {
        "seed": seed,
        "schemes": list(SCHEMES),
        "roster": _roster(k, 2, width),
        "matrix": {"source": "synthetic", "rows": rows, "cols": k * width,
                   "kind": "sparse", "zero_fraction": 0.99},
        "scale": 1,
        "trials": 3,
        "timing": {"noise": 0.5},
        "bench": {"zero_fractions": list(ZERO_FRACTIONS), "timing_trials": 5,
                  "warmup": 1},
    }


def certify_config(seed: int, toy: bool) -> dict:
    k, passive = (6, 2) if toy else (28, 3)
    return {"seed": seed, "schemes": ["proposed"],
            "roster": _roster(k, passive)}


def rounds_config(seed: int, toy: bool) -> dict:
    if toy:
        width, rows, trials, fl = 4, 50, 20, (30, 12, 20)
    else:
        width, rows, trials, fl = 40, 2000, 500, (600, 140, 500)
    return {
        "seed": seed,
        "schemes": ["proposed"],
        "roster": _roster(28 if not toy else 6, 2, width),
        "matrix": {"source": "synthetic", "rows": rows,
                   "cols": (6 if toy else 28) * width, "kind": "dense"},
        "scale": 1,
        "trials": trials,
        "timing": {"noise": 0.5},
        "fl": {"rows": fl[0], "cols": fl[1], "steps": fl[2],
               "stragglers_per_round": 2},
    }


# ---------------------------------------------------------------------------
# checks on the files one pass wrote

# exit codes codedfl uses to report a failed operation (cli.py): 1 diverging
# descent, 3 verification failure, 4 decode failure.  2 (configuration
# error) means the benchmark's own config was rejected.
REPORTED_FAILURE = (1, 3, 4)


@dataclass
class Findings:
    """What the checks of one pass found.

    ``failed`` counts operations the program itself reports as failed: a
    round that did not decode, an FL retry, a failed certificate, a demo
    that missed its oracle.  ``wrong`` lists outputs that are wrong although
    the program reported no failure; any entry makes the run incorrect.
    """
    failed: int = 0
    notes: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def fail(self, n: int, note: str) -> None:
        if n:
            self.failed += n
            self.notes.append(note)


def check_round_csv(out: Path, f: Findings) -> None:
    """A decoded round must meet DECODE_TOL; an undecoded one is a failure."""
    with open(out / "round.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            where = f"round.csv {row['scheme']} trial {row['trial']}"
            residual = row["decode_residual"]
            if row["decode_ok"] != "true":
                f.fail(1, f"{where}: {row['decode_error']}")
            elif not residual or float(residual) > DECODE_TOL:
                f.wrong.append(f"{where}: decode_ok with residual "
                               f"{residual or 'none'}")


def check_sparse_encode(docs, out: Path, codes, stdout, f: Findings) -> None:
    doc = docs["simulate"]
    nnz = {}
    with open(out / "benchmark.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            nnz[(row["scheme"], row["zero_fraction"])] = float(row["mean_nnz"])
    expected = {(s, repr(float(z))) for s in doc["schemes"]
                for z in doc["bench"]["zero_fractions"]}
    if set(nnz) != expected:
        f.wrong.append(f"benchmark.csv rows {sorted(nnz)} != {sorted(expected)}")
    f.facts["coded_nnz_mean"] = nnz


def check_certify(docs, out: Path, codes, stdout, f: Findings) -> None:
    with open(out / "resilience.json") as fh:
        res = json.load(fh)
    roster = docs["certify"]["roster"]
    n_bar = len(roster["active"]) + len(roster["passive"])
    expected = math.comb(n_bar, len(roster["active"]))
    sub, match = res["subsets"], res["matching"]
    if sub["subsets_checked"] != expected or not sub["exhaustive"]:
        f.wrong.append(f"verify checked {sub['subsets_checked']} subsets "
                       f"(exhaustive={sub['exhaustive']}), expected {expected}")
    if match["checked"] != expected:
        f.wrong.append(f"verify matched {match['checked']} subsets, "
                       f"expected {expected}")
    f.fail(len(sub["failures"]), f"{len(sub['failures'])} subsets not full rank")
    f.fail(len(match["failures"]),
           f"{len(match['failures'])} subsets without a perfect matching")
    f.facts.update(subsets_checked=sub["subsets_checked"],
                   max_cond=sub["max_cond"], clients=n_bar,
                   patterns_max_stragglers=res["patterns"]["max_stragglers"])


_RETRIES = re.compile(r"retries=(\d+)")


def check_fl_demo(docs, out: Path, codes, stdout, f: Findings) -> None:
    rc = codes["fl-demo"]
    if rc in (1, 4):      # no trajectory: diverged, or retries exhausted
        f.fail(1, f"fl-demo exited {rc}")
        return
    m = _RETRIES.search(stdout["fl-demo"])
    if m is None:
        f.wrong.append("fl-demo printed no retries= count")
        return
    f.fail(int(m.group(1)), f"fl-demo retried {m.group(1)} rounds")
    f.fail(int(rc == 3), "fl-demo trajectory missed the uncoded oracle")
    f.facts["fl_retries"] = int(m.group(1))


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Workload:
    configs: Callable[[int, bool], dict]    # (seed, toy) -> {name: document}
    commands: Callable[[dict, Path], list]  # ({name: path}, out) -> argv lists
    ops: Callable[[dict], int]              # {name: document} -> units/pass
    ops_unit: str
    checks: tuple       # each (documents, out dir, exit codes, stdouts, Findings)


def _sparse_encode_ops(docs) -> int:
    # main encode plus one streaming encode per sparsity level, per scheme
    doc = docs["simulate"]
    n_bar = len(doc["roster"]["active"]) + len(doc["roster"]["passive"])
    levels = 1 + len(doc["bench"]["zero_fractions"])
    return len(doc["schemes"]) * n_bar * levels


def _certify_rounds_ops(docs) -> int:
    r, doc = docs["certify"]["roster"], docs["simulate"]
    subsets = math.comb(len(r["active"]) + len(r["passive"]), len(r["active"]))
    return subsets + doc["trials"] + doc["fl"]["steps"]


def _certify_rounds_commands(paths: dict, out: Path) -> list:
    return [["plan", "--config", str(paths["certify"])],
            ["verify", "--plan", str(out / "plan_proposed.json"),
             "--max-stragglers", "3", "--out", str(out)],
            ["simulate", "--config", str(paths["simulate"]),
             "--require-decode"],
            ["fl-demo", "--config", str(paths["simulate"]), "--check"]]


# ``simulate`` names the config that simulate (and fl-demo) run on
WORKLOADS = {
    "sparse-encode": Workload(
        lambda seed, toy: {"simulate": sparse_encode_config(seed, toy)},
        lambda paths, out: [["simulate", "--config", str(paths["simulate"]),
                             "--require-decode"]],
        _sparse_encode_ops, "coded blocks encoded", (check_sparse_encode,)),
    "certify-rounds": Workload(
        lambda seed, toy: {"certify": certify_config(seed, toy),
                           "simulate": rounds_config(seed, toy)},
        _certify_rounds_commands, _certify_rounds_ops,
        "subsets certified + rounds decoded", (check_certify, check_fl_demo)),
}
