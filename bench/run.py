"""codedfl benchmark: one workload in this process, end to end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload {sparse-encode,certify-rounds} \\
        --seed N --seconds S --trace {0,1} [--size {full,toy}]

The workload's config is generated from ``--seed`` and handed to the
``codedfl`` subcommands, which run in-process through
``codedfl.cli.main``.  With ``--trace 0`` passes repeat while the next one
is predicted to end within ``--seconds`` (at least one runs) and the
end-to-end metrics are reported; with ``--trace 1`` one untraced and one
traced pass run and the per-layer metrics are reported.  Every pass's
outputs are checked.

The host's speed drifts, so with ``--trace 0`` a fixed reference
computation (reference.py) is timed before the first pass and after each
pass, and ``wall_rel`` is the median over passes of a pass's wall time
over the mean of the two references around it.  Raw seconds (``wall_s``,
``ops_per_s``) are printed and kept in result.json beside it.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Files of the run (config, outputs,
result.json, spans.jsonl) go under ``.bench_runs/``.

``failed`` counts operations the program itself reports as failed;
``correct`` is false when an output is wrong without the program saying
so.  Exit codes: 0 correct, 1 a wrong output, 2 no codedfl sources.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import (contextmanager, nullcontext, redirect_stderr,
                        redirect_stdout)
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import machine
import reference

# sized before numpy loads: one BLAS thread keeps the load on one core
for _var in machine.BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import spans  # noqa: E402  (imports numpy)
import workloads  # noqa: E402
from workloads import DECODE_TOL, SCHEMES, ZERO_FRACTIONS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 7
SUBCOMMANDS = ("plan", "verify", "simulate", "fl_demo")


def probe_setup(config: Path) -> float:
    """Seconds one fresh interpreter spends importing codedfl + load_config."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(config)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def import_cli():
    sys.path.insert(0, str(SRC))
    from codedfl import cli
    if Path(cli.__file__).resolve().parent != (SRC / "codedfl").resolve():
        raise ImportError(f"codedfl imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Pass:
    wall: float
    findings: workloads.Findings
    output_bytes: int
    # scheme -> (DecodeProblem, DecodeResult) of its first decoded round
    decoded: dict = field(default_factory=dict)


class Runner:
    """Runs passes of one workload and checks what each pass wrote."""

    def __init__(self, cli, wl: workloads.Workload, docs: dict, paths: dict,
                 out: Path):
        self.cli, self.wl, self.docs, self.paths, self.out = \
            cli, wl, docs, paths, out
        self.commands = wl.commands(paths, out)

    @contextmanager
    def _keep_decodes(self, kept: dict):
        """Keep the first successful decode of each scheme of ``simulate``.

        Rounds run scheme by scheme, one decode call each, so call ``i``
        belongs to scheme ``i // trials``.  The A^T x these hold is checked
        against the direct product after the run.
        """
        dec = sys.modules["codedfl.decoding"]
        inner = dec.decode
        doc = self.docs["simulate"]
        trials, schemes = doc["trials"], doc["schemes"]
        calls = itertools.count()

        def decode(problem, *args, **kwargs):
            scheme = schemes[min(next(calls) // trials, len(schemes) - 1)]
            result = inner(problem, *args, **kwargs)
            kept.setdefault(scheme, (problem, result))
            return result

        dec.decode = decode
        try:
            yield
        finally:
            dec.decode = inner

    def run_pass(self, tracer: spans.Tracer | None = None) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        codes, stdout, stderr, kept = {}, {}, {}, {}
        t0 = perf_counter()
        with tracer.installed() if tracer else nullcontext():
            for argv in self.commands:
                cmd = argv[0]
                out_buf, err_buf = io.StringIO(), io.StringIO()
                keep = (self._keep_decodes(kept) if cmd == "simulate"
                        else nullcontext())
                with redirect_stdout(out_buf), redirect_stderr(err_buf), keep:
                    codes[cmd] = self.cli.main(argv)
                stdout[cmd], stderr[cmd] = out_buf.getvalue(), err_buf.getvalue()
        wall = perf_counter() - t0

        f = workloads.Findings()
        for cmd, rc in codes.items():
            if rc not in (0, *workloads.REPORTED_FAILURE):
                f.wrong.append(f"{cmd} exited {rc}: {stderr[cmd].strip()[-300:]}")
        if not f.wrong:
            if "simulate" in codes:
                workloads.check_round_csv(self.out, f)
            for check in self.wl.checks:
                check(self.docs, self.out, codes, stdout, f)
        size = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        return Pass(wall, f, size, kept)

    def check_decoded(self, passes) -> tuple[list, dict]:
        """Decoded A^T x of each kept round against the direct product.

        The gate is the forward-error bound of a backward-stable solve,
        k_bar * eps * cond(G_S), with G_S the coefficient rows the decode
        used.  A fixed 1e-8 gate would fail on seeds whose subset is
        ill-conditioned (ROADMAP item 4); how often the error passes 1e-8
        is reported instead, as ``decoding.atx_rel_err_over_1e-8``.
        """
        health = {"rel_err": 0.0, "cond": 0.0, "over_1e-8": 0}
        if not any(p.decoded for p in passes):
            return [], health
        import numpy as np
        cfg = self.cli.load_config(self.paths["simulate"])
        M = self.cli._make_matrix(cfg)
        x = np.random.default_rng([cfg.seed, self.cli._TAG_X]) \
            .standard_normal(M.rows)
        direct = np.asarray((M.m if M.kind == "sparse" else M.a).T @ x).ravel()
        wrong = []
        for i, p in enumerate(passes):
            for scheme, (problem, res) in p.decoded.items():
                rows = {r.worker: r.coeff_row for r in problem.returned}
                G = np.array([rows[w] for w in res.used_workers])
                cond = float(np.linalg.cond(G))
                err = float(np.linalg.norm(res.concatenated() - direct)
                            / np.linalg.norm(direct))
                bound = G.shape[1] * np.finfo(np.float64).eps * cond
                health["rel_err"] = max(health["rel_err"], err)
                health["cond"] = max(health["cond"], cond)
                health["over_1e-8"] += err > DECODE_TOL
                if not err <= bound:
                    wrong.append(
                        f"pass {i} {scheme}: decoded A^T x relative error "
                        f"{err:.3e} > k_bar*eps*cond = {bound:.3e}")
        return wrong, health


def check_repeatable(passes) -> list:
    """Exact nnz counts must not change from pass to pass."""
    tables = [p.findings.facts.get("coded_nnz_mean") for p in passes]
    if any(t != tables[0] for t in tables[1:]):
        return ["coded_nnz_mean differs between passes"]
    return []


# ---------------------------------------------------------------------------
# metrics

_NONE = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_us": 0.0,
         "p99_us": 0.0}


def layer_metrics(tracer: spans.Tracer, traced: Pass, untraced: Pass,
                  atx: dict) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads 0."""
    st = tracer.stats()

    def get(name, tag=""):
        return st.get((name, tag), _NONE)

    m = {}
    for fn in ("random_sparse", "random_dense", "partition_uniform"):
        m[f"matrices.{fn}.busy_s"] = (get(f"matrices.{fn}")["busy_s"], "s")
    for kind in ("sparse", "dense"):
        s = get("matrices.matvec_t", kind)
        m[f"matrices.matvec_t.calls.{kind}"] = (s["calls"], "count")
        m[f"matrices.matvec_t.busy_s.{kind}"] = (s["busy_s"], "s")
        m[f"matrices.matvec_t.p50_us.{kind}"] = (s["p50_us"], "us")
        m[f"matrices.matvec_t.p99_us.{kind}"] = (s["p99_us"], "us")
    m["matrices.spmv_bytes_computed"] = (tracer.spmv_bytes, "bytes")

    for scheme in SCHEMES:
        m[f"coding.encode.busy_s.{scheme}"] = (
            get("coding.encode", scheme)["busy_s"], "s")
        m[f"coding.iter_encoded_blocks.busy_s.{scheme}"] = (
            get("coding.iter_encoded_blocks", scheme)["busy_s"], "s")
    m["coding.build_plan.busy_s"] = (get("coding.build_plan")["busy_s"], "s")
    m["coding.blocks_encoded"] = (
        tracer.yields["coding.iter_encoded_blocks"], "count")
    facts = traced.findings.facts
    nnz = facts.get("coded_nnz_mean", {})
    for zf in ZERO_FRACTIONS:
        for scheme in SCHEMES:
            m[f"coding.coded_nnz_mean.{scheme}.{zf}"] = (
                nnz.get((scheme, repr(zf)), 0.0), "count")
        dense = nnz.get(("dense", repr(zf)))
        m[f"coding.nnz_ratio_5a.{zf}"] = (
            nnz[("proposed", repr(zf))] / dense if dense else 0.0, "ratio")

    d = get("decoding.decode")
    for stat, unit in (("calls", "count"), ("busy_s", "s"), ("p50_us", "us"),
                       ("p99_us", "us")):
        m[f"decoding.decode.{stat}"] = (d[stat], unit)
    m["decoding.problem_from_workload.busy_s"] = (
        get("decoding.problem_from_workload")["busy_s"], "s")
    computed, used = tracer.products_computed(), tracer.products_used
    m["decoding.products_computed"] = (sum(computed.values()), "count")
    m["decoding.products_used"] = (sum(used.values()), "count")
    total = sum(computed.values())
    m["decoding.products_used_ratio"] = (
        sum(used.values()) / total if total else 0.0, "ratio")
    for cmd in ("simulate", "fl_demo"):
        c = computed[f"cli.{cmd}"]
        m[f"decoding.products_used_ratio.{cmd}"] = (
            used[f"cli.{cmd}"] / c if c else 0.0, "ratio")
    m["decoding.check_all_subsets.busy_s"] = (
        get("decoding.check_all_subsets")["busy_s"], "s")
    m["decoding.subsets_checked"] = (
        facts.get("subsets_checked", 0), "count")
    h = get("decoding.check_hall_condition")
    m["decoding.check_hall_condition.calls"] = (h["calls"], "count")
    m["decoding.check_hall_condition.busy_s"] = (h["busy_s"], "s")
    m["decoding.resilience_patterns.busy_s"] = (
        get("decoding.resilience_patterns")["busy_s"], "s")
    # computed from the arguments: every client set up to max_stragglers
    if "patterns_max_stragglers" in facts:
        patterns = sum(math.comb(facts["clients"], s) for s in
                       range(facts["patterns_max_stragglers"] + 1))
    else:
        patterns = 0
    m["decoding.patterns_enumerated"] = (patterns, "count")
    m["decoding.max_cond"] = (facts.get("max_cond", 0.0), "ratio")
    m["decoding.atx_rel_err"] = (atx.get("rel_err", 0.0), "ratio")
    m["decoding.atx_cond"] = (atx.get("cond", 0.0), "ratio")
    m["decoding.atx_rel_err_over_1e-8"] = (atx.get("over_1e-8", 0), "count")

    r = get("simulate.simulate_round")
    m["simulate.simulate_round.calls"] = (r["calls"], "count")
    m["simulate.simulate_round.self_s"] = (r["self_s"], "s")
    p = get("simulate.privacy_report")
    m["simulate.privacy_report.calls"] = (p["calls"], "count")
    m["simulate.privacy_report.busy_s"] = (p["busy_s"], "s")
    m["simulate.fl_demo.self_s"] = (get("simulate.fl_demo")["self_s"], "s")
    for fn in ("plain_gd", "gradient_lipschitz_bound"):
        m[f"simulate.{fn}.busy_s"] = (get(f"simulate.{fn}")["busy_s"], "s")
    m["simulate.sparse_compute_benchmark.self_s"] = (
        get("simulate.sparse_compute_benchmark")["self_s"], "s")

    m["config.load_config.busy_s"] = (get("config.load_config")["busy_s"], "s")

    for cmd in SUBCOMMANDS:
        c = get(f"cli.{cmd}")
        m[f"cli.{cmd}.busy_s"] = (c["busy_s"], "s")
        m[f"cli.{cmd}.self_s"] = (c["self_s"], "s")
    m["cli.output_bytes"] = (traced.output_bytes, "bytes")

    m["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: seconds-long sizes for the self-check")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "codedfl" / "__init__.py").is_file():
        print(f"error: no codedfl sources under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    docs = wl.configs(args.seed, args.size == "toy")
    paths = {}
    for name, doc in docs.items():
        doc["out"] = str(work / "out")
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(doc, indent=2) + "\n")

    setup = ([] if args.trace else
             [probe_setup(paths["simulate"]) for _ in range(SETUP_PROBES)])
    runner = Runner(import_cli(), wl, docs, paths, work / "out")
    if args.trace:
        untraced = runner.run_pass()
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
        passes = [untraced, runner.run_pass(tracer)]
    else:
        ref = reference.Reference(args.workload, args.size == "toy")
        ref.time()              # warm-up: first-call costs stay out of it
        refs = [ref.time()]
        # no pass starts that would end past --seconds, as far as the last
        # pass and reference predict; the first always runs
        t0 = perf_counter()
        passes = []
        while not passes or (perf_counter() - t0 + passes[-1].wall + refs[-1]
                             <= args.seconds):
            passes.append(runner.run_pass())
            refs.append(ref.time())
        rel = [p.wall / ((a + b) / 2)
               for p, a, b in zip(passes, refs, refs[1:])]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = sum(p.findings.failed for p in passes)
    notes = [n for p in passes for n in p.findings.notes]
    wrong, atx = runner.check_decoded(passes)
    wrong = [w for p in passes for w in p.findings.wrong] + wrong \
        + check_repeatable(passes)
    attempted = wl.ops(docs) * len(passes)

    walls = [p.wall for p in passes]
    if args.trace:
        tracer.write(work / "spans.jsonl")
        metrics = layer_metrics(tracer, passes[1], passes[0], atx)
    else:
        wall = statistics.median(walls)
        metrics = {"wall_rel": (statistics.median(rel), "ref"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        raw = {"wall_s": wall, "ops_per_s": wl.ops(docs) / wall,
               "reference_s": statistics.median(refs)}

    env = machine.describe(ROOT, SRC, args.workload, args.seed)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"environment": env, "passes_wall_s": walls,
              "passes_wall_rel": [] if args.trace else rel,
              "reference_s": [] if args.trace else refs,
              "raw": {} if args.trace else raw,
              "setup_samples_s": setup, "ops_unit": wl.ops_unit,
              "failed_ops": notes, "wrong_outputs": wrong, **result}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, wall " + ", ".join(f"{w:.3f}" for w in walls)
          + " s" + (f"; setup samples {len(setup)}" if setup else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"raw, not gated: wall_s = {raw['wall_s']:.6g} s, ops_per_s = "
              f"{raw['ops_per_s']:.6g} 1/s, reference_s = "
              f"{raw['reference_s']:.6g} s")
    print(f"failed_ops_ratio = {failed}/{attempted} = {failed / attempted:.3g} "
          f"(base: {wl.ops_unit})")
    for n in notes[:20]:
        print(f"failed op: {n}", file=sys.stderr)
    for w in wrong[:20]:
        print(f"check failed: {w}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
