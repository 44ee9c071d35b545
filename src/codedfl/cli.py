"""Command-line entry point: plan, verify, simulate, fl-demo.  Every round
decodes real products of an encoded matrix (see _make_matrix).

Exit codes: 0 success, 1 diverging descent, 2 configuration error (a bad
config, stored plan or out; nothing is written), 3 verification failure, 4
decode failure where success was required.  All CSV output is written
with repr-formatted numbers and no timestamps (trajectory.csv straight
from the Python floats of ``tolist()``, the same bytes that formatting
each numpy scalar gives), so a rerun with the same
config, seed, numpy, scipy and BLAS thread count reproduces the files
byte for byte, except benchmark_times.csv (measured wall-clock medians)
and manifest.json (its creation time, those versions and thread variables).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import coding as cd
from . import decoding as dec
from . import matrices as mx
from . import simulate as sim
from .config import ConfigError, ExperimentConfig, load_config

# rng stream tags so draw order never depends on run structure
_TAG_MATRIX, _TAG_X, _TAG_TRIAL, _TAG_FL = 1, 2, 3, 4

_CONFIG_ERRORS = (ConfigError, cd.RosterError, cd.PlanError, sim.SimConfigError,
                  mx.PartitionError, mx.ShapeError)


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (tuple, list)):
        return ";".join(str(x) for x in v)
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_trajectory(path: Path, header, losses, betas) -> None:
    # one line per step: the step, its loss, its betas.  repr of a Python
    # float is what _fmt writes for a float cell, and a number needs no
    # quoting, so these are _write_csv's bytes at half its cost
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(f"{t},{loss!r},{','.join(map(repr, beta))}\n"
                      for t, (loss, beta) in enumerate(zip(losses.tolist(),
                                                           betas.tolist())))


def _write_manifest(out_dir: Path, cfg_hash: str | None, seed: int,
                    outputs) -> None:
    doc = {
        "config_hash": cfg_hash,
        "seed": seed,
        "version": __version__,
        "numpy": np.__version__,
        # null unless this command loaded scipy; plan and verify never do
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "blas_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "created": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(str(o) for o in outputs),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _out_dir(path) -> Path:
    # called just before a command's first write: a rejected run leaves none
    d = Path(path)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as e:    # a file in the way, or no permission
        raise ConfigError(f"out: {e}") from e
    return d


def _make_matrix(cfg: ExperimentConfig, zero_fraction=None):
    """Materialize the configured matrix, rows divided by the scale factor;
    with no matrix section, one standard normal row of k_bar blocks, each
    roster.base_width wide."""
    spec = cfg.matrix
    rng = np.random.default_rng([cfg.seed, _TAG_MATRIX])
    if spec is None:
        return mx.random_dense(1, cfg.roster.k_bar * cfg.roster.base_width, rng)
    if spec.source == "file":
        try:
            return mx.load_matrix(spec.path)
        except (OSError, ValueError) as e:
            raise ConfigError(f"matrix.path: {e}") from e
    rows = max(1, spec.rows // cfg.scale)
    if spec.kind == "sparse":
        zf = spec.zero_fraction if zero_fraction is None else zero_fraction
        return mx.random_sparse(rows, spec.cols, 1.0 - zf, rng)
    return mx.random_dense(rows, spec.cols, rng)


def _allocation_lines(plan: cd.CodingPlan) -> list:
    lines = [f"scheme={plan.scheme} k_bar={plan.k_bar} s_bar={plan.s_bar} "
             f"workers={plan.n_bar}"]
    for c in plan.roster.clients:
        parts = []
        for w in plan.workers_of(c.id):
            blocks = ",".join(f"A_{q}" for q in plan.specs[w].support)
            parts.append(f"worker {w} -> {{{blocks}}}")
        body = "; ".join(parts) if parts else "no workers"
        lines.append(f"W_{c.id} ({c.role}, type {c.type_index}, "
                     f"c={c.multiplier}): {body}")
    lines.append(f"transfers: raw={len(plan.raw_transfers())} "
                 f"coded={len(plan.coded_transfers())}")
    return lines


# ---------------------------------------------------------------------------
# subcommands

def cmd_plan(cfg: ExperimentConfig) -> int:
    plans = [cd.build_plan(s, cfg.roster, cfg.seed) for s in cfg.schemes]
    out = _out_dir(cfg.out)
    outputs = []
    for scheme, plan in zip(cfg.schemes, plans):
        plan_path = out / f"plan_{scheme}.json"
        with open(plan_path, "w") as fh:
            json.dump(cd.plan_to_dict(plan), fh, indent=2)
            fh.write("\n")
        lines = _allocation_lines(plan)
        alloc_path = out / f"allocation_{scheme}.txt"
        alloc_path.write_text("\n".join(lines) + "\n")
        outputs += [plan_path, alloc_path]
        print("\n".join(lines))
    _write_manifest(out, cfg.config_hash(), cfg.seed, outputs)
    return 0


def cmd_verify(args, cfg: ExperimentConfig | None) -> int:
    if args.sample is not None and args.sample < 1:
        return _fail(f"--sample must be >= 1, got {args.sample}", 2)
    if args.max_stragglers is not None and args.max_stragglers < 0:
        return _fail(f"--max-stragglers must be >= 0, got {args.max_stragglers}",
                     2)
    if args.plan:
        try:
            with open(args.plan) as fh:
                plan = cd.plan_from_dict(json.load(fh))
        except OSError as e:
            return _fail(f"cannot read plan: {e}", 2)
        except json.JSONDecodeError as e:
            return _fail(f"plan file is not valid JSON: {e}", 2)
        if cfg is not None:     # cfg already applies --seed and --out
            seed, out = cfg.seed, cfg.out
        else:
            seed = args.seed if args.seed is not None else 0
            out = args.out or "."
    elif cfg is not None:
        plan = cd.build_plan(cfg.schemes[0], cfg.roster, cfg.seed)
        seed = cfg.seed
        out = cfg.out
    else:
        return _fail("verify needs --plan or --config", 2)

    try:
        cert = dec.certify(plan, args.max_stragglers, args.sample, seed)
    except dec.SubsetGuardError as e:
        return _fail(str(e), 2)
    report, patterns = cert.subsets, cert.patterns
    n = report.subsets_checked

    doc = {
        "subsets": report.to_dict(),
        "matching": {"checked": n, "failures": cert.unmatched,
                     "all_perfect": not cert.unmatched},
        "patterns": {
            "max_stragglers": cert.max_stragglers,
            "entries": [
                {"types": list(e.types), "sets": e.n_sets,
                 "tolerable": e.n_tolerable,
                 "removed_virtual": e.removed_virtual,
                 "all_tolerable": e.all_tolerable}
                for e in patterns.entries],
            "maximal_tolerable": [list(t) for t in patterns.maximal_tolerable],
            "lines": patterns.describe(),
        },
    }
    path = _out_dir(out) / "resilience.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    # a stored plan read on its own has no config to hash
    _write_manifest(path.parent, None if cfg is None else cfg.config_hash(),
                    seed, [path])

    print(f"subsets: {n - len(report.failures)}/{n} full rank "
          f"({'exhaustive' if report.exhaustive else 'sampled'}; "
          f"ranked {report.subsets_ranked} of {n} exactly)")
    print(f"matching: {n - len(cert.unmatched)}/{n} perfect")
    worst = "none" if report.worst_subset is None else list(report.worst_subset)
    print(f"condition numbers: max={report.max_cond:.3e} worst subset={worst}")
    for line in patterns.describe():
        print(f"pattern {line}")
    if not cert.ok:
        for f in report.failures[:5]:
            print(f"rank failure at subset {list(f)}", file=sys.stderr)
        for f in cert.unmatched[:5]:
            print(f"matching failure at subset {list(f)}", file=sys.stderr)
        return 3
    return 0


def _simulate_rounds(cfg, workload, x):
    # every trial shares x, so each product is computed once for all of
    # them; the memo holds the workload and must die with this call
    products = dec.ProductMemo(workload, x)
    plan = workload.plan
    raw, coded = len(plan.raw_transfers()), len(plan.coded_transfers())
    rows = []
    any_decode_failure = False
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, _TAG_TRIAL, t])
        rep = sim.simulate_round(products, cfg.timing, cfg.comm, rng)
        any_decode_failure |= not rep.decode_ok
        rows.append([
            plan.scheme, t, plan.k_bar, plan.s_bar, raw, coded,
            rep.total_bytes_d2d, rep.comm_delay, rep.completion_time,
            rep.decode_ok, rep.decode_residual, rep.decode_error or "",
            rep.failed_clients,
        ])
    return rows, any_decode_failure


ROUND_HEADER = ["scheme", "trial", "k_bar", "s_bar", "raw_transfers",
                "coded_transfers", "total_bytes", "comm_delay",
                "completion_time", "decode_ok", "decode_residual",
                "decode_error", "failed_clients"]
PRIVACY_HEADER = ["scheme", "client", "role", "type_index", "multiplier",
                  "raw_fraction", "coded_support_fraction"]
BENCH_HEADER = ["scheme", "zero_fraction", "k_bar", "n_workers", "alpha",
                "rows", "mean_nnz", "max_nnz", "trials"]
BENCH_TIMES_HEADER = ["scheme", "zero_fraction", "mean_time_s", "max_time_s"]


def _bench_level(cfg, pairs, x, zf):
    # every level has the rounds' rows, so it reads the rounds' x
    return sim.sparse_compute_benchmark(pairs, x, zero_fraction=zf,
                                        trials=cfg.bench.timing_trials,
                                        warmup=cfg.bench.warmup)


def cmd_simulate(cfg: ExperimentConfig, require_decode: bool) -> int:
    outputs = []

    plans = {s: cd.build_plan(s, cfg.roster, cfg.seed) for s in cfg.schemes}
    # the partition holds the matrix itself, so the matrix lives exactly
    # as long as P does
    P = mx.partition_uniform(_make_matrix(cfg), cfg.roster.k_bar)
    x = np.random.default_rng([cfg.seed, _TAG_X]).standard_normal(P.rows)
    workload_by_scheme = {s: cd.encode(P, plan) for s, plan in plans.items()}
    del P

    round_rows = []
    privacy_rows = []
    any_failure = False
    for s in cfg.schemes:
        plan = plans[s]
        rows, failed = _simulate_rounds(cfg, workload_by_scheme[s], x)
        any_failure |= failed
        round_rows += rows
        exposure = sim.privacy_report(plan)
        for c in plan.roster.clients:
            e = exposure[c.id]
            privacy_rows.append([s, c.id, c.role, c.type_index, c.multiplier,
                                 e.raw_fraction, e.coded_support_fraction])

    # the bench section would regenerate this very matrix at its own level,
    # so that level is measured on the rounds' blocks; then they are freed
    # before the other levels generate their matrices (at 1000 x 31500 and
    # 99% zeros the dense scheme's blocks alone take about 67 MB, their
    # index arrays shared)
    levels = cfg.bench.zero_fractions if cfg.bench is not None else ()
    bench_plans = [plans[s] for s in cfg.schemes]
    tables = {}
    if cfg.matrix is not None and cfg.matrix.zero_fraction in levels:
        tables[cfg.matrix.zero_fraction] = _bench_level(
            cfg, [(p, workload_by_scheme[p.scheme].coded) for p in bench_plans],
            x, cfg.matrix.zero_fraction)
    del workload_by_scheme

    out = _out_dir(cfg.out)
    _write_csv(out / "round.csv", ROUND_HEADER, round_rows)
    _write_csv(out / "privacy.csv", PRIVACY_HEADER, privacy_rows)
    outputs += [out / "round.csv", out / "privacy.csv"]

    for zf in levels:
        if zf in tables:    # the own level, or a repeat: measured once
            continue
        Pz = mx.partition_uniform(_make_matrix(cfg, zf), cfg.roster.k_bar)
        # each block is encoded as it is measured, and dropped after
        tables[zf] = _bench_level(
            cfg, [(p, (b for _, b in cd.iter_encoded_blocks(Pz, p)))
                  for p in bench_plans], x, zf)
        del Pz
    if cfg.bench is not None:
        bench_rows, time_rows = [], []
        for zf in levels:
            for r in tables[zf]:
                bench_rows.append([r.scheme, zf, r.k_bar, r.n_workers, r.alpha,
                                   r.rows, r.mean_nnz, r.max_nnz, r.trials])
                time_rows.append([r.scheme, zf, r.mean_time, r.max_time])
        _write_csv(out / "benchmark.csv", BENCH_HEADER, bench_rows)
        _write_csv(out / "benchmark_times.csv", BENCH_TIMES_HEADER, time_rows)
        outputs += [out / "benchmark.csv", out / "benchmark_times.csv"]

    _write_manifest(out, cfg.config_hash(), cfg.seed, outputs)
    for row in round_rows:
        print(f"{row[0]} trial {row[1]}: transfers={row[4]}+{row[5]} "
              f"bytes={row[6]} completion={_fmt(row[8])} decode_ok={row[9]}")
    if require_decode and any_failure:
        return _fail("a simulated round failed to decode", 4)
    return 0


def cmd_fl_demo(cfg: ExperimentConfig, check: bool) -> int:
    fl = cfg.fl
    if fl is None:
        raise ConfigError("fl: section required for fl-demo")
    plan = cd.build_plan(cfg.schemes[0], cfg.roster, cfg.seed)
    rng = np.random.default_rng([cfg.seed, _TAG_FL])
    D = mx.random_dense(fl.rows, fl.cols, rng)
    y = rng.standard_normal(fl.rows)
    try:
        res = sim.fl_demo(D, y, plan, fl.steps, seed=cfg.seed,
                          stragglers_per_round=fl.stragglers_per_round,
                          timing=cfg.timing)
    except dec.DecodeError as e:
        return _fail(f"round decode failed after retries: {e}", 4)

    increases = np.diff(res.losses)
    worst = float(increases.max()) if len(increases) else 0.0
    if worst > 1e-9 * max(1.0, float(res.losses.max())):
        return _fail(f"loss increased by {worst:.3e} during descent; "
                     f"stepsize {res.stepsize:.3e} with L={res.lipschitz:.3e}",
                     1)

    header = ["step", "loss"] + [f"beta_{j}" for j in range(fl.cols)]
    out = _out_dir(cfg.out)
    _write_trajectory(out / "trajectory.csv", header, res.losses, res.betas)
    _write_manifest(out, cfg.config_hash(), cfg.seed, [out / "trajectory.csv"])
    print(f"steps={fl.steps} final_loss={_fmt(res.losses[-1])} "
          f"stepsize={_fmt(res.stepsize)} retries={res.rounds_retried}")

    if check:
        betas, _ = sim.plain_gd(D, y, fl.steps, res.stepsize)
        for t in range(fl.steps + 1):
            scale = max(float(np.linalg.norm(betas[t])), 1.0)
            err = float(np.linalg.norm(res.betas[t] - betas[t]))
            if err > 1e-6 * scale:
                return _fail(
                    f"coded trajectory diverges from uncoded oracle at step "
                    f"{t}: error {err:.3e}", 3)
        print(f"check: coded trajectory matches uncoded oracle over "
              f"{fl.steps} steps")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int, help="root RNG seed (overrides config)")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--scale", type=int,
                   help="divide matrix rows by this factor (overrides config)")
    p.add_argument("--scheme", choices=cd.SCHEMES,
                   help="single scheme to run (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="codedfl",
        description="Straggler-resilient coded matrix-vector multiplication "
                    "toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="build a coding plan and allocation table")
    _add_common(p)

    p = sub.add_parser("verify", help="certify resilience of a plan")
    _add_common(p)
    p.add_argument("--plan", help="stored plan JSON to verify")
    p.add_argument("--sample", type=int,
                   help="rank-test this many random subsets instead of all")
    p.add_argument("--max-stragglers", type=int, dest="max_stragglers",
                   help="largest straggler-set size in the pattern report")

    p = sub.add_parser("simulate", help="run rounds, privacy, benchmark")
    _add_common(p)
    p.add_argument("--require-decode", action="store_true",
                   help="exit 4 if any simulated round fails to decode")

    p = sub.add_parser("fl-demo", help="coded gradient-descent demo")
    _add_common(p)
    p.add_argument("--check", action="store_true",
                   help="compare against the uncoded descent oracle")
    return ap


def _config_from_args(args) -> ExperimentConfig | None:
    if not args.config:
        return None
    overrides = {"seed": args.seed, "out": args.out, "scale": args.scale,
                 "schemes": [args.scheme] if args.scheme else None}
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if cfg is None:
            return _fail("--config is required", 2)
        if args.command == "plan":
            return cmd_plan(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.require_decode)
        if args.command == "fl-demo":
            return cmd_fl_demo(cfg, args.check)
        return _fail(f"unknown command {args.command}", 2)
    except _CONFIG_ERRORS as e:
        return _fail(str(e), 2)


if __name__ == "__main__":
    sys.exit(main())
