"""Command-line entry point: plan, verify, simulate, fl-demo.

Exit codes: 0 success, 2 configuration error, 3 verification failure,
4 decode failure where success was required.  All CSV output is written
with repr-formatted numbers and no timestamps, so a rerun with the same
config and seed reproduces the files byte for byte; the one exception is
benchmark_times.csv, which holds measured wall-clock medians and is
documented as non-deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
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
from .config import ConfigError, ExperimentConfig, FlSpec, load_config

# rng stream tags so draw order never depends on run structure
_TAG_MATRIX, _TAG_X, _TAG_TRIAL, _TAG_FL = 1, 2, 3, 4

_CONFIG_ERRORS = (ConfigError, cd.RosterError, cd.PlanError, sim.SimConfigError,
                  sim.StepsizeError, mx.PartitionError, mx.ExpansionError,
                  mx.ShapeError)


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


def _write_manifest(out_dir: Path, cfg_hash: str, seed: int, outputs) -> None:
    doc = {
        "config_hash": cfg_hash,
        "seed": seed,
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(str(o) for o in outputs),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _out_dir(cfg: ExperimentConfig) -> Path:
    d = Path(cfg.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _make_matrix(cfg: ExperimentConfig, zero_fraction=None):
    """Materialize the configured matrix, rows divided by the scale factor."""
    spec = cfg.matrix
    if spec is None:
        raise ConfigError("matrix: section required for this command")
    if spec.source == "file":
        try:
            return mx.load_matrix(spec.path)
        except (OSError, ValueError) as e:
            raise ConfigError(f"matrix.path: {e}") from e
    rows = max(1, spec.rows // cfg.scale)
    rng = np.random.default_rng([cfg.seed, _TAG_MATRIX])
    if spec.kind == "sparse":
        zf = spec.zero_fraction if zero_fraction is None else zero_fraction
        return mx.random_sparse(rows, spec.cols, 1.0 - zf, rng)
    return mx.random_dense(rows, spec.cols, rng)


def _partition(cfg: ExperimentConfig, k_bar: int, zero_fraction=None):
    """The configured matrix split into k_bar block-columns.

    Only the partition is returned, so the full matrix is freed before the
    caller encodes its blocks.
    """
    M = _make_matrix(cfg, zero_fraction)
    if M.cols % k_bar != 0:
        raise ConfigError(
            f"matrix.cols: {M.cols} columns do not split into {k_bar} blocks")
    return mx.partition_uniform(M, k_bar)


def _allocation_lines(plan: cd.CodingPlan, roster: cd.ClientRoster) -> list:
    lines = [f"scheme={plan.scheme} k_bar={plan.k_bar} s_bar={plan.s_bar} "
             f"workers={plan.n_bar}"]
    specs_by_client = {}
    for s in plan.specs:
        specs_by_client.setdefault(s.owner_client, []).append(s)
    for c in roster.clients:
        parts = []
        for s in specs_by_client.get(c.id, []):
            blocks = ",".join(f"A_{q}" for q in s.support)
            parts.append(f"worker {s.worker} -> {{{blocks}}}")
        body = "; ".join(parts) if parts else "no workers"
        lines.append(f"W_{c.id} ({c.role}, type {c.type_index}, "
                     f"c={c.multiplier}): {body}")
    lines.append(f"transfers: raw={len(plan.raw_transfers())} "
                 f"coded={len(plan.coded_transfers())}")
    return lines


# ---------------------------------------------------------------------------
# subcommands

def cmd_plan(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    outputs = []
    for scheme in cfg.schemes:
        plan = cd.build_plan(scheme, cfg.roster, cfg.seed, cfg.poly_points)
        plan_path = out / f"plan_{scheme}.json"
        with open(plan_path, "w") as fh:
            json.dump(cd.plan_to_dict(plan, cfg.roster), fh, indent=2)
            fh.write("\n")
        lines = _allocation_lines(plan, cfg.roster)
        alloc_path = out / f"allocation_{scheme}.txt"
        alloc_path.write_text("\n".join(lines) + "\n")
        outputs += [plan_path, alloc_path]
        print("\n".join(lines))
    _write_manifest(out, cfg.config_hash(), cfg.seed, outputs)
    return 0


def cmd_verify(args, cfg: ExperimentConfig | None) -> int:
    if args.plan:
        try:
            with open(args.plan) as fh:
                plan, roster = cd.plan_from_dict(json.load(fh))
        except OSError as e:
            return _fail(f"cannot read plan: {e}", 2)
        except json.JSONDecodeError as e:
            return _fail(f"plan file is not valid JSON: {e}", 2)
        seed = args.seed if args.seed is not None else 0
        out = Path(args.out or ".")
    elif cfg is not None:
        plan = cd.build_plan(cfg.schemes[0], cfg.roster, cfg.seed,
                             cfg.poly_points)
        roster = cfg.roster
        seed = cfg.seed
        out = _out_dir(cfg)
    else:
        return _fail("verify needs --plan or --config", 2)
    out.mkdir(parents=True, exist_ok=True)

    sample = args.sample
    if args.mode == "sampled" and sample is None:
        sample = 1000
    if args.mode == "exhaustive":
        sample = None
    try:
        report = dec.check_all_subsets(plan, sample=sample, seed=seed)
    except dec.SubsetGuardError as e:
        return _fail(f"{e} (use --mode sampled)", 2)

    # Full rank implies a perfect matching (see codedfl.decoding), so every
    # enumerated subset is certified and only rank failures need an
    # explicit augmenting-path search.
    match_checked = report.subsets_checked
    match_failures = [list(f) for f in report.failures
                      if not dec.check_hall_condition(plan, f).perfect]

    max_stragglers = args.max_stragglers
    if max_stragglers is None:
        max_stragglers = min(roster.n_clients, plan.s_bar + 1)
    try:
        patterns = dec.resilience_patterns(roster, plan, max_stragglers)
    except dec.SubsetGuardError as e:
        return _fail(f"{e} (lower --max-stragglers)", 2)

    doc = {
        "subsets": report.to_dict(),
        "matching": {"checked": match_checked, "failures": match_failures,
                     "all_perfect": not match_failures},
        "patterns": {
            "max_stragglers": max_stragglers,
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
    path = out / "resilience.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    ok = report.ok and not match_failures
    n = report.subsets_checked
    print(f"subsets: {n - len(report.failures)}/{n} full rank "
          f"({'exhaustive' if report.exhaustive else 'sampled'})")
    print(f"matching: {match_checked - len(match_failures)}/{match_checked} "
          "perfect")
    worst = "none" if report.worst_subset is None else list(report.worst_subset)
    print(f"condition numbers: min={report.min_cond:.3e} "
          f"max={report.max_cond:.3e} worst subset={worst}")
    for line in patterns.describe():
        print(f"pattern {line}")
    if not ok:
        for f in report.failures[:5]:
            print(f"rank failure at subset {list(f)}", file=sys.stderr)
        for f in match_failures[:5]:
            print(f"matching failure at subset {f}", file=sys.stderr)
        return 3
    return 0


def _simulate_rounds(cfg, plan, workload, x, n_rows):
    rows = []
    any_decode_failure = False
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, _TAG_TRIAL, t])
        rep = sim.simulate_round(plan, cfg.roster, cfg.timing, cfg.comm, rng,
                                 workload=workload, x=x, rows=n_rows)
        any_decode_failure |= not rep.decode_ok
        rows.append([
            rep.scheme, t, plan.k_bar, plan.s_bar,
            rep.raw_block_transfers, rep.coded_block_transfers,
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


def cmd_simulate(cfg: ExperimentConfig, require_decode: bool) -> int:
    out = _out_dir(cfg)
    outputs = []

    plans = {s: cd.build_plan(s, cfg.roster, cfg.seed, cfg.poly_points)
             for s in cfg.schemes}
    k_bars = {p.k_bar for p in plans.values()}
    if len(k_bars) != 1:
        raise ConfigError("schemes disagree on block count; "
                          "uncoded cannot mix with passive rosters here")
    k_bar = k_bars.pop()

    workload_by_scheme = {}
    x = None
    n_rows = 1
    if cfg.matrix is not None:
        P = _partition(cfg, k_bar)
        n_rows = P.rows
        x = np.random.default_rng([cfg.seed, _TAG_X]).standard_normal(P.rows)
        for s, plan in plans.items():
            workload_by_scheme[s] = cd.encode(P, plan)
        del P

    round_rows = []
    privacy_rows = []
    any_failure = False
    for s in cfg.schemes:
        plan = plans[s]
        rows, failed = _simulate_rounds(cfg, plan, workload_by_scheme.get(s),
                                        x, n_rows)
        any_failure |= failed
        round_rows += rows
        exposure = sim.privacy_report(plan, cfg.roster)
        for c in cfg.roster.clients:
            e = exposure.of(c.id)
            privacy_rows.append([s, c.id, c.role, c.type_index, c.multiplier,
                                 e.raw_fraction, e.coded_support_fraction])

    # the coded blocks serve the rounds only; free them before the bench
    # section generates its own matrices (at 1000 x 31500 and 99% zeros
    # the dense scheme's blocks alone take 95 MB)
    del workload_by_scheme

    _write_csv(out / "round.csv", ROUND_HEADER, round_rows)
    _write_csv(out / "privacy.csv", PRIVACY_HEADER, privacy_rows)
    outputs += [out / "round.csv", out / "privacy.csv"]

    if cfg.bench is not None:
        if cfg.matrix is None or cfg.matrix.source != "synthetic" \
                or cfg.matrix.kind != "sparse":
            raise ConfigError(
                "bench: requires a synthetic sparse matrix section")
        bench_rows, time_rows = [], []
        for zf in cfg.bench.zero_fractions:
            Pz = _partition(cfg, k_bar, zero_fraction=zf)
            xz = np.random.default_rng([cfg.seed, _TAG_X]).standard_normal(Pz.rows)
            table = sim.sparse_compute_benchmark(
                Pz, [plans[s] for s in cfg.schemes], xz, zero_fraction=zf,
                trials=cfg.bench.timing_trials, warmup=cfg.bench.warmup)
            for r in table:
                bench_rows.append([r.scheme, r.zero_fraction, r.k_bar,
                                   r.n_workers, r.alpha, r.rows, r.mean_nnz,
                                   r.max_nnz, r.trials])
                time_rows.append([r.scheme, r.zero_fraction, r.mean_time,
                                  r.max_time])
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
    out = _out_dir(cfg)
    fl = cfg.fl if cfg.fl is not None else FlSpec()
    n, late = cfg.roster.n_clients, fl.stragglers_per_round
    if late > n:
        raise ConfigError(f"fl.stragglers_per_round: must be <= {n}, got {late}")
    rng = np.random.default_rng([cfg.seed, _TAG_FL])
    D = mx.random_dense(fl.rows, fl.cols, rng)
    y = rng.standard_normal(fl.rows)
    try:
        res = sim.fl_demo(D, y, cfg.roster, fl.steps, fl.stepsize,
                          seed=cfg.seed,
                          stragglers_per_round=fl.stragglers_per_round,
                          scheme=cfg.schemes[0], timing=cfg.timing,
                          poly_points=cfg.poly_points)
    except dec.DecodeError as e:
        return _fail(f"round decode failed after retries: {e}", 4)

    increases = np.diff(res.losses)
    worst = float(increases.max()) if len(increases) else 0.0
    if worst > 1e-9 * max(1.0, float(res.losses.max())):
        return _fail(f"loss increased by {worst:.3e} during descent; "
                     f"stepsize {res.stepsize:.3e} with L={res.lipschitz:.3e}",
                     1)

    header = ["step", "loss"] + [f"beta_{j}" for j in range(fl.cols)]
    rows = [[t, res.losses[t]] + list(res.betas[t])
            for t in range(len(res.losses))]
    _write_csv(out / "trajectory.csv", header, rows)
    _write_manifest(out, cfg.config_hash(), cfg.seed, [out / "trajectory.csv"])
    print(f"steps={fl.steps} final_loss={_fmt(res.losses[-1])} "
          f"stepsize={_fmt(res.stepsize)} retries={res.rounds_retried}")

    if check or fl.check:
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
    p.add_argument("--scheme", choices=["proposed", "dense", "poly", "uncoded"],
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
    p.add_argument("--mode", choices=["exhaustive", "sampled"],
                   default="exhaustive")
    p.add_argument("--sample", type=int,
                   help="number of sampled subsets (implies sampled mode)")
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
                 "scheme": args.scheme}
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            if args.sample is not None:
                args.mode = "sampled"
            cfg = _config_from_args(args)
            return cmd_verify(args, cfg)
        cfg = _config_from_args(args)
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
