"""Experiment configuration: one JSON document, totally validated.

Every run is described by a config dict (usually a file) plus optional
flag overrides; the canonical post-override dict is hashed into the run
manifest so reruns are attributable.  Validation is strict and named: an
unknown key, wrong type, or out-of-range value raises ConfigError with
the offending path rather than failing somewhere mid-run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .coding import ClientRoster, RosterError, make_roster
from .simulate import CommModel, SimConfigError, TimingModel

SCHEMES = ("proposed", "dense", "poly", "uncoded")


class ConfigError(ValueError):
    """Configuration rejected; message names the bad field."""


def _expect(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _as_int(v, path, lo=None, hi=None):
    _expect(isinstance(v, int) and not isinstance(v, bool), path,
            f"expected an integer, got {v!r}")
    if lo is not None:
        _expect(v >= lo, path, f"must be >= {lo}, got {v}")
    if hi is not None:
        _expect(v <= hi, path, f"must be <= {hi}, got {v}")
    return v


def _as_num(v, path, lo=None):
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool), path,
            f"expected a number, got {v!r}")
    if lo is not None:
        _expect(v >= lo, path, f"must be >= {lo}, got {v}")
    return float(v)


def _as_str(v, path, choices=None):
    _expect(isinstance(v, str), path, f"expected a string, got {v!r}")
    if choices is not None:
        _expect(v in choices, path, f"must be one of {choices}, got {v!r}")
    return v


def _check_keys(d, path, allowed):
    _expect(isinstance(d, dict), path, f"expected an object, got {d!r}")
    for k in d:
        _expect(k in allowed, f"{path}.{k}", "unknown key")


@dataclass(frozen=True)
class MatrixSpec:
    source: str                  # "synthetic" | "file"
    rows: int = 0
    cols: int = 0
    kind: str = "dense"          # synthetic only: "dense" | "sparse"
    zero_fraction: float = 0.0   # synthetic sparse only
    path: str = ""


@dataclass(frozen=True)
class BenchSpec:
    zero_fractions: tuple[float, ...] = (0.95, 0.98, 0.99)
    timing_trials: int = 11
    warmup: int = 2


@dataclass(frozen=True)
class FlSpec:
    rows: int = 60
    cols: int = 21
    steps: int = 100
    stepsize: float | None = None
    stragglers_per_round: int = 2
    check: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    schemes: tuple[str, ...]
    roster: ClientRoster
    matrix: MatrixSpec | None
    scale: int
    timing: TimingModel
    comm: CommModel
    trials: int
    bench: BenchSpec | None
    fl: FlSpec | None
    out: str
    poly_points: tuple[float, ...] | None
    raw: dict = field(compare=False, repr=False, default_factory=dict)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


_TOP_KEYS = {"seed", "scheme", "schemes", "roster", "matrix", "scale", "timing",
             "comm", "trials", "bench", "fl", "out", "poly_points"}


def _parse_roster(d) -> ClientRoster:
    _check_keys(d, "roster", {"active", "passive", "base_width", "base_speed"})
    _expect("active" in d, "roster.active", "required")
    act = d["active"]
    pas = d.get("passive", [])
    for name, lst in (("active", act), ("passive", pas)):
        _expect(isinstance(lst, list), f"roster.{name}", "expected a list")
        for i, v in enumerate(lst):
            _as_int(v, f"roster.{name}[{i}]", lo=1)
    width = _as_int(d.get("base_width", 1), "roster.base_width", lo=1)
    speed = _as_num(d.get("base_speed", 1.0), "roster.base_speed")
    _expect(speed > 0, "roster.base_speed", f"must be > 0, got {speed}")
    try:
        return make_roster(act, pas, base_width=width, base_speed=speed)
    except RosterError as e:
        raise ConfigError(f"roster: {e}") from e


def _parse_matrix(d) -> MatrixSpec:
    _check_keys(d, "matrix",
                {"source", "rows", "cols", "kind", "zero_fraction", "path"})
    source = _as_str(d.get("source", "synthetic"), "matrix.source",
                     ("synthetic", "file"))
    if source == "file":
        path = _as_str(d.get("path", ""), "matrix.path")
        _expect(bool(path), "matrix.path", "required for source=file")
        return MatrixSpec(source="file", path=path)
    rows = _as_int(d.get("rows", 0), "matrix.rows", lo=1)
    cols = _as_int(d.get("cols", 0), "matrix.cols", lo=1)
    kind = _as_str(d.get("kind", "dense"), "matrix.kind", ("dense", "sparse"))
    zf = _as_num(d.get("zero_fraction", 0.0), "matrix.zero_fraction", lo=0.0)
    _expect(zf < 1.0, "matrix.zero_fraction", f"must be < 1, got {zf}")
    return MatrixSpec("synthetic", rows, cols, kind, zf)


def _parse_timing(d, n_clients: int) -> TimingModel:
    _check_keys(d, "timing", {"noise", "shift_by_type", "rate_by_type",
                              "failed_clients", "failure_prob"})
    noise = _as_num(d.get("noise", 1.0), "timing.noise", lo=0.0)
    failed = d.get("failed_clients", [])
    _expect(isinstance(failed, list), "timing.failed_clients", "expected a list")
    failed = tuple(_as_int(v, f"timing.failed_clients[{i}]", lo=0,
                           hi=n_clients - 1)
                   for i, v in enumerate(failed))
    prob = _as_num(d.get("failure_prob", 0.0), "timing.failure_prob", lo=0.0)
    _expect(prob <= 1.0, "timing.failure_prob", f"must be <= 1, got {prob}")

    def type_map(key):
        m = d.get(key)
        if m is None:
            return None
        _expect(isinstance(m, dict), f"timing.{key}", "expected an object")
        out = {}
        for k, v in m.items():
            try:
                t = int(k)
            except ValueError:
                raise ConfigError(f"timing.{key}: key {k!r} is not a type index")
            out[t] = _as_num(v, f"timing.{key}[{k}]", lo=0.0)
        return out

    try:
        return TimingModel(noise=noise, shift_by_type=type_map("shift_by_type"),
                           rate_by_type=type_map("rate_by_type"),
                           failed_clients=failed, failure_prob=prob)
    except SimConfigError as e:
        raise ConfigError(f"timing: {e}") from e


def _parse_comm(d) -> CommModel:
    _check_keys(d, "comm", {"link_latency", "per_byte_cost", "bytes_per_element",
                            "broadcast_cost"})
    kwargs = {k: _as_num(d[k], f"comm.{k}", lo=0.0) for k in d}
    try:
        return CommModel(**kwargs)
    except SimConfigError as e:
        raise ConfigError(f"comm: {e}") from e


def _parse_bench(d) -> BenchSpec:
    _check_keys(d, "bench", {"zero_fractions", "timing_trials", "warmup"})
    zfs = d.get("zero_fractions", [0.95, 0.98, 0.99])
    _expect(isinstance(zfs, list) and zfs, "bench.zero_fractions",
            "expected a non-empty list")
    zfs = tuple(_as_num(z, f"bench.zero_fractions[{i}]", lo=0.0)
                for i, z in enumerate(zfs))
    for i, z in enumerate(zfs):
        _expect(z < 1.0, f"bench.zero_fractions[{i}]", f"must be < 1, got {z}")
    return BenchSpec(zfs,
                     _as_int(d.get("timing_trials", 11), "bench.timing_trials", lo=1),
                     _as_int(d.get("warmup", 2), "bench.warmup", lo=0))


def _parse_fl(d) -> FlSpec:
    _check_keys(d, "fl", {"rows", "cols", "steps", "stepsize",
                          "stragglers_per_round", "check"})
    step = d.get("stepsize")
    if step is not None:
        step = _as_num(step, "fl.stepsize", lo=0.0)
    check = d.get("check", False)
    _expect(isinstance(check, bool), "fl.check", f"expected a bool, got {check!r}")
    return FlSpec(rows=_as_int(d.get("rows", 60), "fl.rows", lo=1),
                  cols=_as_int(d.get("cols", 21), "fl.cols", lo=1),
                  steps=_as_int(d.get("steps", 100), "fl.steps", lo=0),
                  stepsize=step,
                  stragglers_per_round=_as_int(d.get("stragglers_per_round", 2),
                                               "fl.stragglers_per_round", lo=0),
                  check=check)


def parse_config(doc: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a config document, after applying flag overrides."""
    _check_keys(doc, "config", _TOP_KEYS)
    doc = dict(doc)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "scheme":
            doc["scheme"] = value
            doc.pop("schemes", None)
        else:
            doc[key] = value

    seed = _as_int(doc.get("seed", 0), "seed", lo=0)
    if "schemes" in doc and "scheme" in doc:
        raise ConfigError("config: give either scheme or schemes, not both")
    if "schemes" in doc:
        lst = doc["schemes"]
        _expect(isinstance(lst, list) and lst, "schemes",
                "expected a non-empty list")
        schemes = tuple(_as_str(s, f"schemes[{i}]", SCHEMES)
                        for i, s in enumerate(lst))
    else:
        schemes = (_as_str(doc.get("scheme", "proposed"), "scheme", SCHEMES),)
    _expect("roster" in doc, "roster", "required")
    roster = _parse_roster(doc["roster"])
    matrix = _parse_matrix(doc["matrix"]) if "matrix" in doc else None
    scale = _as_int(doc.get("scale", 10), "scale", lo=1)
    timing = _parse_timing(doc.get("timing", {}), roster.n_clients)
    comm = _parse_comm(doc.get("comm", {}))
    trials = _as_int(doc.get("trials", 1), "trials", lo=0)
    bench = _parse_bench(doc["bench"]) if "bench" in doc else None
    fl = _parse_fl(doc["fl"]) if "fl" in doc else None
    out = _as_str(doc.get("out", "."), "out")
    points = doc.get("poly_points")
    if points is not None:
        _expect(isinstance(points, list), "poly_points", "expected a list")
        points = tuple(_as_num(p, f"poly_points[{i}]")
                       for i, p in enumerate(points))
    return ExperimentConfig(seed=seed, schemes=schemes, roster=roster,
                            matrix=matrix, scale=scale, timing=timing,
                            comm=comm, trials=trials, bench=bench, fl=fl,
                            out=out, poly_points=points, raw=doc)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return parse_config(doc, overrides)
