"""In-memory span tracing of calls into codedfl's public functions.

A ``Tracer`` replaces each traced function with a wrapper wherever a
caller looks it up: the defining module, every codedfl module that bound
the function by name at import (``simulate`` imports ``encode``,
``iter_encoded_blocks`` and ``build_plan``; ``cli`` imports
``load_config``), and, for ``matvec_t``, the two matrix classes.  Calls
that go through a module attribute (``cli`` uses ``cd.``/``dec.``/``mx.``/
``sim.``) see the wrapper too, because the attribute itself is replaced.

Each call becomes one span: name, tag, start, end, parent span and the
pass it belongs to.  Generator functions get one span per ``next()``, so
a lazily encoded block is charged to whoever pulls it.  Spans stay in a
list until the run ends; nothing is written while a pass is timed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (layer, function) pairs traced at module level; matvec_t is a method and
# is handled separately
TRACED = (
    ("matrices", "random_sparse"),
    ("matrices", "random_dense"),
    ("matrices", "partition_uniform"),
    ("coding", "build_plan"),
    ("coding", "encode"),
    ("coding", "iter_encoded_blocks"),
    ("decoding", "problem_from_workload"),
    ("decoding", "decode"),
    ("decoding", "check_all_subsets"),
    ("decoding", "check_hall_condition"),
    ("decoding", "resilience_patterns"),
    ("simulate", "simulate_round"),
    ("simulate", "privacy_report"),
    ("simulate", "sparse_compute_benchmark"),
    ("simulate", "fl_demo"),
    ("simulate", "plain_gd"),
    ("simulate", "gradient_lipschitz_bound"),
    ("config", "load_config"),
    ("cli", "cmd_plan"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_fl_demo"),
)

# bytes one CSC SpMV y = M^T x reads and writes under a streaming model:
# 8 per value + 4 per row index, 4 per column pointer, x read once, y
# written once.  A computed figure, not a measured one.
def spmv_bytes(rows: int, cols: int, nnz: int) -> int:
    return 12 * nnz + 4 * (cols + 1) + 8 * rows + 8 * cols


def _span_name(layer: str, fn: str) -> str:
    if layer == "cli" and fn.startswith("cmd_"):
        return f"cli.{fn[4:]}"
    return f"{layer}.{fn}"


def _scheme_tag(args, kwargs):
    plan = kwargs.get("plan", args[1] if len(args) > 1 else None)
    return getattr(plan, "scheme", "")


# functions whose spans carry the scheme of their plan argument
_TAGGERS = {"coding.encode": _scheme_tag,
            "coding.iter_encoded_blocks": _scheme_tag}


class Tracer:
    """Records the spans of one traced pass; all of them carry ``pass_id``."""

    def __init__(self, pass_id: str):
        # span: [name, tag, start, end, parent index or -1, pass id]
        self.spans: list[list] = []
        self.pass_id = pass_id
        self.spmv_bytes = 0
        self.yields = Counter()         # name -> items its generators yielded
        self.products_used = Counter()  # root span name -> decode rows used
        self._stack: list[int] = []

    # -- recording --------------------------------------------------------

    def _open(self, name, tag):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, perf_counter(), 0.0, parent,
                           self.pass_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        tagger = _TAGGERS.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tag = tagger(args, kwargs) if tagger else ""
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name, tag)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.yields[name] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, tagger(args, kwargs) if tagger else "")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "decoding.decode":
                root = self.spans[self._stack[0]][0] if self._stack else name
                self.products_used[root] += len(out.used_workers)
            return out
        return wrapper

    def _wrap_matvec(self, kind, fn):
        name = "matrices.matvec_t"

        @functools.wraps(fn)
        def wrapper(mat, x):
            if kind == "sparse":
                self.spmv_bytes += spmv_bytes(mat.rows, mat.cols, mat.m.nnz)
            idx = self._open(name, kind)
            try:
                return fn(mat, x)
            finally:
                self._close(idx)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every lookup site of the traced functions; undo on exit."""
        from codedfl import matrices

        mods = [m for n, m in sys.modules.items()
                if n == "codedfl" or n.startswith("codedfl.")]
        patched = []      # (owner, attribute, original)
        for layer, fn_name in TRACED:
            home = sys.modules[f"codedfl.{layer}"]
            orig = getattr(home, fn_name)
            wrapped = self.wrap(_span_name(layer, fn_name), orig)
            for mod in mods:
                if getattr(mod, fn_name, None) is orig:
                    patched.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapped)
        for cls in (matrices.DenseMatrix, matrices.SparseMatrix):
            orig = cls.__dict__["matvec_t"]
            patched.append((cls, "matvec_t", orig))
            cls.matvec_t = self._wrap_matvec(cls.kind, orig)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(patched):
                setattr(owner, attr, orig)

    # -- reporting --------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, (name, tag, t0, t1, parent, pid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "pass": pid, "name": name,
                                     "tag": tag, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")

    def stats(self) -> dict:
        """(name, tag) -> calls, busy_s, self_s, p50_us, p99_us."""
        child_time = defaultdict(float)
        for name, tag, t0, t1, parent, pid in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        durations = defaultdict(list)
        self_s = defaultdict(float)
        for i, (name, tag, t0, t1, parent, pid) in enumerate(self.spans):
            durations[(name, tag)].append(t1 - t0)
            self_s[(name, tag)] += t1 - t0 - child_time[i]
        out = {}
        for key, ds in durations.items():
            us = np.asarray(ds) * 1e6
            out[key] = {"calls": len(ds), "busy_s": float(np.sum(ds)),
                        "self_s": self_s[key],
                        "p50_us": float(np.percentile(us, 50)),
                        "p99_us": float(np.percentile(us, 99))}
        return out

    def root(self, idx: int) -> str:
        """Name of the outermost span enclosing span ``idx``."""
        while self.spans[idx][4] >= 0:
            idx = self.spans[idx][4]
        return self.spans[idx][0]

    def products_computed(self) -> Counter:
        """Root span name -> matvec_t calls made by problem_from_workload."""
        out = Counter()
        for i, (name, _, _, _, parent, _) in enumerate(self.spans):
            if name == "matrices.matvec_t" and parent >= 0 \
                    and self.spans[parent][0] == "decoding.problem_from_workload":
                out[self.root(i)] += 1
        return out
