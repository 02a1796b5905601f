"""Span recorder that wraps seqsub's public functions from outside the package.

`install` replaces every public function of the layer modules at every
module attribute bound to it (modules import names locally, e.g.
`revenue.simplex_solve`), plus the class-level `batch_value` of the three
click models and the lifted objective's batch kernels. Per-mask `value()`
calls stay unwrapped: their cost belongs to the caller's self time.
Generator functions are skipped, since their body runs after the call
returns. `uninstall` restores the originals.

Spans are kept in memory (op id, parent span, name, start, duration, self
time) and written out by `save`; a span's self time is its duration minus
that of its child spans. Past MAX_KEPT_SPANS (about 100 MB) spans still count
in the totals but are no longer stored one by one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

MAX_KEPT_SPANS = 2_000_000

LAYERS = (
    "cli", "core", "engagement", "matroid", "revenue",
    "numerics", "policy", "coverage", "oracle", "generators",
)

# Counters taken from a successful call: name -> {counter: f(args, result)}.
COUNTERS = {
    "core.batch_value": {"sets": lambda a, r: a[1].shape[0]},
    "oracle.brute_force_engagement_opt": {"enumerated": lambda a, r: r.enumerated_count},
    "revenue.build_policy_lp": {"columns": lambda a, r: r.problem.A.shape[1]},
    "numerics.simplex_solve": {
        "pivots": lambda a, r: r.iterations,
        "cells": lambda a, r: a[0].A.size,
    },
    "matroid.crs_round": {"sampled": lambda a, r: len(a[2]), "kept": lambda a, r: len(r)},
    "numerics.max_flow": {"edges": lambda a, r: len(a[0].edges)},
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._names: dict[str, int] = {}
        self._cols = {k: array("q") for k in ("op", "parent", "name", "start", "dur", "self")}
        self.totals: dict[str, dict[str, float]] = {}
        self.dropped = 0
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, op: int) -> None:
        """Start recording spans for `op`; a previous op's open spans are dropped."""
        self.op, self._stack, self.active = op, [], True

    def end(self) -> None:
        self.active = False

    def reset_totals(self) -> None:
        self.totals = {}

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._call(name, counters, fn, args, kwargs)

        return wrapper

    def _call(self, name, counters, fn, args, kwargs):
        cols = self._cols
        keep = len(cols["op"]) < MAX_KEPT_SPANS
        span = len(cols["op"]) if keep else -1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span, 0]
        if keep:
            for k in cols:
                cols[k].append(0)
        self._stack.append(frame)
        ok = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            dur = time.perf_counter_ns() - start
            if self._stack and self._stack[-1] is frame:
                self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            own = dur - frame[1]
            name_id = self._names.setdefault(name, len(self._names))
            if keep:
                for k, v in (("op", self.op), ("parent", parent), ("name", name_id),
                             ("start", start), ("dur", dur), ("self", own)):
                    cols[k][span] = v
            else:
                self.dropped += 1
            t = self.totals.setdefault(name, {"calls": 0, "self_ns": 0, "failed": 0})
            t["calls"] += 1
            t["self_ns"] += own
            if not ok:
                t["failed"] += 1
            else:
                for key, f in counters.items():
                    t[key] = t.get(key, 0) + f(args, result)

    def install(self) -> None:
        """Wrap every public function of the layer modules at all its bindings."""
        core = importlib.import_module("seqsub.core")
        engagement = importlib.import_module("seqsub.engagement")
        sites = [m for k, m in sys.modules.items() if k == "seqsub" or k.startswith("seqsub.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"seqsub.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for site in sites:
                    for a, v in list(vars(site).items()):
                        if v is fn:
                            self._patch(site, a, wrapped)
        for cls in (core.ExplicitModel, core.CoverageModel, core.MnlModel):
            self._patch(cls, "batch_value", self.wrap("core.batch_value", cls.batch_value))
        lifted = engagement.LiftedObjective
        self._patch(lifted, "batch_value", self.wrap("engagement.batch_value", lifted.batch_value))
        self._patch(
            lifted,
            "batch_marginal_weights",
            self.wrap("engagement.batch_marginal_weights", lifted.batch_marginal_weights),
        )

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def span_count(self) -> int:
        return len(self._cols["op"]) + self.dropped

    def save(self, path: str) -> None:
        """Write all spans as compressed columns plus the name table."""
        import numpy as np

        names = sorted(self._names, key=self._names.get)
        np.savez_compressed(
            path,
            names=np.array(names),
            dropped=np.array(self.dropped),
            **{k: np.frombuffer(v, dtype=np.int64) for k, v in self._cols.items()},
        )
