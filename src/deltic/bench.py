"""Desk-scale benchmarks: full reevaluation vs incremental update.

Inputs and change lists are generated pseudo-randomly from a printed seed
before any timing.  For each of 2·reps + 1 changes, one batch `denote` and
then one step are timed back to back on a monotonic clock; a row reports the
medians of the denote times (full_eval_s) and step times (incr_step_s) and
the median of the per-pair step/denote ratios (ratio).  Sizes mean the input
dimension (dense, mvmul), the tuple count (rel-proj, rel-join), or the tree
depth (tree-sum).  The sparsity sweep varies the changed fraction at a fixed
size and reports the crossover fraction where the ratio first reaches 1.
"""

from __future__ import annotations

import csv
import gc
import math
import random
import time
from dataclasses import dataclass
from statistics import median

from . import calculus as ca
from . import incr
from .core import REAL, TBase, TProd
from .domains import linalg, relalg, trees
from .domains.containers import arr

BENCH_IDS = ("dense", "mvmul", "mvmul-sparsity", "rel-proj", "rel-join", "tree-sum")

R = TBase(REAL)


@dataclass
class BenchSpec:
    bench: str
    sizes: tuple = ()
    fraction: float = 0.01
    reps: int = 5
    seed: int = 42

    def __post_init__(self):
        if self.bench not in BENCH_IDS:
            raise ValueError(f"unknown benchmark {self.bench!r}; have {BENCH_IDS}")
        if not self.sizes:
            self.sizes = _DEFAULT_SIZES[self.bench]
        if any(s <= 0 for s in self.sizes):
            raise ValueError("sizes must be positive")
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        if self.reps < 0:
            raise ValueError("reps must be non-negative")


_DEFAULT_SIZES = {
    "dense": (100, 200, 400, 800),
    "mvmul": (100, 200, 400, 800),
    "mvmul-sparsity": (500,),
    "rel-proj": (1000, 10000),
    "rel-join": (1000, 10000),
    "tree-sum": (10, 14),
}

CSV_HEADER = ("bench", "size", "fraction", "full_eval_s", "incr_step_s",
              "ratio", "cache_entries")


@dataclass
class BenchRow:
    bench: str
    size: int
    fraction: float
    full_eval_s: float
    incr_step_s: float
    ratio: float
    cache_entries: int

    def as_list(self):
        return [self.bench, self.size, f"{self.fraction:g}",
                f"{self.full_eval_s:.6f}", f"{self.incr_step_s:.6f}",
                f"{self.ratio:.4f}", self.cache_entries]


def _paired_times(tt, value, machine, cache, changes):
    """Time `denote` and then one step back to back, once per change.

    The machine state evolves along the changes.  Pairing keeps each
    step/denote ratio to one moment of the host's speed, so a speed-mode
    switch moves a pair, not the median over the pairs.  The GC is paused
    while timing.  Returns the medians of the denote times, the step times
    and the per-pair ratios, and the final cache.
    """
    fulls, steps, ratios = [], [], []
    gc_was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for dx in changes:
            t0 = time.perf_counter()
            ca.denote(tt, value)
            t1 = time.perf_counter()
            _, cache = machine.step(dx, cache)
            t2 = time.perf_counter()
            fulls.append(t1 - t0)
            steps.append(t2 - t1)
            ratios.append((t2 - t1) / (t1 - t0))
    finally:
        if gc_was_on:
            gc.enable()
    return median(fulls), median(steps), median(ratios), cache


def _rand_vec(rng, n):
    return {i: rng.uniform(-1.0, 1.0) for i in range(n)}


def _rand_mat(rng, n, m):
    return {i: _rand_vec(rng, m) for i in range(n)}


def _vec_change(rng, n, fraction):
    k = max(1, math.ceil(fraction * n))
    idxs = rng.sample(range(n), min(k, n))
    return {i: rng.uniform(-1.0, 1.0) for i in idxs}


def _pairs(reps):
    return 2 * reps + 1


def _sweep(spec: BenchSpec, label, setup):
    """One row per size.  setup(rng, size) draws the inputs and returns
    (tt, value, make_change); the changes are drawn next, then init runs."""
    rows = []
    for size in spec.sizes:
        rng = random.Random(f"{spec.seed}:{label}:{size}")
        tt, value, make_change = setup(rng, size)
        machine = incr.incrementalize(tt)
        changes = [make_change() for _ in range(_pairs(spec.reps))]
        _, cache = machine.init(value)
        full, step, ratio, cache = _paired_times(tt, value, machine, cache, changes)
        rows.append(BenchRow(spec.bench, size, spec.fraction, full, step, ratio,
                             incr.cache_entry_count(machine.cache, cache)))
    return rows, {}


def bench_dense(spec: BenchSpec):
    reg = linalg.register_linalg().registry

    def setup(rng, n):
        M = _rand_mat(rng, n, n)
        b = _rand_vec(rng, n)
        x = _rand_vec(rng, n)
        tt = ca.typecheck(linalg.dense_term(n, n, M, b), arr(n, R), reg)
        return tt, x, lambda: _vec_change(rng, n, spec.fraction)
    return _sweep(spec, "dense", setup)


def bench_mvmul(spec: BenchSpec):
    reg = linalg.register_linalg().registry

    def setup(rng, n):
        M = _rand_mat(rng, n, n)
        v = _rand_vec(rng, n)
        in_ty = TProd(arr(n, arr(n, R)), arr(n, R))
        tt = ca.typecheck(linalg.mvmul_term(n, n), in_ty, reg)
        return tt, (M, v), lambda: ({}, _vec_change(rng, n, spec.fraction))
    return _sweep(spec, "mvmul", setup)


def bench_mvmul_sparsity(spec: BenchSpec):
    bundle = linalg.register_linalg()
    n = spec.sizes[0]
    rng = random.Random(f"{spec.seed}:sparsity:{n}")
    M = _rand_mat(rng, n, n)
    v = _rand_vec(rng, n)
    in_ty = TProd(arr(n, arr(n, R)), arr(n, R))
    tt = ca.typecheck(linalg.mvmul_term(n, n), in_ty, bundle.registry)
    # one machine steps through the whole sweep, fraction after fraction
    machine = incr.incrementalize(tt)
    _, cache = machine.init((M, v))
    rows = []
    crossover = None
    for frac in [f / 10 for f in range(1, 11)]:
        changes = [({}, _vec_change(rng, n, frac)) for _ in range(_pairs(spec.reps))]
        full, step, ratio, cache = _paired_times(tt, (M, v), machine, cache, changes)
        entries = incr.cache_entry_count(machine.cache, cache)
        rows.append(BenchRow("mvmul-sparsity", n, frac, full, step, ratio, entries))
        if crossover is None and ratio >= 1.0:
            crossover = frac
    return rows, {"crossover": crossover}


def _rand_relation(rng, size, key_range):
    rel = {}
    while len(rel) < size:
        rel[(rng.randrange(key_range), rng.randrange(10 * size))] = rng.randint(1, 3)
    return rel


def _rel_change(rng, rel_value, size, fraction, key_range):
    k = max(1, math.ceil(fraction * size))
    delta = {}
    keys = list(rel_value)
    for _ in range(k):
        if keys and rng.random() < 0.5:
            t = rng.choice(keys)
            delta[t] = -rel_value[t]
        else:
            delta[(rng.randrange(key_range), rng.randrange(10 * size))] = 1
    return delta


def bench_rel_proj(spec: BenchSpec):
    reg = relalg.register_relalg().registry

    def setup(rng, size):
        key_range = max(2, size // 10)
        value = _rand_relation(rng, size, key_range)
        tt = ca.typecheck(relalg.proj_term("fst"), relalg.rel(("int", "int")), reg)
        return tt, value, lambda: _rel_change(rng, value, size, spec.fraction, key_range)
    return _sweep(spec, "proj", setup)


JOIN_RIGHT_SIZE = 20


def bench_rel_join(spec: BenchSpec):
    reg = relalg.register_relalg().registry
    reg.register_index_pred("bench_eq_key", lambda ij: ij[0][0] == ij[1][0])

    def setup(rng, size):
        key_range = max(2, size // 10)
        left = _rand_relation(rng, size, key_range)
        right = _rand_relation(rng, JOIN_RIGHT_SIZE, key_range)
        in_ty = TProd(relalg.rel(("int", "int")), relalg.rel(("int", "int")))
        tt = ca.typecheck(relalg.join_term("bench_eq_key"), in_ty, reg)
        return tt, (left, right), lambda: (
            _rel_change(rng, left, size, spec.fraction, key_range), {})
    return _sweep(spec, "join", setup)


def complete_tree(depth, rng):
    """Values for a complete binary tree as an int path map."""
    out = {}

    def grow(path, d):
        out[path] = rng.randint(1, 9)
        if d == 0:
            return
        for c in range(2):
            grow(path + (c,), d - 1)

    grow((), depth)
    return out


def bench_tree_sum(spec: BenchSpec):
    reg = trees.register_trees().registry

    def setup(rng, depth):
        value = complete_tree(depth, rng)
        paths = list(value)
        k = max(1, math.ceil(spec.fraction * len(paths)))
        tt = ca.typecheck(trees.tree_sum_term(), trees.INT_TREE, reg)
        return tt, value, lambda: {p: rng.randint(1, 5) for p in rng.sample(paths, k)}
    return _sweep(spec, "tree", setup)


_RUNNERS = {
    "dense": bench_dense,
    "mvmul": bench_mvmul,
    "mvmul-sparsity": bench_mvmul_sparsity,
    "rel-proj": bench_rel_proj,
    "rel-join": bench_rel_join,
    "tree-sum": bench_tree_sum,
}


def run_bench(spec: BenchSpec):
    return _RUNNERS[spec.bench](spec)


def write_csv(rows, fh):
    w = csv.writer(fh)
    w.writerow(CSV_HEADER)
    for row in rows:
        w.writerow(row.as_list())
