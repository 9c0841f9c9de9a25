"""Independent brute-force oracles used across the test suite, call
recorders for the tests that count the work a step does, and a stepper that
runs a machine over a change list.

The oracles deliberately avoid the engine's own code paths: plain lists and
loops for linear algebra, nested loops for relations, recursion for trees.
"""

import math
import random
import sys

from deltic.core import apply_change


def call_codes(f, *args):
    """f(*args), and the code object of every Python call it made."""
    codes = []

    def record(frame, event, _arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(record)
    try:
        out = f(*args)
    finally:
        sys.setprofile(None)
    return out, codes


def builtin_calls(f, *args):
    """f(*args), and the qualified name of every builtin it called from
    Python code ("dict.get", "sum", ...)."""
    names = []

    def record(_frame, event, arg):
        if event == "c_call":
            names.append(getattr(arg, "__qualname__", repr(arg)))

    sys.setprofile(record)
    try:
        out = f(*args)
    finally:
        sys.setprofile(None)
    return out, names


def step_through(m, x, ds):
    """m initialized on x and stepped through ds, first to last: the output
    kept up to date by ⊕, the last cache, and x ⊕ every change in turn, the
    input the batch must map to that output."""
    y, c = m.init(x)
    for d in ds:
        dy, c = m.step(d, c)
        y = apply_change(m.out_ty, y, dy)
        x = apply_change(m.in_ty, x, d)
    return y, c, x


def vec_to_list(v, n):
    return [v.get(i, 0.0) for i in range(n)]


def list_to_vec(xs):
    return {i: x for i, x in enumerate(xs) if x != 0.0}


def mat_to_lists(m, n, cols):
    return [[m.get(i, {}).get(j, 0.0) for j in range(cols)] for i in range(n)]


def lists_to_mat(rows):
    out = {}
    for i, row in enumerate(rows):
        r = {j: x for j, x in enumerate(row) if x != 0.0}
        if r:
            out[i] = r
    return out


def oracle_dot(xs, ys):
    return sum(a * b for a, b in zip(xs, ys))


def oracle_mvmul(mat, vec):
    return [oracle_dot(row, vec) for row in mat]


def oracle_mmmul(a, b):
    n, m, k = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][l] * b[l][j] for l in range(m)) for j in range(k)]
            for i in range(n)]


def oracle_dense(mat, bias, vec):
    return [max(0.0, y + c) for y, c in zip(oracle_mvmul(mat, vec), bias)]


def oracle_join(r, s, pred):
    """Nested-loop join over multiplicity maps; pred takes the pair index."""
    out = {}
    for i, a in r.items():
        for j, b in s.items():
            if pred((i, j)):
                m = a * b
                if m:
                    out[(i, j)] = m
    return out


def oracle_union(r, s):
    out = dict(r)
    for t, m in s.items():
        out[t] = out.get(t, 0) + m
        if out[t] == 0:
            del out[t]
    return out


def oracle_proj(r, key):
    """Group by key and sum multiplicities."""
    out = {}
    for t, m in r.items():
        out[key(t)] = out.get(key(t), 0) + m
    return {k: m for k, m in out.items() if m != 0}


class Rose:
    """A rose tree: a value plus any number of children."""

    def __init__(self, value, children=()):
        self.value = value
        self.children = list(children)

    def fold_sum(self):
        return self.value + sum(c.fold_sum() for c in self.children)

    def paths(self, prefix=()):
        yield prefix, self.value
        for i, c in enumerate(self.children):
            yield from c.paths(prefix + (i,))

    def to_map(self):
        return dict(self.paths())


def complete_rose(depth, branching, rng):
    node = Rose(rng.randint(1, 9))
    if depth > 0:
        node.children = [complete_rose(depth - 1, branching, rng)
                         for _ in range(branching)]
    return node


def rand_relation(rng, size, key_range=10, val_range=60):
    rel = {}
    for _ in range(size):
        rel[(rng.randrange(key_range), rng.randrange(val_range))] = rng.randint(-3, 3) or 1
    return {t: m for t, m in rel.items() if m != 0}
