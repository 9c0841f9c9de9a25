"""Seeded inputs, change streams and program builds for the three workloads.

Everything a run feeds to deltic is generated here, from the seed alone and
before any timed region: the initial input, the program, and the whole
change stream.  The program under test only ever receives these values.

dense      x -> relu(M x + b), n = m = 400, weights baked in as constants;
           each change rewrites 1% of x.
rel-join   equi-join (cross ; filter on the key) of 10,000 left tuples with
           20 right tuples; four changes in five insert/delete 1% of the
           left tuples, every fifth alters one right tuple.
let-chain  a 100-stage `let` chain of `map relu # map2 add # (h, b)` over two
           arr[1000] real parameters, parsed from surface text; changes
           arrive and leave as JSON text lines, as with `deltic incr`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable

from deltic import calculus as ca
from deltic import frontend as fe
from deltic import incr
from deltic.core import REAL, TBase, TProd, apply_fn
from deltic.domains import linalg, relalg
from deltic.domains.containers import arr
from deltic.serialize import change_to_text

R = TBase(REAL)

# Changes per second of each workload: its unscaled throughput (the run
# record's raw_metrics) on a 2-vCPU host with Python 3.11, where ten-run
# medians ranged 157-236 (dense), 264-346 (rel-join) and 137-206
# (let-chain) as the host's speed drifted.  A run steps `seconds * RATE`
# changes, so it spends about `seconds` stepping there; setup and the
# checks come on top (the run record's `step_s` and `wall_s`).  Fixing the count rather than stopping on the clock makes two
# commits step exactly the same changes and makes the end-of-stream cache a
# deterministic function of (seed, seconds).
RATE = {"dense": 200, "rel-join": 300, "let-chain": 180}

DENSE_N = 400
JOIN_LEFT = 10_000
JOIN_RIGHT = 20
JOIN_KEYS = 100
CHAIN_STAGES = 100
CHAIN_N = 1000
CHANGED_FRACTION = 0.01


@dataclass
class Workload:
    """One workload: its generated input, change stream and program build.

    `build(tracer)` goes from the program to a machine that is ready to
    step, recording setup spans, and returns (typed term, machine, output,
    cache).  `stream` holds Python change values, or JSON text lines when
    `text_io` is set.
    """
    name: str
    seed: int
    sizes: dict
    x0: Any
    stream: list
    text_io: bool
    build: Callable

    def digest(self) -> str:
        """sha256 over the change stream, in order."""
        h = hashlib.sha256()
        for d in self.stream:
            h.update((d if self.text_io else repr(d)).encode())
            h.update(b"\n")
        return h.hexdigest()


def _vec(rng, n):
    return {i: rng.uniform(-1.0, 1.0) for i in range(n)}


def _rewrite_changes(rng, x, ty, count):
    """`count` changes, each setting 1% of the entries of vector x anew."""
    n = len(x)
    k = max(1, round(CHANGED_FRACTION * n))
    ap = apply_fn(ty)
    out = []
    for _ in range(count):
        dx = {}
        for i in rng.sample(range(n), k):
            di = rng.uniform(-1.0, 1.0) - x.get(i, 0.0)
            if di != 0.0:
                dx[i] = di
        x = ap(x, dx)
        out.append(dx)
    return out


def _typed_build(term, in_ty, registry, x0):
    def build(tracer):
        with tracer.span("calculus.typecheck"):
            tt = ca.typecheck(term, in_ty, registry)
        with tracer.span("incr.incrementalize"):
            m = incr.incrementalize(tt)
        with tracer.span("incr.init"):
            y, cache = m.init(x0)
        return tt, m, y, cache
    return build


def make_dense(seed, count) -> Workload:
    rng = random.Random(f"{seed}:dense")
    n = DENSE_N
    weights = {i: _vec(rng, n) for i in range(n)}
    bias = _vec(rng, n)
    x0 = _vec(rng, n)
    in_ty = arr(n, R)
    stream = _rewrite_changes(rng, x0, in_ty, count)
    term = linalg.dense_term(n, n, weights, bias)
    registry = linalg.register_linalg().registry
    return Workload("dense", seed, {"n": n, "m": n, "changed_fraction": CHANGED_FRACTION},
                    x0, stream, False, _typed_build(term, in_ty, registry, x0))


def _fresh_tuple(rng, rel):
    while True:
        t = (rng.randrange(JOIN_KEYS), rng.randrange(10 * JOIN_LEFT))
        if t not in rel:
            return t


def _relation(rng, size):
    rel = {}
    while len(rel) < size:
        rel[_fresh_tuple(rng, rel)] = rng.randint(1, 3)
    return rel


def make_rel_join(seed, count) -> Workload:
    rng = random.Random(f"{seed}:rel-join")
    x0 = (_relation(rng, JOIN_LEFT), _relation(rng, JOIN_RIGHT))
    rel_ty = relalg.rel(("int", "int"))
    in_ty = TProd(rel_ty, rel_ty)
    ap_rel = apply_fn(rel_ty)
    k = max(2, round(CHANGED_FRACTION * JOIN_LEFT))
    # The left relation is updated in place, with its keys also kept in a
    # list to sample from, so that making a change costs O(k) and not O(left).
    left, right = dict(x0[0]), x0[1]
    keys = list(left)
    stream = []
    for c in range(count):
        if c % 5 == 4:
            old = rng.choice(list(right))
            dr = {old: -right[old], _fresh_tuple(rng, right): 1}
            right = ap_rel(right, dr)
            stream.append(({}, dr))
            continue
        gone = sorted(rng.sample(range(len(keys)), k // 2), reverse=True)
        dl = {keys[i]: -left[keys[i]] for i in gone}
        while len(dl) < k:
            dl.setdefault(_fresh_tuple(rng, left), 1)
        for i in gone:
            del left[keys[i]]
            keys[i] = keys[-1]
            keys.pop()
        for t, m in dl.items():
            if m > 0:
                left[t] = m
                keys.append(t)
        stream.append((dl, {}))
    bundle = relalg.register_relalg()
    bundle.registry.register_index_pred("eq_key", lambda ij: ij[0][0] == ij[1][0])
    term = relalg.join_term("eq_key")
    sizes = {"left": JOIN_LEFT, "right": JOIN_RIGHT, "keys": JOIN_KEYS,
             "changed_fraction": CHANGED_FRACTION, "right_change_every": 5}
    return Workload("rel-join", seed, sizes, x0, stream, False,
                    _typed_build(term, in_ty, bundle.registry, x0))


def let_chain_text(stages, n) -> str:
    """Surface program: `stages` lets of h_i = relu(h_{i-1} + b) over (x, b)."""
    lines = ["bundle linalg", f"param x : arr[{n}] real", f"param b : arr[{n}] real", ""]
    prev = "x"
    for i in range(1, stages + 1):
        lines.append(f"let h{i} = map relu # map2 add # ({prev}, b);")
        prev = f"h{i}"
    lines.append(prev)
    return "\n".join(lines) + "\n"


def build_surface(text, x0, tracer):
    """Parse and compile a program text, then incrementalize and init it."""
    with tracer.span("frontend.parse"):
        bundle, prog = fe.parse_program_file(text)
    bundle.registry.freeze()
    with tracer.span("frontend.compile"):
        tt = fe.compile_program(prog, bundle.registry, bundle.literal_base)
    with tracer.span("incr.incrementalize"):
        m = incr.incrementalize(tt)
    with tracer.span("incr.init"):
        y, cache = m.init(x0)
    return tt, m, y, cache


def make_let_chain(seed, count, stages=CHAIN_STAGES) -> Workload:
    rng = random.Random(f"{seed}:let-chain")
    n = CHAIN_N
    x, b = _vec(rng, n), _vec(rng, n)
    vec_ty = arr(n, R)
    in_ty = TProd(vec_ty, vec_ty)
    stream = [change_to_text(in_ty, (dx, {}))
              for dx in _rewrite_changes(rng, x, vec_ty, count)]
    text = let_chain_text(stages, n)
    sizes = {"stages": stages, "n": n, "changed_fraction": CHANGED_FRACTION}
    return Workload("let-chain", seed, sizes, (x, b), stream, True,
                    lambda tracer: build_surface(text, (x, b), tracer))


MAKERS = {"dense": make_dense, "rel-join": make_rel_join, "let-chain": make_let_chain}
