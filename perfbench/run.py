#!/usr/bin/env python3
"""Change-stream benchmark for deltic.

One caller holds an input, feeds it a pre-generated stream of changes one at
a time (a closed loop: single process, single thread) and keeps the output
up to date with `y ⊕ dy`.  The maintained output is checked against a batch
run (`calculus.denote`) every CHECK_EVERY changes and at the end, outside
the timed region.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # one row per workload

With `--trace 0` the last line of standard output is a JSON object carrying
the end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
a traced run.  End-to-end times are scaled to a reference host speed that
the benchmark measures as it goes (see `reference_time`).  A full record of
the run (seed, Python version, nproc, sizes, stream digest, metrics, the
unscaled metrics, and the spans when traced) is written to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import deltic  # noqa: E402

if not Path(deltic.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"deltic was imported from {deltic.__file__}, not from {ROOT / 'src'}")

from deltic import calculus as ca  # noqa: E402
from deltic.core import apply_fn, values_equal  # noqa: E402
from deltic.incr import cache_entry_count  # noqa: E402
from deltic.oracle import term_size  # noqa: E402
from deltic.serialize import change_from_text, change_to_text  # noqa: E402

from spans import NullTracer, Tracer  # noqa: E402
from workloads import MAKERS, RATE, build_surface, let_chain_text  # noqa: E402

SETUP_BUILDS = 7
CHECK_EVERY = 200
BLOCK = 10
REL_TOL = 1e-9
# Doubling ladder for incr.max_let_depth, capped so the probe stays within a
# few seconds; PROBE_N keeps each rung's vectors small.
PROBE_LADDER = (50, 100, 200, 400)
PROBE_N = 8
# The host-speed reference: a fixed pure-Python loop (REF_N dict inserts of
# small tuples, then a float sum over them) timed once per block of changes.
# REF_S is its time in the fast speed mode of a shared 2-vCPU host with
# Python 3.11; see `reference_time` and README.md.
REF_N = 1000
REF_S = 100e-6

END_TO_END = {
    "latency_p50_us": "us",
    "latency_p90_us": "us",
    "throughput_cps": "changes/s",
    "batch_s": "s",
    "setup_s": "s",
    "cache_bytes": "B",
}

PER_LAYER = {
    "frontend.parse_s": "s",
    "frontend.compile_s": "s",
    "calculus.typecheck_s": "s",
    "calculus.term_nodes": "count",
    "incr.incrementalize_s": "s",
    "incr.init_s": "s",
    "incr.step_p50_us": "us",
    "incr.step_p90_us": "us",
    "incr.cache_entries": "count",
    "incr.bytes_per_entry": "B",
    "incr.support_in": "count",
    "incr.support_out": "count",
    "incr.max_let_depth": "count",
    "core.apply_out_p50_us": "us",
    "serialize.decode_p50_us": "us",
    "serialize.encode_p50_us": "us",
    "serialize.bytes_in": "B",
    "serialize.bytes_out": "B",
    "bench.trace_overhead": "ratio",
}


def p50(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return p50(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mean(values):
    return statistics.fmean(values) if values else 0.0


def deep_size(obj) -> int:
    """sys.getsizeof summed over everything obj reaches, each object once.

    Type objects are shared by every instance and are not counted.
    """
    seen = set()
    todo = [obj]
    total = 0
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        todo.extend(gc.get_referents(o))
    return total


def leaf_count(d) -> int:
    """Scalar entries of a change made of dicts and tuples."""
    if type(d) is dict:
        return sum(leaf_count(v) for v in d.values())
    if type(d) is tuple:
        return sum(leaf_count(v) for v in d)
    return 1


def _reference_loop() -> float:
    t0 = perf_counter()
    d = {}
    for i in range(REF_N):
        d[i] = (i, i * 0.5)
    s = 0.0
    for v in d.values():
        s += v[1]
    return perf_counter() - t0


def reference_time() -> float:
    """Seconds the host-speed reference takes now, with the collector off.

    The loop uses no deltic code, so a change to deltic cannot move it; only
    the host's speed does.  The first pass only warms the CPU caches that
    the changes before it evicted; the faster of the next two is kept.  The
    collector is off so that a pass over the caller's live machine cannot
    land in the loop.
    """
    gc.disable()
    try:
        _reference_loop()
        return min(_reference_loop(), _reference_loop())
    finally:
        gc.enable()


def build_once(wl, tracer):
    """One build, from the program to a machine that is ready to step.

    Returns ((typed term, machine, output, cache), seconds).  Everything
    alive before the build, the caller's machine included, is frozen out of
    the collector's view, so the collector passes the build triggers scan
    only what the build allocates, as in a process that does nothing else.
    """
    gc.collect()
    gc.freeze()
    try:
        tracer.change = None
        with tracer.span("setup"):
            t0 = perf_counter()
            built = wl.build(tracer)
            return built, perf_counter() - t0
    finally:
        gc.unfreeze()


class Caller:
    """The one caller: its input, its machine and the output it maintains."""

    def __init__(self, wl, tt, machine, y, cache):
        self.tt = tt
        self.machine = machine
        self.y = y
        self.cache = cache
        self.x = wl.x0
        self.text_io = wl.text_io
        self.ap_in = apply_fn(tt.in_ty)
        self.ap_out = apply_fn(tt.out_ty)
        self.attempted = 0
        self.failed = 0
        self.unchecked = 0
        self.stopped = False
        self.batch_times = []   # (block, seconds)

    def check(self, tracer):
        """Compare the maintained output with a batch run on the current input.

        On a mismatch every change since the previous check counts as failed.
        """
        tracer.change = None
        with tracer.span("check"):
            with tracer.span("calculus.denote"):
                t0 = perf_counter()
                want = ca.denote(self.tt, self.x)
                self.batch_times.append(((self.attempted - 1) // BLOCK,
                                         perf_counter() - t0))
            with tracer.span("core.values_equal"):
                ok = values_equal(self.tt.out_ty, self.y, want, REL_TOL)
        if not ok:
            self.failed += self.unchecked
        self.unchecked = 0

    def feed(self, changes, first, tracer, out):
        """Step through `changes` (ids from `first`), appending to `out`.

        The clock runs from the change in hand (a value, or a JSON line) to
        the output updated (and, for text I/O, the output change encoded).
        A change that raises stops the stream: the machine's cache is then
        in an unknown state.
        """
        step, ap_out = self.machine.step, self.ap_out
        in_ty, out_ty = self.tt.in_ty, self.tt.out_ty
        text_io = self.text_io
        lat, blocks = out["lat"], out["block"]
        sup_in, sup_out = out["support_in"], out["support_out"]
        bytes_in, bytes_out = out["bytes_in"], out["bytes_out"]
        if self.stopped:
            return
        for k, d in enumerate(changes, start=first):
            tracer.change = k
            line = out_line = d
            t0 = perf_counter()
            try:
                with tracer.span("change"):
                    if text_io:
                        with tracer.span("serialize.decode"):
                            d = change_from_text(in_ty, line)
                    with tracer.span("incr.step"):
                        dy, self.cache = step(d, self.cache)
                    with tracer.span("core.apply_out"):
                        self.y = ap_out(self.y, dy)
                    if text_io:
                        with tracer.span("serialize.encode"):
                            out_line = change_to_text(out_ty, dy)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.attempted += 1
                self.failed += 1
                self.stopped = True
                break
            lat.append(perf_counter() - t0)
            blocks.append(k // BLOCK)
            self.attempted += 1
            self.unchecked += 1
            self.x = self.ap_in(self.x, d)
            if tracer.enabled:
                sup_in.append(leaf_count(d))
                sup_out.append(leaf_count(dy))
                if text_io:
                    bytes_in.append(len(line.encode()))
                    bytes_out.append(len(out_line.encode()))
            if (k + 1) % CHECK_EVERY == 0:
                self.check(tracer)


def measured():
    """What `Caller.feed` appends to: per-change samples by kind."""
    return {"lat": [], "block": [], "support_in": [], "support_out": [],
            "bytes_in": [], "bytes_out": []}


def timed_metrics(phase, batch_times, setup_times, factor=None):
    """The timed end-to-end metrics from (block, seconds) samples.

    With `factor` (one per block), each sample is first multiplied by the
    factor of the block it was taken in, which scales it to the speed at
    which the host-speed reference takes REF_S.
    """
    def scale(samples):
        return [t * (factor[b] if factor else 1.0) for b, t in samples]
    lat = scale(zip(phase["block"], phase["lat"]))
    return {
        "latency_p50_us": p50(lat) * 1e6,
        "latency_p90_us": p90(lat) * 1e6,
        "throughput_cps": throughput(lat),
        "batch_s": p50(scale(batch_times)),
        "setup_s": p50(scale(setup_times)),
    }


def throughput(lat):
    return len(lat) / sum(lat)


def max_let_depth() -> int:
    """Deepest let-chain on PROBE_LADDER that gets through compile,
    incrementalize, init and one step at the current recursion limit."""
    x, b = {i: 0.5 for i in range(PROBE_N)}, {i: 0.25 for i in range(PROBE_N)}
    deepest = 0
    for stages in PROBE_LADDER:
        try:
            _, m, _, cache = build_surface(let_chain_text(stages, PROBE_N), (x, b), NullTracer())
            m.step(({0: 0.5}, {}), cache)
        except RecursionError:
            break
        deepest = stages
    return deepest


def run(wl, seconds, traced):
    """One benchmark run over workload `wl`; returns the full record."""
    tracer = Tracer() if traced else NullTracer()
    untraced = NullTracer()
    (tt, machine, y, cache), seconds_taken = build_once(wl, tracer)
    setup_times = [(0, seconds_taken)]   # (block, seconds)
    speed = []                           # reference time before each block
    caller = Caller(wl, tt, machine, y, cache)
    count = len(wl.stream)
    starts = range(0, count, BLOCK)
    # The other builds are spread evenly through the stream, so that setup_s,
    # like the per-change samples, is taken across the whole run and its
    # drifting machine speed.  Each is dropped once timed.  A stream shorter
    # than SETUP_BUILDS blocks gets several builds before one block.
    rebuild_before = [len(starts) * j // SETUP_BUILDS for j in range(1, SETUP_BUILDS)]
    phase = measured()
    base = measured()
    for b, i in enumerate(starts):
        speed.append(reference_time())
        for _ in range(rebuild_before.count(b)):
            setup_times.append((b, build_once(wl, tracer)[1]))
        # In a traced run, blocks alternate untraced and traced, so both see
        # the same part of the stream and the same machine speed; their
        # throughput ratio is the tracing overhead.  Per-layer numbers come
        # from the traced blocks.
        on = traced and b % 2 == 1
        caller.feed(wl.stream[i:i + BLOCK], i, tracer if on else untraced,
                    phase if on or not traced else base)
    if caller.unchecked:
        caller.check(tracer)
    speed.append(reference_time())
    # A block's factor compares REF_S with the reference times taken just
    # before and just after it; the builds before the block and the check
    # after it fall between the same two readings, and the first build just
    # before block 0's.
    factor = [2 * REF_S / (a + b) for a, b in zip(speed, speed[1:])]

    record = {
        "workload": wl.name, "seed": wl.seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "sizes": wl.sizes, "changes": count, "stream_digest": wl.digest(),
        "attempted": caller.attempted, "failed": caller.failed,
        "error_rate": caller.failed / max(1, caller.attempted),
        "samples": len(phase["lat"]),
        "speed_factor": p50(factor),
        "setup_total_s": sum(t for _, t in setup_times),
        "step_s": sum(phase["lat"]) + sum(base["lat"]),
    }
    lat = phase["lat"]
    if not lat or (traced and not base["lat"]):
        # A change raised before any sample was taken: there is nothing to
        # compute metrics from, but the result line still reports the failure.
        record["metrics"] = dict.fromkeys(PER_LAYER if traced else END_TO_END)
        return record
    if not traced:
        cache_bytes = deep_size(caller.cache)
        record["metrics"] = {**timed_metrics(phase, caller.batch_times, setup_times, factor),
                             "cache_bytes": cache_bytes}
        record["raw_metrics"] = {**timed_metrics(phase, caller.batch_times, setup_times),
                                 "cache_bytes": cache_bytes}
        return record

    entries = cache_entry_count(machine.cache, caller.cache)

    def setup_median(span):
        return p50(tracer.durations(span))

    def us(span, stat):
        return stat(tracer.durations(span)) * 1e6

    record["metrics"] = {
        "frontend.parse_s": setup_median("frontend.parse"),
        "frontend.compile_s": setup_median("frontend.compile"),
        "calculus.typecheck_s": setup_median("calculus.typecheck"),
        "calculus.term_nodes": term_size(tt.term),
        "incr.incrementalize_s": setup_median("incr.incrementalize"),
        "incr.init_s": setup_median("incr.init"),
        "incr.step_p50_us": us("incr.step", p50),
        "incr.step_p90_us": us("incr.step", p90),
        "incr.cache_entries": entries,
        "incr.bytes_per_entry": deep_size(caller.cache) / max(1, entries),
        "incr.support_in": mean(phase["support_in"]),
        "incr.support_out": mean(phase["support_out"]),
        "incr.max_let_depth": max_let_depth(),
        "core.apply_out_p50_us": us("core.apply_out", p50),
        "serialize.decode_p50_us": us("serialize.decode", p50),
        "serialize.encode_p50_us": us("serialize.encode", p50),
        "serialize.bytes_in": mean(phase["bytes_in"]),
        "serialize.bytes_out": mean(phase["bytes_out"]),
        "bench.trace_overhead": throughput(lat) / throughput(base["lat"]),
    }
    record["spans"] = tracer.records()
    return record


def result_line(record) -> str:
    """The contract's last line: correct, attempted, failed, metrics."""
    units = PER_LAYER if record["trace"] else END_TO_END
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()},
    })


def fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def table(records) -> str:
    """End-to-end metrics by name and unit, one row per workload."""
    cols = [(k, u) for k, u in END_TO_END.items()] + [("error_rate", "fraction")]
    head = ["workload"] + [f"{k}[{u}]" for k, u in cols]
    rows = []
    for r in records:
        values = {**r["metrics"], "error_rate": r["error_rate"]}
        rows.append([r["workload"]] + [fmt(values[k]) for k, _ in cols])
    widths = [max(len(row[i]) for row in [head] + rows) for i in range(len(head))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths))
                     for row in [head] + rows)


def write_record(record):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*MAKERS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    names = list(MAKERS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        t0 = perf_counter()
        wl = MAKERS[name](args.seed, max(2 * BLOCK, round(args.seconds * RATE[name])))
        record = run(wl, args.seconds, bool(args.trace))
        record["wall_s"] = perf_counter() - t0
        write_record(record)
        records.append(record)
    if args.trace:
        for r in records:
            print(f"# {r['workload']}: per-layer metrics (traced run)")
            for k, u in PER_LAYER.items():
                print(f"  {k:<26} {fmt(r['metrics'][k]):>14} {u}")
    else:
        print(table(records))
    if len(records) == 1:
        print(result_line(records[0]))
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
