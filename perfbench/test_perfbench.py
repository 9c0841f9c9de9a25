"""The benchmark's own tests: seeding, the correctness gate, count identities
and trace consistency.  Run with `python3 -m pytest perfbench -q` from the
repository root."""

import json
import math

import pytest

import run
from deltic import oracle
from workloads import CHAIN_STAGES, DENSE_N, JOIN_LEFT, JOIN_RIGHT, MAKERS

SHORT = 30


def short_run(name, seed, traced=False, **sizes):
    return run.run(MAKERS[name](seed, SHORT, **sizes), 1, traced)


@pytest.mark.parametrize("name", list(MAKERS))
def test_stream_digest_follows_seed(name):
    a = MAKERS[name](7, SHORT).digest()
    assert MAKERS[name](7, SHORT).digest() == a
    assert MAKERS[name](8, SHORT).digest() != a


@pytest.mark.parametrize("name", list(MAKERS))
def test_error_rate_is_zero_and_sabotage_raises_it(name):
    good = short_run(name, 3)
    assert good["attempted"] == SHORT
    assert good["error_rate"] == 0
    # The fault's seq builder rebuilds both children on top of the original
    # build, which is exponential in seq nesting depth; a short let-chain
    # keeps it in reach.
    sizes = {"stages": 6} if name == "let-chain" else {}
    with oracle.inject_fault("seq-drop-propagation"):
        bad = short_run(name, 3, **sizes)
    assert bad["error_rate"] > 0


@pytest.mark.parametrize("name", list(MAKERS))
def test_cache_bytes_repeat_exactly(name):
    first = short_run(name, 5)
    second = short_run(name, 5)
    assert first["metrics"]["cache_bytes"] == second["metrics"]["cache_bytes"]


def test_dense_cache_entries_identity():
    rec = short_run("dense", 1, traced=True)
    n = m = DENSE_N
    assert rec["metrics"]["incr.cache_entries"] == 2 * n * m + n == 320_400


def test_let_chain_traced_counts_repeat_and_trace_is_consistent():
    first = short_run("let-chain", 2, traced=True)
    second = short_run("let-chain", 2, traced=True)
    assert first["metrics"]["calculus.term_nodes"] == second["metrics"]["calculus.term_nodes"]
    assert first["metrics"]["incr.max_let_depth"] >= CHAIN_STAGES
    assert set(first["metrics"]) == set(run.PER_LAYER)
    assert first["metrics"]["bench.trace_overhead"] > 0

    spans = first["spans"]
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    changes = [s for s in spans if s["name"] == "change"]
    assert changes
    for c in changes:
        kids = children[c["id"]]
        assert [k["name"] for k in kids] == [
            "serialize.decode", "incr.step", "core.apply_out", "serialize.encode"]
        for k in kids:
            assert c["start"] <= k["start"] <= k["end"] <= c["end"]
            assert k["change"] == c["change"]
        duration = c["end"] - c["start"]
        assert c["self"] >= 0
        assert math.isclose(c["self"] + sum(k["end"] - k["start"] for k in kids),
                            duration, rel_tol=1e-9, abs_tol=1e-12)
    setups = [s for s in spans if s["name"] == "setup"]
    assert len(setups) == run.SETUP_BUILDS
    for s in setups:
        assert [k["name"] for k in children[s["id"]]] == [
            "frontend.parse", "frontend.compile", "incr.incrementalize", "incr.init"]
    checks = [s for s in spans if s["name"] == "check"]
    assert checks
    assert [k["name"] for k in children[checks[-1]["id"]]] == [
        "calculus.denote", "core.values_equal"]


class _RaisingMachine:
    """Stands in for a machine whose every step raises."""

    def __init__(self, machine):
        self.cache = machine.cache

    def step(self, d, cache):
        raise RuntimeError("step failed")


@pytest.mark.parametrize("traced", [False, True])
def test_a_first_change_that_raises_still_gives_a_result_line(traced):
    wl = MAKERS["rel-join"](1, SHORT)
    build = wl.build

    def broken(tracer):
        tt, machine, y, cache = build(tracer)
        return tt, _RaisingMachine(machine), y, cache

    wl.build = broken
    line = json.loads(run.result_line(run.run(wl, 1, traced)))
    assert line["correct"] is False
    assert line["attempted"] == 1 and line["failed"] == 1
    units = run.PER_LAYER if traced else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units


def test_rel_join_stream_keeps_the_relations_valid():
    """Deletions remove tuples that are present, insertions add fresh ones."""
    wl = MAKERS["rel-join"](4, 200)
    left, right = (dict(r) for r in wl.x0)
    for dl, dr in wl.stream:
        for rel, d in ((left, dl), (right, dr)):
            for t, m in d.items():
                assert (m == -rel[t]) if m < 0 else (m == 1 and t not in rel)
                if m < 0:
                    del rel[t]
                else:
                    rel[t] = m
    assert (len(left), len(right)) == (JOIN_LEFT, JOIN_RIGHT)


def test_result_line_follows_the_contract():
    rec = short_run("rel-join", 1)
    line = json.loads(run.result_line(rec))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == SHORT and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_timed_samples_are_scaled_by_their_blocks_factor():
    phase = {"lat": [1.0, 2.0, 4.0], "block": [0, 1, 1]}
    batch, setup = [(1, 0.5)], [(0, 3.0), (1, 3.0)]
    raw = run.timed_metrics(phase, batch, setup)
    scaled = run.timed_metrics(phase, batch, setup, [0.5, 3.0])
    assert raw["latency_p50_us"] == 2e6 and scaled["latency_p50_us"] == 6e6
    assert raw["throughput_cps"] == 3 / 7 and scaled["throughput_cps"] == 3 / 18.5
    assert raw["batch_s"] == 0.5 and scaled["batch_s"] == 1.5
    assert raw["setup_s"] == 3.0 and scaled["setup_s"] == (1.5 + 9.0) / 2


def test_run_record_keeps_the_unscaled_metrics():
    rec = short_run("dense", 1)
    assert set(rec["raw_metrics"]) == set(run.END_TO_END)
    assert rec["raw_metrics"]["cache_bytes"] == rec["metrics"]["cache_bytes"]
    assert rec["speed_factor"] > 0


def test_benchmark_json_names_the_same_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(MAKERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
