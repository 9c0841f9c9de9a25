"""tools/bench_trend.py: the trend reader over the committed perf records."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_trend.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_trend_reads_every_committed_record_the_same_way_twice():
    out = _run()
    assert out == _run()
    lines = [json.loads(line) for line in out.splitlines()]
    records = sorted(int(p.stem.split("_")[1]) for p in ROOT.glob("BENCH_*.json"))
    # every record holds parent and change runs of the three workloads, and
    # each workload gets a ratio line
    assert len(lines) == 9 * len(records) and len(lines) >= 135
    assert [line["pr"] for line in lines] == sorted(line["pr"] for line in lines)
    assert {line["pr"] for line in lines} == set(records)
    # one median checked by hand: BENCH_23's rel-join change runs
    runs = json.loads((ROOT / "BENCH_23.json").read_text())["runs"]
    p50 = [r["result"]["metrics"]["latency_p50_us"]["value"] for r in runs
           if r["workload"] == "rel-join" and r["side"] == "change" and not r["trace"]]
    (line,) = [x for x in lines if (x["pr"], x["workload"], x["side"]) == (23, "rel-join", "change")]
    assert line["runs"] == len(p50) and line["latency_p50_us"] == statistics.median(p50)


def test_ratio_lines_divide_the_change_median_by_the_parent_median():
    lines = [json.loads(line) for line in _run().splitlines()]
    by_key = {(x["pr"], x["workload"], x["side"]): x for x in lines}
    ratio = by_key[30, "let-chain", "ratio"]
    # BENCH_30's claim: let-chain batch_s 0.0201 s against the parent's 0.0371 s
    assert 0.54 <= ratio["batch_s"] <= 0.55
    assert ratio["batch_s"] == (by_key[30, "let-chain", "change"]["batch_s"]
                                / by_key[30, "let-chain", "parent"]["batch_s"])
    assert all(x["side"] in ("parent", "change", "ratio") for x in lines)
    assert {k for k in by_key if k[2] == "ratio"} == {
        (pr, w, "ratio") for pr, w, side in by_key if side == "parent"}


def test_ratio_lines_count_the_pairs_the_change_side_won():
    lines = [json.loads(line) for line in _run().splitlines()]
    by_key = {(x["pr"], x["workload"], x["side"]): x for x in lines}
    # BENCH_31's claim: let-chain p50 was lower in 10 of 10 pairs; its
    # cache_bytes were equal per seed, so no pair is better there
    pairs = by_key[31, "let-chain", "ratio"]["better_pairs"]
    assert pairs["latency_p50_us"] == "10/10" and pairs["cache_bytes"] == "0/10"
    # throughput is better when higher: the count follows BENCHMARK.json
    assert pairs["throughput_cps"] == "10/10"
    assert all("better_pairs" in x for x in lines if x["side"] == "ratio")


def test_ratio_lines_count_the_pairs_the_change_side_lost():
    lines = [json.loads(line) for line in _run().splitlines()]
    by_key = {(x["pr"], x["workload"], x["side"]): x for x in lines}
    # BENCH_31's let-chain: ten wins on p50 are no losses, and cache_bytes,
    # equal per seed, reads 0/10 on both sides, so ten ties read as ties
    ratio = by_key[31, "let-chain", "ratio"]
    assert ratio["worse_pairs"]["latency_p50_us"] == "0/10"
    assert ratio["better_pairs"]["cache_bytes"] == ratio["worse_pairs"]["cache_bytes"] == "0/10"
    # BENCH_36's rel-join: p50 per-pair ratios read above 1 in 8 of 11 pairs
    # (lower is better), throughput below 1 in the same 8 (higher is better)
    ratio = by_key[36, "rel-join", "ratio"]
    assert ratio["worse_pairs"]["latency_p50_us"] == "8/11"
    assert ratio["worse_pairs"]["throughput_cps"] == "8/11"
    for x in lines:
        if x["side"] == "ratio":
            for name, won in x["better_pairs"].items():
                k, n = map(int, won.split("/"))
                lost, total = map(int, x["worse_pairs"][name].split("/"))
                assert total == n and k + lost <= n
