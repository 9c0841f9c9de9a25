"""Trend of the committed perf records, one JSON line per (record, workload, side).

Each BENCH_<n>.json at the repository root holds perfbench result lines under
"runs", each with "workload", "side" and "result.metrics".  For every record
this prints, per workload and side, the median of each end-to-end metric
(the "end_to_end" names of BENCHMARK.json) over the record's untraced runs,
sorted by the record's number n, printed as "pr".  A workload with both a
"parent" and a "change" side gets one more line, side "ratio", holding the
change median divided by the parent median of each metric, "better_pairs":
per metric, in how many matched runs (one parent and one change run of the
same seed and pair, taken in file order) the change side was better, lower
or higher as the metric's "better" field says, printed as "k/n", and
"worse_pairs", the same count of pairs where it was worse, so that n ties
(a deterministic metric that did not move) read "0/n" in both.  Traced
runs and entries of any other shape are skipped, and their counts go to
standard error.
Standard library only.

    python3 tools/bench_trend.py
"""

import json
import re
import statistics
import sys
from pathlib import Path


def _value(m):
    """A metric's number: {"value": x, "unit": u} or a bare number."""
    return m.get("value") if isinstance(m, dict) else m


def _is_result_line(run):
    return (isinstance(run, dict) and isinstance(run.get("workload"), str)
            and isinstance(run.get("side"), str) and isinstance(run.get("result"), dict)
            and isinstance(run["result"].get("metrics"), dict))


def _pair_counts(pairs, names, better):
    """({name: "k/n"}, {name: "l/n"}): of the n (parent, change) metric pairs
    holding name, the k whose change value is better, as better[name] says,
    and the l whose change value is worse."""
    wins, losses = {}, {}
    for name in names:
        values = [(p, c) for pm, cm in pairs
                  if (p := _value(pm.get(name))) is not None
                  and (c := _value(cm.get(name))) is not None]
        if better[name] == "higher":
            values = [(-p, -c) for p, c in values]
        wins[name] = f"{sum(c < p for p, c in values)}/{len(values)}"
        losses[name] = f"{sum(c > p for p, c in values)}/{len(values)}"
    return wins, losses


def trend(root: Path):
    """(lines, skipped, traced): the trend lines as dicts, and the counts of
    entries that are not result lines and of traced result lines."""
    better = {m["name"]: m["better"]
              for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]}
    names = list(better)
    records = sorted((int(m.group(1)), p) for p in root.glob("BENCH_*.json")
                     if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)))
    lines, skipped, traced = [], 0, 0
    for pr, path in records:
        groups, by_seed = {}, {}
        for run in json.loads(path.read_text()).get("runs", []):
            if not _is_result_line(run):
                skipped += 1
            elif run.get("trace"):
                traced += 1
            else:
                metrics = run["result"]["metrics"]
                groups.setdefault((run["workload"], run["side"]), []).append(metrics)
                key = run["workload"], run.get("seed"), run.get("pair")
                by_seed.setdefault(key, {}).setdefault(run["side"], []).append(metrics)
        medians = {}
        for (workload, side), runs in sorted(groups.items()):
            line = {"pr": pr, "workload": workload, "side": side, "runs": len(runs)}
            for name in names:
                values = [v for m in runs if (v := _value(m.get(name))) is not None]
                if values:
                    line[name] = statistics.median(values)
            lines.append(line)
            medians[workload, side] = line
            parent, change = medians.get((workload, "parent")), medians.get((workload, "change"))
            if parent and change:
                ratio = {name: change[name] / parent[name] for name in names
                         if parent.get(name) and name in change}
                pairs = [pair for (w, *_), sides in by_seed.items() if w == workload
                         for pair in zip(sides.get("parent", []), sides.get("change", []))]
                wins, losses = _pair_counts(pairs, ratio, better)
                lines.append({"pr": pr, "workload": workload, "side": "ratio", **ratio,
                              "better_pairs": wins, "worse_pairs": losses})
    return lines, skipped, traced


def main():
    lines, skipped, traced = trend(Path(__file__).resolve().parents[1])
    for line in lines:
        print(json.dumps(line))
    print(f"skipped {skipped} entries that are not result lines, {traced} traced runs",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
