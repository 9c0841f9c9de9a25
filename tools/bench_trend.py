"""Trend of the committed perf records, one JSON line per (record, workload, side).

Each BENCH_<n>.json at the repository root holds perfbench result lines under
"runs", each with "workload", "side" and "result.metrics".  For every record
this prints, per workload and side, the median of each end-to-end metric
(the "end_to_end" names of BENCHMARK.json) over the record's untraced runs,
sorted by the record's number n, printed as "pr".  A workload with both a
"parent" and a "change" side gets one more line, side "ratio", holding the
change median divided by the parent median of each metric.  Traced runs and entries
of any other shape are skipped, and their counts go to standard error.
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


def trend(root: Path):
    """(lines, skipped, traced): the trend lines as dicts, and the counts of
    entries that are not result lines and of traced result lines."""
    names = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    records = sorted((int(m.group(1)), p) for p in root.glob("BENCH_*.json")
                     if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)))
    lines, skipped, traced = [], 0, 0
    for pr, path in records:
        groups = {}
        for run in json.loads(path.read_text()).get("runs", []):
            if not _is_result_line(run):
                skipped += 1
            elif run.get("trace"):
                traced += 1
            else:
                groups.setdefault((run["workload"], run["side"]), []).append(run["result"]["metrics"])
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
                lines.append({"pr": pr, "workload": workload, "side": "ratio", **{
                    name: change[name] / parent[name] for name in names
                    if parent.get(name) and name in change}})
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
