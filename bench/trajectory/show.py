#!/usr/bin/env python3
"""Print one metric across the recorded trajectory.

    python3 bench/trajectory/show.py METRIC [--workload W]

Reads every bench/trajectory/pr*/{parent,change}/*.json: gradebench
results ({"meta": ..., "result": {"metrics": {name: {"value", "unit"}}}})
and bench reports ({"bench": ..., "metrics": {name: value}}). Prints one
row per PR, side and file that holds METRIC, PRs in number order:

    pr29  parent  script_review-seed1-trace0.json  22.963 us

--workload keeps the gradebench results of that workload and the bench
reports of that bench name. Exits 1 when no file holds the metric.
"""

import argparse
import json
import pathlib
import re
import sys

HERE = pathlib.Path(__file__).resolve().parent


def pr_number(path):
    match = re.fullmatch(r"pr(\d+)", path.name)
    return int(match.group(1)) if match else None


def metric_of(record, metric, workload):
    """(value, unit) of `metric` in one JSON record, or None."""
    if "result" in record:  # a gradebench result
        if workload is not None and record.get("meta", {}).get("workload") != workload:
            return None
        entry = record["result"].get("metrics", {}).get(metric)
        if entry is None:
            return None
        return entry.get("value"), entry.get("unit", "")
    if "bench" in record:  # a bench report
        if workload is not None and record["bench"] != workload:
            return None
        if metric not in record.get("metrics", {}):
            return None
        return record["metrics"][metric], ""
    return None


def rows(metric, workload):
    prs = sorted((n, d) for d in HERE.iterdir() if d.is_dir() and (n := pr_number(d)) is not None)
    for _, pr_dir in prs:
        for side in ("parent", "change"):
            for path in sorted((pr_dir / side).glob("*.json")):
                try:
                    record = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    continue
                found = metric_of(record, metric, workload)
                if found is not None:
                    yield pr_dir.name, side, path.name, found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("metric")
    parser.add_argument("--workload", default=None)
    args = parser.parse_args()
    found = False
    for pr, side, name, (value, unit) in rows(args.metric, args.workload):
        found = True
        text = f"{value:.6g}" if isinstance(value, (int, float)) else json.dumps(value)
        print(f"{pr:6s} {side:7s} {name:42s} {text} {unit}".rstrip())
    return 0 if found else 1


if __name__ == "__main__":
    sys.exit(main())
