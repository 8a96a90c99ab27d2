"""Build a BENCH_<n>.json record from saved perfbench/repeat.py results.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR --out BENCH_11.json [--notes notes.json]

Each directory holds the result files of one side (the parent commit, or the
change), as perfbench/repeat.py writes them: <workload>-trace<t>.json, a list
of runs.  Files whose names start with the same <workload>-trace<t> are
joined, so a comparison run one seed at a time can keep one file per seed
(census-trace0.seed3.json).  For every workload found on both sides the
record holds, per metric, each side's median and quartiles (as repeat.py
prints them), the change's median over the parent's, and the number of seeds
where the change's run beat the parent's run of the same seed; the ratio is
null when the parent's median is 0 (a traced layer the workload never
enters, such as codegen.plan_s on census).  The machine
block gives the core count and the Python, numpy and PyYAML versions of the
interpreter that runs this script.  --notes merges a JSON object of further
measurements into the record under "notes".
"""

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path


def load_runs(directory: Path) -> dict[str, dict[int, dict]]:
    """workload-trace name -> seed -> run."""
    found: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace*.json")):
        name = path.name.split(".")[0]
        for run in json.loads(path.read_text()):
            found.setdefault(name, {})[run["seed"]] = run
    return found


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6), "spread": round(spread, 4)}


def compare(parent: dict[int, dict], change: dict[int, dict]) -> dict:
    seeds = sorted(parent)
    if sorted(change) != seeds:
        raise SystemExit(f"seeds differ: parent {seeds}, change {sorted(change)}")
    record = {
        "seeds": seeds,
        "failed_attempted": {
            side: [[runs[s]["failed"], runs[s]["attempted"]] for s in seeds]
            for side, runs in (("parent", parent), ("change", change))
        },
        "all_checks_correct": all(runs[s]["correct"] for runs in (parent, change) for s in seeds),
    }
    for metric, first in parent[seeds[0]]["metrics"].items():
        higher = metric.endswith("per_s")
        before = [parent[s]["metrics"][metric]["value"] for s in seeds]
        after = [change[s]["metrics"][metric]["value"] for s in seeds]
        better = sum(a > b if higher else a < b for a, b in zip(after, before))
        base = statistics.median(before)
        record[metric] = {
            "unit": first["unit"],
            "better": "higher" if higher else "lower",
            "parent": summary(before),
            "change": summary(after),
            "change_over_parent": round(statistics.median(after) / base, 4) if base else None,
            "pairs_better": f"{better}/{len(seeds)}",
            "parent_runs": [round(v, 6) for v in before],
            "change_runs": [round(v, 6) for v in after],
        }
    return record


def machine() -> dict:
    import numpy
    import yaml

    return {
        "cores": os.cpu_count(),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": hasattr(yaml, "CSafeLoader"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="result files of the parent commit")
    parser.add_argument("change", type=Path, help="result files of the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--notes", type=Path, help="JSON object of further measurements")
    args = parser.parse_args()

    parent, change = load_runs(args.parent), load_runs(args.change)
    names = sorted(set(parent) & set(change))
    if not names:
        print("no workload has results on both sides", file=sys.stderr)
        return 1
    record = {
        "description": (
            "Per metric, the median and quartiles (statistics.quantiles, n=4) of each "
            "side's runs; pairs_better counts the seeds where the change's run beat the "
            "parent's run of the same seed."
        ),
        "command": "python3 perfbench/repeat.py --workload <w> --seeds <s>-<s> --seconds <t>",
        "machine": machine(),
        "workloads": {name.removesuffix("-trace0"): compare(parent[name], change[name]) for name in names},
    }
    if args.notes:
        record["notes"] = json.loads(args.notes.read_text())
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
