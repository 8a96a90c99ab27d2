"""Run one workload once per seed and summarize each metric's spread.

    python3 perfbench/repeat.py --workload census --seeds 1-10 [--seconds 15] [--trace 0]

For every metric it prints the median, the quartiles and their distance as a
share of the median, and it writes every run's result line to
perfbench/results/<workload>-trace<t>.json (ignored by git).  Use it to
compare two commits run for run, with the same seeds and run length.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
        argv += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        runs.append({"seed": seed, **json.loads(done.stdout.splitlines()[-1])})
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()))

    print(f"failed/attempted: {sorted({(r['failed'], r['attempted']) for r in runs})}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        low, _, high = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (high - low) / median if median else 0.0
        print(f"{name:36s} median {median:.6g}  quartiles {low:.6g}..{high:.6g}  spread {spread:.3f}")
    out = HERE / "results" / f"{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
