"""Benchmark for the uniprior toolkit: one workload per run, outputs checked.

    python3 perfbench/run.py --workload design_plan --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
ones.  Every operation's output is checked against facts worked out apart
from the program (checks.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 if any
check fails and 2 if the checkout holds no package to measure.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import setup_probe

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("design_plan", "design_dense", "census", "sim_sweep")
# Fresh processes that repeat the set-up; with this process's own set-up the
# reported setup_s is the median of SETUP_CHILDREN + 1 samples.
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 60


def child_setup_seconds(workload: str) -> float:
    probe = Path(setup_probe.__file__).resolve()
    done = subprocess.run(
        [sys.executable, str(probe), workload],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seed: int, seconds: float, tracer):
    """Run whole blocks until `seconds` of operations have been timed.

    Returns (latencies, units, attempted, failed, errors, layer spans).
    """
    import numpy as np  # not before set-up, which must pay for importing it

    rng = random.Random(seed)
    check_rng = np.random.default_rng([seed, 1])
    latencies, units, attempted, failed, errors, spans = [], 0, 0, 0, [], []
    busy = 0.0
    while busy < seconds:
        block = workload.block(rng)
        outputs = []
        gc.collect()  # every block starts from the same collector state
        if tracer:
            tracer.active = True
        for op in block:
            attempted += 1
            start = time.perf_counter()
            try:
                done, output = workload.run(op)
            except Exception:
                busy += time.perf_counter() - start
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            latencies.append(elapsed)
            units += done
            outputs.append((op, output))
        if tracer:
            tracer.active = False
            spans += tracer.take()
        for op, output in outputs:
            errors += workload.check(op, output, check_rng)
    return latencies, units, attempted, failed, errors, spans


def end_to_end(latencies, units, setup_samples):
    busy = sum(latencies)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "work_per_s": (units / busy if busy else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(spans, setup_spans, tracer, ops: int):
    import tracing

    seconds, calls, work = tracing.layer_times(spans)
    per_op = max(ops, 1)
    setup_seconds, _, _ = tracing.layer_times(setup_spans)

    def rate(name):
        return work[name] / seconds[name] if seconds[name] > 0 else 0.0

    metrics = {
        f"{name}_s": (seconds[name] / per_op, "s")
        for name in tracing.LAYERS
        if name not in ("codegen.tree_tables", "cli.main")
    }
    metrics["codegen.tree_tables_s"] = (setup_seconds["codegen.tree_tables"], "s")
    metrics["cli.self_s"] = (seconds["cli.main"] / per_op, "s")
    metrics["graphcore.prune_calls"] = (calls["graphcore.prune"] / per_op, "count")
    metrics["fields.span_basis_builds"] = (tracer.counts["fields.span_basis_builds"] / per_op, "count")
    metrics["codegen.plan_demands_per_s"] = (rate("codegen.plan"), "1/s")
    metrics["channelsim.receiver_frames_per_s"] = (rate("channelsim.simulate"), "1/s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (setup_probe.SRC / "uniprior" / "__init__.py").is_file():
        print(f"no uniprior package under {setup_probe.SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(setup_probe.SRC))
    os.chdir(ROOT)

    own_setup = setup_probe.import_package()
    tracer, setup_spans, setup_samples = None, [], []
    if args.trace:
        import tracing

        tracer = tracing.install()
        tracer.active = True
        setup_probe.warm(args.workload)
        tracer.active = False
        setup_spans = tracer.take()
    else:
        own_setup += setup_probe.warm(args.workload)
        setup_samples = [own_setup] + [child_setup_seconds(args.workload) for _ in range(SETUP_CHILDREN)]

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    latencies, units, attempted, failed, errors, spans = measure(
        workload, args.seed, args.seconds, tracer
    )
    if tracer:
        metrics = per_layer(spans, setup_spans, tracer, attempted)
        busy = sum(latencies)
        print(f"traced throughput: {units / busy if busy else 0.0:.6g} {workload.unit} per second")
    else:
        metrics = end_to_end(latencies, units, setup_samples)

    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    correct = not errors
    print(
        f"{args.workload} seed={args.seed}: {attempted} operations attempted, {failed} failed, "
        f"{len(errors)} check failures, {units} {workload.unit}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
