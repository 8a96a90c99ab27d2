import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "tools" / "bench_record.py"


def write_runs(path, values):
    """One repeat.py result file: a run per (seed, work_per_s, setup_s)."""
    runs = [
        {
            "seed": seed,
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {"work_per_s": {"value": rate, "unit": "1/s"}, "setup_s": {"value": setup, "unit": "s"}},
        }
        for seed, rate, setup in values
    ]
    path.write_text(json.dumps(runs))


def test_record_joins_per_seed_files_and_counts_better_pairs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    write_runs(parent / "census-trace0.json", [(1, 100.0, 0.2), (2, 110.0, 0.2), (3, 90.0, 0.2)])
    write_runs(change / "census-trace0.seed1.json", [(1, 300.0, 0.3)])
    write_runs(change / "census-trace0.seed2.json", [(2, 100.0, 0.1)])
    write_runs(change / "census-trace0.seed3.json", [(3, 250.0, 0.2)])
    write_runs(parent / "sim_sweep-trace0.json", [(1, 1.0, 1.0)])  # no change side: left out
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change), "--out", str(out)], check=True)

    record = json.loads(out.read_text())
    assert set(record["machine"]) >= {"cores", "python", "numpy"}
    assert list(record["workloads"]) == ["census"]
    census = record["workloads"]["census"]
    assert census["seeds"] == [1, 2, 3]
    assert census["all_checks_correct"]
    work = census["work_per_s"]
    assert work["better"] == "higher"
    assert work["parent"]["median"] == 100.0
    assert work["change"]["median"] == 250.0
    assert work["change_over_parent"] == 2.5
    assert work["pairs_better"] == "2/3"
    assert work["change_runs"] == [300.0, 100.0, 250.0]
    setup = census["setup_s"]
    assert setup["better"] == "lower"
    assert setup["pairs_better"] == "1/3"  # equal runs count for neither side
