"""Set-up of one benchmark run: import uniprior and warm its lazy caches.

Run as a script, it times one fresh set-up and prints the seconds taken:

    python3 perfbench/setup_probe.py design_plan
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# Workloads whose operations design codes, and so read the spanning-tree tables.
DESIGN_WORKLOADS = ("design_plan", "design_dense")


def import_package() -> float:
    start = time.perf_counter()
    import uniprior.cli  # noqa: F401  (imports every module of the package)

    return time.perf_counter() - start


def warm(workload: str) -> float:
    start = time.perf_counter()
    if workload in DESIGN_WORKLOADS:
        from uniprior import codegen

        for k in range(2, codegen.EXHAUSTIVE_TREE_LIMIT + 1):
            codegen._tree_search_tables(k)
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(import_package() + warm(sys.argv[1]))
