"""Regenerate census_expected.json: optimal length, code count and max-count
histogram of every census problem, by the benchmark's own brute force.

    python3 perfbench/census_totals.py

Every N-subset of normalized nonzero vectors of F_q^n is tested with the
exhaustive decodability check of checks.py, for N = 0, 1, ... until some
subset decodes; the max-count histogram comes from the same module's table
of codeword combinations.  No uniprior code is used, so the file can vouch
for the program's census.
"""

import itertools
import json
import os
from pathlib import Path

import numpy as np

import checks
import inputs

CHUNK = 4096


def normalized_vectors(n: int, q: int) -> list[tuple[int, ...]]:
    return [v for v in itertools.product(range(q), repeat=n) if any(v) and next(x for x in v if x) == 1]


def census(doc) -> dict:
    q, n = doc["q"], doc["n"]
    candidates = normalized_vectors(n, q)
    for length in range(n + 1):
        subsets = itertools.combinations(candidates, length)
        total, histogram = 0, {}
        while chunk := list(itertools.islice(subsets, CHUNK)):
            stack = np.array(chunk, dtype=np.int64).reshape(len(chunk), length, n)
            decodable, top = checks.census_facts(doc, stack)
            for count in top[decodable]:
                histogram[int(count)] = histogram.get(int(count), 0) + 1
            total += int(decodable.sum())
        if total:
            return {"length": length, "total": total, "histogram": dict(sorted(histogram.items()))}
    raise ValueError("no decodable code at any length")


def main() -> None:
    os.chdir(Path(__file__).resolve().parent.parent)
    facts = {name: census(doc) for name, doc in inputs.census_problems().items()}
    inputs.CENSUS_EXPECTED.write_text(json.dumps(facts, indent=2) + "\n")
    for name, entry in facts.items():
        print(name, entry)


if __name__ == "__main__":
    main()
