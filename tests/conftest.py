import random
import sys
from pathlib import Path

import pytest

# Allow `import oracles` from any test module regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


def problem_path(name: str) -> Path:
    return FIXTURES / "problems" / f"{name}.yaml"


def code_path(name: str) -> Path:
    return FIXTURES / "codes" / f"{name}.yaml"


def config_path(name: str) -> Path:
    return FIXTURES / "configs" / f"{name}.yaml"


def random_square_problem_text(m: int, q: int, rate: float, seed: int) -> str:
    """Problem YAML: receiver i knows x_i and wants each other message with
    probability `rate`, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    lines = [f"q: {q}", f"n: {m}", "receivers:"]
    for i in range(1, m + 1):
        wants = [j for j in range(1, m + 1) if j != i and rng.random() < rate]
        lines.append(f"  - {{id: {i}, wants: {wants}, knows: [{i}]}}")
    return "\n".join(lines) + "\n"
