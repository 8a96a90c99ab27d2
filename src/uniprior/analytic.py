"""Closed-form message-error probability after combining noisy transmissions.

A receiver that recovers a message by adding c received symbols gets it wrong
exactly when an odd number of those symbols were detected wrongly.  With
independent per-symbol error probability p this has the closed form
(1 - (1 - 2p)^c) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class ErrorParams:
    """Per-transmission error probability p and transmission count c."""

    p: float
    c: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"p must lie in [0, 1], got {self.p}")
        if isinstance(self.c, bool) or not isinstance(self.c, int) or self.c < 1:
            raise ValidationError(f"c must be a positive integer, got {self.c!r}")


def message_error_prob(params: ErrorParams) -> float:
    """Probability that a sum of c symbols, each wrong with probability p, errs."""
    return (1.0 - (1.0 - 2.0 * params.p) ** params.c) / 2.0


def tabulate(p_values, c_values) -> str:
    """CSV table of message_error_prob over a (p, c) grid."""
    lines = ["p,c,prob"]
    for p in p_values:
        for c in c_values:
            prob = message_error_prob(ErrorParams(p=float(p), c=int(c)))
            lines.append(f"{p:g},{c},{prob:.12g}")
    return "\n".join(lines) + "\n"
