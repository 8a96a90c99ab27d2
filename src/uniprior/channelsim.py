"""Monte Carlo simulation of index codes over AWGN and fading channels.

The source encodes a random message vector, maps the coded symbols onto M-PSK
(Gray mapping for binary fields, natural mapping for F_3), and broadcasts.
Each receiver sees its own quasi-static fading coefficient (one per frame) and
its own per-symbol complex Gaussian noise, performs coherent per-symbol ML
detection, then applies its decoding plan to the detected symbols.  Error
counts per (receiver, demand, SNR) are accumulated exactly, using
counter-based RNG streams keyed by (seed, SNR index, block index) so that
results are byte-identical regardless of thread count or schedule.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .codegen import LinearCode, DecodingPlan, design_min_max_code, parse_code
from .enumeration import enumerate_optimal_codes, optimal_length
from .errors import ValidationError
from .graphcore import IndexCodingProblem, _as_int, _require_keys, load_yaml

DEFAULT_SEED = 20240
# Trials are simulated in fixed-size blocks; each block owns one RNG stream.
BLOCK_TRIALS = 4096

_MODULATION_ORDERS = (2, 3, 4, 8, 16)
_FADING_KINDS = ("none", "rayleigh", "rician")


@dataclass(frozen=True)
class ChannelConfig:
    """Modulation, fading model, SNR grid, and trial budget for a sweep."""

    modulation: int
    mapping: str
    fading: str
    snr_points_db: tuple[float, ...]
    trials: int
    seed: int = DEFAULT_SEED
    rician_k: float | None = None

    def __post_init__(self):
        if self.modulation not in _MODULATION_ORDERS:
            raise ValidationError(
                f"modulation order must be one of {_MODULATION_ORDERS}, got {self.modulation}"
            )
        expected_mapping = "natural" if self.modulation == 3 else "gray"
        if self.mapping != expected_mapping:
            raise ValidationError(
                f"modulation {self.modulation} requires {expected_mapping!r} mapping, "
                f"got {self.mapping!r}"
            )
        if self.fading not in _FADING_KINDS:
            raise ValidationError(f"fading must be one of {_FADING_KINDS}, got {self.fading!r}")
        if self.fading == "rician":
            if self.rician_k is None or not 0 < self.rician_k < math.inf:
                raise ValidationError("rician fading requires a finite rician_k > 0")
        elif self.rician_k is not None:
            raise ValidationError(f"rician_k only applies to rician fading, got {self.fading!r}")
        if not self.snr_points_db:
            raise ValidationError("snr_db must list at least one SNR point")
        for snr in self.snr_points_db:
            try:
                finite = math.isfinite(snr) and math.isfinite(10.0 ** (snr / 10.0))
            except OverflowError:
                finite = False
            if not finite:
                raise ValidationError(f"snr_db {snr} is not finite or 10^(snr/10) overflows")
        if self.trials < 1:
            raise ValidationError(f"trials must be at least 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")

    @property
    def bits_per_symbol(self) -> int:
        """Code symbols carried per channel symbol (1 for the ternary mapping)."""
        return 1 if self.modulation == 3 else self.modulation.bit_length() - 1

    def field_order(self) -> int:
        return 3 if self.modulation == 3 else 2


@dataclass(frozen=True)
class BepRecord:
    """Estimated error probability for one (receiver, demand) at one SNR."""

    receiver: int
    demand: int
    snr_db: float
    trials: int
    bit_errors: int
    bep: float


def _as_float(value, rule: str) -> float:
    """A YAML number as a float; integers too large for one become +-inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{rule}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def config_from_mapping(data) -> ChannelConfig:
    if not isinstance(data, dict):
        raise ValidationError("config document must be a mapping")
    required = {"modulation", "mapping", "fading", "snr_db", "trials"}
    _require_keys(data, required, "config document", frozenset({"seed", "rician_k"}))

    snr = data["snr_db"]
    if not isinstance(snr, list) or not snr:
        raise ValidationError("snr_db must be a non-empty list of dB values")
    points = [_as_float(value, "snr_db entries must be numbers") for value in snr]
    rician_k = data.get("rician_k")
    if rician_k is not None:
        rician_k = _as_float(rician_k, "rician_k must be a number")

    for field in ("mapping", "fading"):
        if not isinstance(data[field], str):
            raise ValidationError(f"{field} must be a string")

    return ChannelConfig(
        modulation=_as_int(data["modulation"], "modulation"),
        mapping=data["mapping"],
        fading=data["fading"],
        snr_points_db=tuple(points),
        trials=_as_int(data["trials"], "trials"),
        seed=_as_int(data.get("seed", DEFAULT_SEED), "seed"),
        rician_k=rician_k,
    )


def parse_config_text(text: str) -> ChannelConfig:
    return config_from_mapping(load_yaml(text, "config"))


def parse_config(path: str | Path) -> ChannelConfig:
    return parse_config_text(Path(path).read_text())


def with_overrides(
    config: ChannelConfig, *, seed: int | None = None, trials: int | None = None
) -> ChannelConfig:
    if seed is not None:
        config = replace(config, seed=seed)
    if trials is not None:
        config = replace(config, trials=trials)
    return config


def _phase_offset(config: ChannelConfig) -> float:
    # Even orders straddle the axes (e.g. 4-PSK points on the diagonals);
    # the ternary constellation keeps a point at angle zero.
    return 0.0 if config.mapping == "natural" else math.pi / config.modulation


def _gray_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(m)
    gray = k ^ (k >> 1)
    inverse = np.empty(m, dtype=np.int64)
    inverse[gray] = k
    return gray, inverse


def modulate(code_symbols, config: ChannelConfig, snr_db: float = 0.0) -> np.ndarray:
    """Map (..., N) code symbols to (..., S) channel symbols at energy Es = 10^(snr_db/10).

    Binary symbols ride Gray-mapped M-PSK, most significant bit first within
    each channel symbol, with zero bits appended when the symbol count is not
    a multiple of bits-per-symbol; F_3 symbol k maps to the point at angle
    2*pi*k/3.  Noise is unit-variance, so Es/N0 in dB equals snr_db.
    """
    symbols = np.asarray(code_symbols, dtype=np.int64)
    m, q = config.modulation, config.field_order()
    if symbols.max(initial=0) >= q or symbols.min(initial=0) < 0:
        kind = "binary" if q == 2 else "ternary"
        raise ValidationError(f"{config.mapping} mapping carries {kind} symbols 0..{q - 1} only")
    angles = 2.0 * np.pi * np.arange(m) / m + _phase_offset(config)
    points = math.sqrt(10.0 ** (snr_db / 10.0)) * np.exp(1j * angles)
    if config.mapping == "natural":
        return points[symbols]
    b = config.bits_per_symbol
    pad = (-symbols.shape[-1]) % b
    if pad:
        pad_width = [(0, 0)] * (symbols.ndim - 1) + [(0, pad)]
        symbols = np.pad(symbols, pad_width)
    groups = symbols.reshape(symbols.shape[:-1] + (-1, b))
    weights = 1 << np.arange(b - 1, -1, -1)
    _, inverse = _gray_tables(m)
    return points[inverse[groups @ weights]]


def _draw_fading(rng: np.random.Generator, count: int, config: ChannelConfig) -> np.ndarray:
    """One coefficient per frame.  Draw order is part of the RNG contract."""
    if config.fading == "none":
        return np.ones(count, dtype=np.complex128)
    scattered = _complex_normal(rng, (count,))
    if config.fading == "rayleigh":
        return scattered
    k = config.rician_k
    return math.sqrt(k / (k + 1.0)) + math.sqrt(1.0 / (k + 1.0)) * scattered


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Unit-variance circular complex normals, read in place from (re, im) pairs.

    Numpy divides a complex array by a real scalar by multiplying by its
    reciprocal, so this scaling gives the quotient's values bit for bit.
    """
    z = rng.standard_normal(shape + (2,))
    z *= 1.0 / math.sqrt(2.0)
    return z.view(np.complex128)[..., 0]


@lru_cache(maxsize=None)
def _decision_table(modulation: int, mapping: str) -> np.ndarray:
    """Code symbols of each rounded phase step, one row per step.

    Steps lie within m/2 + 1 of zero.  Rows repeat with period m over 2m
    rows, so take() reads a negative step from the end and needs no wrap.
    Gray rows hold a point's bits, most significant first; natural rows its
    F_3 symbol.
    """
    rows = np.arange(2 * modulation) % modulation
    if mapping == "gray":
        shifts = np.arange(modulation.bit_length() - 2, -1, -1)
        rows = (_gray_tables(modulation)[0][rows, None] >> shifts) & 1
    table = rows.reshape(2 * modulation, -1).astype(np.int8)
    table.flags.writeable = False  # shared by every caller
    return table


def transmit_and_detect(
    symbols, config: ChannelConfig, rng: np.random.Generator, n_transmissions: int | None = None
) -> np.ndarray:
    """Pass channel symbols through fading + noise and hard-detect them.

    symbols has shape (S,) or (frames, S); each frame row gets one fading
    coefficient and independent per-symbol noise.  All fading coefficients
    are drawn first, then all noise.  For PSK, minimizing |y - h s| over the
    ring is the same as rounding the phase of y * conj(h) to the nearest
    constellation angle.  Returns detected code symbols as int8 (padding
    dropped when n_transmissions is given).
    """
    arr = np.atleast_2d(np.asarray(symbols, dtype=np.complex128))
    frames = arr.shape[0]
    h = _draw_fading(rng, frames, config)
    y = h[:, None] * arr
    y += _complex_normal(rng, arr.shape)
    y *= np.conj(h)[:, None]
    steps = np.angle(y)
    steps -= _phase_offset(config)
    steps /= 2.0 * np.pi / config.modulation
    table = _decision_table(config.modulation, config.mapping)
    out = table.take(np.rint(steps, out=steps).astype(np.intp), axis=0).reshape(frames, -1)
    out = out[:, :n_transmissions]
    return out[0] if np.ndim(symbols) == 1 else out


def _plan_rows(problem: IndexCodingProblem, code: LinearCode, plan: DecodingPlan):
    """Each receiver's demands with their code-term coefficients, one float32
    row per demand, and a table of residues mod q.

    A plan entry's estimate minus its wanted message is its row dotted with
    the error pattern (detected minus sent symbols), mod q, exactly when the
    entry decodes error-free symbols: sum of known coeff * e_k plus code coeff
    * column equals e_demand.  Entries that break that identity are refused.
    """
    q, n, length = problem.q, problem.n, code.length
    basis = np.vstack([np.eye(n, dtype=np.int64), code.matrix().T])
    grouped: dict[int, tuple[list[int], list[np.ndarray]]] = {}
    for entry in plan.entries:
        terms = [(k, a) for k, a in entry.known_terms if 1 <= k <= n]
        terms += [(n + c, b) for c, b in entry.code_terms if 1 <= c <= length]
        weights = np.zeros(n + length, dtype=np.int64)
        for index, coeff in terms:
            weights[index - 1] += coeff
        used = np.flatnonzero(weights)  # a few terms of n + length: keep the check O(terms * n)
        residue = weights[used] @ basis[used] - (np.arange(1, n + 1) == entry.demand)
        in_range = len(terms) == len(entry.known_terms) + entry.count and 1 <= entry.demand <= n
        if not in_range or (residue % q).any():
            raise ValidationError(
                f"plan entry of receiver {entry.receiver} does not decode: {entry.expression()}"
            )
        demands, rows = grouped.setdefault(entry.receiver, ([], []))
        demands.append(entry.demand)
        rows.append(weights[n:] % q)
    by_receiver = {r: (d, np.array(rows, dtype=np.float32)) for r, (d, rows) in grouped.items()}
    # Message and error sums are at most (q-1)^2 * max(n, length) in size;
    # take() reads a negative one from the end of a table of q-multiple length.
    bound = (q - 1) ** 2 * max(n, length)
    return by_receiver, (np.arange(q * (bound // q + 1)) % q).astype(np.int8)


def _run_block(
    problem: IndexCodingProblem,
    code: LinearCode,
    plan_rows,
    config: ChannelConfig,
    snr_idx: int,
    block_idx: int,
    block_size: int,
):
    """Simulate one block of trials at one SNR point.

    The RNG stream is keyed by (seed, snr_idx, block_idx) and consumed in a
    fixed order: message draw, then per receiver (ascending) one
    transmit_and_detect call, which draws fading then noise.  Each receiver's
    wrong decodes are read off its error pattern with the rows of _plan_rows.
    Returns exact integer error counts, so any summation order gives
    identical totals.
    """
    rng = np.random.Generator(
        np.random.Philox(key=config.seed, counter=[0, 0, snr_idx, block_idx])
    )
    by_receiver, mod_q = plan_rows
    messages = rng.integers(0, problem.q, size=(block_size, problem.n), dtype=np.int64)
    products = messages.astype(np.float32) @ code.matrix().astype(np.float32)
    sent = mod_q.take(products.astype(np.intp))
    tx = modulate(sent, config, config.snr_points_db[snr_idx])

    errors: dict[tuple[int, int], int] = {}
    raw_errors: dict[int, int] = {}
    for receiver in range(1, problem.m + 1):
        pattern = transmit_and_detect(tx, config, rng, code.length)
        pattern -= sent
        raw_errors[receiver] = int(np.count_nonzero(pattern))
        if receiver in by_receiver:
            demands, rows = by_receiver[receiver]
            residues = rows @ pattern.T.astype(np.float32)
            wrong = mod_q.take(residues.astype(np.intp))
            errors.update(((receiver, d), np.count_nonzero(w)) for d, w in zip(demands, wrong))
    return errors, raw_errors


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_config_field(problem: IndexCodingProblem, config: ChannelConfig) -> None:
    """Refuse a modulation whose symbols are not over the problem's field."""
    if config.field_order() != problem.q:
        raise ValidationError(
            f"modulation {config.modulation} carries F_{config.field_order()} symbols "
            f"but the problem is over F_{problem.q}"
        )


def simulate_bep(
    problem: IndexCodingProblem,
    code: LinearCode,
    plan: DecodingPlan,
    config: ChannelConfig,
    *,
    threads: int = 1,
    return_raw: bool = False,
):
    """Estimate per-(receiver, demand) error probability at each SNR point.

    Returns BepRecords ordered by (SNR point, receiver, demand).  With
    return_raw=True, also returns {(snr_idx, receiver): raw transmission
    errors} with denominator trials * code length, for checking measured
    per-transmission error rates against the closed-form combination law.
    """
    check_config_field(problem, config)
    if plan.code != code:
        raise ValidationError("decoding plan was built for a different code")
    if code.length == 0:
        raise ValidationError("cannot simulate a code with no transmissions")

    plan_rows = _plan_rows(problem, code, plan)
    tasks = [
        (snr_idx, start // BLOCK_TRIALS, min(BLOCK_TRIALS, config.trials - start))
        for snr_idx in range(len(config.snr_points_db))
        for start in range(0, config.trials, BLOCK_TRIALS)
    ]

    def run(task):
        snr_idx, block_idx, size = task
        return task, _run_block(problem, code, plan_rows, config, snr_idx, block_idx, size)

    # pool.map submits every task at once: more workers would only idle.
    workers = min(threads, len(tasks), _available_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]

    error_totals: Counter = Counter()
    raw_totals: Counter = Counter()
    for (snr_idx, _block, _size), (errors, raw_errors) in results:
        for (receiver, demand), count in errors.items():
            error_totals[snr_idx, receiver, demand] += count
        for receiver, count in raw_errors.items():
            raw_totals[snr_idx, receiver] += count

    records = []
    for snr_idx, snr_db in enumerate(config.snr_points_db):
        for receiver, demand in problem.demands():
            wrong = error_totals[snr_idx, receiver, demand]
            bep = wrong / config.trials
            records.append(BepRecord(receiver, demand, snr_db, config.trials, wrong, bep))
    return (records, dict(raw_totals)) if return_raw else records


def resolve_code_selector(problem: IndexCodingProblem, selector: str) -> LinearCode:
    """Turn a code selector into a code: alg2 | matrix:<path> | enum:<index>."""
    if selector == "alg2":
        return design_min_max_code(problem).code
    if selector.startswith("matrix:"):
        path = selector[len("matrix:") :]
        if not path:
            raise ValidationError("matrix: selector needs a file path")
        return parse_code(path)
    if selector.startswith("enum:"):
        text = selector[len("enum:") :]
        try:
            wanted = int(text)
        except ValueError:
            raise ValidationError(f"enum: selector needs an integer index, got {text!r}") from None
        if wanted < 1:
            raise ValidationError("enum: index is 1-based")
        length = optimal_length(problem)
        for index, code in enumerate(enumerate_optimal_codes(problem, length), start=1):
            if index == wanted:
                return code
        raise ValidationError(f"enum: index {wanted} exceeds the number of optimal codes")
    raise ValidationError(
        f"unknown code selector {selector!r}; expected alg2, matrix:<path>, or enum:<index>"
    )


def _config_summary(config: ChannelConfig) -> str:
    snr = ":".join(f"{v:g}" for v in config.snr_points_db)
    parts = [
        f"modulation={config.modulation}",
        f"mapping={config.mapping}",
        f"fading={config.fading}",
    ]
    if config.rician_k is not None:
        parts.append(f"rician_k={config.rician_k:g}")
    parts.append(f"snr_db={snr}")
    parts.append(f"trials={config.trials}")
    return ",".join(parts)


def records_to_csv(config: ChannelConfig, runs) -> str:
    """CSV with reproducibility header comments: seed, config, code hashes.

    runs lists (label, code, records).  One run gives the single-code layout;
    several give the comparison layout, one `# code=` line per code and a
    leading code-label column.
    """
    compare = len(runs) > 1
    lines = [f"# seed={config.seed}", f"# config={_config_summary(config)}"]
    lines += [f"# code={label} sha256={code.code_hash()}" for label, code, _ in runs]
    lines.append(("code," if compare else "") + "receiver,demand,snr_db,trials,bit_errors,bep")
    for label, _, records in runs:
        prefix = f"{label}," if compare else ""
        for rec in records:
            lines.append(
                f"{prefix}{rec.receiver},{rec.demand},{rec.snr_db:g},{rec.trials},"
                f"{rec.bit_errors},{rec.bep:.10g}"
            )
    return "\n".join(lines) + "\n"
