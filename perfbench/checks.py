"""Correctness checks worked out apart from the program under test.

Nothing here calls into `uniprior` for an answer: linear algebra over F_q is
done with numpy row reduction, decodability is decided from the dual space or
from every one of the q^n message vectors, transmission counts come from a
table of all coefficient combinations, and the fading error rates come from
textbook closed forms.  Each check returns a list of human-readable problems;
an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

import numpy as np

# ------------------------------------------------------------------ F_q algebra


def _inverse(a: int, q: int) -> int:
    return pow(int(a), q - 2, q)


def row_reduce(rows, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q; returns (nonzero rows, pivot columns)."""
    a = np.array(rows, dtype=np.int64).reshape(len(rows), -1) % q
    pivots: list[int] = []
    r = 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            continue
        p = r + int(nonzero[0])
        a[[r, p]] = a[[p, r]]
        a[r] = a[r] * _inverse(a[r, c], q) % q
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        a[others] = (a[others] - np.outer(a[others, c], a[r])) % q
        pivots.append(c)
        r += 1
    return a[:r], pivots


def dual_basis(rows, n: int, q: int) -> np.ndarray:
    """Basis of {y in F_q^n : y . v = 0 for every given row v}."""
    if len(rows) == 0:
        return np.eye(n, dtype=np.int64)
    reduced, pivots = row_reduce(rows, q)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, p in zip(reduced, pivots):
            basis[i, p] = -row[f] % q
    return basis


def undecodable_demands(columns, n: int, q: int, known_sets, demands) -> list[tuple[int, int]]:
    """Demands (receiver, message) whose message is not in span(code, known).

    x_d is recoverable iff every y orthogonal to all codewords and to the
    receiver's known unit vectors has y_d = 0.
    """
    dual = dual_basis(columns, n, q)
    by_receiver: dict[int, list[int]] = {}
    for r, d in demands:
        by_receiver.setdefault(r, []).append(d)
    bad = []
    for r, wanted in by_receiver.items():
        y = dual
        for k in known_sets[r - 1]:
            hit = np.flatnonzero(y[:, k - 1])
            if hit.size == 0:
                continue
            p = int(hit[0])
            scale = y[:, k - 1] * _inverse(y[p, k - 1], q) % q
            y = np.delete((y - np.outer(scale, y[p])) % q, p, axis=0)
        bad += [(r, d) for d in wanted if y[:, d - 1].any()]
    return bad


def all_vectors(n: int, q: int) -> np.ndarray:
    """Every vector of F_q^n, lexicographic, as a (q^n, n) array."""
    return np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64).reshape(q**n, n)


def exhaustive_decodable(codes: np.ndarray, q: int, known, demands) -> np.ndarray:
    """Decodability of each code in a (K, N, n) stack, from all q^n messages.

    A receiver knowing x_k cannot tell x from x + z for z in the kernel of the
    code with z_k = 0, so it decodes x_d iff every such z has z_d = 0.
    """
    k_count, _, n = codes.shape
    messages = all_vectors(n, q)
    in_kernel = ~(np.einsum("xn,kjn->kxj", messages, codes) % q).any(axis=2)
    ok = np.ones(k_count, dtype=bool)
    for r, d in demands:
        confusable = (messages[:, known[r] - 1] == 0) & (messages[:, d - 1] != 0)
        ok &= ~(in_kernel & confusable).any(axis=1)
    return ok


def min_counts(codes: np.ndarray, q: int, known, demands) -> np.ndarray:
    """Fewest codewords each demand combines, for a (K, N, n) stack of codes.

    Builds, per code, the least number of nonzero coefficients that produce
    each vector of F_q^n, then takes the best multiple of the known message.
    Returns a (K, len(demands)) array; an undecodable demand reads N + 1.
    """
    k_count, length, n = codes.shape
    coeffs = all_vectors(length, q)
    weight = (coeffs != 0).sum(axis=1)
    place = q ** np.arange(n)
    reached = (np.einsum("cj,kjn->kcn", coeffs, codes) % q) @ place
    table = np.full((k_count, q**n), length + 1, dtype=np.int64)
    np.minimum.at(table, (np.arange(k_count)[:, None], reached), weight[None, :])
    out = np.empty((k_count, len(demands)), dtype=np.int64)
    for i, (r, d) in enumerate(demands):
        # e_d - a * e_known, as a base-q index, for every multiple a
        targets = [place[d - 1] + (-a % q) * place[known[r] - 1] for a in range(q)]
        out[:, i] = table[:, targets].min(axis=1)
    return out


# ------------------------------------------------------------------ design checks


def check_plan(problem_doc, columns, entries, rng) -> list[str]:
    """A designed code and its decoding plan, checked by re-encoding.

    problem_doc is the generated problem (q, n, receivers as (wants, known));
    columns is the code's codeword list; entries are
    (receiver, demand, known_terms, code_terms) tuples.
    """
    q, n, receivers = problem_doc["q"], problem_doc["n"], problem_doc["receivers"]
    errors = []
    demands = [(r, d) for r, (wants, _) in enumerate(receivers, start=1) for d in sorted(wants)]
    planned = [(e[0], e[1]) for e in entries]
    if sorted(planned) != sorted(demands) or len(set(planned)) != len(planned):
        errors.append("plan does not cover each demand exactly once")
    gen = np.array(columns, dtype=np.int64).reshape(len(columns), n)
    if len(row_reduce(gen, q)[1]) != len(columns):
        errors.append("codewords are linearly dependent")
    messages = rng.integers(0, q, size=(64, n))
    received = messages @ gen.T % q
    in_component = component_messages(problem_doc)
    for r, d, known_terms, code_terms in entries:
        if any(msg != receivers[r - 1][1] for msg, _ in known_terms):
            errors.append(f"receiver {r} uses a message it does not know")
            continue
        if any(not 1 <= col <= len(columns) for col, _ in code_terms):
            errors.append(f"receiver {r} uses a transmission that was not sent")
            continue
        estimate = np.zeros(len(messages), dtype=np.int64)
        for msg, coeff in known_terms:
            estimate += coeff * messages[:, msg - 1]
        for col, coeff in code_terms:
            estimate += coeff * received[:, col - 1]
        if not np.array_equal(estimate % q, messages[:, d - 1]):
            errors.append(f"receiver {r} decodes x{d} wrongly")
        limit = 2 if d in in_component else 1
        if len(code_terms) > limit:
            errors.append(f"receiver {r} combines {len(code_terms)} > {limit} transmissions for x{d}")
    return errors


def component_messages(problem_doc) -> set[int]:
    """Messages on the non-trivial components left by pruning (README rule).

    While some receiver vertex has several out-arcs and one of them lies on
    no cycle, keep only the off-cycle arc with the smallest head (vertices
    scanned in ascending order); then collect vertices on cycles.
    """
    receivers = problem_doc["receivers"]
    owner = {known: v for v, (_, known) in enumerate(receivers, start=1)}
    m = len(receivers)
    heads = {v: set() for v in range(1, m + 1)}
    for j, (wants, _) in enumerate(receivers, start=1):
        for x in wants:
            if x in owner:
                heads[owner[x]].add(j)

    def reaches(src, dst):
        seen, stack = {src}, [src]
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for w in heads[v] - seen:
                seen.add(w)
                stack.append(w)
        return False

    changed = True
    while changed:
        changed = False
        for i in range(1, m + 1):
            if len(heads[i]) > 1:
                off = sorted(j for j in heads[i] if not reaches(j, i))
                if off:
                    heads[i] = {off[0]}
                    changed = True
                    break
    on_cycle = {v for v in heads if any(reaches(j, v) for j in heads[v])}
    return {receivers[v - 1][1] for v in on_cycle}


def check_dense(problem_doc, columns, length, optimal) -> list[str]:
    """A large designed code: every demand decodable, independent, optimal length."""
    q, n, receivers = problem_doc["q"], problem_doc["n"], problem_doc["receivers"]
    errors = []
    if length != optimal or len(columns) != length:
        errors.append(f"code length {len(columns)} differs from optimal_length {optimal}")
    if len(columns) and len(row_reduce(columns, q)[1]) != len(columns):
        errors.append("codewords are linearly dependent")
    known_sets = [[known] for _, known in receivers]
    demands = [(r, d) for r, (wants, _) in enumerate(receivers, start=1) for d in wants]
    bad = undecodable_demands(columns, n, q, known_sets, demands)
    if bad:
        errors.append(f"{len(bad)} demands not decodable, first {bad[0]}")
    return errors


# ------------------------------------------------------------------ census checks


def census_facts(problem_doc, codes: np.ndarray):
    """(decodable mask, per-code max count) for a (K, N, n) stack of codes."""
    q, receivers = problem_doc["q"], problem_doc["receivers"]
    known = {r: k for r, (_, k) in enumerate(receivers, start=1)}
    demands = [(r, d) for r, (wants, _) in enumerate(receivers, start=1) for d in sorted(wants)]
    ok = exhaustive_decodable(codes, q, known, demands)
    counts = min_counts(codes, q, known, demands)
    return ok, counts.max(axis=1) if demands else np.zeros(len(codes), dtype=np.int64)


def check_census(problem_doc, rows, expected) -> list[str]:
    """rows: (columns, max_count) per listed code; expected: total/histogram/length."""
    n = problem_doc["n"]
    errors = []
    lengths = {len(cols) for cols, _ in rows}
    if rows and lengths != {expected["length"]}:
        errors.append(f"code lengths {sorted(lengths)} differ from {expected['length']}")
    if len(rows) != expected["total"]:
        errors.append(f"{len(rows)} codes listed, expected {expected['total']}")
    histogram: dict[int, int] = {}
    for _, top in rows:
        histogram[top] = histogram.get(top, 0) + 1
    if histogram != expected["histogram"]:
        errors.append(f"histogram {histogram} differs from {expected['histogram']}")
    keys = {frozenset(map(tuple, cols)) for cols, _ in rows}
    if len(keys) != len(rows):
        errors.append("some listed codes are equal")
    for cols, _ in rows:
        for col in cols:
            first = next((x for x in col if x), 0)
            if first != 1 or len(col) != n:
                errors.append(f"codeword {col} is not a normalized nonzero vector")
                return errors
    if errors or not rows:
        return errors
    stack = np.array([cols for cols, _ in rows], dtype=np.int64)
    ok, top = census_facts(problem_doc, stack)
    if not ok.all():
        errors.append(f"{int((~ok).sum())} listed codes are not decodable")
    wrong = int((top != np.array([t for _, t in rows])).sum())
    if wrong:
        errors.append(f"{wrong} codes have a wrong max transmission count")
    return errors


# ------------------------------------------------------------------ channel checks


def qpsk_gray_rayleigh_ber(snr_db: float) -> float:
    """Bit error rate of Gray QPSK at Es/N0 = snr_db under Rayleigh fading."""
    g = 10.0 ** (snr_db / 10.0)
    return 0.5 * (1.0 - math.sqrt(g / (2.0 + g)))


@cache
def _legendre_nodes(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def psk_rayleigh_ser(order: int, snr_db: float, nodes: int = 200) -> float:
    """Symbol error rate of M-PSK at Es/N0 = snr_db under Rayleigh fading.

    Craig's finite-range form averaged over an exponential |h|^2:
    (1/pi) * integral_0^{(M-1)pi/M} sin^2 t / (sin^2 t + g sin^2(pi/M)) dt,
    by Gauss-Legendre quadrature.
    """
    g = 10.0 ** (snr_db / 10.0)
    upper = (order - 1) * math.pi / order
    x, w = _legendre_nodes(nodes)
    theta = 0.5 * upper * (x + 1.0)
    s2 = np.sin(theta) ** 2
    return float(0.5 * upper * np.sum(w * s2 / (s2 + g * math.sin(math.pi / order) ** 2)) / math.pi)


def binomial_pvalue(k: int, trials: int, p: float) -> float:
    """Two-sided exact binomial tail probability of k errors in trials."""
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(trials + 1)

    def pmf(j):
        log_choose = base - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
        return math.exp(log_choose + j * log_p + (trials - j) * log_q)

    steps = range(k, -1, -1) if k <= trials * p else range(k, trials + 1)
    total = 0.0
    for j in steps:
        term = pmf(j)
        total += term
        if term <= total * 1e-17:
            break
    return min(1.0, 2.0 * total)


def parse_comparison_csv(text: str):
    """Comparison-mode CSV -> (header lines, [(label, receiver, demand, snr, trials, errors, bep_text)])."""
    header, rows = [], []
    for line in text.splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line.startswith("code,"):
            if line != "code,receiver,demand,snr_db,trials,bit_errors,bep":
                raise ValueError(f"unexpected CSV header {line!r}")
        else:
            label, r, d, snr, trials, errs, bep = line.split(",")
            rows.append((label, int(r), int(d), float(snr), int(trials), int(errs), bep))
    return header, rows


def check_comparison(text: str, spec, alpha: float) -> list[str]:
    """A `simulate` comparison CSV against closed forms and the star ordering.

    spec: {"q", "modulation", "trials", "snr", "seed", "receivers",
    "codes": [(label, columns)]}, the first code being the star.  alpha is
    the false-alarm level shared by this run's binomial tests.
    """
    errors: list[str] = []
    try:
        header, rows = parse_comparison_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    if not header or header[0] != f"# seed={spec['seed']}":
        errors.append("CSV does not start with the run's seed")
    q, trials, receivers = spec["q"], spec["trials"], spec["receivers"]
    known = {r: k for r, (_, k) in enumerate(receivers, start=1)}
    demands = [(r, d) for r, (wants, _) in enumerate(receivers, start=1) for d in sorted(wants)]
    expected_keys = [
        (label, r, d, snr) for label, _ in spec["codes"] for snr in spec["snr"] for r, d in demands
    ]
    if [(row[0], row[1], row[2], row[3]) for row in rows] != expected_keys:
        return errors + ["CSV rows do not list every code, SNR point and demand in order"]
    for row in rows:
        if row[4] != trials or row[6] != f"{row[5] / trials:.10g}":
            errors.append(f"row {row[:4]}: bep {row[6]} is not bit_errors/trials")
    if errors:
        return errors

    tests = []
    curves = {}
    for label, columns in spec["codes"]:
        counts = min_counts(np.array([columns], dtype=np.int64), q, known, demands)[0]
        count_of = dict(zip(demands, counts))
        mine = [row for row in rows if row[0] == label]
        for _, r, d, snr, _, errs, _ in mine:
            if count_of[(r, d)] == 1:
                if spec["modulation"] == 4:
                    p = qpsk_gray_rayleigh_ber(snr)
                else:
                    p = psk_rayleigh_ser(spec["modulation"], snr)
                tests.append((label, r, d, snr, errs, p))
        pooled: dict[tuple[int, float], list[int]] = {}
        for _, r, _, snr, _, errs, _ in mine:
            pooled.setdefault((r, snr), []).append(errs)
        curves[label] = {
            snr: max(
                (sum(v) / (trials * len(v)), trials * len(v))
                for (r, s), v in pooled.items()
                if s == snr
            )
            for snr in spec["snr"]
        }
    for label, r, d, snr, errs, p in tests:
        if binomial_pvalue(errs, trials, p) < alpha / len(tests):
            errors.append(
                f"{label} receiver {r} x{d} at {snr:g} dB: {errs}/{trials} errors, closed form {p:.4g}"
            )
    star, other = (label for label, _ in spec["codes"])
    for snr in spec["snr"]:
        (b, bn), (o, on) = curves[star][snr], curves[other][snr]
        slack = 3.0 * math.sqrt(b * (1 - b) / bn + o * (1 - o) / on)
        if b > o + slack:
            errors.append(f"star worst receiver {b:.4g} exceeds {o:.4g} at {snr:g} dB")
    return errors
