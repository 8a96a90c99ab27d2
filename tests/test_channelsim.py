import math
import re

import numpy as np
import pytest

from conftest import code_path, config_path, problem_path
from uniprior import channelsim
from uniprior.channelsim import (
    BLOCK_TRIALS,
    DEFAULT_SEED,
    ChannelConfig,
    _draw_fading,
    _gray_tables,
    config_from_mapping,
    modulate,
    parse_config,
    parse_config_text,
    records_to_csv,
    resolve_code_selector,
    simulate_bep,
    transmit_and_detect,
    with_overrides,
)
from uniprior.codegen import (
    DecodingPlan,
    DemandPlan,
    LinearCode,
    decoding_plan,
    design_min_max_code,
    parse_code,
)
from uniprior.errors import ValidationError
from uniprior.graphcore import parse_problem, parse_problem_text


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def cfg(**overrides):
    base = dict(
        modulation=4,
        mapping="gray",
        fading="none",
        snr_points_db=(0.0,),
        trials=100,
    )
    base.update(overrides)
    return ChannelConfig(**base)


# ---------------------------------------------------------------- config


def test_parse_config_fixture():
    config = parse_config(config_path("rayleigh_4psk"))
    assert config.modulation == 4
    assert config.mapping == "gray"
    assert config.fading == "rayleigh"
    assert config.snr_points_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    assert config.trials == 100000
    assert config.seed == 20240
    assert config.rician_k is None
    assert config.bits_per_symbol == 2
    assert config.field_order() == 2


def test_parse_rician_fixture():
    config = parse_config(config_path("rician2_4psk"))
    assert config.fading == "rician"
    assert config.rician_k == 2.0


def test_seed_defaults_when_omitted():
    config = parse_config_text(
        "modulation: 2\nmapping: gray\nfading: none\nsnr_db: [3]\ntrials: 10\n"
    )
    assert config.seed == DEFAULT_SEED


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("- 1\n- 2\n", "must be a mapping"),
        ("modulation: 4\nmapping: gray\nfading: none\nsnr_db: [0]\n", "missing field"),
        (
            "modulation: 4\nmapping: gray\nfading: none\nsnr_db: [0]\ntrials: 5\nextra: 1\n",
            "unknown field",
        ),
        (
            "modulation: 5\nmapping: gray\nfading: none\nsnr_db: [0]\ntrials: 5\n",
            "modulation order",
        ),
        (
            "modulation: 4\nmapping: natural\nfading: none\nsnr_db: [0]\ntrials: 5\n",
            "requires 'gray'",
        ),
        (
            "modulation: 3\nmapping: gray\nfading: none\nsnr_db: [0]\ntrials: 5\n",
            "requires 'natural'",
        ),
        (
            "modulation: 4\nmapping: gray\nfading: breeze\nsnr_db: [0]\ntrials: 5\n",
            "fading must be one of",
        ),
        (
            "modulation: 4\nmapping: gray\nfading: rician\nsnr_db: [0]\ntrials: 5\n",
            "rician_k > 0",
        ),
        (
            "modulation: 4\nmapping: gray\nfading: rayleigh\nsnr_db: [0]\ntrials: 5\n"
            "rician_k: 2\n",
            "only applies to rician",
        ),
        ("modulation: 4\nmapping: gray\nfading: none\nsnr_db: []\ntrials: 5\n", "non-empty"),
        (
            "modulation: 4\nmapping: gray\nfading: none\nsnr_db: [0, low]\ntrials: 5\n",
            "must be numbers",
        ),
        ("modulation: 4\nmapping: gray\nfading: none\nsnr_db: [0]\ntrials: 0\n", "at least 1"),
        (
            "modulation: 4\nmapping: gray\nfading: none\nsnr_db: [0]\ntrials: true\n",
            "integer",
        ),
        ("modulation: 4\nmapping: [gray]\nfading: none\nsnr_db: [0]\ntrials: 5\n", "string"),
        ("modulation: 4\nmapping: gray\nfading: none\nsnr_db: [0]\ntrials: 5\n:", "malformed"),
        ("modulation: 4\nmapping: gray\nfading: none\nsnr_db: [.inf]\ntrials: 5\n", "not finite"),
        ("modulation: 4\nmapping: gray\nfading: none\nsnr_db: [.nan]\ntrials: 5\n", "not finite"),
        ("modulation: 4\nmapping: gray\nfading: none\nsnr_db: [-.inf]\ntrials: 5\n", "not finite"),
        ("modulation: 4\nmapping: gray\nfading: none\nsnr_db: [4000]\ntrials: 5\n", "overflows"),
        (
            "modulation: 4\nmapping: gray\nfading: none\nsnr_db: [0, 1" + "0" * 400 + "]\n"
            "trials: 5\n",
            "overflows",
        ),
        (
            "modulation: 4\nmapping: gray\nfading: rician\nsnr_db: [10]\ntrials: 5\n"
            "rician_k: .inf\n",
            "finite rician_k > 0",
        ),
        (
            "modulation: 4\nmapping: gray\nfading: rician\nsnr_db: [10]\ntrials: 5\n"
            "rician_k: .nan\n",
            "finite rician_k > 0",
        ),
    ],
)
def test_config_rejections(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_config_text(text)


def test_largest_snr_whose_energy_fits_a_float_is_accepted():
    top = 3082.0
    assert math.isfinite(10.0 ** (top / 10.0))
    config = cfg(snr_points_db=(top,))
    assert np.isfinite(modulate([0, 1], config, top)).all()
    with pytest.raises(ValidationError, match="overflows"):
        cfg(snr_points_db=(0.0, top + 1.0))


def test_bool_snr_entry_rejected():
    with pytest.raises(ValidationError, match="must be numbers"):
        config_from_mapping(
            {
                "modulation": 4,
                "mapping": "gray",
                "fading": "none",
                "snr_db": [True],
                "trials": 5,
            }
        )


def test_with_overrides():
    base = cfg(trials=50)
    assert with_overrides(base) == base
    bumped = with_overrides(base, seed=7, trials=123)
    assert bumped.seed == 7
    assert bumped.trials == 123
    assert bumped.modulation == base.modulation
    assert with_overrides(base, seed=9).trials == 50


# ---------------------------------------------------------------- modulation


def test_qpsk_places_zero_bits_on_first_diagonal():
    point = modulate([0, 0], cfg())
    assert point.shape == (1,)
    assert point[0] == pytest.approx(complex(math.sqrt(0.5), math.sqrt(0.5)))


def test_qpsk_gray_neighbours():
    # 00, 01, 11, 10 walk the four quadrants counter-clockwise
    expected_angles = [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
    for bits, angle in zip([(0, 0), (0, 1), (1, 1), (1, 0)], expected_angles):
        point = modulate(list(bits), cfg())
        assert np.angle(point[0]) % (2 * math.pi) == pytest.approx(angle)


def test_bpsk_points_sit_on_imaginary_axis():
    config = cfg(modulation=2)
    assert modulate([0], config)[0] == pytest.approx(1j)
    assert modulate([1], config)[0] == pytest.approx(-1j)


def test_ternary_constellation_natural_order():
    config = cfg(modulation=3, mapping="natural")
    points = modulate([0, 1, 2], config)
    assert points[0] == pytest.approx(1 + 0j)
    assert points[1] == pytest.approx(np.exp(2j * math.pi / 3))
    assert points[2] == pytest.approx(np.exp(4j * math.pi / 3))


def test_modulate_pads_with_zero_bits():
    points = modulate([1, 1, 1], cfg())
    assert points.shape == (2,)
    # trailing group is bits (1, 0) -> Gray value 2 -> constellation index 3
    assert np.angle(points[1]) % (2 * math.pi) == pytest.approx(math.pi / 4 + 3 * math.pi / 2)


def test_modulate_scales_to_snr():
    points = modulate([0, 1], cfg(), snr_db=6.0)
    assert np.abs(points[0]) == pytest.approx(math.sqrt(10 ** 0.6))


def test_modulate_rejects_out_of_range_symbols():
    with pytest.raises(ValidationError, match="binary"):
        modulate([0, 2], cfg())
    with pytest.raises(ValidationError, match="0..2"):
        modulate([3], cfg(modulation=3, mapping="natural"))


@pytest.mark.parametrize("m", [4, 8, 16])
def test_gray_labels_of_adjacent_points_differ_in_one_bit(m):
    gray, inverse = _gray_tables(m)
    assert sorted(gray) == list(range(m))
    assert all(inverse[gray[k]] == k for k in range(m))
    for k in range(m):
        diff = gray[k] ^ gray[(k + 1) % m]
        assert bin(diff).count("1") == 1


# ---------------------------------------------------------------- detection


@pytest.mark.parametrize(
    "modulation, mapping", [(2, "gray"), (4, "gray"), (8, "gray"), (16, "gray"), (3, "natural")]
)
def test_high_snr_detection_is_exact(modulation, mapping):
    config = cfg(modulation=modulation, mapping=mapping)
    q = config.field_order()
    rng = np.random.Generator(np.random.Philox(key=11))
    symbols = rng.integers(0, q, size=(20, 12), dtype=np.int64)
    tx = modulate(symbols, config, snr_db=40.0)
    detected = transmit_and_detect(tx, config, rng, n_transmissions=12)
    assert detected.shape == symbols.shape
    assert np.array_equal(detected, symbols)


def test_detection_drops_padding():
    config = cfg()
    tx = modulate([1, 0, 1], config, snr_db=40.0)
    rng = np.random.Generator(np.random.Philox(key=3))
    detected = transmit_and_detect(tx, config, rng, n_transmissions=3)
    assert detected.shape == (3,)
    assert detected.tolist() == [1, 0, 1]


def test_awgn_qpsk_bit_error_rate_matches_q_function():
    config = cfg(snr_points_db=(4.0,))
    es = 10 ** 0.4
    expected = qfunc(math.sqrt(es))
    rng = np.random.Generator(np.random.Philox(key=21))
    bits = rng.integers(0, 2, size=(50000, 4), dtype=np.int64)
    tx = modulate(bits, config, snr_db=4.0)
    detected = transmit_and_detect(tx, config, rng, n_transmissions=4)
    measured = float((detected != bits).mean())
    sigma = math.sqrt(expected * (1 - expected) / bits.size)
    assert abs(measured - expected) < 3 * sigma


def test_rayleigh_bpsk_matches_closed_form():
    config = cfg(modulation=2, fading="rayleigh")
    gamma = 10.0  # 10 dB average SNR
    expected = 0.5 * (1 - math.sqrt(gamma / (1 + gamma)))
    rng = np.random.Generator(np.random.Philox(key=22))
    bits = rng.integers(0, 2, size=(100000, 1), dtype=np.int64)
    tx = modulate(bits, config, snr_db=10.0)
    detected = transmit_and_detect(tx, config, rng, n_transmissions=1)
    measured = float((detected != bits).mean())
    sigma = math.sqrt(expected * (1 - expected) / bits.size)
    assert abs(measured - expected) < 3 * sigma


def test_fading_draws_have_unit_mean_power():
    rng = np.random.Generator(np.random.Philox(key=23))
    rayleigh = _draw_fading(rng, 200000, cfg(fading="rayleigh"))
    assert abs(float(np.mean(np.abs(rayleigh) ** 2)) - 1.0) < 0.01
    rician = _draw_fading(rng, 200000, cfg(fading="rician", rician_k=2.0))
    assert abs(float(np.mean(np.abs(rician) ** 2)) - 1.0) < 0.01
    # the deterministic line-of-sight part carries K/(K+1) of the power
    assert abs(float(np.mean(rician).real) - math.sqrt(2.0 / 3.0)) < 0.01
    none = _draw_fading(rng, 5, cfg(fading="none"))
    assert np.array_equal(none, np.ones(5))


# ---------------------------------------------------------------- detection reference
#
# The detector as it stood before the decision tables: phase index by integer
# % m, then Gray lookup and bit expansion.  transmit_and_detect must give the
# same symbols, value for value.


def reference_detect_indices(y, h, config):
    m = config.modulation
    rotated = y * np.conj(h)[..., None]
    step = 2.0 * np.pi / m
    idx = np.rint((np.angle(rotated) - channelsim._phase_offset(config)) / step).astype(np.int64)
    return idx % m


def reference_indices_to_symbols(idx, config, n_transmissions):
    if config.mapping == "natural":
        return idx[..., :n_transmissions]
    gray, _ = _gray_tables(config.modulation)
    b = config.bits_per_symbol
    shifts = np.arange(b - 1, -1, -1)
    bits = (gray[idx][..., None] >> shifts) & 1
    flat = bits.reshape(idx.shape[:-1] + (-1,))
    return flat[..., :n_transmissions]


def reference_transmit_and_detect(symbols, config, rng, n_transmissions=None):
    arr = np.asarray(symbols, dtype=np.complex128)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    frames, points = arr.shape
    h = _draw_fading(rng, frames, config)
    noise = channelsim._complex_normal(rng, (frames, points))
    y = h[:, None] * arr + noise
    idx = reference_detect_indices(y, h, config)
    if n_transmissions is None:
        n_transmissions = points * (1 if config.mapping == "natural" else config.bits_per_symbol)
    out = reference_indices_to_symbols(idx, config, n_transmissions)
    return out[0] if single else out


ALL_MODULATIONS = [(2, "gray"), (3, "natural"), (4, "gray"), (8, "gray"), (16, "gray")]


def assert_same_detection(new, old):
    assert new.shape == old.shape
    assert np.array_equal(new, old)


@pytest.mark.parametrize("modulation, mapping", ALL_MODULATIONS)
@pytest.mark.parametrize("fading", ["none", "rayleigh", "rician"])
def test_detection_matches_reference_on_random_frames(modulation, mapping, fading):
    config = cfg(
        modulation=modulation,
        mapping=mapping,
        fading=fading,
        rician_k=2.0 if fading == "rician" else None,
    )
    q = config.field_order()
    b = config.bits_per_symbol
    draw = np.random.Generator(np.random.Philox(key=modulation))
    # lengths 3b + 1 and 1 pad the last channel symbol whenever b > 1
    for n_trans in (3 * b, 3 * b + 1, 1):
        symbols = draw.integers(0, q, size=(500, n_trans), dtype=np.int64)
        for snr in (-5.0, 3.0, 12.0):
            tx = modulate(symbols, config, snr)
            for n_arg in (None, n_trans):
                key = [modulation * 100 + n_trans, int(snr) + 100]
                new_rng = np.random.Generator(np.random.Philox(key=key))
                old_rng = np.random.Generator(np.random.Philox(key=key))
                new = transmit_and_detect(tx, config, new_rng, n_arg)
                old = reference_transmit_and_detect(tx, config, old_rng, n_arg)
                assert_same_detection(new, old)
                assert new.dtype == np.int8
                # one frame as a 1-D array
                new = transmit_and_detect(tx[7], config, new_rng, n_arg)
                old = reference_transmit_and_detect(tx[7], config, old_rng, n_arg)
                assert_same_detection(new, old)


class PresetNormals:
    """Stands in for a Generator: hands out preset standard normals in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        draw = self.draws.pop(0)
        assert draw.shape == shape
        return draw.copy()


def boundary_points(config):
    """Points on each decision angle, one ulp either side in each coordinate,
    and signed zeros on both axes."""
    m = config.modulation
    step = 2.0 * np.pi / m
    angles = channelsim._phase_offset(config) + (np.arange(m) + 0.5) * step
    points = []
    for angle in np.concatenate([angles, np.arange(8) * np.pi / 4]):
        x, y = math.cos(angle), math.sin(angle)
        for dx in (-math.inf, None, math.inf):
            for dy in (-math.inf, None, math.inf):
                px = x if dx is None else math.nextafter(x, dx)
                py = y if dy is None else math.nextafter(y, dy)
                points.append(complex(px, py))
    for a in (1.0, -1.0, 0.0, -0.0):
        for b in (0.0, -0.0):
            points += [complex(a, b), complex(b, a)]
    points += [complex(t, t) for t in (0.5, -0.5)] + [complex(0.5, -0.5), complex(-0.5, 0.5)]
    return np.array(points)


@pytest.mark.parametrize("modulation, mapping", ALL_MODULATIONS)
def test_detection_matches_reference_on_decision_boundaries(modulation, mapping):
    # Rayleigh fading with preset normals gives h = +-1 with a signed-zero
    # imaginary part and zero noise, so y * conj(h) keeps each point (up to
    # the sign of a zero) and rounding meets every tie of the decision rule.
    config = cfg(modulation=modulation, mapping=mapping, fading="rayleigh")
    points = boundary_points(config)
    h_parts = [(re, im) for re in (1.0, -1.0) for im in (0.0, -0.0)]
    frames = len(h_parts)
    tx = np.tile(points, (frames, 1))
    fading = np.array(h_parts) * math.sqrt(2.0)
    assert np.array_equal(fading * (1.0 / math.sqrt(2.0)), np.array(h_parts))
    noise = np.zeros(tx.shape + (2,))
    new = transmit_and_detect(tx, config, PresetNormals(fading, noise))
    old = reference_transmit_and_detect(tx, config, PresetNormals(fading, noise))
    assert_same_detection(new, old)

    # The rotated points reach the angle +-pi with either sign of zero.
    h = fading.view(np.complex128)[:, 0] * (1.0 / math.sqrt(2.0))
    rotated = (h[:, None] * tx) * np.conj(h)[:, None]
    on_negative_axis = rotated[(rotated.real < 0) & (rotated.imag == 0)]
    assert set(np.signbit(on_negative_axis.imag)) == {False, True}


# ---------------------------------------------------------------- simulation


@pytest.fixture(scope="module")
def four_cycle():
    problem = parse_problem(problem_path("four_user_cycle"))
    code = design_min_max_code(problem).code
    plan = decoding_plan(code, problem)
    return problem, code, plan


def test_simulation_record_layout(four_cycle):
    problem, code, plan = four_cycle
    config = cfg(snr_points_db=(0.0, 10.0), trials=500)
    records = simulate_bep(problem, code, plan, config)
    assert len(records) == 8
    assert [(r.receiver, r.demand) for r in records[:4]] == [(1, 2), (2, 3), (3, 4), (4, 1)]
    assert all(r.snr_db == 0.0 for r in records[:4])
    assert all(r.snr_db == 10.0 for r in records[4:])
    for rec in records:
        assert rec.trials == 500
        assert 0 <= rec.bit_errors <= rec.trials
        assert rec.bep == pytest.approx(rec.bit_errors / rec.trials)


def test_bep_declines_with_snr(four_cycle):
    problem, code, plan = four_cycle
    config = cfg(snr_points_db=(0.0, 6.0, 12.0), trials=20000)
    records = simulate_bep(problem, code, plan, config)
    slack = 3 * math.sqrt(0.25 / config.trials)
    by_rd = {}
    for rec in records:
        by_rd.setdefault((rec.receiver, rec.demand), []).append(rec.bep)
    for curve in by_rd.values():
        assert len(curve) == 3
        assert curve[1] <= curve[0] + slack
        assert curve[2] <= curve[1] + slack
        assert curve[0] > 0.01  # 0 dB is genuinely noisy


def test_thread_count_does_not_change_results(four_cycle):
    problem, code, plan = four_cycle
    config = cfg(snr_points_db=(2.0, 8.0), trials=BLOCK_TRIALS * 2 + 100)
    serial = simulate_bep(problem, code, plan, config, threads=1)
    threaded = simulate_bep(problem, code, plan, config, threads=4)
    assert serial == threaded


class InlineExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus, expected", [(64, [6]), (4, [4]), (1, [])])
def test_worker_threads_are_capped_at_cpus_and_tasks(four_cycle, monkeypatch, cpus, expected):
    problem, code, plan = four_cycle
    config = cfg(snr_points_db=(2.0, 8.0), trials=BLOCK_TRIALS * 2 + 100)  # 6 tasks
    serial = simulate_bep(problem, code, plan, config, threads=1)
    monkeypatch.setattr(channelsim, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(channelsim, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(InlineExecutor, "created", [])
    assert simulate_bep(problem, code, plan, config, threads=100000) == serial
    assert InlineExecutor.created == expected


def test_return_raw_counts_transmission_errors(four_cycle):
    problem, code, plan = four_cycle
    config = cfg(snr_points_db=(4.0,), trials=3000)
    records, raw = simulate_bep(problem, code, plan, config, return_raw=True)
    assert set(raw) == {(0, r) for r in range(1, 5)}
    denominator = config.trials * code.length
    for count in raw.values():
        assert 0 <= count <= denominator
    es = 10 ** 0.4
    expected = qfunc(math.sqrt(es))
    sigma = math.sqrt(expected * (1 - expected) / denominator)
    for count in raw.values():
        assert abs(count / denominator - expected) < 4 * sigma


def test_seed_changes_results(four_cycle):
    problem, code, plan = four_cycle
    base = cfg(snr_points_db=(2.0,), trials=4000)
    records_a = simulate_bep(problem, code, plan, base)
    records_b = simulate_bep(problem, code, plan, with_overrides(base, seed=999))
    assert records_a != records_b


def test_field_mismatch_rejected(four_cycle):
    problem, code, plan = four_cycle
    ternary = cfg(modulation=3, mapping="natural")
    with pytest.raises(ValidationError, match="F_3"):
        simulate_bep(problem, code, plan, ternary)


def test_plan_for_other_code_rejected(four_cycle):
    problem, code, _plan = four_cycle
    other = parse_code(code_path("nine_user_star"))
    nine = parse_problem(problem_path("nine_user_skip"))
    other_plan = decoding_plan(other, nine)
    with pytest.raises(ValidationError, match="different code"):
        simulate_bep(problem, code, other_plan, cfg())


@pytest.mark.parametrize(
    "known, terms",
    [
        ((), ((2, 1),)),  # wrong column
        ((), ((1, 1), (2, 1))),  # right columns, known message left out
        (((1, 1),), ((1, 1), (9, 1))),  # column past the code's length
        (((0, 1),), ((1, 1),)),  # message 0 does not exist
    ],
)
def test_plan_that_does_not_decode_is_refused(four_cycle, known, terms):
    problem, code, plan = four_cycle
    first = plan.entries[0]
    assert (first.receiver, first.demand, first.known_terms, first.code_terms) == (
        1, 2, ((1, 1),), ((1, 1),)
    )
    wrong = DemandPlan(receiver=1, demand=2, known_terms=known, code_terms=terms)
    bad_plan = DecodingPlan(code=code, entries=(wrong,) + plan.entries[1:])
    with pytest.raises(ValidationError, match="receiver 1 does not decode"):
        simulate_bep(problem, code, bad_plan, cfg())


def test_hand_built_plan_that_decodes_is_accepted(four_cycle):
    # x2 = x1 + t1 written as x2 = 2*x1 + t1 + x1 over F_2: the identity holds
    problem, code, plan = four_cycle
    same = DemandPlan(receiver=1, demand=2, known_terms=((1, 3),), code_terms=((1, 1),))
    records = simulate_bep(problem, code, plan, cfg(trials=300))
    other = DecodingPlan(code=code, entries=(same,) + plan.entries[1:])
    assert simulate_bep(problem, code, other, cfg(trials=300)) == records


# ---------------------------------------------------------------- block reference
#
# _run_block as it stood before the error-pattern form: every estimate built
# from the messages and the detected symbols, entry by entry.


def reference_run_block(problem, code, grouped_plan, config, snr_idx, block_idx, block_size):
    rng = np.random.Generator(
        np.random.Philox(key=config.seed, counter=[0, 0, snr_idx, block_idx])
    )
    q, n = problem.q, problem.n
    messages = rng.integers(0, q, size=(block_size, n), dtype=np.int64)
    code_symbols = messages @ code.matrix() % q
    tx = modulate(code_symbols, config, config.snr_points_db[snr_idx])
    errors, raw_errors = {}, {}
    for receiver in range(1, problem.m + 1):
        detected = reference_transmit_and_detect(tx, config, rng, code.length)
        raw_errors[receiver] = int((detected != code_symbols).sum())
        for entry in grouped_plan.get(receiver, []):
            estimate = np.zeros(block_size, dtype=np.int64)
            for msg, coeff in entry.known_terms:
                estimate += coeff * messages[:, msg - 1]
            for col, coeff in entry.code_terms:
                estimate += coeff * detected[:, col - 1]
            estimate %= q
            wrong = int((estimate != messages[:, entry.demand - 1]).sum())
            errors[(receiver, entry.demand)] = wrong
    return errors, raw_errors


def assert_blocks_match_reference(problem, code, config, sizes=(1000,)):
    plan = decoding_plan(code, problem)
    grouped = {}
    for entry in plan.entries:
        grouped.setdefault(entry.receiver, []).append(entry)
    rows = channelsim._plan_rows(problem, code, plan)
    wrong = 0
    for snr_idx in range(len(config.snr_points_db)):
        for block_idx, size in enumerate(sizes):
            new = channelsim._run_block(problem, code, rows, config, snr_idx, block_idx, size)
            old = reference_run_block(problem, code, grouped, config, snr_idx, block_idx, size)
            assert new == old
            wrong += sum(new[0].values())
    assert wrong > 0  # the comparison saw decoding errors


BINARY_CONFIGS = [
    "awgn_4psk_4db", "rayleigh_4psk", "rayleigh_8psk", "rayleigh_16psk", "rician2_4psk", "smoke"
]
FIXTURE_CODES = [
    ("nine_user_skip", "nine_user_path", BINARY_CONFIGS),
    ("nine_user_skip", "nine_user_star", BINARY_CONFIGS),
    ("nine_user_skip", "nine_user_tree_b", BINARY_CONFIGS),
    ("nine_user_skip", "nine_user_tree_c", BINARY_CONFIGS),
    ("seven_user_complete", "seven_user_path", BINARY_CONFIGS),
    ("seven_user_complete", "seven_user_star", BINARY_CONFIGS),
    ("seven_user_complete_f3", "seven_user_path_f3", ["rayleigh_3psk"]),
    ("seven_user_complete_f3", "seven_user_star_f3", ["rayleigh_3psk"]),
]


@pytest.mark.parametrize("problem_name, code_name, configs", FIXTURE_CODES)
def test_blocks_match_reference_on_fixture_codes(problem_name, code_name, configs):
    problem = parse_problem(problem_path(problem_name))
    code = parse_code(code_path(code_name))
    plan = decoding_plan(code, problem)
    assert all(entry.known_terms for entry in plan.entries)
    if problem.q == 3:
        assert any(coeff == 2 for entry in plan.entries for _, coeff in entry.code_terms)
    for name in configs:
        config = parse_config(config_path(name))
        assert_blocks_match_reference(problem, code, config, sizes=(600, 77))


def test_blocks_match_reference_with_coefficient_two_and_known_terms():
    # Every receiver knows two messages over F_3, so plans mix known terms
    # with coefficient-2 code terms.
    problem = parse_problem_text(
        "q: 3\nn: 4\nreceivers:\n"
        "  - {id: 1, wants: [2, 3], knows: [1, 4]}\n"
        "  - {id: 2, wants: [3], knows: [2, 1]}\n"
        "  - {id: 3, wants: [4], knows: [3, 2]}\n"
        "  - {id: 4, wants: [1], knows: [4, 3]}\n"
    )
    code = LinearCode(q=3, n=4, columns=((1, 2, 0, 1), (0, 1, 1, 0), (1, 0, 2, 2)))
    plan = decoding_plan(code, problem)
    assert any(entry.known_terms for entry in plan.entries)
    assert any(coeff == 2 for entry in plan.entries for _, coeff in entry.code_terms)
    config = parse_config(config_path("rayleigh_3psk"))
    assert_blocks_match_reference(problem, code, config)


@pytest.mark.parametrize("q", [2, 3])
def test_blocks_match_reference_with_idle_receiver_and_padding(q):
    # Receiver 2 wants nothing.  The code has three transmissions, so QPSK
    # pads its second channel symbol and 16-PSK its only one; 8-PSK padding
    # is covered by the eight-transmission nine-user codes above.
    problem = parse_problem_text(
        f"q: {q}\nn: 4\nreceivers:\n"
        "  - {id: 1, wants: [2, 3], knows: [1]}\n"
        "  - {id: 2, wants: [], knows: [2]}\n"
        "  - {id: 3, wants: [1], knows: [3]}\n"
        "  - {id: 4, wants: [3], knows: [4]}\n"
    )
    code = design_min_max_code(problem).code
    assert code.length == 3
    plan = decoding_plan(code, problem)
    assert 2 not in {entry.receiver for entry in plan.entries}
    modulations = [(3, "natural")] if q == 3 else [(4, "gray"), (8, "gray"), (16, "gray")]
    for modulation, mapping in modulations:
        config = cfg(
            modulation=modulation, mapping=mapping, fading="rayleigh", snr_points_db=(0.0, 8.0)
        )
        assert_blocks_match_reference(problem, code, config, sizes=(999, 4))


# ---------------------------------------------------------------- selectors & CSV


def test_resolve_alg2(four_cycle):
    problem, code, _ = four_cycle
    assert resolve_code_selector(problem, "alg2") == code


def test_resolve_matrix_path():
    problem = parse_problem(problem_path("nine_user_skip"))
    code = resolve_code_selector(problem, f"matrix:{code_path('nine_user_star')}")
    assert code.length == 8
    assert code.n == 9


def test_resolve_enum_index(four_cycle):
    problem, _, _ = four_cycle
    first = resolve_code_selector(problem, "enum:1")
    assert first.length == 3
    second = resolve_code_selector(problem, "enum:2")
    assert first != second


@pytest.mark.parametrize(
    "selector, fragment",
    [
        ("matrix:", "needs a file path"),
        ("enum:zero", "integer index"),
        ("enum:0", "1-based"),
        ("enum:4000", "exceeds"),
        ("alg3", "unknown code selector"),
    ],
)
def test_bad_selectors_rejected(four_cycle, selector, fragment):
    problem, _, _ = four_cycle
    with pytest.raises(ValidationError, match=fragment):
        resolve_code_selector(problem, selector)


def test_csv_reproducibility_header(four_cycle):
    problem, code, plan = four_cycle
    config = cfg(snr_points_db=(0.0, 5.0), trials=200)
    records = simulate_bep(problem, code, plan, config)
    text = records_to_csv(config, [("alg2", code, records)])
    lines = text.strip().split("\n")
    assert lines[0] == f"# seed={config.seed}"
    assert lines[1] == "# config=modulation=4,mapping=gray,fading=none,snr_db=0:5,trials=200"
    assert re.fullmatch(r"# code=alg2 sha256=[0-9a-f]{16}", lines[2])
    assert lines[3] == "receiver,demand,snr_db,trials,bit_errors,bep"
    assert len(lines) == 4 + 8
    first = lines[4].split(",")
    assert first[0] == "1" and first[1] == "2" and first[2] == "0"

