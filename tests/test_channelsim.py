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
from uniprior.codegen import decoding_plan, design_min_max_code, parse_code
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
    ],
)
def test_config_rejections(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_config_text(text)


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

