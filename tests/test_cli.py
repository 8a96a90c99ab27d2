import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from conftest import FIXTURES, code_path, config_path, problem_path, random_square_problem_text
from test_codegen import dependent_path_code
from uniprior import channelsim, cli, codegen, enumeration, graphcore
from uniprior.codegen import LinearCode, design_min_max_code, parse_code, write_code
from uniprior.fields import unit_vector
from uniprior.graphcore import parse_problem, parse_problem_text


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "uniprior.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# ---------------------------------------------------------------- prune


def test_prune_strong_graph():
    result = run_cli("prune", "--problem", str(problem_path("four_user_strong")))
    assert result.returncode == 0
    assert result.stderr == ""
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "receivers: 4; messages: 4 over F_2"
    assert lines[1] == "components: 1"
    assert lines[2] == "  component 1: {1, 2, 3, 4}"
    assert "leftover arcs: 0" in lines
    assert "direct messages: 0" in lines
    assert lines[-1] == "optimal code length: 3"


def test_prune_reports_leftovers_and_direct_messages(tmp_path):
    doc = tmp_path / "mixed.yaml"
    doc.write_text(
        "q: 2\nn: 4\nreceivers:\n"
        "  - {id: 1, wants: [2, 3], knows: [1]}\n"
        "  - {id: 2, wants: [1, 4], knows: [2]}\n"
        "  - {id: 3, wants: [], knows: [3]}\n"
    )
    result = run_cli("prune", "--problem", str(doc))
    assert result.returncode == 0
    out = result.stdout
    assert "  component 1: {1, 2}" in out
    assert "leftover arcs: 1 [(3, 1)]" in out
    assert "direct messages: 1 [4]" in out
    assert "optimal code length: 3" in out


def test_prune_runs_pruning_once(monkeypatch, capsys):
    original = graphcore.prune
    calls = []

    def counting(graph):
        calls.append(graph)
        return original(graph)

    for module in (graphcore, cli, codegen, enumeration):
        if getattr(module, "prune", None) is original:
            monkeypatch.setattr(module, "prune", counting)
    assert cli.main(["prune", "--problem", str(problem_path("five_user_two_step"))]) == 0
    assert "optimal code length: " in capsys.readouterr().out
    assert len(calls) == 1


# ---------------------------------------------------------------- codegen


def test_codegen_writes_matrix_and_plan(tmp_path):
    out_dir = tmp_path / "design"
    result = run_cli(
        "codegen",
        "--problem",
        str(problem_path("four_user_strong")),
        "--out",
        str(out_dir),
    )
    assert result.returncode == 0
    assert "code length: 3" in result.stdout
    assert "max transmissions per demand: 2" in result.stdout
    assert "wrote" in result.stderr

    written = parse_code(out_dir / "matrix.yaml")
    problem = parse_problem(problem_path("four_user_strong"))
    designed = design_min_max_code(problem).code
    assert (written.q, written.n, written.columns) == (designed.q, designed.n, designed.columns)
    assert written.code_hash() == designed.code_hash()

    plan_lines = (out_dir / "plan.csv").read_text().strip().split("\n")
    assert plan_lines[0] == "receiver,demand,count,expression"
    assert len(plan_lines) == 1 + 6  # one row per (receiver, demand)


def test_codegen_plans_a_300_receiver_problem(tmp_path, capsys):
    doc = tmp_path / "large.yaml"
    doc.write_text(random_square_problem_text(300, 2, 0.1, seed=300))
    assert cli.main(["codegen", "--problem", str(doc), "--out", str(tmp_path / "design")]) == 0
    assert "max transmissions per demand: 2" in capsys.readouterr().out
    plan_lines = (tmp_path / "design" / "plan.csv").read_text().strip().split("\n")
    assert len(plan_lines) == 1 + len(parse_problem(doc).demands())


def test_codegen_serves_a_30_receiver_bidirected_path_in_one_transmission(tmp_path, capsys):
    # receiver i knows x_i and wants its neighbours' messages: the path tree
    # keeps every demand on one coded symbol
    m = 30
    lines = ["q: 2", f"n: {m}", "receivers:"]
    for i in range(1, m + 1):
        wants = [j for j in (i - 1, i + 1) if 1 <= j <= m]
        lines.append(f"  - {{id: {i}, wants: {wants}, knows: [{i}]}}")
    doc = tmp_path / "bipath.yaml"
    doc.write_text("\n".join(lines) + "\n")
    assert cli.main(["codegen", "--problem", str(doc), "--out", str(tmp_path / "design")]) == 0
    out = capsys.readouterr().out
    assert f"code length: {m - 1}" in out
    assert "max transmissions per demand: 1" in out


def test_codegen_eight_cycle_output_is_pinned(tmp_path, capsys):
    # receiver i knows x_i and wants x_{i mod 8 + 1}: one 8-vertex component
    # whose demand support is a cycle, so every labeled tree on 8 vertices is
    # scored; the digests were recorded with the tables of the reference
    # decoder (test_codegen.reference_tree_tables)
    lines = ["q: 2", "n: 8", "receivers:"]
    lines += [f"  - {{id: {i}, wants: [{i % 8 + 1}], knows: [{i}]}}" for i in range(1, 9)]
    doc = tmp_path / "cycle8.yaml"
    doc.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "design"
    assert cli.main(["codegen", "--problem", str(doc), "--out", str(out_dir)]) == 0
    assert "max transmissions per demand: 2" in capsys.readouterr().out
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("matrix.yaml", "plan.csv")
    }
    assert digests == {
        "matrix.yaml": "94e093a28363312afdad20082c6a9460aa2fed2903ece10b8f9b180320ca415f",
        "plan.csv": "2045a3dc20b011d9646387a64e2d4560afc40eebb5023db941c956e9277a13f6",
    }


def test_codegen_round_trips_an_empty_code(tmp_path):
    # receiver 1 knows x_1 and wants nothing: the designed code is empty, and
    # its matrix.yaml must read back as that code, not fail to parse
    doc = tmp_path / "problem.yaml"
    doc.write_text("q: 2\nn: 2\nreceivers:\n  - {id: 1, wants: [], knows: [1]}\n")
    out_dir = tmp_path / "design"
    result = run_cli("codegen", "--problem", str(doc), "--out", str(out_dir))
    assert result.returncode == 0
    assert "code length: 0" in result.stdout
    assert (out_dir / "matrix.yaml").read_text() == "q: 2\nn: 2\ncolumns: []\n"
    written = parse_code(out_dir / "matrix.yaml")
    assert written.code_hash() == design_min_max_code(parse_problem(doc)).code.code_hash()
    # simulate reads the file and refuses the empty code as it refuses alg2's
    for selector in (f"matrix:{out_dir / 'matrix.yaml'}", "alg2"):
        result = run_cli(
            "simulate", "--problem", str(doc), "--code", selector, "--config", str(config_path("smoke"))
        )
        assert result.returncode == 1
        assert result.stderr == "error: cannot simulate a code with no transmissions\n"


def simulate_matrix(tmp_path, code, problem_text):
    """`simulate --code matrix:` on 200 trials, 4-PSK over F_2 or 3-PSK over F_3."""
    matrix, doc = tmp_path / "code.yaml", tmp_path / "problem.yaml"
    write_code(code, matrix)
    doc.write_text(problem_text)
    config = config_path("smoke" if code.q == 2 else "rayleigh_3psk")
    return run_cli(
        "simulate", "--problem", str(doc), "--code", f"matrix:{matrix}",
        "--config", str(config), "--trials", "200", timeout=60,
    )


def test_long_code_with_dependent_columns_is_planned(tmp_path):
    # 21 unit columns plus their sum: longer than the old column bound, but
    # one kernel vector, so it is planned; every demand is one unit column
    n = 21
    code = LinearCode(q=2, n=n, columns=tuple(unit_vector(n, i) for i in range(1, n + 1)) + ((1,) * n,))
    problem_text = random_square_problem_text(n, 2, 0.2, seed=21)
    problem = parse_problem_text(problem_text)
    plan = codegen.decoding_plan(code, problem)
    assert [(e.receiver, e.demand, e.code_terms) for e in plan.entries] == [
        (r, d, ((d, 1),)) for r, d in problem.demands()
    ]
    result = simulate_matrix(tmp_path, code, problem_text)
    assert result.returncode == 0
    rows = [line for line in result.stdout.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 3 * len(problem.demands())  # header, then 3 SNR points per demand


def test_code_past_the_kernel_bound_exits_at_once(tmp_path):
    # 21 unit columns, each sent twice: a kernel of dimension 21 over F_2
    n = codegen.PLAN_SEARCH_LIMIT + 1
    units = tuple(unit_vector(n, i) for i in range(1, n + 1))
    result = simulate_matrix(
        tmp_path, LinearCode(q=2, n=n, columns=units + units), random_square_problem_text(n, 2, 0.2, seed=21)
    )
    assert result.returncode == 2
    assert "not attempted for codes with more than 20 dependent columns" in result.stderr
    assert result.stdout == ""


def test_ternary_code_past_its_kernel_bound_exits_at_once(tmp_path):
    # Path code x_i - x_{i+1} over F_3 with its first column repeated: 13
    # columns, past F_3's old column bound of 12, and one kernel vector, so a
    # receiver knowing x_1 and wanting x_13 is planned (all 12 path columns).
    # With every column repeated the kernel has dimension 13 (3^13 > 2^20),
    # and the code is refused before any demand is planned.
    n = 13
    problem_text = f"q: 3\nn: {n}\nreceivers:\n  - {{id: 1, wants: [{n}], knows: [1]}}\n"
    code = dependent_path_code(3, n)
    entry = codegen.decoding_plan(code, parse_problem_text(problem_text)).entries[0]
    assert entry.count == n - 1
    assert simulate_matrix(tmp_path, code, problem_text).returncode == 0

    n = 14
    path = dependent_path_code(3, n).columns[: n - 1]
    problem_text = f"q: 3\nn: {n}\nreceivers:\n  - {{id: 1, wants: [{n}], knows: [1]}}\n"
    result = simulate_matrix(tmp_path, LinearCode(q=3, n=n, columns=path + path), problem_text)
    assert result.returncode == 2
    assert "not attempted for codes with more than 12 dependent columns" in result.stderr
    assert result.stderr.rstrip().endswith("over F_3")
    assert result.stdout == ""


# ---------------------------------------------------------------- enumerate


def test_enumerate_four_user_cycle_census():
    result = run_cli("enumerate", "--problem", str(problem_path("four_user_cycle")))
    assert result.returncode == 0
    assert result.stdout == "28 codes; max-count histogram {2:12, 3:16}\n"


def test_enumerate_three_user():
    result = run_cli("enumerate", "--problem", str(problem_path("three_user")))
    assert result.returncode == 0
    assert result.stdout.startswith("3 codes; max-count histogram {")


def test_enumerate_below_optimal_length_finds_nothing():
    result = run_cli(
        "enumerate", "--problem", str(problem_path("three_user")), "--length", "1"
    )
    assert result.returncode == 0
    assert result.stdout == "0 codes; max-count histogram {}\n"


def test_enumerate_writes_census_csv(tmp_path):
    out = tmp_path / "census.csv"
    result = run_cli(
        "enumerate",
        "--problem",
        str(problem_path("three_user")),
        "--out",
        str(out),
    )
    assert result.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,codewords,max_count"
    assert len(lines) == 4


def test_enumerate_too_many_messages_is_infeasible(tmp_path):
    doc = tmp_path / "big.yaml"
    doc.write_text(
        "q: 2\nn: 7\nreceivers:\n"
        + "\n".join(
            f"  - {{id: {i}, wants: [{i % 7 + 1}], knows: [{i}]}}" for i in range(1, 8)
        )
        + "\n"
    )
    result = run_cli("enumerate", "--problem", str(doc))
    assert result.returncode == 2
    assert result.stderr.startswith("infeasible:")
    assert result.stdout == ""


# ---------------------------------------------------------------- simulate


def test_simulate_smoke_to_file(tmp_path):
    out = tmp_path / "bep.csv"
    result = run_cli(
        "simulate",
        "--problem",
        str(problem_path("four_user_cycle")),
        "--code",
        "alg2",
        "--config",
        str(config_path("smoke")),
        "--out",
        str(out),
    )
    assert result.returncode == 0
    assert result.stdout == ""
    assert f"wrote {out}" in result.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# seed=20240"
    assert lines[1].startswith("# config=modulation=4,mapping=gray,fading=rayleigh,")
    assert lines[2].startswith("# code=alg2 sha256=")
    assert lines[3] == "receiver,demand,snr_db,trials,bit_errors,bep"
    assert len(lines) == 4 + 3 * 4


def test_simulate_to_stdout():
    result = run_cli(
        "simulate",
        "--problem",
        str(problem_path("four_user_cycle")),
        "--code",
        "alg2",
        "--config",
        str(config_path("smoke")),
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith("# seed=20240\n")


def test_simulate_overrides_seed_and_trials():
    result = run_cli(
        "simulate",
        "--problem",
        str(problem_path("four_user_cycle")),
        "--code",
        "alg2",
        "--config",
        str(config_path("smoke")),
        "--seed",
        "7",
        "--trials",
        "50",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "# seed=7"
    assert "trials=50" in lines[1]
    assert lines[4].split(",")[3] == "50"


def test_simulate_comparison_mode():
    result = run_cli(
        "simulate",
        "--problem",
        str(problem_path("four_user_cycle")),
        "--code",
        "alg2",
        "--code",
        "enum:5",
        "--config",
        str(config_path("smoke")),
        "--trials",
        "100",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "# seed=20240"
    assert lines[1].startswith("# config=")
    assert lines[2].startswith("# code=alg2 ")
    assert lines[3].startswith("# code=enum:5 ")
    assert lines[4] == "code,receiver,demand,snr_db,trials,bit_errors,bep"
    body = lines[5:]
    assert len(body) == 2 * 3 * 4
    assert sum(1 for line in body if line.startswith("alg2,")) == 12
    assert sum(1 for line in body if line.startswith("enum:5,")) == 12


def test_simulate_fixture_code_file():
    result = run_cli(
        "simulate",
        "--problem",
        str(problem_path("nine_user_skip")),
        "--code",
        f"matrix:{code_path('nine_user_star')}",
        "--config",
        str(config_path("smoke")),
        "--trials",
        "64",
    )
    assert result.returncode == 0
    assert "# code=matrix:" in result.stdout
    assert len(result.stdout.strip().split("\n")) == 4 + 3 * 11


def test_simulate_checks_the_field_before_resolving_codes(tmp_path, monkeypatch, capsys):
    # A 3-PSK config on an F_2 problem is refused before any code is resolved
    # or planned: neither the census behind enum:1 nor the plan of a matrix:
    # code whose columns have a 20-dimensional kernel is paid for.
    called = []

    def spy(name):
        def refuse(*args):
            called.append(name)
            raise AssertionError(f"{name} ran before the field check")

        return refuse

    monkeypatch.setattr(cli, "decoding_plan", spy("decoding_plan"))
    monkeypatch.setattr(channelsim, "enumerate_optimal_codes", spy("enumerate_optimal_codes"))
    units = [unit_vector(4, i) for i in range(1, 5)]
    write_code(LinearCode(q=2, n=4, columns=tuple(units + units[:1] * 20)), tmp_path / "dependent.yaml")
    argv = ["simulate", "--problem", str(problem_path("four_user_cycle")), "--config", str(config_path("rayleigh_3psk"))]
    argv += ["--code", "enum:1", "--code", f"matrix:{tmp_path / 'dependent.yaml'}"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: modulation 3 carries F_3 symbols but the problem is over F_2\n"
    assert called == []


# Frozen digests of `uniprior simulate` stdout: a change to the channel path,
# the RNG draw order or the CSV writer that moves any byte fails here.  Code
# labels embed the selector text, so the runs use paths relative to the
# repository root.
GOLDEN_SIMULATE_DIGESTS = [
    (
        [
            "--problem", "fixtures/problems/four_user_cycle.yaml",
            "--code", "alg2",
            "--config", "fixtures/configs/smoke.yaml",
        ],
        "8740463bcc31b49591b9a95b2f621b1508008721aa464bb3b89f0742dd25c63a",
    ),
    (
        [
            "--problem", "fixtures/problems/seven_user_complete_f3.yaml",
            "--code", "matrix:fixtures/codes/seven_user_star_f3.yaml",
            "--code", "matrix:fixtures/codes/seven_user_path_f3.yaml",
            "--config", "fixtures/configs/rayleigh_3psk.yaml",
            "--trials", "2000",
            "--threads", "2",
        ],
        "365be64de598a9bea22941b19ac6c051d44682a6a8c3808654b00442301b6a6a",
    ),
]


@pytest.mark.parametrize("args, digest", GOLDEN_SIMULATE_DIGESTS)
def test_simulate_output_matches_golden_digest(args, digest, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES.parent)
    assert cli.main(["simulate", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------- analytic


def test_analytic_default_grid():
    result = run_cli("analytic")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "p,c,prob"
    assert len(lines) == 1 + 25 * 32


def test_analytic_explicit_grid():
    result = run_cli("analytic", "--p", "0.1,0.2", "--c", "1,2,3")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert len(lines) == 7
    assert lines[1] == "0.1,1,0.1"


def test_analytic_rejects_bad_values():
    assert run_cli("analytic", "--p", "0.1,high").returncode == 1
    assert run_cli("analytic", "--p", "1.5").returncode == 1
    assert run_cli("analytic", "--c", "0").returncode == 1


# ---------------------------------------------------------------- exit codes


def test_missing_file_is_io_error():
    result = run_cli("prune", "--problem", "/nonexistent/nope.yaml")
    assert result.returncode == 3
    assert result.stderr.startswith("i/o error:")


def test_malformed_yaml_is_validation_error(tmp_path):
    doc = tmp_path / "broken.yaml"
    doc.write_text("q: [unclosed\n")
    result = run_cli("prune", "--problem", str(doc))
    assert result.returncode == 1
    assert result.stderr.startswith("error:")


# receiver 1 knows two messages: the parser accepts it, the code design
# refuses it, and a census or a given code still runs
MULTI_KNOWN_PROBLEM = (
    "q: 2\nn: 3\nreceivers:\n"
    "  - {id: 1, wants: [3], knows: [1, 2]}\n"
    "  - {id: 2, wants: [1], knows: [2]}\n"
    "  - {id: 3, wants: [2], knows: [3]}\n"
)


@pytest.mark.parametrize(
    "args, status, refusal",
    [
        (["prune"], 1, "reduce_to_square"),
        (["codegen", "--out", "{tmp}/design"], 1, "code design"),
        (["enumerate"], 0, None),
        (["simulate", "--code", "alg2", "--config", "{smoke}"], 1, "code design"),
        (["simulate", "--code", "enum:1", "--config", "{smoke}"], 0, None),
        (["simulate", "--code", "matrix:{tmp}/code.yaml", "--config", "{smoke}"], 0, None),
    ],
)
def test_problem_with_several_known_messages(args, status, refusal, tmp_path, capsys):
    problem = tmp_path / "multi.yaml"
    problem.write_text(MULTI_KNOWN_PROBLEM)
    (tmp_path / "code.yaml").write_text("q: 2\nn: 3\ncolumns:\n  - [1, 1, 1]\n  - [0, 1, 1]\n")
    argv = [a.format(tmp=tmp_path, smoke=config_path("smoke")) for a in args]
    assert cli.main(argv[:1] + ["--problem", str(problem)] + argv[1:]) == status
    if refusal:
        assert capsys.readouterr().err == f"error: {refusal} requires a uniprior problem\n"


def test_bad_selector_is_validation_error():
    result = run_cli(
        "simulate",
        "--problem",
        str(problem_path("four_user_cycle")),
        "--code",
        "alg9",
        "--config",
        str(config_path("smoke")),
    )
    assert result.returncode == 1


def test_bad_thread_count_rejected():
    result = run_cli(
        "simulate",
        "--problem",
        str(problem_path("four_user_cycle")),
        "--code",
        "alg2",
        "--config",
        str(config_path("smoke")),
        "--threads",
        "0",
    )
    assert result.returncode == 1
    assert "--threads" in result.stderr


def test_unknown_subcommand_rejected():
    result = run_cli("optimize")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")


def test_missing_required_argument_rejected():
    result = run_cli("prune")
    assert result.returncode == 1


# ---------------------------------------------------------------- entry point


def test_console_script_installed():
    exe = shutil.which("uniprior")
    assert exe, "console script 'uniprior' not on PATH"
    result = subprocess.run(
        [exe, "prune", "--problem", str(problem_path("four_user_strong"))],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("receivers: 4;")


def test_import_builds_no_cached_table():
    # Every table behind an lru_cache in channelsim, codegen and enumeration
    # is built on first use, so importing the command-line module is all
    # start-up costs.
    probe = (
        "import json, uniprior.cli\n"
        "from uniprior import channelsim, codegen, enumeration\n"
        "print(json.dumps({f'{m.__name__}.{k}': f.cache_info().currsize\n"
        "    for m in (channelsim, codegen, enumeration)\n"
        "    for k, f in vars(m).items() if hasattr(f, 'cache_info')}))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    sizes = json.loads(done.stdout)
    lazy = {
        "channelsim._decision_table",
        "codegen._pair_bits",
        "codegen._tree_search_tables",
        "enumeration._numbering",
        "enumeration._plus_array",
        "enumeration._subspaces",
    }
    assert {f"uniprior.{name}" for name in lazy} <= set(sizes)
    assert sizes == dict.fromkeys(sizes, 0)


def test_simulate_thread_count_is_invisible_in_output(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        result = run_cli(
            "simulate",
            "--problem",
            str(problem_path("four_user_cycle")),
            "--code",
            "alg2",
            "--config",
            str(config_path("smoke")),
            "--trials",
            "5000",
            "--threads",
            threads,
            "--out",
            str(out),
        )
        assert result.returncode == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
