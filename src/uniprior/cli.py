"""Command-line front end.

Subcommands: prune (graph reduction summary), codegen (design a code and its
decoding plan), enumerate (exhaustive optimal-code census), simulate (Monte
Carlo BEP sweep to CSV), analytic (closed-form error table).  Exit codes:
0 success, 1 validation error, 2 infeasible size, 3 I/O error.  All
diagnostics go to stderr; stdout carries only the requested output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analytic import ErrorParams, tabulate
from .channelsim import (
    check_config_field,
    parse_config,
    records_to_csv,
    resolve_code_selector,
    simulate_bep,
    with_overrides,
)
from .codegen import (
    codeword_label,
    decoding_plan,
    design_min_max_code,
    plan_to_csv,
    transmission_counts,
    write_code,
)
from .enumeration import (
    classification_to_csv,
    classify_codes,
    enumerate_optimal_codes,
    length_from_pruning,
    optimal_length,
)
from .errors import InfeasibleError, ValidationError
from .graphcore import build_flow_graph, parse_problem, prune, reduce_to_square


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ValidationError so exit codes stay consistent."""

    def error(self, message):
        raise ValidationError(message)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _format_vertex_set(vertices) -> str:
    return "{" + ", ".join(str(v) for v in sorted(vertices)) + "}"


def cmd_prune(args) -> int:
    problem = parse_problem(args.problem)
    reduction = reduce_to_square(problem)
    pruned = prune(build_flow_graph(reduction.problem))
    lines = [
        f"receivers: {problem.m}; messages: {problem.n} over F_{problem.q}",
        f"components: {len(pruned.components)}",
    ]
    for i, comp in enumerate(pruned.components, start=1):
        lines.append(f"  component {i}: {_format_vertex_set(comp)}")
    leftover = sorted(pruned.leftover_arcs)
    if leftover:
        arcs = ", ".join(f"({a}, {b})" for a, b in leftover)
        lines.append(f"leftover arcs: {len(leftover)} [{arcs}]")
    else:
        lines.append("leftover arcs: 0")
    direct = sorted(reduction.direct_messages)
    if direct:
        lines.append(f"direct messages: {len(direct)} {direct}")
    else:
        lines.append("direct messages: 0")
    lines.append(f"optimal code length: {length_from_pruning(reduction, pruned)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_codegen(args) -> int:
    problem = parse_problem(args.problem)
    design = design_min_max_code(problem)
    plan = decoding_plan(design.code, problem)
    counts = transmission_counts(plan)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_code(design.code, out_dir / "matrix.yaml")
    (out_dir / "plan.csv").write_text(plan_to_csv(plan))

    labels = ", ".join(codeword_label(c, design.code.q) for c in design.code.columns)
    lines = [
        f"receivers: {problem.m}; messages: {problem.n} over F_{problem.q}",
        f"code length: {design.code.length}",
        f"codewords: {labels}",
        f"max transmissions per demand: {max(counts.values(), default=0)}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    print(f"wrote {out_dir / 'matrix.yaml'} and {out_dir / 'plan.csv'}", file=sys.stderr)
    return 0


def cmd_enumerate(args) -> int:
    problem = parse_problem(args.problem)
    length = args.length if args.length is not None else optimal_length(problem)
    result = classify_codes(problem, enumerate_optimal_codes(problem, length))
    histogram = ", ".join(f"{k}:{v}" for k, v in sorted(result.histogram.items()))
    sys.stdout.write(f"{result.total} codes; max-count histogram {{{histogram}}}\n")
    if args.out:
        _emit(classification_to_csv(result), args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.threads < 1:
        raise ValidationError(f"--threads must be at least 1, got {args.threads}")
    problem = parse_problem(args.problem)
    config = with_overrides(parse_config(args.config), seed=args.seed, trials=args.trials)
    check_config_field(problem, config)
    codes = [(label, resolve_code_selector(problem, label)) for label in args.code]
    runs = []
    for label, code in codes:
        plan = decoding_plan(code, problem)
        runs.append((label, code, simulate_bep(problem, code, plan, config, threads=args.threads)))
    _emit(records_to_csv(config, runs), args.out)
    return 0


def _parse_number_list(text: str, cast, what: str) -> list:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(cast(piece))
        except ValueError:
            raise ValidationError(f"bad {what} value {piece!r}") from None
    if not values:
        raise ValidationError(f"no {what} values given")
    return values


def cmd_analytic(args) -> int:
    if args.p:
        p_values = _parse_number_list(args.p, float, "probability")
    else:
        p_values = [round(0.01 + 0.02 * i, 10) for i in range(25)]
    if args.c:
        c_values = _parse_number_list(args.c, int, "count")
    else:
        c_values = list(range(1, 33))
    for p in p_values:
        for c in c_values:
            ErrorParams(p=p, c=c)  # validate before emitting anything
    _emit(tabulate(p_values, c_values), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uniprior", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_prune = sub.add_parser("prune", help="reduce a problem and summarize its flow graph")
    p_prune.add_argument("--problem", required=True, help="problem YAML file")
    p_prune.set_defaults(func=cmd_prune)

    p_gen = sub.add_parser("codegen", help="design a code and write matrix + decoding plan")
    p_gen.add_argument("--problem", required=True, help="problem YAML file")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_codegen)

    p_enum = sub.add_parser("enumerate", help="census of optimal-length codes")
    p_enum.add_argument("--problem", required=True, help="problem YAML file")
    p_enum.add_argument("--length", type=int, default=None, help="code length (default: optimal)")
    p_enum.add_argument("--out", default=None, help="write the per-code CSV here")
    p_enum.set_defaults(func=cmd_enumerate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo BEP sweep to CSV")
    p_sim.add_argument("--problem", required=True, help="problem YAML file")
    p_sim.add_argument(
        "--code",
        action="append",
        required=True,
        help="alg2 | matrix:<path> | enum:<index>; repeat for comparison mode",
    )
    p_sim.add_argument("--config", required=True, help="channel config YAML file")
    p_sim.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument("--trials", type=int, default=None, help="override config trials")
    p_sim.add_argument("--threads", type=int, default=1, help="worker threads (at most one per available CPU)")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analytic", help="closed-form error table as CSV")
    p_an.add_argument("--p", default=None, help="comma-separated error probabilities")
    p_an.add_argument("--c", default=None, help="comma-separated transmission counts")
    p_an.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p_an.set_defaults(func=cmd_analytic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
