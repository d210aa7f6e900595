"""Command-line front end: enumeration, projection, chains, verification, sampling.

Exit codes: 0 success or agreement, 1 failed check, 2 usage or validation
error, 3 solver degeneracy (reducible chain at the rate point), 4 simulation
anomaly.  All machine-readable output goes to stdout (JSON or CSV); progress
and summaries go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .chains import to_dot, to_json
from .core import (
    build_composition,
    bully_projection,
    conjectured_weight,
    parse_queue,
    queue_label,
    word_label,
    word_to_text,
)
from .sim import (
    PROCESS_NAMES,
    AbsorbingStateError,
    SimConfig,
    build_process_chain,
    compare_to_exact,
    gillespie_run,
    to_csv,
)
from .solve import ReducibleChainError, stationary_solve
from .verify import DEFAULT_MAX_N, DEFAULT_SEED, SUITES, run_suites


def _parse_m(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as err:
        raise ValueError(f"bad composition {text!r}: {err}") from None


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text.strip())


def _parse_rates(text: str, nvars: int) -> tuple[Fraction, ...]:
    values = [_parse_fraction(part) for part in text.split(",")]
    if len(values) != nvars:
        raise ValueError(f"need {nvars} rates x1..x{nvars}, got {len(values)}")
    if any(v <= 0 for v in values):
        raise ValueError("rates must be positive")
    return tuple(values)


def _parse_solve_point(text: str, nvars: int) -> tuple[Fraction, ...]:
    point = [Fraction(1)] * nvars
    for part in text.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        if not name.startswith("x"):
            raise ValueError(f"bad assignment {part!r}, expected x<i>=<value>")
        index = int(name[1:]) - 1
        if not 0 <= index < nvars:
            raise ValueError(f"variable {name} out of range, chain has x1..x{nvars}")
        point[index] = _parse_fraction(value)
    if any(v <= 0 for v in point):
        raise ValueError("rate point must be positive")
    return tuple(point)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlqtasep",
        description="Exact multispecies ring exclusion process toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="list words or multiline queues")
    enum.add_argument("kind", choices=("words", "mlqs"))
    enum.add_argument("-m", "--composition", required=True)
    enum.add_argument("--format", choices=("text", "json"), default="text")
    enum.add_argument("--count-only", action="store_true")

    project = sub.add_parser("project", help="bully-path projection of one queue")
    project.add_argument("source", nargs="?", default="-", help="file path or - for stdin")

    chain = sub.add_parser("chain", help="build a process graph")
    chain.add_argument("process", choices=PROCESS_NAMES)
    chain.add_argument("-m", "--composition", required=True)
    chain.add_argument("--export", choices=("dot", "json"))
    chain.add_argument("--solve", metavar="x1=2,x2=1")

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suite", choices=(*SUITES, "all"))
    verify.add_argument("--max-N", type=int, default=DEFAULT_MAX_N, dest="max_n")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)

    simulate = sub.add_parser("simulate", help="Monte-Carlo sampling of a process")
    simulate.add_argument("process", choices=PROCESS_NAMES)
    simulate.add_argument("-m", "--composition", required=True)
    simulate.add_argument("--rates", required=True, metavar="2,1")
    simulate.add_argument("--events", type=int, default=1_000_000)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--burn-in", type=float, default=0.1, dest="burn_in")
    simulate.add_argument("--compare-exact", action="store_true")
    simulate.add_argument("--tolerance", type=float, default=0.01)
    return parser


def cmd_enumerate(args) -> int:
    from .core import enumerate_mlqs, enumerate_words

    comp = build_composition(_parse_m(args.composition))
    if args.kind == "words":
        items = enumerate_words(comp)
        texts = [word_to_text(w) for w in items]
    else:
        items = enumerate_mlqs(comp)
        texts = [queue_label(q) for q in items]
    if args.count_only:
        print(len(items))
        return 0
    if args.format == "json":
        print(json.dumps({"kind": args.kind, "m": list(comp.m), "states": texts}, indent=2))
    else:
        for line in texts:
            print(line)
        print(f"count: {len(items)}", file=sys.stderr)
    return 0


def cmd_project(args) -> int:
    if args.source == "-":
        text = sys.stdin.read()
    else:
        with open(args.source, "r", encoding="utf-8") as handle:
            text = handle.read()
    queue = parse_queue(text)
    labeling = bully_projection(queue)
    print(f"word: {word_to_text(labeling.word)}")
    for (row, cls) in sorted(labeling.z):
        print(f"z[{row}][{cls}] = {labeling.z[(row, cls)]}")
    print(f"z1 = {labeling.z1()}")
    if labeling.composition.n == 3:
        print(f"covered_threes = {labeling.covered_three_count()}")
    print(f"weight: {conjectured_weight(labeling)}")
    return 0


def cmd_chain(args) -> int:
    comp = build_composition(_parse_m(args.composition))
    graph = build_process_chain(args.process, comp)
    if args.export == "dot":
        print(to_dot(graph))
    elif args.export == "json":
        print(to_json(graph))
    if args.solve:
        point = _parse_solve_point(args.solve, graph.nvars)
        weights = stationary_solve(graph, point)
        print(
            " ".join(
                f"{graph.state_label(i)}:{weights[i]}" for i in range(len(graph.states))
            )
        )
    if not args.export and not args.solve:
        print(
            f"{graph.kind}: {len(graph.states)} states, "
            f"{len(graph.transitions)} transitions",
        )
    return 0


def cmd_verify(args) -> int:
    reports = run_suites([args.suite], max_n=args.max_n, seed=args.seed)
    for report in reports:
        print(json.dumps(report.to_dict(), sort_keys=True))
    failed = [r for r in reports if not r.ok]
    summary = f"{len(reports) - len(failed)}/{len(reports)} checks ok"
    print(summary, file=sys.stderr)
    return 1 if failed else 0


def cmd_simulate(args) -> int:
    comp = build_composition(_parse_m(args.composition))
    chain = build_process_chain(args.process, comp)
    rates = _parse_rates(args.rates, chain.nvars)
    cfg = SimConfig(
        process=args.process,
        m=comp.m,
        rates=rates,
        seed=args.seed,
        events=args.events,
        burn_in=args.burn_in,
    )
    emp = gillespie_run(cfg, chain)
    comparison = None
    if args.compare_exact:
        exact = stationary_solve(chain, rates)
        comparison = compare_to_exact(emp, exact, args.tolerance)
    sys.stdout.write(to_csv(emp, comparison))
    if comparison is not None:
        print(
            f"tv = {comparison['tv']:.6g} (tolerance {comparison['tolerance']})",
            file=sys.stderr,
        )
        return 0 if comparison["passed"] else 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "enumerate": cmd_enumerate,
        "project": cmd_project,
        "chain": cmd_chain,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except ReducibleChainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except AbsorbingStateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (ValueError, OSError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
