"""Command-line front end: enumeration, projection, chains, verification, sampling.

Exit codes: 0 success or agreement, 1 failed check, 2 usage or validation
error, 3 solver degeneracy (reducible chain at the rate point) or give-up
(no certified vector modulo the listed primes), 4 simulation anomaly, 141
stdout closed early, as by `| head -1`, with nothing on stderr.  All
machine-readable output goes to stdout (JSON or CSV); progress and
summaries go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from time import perf_counter

from .chains import to_dot, to_json
from .core import (
    build_composition,
    bully_projection,
    parse_queue,
    queue_label,
    word_label,
    word_to_text,
)
from .poly import LaurentPoly
from .sim import (
    PROCESSES,
    AbsorbingStateError,
    SimConfig,
    build_process_chain,
    check_config,
    check_tolerance,
    compare_to_exact,
    gillespie_run,
    to_csv,
)
from .solve import ReducibleChainError, stationary_solve
from .verify import DEFAULT_MAX_N, DEFAULT_SEED, SUITES, run_suites


def _parse_m(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"bad composition {text!r}, expected comma-separated positive integers such as 1,2,2"
        ) from None


def _parse_rate(text: str) -> Fraction:
    try:
        value = Fraction(text.strip())
        if value > 0:
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"bad rate {text!r}, expected a positive rational such as 2 or 3/2")


def _parse_rates(text: str, nvars: int) -> tuple[Fraction, ...]:
    values = [_parse_rate(part) for part in text.split(",")]
    if len(values) != nvars:
        raise ValueError(f"need {nvars} rates x1..x{nvars}, got {len(values)}")
    return tuple(values)


def _parse_solve_point(text: str, nvars: int) -> tuple[Fraction, ...]:
    point: dict[int, Fraction] = {}
    for part in text.split(","):
        name, equals, value = part.partition("=")
        name = name.strip()
        if not (equals and name.startswith("x") and name[1:].isdecimal()):
            raise ValueError(f"bad assignment {part!r}, expected x<i>=<value>")
        index = int(name[1:]) - 1
        if not 0 <= index < nvars:
            raise ValueError(f"variable {name} out of range, chain has x1..x{nvars}")
        if index in point:
            raise ValueError(f"variable {name} given twice")
        point[index] = _parse_rate(value)
    return tuple(point.get(i, Fraction(1)) for i in range(nvars))


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
    chain.add_argument("process", choices=tuple(PROCESSES))
    chain.add_argument("-m", "--composition", required=True)
    chain.add_argument("--export", choices=("dot", "json"))
    chain.add_argument("--solve", metavar="x1=2,x2=1")

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suite", choices=(*SUITES, "all"))
    verify.add_argument("--max-N", type=int, default=DEFAULT_MAX_N, dest="max_n")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)

    simulate = sub.add_parser("simulate", help="Monte-Carlo sampling of a process")
    simulate.add_argument("process", choices=tuple(PROCESSES))
    simulate.add_argument("-m", "--composition", required=True)
    simulate.add_argument("--rates", required=True, metavar="2,1")
    simulate.add_argument("--events", type=int, default=1_000_000)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--burn-in", type=float, default=0.1, dest="burn_in")
    simulate.add_argument("--compare-exact", action="store_true")
    simulate.add_argument("--tolerance", type=float, default=0.01)
    return parser


def cmd_enumerate(args) -> int:
    from .core import enumerate_mlqs, enumerate_words, mlq_count, word_count

    comp = build_composition(_parse_m(args.composition))
    if args.count_only:
        print(word_count(comp) if args.kind == "words" else mlq_count(comp))
        return 0
    if args.kind == "words":
        items = enumerate_words(comp)
        texts = [word_to_text(w) for w in items]
    else:
        items = enumerate_mlqs(comp)
        texts = [queue_label(q) for q in items]
    if args.format == "json":
        print(json.dumps({"kind": args.kind, "m": list(comp.m), "states": texts}, indent=2))
    else:
        for line in texts:
            print(line)
        sys.stdout.flush()  # a closed pipe fails here, before the count
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
    print(f"weight: {LaurentPoly.monomial(1, labeling.exponents)}")
    return 0


def cmd_chain(args) -> int:
    comp = build_composition(_parse_m(args.composition))
    point = None if args.solve is None else _parse_solve_point(args.solve, comp.n - 1)  # before output
    graph = build_process_chain(args.process, comp)
    if args.export == "dot":
        print(to_dot(graph))
    elif args.export == "json":
        print(to_json(graph))
    if point is not None:
        weights = stationary_solve(graph, point)
        print(" ".join(f"{label}:{weight}" for label, weight in zip(graph.labels, weights)))
    if not args.export and args.solve is None:
        print(
            f"{graph.kind}: {len(graph.states)} states, "
            f"{len(graph.transitions)} transitions",
        )
    return 0


def cmd_verify(args) -> int:
    reports = run_suites([args.suite], max_n=args.max_n, seed=args.seed)
    for report in reports:
        print(json.dumps(report.to_dict(), sort_keys=True))
    sys.stdout.flush()  # a closed pipe fails here, before the summary
    failed = [r for r in reports if not r.ok]
    summary = f"{len(reports) - len(failed)}/{len(reports)} checks ok"
    print(summary, file=sys.stderr)
    return 1 if failed else 0


def cmd_simulate(args) -> int:
    comp = build_composition(_parse_m(args.composition))
    rates = _parse_rates(args.rates, comp.n - 1)
    if args.compare_exact:
        check_tolerance(args.tolerance)  # before the sampler runs
    cfg = SimConfig(
        process=args.process,
        m=comp.m,
        rates=rates,
        seed=args.seed,
        events=args.events,
        burn_in=args.burn_in,
    )
    check_config(cfg)  # before the chain is built
    chain = build_process_chain(args.process, comp)
    start = perf_counter()
    emp = gillespie_run(cfg, chain)
    seconds = perf_counter() - start
    comparison = None
    if args.compare_exact:
        exact = stationary_solve(chain, rates)
        comparison = compare_to_exact(emp, exact, args.tolerance)
    sys.stdout.write(to_csv(emp, comparison))
    sys.stdout.flush()  # a closed pipe fails here, before the summary
    rate = f"{emp.events / seconds:.3g}" if seconds > 0 else "inf"
    print(f"{emp.events} events in {seconds:.2f} s ({rate} events/s)", file=sys.stderr)
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
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is still buffered goes nowhere, so that exit adds no message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except AbsorbingStateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (ValueError, OSError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ReducibleChainError, ArithmeticError) as err:  # ZeroDivisionError is 2, above
        print(f"error: {err}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
