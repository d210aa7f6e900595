"""Continuous-time Monte-Carlo sampling of the exact chains.

Floats appear here and nowhere else in the package: holding times and the
event selection use binary64, while every comparison target comes from the
exact solver.  A single seeded random.Random instance drives each run, so
identical configurations reproduce identical event sequences byte for byte;
an event costs two random() calls and a bisect, and a log once past burn-in.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Callable, Sequence

import random

from .chains import (
    ChainGraph,
    build_coupe_chain,
    build_fm_chain,
    build_tasep_chain,
)
from .core import Composition

# process -> (the kind of the chain it builds, its builder).  The lambdas look the
# builders up at call time, so a rebound build_* (a tracing wrapper, say) runs.
PROCESSES: dict[str, tuple[str, Callable[[Composition], ChainGraph]]] = {
    "tasep": ("tasep", lambda c: build_tasep_chain(c)),
    "fm": ("fm-uniform", lambda c: build_fm_chain(c, "uniform")),
    "fm3": ("fm-three_species", lambda c: build_fm_chain(c, "three_species")),
    "fm1": ("fm-one_first_class", lambda c: build_fm_chain(c, "one_first_class")),
    "coupe": ("coupe", lambda c: build_coupe_chain(c)),
}


class AbsorbingStateError(Exception):
    """Total outgoing rate hit zero; the chain construction is broken."""


def build_process_chain(process: str, c: Composition) -> ChainGraph:
    if process not in PROCESSES:
        raise ValueError(f"unknown process {process!r}")
    return PROCESSES[process][1](c)


@dataclass(frozen=True)
class SimConfig:
    process: str
    m: tuple[int, ...]
    rates: tuple[Fraction, ...]
    seed: int = 1
    events: int = 1_000_000
    burn_in: float = 0.1


def check_config(cfg: SimConfig) -> None:
    """ValueError unless the rates are positive, the event horizon is a
    positive int (not a bool) and the burn-in fraction lies in [0, 1)."""
    if any(rate <= 0 for rate in cfg.rates):
        raise ValueError("rates must be positive")
    if not isinstance(cfg.events, int) or isinstance(cfg.events, bool):
        raise ValueError(f"event horizon must be an int count of events, got {cfg.events!r}")
    if cfg.events <= 0:
        raise ValueError("event horizon must be positive")
    if not 0 <= cfg.burn_in < 1:
        raise ValueError(f"burn-in must lie in [0, 1), got {cfg.burn_in}")


@dataclass
class EmpiricalDistribution:
    labels: list[str]
    fractions: list[float]
    total_time: float
    events: int


def gillespie_run(cfg: SimConfig, chain: ChainGraph) -> EmpiricalDistribution:
    """Time-weighted occupation fractions after burn-in.

    Holding times are exponential with the total-rate parameter and the next
    state is drawn proportionally to the outgoing rates; burn-in discards
    the first burn_in fraction of events from the occupation tally.  chain
    is cfg.process's graph on cfg.m, which the caller builds once
    (build_process_chain) and may sample many times; ValueError if it is not.

    One jump table per run, read off the chain's record columns, holds each
    state's cumulative float rates, their total and its targets padded with
    the last (bisect_right may return the length), or None when it has no
    out-records, the only absorbing case.  The labels are the chain's own.
    -log(1.0 - random()) / total is expovariate(total)'s body on Python
    3.10-3.13, so the draws and every float match a loop calling it.
    """
    check_config(cfg)
    if (PROCESSES.get(cfg.process, ("",))[0], tuple(cfg.m)) != (chain.kind, chain.composition.m):
        raise ValueError(f"config is {cfg.process} on m = {cfg.m}, chain is {chain.kind} on m = {chain.composition.m}")
    t = chain.transitions
    floats = [_float_rate(rate, cfg.rates) for rate in t.rates]
    rates, targets = [[] for _ in chain.states], [[] for _ in chain.states]  # per state, of its out-records
    for src, dst, r in zip(t.sources, t.targets, t.rate_ids):
        rates[src].append(floats[r])
        targets[src].append(dst)
    sums = [list(accumulate(row)) for row in rates]
    table = [(row, row[-1], ends + ends[-1:]) if ends else None for row, ends in zip(sums, targets)]
    rand, log, bisect = random.Random(cfg.seed).random, math.log, bisect_right
    occupation = [0.0] * len(chain.states)
    state, clock, skip = 0, 0.0, int(cfg.burn_in * cfg.events)
    for _ in repeat(None, skip):
        jumps = table[state]
        if jumps is None:
            raise AbsorbingStateError(f"no outgoing rate at state {chain.state_label(state)}")
        sums, total, targets = jumps
        rand()  # the hold's draw, untallied
        state = targets[bisect(sums, rand() * total)]
    for _ in repeat(None, cfg.events - skip):
        jumps = table[state]
        if jumps is None:
            raise AbsorbingStateError(f"no outgoing rate at state {chain.state_label(state)}")
        sums, total, targets = jumps
        hold = -log(1.0 - rand()) / total
        occupation[state] += hold
        clock += hold
        state = targets[bisect(sums, rand() * total)]
    if clock <= 0.0:
        raise AbsorbingStateError("no simulated time accumulated after burn-in")
    fractions = [t / clock for t in occupation]
    return EmpiricalDistribution(
        labels=list(chain.labels), fractions=fractions, total_time=clock, events=cfg.events
    )


def _float_rate(rate, point: Sequence[Fraction]) -> float:
    """The rate at the point as a float; ValueError unless positive and finite."""
    try:
        value = float(rate.eval(point))
    except OverflowError:
        value = math.inf
    if 0.0 < value < math.inf:
        return value
    shown = ", ".join(f"x{i}={v}" for i, v in enumerate(point, start=1))
    raise ValueError(f"rate {rate} is {value} as a float, out of the sampler's range, at {shown}")


def total_variation(p: Sequence[float], q: Sequence[float]) -> float:
    if len(p) != len(q):
        raise ValueError("dimension mismatch")
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


def check_tolerance(tolerance: float) -> None:
    """ValueError unless the total-variation tolerance lies in [0, 1]."""
    if not 0 <= tolerance <= 1:
        raise ValueError(f"tolerance must lie in [0, 1], got {tolerance}")


def compare_to_exact(
    emp: EmpiricalDistribution, exact: Sequence[Fraction | int], tolerance: float
) -> dict:
    """Total-variation distance and rough per-state z-scores against a target."""
    check_tolerance(tolerance)
    if len(exact) != len(emp.fractions):
        raise ValueError("dimension mismatch")
    total = sum(Fraction(v) for v in exact)
    probs = [float(Fraction(v) / total) for v in exact]
    tv = total_variation(emp.fractions, probs)
    z_scores = []
    for observed, expected in zip(emp.fractions, probs):
        spread = expected * (1.0 - expected)
        if spread <= 0.0:
            z_scores.append(0.0)
        else:
            z_scores.append((observed - expected) / math.sqrt(spread / emp.events))
    return {
        "tv": tv,
        "tolerance": tolerance,
        "passed": tv <= tolerance,
        "z_scores": z_scores,
        "exact": probs,
    }


def to_csv(emp: EmpiricalDistribution, comparison: dict | None = None) -> str:
    lines = ["state,empirical,exact,z_score"]
    for i, label in enumerate(emp.labels):
        exact = comparison["exact"][i] if comparison else ""
        z = comparison["z_scores"][i] if comparison else ""
        lines.append(
            f"{label},{emp.fractions[i]:.10g},"
            f"{exact if exact == '' else format(exact, '.10g')},"
            f"{z if z == '' else format(z, '.6g')}"
        )
    return "\n".join(lines) + "\n"
