"""Continuous-time Monte-Carlo sampling of the exact chains.

Floats appear here and nowhere else in the package: holding times and the
event selection use binary64, while every comparison target comes from the
exact solver.  A single seeded random.Random instance drives each run, so
identical configurations reproduce identical event sequences byte for byte.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import random

from .chains import (
    ChainGraph,
    build_coupe_chain,
    build_fm_chain,
    build_tasep_chain,
)
from .core import Composition, build_composition

PROCESS_NAMES = ("tasep", "fm", "fm3", "fm1", "coupe")


class AbsorbingStateError(Exception):
    """Total outgoing rate hit zero; the chain construction is broken."""


def build_process_chain(process: str, c: Composition) -> ChainGraph:
    if process == "tasep":
        return build_tasep_chain(c)
    if process == "fm":
        return build_fm_chain(c, "uniform")
    if process == "fm3":
        return build_fm_chain(c, "three_species")
    if process == "fm1":
        return build_fm_chain(c, "one_first_class")
    if process == "coupe":
        return build_coupe_chain(c)
    raise ValueError(f"unknown process {process!r}")


@dataclass(frozen=True)
class SimConfig:
    process: str
    m: tuple[int, ...]
    rates: tuple[Fraction, ...]
    seed: int = 1
    events: int = 1_000_000
    burn_in: float = 0.1

    def composition(self) -> Composition:
        return build_composition(self.m)


@dataclass
class EmpiricalDistribution:
    labels: list[str]
    fractions: list[float]
    total_time: float
    events: int


def gillespie_run(cfg: SimConfig, chain: ChainGraph | None = None) -> EmpiricalDistribution:
    """Time-weighted occupation fractions after burn-in.

    Holding times are exponential with the total-rate parameter and the next
    state is drawn proportionally to the outgoing rates; burn-in discards
    the first burn_in fraction of events from the occupation tally.
    """
    if chain is None:
        chain = build_process_chain(cfg.process, cfg.composition())
    if any(rate <= 0 for rate in cfg.rates):
        raise ValueError("rates must be positive")
    if cfg.events <= 0:
        raise ValueError("event horizon must be positive")
    if not 0 <= cfg.burn_in < 1:
        raise ValueError(f"burn-in must lie in [0, 1), got {cfg.burn_in}")
    targets: list[list[int]] = [[] for _ in chain.states]
    cumulative: list[list[float]] = [[] for _ in chain.states]
    for sid, records in enumerate(chain.out_records()):
        weights = [float(rec.rate.eval(cfg.rates)) for rec in records]
        targets[sid] = [rec.dst for rec in records]
        cumulative[sid] = list(accumulate(weights))
    rng = random.Random(cfg.seed)
    occupation = [0.0] * len(chain.states)
    state = 0
    skip = int(cfg.burn_in * cfg.events)
    clock = 0.0
    done = 0
    while done < cfg.events:
        sums = cumulative[state]
        if not sums or sums[-1] <= 0.0:
            raise AbsorbingStateError(f"no outgoing rate at state {chain.state_label(state)}")
        total = sums[-1]
        hold = rng.expovariate(total)
        if done >= skip:
            occupation[state] += hold
            clock += hold
        draw = rng.random() * total
        state = targets[state][min(bisect_right(sums, draw), len(sums) - 1)]
        done += 1
    if clock <= 0.0:
        raise AbsorbingStateError("no simulated time accumulated after burn-in")
    fractions = [t / clock for t in occupation]
    labels = [chain.state_label(i) for i in range(len(chain.states))]
    return EmpiricalDistribution(
        labels=labels, fractions=fractions, total_time=clock, events=done
    )


def total_variation(p: Sequence[float], q: Sequence[float]) -> float:
    if len(p) != len(q):
        raise ValueError("dimension mismatch")
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


def compare_to_exact(
    emp: EmpiricalDistribution, exact: Sequence[Fraction | int], tolerance: float
) -> dict:
    """Total-variation distance and rough per-state z-scores against a target."""
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
