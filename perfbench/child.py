"""One workload process: set up, repeat the timed pass, check, report.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/.  Prints one JSON record as its last stdout line.  The set-up
time runs from ``--spawned``, the parent's CLOCK_MONOTONIC reading taken just
before it started this interpreter, to the end of set-up.

The pass is repeated at least ``--min-passes`` times and while another pass
fits in ``--seconds``.  Every unit of the pass is timed on its own, between
short timings of the workload's reference loop, a fixed loop of the same
kind of work that calls no mlqtasep code.  On a shared host the speed of
the same code swings by up to 2x, for seconds or for minutes, and the loop
slows with the program.  So every time, the set-up time too, is divided by
the host's slowdown measured around it: the median time of the loop over
its time at full speed (REFERENCES).  That is the time at the host's full
speed.  A time metric of the pass is the sum over its units of the median
of the unit's rescaled repetitions.  The raw times are kept in the record.
Every pass is checked.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import random
import statistics
import sys
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, load_golden

MAX_FAILURES = 20
REF_CALLS = 4  # timings of the reference loop on each side of a unit
SAMPLER_SUMS = list(accumulate([1.0, 2.0, 0.5, 3.0, 1.5]))


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def exact_reference() -> float:
    """Wall time of a fixed loop of integer, Fraction, tuple and dict work."""
    start = time.perf_counter()
    table: dict = {}
    total = Fraction(0)
    for i in range(1, 200):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i * i
        total += Fraction(i, i + 1)
    return time.perf_counter() - start


def float_reference() -> float:
    """Wall time of a fixed loop of the float, random and bisect work of a sampler."""
    start = time.perf_counter()
    rng = random.Random(7)
    occupation = [0.0] * len(SAMPLER_SUMS)
    state = 0
    for _ in range(900):
        occupation[state] += rng.expovariate(8.0)
        state = min(bisect_right(SAMPLER_SUMS, rng.random() * 8.0), len(SAMPLER_SUMS) - 1)
    return time.perf_counter() - start


# Each workload's reference loop, of the kind of work it does, and the loop's
# time at full speed on a 2-vCPU Intel Xeon virtual machine at 2.0 GHz with
# Python 3.11; there it takes about 1.9 times as long when the host is busy.
REFERENCES = {
    "sweep": (exact_reference, 0.00056),
    "lift": (exact_reference, 0.00056),
    "sample": (float_reference, 0.00055),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--corrupt-golden", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer().install() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    ready = time.monotonic()
    reference, full_speed_s = REFERENCES[args.workload]

    def slowdown(timings: list[float]) -> float:
        """How many times slower than at full speed the host runs now."""
        return statistics.median(timings) / full_speed_s

    def references() -> list[float]:
        return [reference() for _ in range(REF_CALLS)]

    setup_raw = ready - args.spawned
    setup_slowdown = slowdown(references() + references())
    record: dict = {"setup_s": setup_raw / setup_slowdown, "raw_setup_s": setup_raw,
                    "setup_slowdown": setup_slowdown}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    import mlqtasep

    golden = load_golden(args.workload)
    units = workload.units()
    walls: list[list[float]] = [[] for _ in units]  # rescaled, per unit
    cpus: list[list[float]] = [[] for _ in units]
    raw_walls: list[list[float]] = [[] for _ in units]
    slowdowns: list[float] = []
    pass_walls: list[float] = []
    attempted, failures = 0, []
    deadline = ready + args.seconds
    while len(pass_walls) < args.min_passes or time.monotonic() + pass_walls[-1] < deadline:
        pass_start = time.monotonic()
        outputs = []
        for index, (_, unit) in enumerate(units):
            # the garbage of the units before, in a seed-dependent order, is
            # collected here and not in this unit's time
            gc.collect()
            before = references()
            cpu_before = _cpu_seconds()
            start = time.perf_counter()
            outputs.append(unit(outputs))
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu_before
            slowdowns.append(slowdown(before + references()))
            walls[index].append(wall / slowdowns[-1])
            cpus[index].append(cpu / slowdowns[-1])
            raw_walls[index].append(wall)
        pass_walls.append(time.monotonic() - pass_start)
        checked, failed = workload.check(outputs, golden, args.corrupt_golden)
        attempted += checked
        failures += [f"pass {len(pass_walls)}: {f}" for f in failed]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unit_walls = [statistics.median(samples) for samples in walls]
    events, events_time = workload.events(outputs, unit_walls)
    record.update(
        wall_s=sum(unit_walls),
        cpu_s=sum(statistics.median(samples) for samples in cpus),
        peak_rss_mb=peak_kib / 1024,
        events=events,
        events_per_s=events / events_time,
        passes=len(pass_walls),
        units={name: wall for (name, _), wall in zip(units, unit_walls)},
        raw_wall_s=sum(statistics.median(samples) for samples in raw_walls),
        slowdown_quartiles=statistics.quantiles(slowdowns, n=4) if len(slowdowns) > 1 else slowdowns,
        attempted=attempted,
        failed=len(failures),
        failures=failures[:MAX_FAILURES],
        package=mlqtasep.__file__,
        version=mlqtasep.__version__,
        python=sys.version,
        inputs=workload.inputs(),
    )
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["untraced_names"] = tracer.missing
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
