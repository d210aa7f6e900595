"""The benchmark's workloads: inputs made from the seed, the timed call into
mlqtasep, and the checks of its output against the golden files.

A workload object is built in the set-up phase (imports, inputs, and for
``sample`` the chains and the exact target).  Its timed section is a pass
over its ``units``, each a call of under half a second: the benchmark
repeats the pass and times every unit on its own, because a short call can
be timed steadily on a shared machine and a call of several seconds cannot.
A unit is called with the outputs of the units before it in the same pass.
``check`` compares the outputs of one pass with the golden file.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOOD_STATUSES = ("pass", "agree")


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def report_key(report: dict) -> str:
    return f"{report['suite']}:{','.join(str(part) for part in report['composition'])}"


def strip_elapsed(report: dict) -> dict:
    """A report as JSON gives it back, without its timing."""
    report = json.loads(json.dumps(report, sort_keys=True))
    report.pop("elapsed", None)
    return report


def compare_reports(produced: list[dict], expected: dict[str, dict], corrupt: bool):
    """One check per expected report and per unexpected one.

    A report fails when it is missing, reported twice, not in the golden
    file, differs from its golden entry, or has a failing status.  With
    corrupt set, the first expected entry is altered first, which the
    benchmark's smoke test uses to show that a mismatch is counted.
    """
    if corrupt and expected:
        first = min(expected)
        expected = dict(expected)
        expected[first] = {**expected[first], "details": {"corrupted": True}}
    got: dict[str, dict] = {}
    failures = []
    for report in produced:
        key = report_key(report)
        if key in got:
            failures.append(f"{key}: reported twice")
        got[key] = strip_elapsed(report)
    unexpected = sorted(set(got) - set(expected))
    failures += [f"{key}: not in the golden file" for key in unexpected]
    for key, want in sorted(expected.items()):
        have = got.get(key)
        if have is None:
            failures.append(f"{key}: missing")
        elif have != want:
            failures.append(f"{key}: differs from the golden file")
        elif have["status"] not in GOOD_STATUSES:
            failures.append(f"{key}: status {have['status']}")
    attempted = len(expected) + len(unexpected) + len(produced) - len(got)
    return attempted, failures


class Sweep:
    """``mlqtasep verify <suite> --max-N 5`` through cli.main for every suite
    of ``verify all``, stdout captured, one unit per suite.

    fm1 runs to --max-N 4: to N = 5 it is one call of about 6.5 s, too long
    to time steadily here, and the fm1 theorem at N = 6 is ``lift``'s.
    """

    SUITES = ("fm3", "fm1", "zpart", "main", "lw", "identity", "uniform", "coupe")
    SHORTER = {"fm1": 4}

    def __init__(self, seed: int, smoke: bool):
        from mlqtasep.cli import main

        self.max_n = {suite: 3 if smoke else self.SHORTER.get(suite, 5) for suite in self.SUITES}
        self.max_n["fm3-lemma"] = self.max_n["fm3"]
        self.seed = seed
        self.argvs = [
            ["verify", suite, "--max-N", str(self.max_n[suite]), "--seed", str(seed)]
            for suite in self.SUITES
        ]
        self.main = main

    def units(self):
        return [(argv[1], lambda outputs, argv=argv: self._verify(argv)) for argv in self.argvs]

    def _verify(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.main(argv)
        return code, [json.loads(line) for line in out.getvalue().splitlines()]

    def check(self, outputs, golden: dict, corrupt: bool):
        expected = {
            key: report
            for key, report in golden["reports"].items()
            if sum(report["composition"]) <= self.max_n[report["suite"]]
        }
        reports = [report for _, produced in outputs for report in produced]
        attempted, failures = compare_reports(reports, expected, corrupt)
        for argv, (code, _) in zip(self.argvs, outputs):
            if code != 0:
                failures.append(f"verify {argv[1]}: exit code {code}")
        return attempted + len(outputs), failures

    @staticmethod
    def events(outputs, unit_seconds):
        return sum(len(reports) for _, reports in outputs), sum(unit_seconds)

    def inputs(self) -> dict:
        from mlqtasep.verify import rate_points

        # the main-conjecture points: nvars = n - 1 for n species, 5 points each
        return {
            "argv": self.argvs,
            "rate_points": {
                str(nvars): [[str(x) for x in point] for point in rate_points(nvars, 5, self.seed)]
                for nvars in range(1, self.max_n["main"])
            },
        }


def lift_compositions() -> list[tuple[int, ...]]:
    """The 10 compositions of 6 with m1 = 1 and 3 or 4 species, and
    (1,1,2,1,1), the quickest of the five-species ones.

    The other five-species ones are left out: each is a call of 2.5 to
    5.6 s, too long to time steadily here, and (1,1,1,1,1,1) alone takes
    about 57 s and peaks near 900 MB.
    """
    out = []
    for parts in range(3, 5):
        for cuts in itertools.combinations(range(2, 6), parts - 2):
            bounds = (0, 1) + cuts + (6,)
            out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out + [(1, 1, 2, 1, 1)]


class Lift:
    """check_fm1_theorem and check_partition_function, one unit per call,
    composition order shuffled by seed."""

    SMOKE = [(1, 1, 4), (1, 4, 1)]

    def __init__(self, seed: int, smoke: bool):
        from mlqtasep.core import build_composition
        from mlqtasep.verify import check_fm1_theorem, check_partition_function

        parts = list(self.SMOKE if smoke else lift_compositions())
        random.Random(seed).shuffle(parts)
        self.compositions = [build_composition(m) for m in parts]
        self.suites = (check_fm1_theorem, check_partition_function)

    def units(self):
        return [
            (
                f"{suite.__name__}{c.m}",
                lambda outputs, suite=suite, c=c: suite(c).to_dict(),
            )
            for c in self.compositions
            for suite in self.suites
        ]

    def check(self, outputs, golden: dict, corrupt: bool):
        wanted = {c.m for c in self.compositions}
        expected = {
            key: report
            for key, report in golden["reports"].items()
            if tuple(report["composition"]) in wanted
        }
        return compare_reports(outputs, expected, corrupt)

    @staticmethod
    def events(outputs, unit_seconds):
        return len(outputs), sum(unit_seconds)

    def inputs(self) -> dict:
        return {
            "compositions": [list(c.m) for c in self.compositions],
            "rate_points": "none passed; check_fm1_theorem fixes its own",
        }


class Sample:
    """Gillespie runs of the coupe chain for m = (1,2,3) at rates (2,1).

    A pass is CHUNKS runs of CHUNK_EVENTS events each, seeded from the
    workload seed, and a last unit that pools their occupation of the 120
    queues, projects it to the 60 words and compares it with the exact
    word-process solution by total variation.
    """

    M = (1, 2, 3)
    RATES = (Fraction(2), Fraction(1))
    CHUNKS = 8
    SMOKE_CHUNKS = 4
    CHUNK_EVENTS = 125_000
    TOLERANCE = 0.01

    def __init__(self, seed: int, smoke: bool):
        from mlqtasep.chains import build_coupe_chain, build_tasep_chain
        from mlqtasep.core import build_composition, bully_projection
        from mlqtasep.sim import (
            EmpiricalDistribution,
            SimConfig,
            compare_to_exact,
            gillespie_run,
        )
        from mlqtasep.solve import stationary_solve

        comp = build_composition(self.M)
        self.chain = build_coupe_chain(comp)
        self.words = build_tasep_chain(comp)
        self.exact = stationary_solve(self.words, self.RATES)
        index = {word: i for i, word in enumerate(self.words.states)}
        self.word_of = [index[bully_projection(q).word] for q in self.chain.states]
        self.labels = [self.words.state_label(i) for i in range(len(self.words.states))]
        rng = random.Random(seed)
        self.configs = [
            SimConfig("coupe", self.M, self.RATES, seed=rng.getrandbits(32), events=self.CHUNK_EVENTS)
            for _ in range(self.SMOKE_CHUNKS if smoke else self.CHUNKS)
        ]
        self.distribution = EmpiricalDistribution
        self.gillespie_run = gillespie_run
        self.compare_to_exact = compare_to_exact

    def units(self):
        chunks = [
            (f"gillespie_run#{i}", lambda outputs, cfg=cfg: self.gillespie_run(cfg, self.chain))
            for i, cfg in enumerate(self.configs)
        ]
        return chunks + [("compare_to_exact", self._compare)]

    def _compare(self, runs):
        occupation = [0.0] * len(self.labels)
        for emp in runs:
            for state, share in enumerate(emp.fractions):
                occupation[self.word_of[state]] += share * emp.total_time
        total_time = sum(emp.total_time for emp in runs)
        fractions = [t / total_time for t in occupation]
        events = sum(emp.events for emp in runs)
        words = self.distribution(self.labels, fractions, total_time, events)
        return self.compare_to_exact(words, self.exact, self.TOLERANCE)["tv"]

    def check(self, outputs, golden: dict, corrupt: bool):
        *runs, tv = outputs
        expected = list(golden["exact"])
        if corrupt:
            expected[0] += 1
        failures = []
        if self.labels != golden["words"] or self.exact != expected:
            failures.append("exact word solution differs from the golden file")
        for cfg, emp in zip(self.configs, runs):
            if emp.events != cfg.events:
                failures.append(f"{emp.events} events run, {cfg.events} asked")
        if not tv <= self.TOLERANCE:
            failures.append(f"total variation {tv} over {self.TOLERANCE}")
        return 2 + len(runs), failures

    @staticmethod
    def events(outputs, unit_seconds):
        runs = outputs[:-1]
        return sum(emp.events for emp in runs), sum(unit_seconds[: len(runs)])

    def inputs(self) -> dict:
        return {
            "m": list(self.M),
            "rate_points": [[str(x) for x in self.RATES]],
            "chunk_seeds": [cfg.seed for cfg in self.configs],
            "chunk_events": self.CHUNK_EVENTS,
            "tolerance": self.TOLERANCE,
            "states": len(self.chain.states),
            "transitions": len(self.chain.transitions),
            "words": len(self.words.states),
        }


WORKLOADS = {"sweep": Sweep, "lift": Lift, "sample": Sample}
