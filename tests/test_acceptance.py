"""Acceptance suite: one test per numbered criterion, exact tolerances.

Symbolic identities are checked with tolerance zero (structural equality of
polynomials or exact rational arithmetic); only the Monte-Carlo criterion
carries a statistical tolerance, stated inline.  Criteria marked as flagged
extensions (ring size 6 variants) run when MLQ_ACCEPT_BIG=1 is set.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import json
import os
import time
from fractions import Fraction

import pytest

from mlqtasep.chains import (
    build_coupe_chain,
    build_fm_chain,
    build_tasep_chain,
)
from mlqtasep.core import build_composition, bully_projection
from mlqtasep.poly import LaurentPoly
from mlqtasep.sim import SimConfig, build_process_chain, compare_to_exact, gillespie_run
from mlqtasep.solve import (
    lump,
    master_residual,
    stationary_solve,
)
from mlqtasep.verify import (
    check_coupe_theorem,
    check_fm1_theorem,
    check_fm3_theorem,
    check_identity_count,
    check_main_conjecture,
    check_partition_function,
    check_three_species_lemma,
    check_uniform_stationarity,
    iter_compositions,
)
from helpers import GOLDEN_DIR, bully_partition, golden_form, three_species_weight, transition_matrix

BIG = os.environ.get("MLQ_ACCEPT_BIG") == "1"

X1 = LaurentPoly.variable(0, 2)
X2 = LaurentPoly.variable(1, 2)


def _conclude(number: int, ok: bool, description: str, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:2d}: {status} ({time.perf_counter() - started:6.2f}s) {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_three_particle_ring():
    started = time.perf_counter()
    c = build_composition((1, 1, 1))
    chain = build_tasep_chain(c)
    edges = {(rec.src, rec.dst, str(rec.rate)) for rec in chain.transitions}
    ok = len(chain.states) == 6 and edges == {
        (0, 5, "x1"), (1, 0, "x2"), (1, 3, "x1"),
        (2, 0, "x1"), (2, 4, "x2"), (3, 2, "x1"),
        (4, 1, "x1"), (5, 3, "x2"), (5, 4, "x1"),
    }
    # symbolic solution through the lifted three-species aggregation
    lifted = build_fm_chain(c, "three_species")
    blocks, words = bully_partition(lifted)
    sums = [LaurentPoly.zero(2)] * 6
    for state, block in enumerate(blocks):
        sums[block] = sums[block] + three_species_weight(bully_projection(lifted.states[state]))
    ok = ok and sums == [X1 + X2, X1, X1, X1 + X2, X1 + X2, X1]
    rendered = [[str(e) for e in row] for row in transition_matrix(chain)]
    ok = ok and rendered == [
        ["-x1", "x2", "x1", "0", "0", "0"],
        ["0", "-x1 - x2", "0", "0", "x1", "0"],
        ["0", "0", "-x1 - x2", "x1", "0", "0"],
        ["0", "x1", "0", "-x1", "0", "x2"],
        ["0", "0", "x2", "0", "-x1", "x1"],
        ["x1", "0", "0", "0", "0", "-x1 - x2"],
    ]
    ok = ok and stationary_solve(chain, (2, 1)) == [3, 2, 2, 3, 3, 2]
    _conclude(1, ok, "word chain on (1,1,1): 9 edges, generator matrix, symbolic weights", started)


def test_criterion_02_three_species_chain():
    started = time.perf_counter()
    c = build_composition((1, 1, 1))
    chain = build_fm_chain(c, "three_species")
    edges = {(rec.src, rec.dst, str(rec.rate)) for rec in chain.transitions}
    expected = {
        (0, 1, "x2"), (0, 3, "x1"), (3, 6, "x2"), (3, 7, "x1"), (6, 7, "x1"),
        (1, 4, "x2"), (1, 5, "x1"), (4, 5, "x1"), (7, 1, "x1"), (7, 8, "x2"),
        (2, 0, "x1"), (5, 3, "x2"), (5, 8, "x1"), (8, 0, "x1"), (8, 2, "x2"),
    }
    ok = len(chain.states) == 9 and edges == expected
    words = [bully_projection(q).word for q in chain.states]
    word_changing = sum(1 for rec in chain.transitions if words[rec.src] != words[rec.dst])
    ok = ok and word_changing == 12
    weights = [three_species_weight(bully_projection(q)) for q in chain.states]
    ok = ok and all(r.is_zero() for r in master_residual(chain, weights))
    blocks, _ = bully_partition(chain)
    ok = ok and lump(chain, blocks, build_tasep_chain(c)) is None
    _conclude(2, ok, "three-species chain on (1,1,1): figure edge set, stationarity, lumping", started)


def test_criterion_03_three_species_theorem_at_scale():
    started = time.perf_counter()
    failures = []
    for c in [c for c in iter_compositions(6) if c.n == 3]:
        report = check_fm3_theorem(c)
        if not report.ok:
            failures.append((c.m, report.counterexample))
    _conclude(3, not failures, f"three-species weights stationary and lumpable, n=3, N<=6 {failures!r}", started)


def test_criterion_04_main_conjecture():
    started = time.perf_counter()
    max_n = 6 if BIG else 5
    failures = []
    for c in iter_compositions(max_n):
        report = check_main_conjecture(c)
        if not report.ok:
            failures.append((c.m, report.counterexample))
    scope = "N<=6" if BIG else "N<=5 (set MLQ_ACCEPT_BIG=1 for N=6)"
    _conclude(4, not failures, f"aggregated queue weights match exact word solution, {scope} {failures!r}", started)


def test_criterion_05_single_first_class_and_partition_function():
    started = time.perf_counter()
    # the benchmark's golden fm1 and zpart reports at N = 6, all 14
    # compositions of the file; read, never written
    golden = json.loads((GOLDEN_DIR / "lift.json").read_text(encoding="utf-8"))["reports"]
    failures = []
    reports = []
    for c in [c for c in iter_compositions(6) if c.m[0] == 1 and c.n >= 3]:
        fm1 = check_fm1_theorem(c)
        zpart = check_partition_function(c)
        reports += [fm1, zpart]
        if not fm1.ok:
            failures.append(("fm1", c.m, fm1.counterexample))
        if not zpart.ok:
            failures.append(("zpart", c.m, zpart.counterexample))
        if c.m == (1, 1, 1) and zpart.details["partition_function"] != "3 + 6*a":
            failures.append(("zpart-golden", c.m, zpart.details))
    produced = golden_form(reports)
    failures += [("lift-golden", key) for key in golden if produced.get(key) != golden[key]]
    _conclude(5, not failures, f"x1-power weights and partition function, m1=1, N<=6 {failures!r}", started)


def test_criterion_06_uniform_stationarity():
    started = time.perf_counter()
    failures = []
    for c in iter_compositions(5):
        report = check_uniform_stationarity(c)
        if not report.ok:
            failures.append((c.m, report.counterexample))
    _conclude(6, not failures, f"rate-one multiline process: connected, balanced, uniform, N<=5 {failures!r}", started)


def test_criterion_07_coupe_process():
    started = time.perf_counter()
    c = build_composition((1, 1, 1))
    chain = build_coupe_chain(c)
    edges = {(rec.src, rec.dst, str(rec.rate)) for rec in chain.transitions}
    ok = edges == {
        (0, 4, "x2"), (0, 3, "x1"), (3, 7, "x1"), (6, 7, "x1"),
        (1, 5, "x1"), (4, 5, "x1"), (7, 1, "x1"), (7, 2, "x2"),
        (2, 0, "x1"), (5, 8, "x1"), (5, 6, "x2"), (8, 0, "x1"),
    }
    failures = [] if ok else [("edge-set", c.m)]
    for comp in [c for c in iter_compositions(6) if c.n == 3]:
        report = check_coupe_theorem(comp)
        if not report.ok:
            failures.append((comp.m, report.counterexample))
    _conclude(7, not failures, f"coupe process: figure edges, minimal, stationary, lumps, n=3, N<=6 {failures!r}", started)


def test_criterion_08_identity_count():
    started = time.perf_counter()
    expected = {2: 1, 3: 2, 4: 9, 5: 96}
    if BIG:
        expected[6] = 2500
    results = {n: check_identity_count(build_composition((1,) * n)) for n in expected}
    ok = all(
        report.ok and report.details["enumerated"] == expected[n]
        for n, report in results.items()
    )
    scope = "n<=6" if BIG else "n<=5 (set MLQ_ACCEPT_BIG=1 for n=6)"
    _conclude(8, ok, f"queues projecting to the identity: counts {expected}, {scope}", started)


def test_criterion_09_three_species_block_lemma():
    started = time.perf_counter()
    failures = []
    for c in [c for c in iter_compositions(6) if c.n == 3]:
        report = check_three_species_lemma(c)
        if not report.ok:
            failures.append((c.m, report.counterexample))
    _conclude(9, not failures, f"local block structure of three-species rings, all four parts, N<=6 {failures!r}", started)


def test_criterion_10_monte_carlo_cross_check():
    started = time.perf_counter()
    c = build_composition((1, 1, 1))
    word_chain = build_tasep_chain(c)
    rates = (Fraction(2), Fraction(1))
    exact = stationary_solve(word_chain, rates)
    ok = exact == [3, 2, 2, 3, 3, 2]

    cfg = SimConfig(process="tasep", m=(1, 1, 1), rates=rates, seed=2024, events=1_000_000)
    emp = gillespie_run(cfg, word_chain)
    tasep_report = compare_to_exact(emp, exact, tolerance=0.01)
    ok = ok and tasep_report["passed"]

    coupe_chain = build_process_chain("coupe", c)
    coupe_cfg = SimConfig(process="coupe", m=(1, 1, 1), rates=rates, seed=2024, events=1_000_000)
    coupe_emp = gillespie_run(coupe_cfg, coupe_chain)
    blocks, words = bully_partition(coupe_chain)
    projected = [0.0] * len(words)
    for state, block in enumerate(blocks):
        projected[block] += coupe_emp.fractions[state]
    coupe_emp.labels = [str(w) for w in words]
    coupe_emp.fractions = projected
    coupe_report = compare_to_exact(coupe_emp, exact, tolerance=0.01)
    ok = ok and coupe_report["passed"]
    _conclude(
        10,
        ok,
        f"Monte-Carlo vs exact: tv={tasep_report['tv']:.4f} (word), "
        f"tv={coupe_report['tv']:.4f} (coupe, projected), both <= 0.01",
        started,
    )
