import json
from collections import Counter
from dataclasses import replace
from math import comb, factorial, prod
from pathlib import Path

import pytest

from mlqtasep.chains import ChainGraph, TransitionRecord, build_fm_chain, build_tasep_chain
from mlqtasep.core import (
    build_composition,
    bully_projection,
    enumerate_mlqs,
    mlq_count,
    orbit_ring_successors,
    project_orbit_representatives,
    project_queues,
    queue_label,
    ring_successors,
    rotate,
)
from mlqtasep.poly import LaurentPoly, parse_poly, q_int_derivative
from mlqtasep.verify import (
    SUITES,
    check_coupe_theorem,
    check_fm1_theorem,
    check_fm3_theorem,
    check_identity_count,
    check_lw_normalization_and_positivity,
    check_main_conjecture,
    check_partition_function,
    check_three_species_lemma,
    check_uniform_stationarity,
    _residual_failure,
    _word_lumping,
    iter_compositions,
    rate_points,
    run_suites,
)
from helpers import (
    GOLDEN_DIR,
    bound_suite_inputs,
    full_word_weights,
    golden_form,
    h_bruteforce,
    records_by_state,
    reference_block_sums,
    reference_fm1_theorem,
    reference_uniform_stationarity,
    single_first_class_weight,
    turn_to_representative,
)


def test_iter_compositions():
    comps = [c.m for c in iter_compositions(4)]
    assert (1, 1) in comps and (2, 2) in comps and (1, 1, 1, 1) in comps
    assert (4,) not in comps
    assert len(comps) == 1 + 3 + 7  # N = 2, 3, 4
    # N ascending, then the number of parts
    five = [c.m for c in iter_compositions(5)]
    assert five[:len(comps)] == comps
    assert [(sum(m), len(m)) for m in five] == sorted((sum(m), len(m)) for m in five)
    assert len(five) - len(comps) == 2**4 - 1


def test_rate_points_reproducible():
    a = rate_points(3, 5, 11)
    b = rate_points(3, 5, 11)
    assert a == b
    assert all(0 < x <= 7 for pt in a for x in pt)
    assert rate_points(3, 5, 12) != a


# ---------------------------------------------------------------------------
# Three-species suites
# ---------------------------------------------------------------------------


def test_fm3_smallest_system():
    report = check_fm3_theorem(build_composition((1, 1, 1)))
    assert report.ok
    assert report.details["transitions"] == 15
    assert report.details["block_sums"] == [
        "x1 + x2",
        "x1",
        "x1",
        "x1 + x2",
        "x1 + x2",
        "x1",
    ]


@pytest.mark.parametrize("m", [(2, 1, 1), (1, 1, 4), (1, 2, 2), (2, 2, 1)])
def test_fm3_larger_systems(m):
    report = check_fm3_theorem(build_composition(m))
    assert report.ok, report.counterexample


@pytest.mark.parametrize("m", [c.m for c in iter_compositions(6) if c.n == 3], ids=str)
def test_fm3_block_sums_equal_the_per_state_oracle(m):
    c = build_composition(m)
    report = check_fm3_theorem(c)
    assert report.ok, report.counterexample
    assert report.details["block_sums"] == reference_block_sums(c)


def test_fm3_lemma():
    for m in [(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 1)]:
        report = check_three_species_lemma(build_composition(m))
        assert report.ok, report.counterexample


def test_fm3_lemma_refuses_successors_out_of_step_with_the_projection(monkeypatch):
    # the lemma pairs each projected queue with its N ring successors by
    # position; a column one queue short must raise, not drop the last queue
    import mlqtasep.verify as verify

    original = verify.ring_successors
    monkeypatch.setattr(verify, "ring_successors", lambda c: original(c)[: -c.N])
    with pytest.raises(ValueError, match="shorter"):
        check_three_species_lemma(build_composition((1, 1, 1)))


def _redirect_ring(monkeypatch, c, queue, col, target):
    """Make the ring at column col of one queue of c land on target, both
    given as labels, in the successors the lemma reads."""
    import mlqtasep.verify as verify

    labels = [queue_label(q) for q in enumerate_mlqs(c)]
    sid, dst = labels.index(queue), labels.index(target)
    original = verify.ring_successors

    def redirected(c):
        column = list(original(c))
        column[sid * c.N + col] = dst
        return column

    monkeypatch.setattr(verify, "ring_successors", redirected)


def test_fm3_lemma_part_1_catches_a_2_off_its_cell(monkeypatch):
    # 00001/00011 projects to 33321; read column 1, empty in both rows, as a 2
    import mlqtasep.verify as verify

    c = build_composition((1, 1, 3))
    original = verify.project_queues

    def misread(c):
        projection = original(c)
        words = list(projection.words)
        words[0] = (2,) + words[0][1:]
        return replace(projection, words=tuple(words))

    monkeypatch.setattr(verify, "project_queues", misread)
    report = check_three_species_lemma(c)
    assert not report.ok
    assert report.counterexample == {
        "part": 1, "queue": "00001/00011", "site": 1, "word": "23321"
    }


def test_fm3_lemma_part_2_catches_a_2_behind_a_1_that_moves(monkeypatch):
    # 00001/00110 projects to 33123: its ring at column 4 is a loop
    c = build_composition((1, 1, 3))
    _redirect_ring(monkeypatch, c, "00001/00110", 3, "00001/00011")
    report = check_three_species_lemma(c)
    assert not report.ok
    assert report.counterexample == {"part": 2, "site": 4, "word": "33123"}


def test_fm3_lemma_part_3_catches_two_moving_3s_in_a_block(monkeypatch):
    # 00010/00011 projects to 33312, no 3 covered: of the block at columns
    # 1-3 only column 3 rings effectively, and column 1 is made to as well,
    # onto a queue with as many covered 3s, so parts 1, 2 and 4 hold
    c = build_composition((1, 1, 3))
    _redirect_ring(monkeypatch, c, "00010/00011", 0, "00001/00011")
    report = check_three_species_lemma(c)
    assert not report.ok
    assert report.counterexample == {"part": 3, "word": "33312", "sites": [1, 3]}


@pytest.mark.parametrize(
    "queue, col, target, direction, word",
    [
        # 33321, no 3 covered: the 2 at column 4 rings onto three covered 3s
        ("00001/00011", 3, "00001/00110", "increase", "33321"),
        # 33123, three 3s covered: the covered 3 at column 1 rings onto none
        ("00001/00110", 0, "00001/00011", "decrease", "33123"),
    ],
)
def test_fm3_lemma_part_4_catches_a_covered_count_moving_the_wrong_way(
    monkeypatch, queue, col, target, direction, word
):
    c = build_composition((1, 1, 3))
    _redirect_ring(monkeypatch, c, queue, col, target)
    report = check_three_species_lemma(c)
    assert not report.ok
    assert report.counterexample == {
        "part": 4, "direction": direction, "site": col + 1, "word": word
    }


# ---------------------------------------------------------------------------
# Single first-class particle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 2, 2), (1, 1, 1, 1), (1, 3, 1)])
def test_fm1_theorem(m):
    report = check_fm1_theorem(build_composition(m))
    assert report.ok, report.counterexample


def test_fm1_weights_share_one_monomial_per_exponent(monkeypatch):
    # the 50 orbit representatives of (1,1,2,1), whose top-row particle
    # sits in the last column, hold at most V1 + 1 weight objects, one per
    # power of x1, and each representative's is the oracle's x1^(V1 - z1)
    import mlqtasep.verify as verify

    seen = []
    original = verify._residual_failure

    def spy(chain, weights, *args):
        seen.append((chain, weights))
        return original(chain, weights, *args)

    monkeypatch.setattr(verify, "_residual_failure", spy)
    c = build_composition((1, 1, 2, 1))
    assert check_fm1_theorem(c).ok
    ((chain, weights),) = seen
    assert len(chain.states) == mlq_count(c) // c.N == 50
    assert all(q[0][-1] for q in chain.states)
    objects = {id(w): w for w in weights}
    assert len(objects) <= c.V[0] + 1
    assert len(objects) == len(set(objects.values()))
    assert weights == [single_first_class_weight(bully_projection(q)) for q in chain.states]


@pytest.mark.parametrize(
    "m", [c.m for c in iter_compositions(5) if c.m[0] == 1 and c.n >= 3] + [(1, 1, 2, 1, 1)],
    ids=str,
)
def test_fm1_report_equals_the_full_chain_oracle(m):
    c = build_composition(m)
    assert golden_form([check_fm1_theorem(c)]) == golden_form([reference_fm1_theorem(c)])


@pytest.mark.parametrize("m, orbit", [((1, 1, 2, 1), 0), ((1, 1, 2, 1), 31), ((1, 1, 1, 2), 77)])
def test_fm1_counterexample_equals_the_oracle_when_an_orbit_weight_is_off(monkeypatch, m, orbit):
    # one orbit's weight times x1, on every queue of it: the first failing
    # state and its residual are the full chain's, byte for byte
    import mlqtasep.verify as verify

    c = build_composition(m)
    target = enumerate_mlqs(c)[orbit]
    x1 = LaurentPoly.variable(0, c.n - 1)
    original = verify._residual_failure

    def mutant(chain, weights, *args):
        weights = [
            w * x1 if turn_to_representative(q) == target else w
            for q, w in zip(chain.states, weights)
        ]
        return original(chain, weights, *args)

    monkeypatch.setattr(verify, "_residual_failure", mutant)
    report = check_fm1_theorem(c)
    assert report.status == "fail" and report.counterexample["check"] == "residual"
    assert golden_form([report]) == golden_form([reference_fm1_theorem(c)])


def test_fm1_solves_on_its_orbit_chain_only(monkeypatch):
    # (1,1,2,1) has 250 queues, under SOLVE_CAP: no projection pass, since
    # the first-class walk gives the weights and rates, every point solve
    # on the 50-state orbit chain, and no full chain built
    import mlqtasep.chains as chains
    import mlqtasep.core as core
    import mlqtasep.verify as verify

    c = build_composition((1, 1, 2, 1))
    built, passes, solved = [], [], []
    original_project, original_solve = core._project, verify.stationary_solve

    def project_spy(comp, rows):
        passes.append(prod(map(len, rows)))
        return original_project(comp, rows)

    def solve_spy(g, point):
        solved.append(len(g.states))
        return original_solve(g, point)

    def build_spy(*args):
        built.append(args)
        return chains.build_fm_chain(*args)

    monkeypatch.setattr(core, "_project", project_spy)
    monkeypatch.setattr(verify, "stationary_solve", solve_spy)
    monkeypatch.setattr(verify, "build_fm_chain", build_spy)
    report = check_fm1_theorem(c)
    assert report.ok and report.details == {"states": 250, "solver_points": 3}
    assert mlq_count(c) <= verify.SOLVE_CAP
    assert built == []
    assert passes == []
    assert solved == [50, 50, 50] == [mlq_count(c) // c.N] * 3


def _spy_chain_facts(monkeypatch) -> tuple[list, Counter, list]:
    """From now on: each chain verify solves on, once per solve; the
    connectivity walks per chain id (each starts with the forward walk);
    and every state a rotation search turns."""
    import mlqtasep.chains as chains
    import mlqtasep.verify as verify

    solved, walks, turned = [], Counter(), []
    solve, walk, rotate = verify.stationary_solve, ChainGraph._walk, chains.rotate

    def solve_spy(g, point):
        solved.append(g)
        return solve(g, point)

    def walk_spy(g, head, tail):
        walks[id(g)] += (head, tail) == (0, 1)
        return walk(g, head, tail)

    def rotate_spy(state):
        turned.append(state)
        return rotate(state)

    monkeypatch.setattr(verify, "stationary_solve", solve_spy)
    monkeypatch.setattr(ChainGraph, "_walk", walk_spy)
    monkeypatch.setattr(chains, "rotate", rotate_spy)
    return solved, walks, turned


def test_main_finds_its_word_chains_facts_once(monkeypatch):
    # 5 point solves of the 60-word chain of (1,1,1,2): one connectivity
    # walk and one rotation search, which turns each word once
    solved, walks, turned = _spy_chain_facts(monkeypatch)
    assert check_main_conjecture(build_composition((1, 1, 1, 2))).ok
    g = solved[0]
    assert len(solved) == 5 and all(h is g for h in solved) and len(g.states) == 60
    assert walks == {id(g): 1}
    assert sorted(turned) == sorted(g.states)
    assert len(set(g.rotation_orbits)) == 12


def test_fm1_walks_its_orbit_chain_once(monkeypatch):
    # voltages_generate and the 3 point solves share one walk of the
    # 50-state orbit chain of (1,1,2,1); its rotation search stops at the
    # first representative, whose turn is not a representative
    solved, walks, turned = _spy_chain_facts(monkeypatch)
    assert check_fm1_theorem(build_composition((1, 1, 2, 1))).ok
    g = solved[0]
    assert len(solved) == 3 and all(h is g for h in solved) and walks == {id(g): 1}
    assert turned == [g.states[0]]
    assert g.rotation_orbits == tuple(range(50))


def test_fm1_point_solve_failure_is_reported(monkeypatch):
    # a weight vector off by a factor 2 at one queue disagrees with the
    # exact solve at the first point
    import mlqtasep.verify as verify

    original = verify.point_vector

    def doubled(weights, point):
        values = original(weights, point)
        return [2 * values[0]] + values[1:]

    monkeypatch.setattr(verify, "point_vector", doubled)
    report = check_fm1_theorem(build_composition((1, 1, 2)))
    assert report.status == "fail"
    assert report.counterexample == {"check": "point-solve", "x1": "2"}


def test_fm1_fails_when_a_ring_row_breaks_rotation(monkeypatch):
    # a particle in column 1 never moves left onto the free last column
    import mlqtasep.core as core

    original = core._ring_row

    def mutant(row, col):
        if col == 0 and row[0] and not row[-1]:
            return row, col
        return original(row, col)

    monkeypatch.setattr(core, "_ring_row", mutant)
    report = check_fm1_theorem(build_composition((1, 1, 2, 1)))
    assert report.status == "fail"
    assert report.counterexample == {"check": "ring-rotation"}


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 2, 1), (1, 1, 2, 1), (1, 1, 1, 2)], ids=str)
def test_fm1_lifts_every_ring_of_the_representatives(monkeypatch, m):
    # each of the B * N rings of the representatives is a record or a
    # loop, each record carries one voltage, and N turns of the records are
    # the full chain's records
    import mlqtasep.verify as verify

    generate, seen = verify.voltages_generate, []

    def spy(g):
        seen.append(g)
        return generate(g)

    monkeypatch.setattr(verify, "voltages_generate", spy)
    c = build_composition(m)
    assert check_fm1_theorem(c).ok
    (g,) = seen
    B, records = len(g.states), len(g.transitions)
    assert B * c.N == mlq_count(c) and len(g.voltages) == records and set(g.voltages) == {0, 1}
    loops = sum(dst == k // c.N for k, dst in enumerate(orbit_ring_successors(c)[0]))
    assert records + loops == B * c.N
    assert c.N * records == len(build_fm_chain(c, "one_first_class").transitions)


def _turned_to_representative(q):
    """The representative of q's orbit and the number of turns to it."""
    representative, turns = turn_to_representative(q), 0
    while q != representative:
        q, turns = rotate(q), turns + 1
    return representative, turns


@pytest.mark.parametrize(
    "m",
    [c.m for c in iter_compositions(5) if c.m[0] == 1 and c.n >= 3] + [(1, 1, 2, 1, 1)],
    ids=str,
)
def test_fm1_orbit_chain_is_the_full_chain_turned_to_representatives(monkeypatch, m):
    # each ring out of a representative (ids < B) of the full chain, its
    # destination turned to a representative w in v turns: a record to w
    # with voltage v and the full record's rate and label, or a loop when w
    # is the ringing queue itself, never a turned one
    import mlqtasep.verify as verify

    generate, seen = verify.voltages_generate, []

    def spy(g):
        seen.append(g)
        return generate(g)

    monkeypatch.setattr(verify, "voltages_generate", spy)
    c = build_composition(m)
    assert check_fm1_theorem(c).ok
    (g,) = seen
    full = build_fm_chain(c, "one_first_class")
    B = mlq_count(c) // c.N
    index = {q: i for i, q in enumerate(full.states)}
    out, column = records_by_state(full), ring_successors(c)
    records, voltages = [], []
    for sid in range(B):
        rings = iter(out[sid])
        for dst in column[sid * c.N : (sid + 1) * c.N]:
            rate, mechanism = (None, None) if dst == sid else next(rings)[2:]
            representative, turns = _turned_to_representative(full.states[dst])
            w = index[representative]
            if w == sid:
                assert turns == 0
            else:
                records.append((sid, w, rate, mechanism))
                voltages.append(turns)
        assert next(rings, None) is None
    assert g.states == full.states[:B]
    assert [tuple(rec) for rec in g.transitions] == records
    assert g.voltages == tuple(voltages)


def test_fm1_irreducible_fails_when_the_voltages_miss_a_generator(monkeypatch):
    # every voltage doubled on a ring of 4: the orbit chain keeps its
    # records and stays strongly connected, but the voltages generate only
    # the even turns, so the full chain splits in two
    import mlqtasep.verify as verify

    generate, bases = verify.voltages_generate, []

    def doubled(g):
        bases.append(g.irreducible)
        return generate(replace(g, voltages=tuple(2 * v for v in g.voltages)))

    monkeypatch.setattr(verify, "voltages_generate", doubled)
    report = check_fm1_theorem(build_composition((1, 1, 1, 1)))
    assert bases == [True]
    assert report.status == "fail"
    assert report.counterexample == {"check": "irreducible"}


def test_partition_function_small():
    report = check_partition_function(build_composition((1, 1, 1)))
    assert report.ok
    assert report.details["partition_function"] == "3 + 6*a"
    assert report.details["h_form_matches"] is True


def test_partition_function_non_permutation():
    report = check_partition_function(build_composition((1, 2, 2)))
    assert report.ok, report.counterexample
    # 5 * (1 + 3a + 6a^2)
    assert report.details["partition_function"] == "5 + 15*a + 30*a^2"
    # the printed symmetric-function form only rewrites the product when N = n
    assert report.details["h_form_matches"] is False


def test_partition_function_permutation_case():
    report = check_partition_function(build_composition((1, 1, 1, 1)))
    assert report.ok
    assert report.details["h_form_matches"] is True


def test_partition_function_catches_a_wrong_q_derivative(monkeypatch):
    import mlqtasep.verify as verify

    def wrong(k, d):
        # one coefficient off by d!, so the form stays a multiple of d!
        return q_int_derivative(k, d) + LaurentPoly.constant(factorial(d), 1)

    monkeypatch.setattr(verify, "q_int_derivative", wrong)
    report = check_partition_function(build_composition((1, 2, 3)))
    assert report.status == "fail"
    assert report.counterexample == {"check": "binomial-product-vs-q-derivative"}


def test_partition_function_fails_when_its_rotation_certificate_fails(monkeypatch):
    # zpart counts the orbit representatives N times each only under the
    # certificate; a false one fails the report before either closed form
    import mlqtasep.verify as verify

    c = build_composition((1, 1, 2, 1))
    original = verify.first_class_walk
    expected = check_partition_function(c).details
    monkeypatch.setattr(verify, "first_class_walk", lambda c: (original(c)[0], False))
    report = check_partition_function(c)
    assert report.status == "fail"
    assert report.counterexample == {"check": "projection-rotation"}
    assert report.details == expected


def test_partition_function_catches_a_wrong_binomial_factor(monkeypatch):
    import mlqtasep.verify as verify

    c = build_composition((1, 2, 3))
    enumerated = check_partition_function(c).details["partition_function"]
    monkeypatch.setattr(verify, "comb", lambda n, k: comb(n, k) + ((n, k) == (4, 2)))
    report = check_partition_function(c)
    assert report.status == "fail"
    failure = report.counterexample
    assert failure["check"] == "enumeration-vs-binomial-product"
    assert failure["enumerated"] == enumerated != failure["explicit"]
    assert report.details["partition_function"] == enumerated


def test_partition_function_prints_a_wrong_enumeration_in_a(monkeypatch):
    # one representative's V1 - z1 raised by one moves N queues up a power
    # of a: the enumeration fails against the product, and both sides of the
    # counterexample print in a
    import mlqtasep.verify as verify

    c = build_composition((1, 2, 3))
    explicit = check_partition_function(c).details["partition_function"]
    original = verify.first_class_walk

    def doctored(c):
        (*rest, (col, e)), commutes = original(c)
        return [*rest, (col, e + 1)], commutes

    monkeypatch.setattr(verify, "first_class_walk", doctored)
    report = check_partition_function(c)
    failure = report.counterexample
    assert report.status == "fail"
    assert failure["check"] == "enumeration-vs-binomial-product"
    assert failure["explicit"] == explicit == "6 + 18*a + 36*a^2 + 60*a^3"
    enumerated, product = (parse_poly(failure[key], 1, ("a",)) for key in ("enumerated", "explicit"))
    assert enumerated != product and enumerated.eval([1]) == product.eval([1])
    assert report.details["partition_function"] == failure["enumerated"]


def _mutate_first_class_steps(monkeypatch, change):
    """From now on: each (exit column, vacancies passed) of _first_class_steps(row),
    at entry column col, as change(row, col, out, passed) gives it."""
    import mlqtasep.core as core

    original = core._first_class_steps
    monkeypatch.setattr(
        core, "_first_class_steps", lambda row: [change(row, col, *step) for col, step in enumerate(original(row))]
    )


@pytest.mark.parametrize("m", [(1, 2, 2), (1, 1, 2, 1)], ids=str)
def test_fm1_and_zpart_fail_when_a_first_class_step_breaks_rotation(monkeypatch, m):
    # a vacancy in column 1 is never counted, so a step turned across it
    # passes one vacancy fewer than the step turned: the certificate fails
    # both reports
    _mutate_first_class_steps(
        monkeypatch, lambda row, col, out, passed: (out, passed - (0 in {(col + k) % len(row) for k in range(passed)}))
    )
    c = build_composition(m)
    for report in (check_fm1_theorem(c), check_partition_function(c)):
        assert report.status == "fail"
        assert report.counterexample == {"check": "projection-rotation"}


@pytest.mark.parametrize("m", [(1, 2, 2), (1, 1, 2, 1)], ids=str)
def test_fm1_and_zpart_fail_when_a_first_class_step_is_turned_but_wrong(monkeypatch, m):
    # a particle straight below the path counted as a passed cell: the
    # tables still commute with turning, so the certificate holds, and the
    # weights are off on the queues where the path drops straight down
    _mutate_first_class_steps(monkeypatch, lambda row, col, out, passed: (out, passed + row[col]))
    c = build_composition(m)
    fm1, zpart = check_fm1_theorem(c), check_partition_function(c)
    assert fm1.status == zpart.status == "fail"
    assert fm1.counterexample["check"] == "residual"
    assert zpart.counterexample["check"] == "enumeration-vs-binomial-product"


def test_only_zpart_catches_a_first_class_step_that_counts_its_landing_cell(monkeypatch):
    # every step one more: each of (1,1,2,1)'s queues passes two lower rows,
    # so every weight is x1^-2 times its own, a constant factor stationarity
    # cannot see, and only the partition function's normalization can
    _mutate_first_class_steps(monkeypatch, lambda row, col, out, passed: (out, passed + 1))
    c = build_composition((1, 1, 2, 1))
    assert check_fm1_theorem(c).ok
    report = check_partition_function(c)
    assert report.status == "fail" and report.counterexample["check"] == "enumeration-vs-binomial-product"


def test_partition_function_h_form_is_the_product_of_complete_homogeneous_polynomials():
    # factor r is h_{n-r}(1, a, ..., a) with r copies of a, summed over
    # multisets here and printed in a
    a, one = LaurentPoly.variable(0, 1), LaurentPoly.one(1)
    compositions = [c for c in iter_compositions(6) if SUITES["zpart"][0](c.m)]
    assert len(compositions) == 26
    for c in compositions:
        expected = LaurentPoly.constant(c.N, 1)
        for r in range(2, c.n):
            expected = expected * h_bruteforce(c.n - r, [one] + [a] * r)
        assert check_partition_function(c).details["h_form"] == expected.text(("a",))


def test_lift_reports_match_the_golden_lift():
    # the benchmark's golden fm1 and zpart reports at N = 6; read, never
    # written.  The lift workload's 11 compositions are those with 3 or 4
    # species and (1,1,2,1,1); the file's other five-species entries take
    # seconds each and are left to the acceptance test.
    golden = json.loads((GOLDEN_DIR / "lift.json").read_text(encoding="utf-8"))["reports"]
    ms = sorted({tuple(report["composition"]) for report in golden.values()})
    ms = [m for m in ms if len(m) <= 4 or m == (1, 1, 2, 1, 1)]
    assert len(ms) == 11
    reports = []
    for m in ms:
        c = build_composition(m)
        reports += [check_fm1_theorem(c), check_partition_function(c)]
    produced = golden_form(reports)
    assert produced == {key: golden[key] for key in produced}


# ---------------------------------------------------------------------------
# Conjecture suites
# ---------------------------------------------------------------------------


def test_main_conjecture_small():
    report = check_main_conjecture(build_composition((1, 1, 1)))
    assert report.kind == "conjecture"
    assert report.status == "agree"
    assert report.details["symbolic_residual"] == "zero"


def test_main_conjecture_symbolic_residual_at_six():
    report = check_main_conjecture(build_composition((1, 2, 3)))
    assert report.status == "agree"
    assert report.details == {
        "words": 60, "queues": 120, "symbolic_residual": "zero", "rate_points": 5
    }


@pytest.mark.parametrize("m", [(1, 1), (2, 1), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1)])
def test_main_conjecture_various(m):
    report = check_main_conjecture(build_composition(m))
    assert report.ok, report.counterexample


@pytest.mark.parametrize(
    "check, m, counterexample",
    [
        (check_main_conjecture, (1, 1, 2), {"check": "point-proportionality", "point": ["3/2", "4/3"]}),
        # fm3 solves its word chain at rate points on rings of 6 only
        (check_fm3_theorem, (1, 1, 4), {"check": "point-solve", "point": ["3/2", "4/3"]}),
    ],
)
def test_point_check_failure_is_reported(monkeypatch, check, m, counterexample):
    # a weight vector off by a factor 2 at one word disagrees with the
    # exact solve at the first seeded point
    import mlqtasep.verify as verify

    original = verify.point_vector

    def doubled(weights, point):
        values = original(weights, point)
        return [2 * values[0]] + values[1:]

    monkeypatch.setattr(verify, "point_vector", doubled)
    report = check(build_composition(m))
    assert not report.ok
    assert report.counterexample == counterexample


@pytest.mark.parametrize("m", [c.m for c in iter_compositions(6) if c.m[0] == 1], ids=str)
def test_word_weights_from_the_representatives_equal_the_full_aggregation(m):
    # all 31 compositions with m_1 = 1 and N <= 6: the representatives'
    # sums are every queue's, one object per rotation orbit of words
    import mlqtasep.verify as verify

    chain, full = full_word_weights(m)
    word_chain, weights, failure = verify._word_weights(build_composition(m))
    assert failure is None and word_chain == chain and weights == list(full)
    assert all(w is weights[head] for w, head in zip(weights, chain.rotation_heads))


@pytest.mark.parametrize(
    "check, m, details",
    [
        (check_main_conjecture, (1, 1, 2, 1), {"words": 60, "queues": 250}),
        (check_lw_normalization_and_positivity, (1, 1, 1, 1), {}),
        (check_identity_count, (1, 1, 1, 1), {"enumerated": 9, "formula": 9}),
    ],
)
def test_main_and_lw_fail_when_the_rotation_certificate_fails(monkeypatch, check, m, details):
    # the representatives stand for their orbits only under the certificate
    import mlqtasep.verify as verify

    original = verify.project_orbit_representatives
    monkeypatch.setattr(verify, "project_orbit_representatives", lambda c: (original(c)[0], False))
    report = check(build_composition(m))
    assert report.status == "disagree"
    assert report.counterexample == {"check": "projection-rotation"}
    assert report.details == details


def test_main_fails_when_a_projection_step_breaks_rotation(monkeypatch):
    # a cover in column 1 is never recorded, so a step turned onto column 1
    # disagrees with the step turned: the certificate fails the report
    import mlqtasep.core as core

    original = core.project_rows

    def mutant(upper, patterns, new_class):
        return [(classes, (0,) + cover[1:]) for classes, cover in original(upper, patterns, new_class)]

    monkeypatch.setattr(core, "project_rows", mutant)
    report = check_main_conjecture(build_composition((1, 1, 2, 1)))
    assert report.status == "disagree"
    assert report.counterexample == {"check": "projection-rotation"}


def _stepped_upper_rows(c):
    """(new class, labeled upper row) of each step the representatives'
    pass makes, in the order the pass first meets them."""
    stepped = {}
    for q in project_orbit_representatives(c)[0].queues:
        for depth, upper in enumerate(bully_projection(q).classes[:-1], start=1):
            stepped.setdefault((depth + 1, upper))
    return list(stepped)


def _main_with_corrupted_steps(monkeypatch, c, corrupt):
    """check_main_conjecture on c with the steps of each (new class, upper
    row) that corrupt accepts made with no leftover class; and those rows."""
    import mlqtasep.core as core

    original, corrupted = core.project_rows, []

    def mutant(upper, patterns, new_class):
        steps = original(upper, patterns, new_class)
        if not corrupt((new_class, upper)):
            return steps
        corrupted.append((new_class, upper))
        return [(tuple(cls * (cls != new_class) for cls in classes), cover) for classes, cover in steps]

    monkeypatch.setattr(core, "project_rows", mutant)
    return check_main_conjecture(c), corrupted


def test_main_fails_when_only_a_freshly_turned_row_breaks_rotation(monkeypatch):
    # only the upper rows the representatives' pass never steps go wrong,
    # so the pass's own steps all hold and only the certificate's fresh
    # step of a turned row can catch the fault
    c = build_composition((1, 1, 2, 1))
    stepped = set(_stepped_upper_rows(c))
    report, corrupted = _main_with_corrupted_steps(monkeypatch, c, lambda key: key not in stepped)
    assert corrupted
    assert report.status == "disagree"
    assert report.counterexample == {"check": "projection-rotation"}


def test_main_fails_when_a_row_on_a_walked_orbit_breaks_rotation(monkeypatch):
    # the first upper row the pass steps that turns into a row stepped
    # before it: the certificate never walks its orbit again, so only the
    # walk from the earlier row, which turns onto it, can catch the fault;
    # the words its steps leave are not words of c, and main reads none
    c = build_composition((1, 1, 2, 1))
    stepped = _stepped_upper_rows(c)

    def orbit(key):
        new_class, upper = key
        turns = [upper]
        while len(turns) < c.N:
            turns.append(rotate(turns[-1]))
        return {(new_class, turned) for turned in turns}

    later = next(key for n, key in enumerate(stepped) if orbit(key) & set(stepped[:n]))
    report, corrupted = _main_with_corrupted_steps(monkeypatch, c, lambda key: key == later)
    assert corrupted == [later]
    assert report.status == "disagree"
    assert report.counterexample == {"check": "projection-rotation"}


def test_lw_positivity():
    report3 = check_lw_normalization_and_positivity(build_composition((1, 1, 1)))
    assert report3.ok, report3.counterexample
    report4 = check_lw_normalization_and_positivity(build_composition((1, 1, 1, 1)))
    assert report4.ok, report4.counterexample


def test_identity_counts():
    assert check_identity_count(build_composition((1, 1))).details["enumerated"] == 1
    three = check_identity_count(build_composition((1, 1, 1)))
    assert three.ok and three.details == {"enumerated": 2, "formula": 2}
    four = check_identity_count(build_composition((1, 1, 1, 1)))
    assert four.ok and four.details == {"enumerated": 9, "formula": 9}


@pytest.mark.parametrize("n", range(2, 7))
def test_identity_counts_the_fiber_of_every_queue(n):
    # the representatives whose word is a turn of 1 2 ... n, against the
    # queues of (1^n), all of them projected, whose word is 1 2 ... n
    c = build_composition((1,) * n)
    count = project_queues(c).words.count(tuple(range(1, n + 1)))
    assert check_identity_count(c).details["enumerated"] == count


@pytest.mark.parametrize(
    "check, m",
    [
        (check_lw_normalization_and_positivity, (1, 2)),
        (check_lw_normalization_and_positivity, (2, 1, 1)),
        (check_lw_normalization_and_positivity, (1, 1, 1, 1, 1, 1)),
        (check_identity_count, (1, 2)),
        (check_identity_count, (2, 1, 1)),
    ],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_permutation_suites_refuse_other_compositions(check, m):
    with pytest.raises(ValueError, match=r"m = \(1\^n\)"):
        check(build_composition(m))


@pytest.mark.parametrize("suite, cap, count", [("lw", 5, 3), ("identity", 6, 5)])
def test_permutation_suites_list_their_compositions_up_to_their_cap(monkeypatch, suite, cap, count):
    # --max-N 40 lists (1^n) up to the suite's cap only: one more input
    # listed fails the test
    expected = golden_form(run_suites([suite], cap))
    bound_suite_inputs(monkeypatch, suite, count)
    reports = run_suites([suite], 40)
    assert [report.composition for report in reports] == [(1,) * n for n in range(cap - count + 1, cap + 1)]
    assert golden_form(reports) == expected


def test_every_suite_lists_compositions():
    for name, (takes, cap, _) in SUITES.items():
        assert any(takes(c.m) for c in iter_compositions(min(6, cap or 6))), name


# ---------------------------------------------------------------------------
# Uniform stationarity and coupe process
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1)])
def test_uniform_stationarity(m):
    report = check_uniform_stationarity(build_composition(m))
    assert report.ok, report.counterexample
    assert report.details["method"] == "direct-solve"


def test_uniform_stationarity_certificate_path(monkeypatch):
    # 5 * 10 * 10 = 500 queues, above the direct-solve cap, though their
    # 100 orbits are under it; the suite builds no full chain, enumerates
    # no queue space and solves nothing
    import mlqtasep.chains as chains
    import mlqtasep.core as core
    import mlqtasep.verify as verify

    for module, name in [(core, "enumerate_mlqs"), (chains, "enumerate_mlqs"), (chains, "build_fm_chain"),
                         (verify, "build_fm_chain"), (verify, "stationary_solve")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"called {name}"))
    report = check_uniform_stationarity(build_composition((1, 1, 1, 2)))
    assert report.ok
    assert report.details == {"states": 500, "method": "balance-certificate"}


@pytest.mark.parametrize(
    "m", [c.m for c in iter_compositions(5)] + [(1, 1, 1, 2, 1), (1, 2, 1, 1, 1)], ids=str
)
def test_uniform_report_equals_the_full_chain_oracle(m):
    # the orbit chain for m_1 = 1 and n >= 3, the full chain elsewhere
    c = build_composition(m)
    assert golden_form([check_uniform_stationarity(c)]) == golden_form([reference_uniform_stationarity(c)])


@pytest.mark.parametrize(
    "m", [c.m for c in iter_compositions(5) if c.m[0] == 1 and c.n >= 3], ids=str
)
def test_uniform_orbit_degrees_are_the_full_chains(monkeypatch, m):
    # the lemma the orbit path rests on: each representative's records in
    # and out of the orbit chain count its arcs in and out of the full chain
    import mlqtasep.verify as verify

    generate, seen = verify.voltages_generate, []

    def spy(g):
        seen.append(g)
        return generate(g)

    monkeypatch.setattr(verify, "voltages_generate", spy)
    c = build_composition(m)
    assert check_uniform_stationarity(c).ok
    (g,) = seen
    full = build_fm_chain(c, "uniform")
    B = mlq_count(c) // c.N
    assert g.states == full.states[:B] and len(g.voltages) == len(g.transitions)
    for end in ("src", "dst"):
        assert [len(recs) for recs in records_by_state(g, end)] == [
            len(recs) for recs in records_by_state(full, end)[:B]
        ]


def _uniform_with_walk(monkeypatch, doctor, commutes=True):
    """Make the uniform suite read its orbit column through doctor, and its
    ring-rotation certificate as commutes."""
    import mlqtasep.verify as verify

    original = verify.orbit_ring_successors
    monkeypatch.setattr(verify, "orbit_ring_successors", lambda c: (doctor(original(c)[0]), commutes))


def test_uniform_fails_when_the_rings_break_rotation(monkeypatch):
    _uniform_with_walk(monkeypatch, lambda column: column, commutes=False)
    report = check_uniform_stationarity(build_composition((1, 1, 2)))
    assert report.status == "fail"
    assert report.counterexample == {"check": "ring-rotation"}


def test_uniform_irreducible_fails_when_the_voltages_are_zeroed(monkeypatch):
    # the orbit chain stays strongly connected, but with no turns its
    # cover falls apart into N copies
    import mlqtasep.verify as verify

    generate, bases = verify.voltages_generate, []

    def zeroed(g):
        bases.append(g.irreducible)
        return generate(replace(g, voltages=(0,) * len(g.transitions)))

    monkeypatch.setattr(verify, "voltages_generate", zeroed)
    report = check_uniform_stationarity(build_composition((1, 1, 1, 1)))
    assert bases == [True]
    assert report.status == "fail"
    assert report.counterexample == {"check": "irreducible"}


def test_uniform_degree_balance_fails_when_a_ring_is_dropped(monkeypatch):
    # the ring at column 4 of representative 0 of (1,1,2) made a loop: one
    # arc fewer out of 0001/0011, and one fewer into 0001/1001, its
    # destination turned to a representative
    _uniform_with_walk(monkeypatch, lambda column: column[:3] + [0] + column[4:])
    report = check_uniform_stationarity(build_composition((1, 1, 2)))
    assert report.status == "fail"
    assert report.counterexample == {"check": "degree-balance", "state": "0001/0011", "out": 1, "in": 2}


def _custom_chain(c, edges, voltages=()):
    """A rate-one chain of c on states 0..k-1 with the given (src, dst) records."""
    one = LaurentPoly.one(c.n - 1)
    states = tuple((u,) for u in range(1 + max(max(edge) for edge in edges)))
    records = tuple(TransitionRecord(u, w, one, "a") for u, w in edges)
    return ChainGraph("custom", c, states, records, c.n - 1, voltages=voltages)


@pytest.mark.parametrize(
    "edges, checks",
    [
        # two disjoint cycles: the ones vector is stationary, and state 0
        # does not reach the second cycle
        (((0, 1), (1, 0), (2, 3), (3, 2)), {"uniform": "irreducible", "fm1": "irreducible"}),
        # state 0 reaches every state, but none reaches state 0: no
        # stationary vector is positive, so the ones vector is not
        # stationary and degree balance, or the residual, fails at state 0
        (((0, 1), (1, 2), (2, 1)), {"uniform": "degree-balance", "fm1": "residual"}),
    ],
)
@pytest.mark.parametrize(
    "suite, m, builder",
    [("uniform", (2, 1, 1), "build_fm_chain"), ("uniform", (1, 1, 2), "ringing_chain"), ("fm1", (1, 1, 2), "ringing_chain")],
)
def test_certified_suites_fail_on_a_chain_that_is_not_strongly_connected(monkeypatch, edges, checks, suite, m, builder):
    # on uniform's full and orbit paths and on fm1's orbit chain, forward
    # reach proves strong connectivity only together with the certificate
    # of a positive stationary vector: fm1's weights are all x1^0 here
    import mlqtasep.verify as verify

    c = build_composition(m)
    chain = _custom_chain(c, edges, (1,) * len(edges) if builder == "ringing_chain" else ())
    assert not chain.irreducible
    monkeypatch.setattr(verify, builder, lambda *args: chain)
    monkeypatch.setattr(verify, "first_class_walk", lambda c: ([(0, 0)] * len(chain.states), True))
    report = (check_fm1_theorem if suite == "fm1" else check_uniform_stationarity)(c)
    assert report.status == "fail"
    assert report.counterexample["check"] == checks[suite]


@pytest.mark.parametrize(
    "check, m",
    [(check_fm1_theorem, (1, 1, 2, 1, 1)), (check_uniform_stationarity, (1, 1, 1, 1, 1)),
     (check_uniform_stationarity, (2, 1, 1, 1)), (check_coupe_theorem, (2, 2, 3))],
    ids=["fm1-11211", "uniform-11111", "uniform-2111", "coupe-223"],
)
def test_certified_suites_walk_their_chain_once(monkeypatch, check, m):
    # above SOLVE_CAP no point solve runs (coupe solves nothing): the
    # stationarity certificate makes the forward walk of the potentials the
    # whole connectivity proof
    import mlqtasep.verify as verify

    walk, walks = ChainGraph._walk, []
    monkeypatch.setattr(ChainGraph, "_walk", lambda g, head, tail: walks.append((head, tail)) or walk(g, head, tail))
    c = build_composition(m)
    assert mlq_count(c) > verify.SOLVE_CAP
    assert check(c).ok
    assert walks == [(0, 1)]


def test_uniform_solve_failure_is_reported(monkeypatch):
    # (1,1,2) has 24 queues, under SOLVE_CAP: the solve at ones runs on its
    # 6-state orbit chain, and a wrong vector fails the report
    import mlqtasep.verify as verify

    solved = []

    def wrong(g, point):
        solved.append((len(g.states), point))
        return [2] + [1] * (len(g.states) - 1)

    monkeypatch.setattr(verify, "stationary_solve", wrong)
    report = check_uniform_stationarity(build_composition((1, 1, 2)))
    assert solved == [(6, (1, 1))]
    assert report.status == "fail"
    assert report.counterexample == {"check": "uniform-solve"}
    assert report.details == {"states": 24, "method": "direct-solve"}


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 1)])
def test_coupe_theorem(m):
    report = check_coupe_theorem(build_composition(m))
    assert report.ok, report.counterexample


def test_coupe_theorem_cuts_each_word_once(monkeypatch):
    # in the chain build; the seat bookkeeping reads the chain's cuts
    import mlqtasep.chains as chains
    import mlqtasep.verify as verify

    calls = Counter()
    original = chains.decompose_coupes

    def spy(word):
        calls[word] += 1
        return original(word)

    monkeypatch.setattr(chains, "decompose_coupes", spy)
    monkeypatch.setattr(verify, "decompose_coupes", spy)
    # 50 queues project to the 30 words of (1,2,2)
    assert check_coupe_theorem(build_composition((1, 2, 2))).ok
    assert len(calls) == 30 and set(calls.values()) == {1}


def _edit_coupe_record(monkeypatch, source, mechanism, target=None):
    """Make the coupe suite check the real chain with its one record of the
    given source label and mechanism dropped, or retargeted to the queue
    labeled target."""
    import mlqtasep.verify as verify

    original = verify.build_coupe_chain

    def edited(c):
        chain = original(c)
        labels = [chain.state_label(sid) for sid in range(len(chain.states))]
        records, hits = [], 0
        for rec in chain.transitions:
            if labels[rec.src] == source and rec.mechanism == mechanism:
                hits += 1
                if target is None:
                    continue
                rec = rec._replace(dst=labels.index(target))
            records.append(rec)
        assert hits == 1
        return replace(chain, transitions=tuple(records))

    monkeypatch.setattr(verify, "build_coupe_chain", edited)


@pytest.mark.parametrize(
    "source, mechanism, target, counterexample",
    [
        pytest.param(
            # this ring is the only record into 0010/0011
            "0001/0011", "coupe-regular(4)", None, {"check": "irreducible"},
            id="irreducible",
        ),
        pytest.param(
            # 0010/0101 projects to 3231, the word of 0001/0101
            "0001/0101", "coupe-regular(4)", "0010/0101",
            {"check": "minimality", "state": "0001/0101"},
            id="minimality",
        ),
        pytest.param(
            "0001/0011", "coupe-pulling(3)", None,
            {"check": "outgoing-count", "state": "0001/0011", "expected": 2, "got": 1},
            id="outgoing-count",
        ),
        pytest.param(
            "0001/0101", "coupe-regular(4)", "0001/0011",
            {"check": "incoming-regular", "state": "0001/0011", "expected": [4], "got": [3, 4]},
            id="incoming-regular",
        ),
        pytest.param(
            "0001/0011", "coupe-pulling(3)", "0001/0101",
            {"check": "incoming-pulling", "state": "0001/0101", "expected": [4], "got": [2, 4]},
            id="incoming-pulling",
        ),
    ],
)
def test_coupe_theorem_catches_an_edited_record(
    monkeypatch, source, mechanism, target, counterexample
):
    _edit_coupe_record(monkeypatch, source, mechanism, target)
    report = check_coupe_theorem(build_composition((1, 1, 2)))
    assert not report.ok
    assert report.counterexample == counterexample


@pytest.mark.parametrize("check", [check_coupe_theorem, check_fm3_theorem])
def test_lumpability_checked_once_per_report(monkeypatch, check):
    import mlqtasep.solve as solve
    import mlqtasep.verify as verify

    calls = []
    original = solve.lump

    def spy(g, blocks, target):
        calls.append((g.kind, target.kind))
        return original(g, blocks, target)

    monkeypatch.setattr(verify, "lump", spy)
    monkeypatch.setattr(solve, "lump", spy)
    assert check(build_composition((1, 2, 2))).ok
    assert len(calls) == 1 and calls[0][1] == "tasep"


@pytest.mark.parametrize(
    "check, arg",
    [
        (check_fm3_theorem, build_composition((1, 2, 2))),
        (check_coupe_theorem, build_composition((1, 2, 2))),
        (check_lw_normalization_and_positivity, build_composition((1, 1, 1))),
        # 500 queues, above SOLVE_CAP, and 250, under it: fm1 and zpart
        # read the first-class walk and project nothing
        (check_fm1_theorem, build_composition((1, 1, 1, 2))),
        (check_partition_function, build_composition((1, 1, 2, 1))),
        (check_fm1_theorem, build_composition((1, 1, 2, 1))),
        (check_main_conjecture, build_composition((1, 1, 1, 2))),
        (check_main_conjecture, build_composition((2, 1, 1))),
        (check_lw_normalization_and_positivity, build_composition((1, 1, 1, 1))),
    ],
)
def test_each_queue_projected_once_per_use(monkeypatch, check, arg):
    # one projection pass per report: fm3 and coupe read the one their
    # chain carries; lw and main on m_1 = 1 project their mlq_count / N
    # orbit representatives only, never the whole queue space, and main on
    # m_1 >= 2 projects every queue; fm1 and zpart make no pass and step no
    # row of one
    import mlqtasep.core as core

    passes, stepped = [], []
    original, step = core._project, core.project_rows

    def spy(c, rows):
        passes.append(prod(map(len, rows)))
        return original(c, rows)

    def step_spy(*args):
        stepped.append(args)
        return step(*args)

    monkeypatch.setattr(core, "_project", spy)
    monkeypatch.setattr(core, "project_rows", step_spy)
    assert check(arg).ok
    if check in (check_fm1_theorem, check_partition_function):
        assert passes == stepped == []
        return
    orbits = arg.m[0] == 1 and check not in (check_fm3_theorem, check_coupe_theorem)
    assert passes == [mlq_count(arg) // arg.N if orbits else mlq_count(arg)]
    assert stepped


def test_failure_helpers_counterexamples():
    c = build_composition((1, 1, 1))
    words = build_tasep_chain(c)
    queues = build_fm_chain(c, "three_species")
    one = LaurentPoly.one(2)
    assert _residual_failure(words, [one] * 6) == {
        "check": "residual", "word": "123", "residual": "x2"
    }
    assert _residual_failure(words, [one] * 6, "block-sum-residual", False) == {
        "check": "block-sum-residual", "word": "123"
    }
    assert _residual_failure(queues, [one] * 9) == {
        "check": "residual", "state": "001/011", "residual": "x1 - x2"
    }
    # the uniform chain has the same queues, so the same projected words
    projected = [bully_projection(q).word for q in queues.states]
    assert _word_lumping(queues, words, projected) is None
    uniform = build_fm_chain(c, "uniform")
    # it lumps, but onto the rate-one word process: 001/011 (word 321)
    # enters 231 at rate 1 where the word process has x2
    assert _word_lumping(uniform, words, projected) == {
        "check": "lumpability",
        "state": "001/011",
        "into": "231",
        "rate": "1",
        "expected": "x2",
    }
    bent = list(queues.transitions)
    bent[3] = bent[3]._replace(rate=LaurentPoly.variable(0, 2) * LaurentPoly.variable(1, 2))
    assert _word_lumping(replace(queues, transitions=tuple(bent)), words, projected) == {
        "check": "lumpability",
        "state": "001/101",
        "into": "213",
        "rate": "x1*x2",
        "expected": "x1",
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def test_run_suites_all_small():
    reports = run_suites(["all"], max_n=3)
    assert reports  # every suite contributes
    assert all(report.ok for report in reports), [
        (r.suite, r.composition, r.counterexample) for r in reports if not r.ok
    ]
    suites = {report.suite for report in reports}
    assert suites == {
        "fm3",
        "fm3-lemma",
        "fm1",
        "zpart",
        "main",
        "lw",
        "identity",
        "uniform",
        "coupe",
    }
    payload = reports[0].to_dict()
    assert {"suite", "composition", "kind", "status", "elapsed", "details"} <= set(payload)


def test_all_reports_match_the_golden_sweep():
    # the benchmark's golden reports of `verify all --max-N 5`; read, never written
    golden = json.loads((GOLDEN_DIR / "sweep.json").read_text(encoding="utf-8"))["reports"]
    assert golden_form(run_suites(["all"], max_n=5)) == golden


SHARED = ("build_tasep_chain", "project_queues", "project_orbit_representatives", "first_class_walk", "_orbit_chain", "_word_weights")


def _spy_builds(monkeypatch) -> Counter:
    """From now on: the calls of each shared builder, per (name, m)."""
    import mlqtasep.verify as verify

    built = Counter()
    for name in SHARED:
        def spy(c, name=name, original=getattr(verify, name)):
            built[name, c.m] += 1
            return original(c)

        monkeypatch.setattr(verify, name, spy)
    return built


def test_run_suites_builds_what_a_composition_shares_once(monkeypatch):
    import mlqtasep.verify as verify

    built = _spy_builds(monkeypatch)
    reports = run_suites(["all"], 5)
    assert verify._made is None
    assert {name for name, _ in built} == set(SHARED)
    assert max(built.values()) == 1
    # every composition's word chain is built once, by fm3, main or coupe
    assert {m for name, m in built if name == "build_tasep_chain"} == {r.composition for r in reports}


def test_fm3_and_its_lemma_share_one_ring_walk_per_composition(monkeypatch):
    import mlqtasep.core as core

    walk, walks = core._ring_walk, []
    monkeypatch.setattr(core, "_ring_walk", lambda *args: walks.append(args[1]) or walk(*args))
    reports = run_suites(["fm3"], 5)
    compositions = [c for c in iter_compositions(5) if c.n == 3]
    assert len(reports) == 2 * len(compositions)
    assert walks == [mlq_count(c) for c in compositions]


def test_run_suites_drops_what_it_shares_when_a_check_raises(monkeypatch):
    import mlqtasep.verify as verify

    def raises(c):
        assert verify._made is not None
        raise RuntimeError("check failed")

    monkeypatch.setattr(verify, "check_identity_count", raises)
    with pytest.raises(RuntimeError, match="check failed"):
        run_suites(["all"], 3)
    assert verify._made is None


def test_nothing_is_shared_outside_run_suites(monkeypatch):
    # two direct calls, two orbit chains and two first-class walks, one
    # each: nothing outlives a composition
    built = _spy_builds(monkeypatch)
    c = build_composition((1, 1, 2))
    assert check_fm1_theorem(c).ok and check_fm1_theorem(c).ok
    assert built == {("first_class_walk", (1, 1, 2)): 2, ("_orbit_chain", (1, 1, 2)): 2}


def test_verify_all_checks_one_orbit_chain_per_composition(monkeypatch):
    # fm1 and uniform check one chain per m1 = 1, n >= 3 composition: one
    # ring walk of its representatives, one first-class walk and one orbit
    # chain, at fm1's rates; and the reports are the golden ones
    import mlqtasep.verify as verify

    calls = Counter()
    for name in ("orbit_ring_successors", "first_class_walk"):
        def spy(c, name=name, original=getattr(verify, name)):
            calls[name, c.m] += 1
            return original(c)

        monkeypatch.setattr(verify, name, spy)
    ringing = verify.ringing_chain
    monkeypatch.setattr(verify, "ringing_chain", lambda c, rule, *args: calls.update([(rule, c.m)]) or ringing(c, rule, *args))
    reports = run_suites(["all"], 6)
    orbit = [c.m for c in iter_compositions(6) if c.m[0] == 1 and c.n >= 3]
    assert [r.composition for r in reports if r.suite == "uniform" and r.composition in orbit] == orbit
    made = {(name, m): count for (name, m), count in calls.items() if name != "three_species"}
    assert made == {(name, m): 1 for m in orbit for name in ("orbit_ring_successors", "first_class_walk", "one_first_class")}
    golden = (Path(__file__).parent / "golden" / "verify_all_6.jsonl").read_text(encoding="utf-8").splitlines()
    assert [{k: v for k, v in r.to_dict().items() if k != "elapsed"} for r in reports] == list(map(json.loads, golden))


def test_uniform_reads_no_first_class_certificate(monkeypatch):
    # with first_class_walk's certificate failing, fm1 fails on it, and
    # uniform, which reads the same orbit chain, passes as before, in
    # verify all and alone
    import mlqtasep.verify as verify

    expected = golden_form(run_suites(["uniform"], 5))
    original = verify.first_class_walk
    monkeypatch.setattr(verify, "first_class_walk", lambda c: (original(c)[0], False))
    reports = run_suites(["fm1", "uniform"], 5)
    fm1 = [r for r in reports if r.suite == "fm1"]
    assert fm1 and all(r.counterexample == {"check": "projection-rotation"} for r in fm1)
    assert golden_form([r for r in reports if r.suite == "uniform"]) == expected
    c = build_composition((1, 1, 2, 1))
    assert golden_form([check_uniform_stationarity(c)]) == {"uniform:1,1,2,1": expected["uniform:1,1,2,1"]}


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError):
        run_suites(["nonsense"])


def test_run_suites_refuses_a_queue_space_too_large_up_front(monkeypatch):
    import mlqtasep.verify as verify

    monkeypatch.setattr(verify, "check_main_conjecture", None)  # nothing may run
    with pytest.raises(
        ValueError,
        match=r"m = \(1, 1, 1, 1, 1, 2\) has 3781575 multiline queues, above the limit",
    ):
        run_suites(["main"], 7)


def test_run_suites_refuses_while_listing(monkeypatch):
    # --max-N 40 has 2^39 - 1 compositions; (1,1,1,1,1,2), the first one
    # refused, is the 114th, and the listing must stop there
    import mlqtasep.verify as verify

    monkeypatch.setattr(verify, "check_main_conjecture", None)  # nothing may run
    bound_suite_inputs(monkeypatch, "main", 114)
    with pytest.raises(ValueError, match=r"m = \(1, 1, 1, 1, 1, 2\) has 3781575 multiline queues"):
        run_suites(["main"], 40)


def test_run_suites_lists_no_suite_after_a_refusal(monkeypatch):
    # the compositions are listed once for every suite: all --max-N 40
    # refuses (1,1,1,1,1,2) at N = 7, main's 114th input, as --max-N 7
    # does, and no check runs
    import mlqtasep.verify as verify

    with pytest.raises(ValueError) as seven:
        run_suites(["all"], 7)
    for name in vars(verify).copy():
        if name.startswith("check_") and name != "check_queue_count":
            monkeypatch.setattr(verify, name, None)
    bound_suite_inputs(monkeypatch, "main", 114)
    with pytest.raises(ValueError, match=r"m = \(1, 1, 1, 1, 1, 2\) has 3781575 multiline queues") as forty:
        run_suites(["all"], 40)
    assert str(forty.value) == str(seven.value)


def test_run_suites_rejects_empty_run():
    with pytest.raises(ValueError, match="nothing to check"):
        run_suites(["lw"], max_n=2)
