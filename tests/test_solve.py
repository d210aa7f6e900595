import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqtasep import solve
from mlqtasep.chains import (
    ChainGraph,
    TransitionRecord,
    build_coupe_chain,
    build_fm_chain,
    build_tasep_chain,
    ringing_chain,
)
from mlqtasep.core import (
    build_composition,
    bully_projection,
    enumerate_words,
    orbit_ring_successors,
    project_orbit_representatives,
)
from mlqtasep.poly import LaurentPoly
from mlqtasep.solve import (
    ReducibleChainError,
    lump,
    master_residual,
    point_vector,
    residual_at_point,
    stationary_solve,
    voltages_generate,
)
from helpers import (
    bully_partition,
    first_state_quotient,
    normalize_rationals,
    reference_eval,
    three_species_weight,
    transition_matrix,
    unrolled_chain,
)

X1 = LaurentPoly.variable(0, 2)
X2 = LaurentPoly.variable(1, 2)
ONE = LaurentPoly.one(2)

# Stationary weights of the three-particle ring in lex word order.
THREE_PARTICLE_WEIGHTS = [X1 + X2, X1, X1, X1 + X2, X1 + X2, X1]


def test_transition_matrix_three_particles():
    g = build_tasep_chain(build_composition((1, 1, 1)))
    matrix = transition_matrix(g)
    rendered = [[str(entry) for entry in row] for row in matrix]
    assert rendered == [
        ["-x1", "x2", "x1", "0", "0", "0"],
        ["0", "-x1 - x2", "0", "0", "x1", "0"],
        ["0", "0", "-x1 - x2", "x1", "0", "0"],
        ["0", "x1", "0", "-x1", "0", "x2"],
        ["0", "0", "x2", "0", "-x1", "x1"],
        ["x1", "0", "0", "0", "0", "-x1 - x2"],
    ]


def test_residual_zero_for_true_weights():
    g = build_tasep_chain(build_composition((1, 1, 1)))
    residuals = master_residual(g, THREE_PARTICLE_WEIGHTS)
    assert all(r.is_zero() for r in residuals)


def test_residual_nonzero_for_uniform_guess():
    g = build_tasep_chain(build_composition((1, 1, 1)))
    residuals = master_residual(g, [ONE] * 6)
    # state 321 receives x1 from 123 but emits x1 + x2
    assert residuals[5] == -X2
    assert not all(r.is_zero() for r in residuals)


def test_residual_zero_three_species_chain():
    c = build_composition((1, 1, 1))
    g = build_fm_chain(c, "three_species")
    weights = [three_species_weight(bully_projection(q)) for q in g.states]
    assert all(r.is_zero() for r in master_residual(g, weights))


def test_stationary_solve_golden_points():
    g = build_tasep_chain(build_composition((1, 1, 1)))
    assert stationary_solve(g, (2, 1)) == [3, 2, 2, 3, 3, 2]
    # the homogeneous ring is not uniform over words
    assert stationary_solve(g, (1, 1)) == [2, 1, 1, 2, 2, 1]
    solved = stationary_solve(g, (Fraction(5, 2), Fraction(1, 3)))
    expected = [w.eval((Fraction(5, 2), Fraction(1, 3))) for w in THREE_PARTICLE_WEIGHTS]
    assert solved == normalize_rationals(expected)


def test_stationary_solve_uniform_multiline():
    g = build_fm_chain(build_composition((1, 1, 2)), "uniform")
    assert len(g.states) == 24
    assert stationary_solve(g, (1, 1)) == [1] * 24


def test_stationary_solve_detects_disconnected():
    c = build_composition((1, 1))
    two_cycles = ChainGraph(
        kind="custom",
        composition=c,
        states=((0,), (1,), (2,), (3,)),
        transitions=(
            TransitionRecord(0, 1, ONE, "a"),
            TransitionRecord(1, 0, ONE, "a"),
            TransitionRecord(2, 3, ONE, "a"),
            TransitionRecord(3, 2, ONE, "a"),
        ),
        nvars=2,
    )
    with pytest.raises(ReducibleChainError) as err:
        stationary_solve(two_cycles, (1, 1))
    assert err.value.dimension == 2


def test_stationary_solve_names_a_non_positive_vector():
    # one edge 1 -> 2: the nullspace is one dimensional but state 1 is transient
    one_way = ChainGraph(
        kind="custom",
        composition=build_composition((1, 1)),
        states=((1,), (2,)),
        transitions=(TransitionRecord(0, 1, ONE, "a"),),
        nvars=2,
    )
    with pytest.raises(ReducibleChainError, match="not positive: state 1 gets weight 0") as err:
        stationary_solve(one_way, (1, 1))
    assert err.value.dimension == 1
    assert "dimension 1, expected 1" not in str(err.value)


def test_stationary_solve_evaluates_each_distinct_rate_once(monkeypatch):
    # the 110 records of the three-species chain on (1,2,2) share x1 and x2
    g = build_fm_chain(build_composition((1, 2, 2)), "three_species")
    point = (Fraction(2), Fraction(3))
    calls = []
    original = solve.eval_common

    def spy(polys, values):
        calls.append(polys)
        return original(polys, values)

    monkeypatch.setattr(solve, "eval_common", spy)
    solved = stationary_solve(g, point)
    distinct = {id(rec.rate) for rec in g.transitions}
    assert len(calls) == 1 and len(calls[0]) == len(distinct) == 2
    assert {id(rate) for rate in calls[0]} == distinct
    monkeypatch.undo()
    # a fresh rate object per record gives the same vector
    copies = tuple(rec._replace(rate=rec.rate + 0) for rec in g.transitions)
    assert stationary_solve(replace(g, transitions=copies), point) == solved


def test_rate_ids_index_every_record_once_per_chain():
    # the 110 records of the three-species chain on (1,2,2) share x1 and x2:
    # the chain stores one rate id per record, into its two rate objects
    g = build_fm_chain(build_composition((1, 2, 2)), "three_species")
    t = g.transitions
    assert len(t.rates) == 2 and len(t.rate_ids) == len(t) == 110
    assert all(t.rates[i] is rec.rate for i, rec in zip(t.rate_ids, t, strict=True))
    assert g.transitions.rate_ids is t.rate_ids


def test_stationary_solve_refuses_a_rotation_swapped_reducible_chain():
    # rotation maps each chain onto itself and each has one orbit, whose
    # value would certify; the orbits are refused because the chain is not
    # strongly connected, and the nullity of the whole chain is reported
    no_records = ChainGraph(
        kind="custom",
        composition=build_composition((1, 1)),
        states=((1, 2), (2, 1)),
        transitions=(),
        nvars=2,
    )
    two_pairs = ChainGraph(
        kind="custom",
        composition=build_composition((1, 1, 1, 1)),
        states=((1, 2, 3, 4), (4, 1, 2, 3), (3, 4, 1, 2), (2, 3, 4, 1)),
        transitions=tuple(TransitionRecord(i, (i + 2) % 4, ONE, "a") for i in range(4)),
        nvars=2,
    )
    for g in (no_records, two_pairs):
        with pytest.raises(ReducibleChainError, match="dimension 2, expected 1") as err:
            stationary_solve(g, (1, 1))
        assert err.value.dimension == 2


def test_stationary_solve_rotation_invariance():
    # true by construction: the solve gives each rotation orbit one value
    # (test_solve_oracle checks the orbit solve against the dense oracle).
    # (1,1,1,1,2) has 360 words
    for m, point in [((1, 1, 2), (2, 1)), ((1, 1, 1, 1, 2), (2, 1, 3, Fraction(1, 2)))]:
        c = build_composition(m)
        words = enumerate_words(c)
        solution = dict(zip(words, stationary_solve(build_tasep_chain(c), point)))
        for word in words:
            rotated = (word[-1],) + word[:-1]
            assert solution[word] == solution[rotated]


# ---------------------------------------------------------------------------
# Lumping
# ---------------------------------------------------------------------------


def test_three_species_chain_lumps_to_word_process():
    c = build_composition((1, 1, 1))
    g = build_fm_chain(c, "three_species")
    blocks, _ = bully_partition(g)
    assert lump(g, blocks, build_tasep_chain(c)) is None


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 1, 2), (2, 1, 2)])
def test_coupe_chain_lumps_to_word_process(m):
    c = build_composition(m)
    g = build_coupe_chain(c)
    blocks, _ = bully_partition(g)
    assert lump(g, blocks, build_tasep_chain(c)) is None


def test_singleton_partition_always_lumpable():
    g = build_fm_chain(build_composition((1, 1, 1)), "three_species")
    assert lump(g, list(range(len(g.states))), g) is None


def test_non_lumpable_partition_reports_counterexample():
    g = build_tasep_chain(build_composition((1, 1, 1)))
    # lump 123 with 132: 132 enters {231} at rate x1, 123 does not
    partition = [0, 0, 1, 2, 3, 4]
    assert lump(g, partition, first_state_quotient(g, partition)) == {
        "state": "132",
        "into": "231",
        "rate": "x1",
        "expected": "0",
    }
    # the rotation classes {123, 231, 312} and {132, 213, 321} do lump, each
    # word into the other class at rate x1, but not onto rate x2
    rotations = [0, 1, 1, 0, 0, 1]
    quotient = first_state_quotient(g, rotations)
    assert lump(g, rotations, quotient) is None
    x2 = tuple(rec._replace(rate=X2) for rec in quotient.transitions)
    assert lump(g, rotations, replace(quotient, transitions=x2)) == {
        "state": "123",
        "into": "132",
        "rate": "x1",
        "expected": "x2",
    }


def test_lump_refuses_a_malformed_partition():
    g = build_tasep_chain(build_composition((1, 1, 1)))
    with pytest.raises(ValueError, match="partition must cover all states"):
        lump(g, [0, 1, 2, 3, 4], g)
    with pytest.raises(ValueError, match=r"block ids must be 0..5, each one used"):
        lump(g, [0, 1, 2, 3, 4, 6], g)
    with pytest.raises(ValueError, match=r"block ids must be 0..5, each one used"):
        lump(g, [0, 1, 2, 3, 4, 4], g)


def test_lumped_solution_equals_block_sums():
    c = build_composition((1, 1, 2))
    g = build_fm_chain(c, "three_species")
    blocks, words = bully_partition(g)
    word_chain = build_tasep_chain(c)
    assert lump(g, blocks, word_chain) is None
    point = (Fraction(3), Fraction(1, 2))
    fine = stationary_solve(g, point)
    sums = [Fraction(0)] * len(words)
    for state, block in enumerate(blocks):
        sums[block] += fine[state]
    assert normalize_rationals(sums) == stationary_solve(word_chain, point)


@pytest.mark.parametrize("m", [(1, 1, 2), (2, 1, 1), (1, 1, 1, 1), (2, 1, 2)])
def test_truncated_systems_lump_to_rate_one_word_process(m):
    # every top-row truncation yields a smaller system whose rate-one
    # multiline process lumps onto the rate-one word process
    c = build_composition(m)
    for rows in range(1, c.n - 1):
        sub = build_composition(c.m[:rows] + (c.N - c.M[rows - 1],))
        g = build_fm_chain(sub, "uniform")
        blocks, _ = bully_partition(g)
        words = build_tasep_chain(sub)
        one = LaurentPoly.one(words.nvars)
        homogeneous = replace(words, transitions=tuple(rec._replace(rate=one) for rec in words.transitions))
        assert lump(g, blocks, homogeneous) is None
        assert lump(g, blocks, words) is not None


# ---------------------------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------------------------


def test_irreducible_examples():
    assert build_coupe_chain(build_composition((1, 1, 1))).irreducible
    for m in [(1, 1), (1, 1, 1), (1, 2, 1), (1, 1, 1, 1)]:
        assert build_fm_chain(build_composition(m), "uniform").irreducible


def test_isolated_state_not_irreducible():
    c = build_composition((1, 1))
    g = ChainGraph(
        kind="custom",
        composition=c,
        states=((0,), (1,), (2,)),
        transitions=(
            TransitionRecord(0, 1, ONE, "a"),
            TransitionRecord(1, 0, ONE, "a"),
        ),
        nvars=2,
    )
    assert not g.irreducible


@pytest.mark.parametrize(
    "edges",
    [
        # state 0 reaches every state, but no state reaches state 0
        ((0, 1), (1, 2), (2, 1)),
        # every state reaches state 0, but state 0 does not reach state 2
        ((0, 1), (1, 0), (2, 0)),
    ],
)
def test_one_way_reachability_not_irreducible(edges):
    g = ChainGraph(
        kind="custom",
        composition=build_composition((1, 1)),
        states=((0,), (1,), (2,)),
        transitions=tuple(TransitionRecord(src, dst, ONE, "a") for src, dst in edges),
        nvars=2,
    )
    assert not g.irreducible


def _voltage_graph(size, order, arcs):
    """The base chain of arcs (u, w, v) on states 0..size-1 of a ring of
    order columns, each record carrying its voltage v; loops (u = u) are
    dropped, as the chain refuses them."""
    records = [(u, w, v) for u, w, v in arcs if u != w]
    return ChainGraph(
        kind="custom",
        composition=build_composition((1, order - 1)),
        states=tuple((u,) for u in range(size)),
        transitions=tuple(TransitionRecord(u, w, ONE, "a") for u, w, _ in records),
        nvars=2,
        voltages=tuple(v for _, _, v in records),
    )


@st.composite
def voltage_graphs(draw):
    """1-5 states, a ring of 2-6 columns, and arcs with voltages: half the
    time a cycle through every state, so that the base is strongly
    connected with few cycles, then up to 6 arcs more."""
    size, order = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    voltage = st.integers(0, order - 1)
    arcs = [(u, (u + 1) % size, draw(voltage)) for u in range(size)] if draw(st.booleans()) else []
    arc = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1), voltage)
    return size, order, arcs + draw(st.lists(arc, max_size=6))


@settings(max_examples=500, deadline=None)
@given(voltage_graphs())
def test_irreducible_and_generating_voltages_are_the_unrolled_chains_irreducible(case):
    g = _voltage_graph(*case)
    assert (g.irreducible and voltages_generate(g)) == unrolled_chain(g).irreducible


@st.composite
def balanced_voltage_graphs(draw):
    """1-5 states, a ring of 2-6 columns, and up to 4 closed walks with a
    voltage on each arc: every state has as many arcs in as out, so the
    all-ones vector is stationary at rate one."""
    size, order = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    arcs = []
    for walk in draw(st.lists(st.lists(st.integers(0, size - 1), min_size=1, max_size=6), max_size=4)):
        arcs += [(u, w, draw(st.integers(0, order - 1))) for u, w in zip(walk, walk[1:] + walk[:1])]
    return size, order, arcs


@settings(max_examples=500, deadline=None)
@given(balanced_voltage_graphs())
def test_forward_reach_is_strong_connectivity_on_a_balanced_chain(case):
    # a positive stationary vector leaves no state transient, so reaching
    # every state from state 0 is strong connectivity, and with generating
    # voltages the cover's
    g = _voltage_graph(*case)
    outs, ins = Counter(g.transitions.sources), Counter(g.transitions.targets)
    assert outs == ins
    reach = None not in g.potentials
    assert reach == g.irreducible
    assert (reach and voltages_generate(g)) == unrolled_chain(g).irreducible


@pytest.mark.parametrize(
    "size, order, arcs, expected",
    [
        # one orbit of 4 with no record: the cover is four lone states
        (1, 4, [], False),
        # two 2-cycles of net voltages 2 and 4 on a ring of 6, joined by a
        # 3-cycle of net voltage 3: 2 and 3 generate 1 mod 6
        (3, 6, [(0, 1, 1), (1, 0, 1), (1, 2, 2), (2, 1, 2), (2, 0, 0)], True),
        # a 2-cycle of voltages 1 and 2 on a ring of 6: the cover is three 4-cycles
        (2, 6, [(0, 1, 1), (1, 0, 2)], False),
        # a base that is not strongly connected, whatever the voltages
        (2, 3, [(0, 1, 1)], False),
        # a strongly connected base whose net voltages, 2 and 4, miss 1 mod 6
        (2, 6, [(0, 1, 1), (1, 0, 1), (0, 1, 5)], False),
        # the same with a net voltage of 3 more: 2 and 3 generate 1 mod 6
        (2, 6, [(0, 1, 1), (1, 0, 1), (0, 1, 5), (1, 0, 2)], True),
    ],
)
def test_irreducible_and_generating_voltages_controls(size, order, arcs, expected):
    g = _voltage_graph(size, order, arcs)
    assert (g.irreducible and voltages_generate(g)) is expected
    assert unrolled_chain(g).irreducible is expected


def test_voltages_generate_walks_forward_and_a_later_solve_once_backward(monkeypatch):
    # voltages_generate reads the potentials of the forward walk alone; the
    # solve's g.irreducible reuses them and adds the backward walk, and a
    # second solve reads g.irreducible as computed
    c = build_composition((1, 1, 2, 1))
    walk, _ = orbit_ring_successors(c)
    g = ringing_chain(c, "one_first_class", walk, project_orbit_representatives(c)[0])
    honest, walks = ChainGraph._walk, []
    monkeypatch.setattr(ChainGraph, "_walk", lambda g, head, tail: walks.append((head, tail)) or honest(g, head, tail))
    assert voltages_generate(g)
    assert walks == [(0, 1)]
    for x1 in (2, 3):
        stationary_solve(g, (Fraction(x1), Fraction(1), Fraction(1)))
        assert walks == [(0, 1), (1, 0)]


@pytest.mark.parametrize("N", range(2, 7))
def test_a_quotient_with_no_voltages_has_no_generating_voltages(N):
    # with no turned record every record lifts to N copies of itself, so
    # the cover of a strongly connected quotient is N disjoint copies of it
    g = ChainGraph(
        kind="custom",
        composition=build_composition((1, N - 1)),
        states=((0,), (1,)),
        transitions=(TransitionRecord(0, 1, ONE, "a"), TransitionRecord(1, 0, ONE, "a")),
        nvars=2,
    )
    assert g.voltages == () and g.irreducible
    assert not voltages_generate(g)
    assert not unrolled_chain(g).irreducible


# ---------------------------------------------------------------------------
# Consistency triangle: zero residual + irreducibility = solver agreement
# ---------------------------------------------------------------------------


def test_consistency_triangle():
    c = build_composition((1, 2, 1))
    g = build_fm_chain(c, "three_species")
    weights = [three_species_weight(bully_projection(q)) for q in g.states]
    assert all(r.is_zero() for r in master_residual(g, weights))
    assert g.irreducible
    rng = random.Random(424242)
    for _ in range(5):
        point = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(2)]
        values = [w.eval(point) for w in weights]
        rates = [rec.rate.eval(point) for rec in g.transitions]
        assert all(r == 0 for r in residual_at_point(g, values, rates))
        assert stationary_solve(g, point) == normalize_rationals(values)


def test_point_vector_scales_the_oracle_values():
    # positive weights with negative exponents and differing ranges
    weights = [
        *THREE_PARTICLE_WEIGHTS,
        LaurentPoly.monomial(3, (-2, 1)) + X1,
        LaurentPoly(2, {(0, -3): 5, (4, 0): 1}),
    ]
    rng = random.Random(15)
    for _ in range(20):
        point = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
        values = [reference_eval(w, point) for w in weights]
        assert point_vector(weights, point) == normalize_rationals(values)


def test_residual_at_point_stays_integer_on_integer_input():
    g = build_tasep_chain(build_composition((1, 1, 1)))
    rates = [int(rec.rate.eval((2, 1))) for rec in g.transitions]
    residuals = residual_at_point(g, stationary_solve(g, (2, 1)), rates)
    assert residuals == [0] * 6 and all(type(r) is int for r in residuals)
    off = residual_at_point(g, [1] * 6, rates)
    assert any(off) and all(type(r) is int for r in off)
