import random
from fractions import Fraction

import pytest

from mlqtasep.chains import (
    ChainGraph,
    TransitionRecord,
    bully_partition,
    build_coupe_chain,
    build_fm_chain,
    build_tasep_chain,
)
from mlqtasep.core import (
    build_composition,
    bully_projection,
    enumerate_words,
    three_species_weight,
)
from mlqtasep.poly import LaurentPoly
from mlqtasep.solve import (
    ReducibleChainError,
    check_lumpability,
    irreducible,
    lump,
    master_residual,
    normalize_rationals,
    residual_at_point,
    same_rate_graph,
    stationary_solve,
    transition_matrix,
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


def test_stationary_solve_rotation_invariance():
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
    blocks, words = bully_partition(g)
    ok, counterexample = check_lumpability(g, blocks)
    assert ok, counterexample
    lumped = lump(g, blocks, block_states=words)
    assert same_rate_graph(lumped, build_tasep_chain(c))


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 1, 2), (2, 1, 2)])
def test_coupe_chain_lumps_to_word_process(m):
    c = build_composition(m)
    g = build_coupe_chain(c)
    blocks, words = bully_partition(g)
    ok, counterexample = check_lumpability(g, blocks)
    assert ok, counterexample
    assert same_rate_graph(lump(g, blocks, block_states=words), build_tasep_chain(c))


def test_singleton_partition_always_lumpable():
    g = build_fm_chain(build_composition((1, 1, 1)), "three_species")
    partition = list(range(len(g.states)))
    ok, _ = check_lumpability(g, partition)
    assert ok
    assert lump(g, partition, block_states=g.states).rate_map() == g.rate_map()


def test_non_lumpable_partition_reports_counterexample():
    g = build_tasep_chain(build_composition((1, 1, 1)))
    # lump 123 with 132: their rates into {321} differ (x1 vs 0)
    partition = [0, 0, 1, 2, 3, 4]
    ok, counterexample = check_lumpability(g, partition)
    assert not ok
    assert counterexample["block"] == 0
    with pytest.raises(ValueError):
        lump(g, partition)


def test_lumped_solution_equals_block_sums():
    c = build_composition((1, 1, 2))
    g = build_fm_chain(c, "three_species")
    blocks, words = bully_partition(g)
    lumped = lump(g, blocks, block_states=words)
    point = (Fraction(3), Fraction(1, 2))
    fine = stationary_solve(g, point)
    coarse = stationary_solve(lumped, point)
    sums = [Fraction(0)] * len(words)
    for state, block in enumerate(blocks):
        sums[block] += fine[state]
    assert normalize_rationals(sums) == coarse


@pytest.mark.parametrize("m", [(1, 1, 2), (2, 1, 1), (1, 1, 1, 1), (2, 1, 2)])
def test_truncated_systems_lump_to_rate_one_word_process(m):
    # every top-row truncation yields a smaller system whose rate-one
    # multiline process lumps onto the rate-one word process
    c = build_composition(m)
    for rows in range(1, c.n - 1):
        sub = build_composition(c.m[:rows] + (c.N - c.M[rows - 1],))
        g = build_fm_chain(sub, "uniform")
        blocks, words = bully_partition(g)
        ok, counterexample = check_lumpability(g, blocks)
        assert ok, counterexample
        lumped = lump(g, blocks, block_states=words)
        homogeneous = build_tasep_chain(sub)
        one = LaurentPoly.one(homogeneous.nvars)
        expected = {
            (rec.src, rec.dst): one for rec in homogeneous.transitions
        }
        assert lumped.states == homogeneous.states
        assert lumped.rate_map() == expected


# ---------------------------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------------------------


def test_irreducible_examples():
    assert irreducible(build_coupe_chain(build_composition((1, 1, 1))))
    for m in [(1, 1), (1, 1, 1), (1, 2, 1), (1, 1, 1, 1)]:
        assert irreducible(build_fm_chain(build_composition(m), "uniform"))


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
    assert not irreducible(g)


# ---------------------------------------------------------------------------
# Consistency triangle: zero residual + irreducibility = solver agreement
# ---------------------------------------------------------------------------


def test_consistency_triangle():
    c = build_composition((1, 2, 1))
    g = build_fm_chain(c, "three_species")
    weights = [three_species_weight(bully_projection(q)) for q in g.states]
    assert all(r.is_zero() for r in master_residual(g, weights))
    assert irreducible(g)
    rng = random.Random(424242)
    for _ in range(5):
        point = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(2)]
        values = [w.eval(point) for w in weights]
        assert all(r == 0 for r in residual_at_point(g, values, point))
        assert stationary_solve(g, point) == normalize_rationals(values)
