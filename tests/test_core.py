import random
from math import comb

import pytest

from mlqtasep.chains import build_fm_chain
from mlqtasep.core import (
    build_composition,
    bully_projection,
    composition_of_queue,
    conjectured_weight,
    enumerate_mlqs,
    enumerate_words,
    multinomial,
    parse_queue,
    parse_word,
    queue_to_text,
    ringing_path,
    ringing_transition,
    single_first_class_weight,
    three_species_weight,
    word_to_text,
)
from mlqtasep.poly import LaurentPoly

# A five-species queue on eight sites whose projection and ringing behaviour
# are known in full detail; reused across several tests.
WIDE_QUEUE = parse_queue("00000010\n00100010\n00110101\n10110111")
WIDE_QUEUE_AFTER_RING_AT_5 = parse_queue("00000100\n00100010\n00111001\n10110111")

# A one-particle-per-class queue on six sites with a fully worked projection.
PERMUTATION_QUEUE = parse_queue("001000\n011000\n100011\n110101\n111110")


def test_build_composition_small():
    c = build_composition((1, 1, 1))
    assert (c.N, c.M, c.v, c.V) == (3, (1, 2, 3), (2, 1), (1, 0))


def test_build_composition_five_species():
    c = build_composition((1, 1, 2, 2, 2))
    assert c.N == 8
    assert c.M == (1, 2, 4, 6, 8)
    assert c.v == (7, 6, 4, 2)
    assert c.V == (12, 6, 2, 0)


def test_build_composition_invariants():
    c = build_composition((2, 3, 1, 4))
    assert c.M[-1] == c.N
    assert all(a < b for a, b in zip(c.M, c.M[1:]))
    assert c.V[-1] == 0
    assert all(c.V[r] == c.V[r + 1] + c.v[r + 1] for r in range(len(c.V) - 1))


def test_build_composition_rejects_bad_input():
    with pytest.raises(ValueError, match="m_2 must be positive"):
        build_composition((1, 0, 2))
    with pytest.raises(ValueError, match="m_3"):
        build_composition((1, 1, -2))
    with pytest.raises(ValueError):
        build_composition((5,))


def test_enumerate_words_order_and_count():
    c = build_composition((1, 1, 1))
    words = enumerate_words(c)
    assert len(words) == 6
    assert words[0] == (1, 2, 3)
    assert words[-1] == (3, 2, 1)
    assert words == sorted(words)

    c2 = build_composition((2, 1))
    assert enumerate_words(c2) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


@pytest.mark.parametrize("m", [(1, 1, 2), (2, 2), (1, 2, 3), (1, 1, 1, 1)])
def test_enumerate_words_multinomial_count(m):
    c = build_composition(m)
    words = enumerate_words(c)
    assert len(words) == multinomial(c)
    assert len(set(words)) == len(words)


def test_enumerate_mlqs_counts():
    assert len(enumerate_mlqs(build_composition((1, 1, 1)))) == 9
    assert len(enumerate_mlqs(build_composition((1, 1)))) == 2
    c = build_composition((1, 1, 2, 2))
    queues = enumerate_mlqs(c)
    expected = comb(6, 1) * comb(6, 2) * comb(6, 4)
    assert expected == 1350
    assert len(queues) == expected
    assert len(set(queues)) == expected
    # canonical order: row-major, smallest bit pattern first
    assert queues[0][0] == (0, 0, 0, 0, 0, 1)
    assert queues == sorted(queues)


def test_row_sums_enforced():
    c = build_composition((1, 2))
    for q in enumerate_mlqs(c):
        assert sum(q[0]) == 1
    assert composition_of_queue(WIDE_QUEUE).m == (1, 1, 2, 2, 2)


def test_bad_queue_rows_are_named():
    with pytest.raises(ValueError, match="row 2 holds 1 particles and row 1 holds 3"):
        parse_queue("111\n010")
    with pytest.raises(ValueError, match="row 3 holds 2 particles and row 2 holds 2"):
        parse_queue("1000\n1100\n1100")
    with pytest.raises(ValueError, match="row 2 is full; the bottom row must keep a vacancy"):
        parse_queue("100\n111")
    with pytest.raises(ValueError, match="row 1 is empty"):
        parse_queue("000\n011")


# ---------------------------------------------------------------------------
# Ringing paths and transitions
# ---------------------------------------------------------------------------


def test_ringing_path_wide_queue():
    # clock at site 5 (1-based): path runs 5 -> 6 -> 6 -> 7 bottom-up
    path = ringing_path(WIDE_QUEUE, 4)
    assert path.display() == (7, 6, 6, 5)


def test_ringing_path_wide_queue_site_4():
    # the definition forces (5,4,4,4): rows 4 and 3 are occupied at column 4
    # so the path climbs straight, then steps right over the row-2 vacancy
    path = ringing_path(WIDE_QUEUE, 3)
    assert path.display() == (5, 4, 4, 4)


def test_ringing_path_fully_occupied_column():
    q = parse_queue("0100\n0110\n0111")
    assert ringing_path(q, 1).display() == (2, 2, 2)


def test_ringing_transition_wide_queue():
    assert ringing_transition(WIDE_QUEUE, 4) == WIDE_QUEUE_AFTER_RING_AT_5
    # site 4 causes no transition
    assert ringing_transition(WIDE_QUEUE, 3) == WIDE_QUEUE


def test_ringing_transition_single_row():
    q = ((0, 1),)
    assert ringing_transition(q, 1) == ((1, 0),)
    assert ringing_transition(((1, 0),), 1) == ((1, 0),)


def test_row_sums_conserved_under_all_transitions():
    c = build_composition((1, 2, 1))
    for q in enumerate_mlqs(c):
        for i in range(c.N):
            succ = ringing_transition(q, i)
            assert [sum(row) for row in succ] == [sum(row) for row in q]


# ---------------------------------------------------------------------------
# Inverse transitions
# ---------------------------------------------------------------------------


def _forward_edges(c):
    edges = {}
    for q in enumerate_mlqs(c):
        for i in range(c.N):
            succ = ringing_transition(q, i)
            if succ != q:
                edges.setdefault(succ, set()).add((q, i))
    return edges


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1, 1)])
def test_inverse_matches_exhaustive_forward_sweep(m):
    # the chain's in-records are exactly the nontrivial rings into each queue
    c = build_composition(m)
    truth = _forward_edges(c)
    chain = build_fm_chain(c)
    for q, incoming in zip(chain.states, chain.in_records()):
        preds = [
            (chain.states[rec.src], int(rec.mechanism[len("ringing(") : -1]) - 1)
            for rec in incoming
        ]
        assert len(preds) == len(set(preds))
        assert set(preds) == truth.get(q, set())


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 1, 2), (2, 1, 1)])
def test_degree_balance(m):
    c = build_composition(m)
    chain = build_fm_chain(c)
    for q, incoming in zip(chain.states, chain.in_records()):
        successors = sum(
            1 for i in range(c.N) if ringing_transition(q, i) != q
        )
        assert len(incoming) == successors


# ---------------------------------------------------------------------------
# Bully-path projection
# ---------------------------------------------------------------------------


def test_projection_wide_queue():
    lab = bully_projection(WIDE_QUEUE)
    assert lab.word == (4, 5, 2, 3, 5, 3, 4, 1)


def test_projection_permutation_queue():
    lab = bully_projection(PERMUTATION_QUEUE)
    assert lab.word == (1, 2, 3, 4, 5, 6)
    assert lab.z == {(3, 1): 2, (4, 1): 1, (5, 1): 1, (3, 2): 1}
    assert lab.z1() == 4


def test_projection_single_row():
    lab = bully_projection(((1, 0, 1),))
    assert lab.word == (1, 2, 1)
    assert lab.z == {}


def test_z_stats_summary():
    lab = bully_projection(PERMUTATION_QUEUE)
    assert lab.z == {(3, 1): 2, (4, 1): 1, (5, 1): 1, (3, 2): 1}
    assert lab.z1() == 4
    with pytest.raises(ValueError, match="three species"):
        lab.covered_three_count()  # six species
    assert bully_projection(parse_queue("100\n011")).covered_three_count() == 1
    # paths that never queue over a vacancy leave the matrix empty
    empty = bully_projection(parse_queue("001\n011"))
    assert empty.z == {} and empty.z1() == 0 and empty.covered_three_count() == 0


def test_projection_class_counts_per_row():
    c = build_composition((1, 2, 1, 2))
    for q in enumerate_mlqs(c)[::7]:
        lab = bully_projection(q)
        for grid_row in range(c.n - 1):
            for cls in range(1, grid_row + 2):
                count = sum(1 for x in lab.classes[grid_row] if x == cls)
                assert count == c.m[cls - 1]
        for cls in range(1, c.n + 1):
            assert lab.word.count(cls) == c.m[cls - 1]


def test_z_bounded_by_vacancies():
    c = build_composition((1, 1, 1, 1))
    for q in enumerate_mlqs(c):
        lab = bully_projection(q)
        for row in range(2, c.n):
            total = sum(cnt for (r, _i), cnt in lab.z.items() if r == row)
            assert total <= c.v[row - 1]


def _shuffled_order(seed):
    rng = random.Random(seed)

    def order_fn(row, cls, cols):
        cols = list(cols)
        rng.shuffle(cols)
        return cols

    return order_fn


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 2, 2), (2, 1, 1, 2), (1, 1, 1, 1)])
def test_projection_order_independence(m):
    c = build_composition(m)
    queues = enumerate_mlqs(c)
    rng = random.Random(hash(m) & 0xFFFF)
    sample = [queues[rng.randrange(len(queues))] for _ in range(12)]
    for q in sample:
        reference = bully_projection(q)
        for seed in range(20):
            shuffled = bully_projection(q, order_fn=_shuffled_order(seed))
            assert shuffled.classes == reference.classes
            assert shuffled.cover == reference.cover
            assert shuffled.word == reference.word
            assert shuffled.z == reference.z


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 2, 1), (1, 1, 1, 1)])
def test_projection_commutes_with_ringing(m):
    c = build_composition(m)
    for q in enumerate_mlqs(c):
        word = bully_projection(q).word
        for i in range(c.N):
            succ = ringing_transition(q, i)
            new_word = bully_projection(succ).word
            a, b = word[(i - 1) % c.N], word[i]
            if a > b:
                expected = list(word)
                expected[(i - 1) % c.N], expected[i] = b, a
                assert new_word == tuple(expected)
            else:
                assert new_word == word


@pytest.mark.parametrize("m", [(1, 1, 2), (1, 1, 1, 1), (2, 1, 1, 1)])
def test_truncated_projection_consistency(m):
    c = build_composition(m)
    for q in enumerate_mlqs(c)[::5]:
        full = bully_projection(q)
        for rows in range(1, c.n - 1):
            sub = q[:rows]
            sub_c = composition_of_queue(sub)
            assert sub_c.m == c.m[:rows] + (c.N - c.M[rows - 1],)
            sub_lab = bully_projection(sub)
            # the top rows classify identically in the truncated queue
            assert sub_lab.classes == full.classes[:rows]
            for cls in range(1, rows + 2):
                assert sub_lab.word.count(cls) == sub_c.m[cls - 1]


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def test_conjectured_weight_permutation_queue():
    lab = bully_projection(PERMUTATION_QUEUE)
    assert conjectured_weight(lab) == LaurentPoly.monomial(1, (6, 5, 6, 2, 1))


def test_conjectured_weight_reverse_word_queue():
    # the unique queue projecting to 321 carries weight x1
    lab = bully_projection(parse_queue("001\n011"))
    assert lab.word == (3, 2, 1)
    assert conjectured_weight(lab) == LaurentPoly.monomial(1, (1, 0))
    assert three_species_weight(lab) == LaurentPoly.monomial(1, (1, 0))


def test_covered_three_and_weight():
    # top particle sits one left of the bottom pair: its path covers the 3
    lab = bully_projection(parse_queue("100\n011"))
    assert lab.word == (3, 1, 2)
    assert lab.covered_three_count() == 1
    assert three_species_weight(lab) == LaurentPoly.monomial(1, (0, 1))  # x2


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 3), (2, 2, 2)])
def test_conjectured_equals_three_species_weight(m):
    c = build_composition(m)
    for q in enumerate_mlqs(c):
        lab = bully_projection(q)
        assert conjectured_weight(lab) == three_species_weight(lab)


def test_conjectured_weight_exponents_nonnegative():
    for m in [(1, 1, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1)]:
        c = build_composition(m)
        for q in enumerate_mlqs(c):
            w = conjectured_weight(bully_projection(q))
            assert w.is_positive()


def test_single_first_class_weight_matches_three_species():
    # with x2 frozen to 1 the two closed forms agree state by state
    c = build_composition((1, 1, 1))
    for q in enumerate_mlqs(c):
        lab = bully_projection(q)
        w1 = single_first_class_weight(lab)
        k = lab.covered_three_count()
        assert w1 == LaurentPoly.monomial(1, (c.m[2] - k, 0))


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def test_queue_text_round_trip():
    assert parse_queue(queue_to_text(WIDE_QUEUE)) == WIDE_QUEUE
    assert parse_queue("10") == ((1, 0),)
    with pytest.raises(ValueError):
        parse_queue("0012\n0011")
    with pytest.raises(ValueError):
        parse_queue("11\n10")  # row sums must strictly increase


def test_word_text_round_trip():
    word = (4, 5, 2, 3, 5, 3, 4, 1)
    assert parse_word(word_to_text(word)) == word
    with pytest.raises(ValueError):
        parse_word("")
