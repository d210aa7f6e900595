import itertools
import random
from collections import Counter
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqtasep.chains import build_fm_chain
from mlqtasep.core import (
    build_composition,
    bully_projection,
    composition_of_queue,
    enumerate_mlqs,
    enumerate_words,
    first_class_walk,
    mlq_count,
    orbit_representatives,
    orbit_ring_successors,
    project_orbit_representatives,
    project_queues,
    project_rows,
    parse_queue,
    parse_word,
    queue_label,
    ring_successors,
    ringing_transition,
    rotate,
    word_count,
    word_to_text,
)
from mlqtasep.poly import LaurentPoly
from mlqtasep.verify import iter_compositions
from helpers import (
    compositions_up_to_six,
    conjectured_exponents,
    flat_walk,
    records_by_state,
    reference_project_row,
    reference_projection,
    reference_ring_walk,
    reference_ringing,
    ringing_path,
    single_first_class_weight,
    three_species_weight,
    turn_to_representative,
)

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
    assert len(words) == factorial(c.N) // prod(factorial(part) for part in c.m) == word_count(c)
    assert len(set(words)) == len(words)


def test_enumerate_words_is_the_sorted_set_of_permutations():
    for c in iter_compositions(7):
        word = tuple(cls for cls, part in enumerate(c.m, start=1) for _ in range(part))
        assert enumerate_words(c) == sorted(set(itertools.permutations(word))), c.m


def test_enumerate_words_refuses_a_word_space_too_large_up_front(monkeypatch):
    import mlqtasep.core as core

    # with the limit lowered to 23, the 24 words of (1,1,1,1) are refused
    # before the first one is built, and the 12 of (1,1,2) still enumerate
    monkeypatch.setattr(core, "MAX_QUEUES", 23)
    with pytest.raises(
        ValueError, match=r"m = \(1, 1, 1, 1\) has 24 words, above the limit of 23"
    ):
        enumerate_words(build_composition((1, 1, 1, 1)))
    assert len(enumerate_words(build_composition((1, 1, 2)))) == 12


def test_enumerate_mlqs_counts():
    assert len(enumerate_mlqs(build_composition((1, 1, 1)))) == 9
    assert len(enumerate_mlqs(build_composition((1, 1)))) == 2
    c = build_composition((1, 1, 2, 2))
    queues = enumerate_mlqs(c)
    expected = comb(6, 1) * comb(6, 2) * comb(6, 4)
    assert expected == 1350 == mlq_count(c)
    assert len(queues) == expected
    assert len(set(queues)) == expected
    # canonical order: row-major, smallest bit pattern first
    assert queues[0][0] == (0, 0, 0, 0, 0, 1)
    assert queues == sorted(queues)


def test_queue_space_limit():
    # (1^7) is refused before a queue is built; (1^6), the largest space in
    # use, still enumerates
    seven = build_composition((1,) * 7)
    assert mlq_count(seven) == 26471025
    with pytest.raises(
        ValueError,
        match=r"m = \(1, 1, 1, 1, 1, 1, 1\) has 26471025 multiline queues, "
        r"above the limit of 1000000",
    ):
        enumerate_mlqs(seven)
    six = build_composition((1,) * 6)
    assert len(enumerate_mlqs(six)) == mlq_count(six) == 162000


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


# ringing_path is the two-pass oracle's path, in tests/helpers.py
def test_ringing_path_wide_queue():
    # clock at site 5 (1-based): path runs 5 -> 6 -> 6 -> 7 bottom-up; the
    # columns come 0-based, top row first
    assert ringing_path(WIDE_QUEUE, 4) == (6, 5, 5, 4)


def test_ringing_path_wide_queue_site_4():
    # the definition forces sites (5,4,4,4): rows 4 and 3 are occupied at site 4
    # so the path climbs straight, then steps right over the row-2 vacancy
    assert ringing_path(WIDE_QUEUE, 3) == (4, 3, 3, 3)


def test_ringing_path_fully_occupied_column():
    q = parse_queue("0100\n0110\n0111")
    assert ringing_path(q, 1) == (1, 1, 1)


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
    for q, incoming in zip(chain.states, records_by_state(chain, "dst")):
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
    for q, incoming in zip(chain.states, records_by_state(chain, "dst")):
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
        reference = reference_projection(q)
        assert bully_projection(q) == reference
        for seed in range(20):
            shuffled = reference_projection(q, order_fn=_shuffled_order(seed))
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


@st.composite
def queues_up_to_six(draw):
    """A composition with N <= 6 and at least two species, and a multiline
    queue of it with uniformly drawn row patterns."""
    c = draw(compositions_up_to_six())
    rows = [draw(st.permutations(range(c.N)))[:k] for k in c.M[:-1]]
    return c, tuple(tuple(1 if col in ones else 0 for col in range(c.N)) for ones in rows)


def _rotate(cells, k):
    """Move every column k steps right around the ring."""
    return cells[-k:] + cells[:-k]


@settings(max_examples=150, deadline=None)
@given(queues_up_to_six(), st.integers(0, 5), st.integers(0, 5))
def test_rotation_commutes_with_projection_and_ringing(case, k, i):
    c, q = case
    k, i = k % c.N, i % c.N
    rotated = tuple(_rotate(row, k) for row in q)
    assert bully_projection(rotated).word == _rotate(bully_projection(q).word, k)
    assert ringing_transition(rotated, (i + k) % c.N) == tuple(
        _rotate(row, k) for row in ringing_transition(q, i)
    )


def test_ringing_transition_matches_the_two_pass_oracle_on_the_wide_queue():
    for i in range(-8, 16):
        assert ringing_transition(WIDE_QUEUE, i) == reference_ringing(WIDE_QUEUE, i)


@settings(max_examples=150, deadline=None)
@given(queues_up_to_six())
def test_ringing_transition_matches_the_two_pass_oracle(case):
    c, q = case
    for i in range(c.N):
        assert ringing_transition(q, i) == reference_ringing(q, i)


def _mixed_radix_queue(c, sid):
    """The queue of c whose row ranks, top row most significant, spell sid;
    each row ranks its 0/1 patterns in ascending order."""
    rows = []
    for M in reversed(c.M[:-1]):
        patterns = sorted(p for p in itertools.product((0, 1), repeat=c.N) if sum(p) == M)
        sid, rank = divmod(sid, len(patterns))
        rows.append(patterns[rank])
    assert sid == 0
    return tuple(reversed(rows))


def _assert_ring_successors_match_the_oracle(c, sids):
    # queue sid's N successor ids sit at sid * N .. sid * N + N - 1 of the column
    states = enumerate_mlqs(c)
    column = ring_successors(c)
    assert len(column) == c.N * len(states)
    for sid in sids:
        q = states[sid]
        assert q == _mixed_radix_queue(c, sid)
        for i, dst in enumerate(column[sid * c.N : (sid + 1) * c.N]):
            ringed = reference_ringing(q, i)
            assert states[dst] == ringed
            assert (dst == sid) == (ringed == q)


@pytest.mark.parametrize("m", [c.m for c in iter_compositions(5)], ids=str)
def test_ring_successors_match_the_oracle(m):
    # every queue and column of every composition with N <= 5
    c = build_composition(m)
    assert len(ring_successors(c)) == c.N * mlq_count(c)
    _assert_ring_successors_match_the_oracle(c, range(mlq_count(c)))


@settings(max_examples=40, deadline=None)
@given(compositions_up_to_six(), st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
def test_ring_successors_match_the_oracle_on_drawn_queues(c, draws):
    _assert_ring_successors_match_the_oracle(c, sorted({d % mlq_count(c) for d in draws}))


@pytest.mark.parametrize(
    "m", [c.m for c in iter_compositions(6) if c.m[0] == 1 and c.n <= 4], ids=str
)
def test_orbit_ring_successors_turn_the_full_successors(m):
    # the representatives are the first mlq_count / N ids, so their rings
    # are the first B * N of the full column, and each ring's id is its
    # full successor's when that stays in block 0, else B + w for the
    # successor turned one column right, w
    c = build_composition(m)
    states = enumerate_mlqs(c)
    index = {q: i for i, q in enumerate(states)}
    B = mlq_count(c) // c.N
    assert all(q[0][-1] for q in states[:B]) and not any(q[0][-1] for q in states[B:])
    column, commutes = orbit_ring_successors(c)
    assert commutes
    for w, dst in zip(column, ring_successors(c)[: B * c.N], strict=True):
        assert w == (dst if dst < B else B + index[rotate(states[dst])])
        assert states[w % B] == turn_to_representative(states[dst])


@pytest.mark.parametrize("m", [c.m for c in iter_compositions(6)], ids=str)
def test_ring_walks_equal_the_walk_that_climbs_every_ring(monkeypatch, m):
    # every queue and column of every composition with N <= 6, (1^6)'s
    # 162,000 queues too, and for m_1 = 1 the orbit walk with its
    # ring-rotation certificate: the flat column against the walk that
    # climbs each ring through all upper rows, flattened
    import mlqtasep.core as core

    c = build_composition(m)
    rows, count = core._ring_rows(c)
    ids = list(range(count))
    pairs = [(ring_successors(c), flat_walk(reference_ring_walk(rows, ids, ids)))]
    if c.m[0] == 1:
        column, commutes = orbit_ring_successors(c)
        with monkeypatch.context() as patched:
            patched.setattr(core, "_ring_walk", lambda rows, count, ids: flat_walk(reference_ring_walk(rows, range(count), ids)))
            reference, reference_commutes = orbit_ring_successors(c)
        assert commutes == reference_commutes
        pairs.append((column, reference))
    for walked, expected in pairs:
        assert next((k for k, (a, b) in enumerate(zip(walked, expected, strict=True)) if a != b), None) is None


def test_row_patterns_are_the_sorted_rows_of_k_ones():
    import mlqtasep.core as core

    for N in range(1, 8):
        rows = list(itertools.product((0, 1), repeat=N))
        for k in range(N + 1):
            assert core._row_patterns(N, k) == sorted(row for row in rows if sum(row) == k), (N, k)


def test_orbit_walks_turn_no_loop_for_three_classes_or_more():
    # a turned loop, B + sid at sid, would need one ring to turn every row;
    # a ring moves at most one particle of a row, so it turns only rows of
    # one particle, and for n >= 3 the second row holds M_2 >= 2 of them
    for c in [c for c in iter_compositions(6) if c.m[0] == 1 and c.n >= 3]:
        B = mlq_count(c) // c.N
        column, _ = orbit_ring_successors(c)
        assert all(B + sid not in column[sid * c.N : (sid + 1) * c.N] for sid in range(B)), c.m
    # with two classes a ring can: column 2 of (1,1) rings its one queue
    # onto its own turn, B + 0 = 1, and column 1 is a plain loop
    column, _ = orbit_ring_successors(build_composition((1, 1)))
    assert column == [0, 1]


def test_orbit_certificate_turns_each_row_pattern_once(monkeypatch):
    # one turn per pattern of each row serves the ring-rotation certificate
    # and block 1's turned ids: (1,1,3,1) has 6 + 15 + 6 row patterns
    import mlqtasep.core as core

    calls = []
    original = core.rotate

    def spy(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(core, "rotate", spy)
    _, commutes = orbit_ring_successors(build_composition((1, 1, 3, 1)))
    assert commutes
    assert len(calls) == len(set(calls)) == 27


def test_orbit_representatives_need_one_first_class_particle():
    c = build_composition((2, 1, 1))
    with pytest.raises(ValueError, match="m_1 = 1"):
        orbit_ring_successors(c)
    with pytest.raises(ValueError, match="m_1 = 1"):
        project_orbit_representatives(c)
    with pytest.raises(ValueError, match="m_1 = 1"):
        first_class_walk(c)
    with pytest.raises(ValueError, match="m_1 = 1"):
        orbit_representatives(c)


@pytest.mark.parametrize("m", [(1, 1), (1, 1, 1), (1, 2, 1), (1, 1, 2, 1), (1, 1, 1, 1, 1)], ids=str)
def test_orbit_representatives_are_the_first_queues_of_the_enumeration(m):
    # the mlq_count / N queues whose top-row particle sits in the last
    # column, in enumerate_mlqs order, as the orbit projection has them
    c = build_composition(m)
    B = mlq_count(c) // c.N
    representatives = orbit_representatives(c)
    assert representatives == enumerate_mlqs(c)[:B]
    assert all(q[0][-1] for q in representatives)
    if c.n >= 3:
        assert tuple(representatives) == project_orbit_representatives(c)[0].queues


@pytest.mark.parametrize(
    "caller",
    ["enumerate_mlqs", "orbit_representatives", "_ring_rows", "project_queues", "project_orbit_representatives",
     "first_class_walk"],
)
def test_row_listing_refuses_before_listing_a_row(monkeypatch, caller):
    import mlqtasep.core as core

    # every space-building caller lists its rows through _rows, which
    # refuses the 250 queues of (1,1,2,1) before any row pattern is listed
    monkeypatch.setattr(core, "MAX_QUEUES", 249)
    monkeypatch.setattr(core, "_row_patterns", None)
    with pytest.raises(ValueError, match=r"m = \(1, 1, 2, 1\) has 250 multiline queues"):
        getattr(core, caller)(build_composition((1, 1, 2, 1)))


def test_orbit_representatives_refuse_a_queue_space_too_large(monkeypatch):
    import mlqtasep.core as core

    monkeypatch.setattr(core, "MAX_QUEUES", 249)
    with pytest.raises(ValueError, match="250 multiline queues"):
        orbit_representatives(build_composition((1, 1, 2, 1)))


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 2, 1), (1, 1, 2, 1), (1, 2, 1, 1), (1, 1, 1, 1, 1)], ids=str)
def test_orbit_projection_is_the_full_projection_on_block_zero(m):
    c = build_composition(m)
    B = mlq_count(c) // c.N
    full = project_queues(c)
    projection, equivariant = project_orbit_representatives(c)
    assert equivariant
    assert projection.queues == full.queues[:B]
    for field in ("words", "exponents", "covered"):
        assert getattr(projection, field) == getattr(full, field)[:B]


@pytest.mark.parametrize("m", [c.m for c in iter_compositions(6) if c.m[0] == 1 and c.n >= 3], ids=str)
def test_first_class_walk_is_the_projection_of_the_representatives(m):
    # per representative, in order, the column of the bottom-row 1 and the
    # first conjectured exponent V1 - z1, on all 26 compositions with N <= 6
    c = build_composition(m)
    projection, equivariant = project_orbit_representatives(c)
    walked, commutes = first_class_walk(c)
    assert commutes and equivariant
    assert walked == [(word.index(1), exps[0]) for word, exps in zip(projection.words, projection.exponents)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=8).filter(any).map(tuple))
def test_first_class_steps_commute_with_turning(row):
    # the row turned one column right, entered one column on, exits one
    # column on past as many vacancies, each of them a vacancy of the row;
    # each step is the row's first particle at or right of the entry column,
    # found by slicing the row there
    import mlqtasep.core as core

    N, steps = len(row), core._first_class_steps(row)
    assert core._first_class_steps(rotate(row)) == [((out + 1) % N, passed) for out, passed in steps[-1:] + steps[:-1]]
    for col, (out, passed) in enumerate(steps):
        assert row[out] and not any(row[(col + k) % N] for k in range(passed))
        assert passed == (row[col:] + row[:col]).index(1) and out == (col + passed) % N


def _row_steps(monkeypatch, project):
    """project's result on (1,1,2,1,1) with project_rows counted, and per
    new class the upper rows stepped and the steps made; each distinct
    upper row is stepped at most once."""
    import mlqtasep.core as core

    calls = []
    original = core.project_rows

    def spy(upper, patterns, new_class):
        calls.append((new_class, upper, len(patterns)))
        return original(upper, patterns, new_class)

    monkeypatch.setattr(core, "project_rows", spy)
    result = project(build_composition((1, 1, 2, 1, 1)))
    assert len({(new_class, upper) for new_class, upper, _ in calls}) == len(calls)
    steps = Counter()
    for new_class, _, count in calls:
        steps[new_class] += count
    return result, Counter(new_class for new_class, _, _ in calls), steps


def test_orbit_projection_certificate_makes_each_distinct_step_once(monkeypatch):
    # the representatives' pass and the certificate's turned rows together
    # step each distinct upper row of project_queues on (1,1,2,1,1) once:
    # 1,620 steps, as counted in test_project_queues_steps_each_labeled_row_once
    (_, equivariant), rows, steps = _row_steps(monkeypatch, project_orbit_representatives)
    assert equivariant
    assert rows == {2: 6, 3: 30, 4: 180}
    assert steps == {2: 6 * 15, 3: 30 * 15, 4: 180 * 6}


def test_ring_rows_commute_with_rotation():
    # the certificate holds on every composition with m_1 = 1 and N <= 6
    assert all(orbit_ring_successors(c)[1] for c in iter_compositions(6) if c.m[0] == 1)


@settings(max_examples=150, deadline=None)
@given(queues_up_to_six())
def test_projected_word_has_the_composition(case):
    c, q = case
    word = bully_projection(q).word
    assert tuple(word.count(cls) for cls in range(1, c.n + 1)) == c.m


@settings(max_examples=150, deadline=None)
@given(queues_up_to_six(), compositions_up_to_six())
def test_projection_with_the_known_composition(case, other):
    # the composition a caller passes gives the recovered one's labeling,
    # and any other composition is refused; the row-step fold agrees
    c, q = case
    assert reference_projection(q, c) == reference_projection(q) == bully_projection(q)
    if other != c:
        with pytest.raises(ValueError, match="is not a queue of m ="):
            reference_projection(q, other)


def test_one_queue_projects_when_its_queue_space_is_refused(monkeypatch):
    import mlqtasep.core as core

    # with the limit lowered to 23, the 96 queues of (1,1,1,1) are refused
    # as a space, and one of them still projects on its own
    monkeypatch.setattr(core, "MAX_QUEUES", 23)
    c = build_composition((1, 1, 1, 1))
    with pytest.raises(ValueError, match="has 96 multiline queues"):
        project_queues(c)
    q = parse_queue("0100/0011/1011")
    assert bully_projection(q) == reference_projection(q, c)


def test_projection_refuses_a_queue_of_another_shape():
    # too few rows, a short row, too many rows, and the right shape with
    # the wrong row sums
    c = build_composition((1, 1, 1))
    for q in [
        ((1, 0, 0),),
        ((1, 0, 0), (1, 1)),
        ((1, 0, 0), (1, 1, 0), (1, 1, 0)),
        ((1, 1, 0), (1, 1, 0)),
    ]:
        with pytest.raises(ValueError, match=r"is not a queue of m = \(1, 1, 1\)"):
            reference_projection(q, c)


def test_project_row_single_step():
    # the class-1 particle at column 1 queues over the vacancy below it to
    # column 2; the particle left over at column 3 takes the new class
    assert project_rows((1, 0, 0), [(0, 1, 1)], 2) == [((0, 1, 2), (1, 0, 0))]
    # classes go in ascending order: the 1 at column 2 claims column 2 first,
    # so the 2 at column 1 queues over the vacancy at column 1 and past
    # column 2 to column 3
    assert project_rows((2, 1, 0, 0), [(0, 1, 1, 1)], 3) == [((0, 1, 2, 3), (2, 0, 0, 0))]
    with pytest.raises(ValueError, match="no free particle"):
        project_rows((1, 1, 0), [(1, 0, 0)], 2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=7).map(tuple), st.integers(1, 6))
def test_project_rows_is_the_per_pattern_step(upper, new_class):
    # every pattern of every row size: the oracle's steps in pattern order,
    # or its refusal of the first pattern that has too few particles
    N = len(upper)
    for k in range(N + 1):
        patterns = [bits for bits in itertools.product((0, 1), repeat=N) if sum(bits) == k]
        try:
            expected = [reference_project_row(upper, bits, new_class) for bits in patterns]
        except ValueError as err:
            with pytest.raises(ValueError) as excinfo:
                project_rows(upper, patterns, new_class)
            assert str(excinfo.value) == str(err)
        else:
            assert project_rows(upper, patterns, new_class) == expected


def test_project_rows_refuses_a_pattern_with_too_few_particles():
    # the first pattern labels both paths; on the second, the path from
    # column 1 takes the only particle and the path from column 2 finds none
    with pytest.raises(ValueError) as excinfo:
        project_rows((1, 1, 0), [(1, 1, 0), (1, 0, 0)], 2)
    assert str(excinfo.value) == "the path from column 2 finds no free particle on the lower row"


def _covered_mask(lab):
    bottom = lab.composition.n - 2
    return sum(1 << col for (row, col) in lab.cover if row == bottom)


def _assert_projection_matches_the_oracle(c):
    projection = project_queues(c)
    assert projection.queues == tuple(enumerate_mlqs(c))
    fields = (projection.words, projection.exponents, projection.covered)
    assert all(len(field) == len(projection.queues) for field in fields)
    for q, word, exps, mask in zip(projection.queues, *fields):
        lab = reference_projection(q, c)
        assert word == lab.word
        assert exps == conjectured_exponents(lab)
        assert mask == _covered_mask(lab)
    # equal words and equal exponent tuples are one object each
    for values in (projection.words, projection.exponents):
        assert len({id(v) for v in values}) == len(set(values))


@settings(max_examples=60, deadline=None)
@given(compositions_up_to_six().filter(lambda c: c.N <= 5))
def test_project_queues_matches_the_oracle(c):
    _assert_projection_matches_the_oracle(c)


def test_project_queues_five_species():
    _assert_projection_matches_the_oracle(build_composition((1, 1, 2, 1, 1)))


@pytest.mark.parametrize(
    "m", [c.m for c in iter_compositions(6) if c.N == 6 and c.n <= 4], ids=str
)
def test_project_queues_matches_the_oracle_at_six(m):
    _assert_projection_matches_the_oracle(build_composition(m))


def test_rotating_a_queue_rotates_its_projection():
    # every queue of N <= 6 with at most four species: turning all rows one
    # column right turns the word, keeps the exponents, and moves each
    # covered bottom-row column one bit up, the last column wrapping to bit 0
    for c in [c for c in iter_compositions(6) if c.n <= 4]:
        projection = project_queues(c)
        index = {q: i for i, q in enumerate(projection.queues)}
        full = (1 << c.N) - 1
        for i, q in enumerate(projection.queues):
            j = index[rotate(q)]
            mask = projection.covered[i]
            assert projection.words[j] == rotate(projection.words[i])
            assert projection.exponents[j] == projection.exponents[i]
            assert projection.covered[j] == (mask << 1 | mask >> (c.N - 1)) & full


def test_project_queues_steps_each_labeled_row_once(monkeypatch):
    # (1,1,2,1,1) has rows of 6, 15, 15 and 6 patterns.  Each distinct
    # labeled upper row is stepped once, against every pattern of the row
    # below: the 6 top rows, the 15 * 2 labelings of the second row (its
    # leftover takes class 2) and the 15 * 12 of the third (classes 1, 2, 3, 3)
    _, rows, steps = _row_steps(monkeypatch, project_queues)
    assert rows == {2: 6, 3: 30, 4: 180}
    assert steps == {2: 6 * 15, 3: 30 * 15, 4: 180 * 6}
    assert sum(steps.values()) == 1620


def test_project_queues_refuses_a_queue_space_too_large():
    with pytest.raises(
        ValueError,
        match=r"m = \(1, 1, 1, 1, 1, 1, 1\) has 26471025 multiline queues, "
        r"above the limit of 1000000",
    ):
        project_queues(build_composition((1,) * 7))


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
    assert LaurentPoly.monomial(1, lab.exponents) == LaurentPoly.monomial(1, (6, 5, 6, 2, 1))


def test_conjectured_weight_reverse_word_queue():
    # the unique queue projecting to 321 carries weight x1
    lab = bully_projection(parse_queue("001\n011"))
    assert lab.word == (3, 2, 1)
    assert LaurentPoly.monomial(1, lab.exponents) == LaurentPoly.monomial(1, (1, 0))
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
        assert LaurentPoly.monomial(1, lab.exponents) == three_species_weight(lab)


@settings(max_examples=150, deadline=None)
@given(queues_up_to_six())
def test_first_exponent_is_v1_minus_z1(case):
    # the x1 exponent of the conjectured weight is V1 - z1 for every
    # composition, so fm1's weight x1^(V1 - z1) is the conjectured weight
    # at x2 = ... = 1
    c, q = case
    lab = bully_projection(q)
    assert conjectured_exponents(lab)[0] == c.V[0] - lab.z1()
    # the fold's per-row rule gives the exponents the z-statistics give
    assert lab.exponents == conjectured_exponents(lab)


def test_conjectured_weight_exponents_nonnegative():
    for m in [(1, 1, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1)]:
        c = build_composition(m)
        for q in enumerate_mlqs(c):
            w = LaurentPoly.monomial(1, bully_projection(q).exponents)
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
    assert parse_queue("\n".join("".join(map(str, row)) for row in WIDE_QUEUE)) == WIDE_QUEUE
    assert parse_queue("10") == ((1, 0),)
    with pytest.raises(ValueError):
        parse_queue("0012\n0011")
    with pytest.raises(ValueError):
        parse_queue("11\n10")  # row sums must strictly increase


@settings(max_examples=150, deadline=None)
@given(queues_up_to_six())
def test_queue_text_and_label_parse_back(case):
    _, q = case
    assert parse_queue("\n".join("".join(map(str, row)) for row in q)) == q
    assert parse_queue(queue_label(q)) == q


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
def test_word_text_parses_back(word):
    assert parse_word(word_to_text(tuple(word))) == tuple(word)


def test_word_text_round_trip():
    word = (4, 5, 2, 3, 5, 3, 4, 1)
    assert parse_word(word_to_text(word)) == word
    with pytest.raises(ValueError):
        parse_word("")
