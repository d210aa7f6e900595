import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqtasep.chains import (
    RATE_RULES,
    ChainGraph,
    TransitionRecord,
    build_coupe_chain,
    build_fm_chain,
    build_tasep_chain,
    decompose_coupes,
    from_json,
    ringing_chain,
    to_dot,
    to_json,
)
from mlqtasep.core import (
    build_composition,
    bully_projection,
    enumerate_mlqs,
    enumerate_words,
    orbit_representatives,
    orbit_ring_successors,
    parse_queue,
    project_orbit_representatives,
    project_queues,
    ring_successors,
)
from mlqtasep.poly import LaurentPoly, x_vars
from mlqtasep.sim import build_process_chain
from mlqtasep.solve import voltages_generate
from mlqtasep.verify import iter_compositions, rate_points
from helpers import (
    bully_partition,
    compositions_up_to_six,
    records_by_state,
    reference_decompose_coupes,
    reference_regular_jump,
    reference_ringing_rate,
    reference_rotation_orbits,
    reference_three_blocks,
)

X1 = LaurentPoly.variable(0, 2)
X2 = LaurentPoly.variable(1, 2)


def edge_set(graph):
    return {(rec.src, rec.dst, str(rec.rate)) for rec in graph.transitions}


# ---------------------------------------------------------------------------
# Word process
# ---------------------------------------------------------------------------

# Transition graph of the three-particle ring, lex state order
# 123, 132, 213, 231, 312, 321.
THREE_PARTICLE_EDGES = {
    (0, 5, "x1"),
    (1, 0, "x2"),
    (1, 3, "x1"),
    (2, 0, "x1"),
    (2, 4, "x2"),
    (3, 2, "x1"),
    (4, 1, "x1"),
    (5, 3, "x2"),
    (5, 4, "x1"),
}


def test_tasep_chain_three_particles():
    g = build_tasep_chain(build_composition((1, 1, 1)))
    assert len(g.states) == 6
    assert len(g.transitions) == 9
    assert edge_set(g) == THREE_PARTICLE_EDGES


def test_tasep_chain_two_sites():
    g = build_tasep_chain(build_composition((1, 1)))
    assert len(g.states) == 2
    assert edge_set(g) == {(0, 1, "x1"), (1, 0, "x1")}


def test_tasep_rates_use_lower_class():
    g = build_tasep_chain(build_composition((1, 1, 2)))
    for rec in g.transitions:
        src = g.states[rec.src]
        site = int(rec.mechanism.split("(")[1].rstrip(")")) - 1
        a, b = src[site], src[(site + 1) % 4]
        assert a > b
        assert rec.rate == LaurentPoly.variable(b - 1, 2)


# ---------------------------------------------------------------------------
# Multiline process, three-species rates
# ---------------------------------------------------------------------------

# Queue states of the (1,1,1) system in enumeration order:
# 0: 001/011 (321)   1: 001/101 (231)   2: 001/110 (123)
# 3: 010/011 (312)   4: 010/101 (231)   5: 010/110 (213)
# 6: 100/011 (312)   7: 100/101 (132)   8: 100/110 (123)
THREE_SPECIES_EDGES = {
    (0, 1, "x2"),
    (0, 3, "x1"),
    (3, 6, "x2"),
    (3, 7, "x1"),
    (6, 7, "x1"),
    (1, 4, "x2"),
    (1, 5, "x1"),
    (4, 5, "x1"),
    (7, 1, "x1"),
    (7, 8, "x2"),
    (2, 0, "x1"),
    (5, 3, "x2"),
    (5, 8, "x1"),
    (8, 0, "x1"),
    (8, 2, "x2"),
}


def test_three_species_chain_edges():
    g = build_fm_chain(build_composition((1, 1, 1)), "three_species")
    assert len(g.states) == 9
    assert len(g.transitions) == 15
    assert edge_set(g) == THREE_SPECIES_EDGES
    # exactly 12 of the 15 transitions change the projected word
    words = [bully_projection(q).word for q in g.states]
    changing = [rec for rec in g.transitions if words[rec.src] != words[rec.dst]]
    assert len(changing) == 12


def test_uniform_chain_same_edges_rate_one():
    c = build_composition((1, 1, 1))
    uniform = build_fm_chain(c, "uniform")
    weighted = build_fm_chain(c, "three_species")
    assert {(r.src, r.dst) for r in uniform.transitions} == {
        (r.src, r.dst) for r in weighted.transitions
    }
    assert all(rec.rate == LaurentPoly.one(2) for rec in uniform.transitions)


def test_uniform_chain_in_out_balance():
    for m in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1)]:
        g = build_fm_chain(build_composition(m), "uniform")
        outs = [len(recs) for recs in records_by_state(g, "src")]
        ins = [len(recs) for recs in records_by_state(g, "dst")]
        assert outs == ins


def test_one_first_class_rates():
    c = build_composition((1, 2, 2))
    g = build_fm_chain(c, "one_first_class")
    x1 = LaurentPoly.variable(0, 2)
    one = LaurentPoly.one(2)
    for rec in g.transitions:
        site = int(rec.mechanism.split("(")[1].rstrip(")")) - 1
        word = bully_projection(g.states[rec.src]).word
        assert rec.rate == (x1 if word[site] == 1 else one)
    assert any(rec.rate == x1 for rec in g.transitions)
    assert any(rec.rate == one for rec in g.transitions)


def test_rate_rule_preconditions():
    with pytest.raises(ValueError):
        build_fm_chain(build_composition((1, 1, 1, 1)), "three_species")
    with pytest.raises(ValueError):
        build_fm_chain(build_composition((2, 1, 1)), "one_first_class")
    with pytest.raises(ValueError):
        build_fm_chain(build_composition((1, 1, 1)), "nonsense")


def _rate_objects(g):
    """The distinct rate objects of a chain's records, by identity."""
    return {id(rec.rate): rec.rate for rec in g.transitions}


@pytest.mark.parametrize(
    "build, m",
    [
        (build_tasep_chain, (1, 1, 2, 1)),
        (lambda c: build_fm_chain(c, "uniform"), (1, 1, 2)),
        (lambda c: build_fm_chain(c, "three_species"), (1, 2, 2)),
        (lambda c: build_fm_chain(c, "one_first_class"), (1, 1, 1, 1)),
        (build_coupe_chain, (1, 2, 2)),
    ],
)
def test_records_share_rate_polynomials(build, m):
    # a chain's records reference its x1..x_{n-1} and 1, one object per value
    g = build(build_composition(m))
    objects = _rate_objects(g)
    assert len(objects) <= g.nvars + 1
    assert len(objects) == len(set(objects.values()))


@pytest.mark.parametrize("rule", ["uniform", "three_species", "one_first_class"])
def test_ringing_records_share_mechanism_labels(rule):
    # one label object per ringing column, as the records share their rates
    g = build_fm_chain(build_composition((1, 2, 2)), rule)
    labels = {id(rec.mechanism): rec.mechanism for rec in g.transitions}
    assert sorted(labels.values()) == [f"ringing({i})" for i in range(1, 6)]


@pytest.mark.parametrize(
    "rule, m",
    [("uniform", (1, 1, 1, 2)), ("three_species", (2, 2, 3)), ("one_first_class", (1, 1, 1, 2))],
)
def test_ringing_records_share_state_ids(rule, m):
    # every src and dst is one of the chain's shared state ids, not an int
    # made per record: 500 and 735 queues, beyond the small ints Python caches
    g = build_fm_chain(build_composition(m), rule)
    ends = {id(end): end for rec in g.transitions for end in rec[:2]}
    assert len(ends) == len(set(ends.values())) <= len(g.states)


ADMISSIBLE = {
    "uniform": lambda m: True,
    "three_species": lambda m: len(m) == 3,
    "one_first_class": lambda m: m[0] == 1,
}


@pytest.mark.parametrize("rule", RATE_RULES)
def test_ringing_records_follow_the_per_ring_rate_rule(rule):
    # every record of every admissible chain with N <= 5, in ring order,
    # against the rule read ring by ring; uniform rings all at rate 1
    for c in [c for c in iter_compositions(5) if ADMISSIBLE[rule](c.m)]:
        g = build_fm_chain(c, rule)
        projection = project_queues(c)
        x, one = x_vars(c.n - 1), LaurentPoly.one(c.n - 1)

        def rate(sid, col):
            if rule == "uniform":
                return one
            word, covered = projection.words[sid], projection.covered[sid]
            return reference_ringing_rate(rule, word, covered, col, x, one)

        expected = [
            (sid, dst, rate(sid, col), f"ringing({col + 1})")
            for (sid, col), dst in ((divmod(k, c.N), dst) for k, dst in enumerate(ring_successors(c)))
            if dst != sid
        ]
        assert [tuple(rec) for rec in g.transitions] == expected, c.m


@pytest.mark.parametrize(
    "build, labels",
    [
        (build_tasep_chain, 6),  # tasep-swap(1..6)
        (build_coupe_chain, 12),  # coupe-regular(1..6) and coupe-pulling(1..6)
    ],
)
def test_word_and_coupe_records_share_mechanism_labels(build, labels):
    # one label object per distinct label: the coupe chain of (1,2,3) has 240
    # records, its word chain 132
    g = build(build_composition((1, 2, 3)))
    objects = {id(rec.mechanism): rec.mechanism for rec in g.transitions}
    assert len(objects) == len(set(objects.values())) == labels


@pytest.mark.parametrize(
    "build, m",
    [
        (build_tasep_chain, (1, 1, 2, 1)),
        (lambda c: build_fm_chain(c, "uniform"), (1, 1, 2)),
        (lambda c: build_fm_chain(c, "three_species"), (1, 2, 2)),
        (lambda c: build_fm_chain(c, "one_first_class"), (1, 1, 2, 1)),
        (build_coupe_chain, (1, 2, 2)),
    ],
)
def test_imported_chain_shares_rate_polynomials(build, m):
    # from_json parses each distinct rate text once, so an imported chain
    # holds one rate object per value, as the built one does (2 for the 690
    # records of one_first_class on (1,1,2,1))
    g = build(build_composition(m))
    back = from_json(to_json(g))
    objects = _rate_objects(back)
    assert len(objects) == len(set(objects.values())) == len(_rate_objects(g))
    assert [rec.rate for rec in back.transitions] == [rec.rate for rec in g.transitions]


# ---------------------------------------------------------------------------
# Coupe decomposition
# ---------------------------------------------------------------------------


def test_decompose_simple_words():
    coupes = decompose_coupes((1, 2, 3))
    assert [(c.columns, c.letters) for c in coupes] == [
        ((2, 0), (3, 1)),
        ((1,), (2,)),
    ]
    assert coupes[0].seat_class == 1 and not coupes[0].full
    assert coupes[0].front == 0 and coupes[0].back == 0
    assert coupes[1].seat_class == 2 and coupes[1].full

    coupes = decompose_coupes((3, 2, 1))
    assert [(c.columns, c.letters) for c in coupes] == [
        ((0, 1), (3, 2)),
        ((2,), (1,)),
    ]
    assert coupes[1].full and coupes[1].seat_class == 1


def test_decompose_long_circular_word():
    word = (3, 3, 2, 3, 3, 1, 1, 3, 2, 2, 2, 1, 2, 3, 3, 1, 1, 1, 2)
    coupes = decompose_coupes(word)
    assert [c.letters for c in coupes] == [
        (3, 3, 2),
        (3, 3, 1, 1),
        (3, 2, 2, 2),
        (1,),
        (2,),
        (3, 3, 1, 1, 1),
        (2,),
    ]
    # segments tile the ring
    covered = [col for c in coupes for col in c.columns]
    assert sorted(covered) == list(range(len(word)))


def test_decompose_classification():
    word = (3, 3, 2, 3, 3, 1, 1, 3)
    coupes = decompose_coupes(word)
    by_letters = {c.letters: c for c in coupes}
    assert set(by_letters) == {(3, 3, 3, 2), (3, 3, 1, 1)}
    first = by_letters[(3, 3, 1, 1)]
    assert first.seat_class == 1 and first.front == 5 and first.back == 6


def test_decompose_matches_the_column_walk_on_every_three_species_word():
    # the 8,334 words of the compositions with n = 3 and N <= 8
    words = [
        word
        for c in iter_compositions(8) if c.n == 3
        for word in enumerate_words(c)
    ]
    assert len(words) == 8334
    for word in words:
        assert decompose_coupes(word) == reference_decompose_coupes(word), word


def test_coupe_heads_are_the_blocks_of_3s_on_every_three_species_word():
    # every such word holds a 1 and a 2, so each maximal block of 3s runs
    # into a 1 or a 2: the head of one coupe, the 3s before its front
    for c in [c for c in iter_compositions(8) if c.n == 3]:
        for word in enumerate_words(c):
            heads = {cp.columns[: cp.columns.index(cp.front)] for cp in decompose_coupes(word)}
            assert heads - {()} == set(map(tuple, reference_three_blocks(word))), word


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=12)
    .map(tuple)
    .filter(lambda word: set(word) != {3})
)
def test_decompose_matches_the_column_walk_on_random_words(word):
    # a word of one letter, such as (1, 1), has no run end: both refuse it
    def cut(decompose):
        try:
            return decompose(word)
        except ValueError as err:
            return str(err)

    assert cut(decompose_coupes) == cut(reference_decompose_coupes)


@pytest.mark.parametrize(
    "word, message",
    [
        ((1, 4, 3), "coupe decomposition is defined for classes 1..3"),
        ((3, 3), "word has no 1s or 2s, nothing to cut"),
        # a word of one letter has no run end
        ((1,), "word is one run of 1s, with no run end to cut at"),
        ((2, 2), "word is one run of 2s, with no run end to cut at"),
    ],
)
def test_decompose_refuses_words_it_cannot_cut(word, message):
    with pytest.raises(ValueError) as excinfo:
        decompose_coupes(word)
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# Coupe jumps against the four worked examples
# ---------------------------------------------------------------------------


def _coupe_successors(q):
    c = build_composition(bully_projection(q).composition.m)
    g = build_coupe_chain(c)
    sid = g.states.index(q)
    return {
        (g.states[rec.dst], str(rec.rate), rec.mechanism)
        for rec in g.transitions
        if rec.src == sid
    }


def test_regular_jump_both_rows_move():
    # occupied front seat over two free targets: both rows shift left
    q = parse_queue("0011000\n0011001")
    succ = _coupe_successors(q)
    assert (parse_queue("0101000\n0101001"), "x1", "coupe-regular(3)") in succ


def test_regular_jump_top_row_blocked():
    q = parse_queue("0110000\n0011001")
    succ = _coupe_successors(q)
    assert (parse_queue("0110000\n0101001"), "x1", "coupe-regular(3)") in succ


def test_pulling_jump_drags_trailing_top_particle():
    q = parse_queue("0101000\n0011001")
    succ = _coupe_successors(q)
    assert (parse_queue("0110000\n0101001"), "x1", "coupe-pulling(3)") in succ


def test_pulling_jump_back_seat_drags_next_coupe():
    # front seat 2 is also a back seat; the next coupe's top row shifts left
    q = parse_queue("00010010\n00100110")
    assert bully_projection(q).word == (3, 3, 2, 3, 3, 1, 1, 3)
    succ = _coupe_successors(q)
    expected = parse_queue("00100100\n01000110")
    assert bully_projection(expected).word == (3, 2, 3, 3, 3, 1, 1, 3)
    assert (expected, "x2", "coupe-pulling(3)") in succ


@pytest.mark.parametrize("m", [c.m for c in iter_compositions(7) if c.n == 3], ids=str)
def test_regular_jumps_are_three_species_rings(m):
    # each regular jump moves its two cells one by one as the oracle does,
    # and is the fm3 chain's ring at the front seat, at the same rate x1
    c = build_composition(m)
    coupe = build_coupe_chain(c)
    rings = {tuple(rec) for rec in build_fm_chain(c, "three_species").transitions}
    regular = 0
    for src, dst, rate, mechanism in coupe.transitions:
        kind, _, col = mechanism.partition("(")
        if kind == "coupe-regular":
            front = int(col.rstrip(")")) - 1
            regular += 1
            assert coupe.states[dst] == reference_regular_jump(coupe.states[src], front)
            assert (src, dst, rate, f"ringing({front + 1})") in rings
    assert regular


# Coupe process on the (1,1,1) system, same state order as the
# three-species chain above; minimal: no edges within a word class.
COUPE_EDGES = {
    (0, 4, "x2"),
    (0, 3, "x1"),
    (3, 7, "x1"),
    (6, 7, "x1"),
    (1, 5, "x1"),
    (4, 5, "x1"),
    (7, 1, "x1"),
    (7, 2, "x2"),
    (2, 0, "x1"),
    (5, 8, "x1"),
    (5, 6, "x2"),
    (8, 0, "x1"),
}


def test_coupe_chain_three_particles():
    g = build_coupe_chain(build_composition((1, 1, 1)))
    assert len(g.states) == 9
    assert len(g.transitions) == 12
    assert edge_set(g) == COUPE_EDGES


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 1)])
def test_coupe_chain_minimality_and_degrees(m):
    c = build_composition(m)
    g = build_coupe_chain(c)
    words = [bully_projection(q).word for q in g.states]
    for rec in g.transitions:
        assert words[rec.src] != words[rec.dst]
    out = records_by_state(g)
    for sid, q in enumerate(g.states):
        coupes = decompose_coupes(words[sid])
        c1 = sum(1 for cp in coupes if cp.seat_class == 1)
        e2 = sum(1 for cp in coupes if cp.seat_class == 2 and not cp.full)
        assert len(out[sid]) == c1 + e2


def test_coupe_chain_cuts_each_word_once(monkeypatch):
    import mlqtasep.chains as chains

    calls = []
    original = chains.decompose_coupes

    def spy(word):
        calls.append(word)
        return original(word)

    monkeypatch.setattr(chains, "decompose_coupes", spy)
    # 50 queues project to the 30 words of (1,2,2); the chain keeps each
    # word's cut for the seat bookkeeping to read
    g = build_coupe_chain(build_composition((1, 2, 2)))
    assert len(calls) == len(set(calls)) == 30
    assert g.coupes == {word: reference_decompose_coupes(word) for word in g.projection.words}


def test_coupe_chain_refuses_a_column_out_of_step_with_its_states(monkeypatch):
    # the builder pairs each queue with its N ring successors by position;
    # a column one queue short must raise, not drop the last queue
    import mlqtasep.chains as chains

    original = chains.ring_successors
    monkeypatch.setattr(chains, "ring_successors", lambda c: original(c)[: -c.N])
    with pytest.raises(ValueError, match="shorter"):
        build_coupe_chain(build_composition((1, 1, 1)))


def test_coupe_chain_needs_three_species():
    with pytest.raises(ValueError):
        build_coupe_chain(build_composition((1, 1, 1, 1)))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def test_json_round_trip():
    for g in [
        build_tasep_chain(build_composition((1, 1, 2))),
        build_coupe_chain(build_composition((1, 1, 2))),
        build_fm_chain(build_composition((1, 1, 1)), "three_species"),
    ]:
        back = from_json(to_json(g))
        assert back.states == g.states
        assert back.transitions == g.transitions
        assert back.kind == g.kind


ONE = LaurentPoly.one(1)
TWO_WORDS = ((1, 2), (2, 1))


def test_chain_graph_refuses_a_loop_record():
    # loops are implied by the column sums and never stored
    records = (TransitionRecord(0, 1, ONE, "a"), TransitionRecord(1, 1, ONE, "a"))
    with pytest.raises(ValueError, match=r"transition 1, 1 -> 1, is a loop or leaves range\(0, 2\)"):
        ChainGraph("tasep", build_composition((1, 1)), TWO_WORDS, records, 1)


@pytest.mark.parametrize(
    "ends, message",
    [
        (((0, 1), (1, 1)), "transition 1, 1 -> 1, is a loop or leaves range(0, 2)"),
        (((0, 1), (2, 0)), "transition 1, 2 -> 0, is a loop or leaves range(0, 2)"),
        (((0, 1), (1, 2)), "transition 1, 1 -> 2, is a loop or leaves range(0, 2)"),
        (((0, 1.5), (1, 0)), "transition 0, 0 -> 1.5, is a loop or leaves range(0, 2)"),
        (((1, 0), (0, 5), (0, 0), (-1, 1)), "transition 1, 0 -> 5, is a loop or leaves range(0, 2)"),
        (((1, 0), ([0], 1)), "transition 1, [0] -> 1, is a loop or leaves range(0, 2)"),
    ],
    ids=["loop", "source-out", "target-out", "float-target", "first-of-three", "unhashable-source"],
)
def test_chain_graph_names_its_first_bad_record(ends, message):
    # each record's ends must differ and lie in range(states), a float
    # such as 1.5 refused; the message names the first record that fails
    records = tuple(TransitionRecord(src, dst, ONE, "a") for src, dst in ends)
    with pytest.raises(ValueError) as refused:
        ChainGraph("tasep", build_composition((1, 1)), TWO_WORDS, records, 1)
    assert str(refused.value) == message


def test_chain_graph_refuses_voltages_not_one_per_record():
    records = (TransitionRecord(0, 1, ONE, "a"),)
    with pytest.raises(ValueError, match="2 voltages for 1 transitions"):
        ChainGraph("tasep", build_composition((1, 1)), TWO_WORDS, records, 1, voltages=(1, 1))


def test_ringing_chain_refuses_a_turned_loop():
    # a walk that rings a representative onto its own turn, B + sid, would
    # make a record sid -> sid of voltage 1; it is refused, never dropped
    c = build_composition((1, 1, 1))
    projection, _ = project_orbit_representatives(c)
    B = len(projection.queues)
    doctored, _ = orbit_ring_successors(c)
    doctored[1 * c.N] = B + 1  # the ring at column 1 of representative 1
    with pytest.raises(ValueError, match=r"transition \d+, 1 -> 1, is a loop"):
        ringing_chain(c, "one_first_class", doctored, projection)


@pytest.mark.parametrize("orbits", [False, True], ids=["full", "orbit"])
def test_ringing_chain_refuses_a_column_one_id_short(orbits):
    # N successor ids per state: a column one id short of a whole queue is
    # refused by its length, not read as one queue fewer
    c = build_composition((1, 1, 2))
    column = orbit_ring_successors(c)[0] if orbits else ring_successors(c)
    states = orbit_representatives(c) if orbits else enumerate_mlqs(c)
    assert ringing_chain(c, "uniform", column, states).states == tuple(states)
    with pytest.raises(ValueError, match=rf"^{len(column) - 1} successor ids for {len(states)} states of 4 rings$"):
        ringing_chain(c, "uniform", column[:-1], states)


def test_only_the_orbit_chain_carries_voltages():
    c = build_composition((1, 1, 2))
    projection, _ = project_orbit_representatives(c)
    orbits = ringing_chain(c, "one_first_class", orbit_ring_successors(c)[0], projection)
    assert len(orbits.voltages) == len(orbits.transitions) and set(orbits.voltages) == {0, 1}
    for g in [
        build_tasep_chain(c),
        build_coupe_chain(c),
        *(build_fm_chain(c, rule) for rule in ("uniform", "three_species", "one_first_class")),
    ]:
        assert g.voltages == () and from_json(to_json(g)).voltages == ()


@pytest.mark.parametrize("src, dst", [(0, 2), (2, 0), (0, -1), (-1, 1)])
def test_chain_graph_refuses_a_transition_outside_its_states(src, dst):
    records = (TransitionRecord(1, 0, ONE, "a"), TransitionRecord(src, dst, ONE, "a"))
    with pytest.raises(ValueError, match=rf"transition 1, {src} -> {dst}, is a loop or leaves range\(0, 2\)"):
        ChainGraph("tasep", build_composition((1, 1)), TWO_WORDS, records, 1)


@pytest.mark.parametrize(
    "end, value, message",
    [
        ("to", 6, r"transition 3, \d -> 6, is a loop or leaves range\(0, 6\)"),
        ("from", -1, r"transition 3, -1 -> \d, is a loop or leaves range\(0, 6\)"),
        ("to", None, r"transition 3, (\d) -> \1, is a loop"),
    ],
)
def test_from_json_refuses_a_transition_outside_its_states(end, value, message):
    # the export of the word chain of (1,1,1) with record 3 pointed out of
    # range or back at its own source
    payload = json.loads(to_json(build_tasep_chain(build_composition((1, 1, 1)))))
    record = payload["transitions"][3]
    record[end] = record["from"] if value is None else value
    with pytest.raises(ValueError, match=message):
        from_json(json.dumps(payload))


@pytest.mark.parametrize("m", [(1, 1, 2), (1, 1, 2, 1)])
def test_json_round_trip_keeps_the_orbit_chains_voltages(m):
    c = build_composition(m)
    projection, _ = project_orbit_representatives(c)
    orbits = ringing_chain(c, "one_first_class", orbit_ring_successors(c)[0], projection)
    text = to_json(orbits)
    back = from_json(text)
    assert back == orbits and back.voltages == orbits.voltages
    assert back.irreducible and orbits.irreducible
    assert voltages_generate(back) == voltages_generate(orbits) is True
    # a payload missing one voltage is refused by the count check
    payload = json.loads(text)
    del payload["transitions"][0]["voltage"]
    with pytest.raises(ValueError, match=r"voltages for \d+ transitions"):
        from_json(json.dumps(payload))


def test_queue_chains_carry_their_projection():
    # the projecting queue chains keep the projection of their states; word
    # chains, the uniform chain and imported chains keep none, and the
    # projection takes no part in equality, so JSON round trips still hold
    c = build_composition((1, 1, 2))
    for g in [
        build_fm_chain(c, "three_species"),
        build_fm_chain(c, "one_first_class"),
        build_coupe_chain(c),
    ]:
        assert g.projection == project_queues(c)
        assert g.projection.queues is g.states
        back = from_json(to_json(g))
        assert back.projection is None
        assert back == g
    for g in [build_tasep_chain(c), build_fm_chain(c, "uniform")]:
        assert g.projection is None
        assert from_json(to_json(g)) == g


@st.composite
def process_chains(draw):
    """A chain of a random process on a random composition, N <= 5, that the
    process accepts."""
    c = draw(compositions_up_to_six().filter(lambda c: c.N <= 5))
    processes = ["tasep", "fm"]
    if c.m[0] == 1:
        processes.append("fm1")
    if c.n == 3:
        processes += ["fm3", "coupe"]
    return build_process_chain(draw(st.sampled_from(processes)), c)


@settings(max_examples=100, deadline=None)
@given(process_chains())
def test_json_round_trip_of_every_process(g):
    # the states, and each record's src, dst, rate and mechanism, in order
    back = from_json(to_json(g))
    assert (back.kind, back.composition, back.nvars) == (g.kind, g.composition, g.nvars)
    assert back.states == g.states
    assert back.transitions == g.transitions


@settings(max_examples=100, deadline=None)
@given(process_chains())
def test_in_records_invert_out_records(g):
    # every record sits once in the grouping by source at its source and
    # once in the grouping by target at its target; each read of the columns
    # makes its own records, so the two groupings hold equal records,
    # compared as multisets per state
    out, incoming = records_by_state(g, "src"), records_by_state(g, "dst")
    assert all(rec.src == s for s, recs in enumerate(out) for rec in recs)
    rebuilt = [Counter() for _ in g.states]
    for recs in out:
        for rec in recs:
            rebuilt[rec.dst][rec] += 1
    assert rebuilt == [Counter(recs) for recs in incoming]
    assert sum(map(len, out)) == len(g.transitions)


# ---------------------------------------------------------------------------
# Chain facts: strong connectivity and rotation orbits
# ---------------------------------------------------------------------------


def _suite_chains():
    """Every word chain to N = 6, and every fm chain under each rule that
    applies and every coupe chain to N = 5."""
    for c in iter_compositions(6):
        yield build_tasep_chain(c)
        if c.N <= 5:
            yield build_fm_chain(c, "uniform")
            if c.m[0] == 1:
                yield build_fm_chain(c, "one_first_class")
            if c.n == 3:
                yield build_fm_chain(c, "three_species")
                yield build_coupe_chain(c)


def test_rotation_orbits_equal_the_orbits_of_the_rows_at_a_point():
    # the point-free check on shared rate objects finds every orbit that the
    # integer rows at a seeded point show, on every chain the suites build
    # and on the chain read back from its export
    checked = 0
    for g in _suite_chains():
        (point,) = rate_points(g.nvars, 1, len(g.states))
        orbits = reference_rotation_orbits(g, point)
        assert len(set(orbits)) < len(g.states), g.kind
        assert g.rotation_orbits == orbits, (g.kind, g.composition.m)
        checked += 1
    assert checked == 118
    back = from_json(to_json(build_coupe_chain(build_composition((1, 2, 2)))))
    assert back.rotation_orbits == reference_rotation_orbits(back, (2, 3))


def test_replaced_chain_computes_its_own_facts():
    # (1,1,2) has 12 words in 3 orbits; without the records leaving word 0
    # the chain is neither strongly connected nor rotation-invariant, and
    # the facts already read off the original stay its own
    g = build_tasep_chain(build_composition((1, 1, 2)))
    assert g.irreducible and g.rotation_orbits == (0, 1, 2, 2, 1, 0, 0, 1, 2, 1, 0, 2)
    cut = replace(g, transitions=tuple(rec for rec in g.transitions if rec.src))
    assert not cut.irreducible and cut.rotation_orbits == tuple(range(12))
    assert g.irreducible and len(set(g.rotation_orbits)) == 3


def test_rotation_orbits_compare_rates_by_object():
    # the (1,1,1) word chain with every rate a fresh copy of an equal
    # polynomial: rotation keeps the values but not the shared objects, so
    # each state is its own orbit
    g = build_tasep_chain(build_composition((1, 1, 1)))
    copies = replace(g, transitions=tuple(rec._replace(rate=rec.rate + 0) for rec in g.transitions))
    assert g.rotation_orbits == (0, 1, 1, 0, 0, 1)
    assert copies.rotation_orbits == tuple(range(6))


def test_dot_export_shape():
    g = build_fm_chain(build_composition((1, 1, 1)), "three_species")
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == 15
    assert '"001/011"' in dot


def test_bully_partition_blocks():
    g = build_fm_chain(build_composition((1, 1, 1)), "three_species")
    blocks, words = bully_partition(g)
    assert len(words) == 6
    assert sorted(set(blocks)) == list(range(6))
    # two queues project onto each of 123, 231 and 312
    from collections import Counter

    sizes = Counter(blocks)
    word_index = {w: i for i, w in enumerate(words)}
    assert sizes[word_index[(1, 2, 3)]] == 2
    assert sizes[word_index[(3, 2, 1)]] == 1


# ---------------------------------------------------------------------------
# Records stored as columns
# ---------------------------------------------------------------------------


def _orbit_chain(c, rule):
    """fm1's or uniform's chain of the rotation-orbit representatives."""
    projection, _ = project_orbit_representatives(c)
    return ringing_chain(c, rule, orbit_ring_successors(c)[0], projection.queues, projection.words)


def _column_chains():
    """Every builder's chain on every composition of N <= 5 it takes, and
    fm1's and uniform's orbit chains on the m1 = 1, n >= 3 ones."""
    for c in iter_compositions(5):
        yield build_tasep_chain(c)
        yield build_fm_chain(c, "uniform")
        if c.m[0] == 1:
            yield build_fm_chain(c, "one_first_class")
        if c.n == 3:
            yield build_fm_chain(c, "three_species")
            yield build_coupe_chain(c)
        if c.m[0] == 1 and c.n >= 3:
            yield _orbit_chain(c, "one_first_class")
            yield _orbit_chain(c, "uniform")


def test_a_chain_rebuilt_from_its_own_records_is_the_same_chain():
    # the records read back from the columns, given to ChainGraph as a
    # tuple, make columns of their own; every chain fact and kernel result
    # is the same on both
    from mlqtasep.solve import master_residual, stationary_solve

    checked = 0
    for g in _column_chains():
        records = tuple(g.transitions)
        assert all(type(rec) is TransitionRecord for rec in records)
        rebuilt = ChainGraph(g.kind, g.composition, g.states, records, g.nvars, g.projection, g.voltages)
        assert rebuilt == g and rebuilt.transitions == g.transitions and tuple(rebuilt.transitions) == records
        weights = [LaurentPoly.monomial(1, (i % 3,) + (0,) * (g.nvars - 1)) for i in range(len(g.states))]
        assert master_residual(rebuilt, weights) == master_residual(g, weights)
        assert rebuilt.potentials == g.potentials and rebuilt.irreducible == g.irreducible
        assert rebuilt.rotation_orbits == g.rotation_orbits
        if g.irreducible:  # voltages_generate reads potentials that reach every state
            assert voltages_generate(rebuilt) == voltages_generate(g)
        if len(g.states) <= 300:
            (point,) = rate_points(g.nvars, 1, len(g.states))
            assert stationary_solve(rebuilt, point) == stationary_solve(g, point)
        checked += 1
    assert checked == 109


def test_columns_share_one_object_per_distinct_rate_and_label():
    # each record's rate and label is read off its id, so equal ids give the
    # same objects, and the columns are as long as the records
    for g in _column_chains():
        t = g.transitions
        assert len(t.sources) == len(t.targets) == len(t.rate_ids) == len(t.mechanism_ids) == len(t)
        assert len({id(rate) for rate in t.rates}) == len(t.rates)
        assert len(set(t.mechanisms)) == len(t.mechanisms)
        assert set(t.rate_ids) <= set(range(len(t.rates)))
        assert set(t.mechanism_ids) <= set(range(len(t.mechanisms)))


def test_fm1_and_zpart_make_no_transition_record(monkeypatch):
    # the lift path reads the columns alone: no record is made by any
    # means, TransitionRecord(...) or the view's _make, in either check
    from mlqtasep import verify

    made = []
    new, make = TransitionRecord.__new__, TransitionRecord._make
    monkeypatch.setattr(TransitionRecord, "__new__", lambda cls, *args: made.append(args) or new(cls, *args))
    monkeypatch.setattr(TransitionRecord, "_make", classmethod(lambda cls, values: made.append(values) or make(values)))
    records = list(build_tasep_chain(build_composition((1, 1, 2))).transitions)
    assert len(made) == len(records) > 0  # the spy sees records made on read
    made.clear()
    for m in [(1, 1, 2), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2)]:
        c = build_composition(m)
        assert verify.check_fm1_theorem(c).ok and verify.check_partition_function(c).ok
    assert made == []
