"""stationary_solve against a dense fraction-free (Bareiss) reference.

The reference shares no code with the sparse modular solver; it is exact,
simple and slow, so it only runs on chains of a few states.  Random chains
come in two kinds: 1-tuple states, where rotation finds no orbit, and
orbit chains of whole rotation orbits of words with records closed under
rotation, where the solve eliminates one unknown per orbit.

The solve's rational reconstruction gives coprime integer pairs; a
property holds it to the Fraction reconstruction it replaced
(reference_reconstruct), which accepts the same residues, so every solve
tries the same primes.  Another holds the running common denominator of
_reconstruct_vector to the per-entry reconstruction scaled by the lcm
(reference_reconstruct_vector).
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mlqtasep.solve as solve
from mlqtasep.chains import ChainGraph, TransitionRecord, build_fm_chain, build_tasep_chain
from mlqtasep.core import build_composition
from mlqtasep.poly import LaurentPoly
from mlqtasep.solve import ReducibleChainError, stationary_solve

from helpers import normalize_rationals, reference_reconstruct, reference_reconstruct_vector


def _bareiss_echelon(matrix: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination; returns echelon rows and pivot cols."""
    rows = [row[:] for row in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        for i in range(r + 1, n_rows):
            factor = rows[i][col]
            if factor == 0 and pivot == prev:
                continue
            row_i, row_r = rows[i], rows[r]
            for j in range(col, n_cols):
                row_i[j] = (row_i[j] * pivot - factor * row_r[j]) // prev
        pivots.append(col)
        prev = pivot
        r += 1
        if r == n_rows:
            break
    return rows[: len(pivots)], pivots


def oracle_nullspace(g: ChainGraph, point) -> tuple[int, list[Fraction] | None]:
    """Nullity of the generator at the point, and its null vector when that
    is 1, by dense Bareiss elimination and rational back substitution."""
    n = len(g.states)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for rec in g.transitions:
        value = rec.rate.eval(point)
        matrix[rec.dst][rec.src] += value
        matrix[rec.src][rec.src] -= value
    denominator = lcm(*(value.denominator for row in matrix for value in row))
    echelon, pivots = _bareiss_echelon(
        [[int(value * denominator) for value in row] for row in matrix]
    )
    free_cols = [c for c in range(n) if c not in set(pivots)]
    if len(free_cols) != 1:
        return len(free_cols), None
    solution = [Fraction(0)] * n
    solution[free_cols[0]] = Fraction(1)
    for row, pivot_col in reversed(list(zip(echelon, pivots))):
        acc = sum(row[col] * solution[col] for col in range(pivot_col + 1, n))
        solution[pivot_col] = -acc / row[pivot_col]
    return 1, solution


def _chain(n: int, edges) -> ChainGraph:
    """States 1..n, one rate variable per edge."""
    return ChainGraph(
        kind="custom",
        composition=build_composition((1, 1)),
        states=tuple((i + 1,) for i in range(n)),
        transitions=tuple(
            TransitionRecord(src, dst, LaurentPoly.variable(k, len(edges)), "a")
            for k, (src, dst) in enumerate(edges)
        ),
        nvars=len(edges),
    )


RATES = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))


@st.composite
def chains(draw, connected: bool):
    """A rate chain of 2-12 states and a positive rational point.  Connected
    chains contain a cycle through every state; the others have a block of
    states the remaining ones can never reach."""
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(a, b) for a, b in draw(st.lists(pairs, max_size=3 * n)) if a != b}
    if connected:
        order = draw(st.permutations(range(n)))
        edges |= {(order[i], order[(i + 1) % n]) for i in range(n)}
    else:
        cut = draw(st.integers(1, n - 1))
        edges = {(a, b) for a, b in edges if a < cut or b >= cut}  # none back into 0..cut-1
    edges = sorted(edges)
    point = draw(st.lists(RATES, min_size=len(edges), max_size=len(edges)))
    return _chain(n, edges), point


@settings(max_examples=100, deadline=None)
@given(chains(connected=True))
def test_stationary_solve_matches_bareiss_on_connected_chains(case):
    g, point = case
    nullity, solution = oracle_nullspace(g, point)
    assert nullity == 1
    assert stationary_solve(g, point) == normalize_rationals(solution)


@settings(max_examples=100, deadline=None)
@given(chains(connected=False))
def test_stationary_solve_rejects_reducible_chains_like_bareiss(case):
    g, point = case
    nullity, _ = oracle_nullspace(g, point)
    with pytest.raises(ReducibleChainError) as err:
        stationary_solve(g, point)
    assert err.value.dimension == nullity


def test_stationary_solve_never_returns_a_corrupt_candidate(monkeypatch):
    g = build_tasep_chain(build_composition((1, 1, 2)))
    assert stationary_solve(g, (2, 1)) == normalize_rationals(oracle_nullspace(g, (2, 1))[1])
    honest = solve._null_vector_mod

    def corrupt(rows, n, p):
        nullity, vector = honest(rows, n, p)
        vector[0] = (vector[0] + 1) % p
        return nullity, vector

    exact_residual = solve.residual_at_point
    nonzero = []

    def residual(*args):
        residues = exact_residual(*args)
        nonzero.append(any(residues))
        return residues

    monkeypatch.setattr(solve, "_null_vector_mod", corrupt)
    monkeypatch.setattr(solve, "residual_at_point", residual)
    with pytest.raises(ArithmeticError, match="no certified stationary vector"):
        stationary_solve(g, (2, 1))
    # every prime's candidate reconstructed and was refused by the exact residual
    assert nonzero == [True] * len(solve._MERSENNE_EXPONENTS)


def test_stationary_solve_needs_nullity_one_mod_p(monkeypatch):
    # the (1,1,2) word chain without the records leaving 1123: that state
    # absorbs, so the chain is not strongly connected, and a nullity of 2 mod
    # p is reported as it is
    words = build_tasep_chain(build_composition((1, 1, 2)))
    g = replace(words, transitions=tuple(rec for rec in words.transitions if rec.src))
    honest = solve._null_vector_mod
    monkeypatch.setattr(solve, "_null_vector_mod", lambda rows, n, p: (2, honest(rows, n, p)[1]))
    with pytest.raises(ReducibleChainError) as err:
        stationary_solve(g, (2, 1))
    assert err.value.dimension == 2


def test_stationary_solve_skips_an_unlucky_prime_on_an_irreducible_chain(monkeypatch):
    # nullity mod p only bounds the nullity over Q from above; on a strongly
    # connected chain with positive rates the latter is 1, so a first prime
    # that reports 2 is unlucky and the solve goes on to the next one
    g = build_tasep_chain(build_composition((1, 1, 2)))
    honest = solve._null_vector_mod
    primes = []

    def unlucky_first(rows, n, p):
        primes.append(p)
        nullity, vector = honest(rows, n, p)
        return (2 if len(primes) == 1 else nullity), vector

    monkeypatch.setattr(solve, "_null_vector_mod", unlucky_first)
    assert stationary_solve(g, (2, 1)) == normalize_rationals(oracle_nullspace(g, (2, 1))[1])
    assert primes == [2**127 - 1, 2**521 - 1]


def test_stationary_solve_at_a_rate_equal_to_the_first_prime():
    # x1 = 2^127 - 1 vanishes mod the first prime, and the weights 2^127 and
    # 2^127 - 1 are too large to reconstruct mod that prime alone
    g = build_tasep_chain(build_composition((1, 1, 1)))
    point = (2**127 - 1, 1)
    nullity, solution = oracle_nullspace(g, point)
    assert nullity == 1
    assert stationary_solve(g, point) == normalize_rationals(solution)


def test_stationary_solve_tries_the_same_primes_at_a_rate_equal_to_the_first_prime(monkeypatch):
    # the weights do not reconstruct mod 2^127 - 1 alone: the integer pairs
    # are refused there as the fractions were, and the solve certifies
    # after CRT with 2^521 - 1
    g = build_tasep_chain(build_composition((1, 1, 1)))
    honest, primes = solve._null_vector_mod, []
    monkeypatch.setattr(solve, "_null_vector_mod", lambda rows, n, p: primes.append(p) or honest(rows, n, p))
    big = 2**127
    assert stationary_solve(g, (big - 1, 1)) == [big, big - 1, big - 1, big, big, big - 1]
    assert primes == [2**127 - 1, 2**521 - 1]


def _moduli():
    """The moduli the solve reconstructs over, products of its first one
    to three Mersenne primes, and small ones."""
    primes = [(1 << e) - 1 for e in solve._MERSENNE_EXPONENTS[:3]]
    return st.integers(1, 3).map(lambda k: prod(primes[:k])) | st.integers(2, 10**6)


@st.composite
def reconstruction_inputs(draw):
    """A modulus and a residue: any residue, or the image of a fraction
    a/b whose a and b lie near the reconstruction bound."""
    modulus = draw(_moduli())
    if draw(st.booleans()):
        return draw(st.integers(0, modulus - 1)), modulus
    bound = isqrt(modulus >> 1)
    a = draw(st.integers(-2 * bound, 2 * bound))
    b = draw(st.integers(1, 2 * bound + 1).filter(lambda b: gcd(b, modulus) == 1))
    return a * pow(b, -1, modulus) % modulus, modulus


@settings(max_examples=300, deadline=None)
@given(reconstruction_inputs())
@example((0, 2**127 - 1))
@example((1, 2))
def test_reconstruct_accepts_as_the_fraction_reconstruction_does(case):
    residue, modulus = case
    pair, fraction = solve._reconstruct(residue, modulus), reference_reconstruct(residue, modulus)
    assert (pair is None) == (fraction is None)
    if pair is not None:
        assert pair == (fraction.numerator, fraction.denominator)


_SOLVE_MODULI = (2**127 - 1, (2**127 - 1) * (2**521 - 1))


@st.composite
def rational_vectors(draw):
    """One of the solve's first two moduli and a vector of 1 to 30
    rationals, not all zero, whose numerators and denominators are small or
    lie near the reconstruction bound, each denominator a unit modulo it."""
    modulus = draw(st.sampled_from(_SOLVE_MODULI))
    bound = isqrt(modulus >> 1)
    sizes = st.integers(1, 1000) | st.integers(bound // 4, 2 * bound)
    numerators = st.integers(-1000, 1000) | sizes.flatmap(lambda a: st.sampled_from((a, -a)))
    denominators = sizes.filter(lambda b: gcd(b, modulus) == 1)
    values = draw(st.lists(st.builds(Fraction, numerators, denominators), min_size=1, max_size=30))
    assume(any(values))
    return values, modulus


def _residues(values, modulus):
    return [v.numerator * pow(v.denominator, -1, modulus) % modulus for v in values]


@settings(max_examples=300, deadline=None)
@given(rational_vectors())
@example(([Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), Fraction(1)], 2**127 - 1))
@example(([Fraction(4), Fraction(1, 3)], 2**127 - 1))
def test_running_denominator_reconstructs_as_each_entry_does(case):
    # where every entry reconstructs, the same coprime integers; else None,
    # or the vector itself when its entries reconstruct scaled
    values, modulus = case
    residues = _residues(values, modulus)
    expected, got = reference_reconstruct_vector(residues, modulus), solve._reconstruct_vector(residues, modulus)
    if expected is not None:
        assert got == expected
    else:
        assert got is None or got == normalize_rationals(values)


def test_running_denominator_past_the_bound_stands_in_for_no_reconstruction():
    # 1/p and 1/q leave the common denominator d = pq beyond the bound of
    # 2^127 - 1, near 2^63; the third entry, a fraction within the bound, is
    # congruent to 1/d, so its scaled residue is 1: read as the entry times
    # d, it would give 1/d, so past the bound the entry is reconstructed
    modulus = 2**127 - 1
    p, q = 2**40 + 15, 2**40 + 21
    third = Fraction(-140737488350720, 138063476078028287)
    residues = _residues([Fraction(1, p), Fraction(1, q), third], modulus)
    assert residues[2] * p * q % modulus == 1
    solved = solve._reconstruct_vector(residues, modulus)
    assert solved == reference_reconstruct_vector(residues, modulus)
    assert solved == normalize_rationals([Fraction(1, p), Fraction(1, q), third])


def test_running_denominator_reconstructs_only_entries_that_bring_a_new_one(monkeypatch):
    # entries over one shared denominator, as a stationary vector scaled to
    # sum 1 has them, run _reconstruct once; 1/2, 1/3 and 1/6 twice, as 1/6
    # brings no denominator that 2 * 3 lacks
    honest, calls = solve._reconstruct, []
    monkeypatch.setattr(solve, "_reconstruct", lambda r, modulus: calls.append(r) or honest(r, modulus))
    modulus = 2**127 - 1
    shared = [Fraction(k, 97) for k in (3, 5, 7, 11, 13, 17, 19, 2)]
    assert solve._reconstruct_vector(_residues(shared, modulus), modulus) == [3, 5, 7, 11, 13, 17, 19, 2]
    assert len(calls) == 1
    calls.clear()
    thirds = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    assert solve._reconstruct_vector(_residues(thirds, modulus), modulus) == [3, 2, 1]
    assert len(calls) == 2


def _spy_unknowns(monkeypatch) -> list[int]:
    """The number of unknowns of each _null_vector_mod call from now on."""
    unknowns = []
    honest = solve._null_vector_mod

    def spy(rows, n, p):
        unknowns.append(n)
        return honest(rows, n, p)

    monkeypatch.setattr(solve, "_null_vector_mod", spy)
    return unknowns


@pytest.mark.parametrize(
    "m, rule, orbits",
    [((1, 1, 1, 2), None, 12), ((1, 1, 2), "uniform", 6), ((1, 1, 2, 1), "one_first_class", 50)],
    ids=["words-1112", "fm-uniform-112", "fm1-1121"],
)
def test_stationary_solve_eliminates_one_unknown_per_rotation_orbit(monkeypatch, m, rule, orbits):
    # the word chain and two queue chains, of 60, 24 and 250 states: every
    # orbit has N states
    c = build_composition(m)
    g = build_tasep_chain(c) if rule is None else build_fm_chain(c, rule)
    point = (Fraction(3), Fraction(1, 2), Fraction(2))[: g.nvars]
    unknowns = _spy_unknowns(monkeypatch)
    solved = stationary_solve(g, point)
    assert unknowns == [orbits]
    assert solved == normalize_rationals(oracle_nullspace(g, point)[1])


def test_stationary_solve_without_rotation_symmetry_uses_every_state(monkeypatch):
    # one record of the (1,1,1,2) word chain gets 1 added to its rate: the
    # chain stays strongly connected, but rotation no longer maps it onto
    # itself
    words = build_tasep_chain(build_composition((1, 1, 1, 2)))
    first = words.transitions[0]._replace(rate=words.transitions[0].rate + 1)
    g = replace(words, transitions=(first, *words.transitions[1:]))
    point = (Fraction(3), Fraction(1, 2), Fraction(2))
    unknowns = _spy_unknowns(monkeypatch)
    solved = stationary_solve(g, point)
    assert unknowns == [60]
    assert solved == normalize_rationals(oracle_nullspace(g, point)[1])
    assert solved != stationary_solve(words, point)


# ---------------------------------------------------------------------------
# Chains with rotation orbits
# ---------------------------------------------------------------------------


def _turn(word: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The word turned k columns to the right."""
    return word[-k:] + word[:-k]


def _turns(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct turns of a word, in turning order: fewer than its length
    when the word is periodic, as 1212 is."""
    return list(dict.fromkeys(_turn(word, k) for k in range(len(word))))


def orbit_chain(words, pairs) -> ChainGraph:
    """States: every turn of each word, word after word.  Records: each pair
    (i, j) of state ids with i != j, and all its turns, the class sharing
    one rate variable; one more variable is left to no record."""
    states = [state for word in words for state in _turns(word)]
    index = {state: i for i, state in enumerate(states)}
    N = len(states[0])
    classes = dict.fromkeys(
        frozenset((index[_turn(states[i], k)], index[_turn(states[j], k)]) for k in range(N))
        for i, j in pairs
        if i != j
    )
    nvars = len(classes) + 1
    records = []
    for t, turned in enumerate(classes):
        rate = LaurentPoly.variable(t, nvars)
        records += [TransitionRecord(src, dst, rate, "a") for src, dst in sorted(turned)]
    return ChainGraph("custom", build_composition((1, 1)), tuple(states), tuple(records), nvars)


@st.composite
def orbit_chains(draw, connected: bool):
    """An orbit_chain on words of length 2-5 over 1..3 from distinct orbits,
    and a positive rational point.  Connected chains contain a cycle through
    every state; in the others records only lead from a word's orbit to the
    orbits of the same or later words, of which there are 2 or 3."""
    N = draw(st.integers(2, 5))
    words = draw(
        st.lists(
            st.tuples(*[st.integers(1, 3)] * N),
            min_size=1 if connected else 2,
            max_size=3,
            unique_by=lambda word: min(_turns(word)),
        )
    )
    orbit = [k for k, word in enumerate(words) for _ in _turns(word)]
    n = len(orbit)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    if connected:
        order = draw(st.permutations(range(n)))
        pairs += [(order[i], order[(i + 1) % n]) for i in range(n)]
    else:
        pairs = [(i, j) for i, j in pairs if orbit[i] <= orbit[j]]
    g = orbit_chain(words, pairs)
    return g, draw(st.lists(RATES, min_size=g.nvars, max_size=g.nvars))


def _orbit_count(g: ChainGraph) -> int:
    return len({min(_turns(state)) for state in g.states})


# 1212 turns into 2121 only; with 1122 it makes a chain of 2 orbits, 6 states
SHORT_ORBIT = (
    orbit_chain([(1, 2, 1, 2), (1, 1, 2, 2)], [(0, 2), (2, 0), (0, 1)]),
    [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5)],
)
# records 1234 <-> 3412 and 4123 <-> 2341: one orbit, two components swapped by rotation
SWAPPED_PAIRS = (orbit_chain([(1, 2, 3, 4)], [(0, 2)]), [Fraction(1), Fraction(1)])


@settings(max_examples=100, deadline=None)
@given(orbit_chains(connected=True))
@example(SHORT_ORBIT)
def test_orbit_solve_matches_bareiss_with_one_unknown_per_orbit(case):
    g, point = case
    nullity, solution = oracle_nullspace(g, point)
    assert nullity == 1
    with pytest.MonkeyPatch.context() as patch:
        unknowns = _spy_unknowns(patch)
        assert stationary_solve(g, point) == normalize_rationals(solution)
    assert set(unknowns) == {_orbit_count(g)}


@settings(max_examples=100, deadline=None)
@given(orbit_chains(connected=False))
@example(SWAPPED_PAIRS)
def test_orbit_chains_not_strongly_connected_raise_the_bareiss_nullity(case):
    g, point = case
    nullity, _ = oracle_nullspace(g, point)
    with pytest.raises(ReducibleChainError) as err:
        stationary_solve(g, point)
    assert err.value.dimension == nullity


@settings(max_examples=100, deadline=None)
@given(orbit_chains(connected=True))
@example(SHORT_ORBIT)
def test_orbit_chain_with_one_record_on_its_own_rate_uses_every_state(case):
    # the spare variable on one record whose class has more than one record:
    # rotation maps that record onto none, so there are no orbits to use
    g, point = case
    size = Counter(id(rec.rate) for rec in g.transitions)
    k = next((k for k, rec in enumerate(g.transitions) if size[id(rec.rate)] > 1), None)
    assume(k is not None)
    spare = LaurentPoly.variable(g.nvars - 1, g.nvars)
    records = list(g.transitions)
    records[k] = records[k]._replace(rate=spare)
    broken = replace(g, transitions=tuple(records))
    nullity, solution = oracle_nullspace(broken, point)
    assert nullity == 1
    with pytest.MonkeyPatch.context() as patch:
        unknowns = _spy_unknowns(patch)
        assert stationary_solve(broken, point) == normalize_rationals(solution)
    assert set(unknowns) == {len(g.states)}
