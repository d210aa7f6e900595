"""master_residual against the residual in LaurentPoly ring arithmetic,
and against the full loop on word chains.

The reference forms each transition's flow rate * weight as a polynomial
and adds it at the target and subtracts it at the source with LaurentPoly's
own + and -.  It shares no code with the term-dict accumulation of
master_residual; the property runs both on random small chains whose rates
and weights are Laurent polynomials of several terms that cancel.

On a word chain whose weights are equal along each rotation orbit,
master_residual sums one word per orbit; reference_master_residual sums
every word.  They must agree on every word chain with N <= 6, for the
aggregated queue weights, for drawn weights that are orbit-constant (one
object per orbit, or equal copies) and for drawn weights that are not.

master_residual forms the terms of rate * weight once per distinct pair
of rate and weight objects.  A second property draws rates and weights
from small pools, so that records share rates and states share weights as
built chains do, or gives every record and state a fresh copy, and asks
for the reference residual either way.
"""

import random
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlqtasep.verify as verify
from mlqtasep.chains import ChainGraph, TransitionRecord, build_fm_chain, build_tasep_chain
from mlqtasep.core import build_composition, project_queues
from mlqtasep.poly import LaurentPoly
from mlqtasep.solve import master_residual, orbit_heads
from mlqtasep.verify import check_main_conjecture, iter_compositions
from helpers import compositions_up_to_six, full_word_weights, reference_master_residual


def oracle_residual(g: ChainGraph, weights) -> list[LaurentPoly]:
    zero = LaurentPoly.zero(g.nvars)
    residuals = [zero] * len(g.states)
    for rec in g.transitions:
        flow = rec.rate * weights[rec.src]
        residuals[rec.dst] = residuals[rec.dst] + flow
        residuals[rec.src] = residuals[rec.src] - flow
    return residuals


# Laurent polynomials in x1, x2 of one to four terms, exponents in -2..2
POLYS = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=4,
).map(lambda terms: LaurentPoly(2, terms))


@st.composite
def weighted_chains(draw):
    """A chain of 2-10 states, its weights, and the states no free record
    touches.  Balanced pairs a -> b at rate r * w_b and b -> a at r * w_a
    carry equal flows, so their terms cancel exactly; free records have
    random rates and usually leave their two states a nonzero residual."""
    n = draw(st.integers(2, 10))
    weights = draw(st.lists(POLYS, min_size=n, max_size=n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] != pair[1]
    )
    records = []
    for a, b in draw(st.lists(pairs, max_size=2 * n)):
        r = draw(POLYS)
        records += [(a, b, r * weights[b]), (b, a, r * weights[a])]
    free = draw(st.lists(pairs, max_size=n))
    records += [(a, b, draw(POLYS)) for a, b in free]
    records = draw(st.permutations(records))
    g = ChainGraph(
        kind="custom",
        composition=build_composition((1, 2)),
        states=tuple((i + 1,) for i in range(n)),
        transitions=tuple(TransitionRecord(a, b, rate, "a") for a, b, rate in records),
        nvars=2,
    )
    balanced = set(range(n)) - {state for pair in free for state in pair}
    return g, weights, balanced


@settings(max_examples=200, deadline=None)
@given(weighted_chains())
def test_master_residual_matches_the_ring_arithmetic(case):
    g, weights, balanced = case
    expected = oracle_residual(g, weights)
    residuals = master_residual(g, weights)
    assert residuals == expected
    assert [r.is_zero() for r in residuals] == [r.is_zero() for r in expected]
    assert all(residuals[state].is_zero() for state in balanced)


@st.composite
def pooled_chains(draw):
    """A chain of 2-10 states whose records draw their rates from a pool of
    one to three objects and whose states draw their weights from another;
    and whether every rate, and every weight, was then replaced by a fresh
    copy of itself (p + 0)."""
    n = draw(st.integers(2, 10))
    rates = draw(st.lists(POLYS, min_size=1, max_size=3))
    pool = draw(st.lists(POLYS, min_size=1, max_size=3))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] != pair[1]
    )
    records = [(a, b, draw(st.sampled_from(rates))) for a, b in draw(st.lists(pairs, min_size=1, max_size=3 * n))]
    weights = [draw(st.sampled_from(pool)) for _ in range(n)]
    fresh_rates, fresh_weights = draw(st.booleans()), draw(st.booleans())
    if fresh_rates:
        records = [(a, b, rate + 0) for a, b, rate in records]
    if fresh_weights:
        weights = [w + 0 for w in weights]
    g = ChainGraph(
        kind="custom",
        composition=build_composition((1, 2)),
        states=tuple((i + 1,) for i in range(n)),
        transitions=tuple(TransitionRecord(a, b, rate, "a") for a, b, rate in records),
        nvars=2,
    )
    return g, weights, fresh_rates, fresh_weights


@settings(max_examples=200, deadline=None)
@given(pooled_chains())
def test_master_residual_matches_the_reference_with_shared_or_fresh_objects(case):
    g, weights, fresh_rates, fresh_weights = case
    rate_objects = {id(rec.rate) for rec in g.transitions}
    weight_objects = {id(w) for w in weights}
    assert len(rate_objects) == len(g.transitions) if fresh_rates else len(rate_objects) <= 3
    assert len(weight_objects) == len(weights) if fresh_weights else len(weight_objects) <= 3
    expected = reference_master_residual(g, weights)
    assert master_residual(g, weights) == expected == oracle_residual(g, weights)


@pytest.mark.parametrize(
    "m, rule, state, residual",
    [
        ((1, 1, 2, 1), "one_first_class", "00001/00101/11011", "2*x1^4 - x1^5 - x1^6"),
        ((1, 2, 2), "three_species", "00001/11001", "x1^3 + x1^2*x2 - x1^4 - x1^3*x2"),
    ],
    ids=["fm1-1121", "fm3-122"],
)
def test_residual_counterexample_with_one_weight_off(m, rule, state, residual):
    # the states share one monomial per exponent and the records their few
    # rates; queue 7's weight times x1 is an object of its own.  The first
    # failing state and its residual text are the reference's
    c = build_composition(m)
    chain = build_fm_chain(c, rule)
    exponents = chain.projection.exponents
    if rule == "one_first_class":
        exponents = [(e[0],) + (0,) * (c.n - 2) for e in exponents]
    weights = verify._monomials(exponents)
    weights[7] = weights[7] * LaurentPoly.variable(0, c.n - 1)
    residuals = reference_master_residual(chain, weights)
    bad = next(i for i, r in enumerate(residuals) if r)
    assert (chain.state_label(bad), str(residuals[bad])) == (state, residual)
    assert verify._residual_failure(chain, weights) == {"check": "residual", "state": state, "residual": residual}


# ---------------------------------------------------------------------------
# Word chains: the residual at one word per rotation orbit
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _word_chain(m):
    return build_tasep_chain(build_composition(m))


def _shares_per_orbit(chain, values) -> bool:
    """Whether every state holds its orbit head's object."""
    return all(value is values[head] for value, head in zip(values, chain.rotation_heads))


@pytest.mark.parametrize("m", [c.m for c in iter_compositions(6)], ids=str)
def test_head_residual_equals_the_full_loop_on_the_aggregated_weights(m):
    # the aggregated weights are orbit-constant on all 57 compositions, so
    # the residual is summed at the heads and shared along each orbit
    chain, weights = full_word_weights(m)
    residuals = master_residual(chain, weights)
    assert residuals == reference_master_residual(chain, weights)
    assert _shares_per_orbit(chain, residuals)


@pytest.mark.parametrize("m", [c.m for c in iter_compositions(5) if c.m[0] >= 2], ids=str)
def test_main_compares_each_words_weight_with_its_heads_once(monkeypatch, m):
    # a sum equal to its orbit head's is the head's object, so orbit_heads
    # finds it by identity in the residual and in the point check
    c = build_composition(m)
    words = len(_word_chain(m).states)
    eq, compared = LaurentPoly.__eq__, []
    monkeypatch.setattr(LaurentPoly, "__eq__", lambda a, b: compared.append(a) or eq(a, b))
    assert check_main_conjecture(c).ok
    assert len(compared) == words


def test_a_sum_unequal_to_its_heads_keeps_its_own_object():
    # one queue of (2,1,1) counted twice, at a word that does not head its
    # orbit: that word's sum is its own object, every other word holds its
    # head's, and orbit_heads takes every word as its own head
    c = build_composition((2, 1, 1))
    chain, projection = _word_chain(c.m), project_queues(c)
    heads, index = chain.rotation_heads, {w: i for i, w in enumerate(chain.states)}
    q = next(q for q, w in enumerate(projection.words) if heads[index[w]] != index[w])
    doubled = replace(
        projection,
        words=projection.words + (projection.words[q],),
        exponents=projection.exponents + (projection.exponents[q],),
    )
    weights = verify._aggregated_weights(chain, doubled)
    off = index[projection.words[q]]
    assert weights[off] != weights[heads[off]]
    assert all(w is weights[head] for state, (w, head) in enumerate(zip(weights, heads)) if state != off)
    assert orbit_heads(chain, weights) == range(len(weights))


def _polys(nvars):
    """Laurent polynomials in nvars variables of one to three terms, exponents in -2..2."""
    exponents = st.tuples(*[st.integers(-2, 2)] * nvars)
    terms = st.dictionaries(exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    return terms.map(lambda terms: LaurentPoly(nvars, terms))


@st.composite
def word_chains_with_weights(draw):
    """A word chain with N <= 6, weights picked from a small drawn pool, and
    their shape: one object per orbit, equal copies per orbit, or one pick
    per word, which is orbit-constant only by chance."""
    chain = _word_chain(draw(compositions_up_to_six()).m)
    pool = draw(st.lists(_polys(chain.nvars), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(["shared", "copies", "free"]))
    heads = chain.rotation_heads
    picks = {head: rng.choice(pool) for head in heads}
    if shape == "shared":
        weights = [picks[head] for head in heads]
    elif shape == "copies":
        weights = [LaurentPoly(chain.nvars, dict(picks[head].terms)) for head in heads]
    else:
        weights = [rng.choice(pool) for _ in heads]
    return chain, weights, shape


@settings(max_examples=150, deadline=None)
@given(word_chains_with_weights())
def test_head_residual_equals_the_full_loop_on_drawn_weights(case):
    chain, weights, shape = case
    residuals = master_residual(chain, weights)
    assert residuals == reference_master_residual(chain, weights)
    constant = all(w == weights[head] for w, head in zip(weights, chain.rotation_heads))
    assert _shares_per_orbit(chain, residuals) or not constant
    if shape != "free":
        assert constant


def _off_word(chain) -> int:
    """The first word that does not head its rotation orbit."""
    return next(s for s, head in enumerate(chain.rotation_heads) if head != s)


@pytest.mark.parametrize("m", [(1, 1, 2), (2, 1, 1), (1, 2, 3), (1, 1, 1, 1)], ids=str)
def test_a_non_head_word_weight_off_shows_in_the_residual(m):
    # one non-head word's weight times x1: the weights are no longer
    # orbit-constant, so every word is summed, and that word's outflow is off
    chain, weights = full_word_weights(m)
    off = _off_word(chain)
    weights = list(weights)
    weights[off] = weights[off] * LaurentPoly.variable(0, chain.nvars)
    residuals = master_residual(chain, weights)
    assert residuals == reference_master_residual(chain, weights)
    assert not residuals[off].is_zero()


@pytest.mark.parametrize("m", [(1, 1, 2), (2, 1, 1), (1, 2, 2)], ids=str)
def test_main_counterexample_is_the_full_loops_when_a_non_head_word_is_off(monkeypatch, m):
    import mlqtasep.verify as verify

    original = verify._word_weights
    x1 = LaurentPoly.variable(0, len(m) - 1)

    def perturbed(c):
        chain, weights, failure = original(c)
        off = _off_word(chain)
        return chain, weights[:off] + [weights[off] * x1] + weights[off + 1:], failure

    monkeypatch.setattr(verify, "_word_weights", perturbed)
    c = build_composition(m)
    report = check_main_conjecture(c)
    chain, weights, _ = perturbed(c)
    residuals = reference_master_residual(chain, weights)
    bad = next(i for i, r in enumerate(residuals) if not r.is_zero())
    assert report.status == "disagree"
    assert report.counterexample == {
        "check": "symbolic-residual", "word": chain.state_label(bad), "residual": str(residuals[bad])
    }
