"""master_residual against the residual in LaurentPoly ring arithmetic.

The reference forms each transition's flow rate * weight as a polynomial
and adds it at the target and subtracts it at the source with LaurentPoly's
own + and -.  It shares no code with the term-dict accumulation of
master_residual; the property runs both on random small chains whose rates
and weights are Laurent polynomials of several terms that cancel.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mlqtasep.chains import ChainGraph, TransitionRecord
from mlqtasep.core import build_composition
from mlqtasep.poly import LaurentPoly
from mlqtasep.solve import master_residual


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
