"""solve.lump against the quotient-chain reference.

The reference builds the quotient of a strongly lumpable partition from
each block's first state and then compares its summed rate per state pair
with the target's; lump makes one comparison per state and other block.
Both must agree on which chains lump onto which targets.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from mlqtasep.chains import ChainGraph, TransitionRecord
from mlqtasep.core import build_composition
from mlqtasep.poly import LaurentPoly
from mlqtasep.solve import lump
from helpers import first_state_quotient, reference_lump, same_rate_graph

MONOMIALS = st.builds(
    LaurentPoly.monomial, st.integers(1, 2), st.tuples(st.integers(0, 1), st.integers(0, 1))
)


@st.composite
def lumping_cases(draw):
    """A chain of 2-8 states with monomial rates (parallel records allowed),
    a surjective partition, and a target: the reference quotient when there
    is one, else the first states' rates, and either one with a rate altered."""
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=3 * n))
    records = tuple(TransitionRecord(a, b, draw(MONOMIALS), "edge") for a, b in edges)
    g = ChainGraph("random", build_composition((1, 1)), tuple((i + 1,) for i in range(n)), records, 2)
    count = draw(st.integers(1, n))
    blocks = [0] * n
    for k, state in enumerate(draw(st.permutations(range(n)))):
        blocks[state] = k if k < count else draw(st.integers(0, count - 1))
    quotient, _ = reference_lump(g, blocks)
    target = first_state_quotient(g, blocks) if quotient is None else quotient
    if target.transitions and draw(st.booleans()):
        k = draw(st.integers(0, len(target.transitions) - 1))
        altered = list(target.transitions)
        altered[k] = altered[k]._replace(rate=altered[k].rate * LaurentPoly.variable(0, 2))
        target = replace(target, transitions=tuple(altered))
    return g, blocks, target


@settings(max_examples=300, deadline=None)
@given(lumping_cases())
def test_lump_agrees_with_the_quotient_reference(case):
    g, blocks, target = case
    quotient, _ = reference_lump(g, blocks)
    counterexample = lump(g, blocks, target)
    assert (counterexample is None) == (quotient is not None and same_rate_graph(quotient, target))
    if counterexample is not None:
        assert counterexample["rate"] != counterexample["expected"]
