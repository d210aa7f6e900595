"""Helpers, a Hypothesis strategy and oracles that only the tests use.

The two closed-form weights are the paper's special cases of the
conjectured weight, kept here in their own form so that tests can check
conjectured_exponents against them; q_int is the oracle of
q_int_derivative.
"""

from hypothesis import strategies as st

from mlqtasep.chains import ChainGraph
from mlqtasep.core import (
    BullyLabeling,
    Word,
    build_composition,
    bully_projection,
    enumerate_words,
)
from mlqtasep.poly import LaurentPoly


@st.composite
def compositions_up_to_six(draw):
    """A composition with N <= 6 and at least two species."""
    N = draw(st.integers(2, 6))
    cuts = sorted(draw(st.sets(st.integers(1, N - 1), min_size=1)))
    return build_composition(b - a for a, b in zip([0, *cuts], [*cuts, N]))


def transition_matrix(g: ChainGraph) -> list[list[LaurentPoly]]:
    """Symbolic generator with the column-sum-zero convention."""
    n = len(g.states)
    zero = LaurentPoly.zero(g.nvars)
    matrix = [[zero] * n for _ in range(n)]
    for rec in g.transitions:
        matrix[rec.dst][rec.src] = matrix[rec.dst][rec.src] + rec.rate
        matrix[rec.src][rec.src] = matrix[rec.src][rec.src] - rec.rate
    return matrix


def bully_partition(g: ChainGraph) -> tuple[list[int], list[Word]]:
    """Block id per queue state, blocks ordered like enumerate_words."""
    words = enumerate_words(g.composition)
    word_index = {w: i for i, w in enumerate(words)}
    blocks = [word_index[bully_projection(q, g.composition).word] for q in g.states]
    return blocks, words


def three_species_weight(labeling: BullyLabeling) -> LaurentPoly:
    """x1^(m3 - k) * x2^k with k the covered-3 count (three species)."""
    comp = labeling.composition
    if comp.n != 3:
        raise ValueError("three-species weight needs exactly 3 classes")
    k = labeling.covered_three_count()
    return LaurentPoly.monomial(1, (comp.m[2] - k, k))


def single_first_class_weight(labeling: BullyLabeling) -> LaurentPoly:
    """x1^(V_1 - z_1); the one-parameter weight when m_1 = 1."""
    comp = labeling.composition
    if comp.m[0] != 1:
        raise ValueError("single-first-class weight needs m_1 = 1")
    exps = [0] * (comp.n - 1)
    exps[0] = comp.V[0] - labeling.z1()
    return LaurentPoly.monomial(1, exps)


def q_int(k: int, names=("q",)) -> LaurentPoly:
    """The q-integer 1 + q + ... + q^(k-1)."""
    if k < 0:
        raise ValueError("q-integer index must be nonnegative")
    return LaurentPoly(1, {(i,): 1 for i in range(k)}, names)
