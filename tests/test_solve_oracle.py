"""stationary_solve against a dense fraction-free (Bareiss) reference.

The reference shares no code with the sparse modular solver; it is exact,
simple and slow, so it only runs on chains of a few states.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlqtasep.solve as solve
from mlqtasep.chains import ChainGraph, TransitionRecord, build_tasep_chain
from mlqtasep.core import build_composition
from mlqtasep.poly import LaurentPoly
from mlqtasep.solve import ReducibleChainError, normalize_rationals, stationary_solve


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
    g = build_tasep_chain(build_composition((1, 1, 2)))
    honest = solve._null_vector_mod
    monkeypatch.setattr(solve, "_null_vector_mod", lambda rows, n, p: (2, honest(rows, n, p)[1]))
    with pytest.raises(ReducibleChainError) as err:
        stationary_solve(g, (2, 1))
    assert err.value.dimension == 2
