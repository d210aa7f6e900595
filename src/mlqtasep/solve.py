"""Stationarity, lumpability and irreducibility, all in exact arithmetic.

The generator convention follows column sums: M[to][from] holds the rate
of from -> to, and each diagonal entry is minus the total rate leaving the
state.  A weight vector w is stationary iff M.w = 0, equivalently iff
every per-state residual (incoming minus outgoing flow) is identically
zero.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .chains import ChainGraph, TransitionRecord
from .poly import LaurentPoly


class ReducibleChainError(Exception):
    """Raised when a chain has no unique positive stationary vector.

    dimension is that of the generator's nullspace at the rate point, 0 when
    none was computed; reason, when given, names the failure in place of the
    default dimension message.
    """

    def __init__(self, dimension: int, reason: str | None = None):
        self.dimension = dimension
        super().__init__(reason or f"stationary space has dimension {dimension}, expected 1")


def master_residual(g: ChainGraph, weights: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """Per-state balance: sum of incoming rate * weight minus outgoing."""
    if len(weights) != len(g.states):
        raise ValueError("need one weight per state")
    zero = LaurentPoly.zero(g.nvars)
    residuals = [zero] * len(g.states)
    for rec in g.transitions:
        residuals[rec.dst] = residuals[rec.dst] + rec.rate * weights[rec.src]
        residuals[rec.src] = residuals[rec.src] - rec.rate * weights[rec.src]
    return residuals


def residual_at_point(
    g: ChainGraph, values: Sequence[Fraction], point: Sequence[Fraction]
) -> list[Fraction]:
    """Numeric twin of master_residual for an already evaluated weight vector."""
    residuals = [Fraction(0)] * len(g.states)
    for rec in g.transitions:
        flow = rec.rate.eval(point) * values[rec.src]
        residuals[rec.dst] += flow
        residuals[rec.src] -= flow
    return residuals


def transition_matrix(g: ChainGraph) -> list[list[LaurentPoly]]:
    """Symbolic generator with the column-sum-zero convention."""
    n = len(g.states)
    zero = LaurentPoly.zero(g.nvars)
    matrix = [[zero] * n for _ in range(n)]
    for rec in g.transitions:
        matrix[rec.dst][rec.src] = matrix[rec.dst][rec.src] + rec.rate
        matrix[rec.src][rec.src] = matrix[rec.src][rec.src] - rec.rate
    return matrix


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


def stationary_solve(g: ChainGraph, point: Sequence[Fraction]) -> list[int]:
    """Exact stationary vector at a rate point, as coprime positive integers.

    Builds the evaluated generator, clears denominators, and extracts the
    one-dimensional nullspace by fraction-free elimination followed by
    rational back substitution.  Raises ReducibleChainError when the
    nullspace dimension differs from one.
    """
    n = len(g.states)
    point = [Fraction(v) for v in point]
    rates = [Fraction(0)] * n  # total outgoing rate per state
    entries: dict[tuple[int, int], Fraction] = {}
    for rec in g.transitions:
        value = rec.rate.eval(point)
        entries[(rec.dst, rec.src)] = entries.get((rec.dst, rec.src), Fraction(0)) + value
        rates[rec.src] += value
    denominator = 1
    for value in list(entries.values()) + rates:
        denominator = lcm(denominator, value.denominator)
    matrix = [[0] * n for _ in range(n)]
    for (dst, src), value in entries.items():
        matrix[dst][src] = int(value * denominator)
    for state, total in enumerate(rates):
        matrix[state][state] -= int(total * denominator)
    echelon, pivots = _bareiss_echelon(matrix)
    free_cols = [c for c in range(n) if c not in set(pivots)]
    if len(free_cols) != 1:
        raise ReducibleChainError(len(free_cols))
    solution = [Fraction(0)] * n
    solution[free_cols[0]] = Fraction(1)
    for row, pivot_col in reversed(list(zip(echelon, pivots))):
        acc = Fraction(0)
        for col in range(pivot_col + 1, n):
            if row[col]:
                acc += row[col] * solution[col]
        solution[pivot_col] = -acc / row[pivot_col]
    scale = lcm(*[value.denominator for value in solution])
    ints = [int(value * scale) for value in solution]
    common = gcd(*ints)
    ints = [value // common for value in ints]
    negatives = sum(1 for value in ints if value < 0)
    if negatives == n:
        ints = [-value for value in ints]
    bad = next((i for i, value in enumerate(ints) if value <= 0), None)
    if bad is not None:
        raise ReducibleChainError(
            1,
            f"stationary vector is not positive: state {g.state_label(bad)} gets "
            f"weight {ints[bad]}, so the chain is not irreducible",
        )
    return ints


def normalize_rationals(values: Sequence[Fraction]) -> list[int]:
    """Scale a positive rational vector to coprime positive integers."""
    values = [Fraction(v) for v in values]
    scale = lcm(*[v.denominator for v in values])
    ints = [int(v * scale) for v in values]
    common = gcd(*ints)
    return [v // common for v in ints]


# ---------------------------------------------------------------------------
# Lumping
# ---------------------------------------------------------------------------


def _block_rates(
    g: ChainGraph, partition: Sequence[int], out: list[list[TransitionRecord]], state: int
) -> dict[int, LaurentPoly]:
    """Total symbolic rate from one state into each foreign block."""
    own = partition[state]
    acc: dict[int, LaurentPoly] = {}
    for rec in out[state]:
        block = partition[rec.dst]
        if block == own:
            continue  # intra-block flow is absorbed by the diagonal
        acc[block] = acc.get(block, LaurentPoly.zero(g.nvars)) + rec.rate
    return acc


def check_lumpability(
    g: ChainGraph, partition: Sequence[int]
) -> tuple[bool, dict | None]:
    """Strong lumpability: block-entry rates agree within every block."""
    if len(partition) != len(g.states):
        raise ValueError("partition must cover all states")
    out = g.out_records()
    representative: dict[int, tuple[int, dict[int, LaurentPoly]]] = {}
    for state in range(len(g.states)):
        rates = _block_rates(g, partition, out, state)
        block = partition[state]
        if block not in representative:
            representative[block] = (state, rates)
            continue
        rep_state, rep_rates = representative[block]
        if rates != rep_rates:
            zero = LaurentPoly.zero(g.nvars)
            diff = next(
                b
                for b in sorted(set(rates) | set(rep_rates))
                if rates.get(b, zero) != rep_rates.get(b, zero)
            )
            return False, {
                "block": block,
                "state": g.state_label(state),
                "other": g.state_label(rep_state),
                "target_block": diff,
                "rate": str(rates.get(diff, zero)),
                "other_rate": str(rep_rates.get(diff, zero)),
            }
    return True, None


def lump(
    g: ChainGraph, partition: Sequence[int], block_states: Sequence | None = None
) -> ChainGraph:
    """Quotient chain on the partition blocks; rejects non-lumpable input."""
    ok, counterexample = check_lumpability(g, partition)
    if not ok:
        raise ValueError(f"partition is not lumpable: {counterexample}")
    blocks = sorted(set(partition))
    if blocks != list(range(len(blocks))):
        raise ValueError("block ids must be 0..B-1")
    out = g.out_records()
    first_member = {}
    for state, block in enumerate(partition):
        first_member.setdefault(block, state)
    records = []
    for block in blocks:
        rates = _block_rates(g, partition, out, first_member[block])
        for target in sorted(rates):
            records.append(
                TransitionRecord(
                    src=block, dst=target, rate=rates[target], mechanism="lumped"
                )
            )
    if block_states is None:
        block_states = tuple(g.states[first_member[b]] for b in blocks)
    return ChainGraph(
        kind=f"{g.kind}/lumped",
        composition=g.composition,
        states=tuple(block_states),
        transitions=tuple(records),
        nvars=g.nvars,
    )


def same_rate_graph(a: ChainGraph, b: ChainGraph) -> bool:
    """Equal state lists and equal aggregated rate between every pair."""
    return a.states == b.states and a.rate_map() == b.rate_map()


# ---------------------------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------------------------


def irreducible(g: ChainGraph) -> bool:
    """True iff the transition digraph is strongly connected."""
    n = len(g.states)
    if n == 0:
        return False
    if n == 1:
        return True
    forward: list[list[int]] = [[] for _ in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    for rec in g.transitions:
        forward[rec.src].append(rec.dst)
        backward[rec.dst].append(rec.src)
    return _reaches_all(forward, 0, n) and _reaches_all(backward, 0, n)


def _reaches_all(adjacency: list[list[int]], start: int, n: int) -> bool:
    seen = [False] * n
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        node = stack.pop()
        for nxt in adjacency[node]:
            if not seen[nxt]:
                seen[nxt] = True
                count += 1
                stack.append(nxt)
    return count == n
