"""Stationarity, lumpability and irreducibility, all in exact arithmetic.

The generator convention follows column sums: M[to][from] holds the rate
of from -> to, and each diagonal entry is minus the total rate leaving the
state.  A weight vector w is stationary iff M.w = 0, equivalently iff
every per-state residual (incoming minus outgoing flow) is identically
zero.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from typing import Sequence

from .chains import ChainGraph, TransitionRecord
from .poly import LaurentPoly


class ReducibleChainError(Exception):
    """Raised when a chain has no unique positive stationary vector.

    dimension is the generator's nullity at the rate point, as
    stationary_solve finds it modulo a prime; reason, when given, names the
    failure in place of the default dimension message.
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


# the Mersenne primes 2^k - 1 of the modular solve, in the order they are tried
_MERSENNE_EXPONENTS = (127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


def _null_vector_mod(rows: Sequence[dict[int, int]], n: int, p: int) -> tuple[int, list[int]]:
    """Nullity mod p of sparse integer rows in n unknowns, and a null vector
    when it is 1.  Each step pivots on the sparsest live row, at its column
    shared by the fewest live rows, and clears that column from the others.
    """
    rows = [{col: v % p for col, v in row.items() if v % p} for row in rows]
    col_rows: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for col in row:
            col_rows.setdefault(col, set()).add(r)
    heap = [(len(row), r) for r, row in enumerate(rows)]
    heapify(heap)
    pivots: list[tuple[int, dict[int, int]]] = []  # (column, rest of its row)
    while heap:
        size, r = heappop(heap)
        pivot = rows[r]
        if not size or pivot is None or size != len(pivot):
            continue  # an empty row, or a stale heap entry
        rows[r] = None
        col = min(pivot, key=lambda j: len(col_rows[j]))
        inverse = pow(pivot.pop(col), -1, p)
        for j in pivot:
            pivot[j] = pivot[j] * inverse % p
            col_rows[j].discard(r)
        for i in col_rows.pop(col) - {r}:
            row = rows[i]
            factor = row.pop(col)
            for j, v in pivot.items():
                value = (row.get(j, 0) - factor * v) % p
                if value:
                    row[j] = value
                    col_rows[j].add(i)
                else:
                    del row[j]
                    col_rows[j].discard(i)
            heappush(heap, (len(row), i))
        pivots.append((col, pivot))
    vector = [0] * n
    if n - len(pivots) == 1:
        vector[(set(range(n)) - {col for col, _ in pivots}).pop()] = 1
        for col, rest in reversed(pivots):
            vector[col] = -sum(v * vector[j] for j, v in rest.items()) % p
    return n - len(pivots), vector


def _reconstruct(residue: int, modulus: int) -> Fraction | None:
    """The fraction a/b = residue (mod modulus) with |a|, b <= sqrt(modulus/2),
    if there is one (Wang's rational reconstruction)."""
    bound = isqrt(modulus >> 1)
    r0, r1, s0, s1 = modulus, residue, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def stationary_solve(g: ChainGraph, point: Sequence[Fraction]) -> list[int]:
    """Exact stationary vector at a rate point, as coprime positive integers.

    Eliminates the evaluated generator (denominators cleared, one row
    dropped: the rows sum to zero) mod 2^127 - 1 with sparse pivots, and
    CRT-combines further Mersenne primes only while rational reconstruction
    fails.  The result is certified, not trusted: it is returned only when
    residual_at_point is exactly zero, and it is unique because the nullity
    over Q is at least 1 and at most the nullity mod p, which must be 1.
    ReducibleChainError carries that nullity mod p as .dimension, or 1 when
    the certified vector is not positive; ArithmeticError means no listed
    prime led to a certified vector.
    """
    n = len(g.states)
    point = [Fraction(v) for v in point]
    rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for rec in g.transitions:
        value = rec.rate.eval(point)
        rows[rec.dst][rec.src] = rows[rec.dst].get(rec.src, 0) + value
        rows[rec.src][rec.src] = rows[rec.src].get(rec.src, 0) - value
    denominator = lcm(*(v.denominator for row in rows for v in row.values()))
    # the rows sum to zero, so the first is redundant
    rows = [{col: int(v * denominator) for col, v in row.items() if v} for row in rows[1:]]
    modulus, residues = 1, [0] * n
    for exponent in _MERSENNE_EXPONENTS:
        p = (1 << exponent) - 1
        nullity, vector = _null_vector_mod(rows, n, p)
        if nullity != 1:
            if modulus == 1:
                raise ReducibleChainError(nullity)
            continue  # the nullity over Q is already proved 1: an unlucky prime
        total = sum(vector) % p
        if not total:
            continue
        # CRT onto the null vector scaled to sum 1, the same vector mod every prime
        inverse = pow(total * modulus, -1, p)
        residues = [r + modulus * ((v - r * total) * inverse % p) for r, v in zip(residues, vector)]
        modulus *= p
        candidate = [_reconstruct(r, modulus) for r in residues]
        if None in candidate:
            continue
        ints = normalize_rationals(candidate)
        if any(residual_at_point(g, ints, point)):
            continue
        bad = next((i for i, value in enumerate(ints) if value <= 0), None)
        if bad is not None:
            raise ReducibleChainError(
                1,
                f"stationary vector is not positive: state {g.state_label(bad)} gets "
                f"weight {ints[bad]}, so the chain is not irreducible",
            )
        return ints
    raise ArithmeticError("no certified stationary vector modulo the listed Mersenne primes")


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
    return _quotient_chain(g, partition, block_states)


def _quotient_chain(
    g: ChainGraph, partition: Sequence[int], block_states: Sequence | None = None
) -> ChainGraph:
    """lump without its lumpability check, for a partition already checked."""
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
