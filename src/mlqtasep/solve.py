"""Stationarity, lumpability and the voltage cover's connectivity, all in exact arithmetic.

The generator convention follows column sums: M[to][from] holds the rate
of from -> to, and each diagonal entry is minus the total rate leaving the
state.  A weight vector w is stationary iff M.w = 0, equivalently iff
every per-state residual (incoming minus outgoing flow) is identically
zero.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import add
from typing import Sequence

from .chains import ChainGraph
from .poly import LaurentPoly, eval_common


class ReducibleChainError(Exception):
    """Raised when a chain has no unique positive stationary vector.

    dimension is the generator's nullity at the rate point, as
    stationary_solve finds it modulo a prime; reason, when given, names the
    failure in place of the default dimension message.
    """

    def __init__(self, dimension: int, reason: str | None = None):
        self.dimension = dimension
        super().__init__(reason or f"stationary space has dimension {dimension}, expected 1")


def orbit_heads(g: ChainGraph, weights: Sequence[LaurentPoly]) -> Sequence[int]:
    """g.rotation_heads on a word chain with weights equal along each orbit,
    else each state itself; queue chains are not searched, as their rotation
    search would cost about what it saves."""
    heads = g.rotation_heads if g.kind == "tasep" else range(len(weights))
    constant = all(weights[head] is w or weights[head] == w for head, w in zip(heads, weights))
    return heads if constant else range(len(weights))


def master_residual(g: ChainGraph, weights: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """Per-state balance: sum of incoming rate * weight minus outgoing.

    Summed at the states that are their own orbit_heads, whose residual
    objects the rest of each orbit shares, in one exponent -> coefficient
    dict per state: every term of rate * weight added at the destination and
    subtracted at the source, and a term dropped as soon as it cancels to 0
    (the last one by clear(), which also frees the table an emptied dict keeps).
    The terms of rate * weight are formed once per distinct pair of rate id
    and weight object (the weights keep theirs alive, so ids key the pairs),
    with each exponent tuple interned to a small-int code for the call, so
    the per-state dicts hash ints, not tuples.
    """
    if len(weights) != len(g.states):
        raise ValueError("need one weight per state")
    heads = orbit_heads(g, weights)
    sums = [{} if head == state else None for state, head in enumerate(heads)]
    t = g.transitions
    products: list[dict[int, list]] = [{} for _ in t.rates]  # per rate id: id(weight) -> (code, coeff) terms
    codes: dict[tuple[int, ...], int] = {}  # exponent tuple -> its code
    for src, dst, r in zip(t.sources, t.targets, t.rate_ids):
        into, out = sums[dst], sums[src]
        if into is None and out is None:
            continue
        weight = weights[src]
        terms = products[r].get(id(weight))
        if terms is None:
            terms = products[r][id(weight)] = [
                (codes.setdefault(tuple(map(add, e1, e2)), len(codes)), c1 * c2)
                for e1, c1 in t.rates[r].terms.items()
                for e2, c2 in weight.terms.items()
            ]
        for code, coeff in terms:
            if into is not None:
                total = into.get(code, 0) + coeff
                if total:
                    into[code] = total
                elif len(into) > 1:
                    del into[code]
                else:
                    into.clear()
            if out is not None:
                total = out.get(code, 0) - coeff
                if total:
                    out[code] = total
                elif len(out) > 1:
                    del out[code]
                else:
                    out.clear()
    exponents, zero = list(codes), LaurentPoly.zero(g.nvars)
    residuals = [LaurentPoly(g.nvars, {exponents[k]: v for k, v in terms.items()}) if terms else zero for terms in sums]
    return [residuals[head] for head in heads]


def residual_at_point(
    g: ChainGraph, values: Sequence[Fraction | int], rates: Sequence[Fraction | int]
) -> list[Fraction | int]:
    """Numeric twin of master_residual for an already evaluated weight vector.

    rates holds each transition's rate evaluated at the point, in the order
    of g.transitions.  Integer values and rates give integer residuals.
    """
    residuals, t = [0] * len(g.states), g.transitions
    for src, dst, rate in zip(t.sources, t.targets, rates, strict=True):
        flow = rate * values[src]
        residuals[dst] += flow
        residuals[src] -= flow
    return residuals


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


def _reconstruct(residue: int, modulus: int) -> tuple[int, int] | None:
    """The fraction a/b = residue (mod modulus) with |a|, b <= sqrt(modulus/2),
    if there is one, as the coprime pair (a, b) with b > 0 (Wang's rational
    reconstruction)."""
    bound = isqrt(modulus >> 1)
    r0, r1, s0, s1 = modulus, residue, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _reconstruct_vector(residues: Sequence[int], modulus: int) -> list[int] | None:
    """Each residue's _reconstruct fraction, all scaled to coprime integers, or None
    if one has none.  While the running common denominator d is within Wang's
    bound, r * d within it (mod modulus, from -modulus/2) is the entry times d,
    as such a fraction is unique; other entries run _reconstruct, and d grows."""
    bound, half, d, scaled = isqrt(modulus >> 1), modulus >> 1, 1, []
    for r in residues:
        a = (r * d + half) % modulus - half
        if abs(a) > bound or d > bound:
            pair = _reconstruct(r, modulus)
            if pair is None:
                return None
            d = lcm(d, pair[1])
            a = pair[0] * (d // pair[1])
        scaled.append((a, d))
    ints = [a * (d // at) for a, at in scaled]
    common = gcd(*ints)
    return [v // common for v in ints]


def stationary_solve(g: ChainGraph, point: Sequence[Fraction]) -> list[int]:
    """Exact stationary vector at a rate point, as coprime positive integers.

    Builds the integer generator, its rates the numerators of the chain's
    distinct rate objects, g.transitions.rates, in one eval_common call, and
    eliminates one unknown per orbit of g.rotation_orbits if the chain is
    strongly connected with every evaluated rate positive, else one per
    state.  An orbit's row is its first state's row with the columns summed per orbit;
    the first row is dropped, as the rows weighted by orbit sizes sum to
    zero.  The elimination is sparse and mod 2^127 - 1; further Mersenne
    primes are CRT-combined only while _reconstruct_vector fails, which
    reconstructs only the entries that bring a new common denominator.

    The result is certified, not trusted: each orbit's value goes to all its
    states, and the vector is returned only when residual_at_point on the
    full chain is exactly zero.  It is unique because the chain is strongly
    connected with positive rates, or, with single-state orbits, because the
    nullity over Q is at least 1 and at most the nullity mod p.  A prime
    whose nullity is not 1 is unlucky, and skipped, when an earlier prime
    gave 1 or the chain is strongly connected with positive rates; else
    ReducibleChainError carries that nullity as .dimension (1 for a
    certified vector that is not positive).  ArithmeticError: no listed
    prime led to a certified vector.
    """
    n, t = len(g.states), g.transitions
    # records share their chain's few rate objects: evaluate each one once
    numerators, _ = eval_common(t.rates, point)
    rates = list(map(numerators.__getitem__, t.rate_ids))
    connected = min(rates, default=1) > 0 and g.irreducible
    orbit, heads = (g.rotation_orbits, g.rotation_heads) if connected else (range(n), range(n))
    k = max(orbit) + 1
    quotient: list[dict[int, int]] = [{} for _ in range(k)]
    for src, dst, value in zip(t.sources, t.targets, rates):
        block, into = orbit[src], orbit[dst]
        if heads[dst] == dst:
            quotient[into][block] = quotient[into].get(block, 0) + value
        if heads[src] == src:
            quotient[block][block] = quotient[block].get(block, 0) - value
    modulus, residues = 1, [0] * k
    for exponent in _MERSENNE_EXPONENTS:
        p = (1 << exponent) - 1
        # the rows weighted by orbit sizes sum to zero, so the first is redundant
        nullity, vector = _null_vector_mod(quotient[1:], k, p)
        if nullity != 1:
            if modulus == 1 and not connected:
                raise ReducibleChainError(nullity)
            continue  # the nullity over Q is proved 1: an unlucky prime
        total = sum(vector) % p
        if not total:
            continue
        # CRT onto the null vector scaled to sum 1, the same vector mod every prime
        inverse = pow(total * modulus, -1, p)
        residues = [r + modulus * ((v - r * total) * inverse % p) for r, v in zip(residues, vector)]
        modulus *= p
        per_orbit = _reconstruct_vector(residues, modulus)
        if per_orbit is None:
            continue
        ints = [per_orbit[block] for block in orbit]
        if any(residual_at_point(g, ints, rates)):
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


def point_vector(weights: Sequence[LaurentPoly], point: Sequence[Fraction]) -> list[int]:
    """The weights at a rate point as coprime integers, a positive multiple of their values."""
    numerators, _ = eval_common(weights, point)
    common = gcd(*numerators)
    return [v // common for v in numerators]


# ---------------------------------------------------------------------------
# Lumping
# ---------------------------------------------------------------------------


def lump(g: ChainGraph, blocks: Sequence[int], target: ChainGraph) -> dict | None:
    """None when g lumps onto target: every state's total rate into each
    other block equals target's rate from the state's own block into that
    block.  That one comparison is strong lumpability and "the quotient is
    target" at once.  Otherwise the first counterexample: the state, the
    target state it flows into, its rate and the expected rate.

    blocks[i] is the target state index of g's state i; every target state
    must be some state's block.
    """
    if len(blocks) != len(g.states):
        raise ValueError("partition must cover all states")
    if sorted(set(blocks)) != list(range(len(target.states))):
        raise ValueError(f"block ids must be 0..{len(target.states) - 1}, each one used")
    expected = _rates_into_blocks(target, range(len(target.states)))
    zero = LaurentPoly.zero(g.nvars)
    for state, rates in enumerate(_rates_into_blocks(g, blocks)):
        want = expected[blocks[state]]
        if rates != want:
            for into in sorted(rates.keys() | want.keys()):
                if rates.get(into, zero) != want.get(into, zero):
                    return {
                        "state": g.state_label(state),
                        "into": target.state_label(into),
                        "rate": str(rates.get(into, zero)),
                        "expected": str(want.get(into, zero)),
                    }
    return None


def _rates_into_blocks(g: ChainGraph, blocks: Sequence[int]) -> list[dict[int, LaurentPoly]]:
    """Per state, its total rate into each block but its own; flow inside a
    block is absorbed by the diagonal."""
    into: list[dict[int, LaurentPoly]] = [{} for _ in g.states]
    t = g.transitions
    for src, dst, rate in zip(t.sources, t.targets, map(t.rates.__getitem__, t.rate_ids)):
        block = blocks[dst]
        if block != blocks[src]:
            rates = into[src]
            rates[block] = rates[block] + rate if block in rates else rate
    return into


# ---------------------------------------------------------------------------
# Connectivity of the voltage cover
# ---------------------------------------------------------------------------


def voltages_generate(g: ChainGraph) -> bool:
    """Whether gcd(N, phi(u) - v - phi(w)) = 1 over g's records u -> w of
    voltage v (0 on a chain with none), N the ring's size, phi = g.potentials
    reaching every state: on a strongly connected g, exactly when its N-fold
    cover, (u, a) -> (w, a - v) on states (u, a) for a mod N, is."""
    phi, common, t = g.potentials, g.composition.N, g.transitions
    for src, dst, v in zip(t.sources, t.targets, g.voltages or repeat(0, len(t)), strict=True):
        common = gcd(common, phi[src] - v - phi[dst])
        if common == 1:
            return True
    return common == 1
