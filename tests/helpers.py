"""Helpers, a Hypothesis strategy and oracles that only the tests use.

The two closed-form weights are the paper's special cases of the
conjectured weight, kept here in their own form so that tests can check
conjectured_exponents against them; conjectured_exponents reads the
exponents off the z-statistics, the oracle of the per-row rule in core.
q_int is the oracle of q_int_derivative; h_bruteforce, h_k summed over
multisets, that of verify's binomial series.  reference_projection is the
whole-queue bully-path projection, the oracle of the row-step fold in
core; reference_project_row labels one lower row pattern from one upper
row, sorting the paths anew for each pair, the oracle of
core.project_rows, which orders them once per upper row.  reference_eval
is the term-by-term Fraction evaluation, the oracle of LaurentPoly.eval.  ringing_path and reference_ringing are the two-pass
ringing step (list the path's columns, then swap along them), the oracle
of the one-pass ringing_transition.  reference_lump builds the quotient
chain of a strongly lumpable partition, and same_rate_graph compares two
chains by their summed rate per state pair: together they are the oracle
of solve.lump's one-pass comparison; first_state_quotient makes a target
from each block's first state whether g lumps or not.
reference_regular_jump moves an occupied front seat's two cells one by
one, the oracle of the coupe chain's regular jumps, which it reads off
the ring at the front seat.  reference_decompose_coupes walks each
coupe column by column and re-checks its shape, the oracle of the
one-pass cut at the run ends in chains.decompose_coupes.
reference_three_blocks walks each maximal block of 3s of a word from its
first column, the oracle of the fm3 lemma's blocks, which it reads off
the coupe cut as each coupe's head.
reference_gillespie_run is the sampler loop that calls expovariate and
clamps the bisect index every event, the oracle of sim.gillespie_run's jump
table: their results must be equal, float for float.
reference_ringing_rate is the per-ring rate rule, the oracle of the
one rate table per chain in chains.ringing_chain.
reference_fm1_theorem is the fm1 check on the whole ringing chain, the
oracle of check_fm1_theorem's orbit chain, and reference_uniform_stationarity
the uniform check on the whole rate-one chain, the oracle of
check_uniform_stationarity's orbit chain; reference_rotation_orbits
finds the rotation orbits from the generator's rows at a rate point, the
oracle of ChainGraph.rotation_orbits; unrolled_chain spells out the
cover of a voltage graph, the oracle of ChainGraph.irreducible plus
solve.voltages_generate, and
turn_to_representative turns a queue with m_1 = 1 to its orbit's
representative.  reference_block_sums adds up fm3's block sums queue by
queue, the oracle of verify's word aggregation.
reference_master_residual sums the balance at every state, the oracle of
solve.master_residual, which sums it at one state per rotation orbit of a
word chain whose weights are orbit-constant; full_word_weights is a word
chain with verify's aggregation of every queue onto it, the oracle of the
orbit representatives' word weights.  normalize_rationals scales a
rational vector to coprime integers, the form stationary_solve returns;
reference_reconstruct is Wang's reconstruction giving a Fraction, the
oracle of solve._reconstruct's integer pairs; reference_reconstruct_vector
reconstructs every entry and scales by the lcm of the denominators, the
oracle of solve._reconstruct_vector's running common denominator.
reference_ring_walk climbs every ring through all upper rows, the oracle
of core._ring_walk, which sums the climb once per choice of upper rows
and hands over one flat column; flat_walk flattens the oracle's per-queue
lists into that column.  records_by_state groups a chain's records, read
from its columns, by source or by target, as the tests and the sampler
oracle read them.
bound_suite_inputs
caps how many compositions a suite's predicate may take.  golden_form puts
reports in the form of the benchmark's golden files under GOLDEN_DIR.
"""

import functools
import json
import random
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, product
from math import gcd, isqrt, lcm
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from hypothesis import strategies as st

from mlqtasep.chains import ChainGraph, Coupe, TransitionRecord, _move_left, build_fm_chain, build_tasep_chain
from mlqtasep.core import (
    BullyLabeling,
    Composition,
    Queue,
    Word,
    build_composition,
    bully_projection,
    composition_of_queue,
    enumerate_words,
    project_queues,
    queue_label,
    rotate,
)
from mlqtasep.poly import LaurentPoly
from mlqtasep.sim import (
    AbsorbingStateError,
    EmpiricalDistribution,
    SimConfig,
    _float_rate,
    build_process_chain,
)
from mlqtasep.solve import _reconstruct, point_vector, stationary_solve
from mlqtasep import verify


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
    blocks = [word_index[bully_projection(q).word] for q in g.states]
    return blocks, words


def reference_lump(
    g: ChainGraph, partition: Sequence[int], block_states: Sequence | None = None
) -> tuple[ChainGraph | None, dict | None]:
    """Strong lumping: (quotient chain, None) when, within every block, the
    states agree on their total rate into each other block, else (None,
    counterexample).

    Block ids must be 0..B-1.  The first state of each block gives the
    quotient's rates and, unless block_states names them, its states.
    """
    if len(partition) != len(g.states):
        raise ValueError("partition must cover all states")
    blocks = sorted(set(partition))
    if blocks != list(range(len(blocks))):
        raise ValueError("block ids must be 0..B-1")
    zero = LaurentPoly.zero(g.nvars)
    into: list[dict[int, LaurentPoly]] = [{} for _ in g.states]
    for rec in g.transitions:
        block = partition[rec.dst]
        if block != partition[rec.src]:
            into[rec.src][block] = into[rec.src].get(block, zero) + rec.rate
    first: dict[int, int] = {}
    for state, block in enumerate(partition):
        rep = first.setdefault(block, state)
        rates, rep_rates = into[state], into[rep]
        if rates != rep_rates:
            diff = next(
                b
                for b in sorted(set(rates) | set(rep_rates))
                if rates.get(b, zero) != rep_rates.get(b, zero)
            )
            return None, {
                "block": block,
                "state": g.state_label(state),
                "other": g.state_label(rep),
                "target_block": diff,
                "rate": str(rates.get(diff, zero)),
                "other_rate": str(rep_rates.get(diff, zero)),
            }
    records = tuple(
        TransitionRecord(src=block, dst=target, rate=into[first[block]][target], mechanism="lumped")
        for block in blocks
        for target in sorted(into[first[block]])
    )
    if block_states is None:
        block_states = [g.states[first[b]] for b in blocks]
    return ChainGraph(f"{g.kind}/lumped", g.composition, tuple(block_states), records, g.nvars), None


def first_state_quotient(g: ChainGraph, blocks: Sequence[int]) -> ChainGraph:
    """The chain on the blocks with each block's first state's records into
    the other blocks: g's quotient when g is lumpable, a target that agrees
    with the first states but not all the others when it is not."""
    first: dict[int, int] = {}
    for state, block in enumerate(blocks):
        first.setdefault(block, state)
    records = tuple(
        TransitionRecord(blocks[rec.src], blocks[rec.dst], rec.rate, rec.mechanism)
        for rec in g.transitions
        if first[blocks[rec.src]] == rec.src and blocks[rec.dst] != blocks[rec.src]
    )
    states = tuple(g.states[first[b]] for b in range(len(first)))
    return ChainGraph(f"{g.kind}/first", g.composition, states, records, g.nvars)


def rate_map(g: ChainGraph) -> dict[tuple[int, int], LaurentPoly]:
    """Total rate per ordered state pair (parallel records summed)."""
    acc: dict[tuple[int, int], LaurentPoly] = {}
    for rec in g.transitions:
        key = (rec.src, rec.dst)
        acc[key] = acc.get(key, LaurentPoly.zero(g.nvars)) + rec.rate
    return acc


def same_rate_graph(a: ChainGraph, b: ChainGraph) -> bool:
    """Equal state lists and equal aggregated rate between every pair."""
    return a.states == b.states and rate_map(a) == rate_map(b)


def three_species_weight(labeling: BullyLabeling) -> LaurentPoly:
    """x1^(m3 - k) * x2^k with k the covered-3 count (three species)."""
    comp = labeling.composition
    if comp.n != 3:
        raise ValueError("three-species weight needs exactly 3 classes")
    k = labeling.covered_three_count()
    return LaurentPoly.monomial(1, (comp.m[2] - k, k))


def reference_block_sums(c: Composition) -> list[str]:
    """fm3's block sums by the per-state loop: each queue's covered-3
    weight added onto the sum of the word it projects to, in
    enumerate_words order."""
    chain = build_fm_chain(c, "three_species")
    blocks, words = bully_partition(chain)
    sums = [LaurentPoly.zero(2)] * len(words)
    for q, block in zip(chain.states, blocks):
        sums[block] = sums[block] + three_species_weight(bully_projection(q))
    return [str(w) for w in sums]


def single_first_class_weight(labeling: BullyLabeling) -> LaurentPoly:
    """x1^(V_1 - z_1); the one-parameter weight when m_1 = 1."""
    comp = labeling.composition
    if comp.m[0] != 1:
        raise ValueError("single-first-class weight needs m_1 = 1")
    exps = [0] * (comp.n - 1)
    exps[0] = comp.V[0] - labeling.z1()
    return LaurentPoly.monomial(1, exps)


def ringing_path(q: Queue, i: int) -> tuple[int, ...]:
    """Columns (0-based) that one ring at bottom-row column i visits, one per
    grid row, top row first."""
    nrows, N = len(q), len(q[0])
    cols = [0] * nrows
    cols[nrows - 1] = i % N
    for r in range(nrows - 1, 0, -1):
        # The path moves straight up over an occupied cell, one step right
        # over a vacancy.
        if q[r][cols[r]]:
            cols[r - 1] = cols[r]
        else:
            cols[r - 1] = (cols[r] + 1) % N
    return tuple(cols)


def reference_ringing(q: Queue, i: int) -> Queue:
    """Apply the simultaneous left-swaps along ringing_path(q, i)."""
    path = ringing_path(q, i)
    new_rows = []
    N = len(q[0])
    for r, row in enumerate(q):
        col = path[r]
        left = (col - 1) % N
        if row[col] and not row[left]:
            mutable = list(row)
            mutable[col], mutable[left] = 0, 1
            new_rows.append(tuple(mutable))
        else:
            new_rows.append(row)
    return tuple(new_rows)


def reference_regular_jump(q: Queue, front: int) -> Queue:
    """Occupied front-seat 1 jumps: each of its two cells moves left if free."""
    N = len(q[0])
    left = (front - 1) % N
    top, bottom = q[0], q[1]
    if not bottom[left]:
        bottom = _move_left(bottom, front)
    if not top[left]:
        top = _move_left(top, front)
    return (top, bottom)


def reference_decompose_coupes(word: Word) -> list[Coupe]:
    """Cut the circular word after every maximal run of 1s and of 2s."""
    N = len(word)
    if any(cls not in (1, 2, 3) for cls in word):
        raise ValueError("coupe decomposition is defined for classes 1..3")
    cuts = [
        i
        for i in range(N)
        if word[i] in (1, 2) and word[(i + 1) % N] != word[i]
    ]
    if not cuts and set(word) <= {3}:
        raise ValueError("word has no 1s or 2s, nothing to cut")
    if not cuts:
        raise ValueError(f"word is one run of {word[0]}s, with no run end to cut at")
    coupes = []
    for pos, cut in enumerate(cuts):
        start = (cuts[pos - 1] + 1) % N
        columns = []
        col = start
        while True:
            columns.append(col)
            if col == cut:
                break
            col = (col + 1) % N
        letters = tuple(word[cc] for cc in columns)
        seat_class = next(cls for cls in letters if cls != 3)
        front = next(cc for cc, cls in zip(columns, letters) if cls != 3)
        run = [cls for cls in letters if cls != 3]
        if letters[letters.index(seat_class) :].count(3) or set(run) != {seat_class}:
            raise AssertionError(f"malformed coupe {letters} in {word}")
        coupes.append(
            Coupe(
                columns=tuple(columns),
                letters=letters,
                seat_class=seat_class,
                front=front,
                back=cut,
                full=letters[0] != 3,
            )
        )
    return coupes


def reference_three_blocks(word) -> list[list[int]]:
    N = len(word)
    starts = [i for i in range(N) if word[i] == 3 and word[(i - 1) % N] != 3]
    blocks = []
    for start in starts:
        block = []
        col = start
        while word[col] == 3:
            block.append(col)
            col = (col + 1) % N
        blocks.append(block)
    return blocks


def _exponents_of_z(comp: Composition, z: dict[tuple[int, int], int]) -> tuple[int, ...]:
    exps = [0] * (comp.n - 1)
    for r in range(1, comp.n - 1):
        exps[r - 1] += comp.V[r - 1]
    for (row, cls), count in z.items():
        exps[row - 1] += count
        exps[cls - 1] -= count
    return tuple(exps)


def conjectured_exponents(labeling: BullyLabeling) -> tuple[int, ...]:
    """Exponents of x_1^V_1 ... x_{n-2}^V_{n-2} * prod (x_row / x_class)^z."""
    return _exponents_of_z(labeling.composition, labeling.z)


def q_int(k: int) -> LaurentPoly:
    """The q-integer 1 + q + ... + q^(k-1)."""
    if k < 0:
        raise ValueError("q-integer index must be nonnegative")
    return LaurentPoly(1, {(i,): 1 for i in range(k)})


def h_bruteforce(k: int, gens: Sequence[LaurentPoly]) -> LaurentPoly:
    """h_k(gens): the sum of every product of k generators, taken with
    repetition and without regard to order."""
    total = LaurentPoly.zero(gens[0].nvars)
    for combo in combinations_with_replacement(gens, k):
        term = LaurentPoly.one(gens[0].nvars)
        for g in combo:
            term = term * g
        total = total + term
    return total


OrderFn = Callable[[int, int, list[int]], list[int]]


def reference_projection(
    q: Queue, comp: Composition | None = None, order_fn: OrderFn | None = None
) -> BullyLabeling:
    """Assign classes to all occupied cells, top row down, one whole queue
    at a time.

    comp, when given, is checked against the queue's shape and row sums
    (ValueError on a mismatch); without it the composition is recovered
    from the rows.  Row 0 is all class 1.  To label grid row r+1, every
    already-classified particle on row r (classes ascending, columns left
    to right unless order_fn reorders within a class) drops straight down;
    if the cell below is vacant or already taken it queues rightward,
    circularly, to the first unclassified occupied cell.  Vacancies crossed
    while queueing record the smallest class that ever crosses them.  The
    m_{r+2} leftovers on row r+1 become the next class, and bottom-row
    vacancies read as class n.
    """
    if comp is None:
        comp = composition_of_queue(q)
    elif tuple(map(len, q)) != (comp.N,) * (comp.n - 1) or tuple(map(sum, q)) != comp.M[:-1]:
        raise ValueError(f"queue {queue_label(q)} is not a queue of m = {comp.m}")
    nrows, N = comp.n - 1, comp.N
    classes = [[0] * N for _ in range(nrows)]
    cover: dict[tuple[int, int], int] = {}
    for col in range(N):
        if q[0][col]:
            classes[0][col] = 1
    for upper in range(nrows - 1):
        lower = upper + 1
        # the columns of each class on the upper row, ascending; 0 collects vacancies
        by_class: list[list[int]] = [[] for _ in range(upper + 2)]
        for col, cls in enumerate(classes[upper]):
            by_class[cls].append(col)
        for cls in range(1, upper + 2):
            cols = by_class[cls]
            if order_fn is not None:
                cols = order_fn(upper, cls, cols)
            for start in cols:
                j = start
                for _ in range(N + 1):
                    if q[lower][j] and not classes[lower][j]:
                        classes[lower][j] = cls
                        break
                    if not q[lower][j]:
                        cover.setdefault((lower, j), cls)
                    j = (j + 1) % N
                else:
                    raise AssertionError("queueing walk failed to terminate")
        for col in range(N):
            if q[lower][col] and not classes[lower][col]:
                classes[lower][col] = lower + 1
    word = tuple(
        classes[nrows - 1][col] if q[nrows - 1][col] else nrows + 1 for col in range(N)
    )
    z: dict[tuple[int, int], int] = {}
    for (row, _col), cls in cover.items():
        key = (row + 1, cls)
        z[key] = z.get(key, 0) + 1
    return BullyLabeling(
        queue=q,
        composition=comp,
        classes=tuple(tuple(row) for row in classes),
        cover=cover,
        word=word,
        z=z,
        exponents=_exponents_of_z(comp, z),
    )


def reference_project_row(
    upper_classes: Sequence[int], lower_bits: Sequence[int], new_class: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One bully-path step: the lower row's classes and its covers."""
    N = len(lower_bits)
    lower = [0] * N
    cover = [0] * N
    # a stable sort keeps the columns of one class ascending; vacancies sort first
    for start in sorted(range(N), key=upper_classes.__getitem__):
        cls = upper_classes[start]
        if not cls:
            continue
        j = start
        for _ in range(N):
            if lower_bits[j]:
                if not lower[j]:
                    lower[j] = cls
                    break
            elif not cover[j]:
                cover[j] = cls
            j = j + 1 if j + 1 < N else 0
        else:
            raise ValueError(
                f"the path from column {start + 1} finds no free particle on the lower row"
            )
    for col in range(N):
        if lower_bits[col] and not lower[col]:
            lower[col] = new_class
    return tuple(lower), tuple(cover)


def reference_eval(poly: LaurentPoly, point: Sequence[Fraction | int]) -> Fraction:
    """Exact evaluation at a rational point, one Fraction power per
    variable and term.

    Raises ZeroDivisionError if a zero coordinate meets a negative
    exponent.
    """
    if len(point) != poly.nvars:
        raise ValueError(f"point has {len(point)} coordinates, need {poly.nvars}")
    pt = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        val = Fraction(coeff)
        for base, e in zip(pt, exps):
            if e == 0:
                continue
            if base == 0 and e < 0:
                raise ZeroDivisionError("zero substituted into a negative exponent")
            val *= base**e
        total += val
    return total


def records_by_state(g: ChainGraph, end: str = "src") -> list[list[TransitionRecord]]:
    """Per state of g, in record order, the records read from its columns
    whose end ("src" or "dst") is that state."""
    grouped: list[list[TransitionRecord]] = [[] for _ in g.states]
    for rec in g.transitions:
        grouped[getattr(rec, end)].append(rec)
    return grouped


def reference_gillespie_run(cfg: SimConfig, chain: ChainGraph | None = None) -> EmpiricalDistribution:
    """Time-weighted occupation fractions after burn-in.

    Holding times are exponential with the total-rate parameter and the next
    state is drawn proportionally to the outgoing rates; burn-in discards
    the first burn_in fraction of events from the occupation tally.
    """
    if chain is None:
        chain = build_process_chain(cfg.process, build_composition(cfg.m))
    if any(rate <= 0 for rate in cfg.rates):
        raise ValueError("rates must be positive")
    if cfg.events <= 0:
        raise ValueError("event horizon must be positive")
    if not 0 <= cfg.burn_in < 1:
        raise ValueError(f"burn-in must lie in [0, 1), got {cfg.burn_in}")
    out = records_by_state(chain)
    targets = [[rec.dst for rec in records] for records in out]
    cumulative = [
        list(accumulate(_float_rate(rec.rate, cfg.rates) for rec in records)) for records in out
    ]
    rng = random.Random(cfg.seed)
    occupation = [0.0] * len(chain.states)
    state = 0
    skip = int(cfg.burn_in * cfg.events)
    clock = 0.0
    done = 0
    while done < cfg.events:
        sums = cumulative[state]
        if not sums or sums[-1] <= 0.0:
            raise AbsorbingStateError(f"no outgoing rate at state {chain.state_label(state)}")
        total = sums[-1]
        hold = rng.expovariate(total)
        if done >= skip:
            occupation[state] += hold
            clock += hold
        draw = rng.random() * total
        state = targets[state][min(bisect_right(sums, draw), len(sums) - 1)]
        done += 1
    if clock <= 0.0:
        raise AbsorbingStateError("no simulated time accumulated after burn-in")
    fractions = [t / clock for t in occupation]
    labels = [chain.state_label(i) for i in range(len(chain.states))]
    return EmpiricalDistribution(
        labels=labels, fractions=fractions, total_time=clock, events=done
    )


def reference_ringing_rate(
    rule: str, word: Word, covered: int, col: int, x: list[LaurentPoly], one: LaurentPoly
) -> LaurentPoly:
    """Rate of a ring at col under three_species, else one_first_class, for a
    queue of projected word and covered-vacancy mask covered; x and one are
    the chain's own polynomials."""
    cls = word[col]
    if rule == "three_species":
        return x[0] if cls == 1 or (cls == 3 and covered >> col & 1) else x[1]
    return x[0] if cls == 1 else one


def reference_fm1_theorem(c: Composition) -> verify.SuiteReport:
    """The fm1 report checked on the whole ringing chain: residual,
    irreducibility and, up to SOLVE_CAP states, point solves."""
    started = time.perf_counter()
    if c.m[0] != 1 or c.n < 3:
        raise ValueError("single-first-class suite needs m_1 = 1 and n >= 3")
    chain = build_fm_chain(c, "one_first_class")
    power = functools.cache(lambda e: LaurentPoly.monomial(1, (e,) + (0,) * (c.n - 2)))
    weights = [power(exps[0]) for exps in chain.projection.exponents]
    details: dict = {"states": len(chain.states)}
    failure = verify._residual_failure(chain, weights)
    if failure is None and not chain.irreducible:
        failure = {"check": "irreducible"}
    if failure is None and len(chain.states) <= verify.SOLVE_CAP:
        for x1 in (Fraction(2), Fraction(3), Fraction(5, 2)):
            point = (x1,) + (Fraction(1),) * (c.n - 2)
            if stationary_solve(chain, point) != point_vector(weights, point):
                failure = {"check": "point-solve", "x1": str(x1)}
                break
        details["solver_points"] = 3
    return verify._report("fm1", c, "theorem", started, failure, details)


def reference_uniform_stationarity(c: Composition) -> verify.SuiteReport:
    """The uniform report checked on the whole rate-one chain: strong
    connectivity, degree balance and, up to SOLVE_CAP states, the solve at ones."""
    started = time.perf_counter()
    chain = build_fm_chain(c, "uniform")
    details: dict = {"states": len(chain.states)}
    failure = None if chain.irreducible else {"check": "irreducible"}
    if failure is None:
        outs = [len(recs) for recs in records_by_state(chain, "src")]
        ins = [len(recs) for recs in records_by_state(chain, "dst")]
        bad = next((i for i in range(len(outs)) if outs[i] != ins[i]), None)
        if bad is not None:
            failure = {
                "check": "degree-balance",
                "state": chain.state_label(bad),
                "out": outs[bad],
                "in": ins[bad],
            }
    if failure is None:
        if len(chain.states) <= verify.SOLVE_CAP:
            point = (Fraction(1),) * chain.nvars
            solved = stationary_solve(chain, point)
            if solved != [1] * len(chain.states):
                failure = {"check": "uniform-solve"}
            details["method"] = "direct-solve"
        else:
            # degree balance is exactly the master equation for the uniform
            # vector at rate one; with irreducibility this pins uniqueness
            details["method"] = "balance-certificate"
    return verify._report("uniform", c, "theorem", started, failure, details)


def reference_master_residual(g: ChainGraph, weights: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """Per-state balance: sum of incoming rate * weight minus outgoing.

    Each state's residual is summed in one exponent -> coefficient dict,
    every term of rate * weight added at the destination and subtracted at
    the source, and a term is dropped as soon as it cancels to 0 (the last
    one by clear(), which also frees the table an emptied dict keeps).
    """
    if len(weights) != len(g.states):
        raise ValueError("need one weight per state")
    sums: list[dict[tuple[int, ...], int]] = [{} for _ in g.states]
    for src, dst, rate, _ in g.transitions:
        into, out = sums[dst], sums[src]
        for e1, c1 in rate.terms.items():
            for e2, c2 in weights[src].terms.items():
                exps, coeff = tuple(map(add, e1, e2)), c1 * c2
                total = into.get(exps, 0) + coeff
                if total:
                    into[exps] = total
                elif len(into) > 1:
                    del into[exps]
                else:
                    into.clear()
                total = out.get(exps, 0) - coeff
                if total:
                    out[exps] = total
                elif len(out) > 1:
                    del out[exps]
                else:
                    out.clear()
    zero = LaurentPoly.zero(g.nvars)
    return [LaurentPoly(g.nvars, terms) if terms else zero for terms in sums]


def normalize_rationals(values: Sequence[Fraction]) -> list[int]:
    """Scale a positive rational vector to coprime positive integers."""
    values = [Fraction(v) for v in values]
    scale = lcm(*[v.denominator for v in values])
    ints = [int(v * scale) for v in values]
    common = gcd(*ints)
    return [v // common for v in ints]


def reference_reconstruct(residue: int, modulus: int) -> Fraction | None:
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


def reference_reconstruct_vector(residues: Sequence[int], modulus: int) -> list[int] | None:
    """Each residue's _reconstruct pair, scaled by the lcm of their
    denominators to coprime integers; None when a residue has no pair."""
    candidate = [_reconstruct(r, modulus) for r in residues]
    if None in candidate:
        return None
    scale = lcm(*[b for _, b in candidate])
    per_orbit = [a * (scale // b) for a, b in candidate]
    common = gcd(*per_orbit)
    return [v // common for v in per_orbit]


def reference_ring_walk(rows: list, sids: Iterable[int], ids: Sequence) -> Iterator[tuple[int, list]]:
    """Ids sids (0, 1, ...) and ids[successor id] per ringing column.  A row's
    ring table maps (rank, entry column) to (rank change times the row's
    stride, exit column), so a ring adds up n - 1 entries, bottom row up."""
    tables = [[[((rank[row] - k) * stride, out) for row, out in m] for k, m in enumerate(moves)]
              for stride, rank, moves in rows]
    for sid, steps in zip(sids, product(*reversed(tables))):
        bottom, *upper = reversed(steps)
        succ = []
        for s, col in bottom:
            s += sid
            for table in upper:
                d, col = table[col]
                s += d
            succ.append(ids[s])
        yield sid, succ


def flat_walk(walk: Iterable[tuple[int, list]]) -> list:
    """The successor ids of a per-queue walk, N per queue in id order, in one column."""
    return [dst for _, succ in walk for dst in succ]


@functools.lru_cache(maxsize=None)
def full_word_weights(m: tuple[int, ...]) -> tuple[ChainGraph, tuple[LaurentPoly, ...]]:
    """The word chain of m and, per word, the sum of the conjectured
    monomials of all of m's queues that project to it."""
    chain = build_tasep_chain(build_composition(m))
    return chain, tuple(verify._aggregated_weights(chain, project_queues(chain.composition)))


def reference_rotation_orbits(g: ChainGraph, point: Sequence[Fraction]) -> tuple[int, ...]:
    """Each state's rotation orbit, numbered in order of first state, when
    rotate maps the states and the generator's rows at the point onto
    themselves; else each state is its own orbit."""
    n = len(g.states)
    value = functools.cache(lambda rate: rate.eval(point))
    rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for src, dst, rate, _ in g.transitions:
        rows[dst][src] = rows[dst].get(src, 0) + value(rate)
        rows[src][src] = rows[src].get(src, 0) - value(rate)
    index = {state: i for i, state in enumerate(g.states)}
    rot = [index.get(rotate(state)) for state in g.states]
    if None in rot or any(
        rows[rot[i]] != {rot[j]: v for j, v in row.items()} for i, row in enumerate(rows)
    ):
        return tuple(range(n))
    orbit, k = [-1] * n, 0
    for start in range(n):
        if orbit[start] < 0:
            state = start
            while orbit[state] < 0:
                orbit[state] = k
                state = rot[state]
            k += 1
    return tuple(orbit)


def turn_to_representative(q: Queue) -> Queue:
    """The queue of q's rotation orbit whose top-row particle sits in the
    last column (m_1 = 1)."""
    while not q[0][-1]:
        q = rotate(q)
    return q


def unrolled_chain(g: ChainGraph) -> ChainGraph:
    """The N-fold cover of g spelled out, N = g.composition.N: state (u, a)
    for a mod N, and a record (u, a) -> (w, a - v) per record u -> w of g
    with voltage v (0 when g carries no voltages)."""
    order = g.composition.N
    states = tuple((u, a) for u in range(len(g.states)) for a in range(order))
    voltages = g.voltages or [0] * len(g.transitions)
    one = LaurentPoly.one(g.nvars)
    records = tuple(
        TransitionRecord(rec.src * order + a, rec.dst * order + (a - v) % order, one, "lift")
        for rec, v in zip(g.transitions, voltages, strict=True)
        for a in range(order)
    )
    return ChainGraph(f"{g.kind}/lift", g.composition, states, records, g.nvars)


def bound_suite_inputs(monkeypatch, suite: str, bound: int) -> None:
    """Let the suite's predicate take at most bound compositions from now
    on: taking one more fails with AssertionError, so a listing that would
    run on for ever fails the test instead."""
    takes, cap, check = verify.SUITES[suite]
    taken = 0

    def bounded(m):
        nonlocal taken
        if not takes(m):
            return False
        taken += 1
        if taken > bound:
            raise AssertionError(f"listed more than {bound} inputs of {suite}")
        return True

    monkeypatch.setitem(verify.SUITES, suite, (bounded, cap, check))


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def golden_form(reports) -> dict:
    """Reports keyed and stripped of elapsed as the benchmark's golden files hold them."""
    produced = {}
    for report in reports:
        payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        del payload["elapsed"]
        produced[f"{report.suite}:{','.join(map(str, report.composition))}"] = payload
    assert len(produced) == len(reports)
    return produced
