"""Theorem and conjecture suites over exhaustively enumerated state spaces.

Every suite returns a SuiteReport rather than raising: proved statements
("theorem" kind) are expected to pass and a failure is a library bug, while
conjectured statements ("conjecture" kind) are reported as agree/disagree.
All randomness is a seeded drawing of small positive rational rate points,
so each report is reproducible from (composition, seed).  run_suites lists
the compositions once and runs every chosen suite on one composition before
the next; the word chain, projections, ring and first-class walks and word
weights the suites of one composition read are built once for it through
_once, and dropped after it.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .chains import (
    ChainGraph,
    build_coupe_chain,
    build_fm_chain,
    build_tasep_chain,
    decompose_coupes,
    ringing_chain,
)
from .core import (
    Composition,
    QueueProjection,
    build_composition,
    check_queue_count,
    first_class_walk,
    mlq_count,
    orbit_representatives,
    orbit_ring_successors,
    project_orbit_representatives,
    project_queues,
    queue_label,
    ring_successors,
    word_label,
)
from .poly import LaurentPoly, q_int_derivative
from .solve import (
    lump,
    master_residual,
    orbit_heads,
    point_vector,
    stationary_solve,
    voltages_generate,
)

DEFAULT_SEED = 20240
DEFAULT_MAX_N = 5
# report policy, not a solver limit: fm1's solver_points and uniform's method change
# above this many full-chain states, orbit chain or not; perfbench/golden/*.json pins both
SOLVE_CAP = 300


@dataclass
class SuiteReport:
    suite: str
    composition: tuple[int, ...]
    kind: str  # "theorem" or "conjecture"
    status: str  # pass/fail or agree/disagree
    elapsed: float
    details: dict = field(default_factory=dict)
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "agree")

    def to_dict(self) -> dict:
        payload = {
            "suite": self.suite,
            "composition": list(self.composition),
            "kind": self.kind,
            "status": self.status,
            "elapsed": round(self.elapsed, 4),
            "details": self.details,
        }
        if self.counterexample is not None:
            payload["counterexample"] = self.counterexample
        return payload


def _report(suite: str, c: Composition, kind: str, started: float, failure: dict | None, details: dict):
    good = "pass" if kind == "theorem" else "agree"
    bad = "fail" if kind == "theorem" else "disagree"
    return SuiteReport(
        suite=suite,
        composition=c.m,
        kind=kind,
        status=good if failure is None else bad,
        elapsed=time.perf_counter() - started,
        details=details,
        counterexample=failure,
    )


def rate_points(nvars: int, count: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Reproducible positive rationals with numerators/denominators up to 7."""
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(nvars))
        for _ in range(count)
    ]


def iter_compositions(max_total: int) -> Iterable[Composition]:
    """All positive compositions with at least two parts, N ascending."""
    for total in range(2, max_total + 1):
        for parts in range(2, total + 1):
            for cuts in itertools.combinations(range(1, total), parts - 1):
                bounds = (0,) + cuts + (total,)
                yield build_composition(b - a for a, b in zip(bounds, bounds[1:]))


_made: dict | None = None  # (make, c) -> make(c) while run_suites checks c


def _once(make: Callable, c: Composition):
    """make(c), built once per composition while run_suites checks c, and
    built anew on every call outside it."""
    if _made is None:
        return make(c)
    if (make, c) not in _made:
        _made[make, c] = make(c)
    return _made[make, c]


def _residual_failure(
    chain: ChainGraph,
    weights: Sequence[LaurentPoly],
    check: str = "residual",
    show_residual: bool = True,
) -> dict | None:
    """Counterexample at the first state whose master equation fails, or None."""
    residuals = master_residual(chain, weights)
    bad = next((i for i, r in enumerate(residuals) if not r.is_zero()), None)
    if bad is None:
        return None
    at = "word" if chain.kind == "tasep" else "state"
    failure = {"check": check, at: chain.state_label(bad)}
    if show_residual:
        failure["residual"] = str(residuals[bad])
    return failure


def _monomials(exponents: Sequence[tuple[int, ...]]) -> list[LaurentPoly]:
    """The monomial of each exponent tuple, one shared object per distinct tuple."""
    shared = {e: LaurentPoly.monomial(1, e) for e in set(exponents)}
    return [shared[e] for e in exponents]


def _point_failure(chain: ChainGraph, weights: Sequence[LaurentPoly], points, check: str) -> dict | None:
    """Counterexample at the first rate point where the exact solve of chain
    is not the weights' values, each evaluated at its orbit_heads, or None."""
    heads = orbit_heads(chain, weights)
    firsts = sorted(set(heads))
    for point in points:
        values = dict(zip(firsts, point_vector([weights[head] for head in firsts], point)))
        if stationary_solve(chain, point) != [values[head] for head in heads]:
            return {"check": check, "point": [str(x) for x in point]}
    return None


def _word_lumping(chain: ChainGraph, word_chain: ChainGraph, words: Sequence) -> dict | None:
    """The counterexample, if any, to the lumping of a queue chain onto the
    word process by its bully partition; words[i] is the word that state i
    projects to."""
    index = {w: i for i, w in enumerate(word_chain.states)}
    counterexample = lump(chain, [index[w] for w in words], word_chain)
    return None if counterexample is None else {"check": "lumpability", **counterexample}


def _aggregated_weights(word_chain: ChainGraph, projection: QueueProjection) -> list[LaurentPoly]:
    """Per state of word_chain, the sum of the conjectured monomials of the
    queues that project to its word, counted by exponent.  A sum equal to
    its orbit head's is the head's object, so that orbit_heads, in the
    residual and again in the point check, finds it by identity."""
    exponents = {w: Counter() for w in word_chain.states}
    for word, exps in zip(projection.words, projection.exponents):
        exponents[word][exps] += 1
    sums = [LaurentPoly(word_chain.nvars, exponents[w]) for w in word_chain.states]
    return [sums[head] if sums[head] == w else w for head, w in zip(word_chain.rotation_heads, sums)]


def _word_weights(c: Composition) -> tuple[ChainGraph, list[LaurentPoly], dict | None]:
    """c's word chain, _aggregated_weights over all of c's queues, and None.
    For m_1 = 1 the sums come from the orbit representatives, one object per
    rotation orbit, each counted at every turn of its word that heads an
    orbit; or no sums when their projection-rotation certificate fails."""
    word_chain = _once(build_tasep_chain, c)
    if c.m[0] != 1:
        return word_chain, _aggregated_weights(word_chain, _once(project_queues, c)), None
    projection, equivariant = _once(project_orbit_representatives, c)
    if not equivariant:  # then a representative's word may not even be a word of c
        return word_chain, [], {"check": "projection-rotation"}
    heads, index = word_chain.rotation_heads, {w: i for i, w in enumerate(word_chain.states)}
    onto_heads = {w: [i for i in (index[w[k:] + w[:k]] for k in range(c.N)) if heads[i] == i] for w in set(projection.words)}
    exponents = [Counter() for _ in heads]
    for (word, exps), count in Counter(zip(projection.words, projection.exponents)).items():
        for i in onto_heads[word]:
            exponents[i][exps] += count
    weights = [LaurentPoly(word_chain.nvars, terms) for terms in exponents]
    return word_chain, [weights[head] for head in heads], None


# ---------------------------------------------------------------------------
# Three-species theorem
# ---------------------------------------------------------------------------


def check_fm3_theorem(c: Composition, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Covered-3 weights are stationary and the chain lumps to the word process."""
    started = time.perf_counter()
    if c.n != 3:
        raise ValueError("three-species suite needs n = 3")
    chain = ringing_chain(c, "three_species", _once(ring_successors, c), _once(project_queues, c))
    weights = _monomials(chain.projection.exponents)
    details: dict = {"states": len(chain.states), "transitions": len(chain.transitions)}
    failure = _residual_failure(chain, weights)

    if failure is None:
        word_chain = _once(build_tasep_chain, c)
        failure = _word_lumping(chain, word_chain, chain.projection.words)
        if failure is None:
            sums = _aggregated_weights(word_chain, chain.projection)
            details["block_sums"] = [str(w) for w in sums]
            failure = _residual_failure(word_chain, sums, "block-sum-residual", False)
            if failure is None and c.N == 6:
                # large ring: confirm the block sums really solve the word
                # process at random positive rational rate points too
                failure = _point_failure(word_chain, sums, rate_points(2, 5, seed), "point-solve")
    return _report("fm3", c, "theorem", started, failure, details)


def check_three_species_lemma(c: Composition) -> SuiteReport:
    """Local structure of the three-species ringing dynamics, four parts."""
    started = time.perf_counter()
    if c.n != 3:
        raise ValueError("three-species lemma needs n = 3")
    failure = None
    checked = 0
    projection = _once(project_queues, c)
    cuts = {word: decompose_coupes(word) for word in set(projection.words)}
    # both in enumerate_mlqs order, each queue's N successor ids; strict, so
    # a length mismatch raises
    fields = (projection.queues, projection.words, projection.covered)
    queues = zip(*fields, zip(*[iter(_once(ring_successors, c))] * c.N), strict=True)
    for sid, (q, word, mask, successors) in enumerate(queues):
        # the covered vacancies of the bottom row are the covered 3s
        covered = {i for i in range(c.N) if mask >> i & 1}
        k = len(covered)
        for i in range(c.N):
            checked += 1
            if word[i] == 2 and not (q[0][i] == 0 and q[1][i] == 1):
                failure = {"part": 1, "queue": queue_label(q), "site": i + 1}
                break
            if word[(i - 1) % c.N] == 1 and word[i] == 2 and successors[i] != sid:
                failure = {"part": 2, "site": i + 1}
                break
            if successors[i] != sid:
                k_next = projection.covered[successors[i]].bit_count()
                if k_next > k and not (word[i] == 3 and i not in covered):
                    failure = {"part": 4, "direction": "increase", "site": i + 1}
                    break
                if k_next < k and word[i] != 1:
                    failure = {"part": 4, "direction": "decrease", "site": i + 1}
                    break
        if failure:
            failure["word"] = word_label(word)
            break
        # part 3: inside each maximal block of 3s at most one non-covered
        # site triggers an effective transition; every word holds a 1 and
        # a 2, so each block is the head of one coupe, the 3s before its front
        for cp in cuts[word]:
            block = cp.columns[:cp.columns.index(cp.front)]
            effective = [l for l in block if l not in covered and successors[l] != sid]
            if len(effective) > 1:
                failure = {"part": 3, "word": word_label(word), "sites": [l + 1 for l in effective]}
                break
        if failure:
            break
    return _report("fm3-lemma", c, "theorem", started, failure, {"checked_rings": checked})


# ---------------------------------------------------------------------------
# Single first-class particle theorem and its partition function
# ---------------------------------------------------------------------------


def check_fm1_theorem(c: Composition) -> SuiteReport:
    """Weights x1^(V1 - z1) are stationary when m_1 = 1 and x_i = 1 for i >= 2.

    Weights and rates, x1 at the first-class column, come off first_class_walk;
    the states share one monomial per distinct exponent.  Everything runs
    on one queue per rotation orbit, once rates and weights are certified
    rotation-invariant: the residual at a representative is the full
    chain's, and as every orbit holds N queues, the orbit chain's
    stationary vector is the full one on representatives.  Positive weights
    with a zero residual leave no state transient, so the forward walk from
    state 0 reaching every state is strong connectivity.
    """
    started = time.perf_counter()
    if c.m[0] != 1 or c.n < 3:
        raise ValueError("single-first-class suite needs m_1 = 1 and n >= 3")
    walked, equivariant = _once(first_class_walk, c)
    walk, commutes = orbit_ring_successors(c)
    details: dict = {"states": mlq_count(c)}
    failure = None if equivariant else {"check": "projection-rotation"}
    if failure is None and not commutes:
        failure = {"check": "ring-rotation"}
    if failure is None:
        # a word with a 1 at the first-class column is all the rate reads,
        # made once per column, and a weight once per exponent
        columns, exponents = zip(*walked)
        ones = [(c.n,) * col + (1,) + (c.n,) * (c.N - 1 - col) for col in range(c.N)]
        power = {e: LaurentPoly.monomial(1, (e,) + (0,) * (c.n - 2)) for e in set(exponents)}
        orbits = ringing_chain(c, "one_first_class", walk, orbit_representatives(c), map(ones.__getitem__, columns))
        weights = list(map(power.__getitem__, exponents))
        failure = _residual_failure(orbits, weights)
        if failure is None and (None in orbits.potentials or not voltages_generate(orbits)):
            failure = {"check": "irreducible"}
    if failure is None and details["states"] <= SOLVE_CAP:
        for x1 in (Fraction(2), Fraction(3), Fraction(5, 2)):
            point = (x1,) + (Fraction(1),) * (c.n - 2)
            if stationary_solve(orbits, point) != point_vector(weights, point):
                failure = {"check": "point-solve", "x1": str(x1)}
                break
        details["solver_points"] = 3
    return _report("fm1", c, "theorem", started, failure, details)


def _binomial_series(M: int, top: int) -> LaurentPoly:
    """sum_{i <= top} C(M + i - 1, i) a^i, the series of (1 - a)^-M cut at a^top."""
    return LaurentPoly(1, {(i,): comb(M + i - 1, i) for i in range(top + 1)})


def check_partition_function(c: Composition) -> SuiteReport:
    """Sum of a^(V1 - z1) over all queues against the two closed forms.

    The binomial product form and the q-integer derivative form are
    asserted; the symmetric-function form as printed, whose factor r is
    h_{n-r}(1, a, ..., a) with r copies of a, computed as its binomial
    series, is only reported, since it rewrites the product correctly just
    when N = n.
    """
    started = time.perf_counter()
    if c.m[0] != 1:
        raise ValueError("partition function suite needs m_1 = 1")
    # V1 - z1 once per rotation orbit of N queues, on which the certificate
    # makes it constant
    walked, equivariant = _once(first_class_walk, c)
    counts = Counter(map(itemgetter(1), walked))
    enumerated = LaurentPoly(1, {(e,): c.N * count for e, count in counts.items()})
    explicit = q_form = h_form = LaurentPoly.constant(c.N, 1)
    # q_form stays multiplied by the (M_r - 1)! each derivative is divided by
    factorials = 1
    for r in range(2, c.n):
        M = c.M[r - 1]
        explicit = explicit * _binomial_series(M, c.N - M)
        q_form = q_form * q_int_derivative(c.N, M - 1)
        factorials *= factorial(M - 1)
        h_form = h_form * _binomial_series(r, c.n - r)
    a = ("a",)
    failure = None
    if not equivariant:
        failure = {"check": "projection-rotation"}
    elif enumerated != explicit:
        failure = {"check": "enumeration-vs-binomial-product", "enumerated": enumerated.text(a), "explicit": explicit.text(a)}
    elif explicit * factorials != q_form:
        failure = {"check": "binomial-product-vs-q-derivative"}
    details = {
        "partition_function": enumerated.text(a),
        "h_form": h_form.text(a),
        "h_form_matches": h_form == explicit,
    }
    return _report("zpart", c, "theorem", started, failure, details)


# ---------------------------------------------------------------------------
# Main conjecture and its corollaries
# ---------------------------------------------------------------------------


def check_main_conjecture(c: Composition, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Aggregated monomial queue weights against the exact word solution."""
    started = time.perf_counter()
    chain, sums, failure = _once(_word_weights, c)
    details: dict = {"words": len(chain.states), "queues": mlq_count(c)}
    empty = next((i for i, s in enumerate(sums) if s.is_zero()), None)
    if failure is None and empty is not None:
        failure = {"check": "projection-misses-word", "word": chain.state_label(empty)}
    if failure is None:
        failure = _residual_failure(chain, sums, "symbolic-residual")
        details["symbolic_residual"] = "zero" if failure is None else "nonzero"
    if failure is None:
        failure = _point_failure(chain, sums, rate_points(c.n - 1, 5, seed), "point-proportionality")
        details["rate_points"] = 5
    return _report("main", c, "conjecture", started, failure, details)


def check_lw_normalization_and_positivity(c: Composition) -> SuiteReport:
    """Normalized stationary weights of the permutation system m = (1^n) are positive.

    The symbolic weights are the aggregated monomial weights for every n
    (for n = 3 they equal the proved three-species block sums), certified
    stationary through the symbolic master equation before use.
    """
    started = time.perf_counter()
    n = c.n
    if c.m != (1,) * n or not 3 <= n <= 5:
        raise ValueError("positivity suite covers m = (1^n) for n = 3, 4, 5")
    details: dict = {}
    word_chain, sums, failure = _once(_word_weights, c)
    if failure is None and _residual_failure(word_chain, sums) is not None:
        failure = {"check": "weights-not-stationary"}
    if failure is None:
        w0 = tuple(range(n, 0, -1))
        w0_index = word_chain.states.index(w0)
        normalizer = LaurentPoly.monomial(
            1, tuple(comb(n - 1 - i, 2) for i in range(n - 1))
        )
        if sums[w0_index] != normalizer:
            failure = {
                "check": "reverse-word-normalization",
                "expected": str(normalizer),
                "got": str(sums[w0_index]),
            }
    if failure is None:
        # the aggregation already carries the reverse-word normalization, so
        # every weight must itself be a polynomial with positive coefficients
        bad = next((i for i, p in enumerate(sums) if not p.is_positive()), None)
        if bad is not None:
            failure = {
                "check": "positivity",
                "word": word_chain.state_label(bad),
                "weight": str(sums[bad]),
            }
        else:
            details["normalized_weights"] = len(sums)
    if failure is None:
        ones = (Fraction(1),) * (n - 1)
        solved = stationary_solve(word_chain, ones)
        base = solved[w0_index]
        if any(value % base for value in solved):
            failure = {"check": "integrality-at-ones"}
        else:
            details["max_weight_at_ones"] = max(value // base for value in solved)
    return _report("lw", c, "conjecture", started, failure, details)


def check_identity_count(c: Composition) -> SuiteReport:
    """Queues of m = (1^n) projecting to 1 2 ... n, counted against the binomial product."""
    started = time.perf_counter()
    n = c.n
    if c.m != (1,) * n:
        raise ValueError("identity count needs m = (1^n)")
    # under the certificate an orbit holds one queue per turn of its
    # representative's word, and a word of (1^n) has n distinct turns
    identity = tuple(range(1, n + 1))
    turns = {identity[k:] + identity[:k] for k in range(n)}
    projection, equivariant = _once(project_orbit_representatives, c)
    count = sum(word in turns for word in projection.words)
    formula = prod(comb(n - 1, i) for i in range(1, n))
    details = {"enumerated": count, "formula": formula}
    failure = None if equivariant else {"check": "projection-rotation"}
    if failure is None and count != formula:
        failure = {"check": "count", **details}
    return _report("identity", c, "conjecture", started, failure, details)


# ---------------------------------------------------------------------------
# Uniform stationarity of the rate-one multiline process
# ---------------------------------------------------------------------------


def check_uniform_stationarity(c: Composition) -> SuiteReport:
    """Strong connectivity, degree balance, and the uniform stationary law;
    for m_1 = 1 and n >= 3 on the certified orbit chain, whose records in and
    out of a representative are its arcs in the full chain, one for one, as
    rotation acts freely and no ring turns a representative onto itself.
    Balance makes the ones vector stationary, so no state is transient and
    the forward walk from state 0 reaching every state is strong connectivity."""
    started = time.perf_counter()
    details: dict = {"states": mlq_count(c)}
    orbit = c.m[0] == 1 and c.n >= 3
    if orbit:
        walk, commutes = orbit_ring_successors(c)
        chain = ringing_chain(c, "uniform", walk, orbit_representatives(c))
        failure = None if commutes else {"check": "ring-rotation"}
    else:
        chain, failure = build_fm_chain(c, "uniform"), None
    if failure is None and None in chain.potentials:
        failure = {"check": "irreducible"}
    if failure is None:
        outs, ins = Counter(chain.transitions.sources), Counter(chain.transitions.targets)
        bad = next((i for i in range(len(chain.states)) if outs[i] != ins[i]), None)
        if bad is not None:
            failure = {"check": "degree-balance", "state": chain.state_label(bad), "out": outs[bad], "in": ins[bad]}
    if failure is None and orbit and not voltages_generate(chain):
        failure = {"check": "irreducible"}
    if failure is None:
        # balance and irreducibility pin the law; up to SOLVE_CAP queues the solve at ones confirms it
        direct = details["states"] <= SOLVE_CAP
        details["method"] = "direct-solve" if direct else "balance-certificate"
        if direct and stationary_solve(chain, (Fraction(1),) * chain.nvars) != [1] * len(chain.states):
            failure = {"check": "uniform-solve"}
    return _report("uniform", c, "theorem", started, failure, details)


# ---------------------------------------------------------------------------
# Coupe process theorem
# ---------------------------------------------------------------------------


def check_coupe_theorem(c: Composition) -> SuiteReport:
    """Stationarity, lumping, minimality and the seat bookkeeping, all at once."""
    started = time.perf_counter()
    if c.n != 3:
        raise ValueError("coupe suite needs n = 3")
    chain = build_coupe_chain(c)
    words = chain.projection.words
    details: dict = {"states": len(chain.states), "transitions": len(chain.transitions)}
    failure = None if chain.irreducible else {"check": "irreducible"}

    if failure is None:
        ends = zip(chain.transitions.sources, chain.transitions.targets)
        bad = next((src for src, dst in ends if words[src] == words[dst]), None)
        if bad is not None:
            failure = {"check": "minimality", "state": chain.state_label(bad)}

    if failure is None:
        failure = _check_seat_bookkeeping(chain, words)

    if failure is None:
        weights = _monomials(chain.projection.exponents)
        failure = _residual_failure(chain, weights)

    if failure is None:
        failure = _word_lumping(chain, _once(build_tasep_chain, c), words)
    return _report("coupe", c, "theorem", started, failure, details)


def _check_seat_bookkeeping(chain: ChainGraph, words) -> dict | None:
    """Out-degree c1 + e2 and the landing sites of incoming jumps, each
    distinct mechanism's kind and landing column read off its label once,
    and each word's coupes read off the cuts the chain was built from."""
    N, t = chain.composition.N, chain.transitions
    # per mechanism id, its kind and landing column: "coupe-pulling(3)" lands ("pulling", 1)
    labels = [label.partition("(") for label in t.mechanisms]
    landing = [(mech.removeprefix("coupe-"), (int(col.rstrip(")")) - 2) % N) for mech, _, col in labels]
    outs, landings = Counter(t.sources), [{"regular": [], "pulling": []} for _ in chain.states]
    for dst, mechanism in zip(t.targets, t.mechanism_ids):
        kind, col = landing[mechanism]
        landings[dst][kind].append(col)
    for sid, q in enumerate(chain.states):
        coupes = chain.coupes[words[sid]]
        c1 = sum(1 for cp in coupes if cp.seat_class == 1)
        e2 = sum(1 for cp in coupes if cp.seat_class == 2 and not cp.full)
        if outs[sid] != c1 + e2:
            return {
                "check": "outgoing-count",
                "state": chain.state_label(sid),
                "expected": c1 + e2,
                "got": outs[sid],
            }
        expected = {"regular": [], "pulling": []}
        for cp, nxt in zip(coupes, coupes[1:] + coupes[:1]):
            if cp.seat_class == 1 and q[0][cp.back]:
                expected["regular"].append(cp.back)
            if not (nxt.seat_class == 2 and nxt.full) and not q[0][nxt.back]:
                expected["pulling"].append(cp.back)
        for kind, backs in expected.items():
            if sorted(landings[sid][kind]) != sorted(backs):
                return {
                    "check": f"incoming-{kind}",
                    "state": chain.state_label(sid),
                    "expected": sorted(col + 1 for col in backs),
                    "got": sorted(col + 1 for col in landings[sid][kind]),
                }
    return None


# ---------------------------------------------------------------------------
# Suite registry
# ---------------------------------------------------------------------------


# suite -> (whether it checks the composition m, the largest N it checks or
# None, the reports on one composition at a seed).  The lambdas look the
# check functions up at call time, so a rebound module-level check_* (a
# tracing wrapper, say) is the one that runs.  run_suites reports in this order.
SUITES: dict[str, tuple[Callable[[tuple[int, ...]], bool], int | None, Callable[..., list[SuiteReport]]]] = {
    "fm3": (lambda m: len(m) == 3, None, lambda c, seed: [check_fm3_theorem(c, seed), check_three_species_lemma(c)]),
    "fm1": (lambda m: m[0] == 1 and len(m) >= 3, None, lambda c, seed: [check_fm1_theorem(c)]),
    "zpart": (lambda m: m[0] == 1 and len(m) >= 3, None, lambda c, seed: [check_partition_function(c)]),
    "main": (lambda m: True, None, lambda c, seed: [check_main_conjecture(c, seed)]),
    "lw": (lambda m: len(m) >= 3 and max(m) == 1, 5, lambda c, seed: [check_lw_normalization_and_positivity(c)]),
    "identity": (lambda m: max(m) == 1, 6, lambda c, seed: [check_identity_count(c)]),
    "uniform": (lambda m: True, None, lambda c, seed: [check_uniform_stationarity(c)]),
    "coupe": (lambda m: len(m) == 3, None, lambda c, seed: [check_coupe_theorem(c)]),
}


def run_suites(
    names: Sequence[str], max_n: int = DEFAULT_MAX_N, seed: int = DEFAULT_SEED
) -> list[SuiteReport]:
    """Reports of the named suites, or of every suite for "all", in SUITES
    order and each suite's in iter_compositions order.

    Lists the compositions first, and raises ValueError before anything
    runs at the first one a chosen suite takes that has too many queues.
    """
    global _made
    unknown = [name for name in names if name not in SUITES and name != "all"]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    chosen = {name: entry for name, entry in SUITES.items() if name in names or "all" in names}
    top = min(max_n, max((cap or max_n for _, cap, _ in chosen.values()), default=0))
    plan = []
    for c in iter_compositions(top):
        checks = [(name, check) for name, (takes, cap, check) in chosen.items() if c.N <= (cap or top) and takes(c.m)]
        if checks:
            check_queue_count(c)
            plan.append((c, checks))
    reports: dict[str, list[SuiteReport]] = {name: [] for name in chosen}
    for c, checks in plan:
        _made = {}
        try:
            for name, check in checks:
                reports[name].extend(check(c, seed))
        finally:
            _made = None
    if not any(reports.values()):
        raise ValueError(
            f"nothing to check: no input of {' '.join(names)} has N <= {max_n}; "
            "suites start at N = 2 or 3"
        )
    return [report for suite in reports.values() for report in suite]
