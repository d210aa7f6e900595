"""Theorem and conjecture suites over exhaustively enumerated state spaces.

Every suite returns a SuiteReport rather than raising: proved statements
("theorem" kind) are expected to pass and a failure is a library bug, while
conjectured statements ("conjecture" kind) are reported as agree/disagree.
All randomness is a seeded drawing of small positive rational rate points,
so each report is reproducible from (composition, seed).
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
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
    mlq_count,
    orbit_representatives,
    orbit_ring_successors,
    project_orbit_representatives,
    project_queues,
    queue_label,
    ring_successors,
    word_label,
)
from .poly import LaurentPoly, complete_homogeneous, q_int_derivative
from .solve import (
    lifted_irreducible,
    lump,
    master_residual,
    point_vector,
    stationary_solve,
)

DEFAULT_SEED = 20240
DEFAULT_MAX_N = 5
# report policy, not a solver limit: fm1's solver_points and uniform's method change
# above this many full-chain states, orbit chain or not; perfbench/golden/*.json pins both
SOLVE_CAP = 300


@dataclass
class SuiteReport:
    suite: str
    composition: tuple[int, ...] | None
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
            "composition": list(self.composition) if self.composition else None,
            "kind": self.kind,
            "status": self.status,
            "elapsed": round(self.elapsed, 4),
            "details": self.details,
        }
        if self.counterexample is not None:
            payload["counterexample"] = self.counterexample
        return payload


def _report(suite: str, comp, kind: str, started: float, failure: dict | None, details: dict):
    good = "pass" if kind == "theorem" else "agree"
    bad = "fail" if kind == "theorem" else "disagree"
    return SuiteReport(
        suite=suite,
        composition=tuple(comp.m) if isinstance(comp, Composition) else comp,
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


def iter_compositions(
    max_total: int, pred: Callable[[tuple[int, ...]], bool] | None = None
) -> Iterable[Composition]:
    """All positive compositions with at least two parts, N ascending."""
    for total in range(2, max_total + 1):
        for parts in range(2, total + 1):
            for cuts in itertools.combinations(range(1, total), parts - 1):
                bounds = (0,) + cuts + (total,)
                m = tuple(b - a for a, b in zip(bounds, bounds[1:]))
                if pred is None or pred(m):
                    yield build_composition(m)


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
    is not the weights' values, or None."""
    for point in points:
        if stationary_solve(chain, point) != point_vector(weights, point):
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
    queues that project to its word, counted by exponent."""
    exponents = {w: Counter() for w in word_chain.states}
    for word, exps in zip(projection.words, projection.exponents):
        exponents[word][exps] += 1
    return [LaurentPoly(word_chain.nvars, exponents[w]) for w in word_chain.states]


# ---------------------------------------------------------------------------
# Three-species theorem
# ---------------------------------------------------------------------------


def check_fm3_theorem(c: Composition, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Covered-3 weights are stationary and the chain lumps to the word process."""
    started = time.perf_counter()
    if c.n != 3:
        raise ValueError("three-species suite needs n = 3")
    chain = build_fm_chain(c, "three_species")
    weights = _monomials(chain.projection.exponents)
    details: dict = {"states": len(chain.states), "transitions": len(chain.transitions)}
    failure = _residual_failure(chain, weights)

    if failure is None:
        word_chain = build_tasep_chain(c)
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
    projection = project_queues(c)
    cuts = {word: decompose_coupes(word) for word in set(projection.words)}
    # both in enumerate_mlqs order; strict, so a length mismatch raises
    fields = (projection.queues, projection.words, projection.covered)
    queues = zip(*fields, ring_successors(c), strict=True)
    for q, word, mask, (sid, successors) in queues:
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
            effective = [
                l
                for l in block
                if l not in covered and successors[l] != sid
            ]
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

    V1 - z1 is the x1 exponent of the conjectured weight; the states share
    one monomial per distinct exponent, as the chain's records share rates.
    Everything runs on one queue per rotation orbit, once rates and
    weights are certified rotation-invariant: the residual at a
    representative is the full chain's, and as every orbit holds N queues,
    the orbit chain's stationary vector is the full one on representatives.
    """
    started = time.perf_counter()
    if c.m[0] != 1 or c.n < 3:
        raise ValueError("single-first-class suite needs m_1 = 1 and n >= 3")
    projection, equivariant = project_orbit_representatives(c)
    walk, commutes = orbit_ring_successors(c)
    details: dict = {"states": mlq_count(c)}
    failure = None if equivariant else {"check": "projection-rotation"}
    if failure is None and not commutes:
        failure = {"check": "ring-rotation"}
    if failure is None:
        orbits = ringing_chain(c, "one_first_class", walk, projection)
        weights = _monomials([(e[0],) + (0,) * (c.n - 2) for e in projection.exponents])
        failure = _residual_failure(orbits, weights)
        if failure is None and not lifted_irreducible(orbits):
            failure = {"check": "irreducible"}
    if failure is None and details["states"] <= SOLVE_CAP:
        for x1 in (Fraction(2), Fraction(3), Fraction(5, 2)):
            point = (x1,) + (Fraction(1),) * (c.n - 2)
            if stationary_solve(orbits, point) != point_vector(weights, point):
                failure = {"check": "point-solve", "x1": str(x1)}
                break
        details["solver_points"] = 3
    return _report("fm1", c, "theorem", started, failure, details)


def check_partition_function(c: Composition) -> SuiteReport:
    """Sum of a^(V1 - z1) over all queues against the two closed forms.

    The binomial product form and the q-integer derivative form are
    asserted; the symmetric-function form as printed (h_{n-r} in r copies
    of a) is only reported, since it rewrites the product correctly just
    when N = n.
    """
    started = time.perf_counter()
    if c.m[0] != 1:
        raise ValueError("partition function suite needs m_1 = 1")
    a_name = ("a",)
    # V1 - z1, the first conjectured exponent, once per rotation orbit of N
    # queues, on which the certificate makes it constant
    projection, equivariant = project_orbit_representatives(c)
    counts = Counter(exps[0] for exps in projection.exponents)
    enumerated = LaurentPoly(1, {(e,): c.N * count for e, count in counts.items()}, a_name)
    a = LaurentPoly.variable(0, 1, a_name)
    one = LaurentPoly.one(1, a_name)
    explicit = q_form = h_form = LaurentPoly.constant(c.N, 1, a_name)
    # q_form stays multiplied by the (M_r - 1)! each derivative is divided by
    factorials = 1
    for r in range(2, c.n):
        M = c.M[r - 1]
        factor = LaurentPoly(
            1,
            {(i,): comb(M + i - 1, M - 1) for i in range(c.N - M + 1)},
            a_name,
        )
        explicit = explicit * factor
        q_form = q_form * q_int_derivative(c.N, M - 1, a_name)
        factorials *= factorial(M - 1)
        h_form = h_form * complete_homogeneous(c.n - r, [one] + [a] * r)
    failure = None
    if not equivariant:
        failure = {"check": "projection-rotation"}
    elif enumerated != explicit:
        failure = {"check": "enumeration-vs-binomial-product", "enumerated": str(enumerated), "explicit": str(explicit)}
    elif explicit * LaurentPoly.constant(factorials, 1, a_name) != q_form:
        failure = {"check": "binomial-product-vs-q-derivative"}
    details = {
        "partition_function": str(enumerated),
        "h_form": str(h_form),
        "h_form_matches": h_form == explicit,
    }
    return _report("zpart", c, "theorem", started, failure, details)


# ---------------------------------------------------------------------------
# Main conjecture and its corollaries
# ---------------------------------------------------------------------------


def check_main_conjecture(c: Composition, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Aggregated monomial queue weights against the exact word solution."""
    started = time.perf_counter()
    chain = build_tasep_chain(c)
    sums = _aggregated_weights(chain, project_queues(c))
    details: dict = {"words": len(chain.states), "queues": mlq_count(c)}
    failure = None
    empty = next((i for i, s in enumerate(sums) if s.is_zero()), None)
    if empty is not None:
        failure = {"check": "projection-misses-word", "word": chain.state_label(empty)}
    if failure is None:
        failure = _residual_failure(chain, sums, "symbolic-residual")
        details["symbolic_residual"] = "zero" if failure is None else "nonzero"
    if failure is None:
        failure = _point_failure(chain, sums, rate_points(c.n - 1, 5, seed), "point-proportionality")
        details["rate_points"] = 5
    return _report("main", c, "conjecture", started, failure, details)


def check_lw_normalization_and_positivity(n: int) -> SuiteReport:
    """Normalized stationary weights of the permutation system are positive.

    The symbolic weights are the aggregated monomial weights for every n
    (for n = 3 they equal the proved three-species block sums), certified
    stationary through the symbolic master equation before use.
    """
    started = time.perf_counter()
    if not 3 <= n <= 5:
        raise ValueError("positivity suite covers n = 3, 4, 5")
    c = build_composition((1,) * n)
    failure = None
    details: dict = {}
    word_chain = build_tasep_chain(c)
    sums = _aggregated_weights(word_chain, project_queues(c))
    if _residual_failure(word_chain, sums) is not None:
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
    return _report("lw", (1,) * n, "conjecture", started, failure, details)


def check_identity_count(n: int) -> SuiteReport:
    """Queues projecting to 1 2 ... n, counted against the binomial product."""
    started = time.perf_counter()
    if n < 2:
        raise ValueError("identity count needs n >= 2")
    c = build_composition((1,) * n)
    identity = tuple(range(1, n + 1))
    count = project_queues(c).words.count(identity)
    formula = 1
    for i in range(1, n):
        formula *= comb(n - 1, i)
    failure = None
    if count != formula:
        failure = {"check": "count", "enumerated": count, "formula": formula}
    return _report(
        "identity", (1,) * n, "conjecture", started, failure,
        {"enumerated": count, "formula": formula},
    )


# ---------------------------------------------------------------------------
# Uniform stationarity of the rate-one multiline process
# ---------------------------------------------------------------------------


def check_uniform_stationarity(c: Composition) -> SuiteReport:
    """Strong connectivity, degree balance, and the uniform stationary law;
    for m_1 = 1 and n >= 3 on the certified orbit chain, whose records in and
    out of a representative are its arcs in the full chain, one for one, as
    rotation acts freely and no ring turns a representative onto itself."""
    started = time.perf_counter()
    details: dict = {"states": mlq_count(c)}
    if c.m[0] == 1 and c.n >= 3:
        walk, commutes = orbit_ring_successors(c)
        chain = ringing_chain(c, "uniform", walk, orbit_representatives(c))
        failure = None if commutes else {"check": "ring-rotation"}
        if failure is None and not lifted_irreducible(chain):
            failure = {"check": "irreducible"}
    else:
        chain = build_fm_chain(c, "uniform")
        failure = None if chain.irreducible else {"check": "irreducible"}
    if failure is None:
        outs = [len(recs) for recs in chain.out_records()]
        ins = [len(recs) for recs in chain.in_records()]
        bad = next((i for i in range(len(outs)) if outs[i] != ins[i]), None)
        if bad is not None:
            failure = {"check": "degree-balance", "state": chain.state_label(bad), "out": outs[bad], "in": ins[bad]}
    if failure is None:
        # degree balance is exactly the master equation for the uniform
        # vector at rate one; with irreducibility this pins uniqueness, and
        # up to SOLVE_CAP queues the solve at ones confirms it
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
        bad = next(
            (rec for rec in chain.transitions if words[rec.src] == words[rec.dst]), None
        )
        if bad is not None:
            failure = {"check": "minimality", "state": chain.state_label(bad.src)}

    if failure is None:
        failure = _check_seat_bookkeeping(chain, words)

    if failure is None:
        weights = _monomials(chain.projection.exponents)
        failure = _residual_failure(chain, weights)

    if failure is None:
        failure = _word_lumping(chain, build_tasep_chain(c), words)
    return _report("coupe", c, "theorem", started, failure, details)


def _check_seat_bookkeeping(chain: ChainGraph, words) -> dict | None:
    """Out-degree c1 + e2 and the landing sites of incoming jumps."""
    N = chain.composition.N
    out = chain.out_records()
    incoming = chain.in_records()
    cuts = {word: decompose_coupes(word) for word in set(words)}
    for sid, q in enumerate(chain.states):
        coupes = cuts[words[sid]]
        c1 = sum(1 for cp in coupes if cp.seat_class == 1)
        e2 = sum(1 for cp in coupes if cp.seat_class == 2 and not cp.full)
        if len(out[sid]) != c1 + e2:
            return {
                "check": "outgoing-count",
                "state": chain.state_label(sid),
                "expected": c1 + e2,
                "got": len(out[sid]),
            }
        expected = {"regular": [], "pulling": []}
        for cp, nxt in zip(coupes, coupes[1:] + coupes[:1]):
            if cp.seat_class == 1 and q[0][cp.back]:
                expected["regular"].append(cp.back)
            if not (nxt.seat_class == 2 and nxt.full) and not q[0][nxt.back]:
                expected["pulling"].append(cp.back)
        landings = {kind: [] for kind in expected}
        for rec in incoming[sid]:
            mech, _, col = rec.mechanism.partition("(")
            landings[mech.removeprefix("coupe-")].append((int(col.rstrip(")")) - 1 - 1) % N)
        for kind, backs in expected.items():
            if sorted(landings[kind]) != sorted(backs):
                return {
                    "check": f"incoming-{kind}",
                    "state": chain.state_label(sid),
                    "expected": sorted(col + 1 for col in backs),
                    "got": sorted(col + 1 for col in landings[kind]),
                }
    return None


# ---------------------------------------------------------------------------
# Suite registry
# ---------------------------------------------------------------------------


def _three_species(max_n: int) -> Iterable[Composition]:
    return iter_compositions(max_n, lambda m: len(m) == 3)


def _single_first_class(max_n: int) -> Iterable[Composition]:
    return iter_compositions(max_n, lambda m: m[0] == 1 and len(m) >= 3)


# suite -> (its inputs up to ring size max_n, the reports on one input at a
# seed).  The lambdas look the check functions up at call time, so a rebound
# module-level check_* (a tracing wrapper, say) is the one that runs.
# run_suites reports in this order.
SUITES: dict[str, tuple[Callable[[int], Iterable], Callable[..., list[SuiteReport]]]] = {
    "fm3": (
        _three_species,
        lambda c, seed: [check_fm3_theorem(c, seed), check_three_species_lemma(c)],
    ),
    "fm1": (_single_first_class, lambda c, seed: [check_fm1_theorem(c)]),
    "zpart": (_single_first_class, lambda c, seed: [check_partition_function(c)]),
    "main": (iter_compositions, lambda c, seed: [check_main_conjecture(c, seed)]),
    "lw": (
        lambda max_n: range(3, min(max_n, 5) + 1),
        lambda n, seed: [check_lw_normalization_and_positivity(n)],
    ),
    "identity": (
        lambda max_n: range(2, min(max_n, 6) + 1),
        lambda n, seed: [check_identity_count(n)],
    ),
    "uniform": (iter_compositions, lambda c, seed: [check_uniform_stationarity(c)]),
    "coupe": (_three_species, lambda c, seed: [check_coupe_theorem(c)]),
}


def run_suites(
    names: Sequence[str], max_n: int = DEFAULT_MAX_N, seed: int = DEFAULT_SEED
) -> list[SuiteReport]:
    """Reports of the named suites, or of every suite for "all", in SUITES order.

    Raises ValueError before running anything when a composition among the
    inputs has more than MAX_QUEUES multiline queues; each composition is
    checked as it is listed, so the listing stops at the first one refused.
    """
    unknown = [name for name in names if name not in SUITES and name != "all"]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    plan = []
    for name, (inputs, check) in SUITES.items():
        if name in names or "all" in names:
            items = []
            for item in inputs(max_n):
                if isinstance(item, Composition):
                    check_queue_count(item)
                items.append(item)
            plan.append((check, items))
    reports: list[SuiteReport] = []
    for check, items in plan:
        for item in items:
            reports.extend(check(item, seed))
    if not reports:
        raise ValueError(
            f"nothing to check: no input of {' '.join(names)} has N <= {max_n}; "
            "suites start at N = 2 or 3"
        )
    return reports
