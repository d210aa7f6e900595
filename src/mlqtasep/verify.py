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
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Sequence

from .chains import (
    ChainGraph,
    bully_partition,
    build_coupe_chain,
    build_fm_chain,
    build_tasep_chain,
    decompose_coupes,
)
from .core import (
    Composition,
    build_composition,
    bully_projection,
    conjectured_weight,
    enumerate_mlqs,
    enumerate_words,
    queue_label,
    ringing_transition,
    single_first_class_weight,
    three_species_weight,
    word_label,
)
from .poly import LaurentPoly, complete_homogeneous, q_int_derivative
from .solve import (
    _quotient_chain,
    check_lumpability,
    irreducible,
    master_residual,
    normalize_rationals,
    same_rate_graph,
    stationary_solve,
)

DEFAULT_SEED = 20240
DEFAULT_MAX_N = 5
# report policy, not a solver limit: fm1's solver_points and uniform's method
# change above this many states, and perfbench/golden/*.json pins both fields
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


def _proportional(u: Sequence[Fraction], v: Sequence[int]) -> bool:
    if len(u) != len(v) or not u:
        return False
    return all(u[i] * v[0] == u[0] * v[i] for i in range(len(u)))


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


def _word_lumping(
    chain: ChainGraph, word_chain: ChainGraph
) -> tuple[list[int], list, dict | None]:
    """Bully partition of a queue chain and the counterexample, if any, to
    its lumping onto the word process."""
    blocks, words = bully_partition(chain)
    ok, counterexample = check_lumpability(chain, blocks)
    failure = None
    if not ok:
        failure = {"check": "lumpability", **counterexample}
    elif not same_rate_graph(_quotient_chain(chain, blocks, words), word_chain):
        failure = {"check": "lumped-graph"}
    return blocks, words, failure


# ---------------------------------------------------------------------------
# Three-species theorem
# ---------------------------------------------------------------------------


def check_fm3_theorem(c: Composition, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Covered-3 weights are stationary and the chain lumps to the word process."""
    started = time.perf_counter()
    if c.n != 3:
        raise ValueError("three-species suite needs n = 3")
    chain = build_fm_chain(c, "three_species")
    labelings = [bully_projection(q) for q in chain.states]
    weights = [three_species_weight(lab) for lab in labelings]
    details: dict = {"states": len(chain.states), "transitions": len(chain.transitions)}
    failure = _residual_failure(chain, weights)

    if failure is None:
        word_chain = build_tasep_chain(c)
        blocks, words, failure = _word_lumping(chain, word_chain)
        if failure is None:
            sums = [LaurentPoly.zero(2)] * len(words)
            for state, block in enumerate(blocks):
                sums[block] = sums[block] + weights[state]
            details["block_sums"] = [str(w) for w in sums]
            failure = _residual_failure(word_chain, sums, "block-sum-residual", False)
            if failure is None and c.N == 6:
                # large ring: confirm the block sums really solve the word
                # process at random positive rational rate points too
                for point in rate_points(2, 5, seed):
                    values = [w.eval(point) for w in sums]
                    solved = stationary_solve(word_chain, point)
                    if not _proportional(values, solved):
                        failure = {"check": "point-solve", "point": [str(x) for x in point]}
                        break
    return _report("fm3", c, "theorem", started, failure, details)


def check_three_species_lemma(c: Composition) -> SuiteReport:
    """Local structure of the three-species ringing dynamics, four parts."""
    started = time.perf_counter()
    if c.n != 3:
        raise ValueError("three-species lemma needs n = 3")
    failure = None
    checked = 0
    for q in enumerate_mlqs(c):
        lab = bully_projection(q)
        word = lab.word
        covered = {i for i in range(c.N) if word[i] == 3 and lab.is_covered_site(i)}
        k = len(covered)
        successors = [ringing_transition(q, i) for i in range(c.N)]
        for i in range(c.N):
            checked += 1
            if word[i] == 2 and not (q[0][i] == 0 and q[1][i] == 1):
                failure = {"part": 1, "queue": queue_label(q), "site": i + 1}
                break
            if word[(i - 1) % c.N] == 1 and word[i] == 2 and successors[i] != q:
                failure = {"part": 2, "site": i + 1}
                break
            if successors[i] != q:
                k_next = bully_projection(successors[i]).covered_three_count()
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
        # site triggers an effective transition
        for block in _three_blocks(word):
            effective = [
                l
                for l in block
                if l not in covered and successors[l] != q
            ]
            if len(effective) > 1:
                failure = {"part": 3, "word": word_label(word), "sites": [l + 1 for l in effective]}
                break
        if failure:
            break
    return _report("fm3-lemma", c, "theorem", started, failure, {"checked_rings": checked})


def _three_blocks(word) -> list[list[int]]:
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


# ---------------------------------------------------------------------------
# Single first-class particle theorem and its partition function
# ---------------------------------------------------------------------------


def check_fm1_theorem(c: Composition) -> SuiteReport:
    """Weights x1^(V1 - z1) are stationary when m_1 = 1 and x_i = 1 for i >= 2."""
    started = time.perf_counter()
    if c.m[0] != 1 or c.n < 3:
        raise ValueError("single-first-class suite needs m_1 = 1 and n >= 3")
    chain = build_fm_chain(c, "one_first_class")
    weights = [single_first_class_weight(bully_projection(q)) for q in chain.states]
    details: dict = {"states": len(chain.states)}
    failure = _residual_failure(chain, weights)
    if failure is None and not irreducible(chain):
        failure = {"check": "irreducible"}
    if failure is None and len(chain.states) <= SOLVE_CAP:
        for x1 in (Fraction(2), Fraction(3), Fraction(5, 2)):
            point = (x1,) + (Fraction(1),) * (c.n - 2)
            values = [w.eval(point) for w in weights]
            if stationary_solve(chain, point) != normalize_rationals(values):
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
    enumerated = LaurentPoly.zero(1, a_name)
    for q in enumerate_mlqs(c):
        lab = bully_projection(q)
        enumerated = enumerated + LaurentPoly.monomial(
            1, (c.V[0] - lab.z1(),), a_name
        )
    explicit = LaurentPoly.constant(c.N, 1, a_name)
    for r in range(2, c.n):
        factor = LaurentPoly(
            1,
            {(i,): comb(c.M[r - 1] + i - 1, c.M[r - 1] - 1) for i in range(c.N - c.M[r - 1] + 1)},
            a_name,
        )
        explicit = explicit * factor
    q_form = LaurentPoly.constant(c.N, 1, a_name)
    for r in range(2, c.n):
        derivative = q_int_derivative(c.N, c.M[r - 1] - 1, a_name)
        q_form = q_form * derivative.monomial_div(
            LaurentPoly.constant(factorial(c.M[r - 1] - 1), 1, a_name)
        )
    a = LaurentPoly.variable(0, 1, a_name)
    one = LaurentPoly.one(1, a_name)
    h_form = LaurentPoly.constant(c.N, 1, a_name)
    for r in range(2, c.n):
        h_form = h_form * complete_homogeneous(c.n - r, [one] + [a] * r)
    failure = None
    if enumerated != explicit:
        failure = {"check": "enumeration-vs-binomial-product", "enumerated": str(enumerated), "explicit": str(explicit)}
    elif explicit != q_form:
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


def _aggregated_weights(c: Composition) -> tuple[list[LaurentPoly], list]:
    words = enumerate_words(c)
    index = {w: i for i, w in enumerate(words)}
    sums = [LaurentPoly.zero(c.n - 1)] * len(words)
    for q in enumerate_mlqs(c):
        lab = bully_projection(q)
        block = index[lab.word]
        sums[block] = sums[block] + conjectured_weight(lab)
    return sums, words


def check_main_conjecture(c: Composition, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Aggregated monomial queue weights against the exact word solution."""
    started = time.perf_counter()
    sums, words = _aggregated_weights(c)
    details: dict = {"words": len(words), "queues": len(enumerate_mlqs(c))}
    failure = None
    empty = next((i for i, s in enumerate(sums) if s.is_zero()), None)
    if empty is not None:
        failure = {"check": "projection-misses-word", "word": word_label(words[empty])}
    chain = build_tasep_chain(c)
    if failure is None and c.N <= 5:
        failure = _residual_failure(chain, sums, "symbolic-residual")
        details["symbolic_residual"] = "zero" if failure is None else "nonzero"
    if failure is None:
        for point in rate_points(c.n - 1, 5, seed):
            values = [s.eval(point) for s in sums]
            solved = stationary_solve(chain, point)
            if not _proportional(values, solved):
                failure = {
                    "check": "point-proportionality",
                    "point": [str(x) for x in point],
                }
                break
        details["rate_points"] = 5
    return _report("main", c, "conjecture", started, failure, details)


def check_lw_normalization_and_positivity(n: int) -> SuiteReport:
    """Normalized stationary weights of the permutation system are positive.

    For n = 3 the symbolic weights come from the proved three-species block
    sums; for n = 4, 5 from the aggregated monomial weights, certified
    stationary through the symbolic master equation before use.
    """
    started = time.perf_counter()
    if not 3 <= n <= 5:
        raise ValueError("positivity suite covers n = 3, 4, 5")
    c = build_composition((1,) * n)
    failure = None
    details: dict = {}
    if n == 3:
        chain = build_fm_chain(c, "three_species")
        blocks, words = bully_partition(chain)
        sums = [LaurentPoly.zero(2)] * len(words)
        for state, block in enumerate(blocks):
            sums[block] = sums[block] + three_species_weight(bully_projection(chain.states[state]))
    else:
        sums, words = _aggregated_weights(c)
    word_chain = build_tasep_chain(c)
    if _residual_failure(word_chain, sums) is not None:
        failure = {"check": "weights-not-stationary"}
    if failure is None:
        w0 = tuple(range(n, 0, -1))
        w0_index = words.index(w0)
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
                "word": word_label(words[bad]),
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
    count = sum(1 for q in enumerate_mlqs(c) if bully_projection(q).word == identity)
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
    """Strong connectivity, degree balance, and the uniform stationary law."""
    started = time.perf_counter()
    chain = build_fm_chain(c, "uniform")
    details: dict = {"states": len(chain.states)}
    failure = None
    if not irreducible(chain):
        failure = {"check": "irreducible"}
    if failure is None:
        outs = [len(recs) for recs in chain.out_records()]
        ins = [len(recs) for recs in chain.in_records()]
        bad = next((i for i in range(len(outs)) if outs[i] != ins[i]), None)
        if bad is not None:
            failure = {
                "check": "degree-balance",
                "state": chain.state_label(bad),
                "out": outs[bad],
                "in": ins[bad],
            }
    if failure is None:
        if len(chain.states) <= SOLVE_CAP:
            point = (Fraction(1),) * chain.nvars
            solved = stationary_solve(chain, point)
            if solved != [1] * len(chain.states):
                failure = {"check": "uniform-solve"}
            details["method"] = "direct-solve"
        else:
            # degree balance is exactly the master equation for the uniform
            # vector at rate one; with irreducibility this pins uniqueness
            details["method"] = "balance-certificate"
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
    labelings = [bully_projection(q) for q in chain.states]
    details: dict = {"states": len(chain.states), "transitions": len(chain.transitions)}
    failure = None

    if not irreducible(chain):
        failure = {"check": "irreducible"}

    words = [lab.word for lab in labelings]
    if failure is None:
        bad = next(
            (rec for rec in chain.transitions if words[rec.src] == words[rec.dst]), None
        )
        if bad is not None:
            failure = {"check": "minimality", "state": chain.state_label(bad.src)}

    if failure is None:
        failure = _check_seat_bookkeeping(chain, words)

    if failure is None:
        weights = [three_species_weight(lab) for lab in labelings]
        failure = _residual_failure(chain, weights)

    if failure is None:
        failure = _word_lumping(chain, build_tasep_chain(c))[2]
    return _report("coupe", c, "theorem", started, failure, details)


def _check_seat_bookkeeping(chain: ChainGraph, words) -> dict | None:
    """Out-degree c1 + e2 and the landing sites of incoming jumps."""
    N = chain.composition.N
    out = chain.out_records()
    incoming = chain.in_records()
    for sid, q in enumerate(chain.states):
        coupes = decompose_coupes(words[sid])
        c1 = sum(1 for cp in coupes if cp.seat_class == 1)
        e2 = sum(1 for cp in coupes if cp.seat_class == 2 and not cp.full)
        if len(out[sid]) != c1 + e2:
            return {
                "check": "outgoing-count",
                "state": chain.state_label(sid),
                "expected": c1 + e2,
                "got": len(out[sid]),
            }
        occupied_backs = {
            cp.back for cp in coupes if cp.seat_class == 1 and q[0][cp.back]
        }
        pulling_backs = set()
        for which, cp in enumerate(coupes):
            nxt = coupes[(which + 1) % len(coupes)]
            if nxt.seat_class == 2 and nxt.full:
                continue
            if q[0][nxt.back]:
                continue
            pulling_backs.add(cp.back)
        landings = {"coupe-regular": [], "coupe-pulling": []}
        for rec in incoming[sid]:
            mech, _, col = rec.mechanism.partition("(")
            landings[mech].append((int(col.rstrip(")")) - 1 - 1) % N)
        if sorted(landings["coupe-regular"]) != sorted(occupied_backs):
            return {
                "check": "incoming-regular",
                "state": chain.state_label(sid),
                "expected": sorted(col + 1 for col in occupied_backs),
                "got": sorted(col + 1 for col in landings["coupe-regular"]),
            }
        if sorted(landings["coupe-pulling"]) != sorted(pulling_backs):
            return {
                "check": "incoming-pulling",
                "state": chain.state_label(sid),
                "expected": sorted(col + 1 for col in pulling_backs),
                "got": sorted(col + 1 for col in landings["coupe-pulling"]),
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
    """Reports of the named suites, or of every suite for "all", in SUITES order."""
    unknown = [name for name in names if name not in SUITES and name != "all"]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    reports: list[SuiteReport] = []
    for name, (inputs, check) in SUITES.items():
        if name in names or "all" in names:
            for item in inputs(max_n):
                reports.extend(check(item, seed))
    if not reports:
        raise ValueError(
            f"nothing to check: no input of {' '.join(names)} has N <= {max_n}; "
            "suites start at N = 2 or 3"
        )
    return reports
