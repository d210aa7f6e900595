"""Finite generator graphs for the four ring processes.

Each chain stores its state-changing events as Transitions, parallel
columns of sources, targets, rate ids and mechanism ids; loops are never
stored and the diagonal of the generator is implied by column sums.  Rates
are exact polynomials in the per-class jump parameters x1..x_{n-1}; the ids
index one tuple per chain of its distinct rate objects (x1..x_{n-1}, and 1
for the ringing rules) and one of its mechanism labels, and reading the
columns makes TransitionRecords from those shared objects.  One pass over
all rings at once, ringing_chain, makes every ringing chain, fm1's and
uniform's orbit chains too, whose records carry voltages: the turns from
a destination to its orbit's representative.
The queue chains whose rates or jumps read the projected word keep the
projection of their states on the chain, so the suites that check them
read it instead of projecting again; the coupe chain also keeps the cut
of each projected word, which its suite's seat bookkeeping reads.  The
facts that do not depend on a rate point, strong connectivity with the
potentials of its forward walk, the rotation orbits and the state labels,
are properties of the chain, each computed on first read.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from operator import add, eq, ne
from typing import NamedTuple

from .core import (
    Composition,
    Queue,
    QueueProjection,
    Word,
    enumerate_mlqs,
    enumerate_words,
    project_queues,
    queue_label,
    ring_successors,
    rotate,
    word_label,
)
from .poly import LaurentPoly, parse_poly, x_vars


class TransitionRecord(NamedTuple):
    src: int
    dst: int
    rate: LaurentPoly
    mechanism: str


class Transitions(Sequence):
    """A chain's records as parallel columns: per record its source, its target,
    and the index of its rate in rates and of its label in mechanisms, one object
    per distinct rate (by identity) and label.  Read, it makes TransitionRecords."""

    __slots__ = ("sources", "targets", "rate_ids", "rates", "mechanism_ids", "mechanisms")

    def __init__(self, sources, targets, rate_ids, rates, mechanism_ids, mechanisms):
        self.sources, self.targets, self.rate_ids, self.rates = sources, targets, rate_ids, rates
        self.mechanism_ids, self.mechanisms = mechanism_ids, mechanisms

    @classmethod
    def of(cls, records: Iterable) -> Transitions:
        """The columns of (src, dst, rate, mechanism) records, ids in order of first use."""
        sources, targets, rates, labels = map(list, zip(*records)) if records else ([], [], [], [])
        distinct, mechanisms = {id(rate): rate for rate in rates}, {label: k for k, label in enumerate(dict.fromkeys(labels))}
        rate_id = {key: k for k, key in enumerate(distinct)}
        rate_ids, mechanism_ids = [rate_id[id(rate)] for rate in rates], list(map(mechanisms.__getitem__, labels))
        return cls(sources, targets, rate_ids, tuple(distinct.values()), mechanism_ids, tuple(mechanisms))

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self):
        rates, labels = map(self.rates.__getitem__, self.rate_ids), map(self.mechanisms.__getitem__, self.mechanism_ids)
        return map(TransitionRecord._make, zip(self.sources, self.targets, rates, labels))

    def __getitem__(self, k):
        return tuple(self)[k]  # reads every record: the kernels read the columns, not records by index

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (Transitions, tuple, list)) else NotImplemented


@dataclass(frozen=True)
class ChainGraph:
    """States and one record per state-changing event, whose ends are distinct state
    ids: checked in builtins, and on a failure record by record to name the first.
    Records given as anything but Transitions are converted to its columns once."""

    kind: str
    composition: Composition
    states: tuple
    transitions: Transitions
    nvars: int
    # the projection of the states of a projecting queue chain (fm under
    # three_species or one_first_class, coupe); else None
    projection: QueueProjection | None = field(default=None, compare=False, repr=False)
    # one voltage per record on an orbit chain with a turned record; else empty
    voltages: tuple[int, ...] = ()
    # on a coupe chain, each projected word's decompose_coupes cut; else None
    coupes: dict[Word, list[Coupe]] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.transitions, Transitions):
            object.__setattr__(self, "transitions", Transitions.of(tuple(self.transitions)))
        if self.voltages and len(self.voltages) != len(self.transitions):
            raise ValueError(f"{len(self.voltages)} voltages for {len(self.transitions)} transitions")
        ids, sources, targets = range(len(self.states)), self.transitions.sources, self.transitions.targets
        try:
            valid = not any(map(eq, sources, targets)) and set(ids).issuperset(itertools.chain(sources, targets))
        except TypeError:  # an unhashable end, which the loop names
            valid = False
        if not valid:
            for pos, (src, dst) in enumerate(zip(sources, targets)):
                if src == dst or src not in ids or dst not in ids:
                    raise ValueError(f"transition {pos}, {src} -> {dst}, is a loop or leaves {ids}")

    def state_label(self, i: int) -> str:
        state = self.states[i]
        if state and isinstance(state[0], tuple):
            return queue_label(state)
        return word_label(state)

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Each state's state_label."""
        return tuple(map(self.state_label, range(len(self.states))))

    @functools.cached_property
    def irreducible(self) -> bool:
        """True iff the transition digraph is strongly connected: state 0
        reaches every state, on the walk that gives the potentials, and then
        every state reaches state 0, one direction's adjacency lists at a time.
        Where a positive stationary vector is certified, potentials suffice."""
        if len(self.states) <= 1:
            return len(self.states) == 1
        return None not in self.potentials and None not in self._walk(1, 0)

    @functools.cached_property
    def potentials(self) -> tuple[int | None, ...]:
        """Per state, phi from the forward walk from state 0, or None where
        that walk does not reach: phi(0) = 0, and phi(u) - v = phi(w) on the
        record u -> w of voltage v (0 on a chain with none) that first
        reaches w.  With a positive stationary vector at positive rates no
        state is transient, and reaching every state is strong connectivity."""
        return tuple(self._walk(0, 1))

    def _walk(self, head: int, tail: int) -> list[int | None]:
        """Per state, None where state 0 does not reach it along the records
        read from column head to column tail, (0, 1) forward (sources to
        targets) and (1, 0) backward; else its phi, with phi(u) - v = phi(w)
        on every record u -> w of voltage v the walk crosses."""
        n, voltages = len(self.states), self.voltages
        ends = (self.transitions.sources, self.transitions.targets)
        tails = ends[tail]
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for k, u in enumerate(ends[head]):
            adjacency[u].append(k)
        sign = 1 if head else -1  # backward, phi(u) = phi(w) + v
        phi: list[int | None] = [None] * n
        phi[0], stack = 0, [0]
        while stack:
            node = stack.pop()
            for k in adjacency[node]:
                nxt = tails[k]
                if phi[nxt] is None:
                    phi[nxt] = (phi[node] + sign * voltages[k]) if voltages else 0
                    stack.append(nxt)
        return phi

    @functools.cached_property
    def rotation_orbits(self) -> tuple[int, ...]:
        """Each state's orbit under rotate, numbered in order of first state,
        when rotate maps every state to a state and the multiset of (src,
        dst, rate id) records onto itself, which makes the generator
        invariant at every rate point; else each state is its own orbit.
        Rate ids tell rates apart by identity: the builders and from_json
        share one object per distinct rate."""
        n = len(self.states)
        index = {state: i for i, state in enumerate(self.states)}
        rot = []
        for state in self.states:
            rot.append(index.get(rotate(state)))
            if rot[-1] is None:
                return tuple(range(n))
        t = self.transitions
        records = Counter(zip(t.sources, t.targets, t.rate_ids))
        if any(records[rot[s], rot[d], r] != count for (s, d, r), count in records.items()):
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

    @functools.cached_property
    def rotation_heads(self) -> tuple[int, ...]:
        """Per state, the first state of its orbit in rotation_orbits."""
        first: dict[int, int] = {}
        return tuple(first.setdefault(block, state) for state, block in enumerate(self.rotation_orbits))


# ---------------------------------------------------------------------------
# Word process
# ---------------------------------------------------------------------------


def build_tasep_chain(c: Composition) -> ChainGraph:
    """Exclusion process on words: a b -> b a at rate x_b whenever a > b."""
    states = enumerate_words(c)
    index = {w: i for i, w in enumerate(states)}
    nvars = c.n - 1
    sources, targets, rate_ids, mechanism_ids = [], [], [], []  # mechanism id: the swapped column
    for sid, word in enumerate(states):
        for i in range(c.N):
            j = (i + 1) % c.N
            a, b = word[i], word[j]
            if a > b:
                swapped = list(word)
                swapped[i], swapped[j] = b, a
                sources.append(sid)
                targets.append(index[tuple(swapped)])
                rate_ids.append(b - 1)
                mechanism_ids.append(i)
    mechanisms = tuple(f"tasep-swap({i + 1})" for i in range(c.N))
    records = Transitions(sources, targets, rate_ids, tuple(x_vars(nvars)), mechanism_ids, mechanisms)
    return ChainGraph("tasep", c, tuple(states), records, nvars)


# ---------------------------------------------------------------------------
# Multiline processes driven by ringing transitions
# ---------------------------------------------------------------------------

# Each rule's ring rate from x1..x_{n-1} and 1, by the projected class of the
# ringing column and whether that column is a covered vacancy (n = 3: a covered 3)
RATE_RULES = {
    "uniform": lambda cls, covered, x, one: one,
    "three_species": lambda cls, covered, x, one: x[0] if cls == 1 or (cls == 3 and covered) else x[1],
    "one_first_class": lambda cls, covered, x, one: x[0] if cls == 1 else one,
}


def build_fm_chain(c: Composition, rate_rule: str = "uniform") -> ChainGraph:
    """Ringing-path process on multiline queues with a pluggable rate rule.

    uniform: every bottom-row clock rings at rate 1.
    three_species (n = 3): rate x1 when the clock column projects to a 1 or
    a covered 3, rate x2 for a 2 or a non-covered 3.
    one_first_class (m_1 = 1): rate x1 at the unique first-class column,
    rate 1 elsewhere.
    """
    if rate_rule not in RATE_RULES:
        raise ValueError(f"unknown rate rule {rate_rule!r}")
    if rate_rule == "three_species" and c.n != 3:
        raise ValueError("three_species rates need exactly 3 classes")
    if rate_rule == "one_first_class" and c.m[0] != 1:
        raise ValueError("one_first_class rates need m_1 = 1")
    states = enumerate_mlqs(c) if rate_rule == "uniform" else project_queues(c)
    return ringing_chain(c, rate_rule, ring_successors(c), states)


def ringing_chain(
    c: Composition, rate_rule: str, column: Sequence[int], states: QueueProjection | Sequence[Queue], words: Iterable[Word] = ()
) -> ChainGraph:
    """The chain of the rings in column: N successor ids per state, states 0
    to B - 1 in order, as columns 0..N-1 ring (its own id for a loop, and
    B + w, past the B states, for a record to w of voltage 1).  The states
    are a projection's queues, or the queues given with the words their
    rates read, uncovered (uniform rates read none).  Each column is made
    over all rings at once and compressed to the rings that move: a ring's
    mechanism id is its column, its rate id read off its class and covered bit."""
    nvars = c.n - 1
    x, one = x_vars(nvars), LaurentPoly.one(nvars)
    rule = RATE_RULES[rate_rule]
    table = [rule(cls, bit, x, one) for bit in (0, 1) for cls in range(c.n + 1)]  # at cls + (n + 1) * bit; cls 0 unused
    rates = tuple({id(rate): rate for rate in table}.values())
    rate_id = {id(rate): k for k, rate in enumerate(rates)}
    table = [rate_id[id(rate)] for rate in table]
    projection = states if isinstance(states, QueueProjection) else None
    if projection is None:  # with no words given, each ring reads an uncovered 1
        states = tuple(states)
        words, covers = words or itertools.repeat((1,) * c.N, len(states)), ()
    else:
        states, words, covers = projection.queues, projection.words, projection.covered
    flatten, compress, B = itertools.chain.from_iterable, itertools.compress, len(states)
    if len(column) != B * c.N:
        raise ValueError(f"{len(column)} successor ids for {B} states of {c.N} rings")
    sids = list(range(B))
    ring_sources = list(flatten(zip(*[sids] * c.N)))
    moves = list(map(ne, ring_sources, column))
    sources, targets = list(compress(ring_sources, moves)), list(compress(column, moves))
    mechanism_ids = list(compress(itertools.cycle(range(c.N)), moves))
    codes = compress(flatten(words), moves)  # each moving ring's class, plus n + 1 where the rule reads a covered bit
    if covers and table[: c.n + 1] != table[c.n + 1 :]:
        offsets = {mask: [(c.n + 1) * (mask >> col & 1) for col in range(c.N)] for mask in set(covers)}
        codes = map(add, codes, compress(flatten(map(offsets.__getitem__, covers)), moves))
    rate_ids = list(map(table.__getitem__, codes))
    if len(rate_ids) != len(targets):
        raise ValueError(f"words for {len(rate_ids)} of {len(targets)} records")
    voltages = ()
    if targets and max(targets) >= B:  # B + w: a turned loop, B + sid, stays a loop that ChainGraph refuses
        voltages = tuple(map(((0,) * B + (1,) * B).__getitem__, targets))
    targets = list(map((sids + sids).__getitem__, targets))  # sids[w] is w, the sources' own id object
    mechanisms = tuple(f"ringing({i + 1})" for i in range(c.N))
    records = Transitions(sources, targets, rate_ids, rates, mechanism_ids, mechanisms)
    return ChainGraph(f"fm-{rate_rule}", c, states, records, nvars, projection, voltages)


# ---------------------------------------------------------------------------
# Coupe process (three species)
# ---------------------------------------------------------------------------


class Coupe(NamedTuple):
    """One segment of the circular cut decomposition of a word.

    columns walks the segment in ring order: a possibly empty run of 3s
    followed by a nonempty run of 1s or of 2s.  front is the column of the
    leftmost 1/2 (the only particle in the segment that can jump), back the
    rightmost column.
    """

    columns: tuple[int, ...]
    letters: tuple[int, ...]
    seat_class: int
    front: int
    back: int
    full: bool


def decompose_coupes(word: Word) -> list[Coupe]:
    """Cut the circular word after every maximal run of 1s and of 2s.

    The cuts are the run ends, the columns i with word[i] != 3 and
    word[i + 1] != word[i], and each coupe spans the columns after the
    previous cut up to its own.  Such a span is always a run of 3s and then
    one run of 1s or of 2s, since the letter before a run of 1s or 2s, past
    any 3s, is itself a run end; so front is the span's first column that
    is not a 3, and the coupe is full when the span holds no 3s.
    """
    N = len(word)
    if any(cls not in (1, 2, 3) for cls in word):
        raise ValueError("coupe decomposition is defined for classes 1..3")
    cuts = [i for i in range(N) if word[i] != 3 and word[(i + 1) % N] != word[i]]
    if not cuts and set(word) <= {3}:
        raise ValueError("word has no 1s or 2s, nothing to cut")
    if not cuts:
        raise ValueError(f"word is one run of {word[0]}s, with no run end to cut at")
    coupes = []
    start = cuts[-1] + 1 - N  # the first span may wrap past column N - 1
    for cut in cuts:
        span = range(start, cut + 1)
        columns = tuple(col % N for col in span)
        letters = tuple(word[col] for col in span)
        threes = letters.count(3)
        coupes.append(Coupe(columns, letters, word[cut], columns[threes], cut, not threes))
        start = cut + 1
    return coupes


def _move_left(row: Sequence[int], col: int) -> tuple[int, ...]:
    N = len(row)
    target = (col - 1) % N
    if not row[col] or row[target]:
        raise AssertionError("blocked move should have been filtered")
    cells = list(row)
    cells[col], cells[target] = 0, 1
    return tuple(cells)


def _pulling_jump(q: Queue, coupes: list[Coupe], which: int) -> Queue:
    """Vacant front seat jumps; trailing top-row particles are dragged along.

    The jumper's bottom cell moves one step left.  Top-row particles
    strictly right of the jumper inside its own coupe each move one step
    left; when no column is left there, the jumper being the back seat,
    the top-row particles of the whole next coupe move instead.
    """
    coupe = coupes[which]
    N = len(q[0])
    bottom = _move_left(q[1], coupe.front)
    behind = coupe.columns[coupe.columns.index(coupe.front) + 1 :]
    pull_range = behind or coupes[(which + 1) % len(coupes)].columns
    movers = [col for col in pull_range if q[0][col]]
    top = list(q[0])
    for col in movers:
        top[col] = 0
    for col in movers:
        target = (col - 1) % N
        if top[target]:
            raise AssertionError("pulled particle landed on an occupied cell")
        top[target] = 1
    return (tuple(top), bottom)


def build_coupe_chain(c: Composition) -> ChainGraph:
    """Minimal three-species process on queues: one jump per active coupe."""
    if c.n != 3:
        raise ValueError("coupe process is defined for exactly 3 classes")
    projection = project_queues(c)
    states, words = projection.queues, projection.words
    index = {q: i for i, q in enumerate(states)}
    cuts = {word: decompose_coupes(word) for word in set(words)}
    nvars = 2
    # mechanism id: the front seat's column, past N for a pulling jump; rate id: the seat's class - 1
    sources, targets, rate_ids, mechanism_ids = [], [], [], []
    rings = zip(*[iter(ring_successors(c))] * c.N)  # each queue's N successor ids
    for sid, (q, word, successors) in enumerate(zip(states, words, rings, strict=True)):
        coupes = cuts[word]
        for which, coupe in enumerate(coupes):
            if coupe.seat_class == 2 and coupe.full:
                continue  # blocked behind the 1 ending the previous coupe
            occupied = bool(q[0][coupe.front])
            if coupe.seat_class == 2 and occupied:
                raise AssertionError("front-seat 2 must sit under a vacancy")
            if occupied:
                # regular: the bottom, then the top cell moves left when
                # free, which is the ring at the front seat
                dst, mechanism = successors[coupe.front], coupe.front
            else:
                dst, mechanism = index[_pulling_jump(q, coupes, which)], c.N + coupe.front
            if dst == sid:
                raise AssertionError("coupe jumps always change the queue")
            sources.append(sid)
            targets.append(dst)
            rate_ids.append(coupe.seat_class - 1)
            mechanism_ids.append(mechanism)
    mechanisms = tuple(f"coupe-{kind}({col + 1})" for kind in ("regular", "pulling") for col in range(c.N))
    records = Transitions(sources, targets, rate_ids, tuple(x_vars(nvars)), mechanism_ids, mechanisms)
    return ChainGraph("coupe", c, states, records, nvars, projection, coupes=cuts)


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------


def to_dot(g: ChainGraph) -> str:
    lines = ["digraph chain {"]
    for i in range(len(g.states)):
        lines.append(f'  n{i} [label="{g.state_label(i)}"];')
    for rec in g.transitions:
        lines.append(f'  n{rec.src} -> n{rec.dst} [label="{rec.rate}"];')
    lines.append("}")
    return "\n".join(lines)


def to_json(g: ChainGraph) -> str:
    payload = {
        "kind": g.kind,
        "m": list(g.composition.m),
        "states": list(g.labels),
        "transitions": [
            {"from": src, "to": dst, "rate": str(rate), "mechanism": mechanism} for src, dst, rate, mechanism in g.transitions
        ],
    }
    for item, voltage in zip(payload["transitions"], g.voltages):  # none but on an orbit chain
        item["voltage"] = voltage
    return json.dumps(payload, indent=2, sort_keys=True)


def from_json(text: str) -> ChainGraph:
    from .core import build_composition, parse_queue, parse_word

    payload = json.loads(text)
    comp = build_composition(payload["m"])
    nvars = comp.n - 1
    states = []
    for label in payload["states"]:
        if "/" in label or set(label) <= {"0", "1"}:
            states.append(parse_queue(label))
        elif " " in label:
            states.append(parse_word(label))
        else:
            states.append(tuple(int(ch) for ch in label))
    # one polynomial per distinct rate text, shared like a built chain's
    rate, items = functools.cache(functools.partial(parse_poly, nvars=nvars)), payload["transitions"]
    records = Transitions.of([(item["from"], item["to"], rate(item["rate"]), item["mechanism"]) for item in items])
    # ChainGraph refuses voltages on some transitions but not all
    voltages = tuple(item["voltage"] for item in items if "voltage" in item)
    return ChainGraph(payload["kind"], comp, tuple(states), records, nvars, voltages=voltages)

