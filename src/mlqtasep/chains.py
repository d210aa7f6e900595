"""Finite generator graphs for the four ring processes.

Each chain stores one TransitionRecord per state-changing event; loops are
never stored and the diagonal of the generator is implied by column sums.
Rates are exact polynomials in the per-class jump parameters x1..x_{n-1}.
Each builder makes those rates (x1..x_{n-1}, and 1 for the ringing rules)
and one mechanism label per kind and column once per chain, and its records
share them; LaurentPoly is immutable, which makes the sharing safe.  One
loop, ringing_chain, makes every ringing record, fm1's and uniform's
orbit chains' too, whose records carry voltages: the turns from a
destination to its orbit's representative.
The queue chains whose rates or jumps read the projected word keep the
projection of their states on the chain, so the suites that check them
read it instead of projecting again.  The facts that do not depend on a
rate point, strong connectivity and the rotation orbits, are properties
of the chain, each computed on first read.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

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


# builders make records by tuple.__new__, which skips the NamedTuple's Python-level __new__
class TransitionRecord(NamedTuple):
    src: int
    dst: int
    rate: LaurentPoly
    mechanism: str


@dataclass(frozen=True)
class ChainGraph:
    kind: str
    composition: Composition
    states: tuple
    transitions: tuple[TransitionRecord, ...]
    nvars: int
    # the projection of the states of a projecting queue chain (fm under
    # three_species or one_first_class, fm1's orbit chain, coupe); else None
    projection: QueueProjection | None = field(default=None, compare=False, repr=False)
    # one voltage per record on an orbit chain with a turned record; else empty
    voltages: tuple[int, ...] = ()

    def __post_init__(self):
        if self.voltages and len(self.voltages) != len(self.transitions):
            raise ValueError(f"{len(self.voltages)} voltages for {len(self.transitions)} transitions")
        ids = range(len(self.states))
        for pos, (src, dst, _, _) in enumerate(self.transitions):
            if src == dst or src not in ids or dst not in ids:
                raise ValueError(f"transition {pos}, {src} -> {dst}, is a loop or leaves {ids}")

    def state_label(self, i: int) -> str:
        state = self.states[i]
        if state and isinstance(state[0], tuple):
            return queue_label(state)
        return word_label(state)

    def out_records(self) -> list[list[TransitionRecord]]:
        out: list[list[TransitionRecord]] = [[] for _ in self.states]
        for rec in self.transitions:
            out[rec.src].append(rec)
        return out

    def in_records(self) -> list[list[TransitionRecord]]:
        incoming: list[list[TransitionRecord]] = [[] for _ in self.states]
        for rec in self.transitions:
            incoming[rec.dst].append(rec)
        return incoming

    @functools.cached_property
    def irreducible(self) -> bool:
        """True iff the transition digraph is strongly connected: state 0
        reaches every state, and then every state reaches state 0.  One
        direction's adjacency lists are held at a time."""
        if len(self.states) <= 1:
            return len(self.states) == 1
        return self._reaches_all(0, 1) and self._reaches_all(1, 0)

    def _reaches_all(self, head: int, tail: int) -> bool:
        """Whether state 0 reaches every state along the records read from
        field head to field tail: (0, 1) walks them forward, (1, 0) backward."""
        n = len(self.states)
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for rec in self.transitions:
            adjacency[rec[head]].append(rec[tail])
        seen = [False] * n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    count += 1
                    stack.append(nxt)
        return count == n

    @functools.cached_property
    def rotation_orbits(self) -> tuple[int, ...]:
        """Each state's orbit under rotate, numbered in order of first state,
        when rotate maps every state to a state and the multiset of (src,
        dst, rate object) records onto itself, which makes the generator
        invariant at every rate point; else each state is its own orbit.
        Rates are compared by identity: the builders and from_json share one
        object per distinct rate."""
        n = len(self.states)
        index = {state: i for i, state in enumerate(self.states)}
        rot = []
        for state in self.states:
            rot.append(index.get(rotate(state)))
            if rot[-1] is None:
                return tuple(range(n))
        records = Counter((src, dst, id(rate)) for src, dst, rate, _ in self.transitions)
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


# ---------------------------------------------------------------------------
# Word process
# ---------------------------------------------------------------------------


def build_tasep_chain(c: Composition) -> ChainGraph:
    """Exclusion process on words: a b -> b a at rate x_b whenever a > b."""
    states = enumerate_words(c)
    index = {w: i for i, w in enumerate(states)}
    nvars = c.n - 1
    x = x_vars(nvars)
    mechanisms = [f"tasep-swap({i + 1})" for i in range(c.N)]
    records = []
    for sid, word in enumerate(states):
        for i in range(c.N):
            j = (i + 1) % c.N
            a, b = word[i], word[j]
            if a > b:
                swapped = list(word)
                swapped[i], swapped[j] = b, a
                records.append(tuple.__new__(TransitionRecord, (sid, index[tuple(swapped)], x[b - 1], mechanisms[i])))
    return ChainGraph("tasep", c, tuple(states), tuple(records), nvars)


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
    c: Composition, rate_rule: str, walk: Iterable, states: QueueProjection | Sequence[Queue]
) -> ChainGraph:
    """The chain of walk's rings: each state id, from 0 on, with its
    successors' ids as columns 0..N-1 ring (its own id for a loop, and
    B + w, past the B states, for a record to w of voltage 1).  The states
    are a projection's queues, or the queues given under uniform rates,
    which read no word.  Each record reads its rate from one table per
    chain, keyed by the projected class and covered bit of its column."""
    nvars = c.n - 1
    x, one = x_vars(nvars), LaurentPoly.one(nvars)
    rule = RATE_RULES[rate_rule]
    table = [[rule(cls, bit, x, one) for bit in (0, 1)] for cls in range(c.n + 1)]  # row 0 unused
    projection = states if isinstance(states, QueueProjection) else None
    if projection is None:  # uniform rates read no word: each ring reads an uncovered 1
        states = tuple(states)
        words, covers = itertools.repeat((1,) * c.N, len(states)), itertools.repeat(0, len(states))
    else:
        states, words, covers = projection.queues, projection.words, projection.covered
    mechanisms = [f"ringing({i + 1})" for i in range(c.N)]
    B, records, turned = len(states), [], []  # turned: the records of voltage 1
    for (sid, successors), word, covered in zip(walk, words, covers, strict=True):
        for i, dst in enumerate(successors):
            if dst != sid:
                if dst >= B:  # a turned loop, B + sid, stays a loop that ChainGraph refuses
                    dst -= B
                    turned.append(len(records))
                rate = table[word[i]][covered >> i & 1]
                records.append(tuple.__new__(TransitionRecord, (sid, dst, rate, mechanisms[i])))
    voltages = [0] * len(records) if turned else []
    for k in turned:
        voltages[k] = 1
    return ChainGraph(f"fm-{rate_rule}", c, states, tuple(records), nvars, projection, tuple(voltages))


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
    x = x_vars(nvars)
    regular = [f"coupe-regular({col + 1})" for col in range(c.N)]
    pulling = [f"coupe-pulling({col + 1})" for col in range(c.N)]
    records = []
    for q, word, (sid, rings) in zip(states, words, ring_successors(c), strict=True):
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
                dst = rings[coupe.front]
                mechanism = regular[coupe.front]
            else:
                dst = index[_pulling_jump(q, coupes, which)]
                mechanism = pulling[coupe.front]
            if dst == sid:
                raise AssertionError("coupe jumps always change the queue")
            records.append(tuple.__new__(TransitionRecord, (sid, dst, x[coupe.seat_class - 1], mechanism)))
    return ChainGraph("coupe", c, states, tuple(records), nvars, projection)


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
        "states": [g.state_label(i) for i in range(len(g.states))],
        "transitions": [
            {
                "from": rec.src,
                "to": rec.dst,
                "rate": str(rec.rate),
                "mechanism": rec.mechanism,
            }
            for rec in g.transitions
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
    rate = functools.cache(functools.partial(parse_poly, nvars=nvars))
    records = tuple(
        tuple.__new__(TransitionRecord, (item["from"], item["to"], rate(item["rate"]), item["mechanism"]))
        for item in payload["transitions"]
    )
    # ChainGraph refuses voltages on some transitions but not all
    voltages = tuple(item["voltage"] for item in payload["transitions"] if "voltage" in item)
    return ChainGraph(payload["kind"], comp, tuple(states), records, nvars, voltages=voltages)

