"""Finite generator graphs for the four ring processes.

Each chain stores one TransitionRecord per state-changing event; loops are
never stored and the diagonal of the generator is implied by column sums.
Rates are exact polynomials in the per-class jump parameters x1..x_{n-1}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    BullyLabeling,
    Composition,
    Queue,
    Word,
    bully_projection,
    enumerate_mlqs,
    enumerate_words,
    queue_label,
    ringing_transition,
    word_label,
)
from .poly import LaurentPoly, parse_poly


@dataclass(frozen=True)
class TransitionRecord:
    src: int
    dst: int
    rate: LaurentPoly
    mechanism: str

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("loops are implied, never stored")


@dataclass(frozen=True)
class ChainGraph:
    kind: str
    composition: Composition
    states: tuple
    transitions: tuple[TransitionRecord, ...]
    nvars: int

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

    def rate_map(self) -> dict[tuple[int, int], LaurentPoly]:
        """Total rate per ordered state pair (parallel records summed)."""
        acc: dict[tuple[int, int], LaurentPoly] = {}
        for rec in self.transitions:
            key = (rec.src, rec.dst)
            acc[key] = acc.get(key, LaurentPoly.zero(self.nvars)) + rec.rate
        return acc


def _x(index: int, nvars: int) -> LaurentPoly:
    return LaurentPoly.variable(index, nvars)


# ---------------------------------------------------------------------------
# Word process
# ---------------------------------------------------------------------------


def build_tasep_chain(c: Composition) -> ChainGraph:
    """Exclusion process on words: a b -> b a at rate x_b whenever a > b."""
    states = enumerate_words(c)
    index = {w: i for i, w in enumerate(states)}
    nvars = c.n - 1
    records = []
    for sid, word in enumerate(states):
        for i in range(c.N):
            j = (i + 1) % c.N
            a, b = word[i], word[j]
            if a > b:
                swapped = list(word)
                swapped[i], swapped[j] = b, a
                records.append(
                    TransitionRecord(
                        src=sid,
                        dst=index[tuple(swapped)],
                        rate=_x(b - 1, nvars),
                        mechanism=f"tasep-swap({i + 1})",
                    )
                )
    return ChainGraph("tasep", c, tuple(states), tuple(records), nvars)


# ---------------------------------------------------------------------------
# Multiline processes driven by ringing transitions
# ---------------------------------------------------------------------------

RATE_RULES = ("uniform", "three_species", "one_first_class")


def _ringing_rate(rule: str, lab: BullyLabeling, col: int, nvars: int) -> LaurentPoly:
    if rule == "uniform":
        return LaurentPoly.one(nvars)
    cls = lab.word[col]
    if rule == "three_species":
        if cls == 1 or (cls == 3 and lab.is_covered_site(col)):
            return _x(0, nvars)
        return _x(1, nvars)
    if rule == "one_first_class":
        return _x(0, nvars) if cls == 1 else LaurentPoly.one(nvars)
    raise ValueError(f"unknown rate rule {rule!r}")


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
    states = enumerate_mlqs(c)
    index = {q: i for i, q in enumerate(states)}
    nvars = c.n - 1
    records = []
    for sid, q in enumerate(states):
        lab = bully_projection(q) if rate_rule != "uniform" else None
        for i in range(c.N):
            successor = ringing_transition(q, i)
            if successor == q:
                continue
            rate = (
                LaurentPoly.one(nvars)
                if lab is None
                else _ringing_rate(rate_rule, lab, i, nvars)
            )
            records.append(
                TransitionRecord(
                    src=sid,
                    dst=index[successor],
                    rate=rate,
                    mechanism=f"ringing({i + 1})",
                )
            )
    return ChainGraph(f"fm-{rate_rule}", c, tuple(states), tuple(records), nvars)


# ---------------------------------------------------------------------------
# Coupe process (three species)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coupe:
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
    """Cut the circular word after every maximal run of 1s and of 2s."""
    N = len(word)
    if any(cls not in (1, 2, 3) for cls in word):
        raise ValueError("coupe decomposition is defined for classes 1..3")
    cuts = [
        i
        for i in range(N)
        if word[i] in (1, 2) and word[(i + 1) % N] != word[i]
    ]
    if not cuts:
        raise ValueError("word has no 1s or 2s, nothing to cut")
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


def _move_left(row: Sequence[int], col: int) -> tuple[int, ...]:
    N = len(row)
    target = (col - 1) % N
    if not row[col] or row[target]:
        raise AssertionError("blocked move should have been filtered")
    cells = list(row)
    cells[col], cells[target] = 0, 1
    return tuple(cells)


def _regular_jump(q: Queue, front: int) -> Queue:
    """Occupied front-seat 1 jumps: each of its two cells moves left if free."""
    N = len(q[0])
    left = (front - 1) % N
    top, bottom = q[0], q[1]
    if not bottom[left]:
        bottom = _move_left(bottom, front)
    if not top[left]:
        top = _move_left(top, front)
    return (top, bottom)


def _pulling_jump(q: Queue, coupes: list[Coupe], which: int) -> Queue:
    """Vacant front seat jumps; trailing top-row particles are dragged along.

    The jumper's bottom cell moves one step left.  Top-row particles
    strictly right of the jumper inside its own coupe each move one step
    left; when the jumper is also the back seat, the top-row particles of
    the whole next coupe move instead.
    """
    coupe = coupes[which]
    front = coupe.front
    N = len(q[0])
    bottom = _move_left(q[1], front)
    if front == coupe.back:
        pull_range = coupes[(which + 1) % len(coupes)].columns
    else:
        pull_range = coupe.columns[coupe.columns.index(front) + 1 :]
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
    states = enumerate_mlqs(c)
    index = {q: i for i, q in enumerate(states)}
    nvars = 2
    records = []
    for sid, q in enumerate(states):
        word = bully_projection(q).word
        coupes = decompose_coupes(word)
        for which, coupe in enumerate(coupes):
            if coupe.seat_class == 2 and coupe.full:
                continue  # blocked behind the 1 ending the previous coupe
            occupied = bool(q[0][coupe.front])
            if coupe.seat_class == 2 and occupied:
                raise AssertionError("front-seat 2 must sit under a vacancy")
            if occupied:
                successor = _regular_jump(q, coupe.front)
                mechanism = f"coupe-regular({coupe.front + 1})"
            else:
                successor = _pulling_jump(q, coupes, which)
                mechanism = f"coupe-pulling({coupe.front + 1})"
            if successor == q:
                raise AssertionError("coupe jumps always change the queue")
            records.append(
                TransitionRecord(
                    src=sid,
                    dst=index[successor],
                    rate=_x(coupe.seat_class - 1, nvars),
                    mechanism=mechanism,
                )
            )
    return ChainGraph("coupe", c, tuple(states), tuple(records), nvars)


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
    records = tuple(
        TransitionRecord(
            src=item["from"],
            dst=item["to"],
            rate=parse_poly(item["rate"], nvars),
            mechanism=item["mechanism"],
        )
        for item in payload["transitions"]
    )
    return ChainGraph(payload["kind"], comp, tuple(states), records, nvars)


def bully_partition(g: ChainGraph) -> tuple[list[int], list[Word]]:
    """Block id per queue state, blocks ordered like enumerate_words."""
    words = enumerate_words(g.composition)
    word_index = {w: i for i, w in enumerate(words)}
    blocks = [word_index[bully_projection(q).word] for q in g.states]
    return blocks, words
