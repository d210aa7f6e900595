"""State types and combinatorics for the ring exclusion process.

Conventions used throughout the package:

* columns and grid rows are 0-based internally; every piece of user-facing
  output (CLI, rendered paths, z-statistics) is 1-based;
* a multiline queue is a tuple of row tuples over {0, 1}, row 0 on top and
  1 meaning occupied; row r (0-based) must hold M_{r+1} occupied cells;
* column arithmetic is mod N everywhere (the lattice is a ring).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial, prod
from operator import add
from typing import Iterable, Sequence

Word = tuple[int, ...]
Queue = tuple[tuple[int, ...], ...]


def rotate(state: Word | Queue) -> Word | Queue:
    """The state turned one column to the right around the ring: a word as
    a tuple, a queue with all its rows together."""
    if state and isinstance(state[0], tuple):
        return tuple(row[-1:] + row[:-1] for row in state)
    return state[-1:] + state[:-1]


@dataclass(frozen=True)
class Composition:
    """Species counts m plus the derived row/vacancy statistics.

    M[r-1] = m_1 + ... + m_r, v[r-1] = N - M_r (vacancies on row r) and
    V[r-1] = v_{r+1} + ... + v_{n-1} (vacancies strictly below row r).
    """

    m: tuple[int, ...]
    N: int
    M: tuple[int, ...]
    v: tuple[int, ...]
    V: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.m)


def build_composition(m: Iterable[int]) -> Composition:
    m = tuple(int(x) for x in m)
    if len(m) < 2:
        raise ValueError("need at least 2 species")
    for i, part in enumerate(m, start=1):
        if part <= 0:
            raise ValueError(f"m_{i} must be positive")
    M = tuple(itertools.accumulate(m))
    N = M[-1]
    v = tuple(N - M[r] for r in range(len(m) - 1))
    V = tuple(sum(v[r + 1 :]) for r in range(len(v)))
    return Composition(m=m, N=N, M=M, v=v, V=V)


def enumerate_words(c: Composition) -> list[Word]:
    """All arrangements of the multiset {1^m_1, ..., n^m_n}, lex ascending.

    Raises ValueError, before building any word, when there are more than
    MAX_QUEUES of them.
    """
    _check_count(c, word_count(c), "words")
    word = [cls for cls, part in enumerate(c.m, start=1) for _ in range(part)]
    words = [tuple(word)]
    while True:
        # next in lex order: swap the rightmost ascent i with the rightmost
        # larger letter after it, then reverse the tail after i, descending till then
        i = c.N - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return words
        j = c.N - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]
        words.append(tuple(word))


def _row_patterns(N: int, k: int) -> list[tuple[int, ...]]:
    """The 0/1 rows of length N with k ones, ascending: combinations come descending."""
    patterns = []
    for ones in itertools.combinations(range(N), k):
        cells = [0] * N
        for i in ones:
            cells[i] = 1
        patterns.append(tuple(cells))
    patterns.reverse()
    return patterns


# enumerate_mlqs and project_queues refuse a queue space larger than this,
# and enumerate_words a word space; the largest in use, m = (1^6), has
# 162,000 queues
MAX_QUEUES = 1_000_000


def mlq_count(c: Composition) -> int:
    """Number of multiline queues of c: the product of comb(N, M_r) over the rows."""
    return prod(comb(c.N, M) for M in c.M[:-1])


def word_count(c: Composition) -> int:
    """Number of words of c: the multinomial N! / (m_1! ... m_n!)."""
    return factorial(c.N) // prod(factorial(part) for part in c.m)


def check_queue_count(c: Composition) -> None:
    """ValueError when c has more than MAX_QUEUES multiline queues."""
    _check_count(c, mlq_count(c), "multiline queues")


def _check_count(c: Composition, count: int, what: str) -> None:
    if count > MAX_QUEUES:
        raise ValueError(
            f"m = {c.m} has {count} {what}, above the limit of {MAX_QUEUES} held in memory"
        )


def _rows(c: Composition) -> list[list[tuple[int, ...]]]:
    """Each queue row's _row_patterns, top row first, once check_queue_count(c) has passed."""
    check_queue_count(c)
    return [_row_patterns(c.N, M) for M in c.M[:-1]]


def enumerate_mlqs(c: Composition) -> list[Queue]:
    """All multiline queues, row-major over per-row bit patterns (smallest first).

    Raises ValueError, before building any queue, when there are more than
    MAX_QUEUES of them.
    """
    return list(itertools.product(*_rows(c)))


def orbit_representatives(c: Composition) -> list[Queue]:
    """For m_1 = 1, the first mlq_count / N queues of enumerate_mlqs, one per
    rotation orbit: those whose top-row particle sits in column N - 1."""
    if c.m[0] != 1:
        raise ValueError("orbit representatives need m_1 = 1")
    top, *lower = _rows(c)
    return list(itertools.product(top[:1], *lower))


def composition_of_queue(q: Queue) -> Composition:
    """Recover the composition from a queue's row sums."""
    if not q or not q[0]:
        raise ValueError("empty grid")
    N = len(q[0])
    if any(len(row) != N for row in q):
        raise ValueError("rows must have equal length")
    sums = [sum(row) for row in q]
    if sums[0] == 0:
        raise ValueError("row 1 is empty; the top row must hold a particle")
    m = [sums[0]]
    for row, (prev, cur) in enumerate(zip(sums, sums[1:]), start=2):
        if cur <= prev:
            raise ValueError(
                f"row {row} holds {cur} particles and row {row - 1} holds {prev}; "
                "each row must hold more particles than the row above"
            )
        m.append(cur - prev)
    if sums[-1] == N:
        raise ValueError(f"row {len(q)} is full; the bottom row must keep a vacancy")
    m.append(N - sums[-1])
    return build_composition(m)


# ---------------------------------------------------------------------------
# Ringing-path dynamics
# ---------------------------------------------------------------------------


def _ring_row(row: tuple[int, ...], col: int) -> tuple[tuple[int, ...], int]:
    """ringing_transition on one row entered at col: the row after, and the exit column."""
    if not row[col]:
        return row, col + 1 if col + 1 < len(row) else 0
    if row[col - 1]:
        return row, col
    cells = list(row)
    cells[col - 1], cells[col] = 1, 0
    return tuple(cells), col


def ringing_transition(q: Queue, i: int) -> Queue:
    """Apply the simultaneous left-swaps along the ringing path at column i.

    The path climbs from bottom-row column i (mod N), straight up over an
    occupied cell and one step right over a vacancy; each occupied cell on
    it moves one step left when that cell (index -1: column N - 1) is free.
    """
    col = i % len(q[0])
    rows = list(q)
    for r in reversed(range(len(q))):
        rows[r], col = _ring_row(q[r], col)
    return tuple(rows)


def _ring_rows(c: Composition) -> tuple[list, int]:
    """Per row of c, bottom row first, (its stride, its patterns' ranks, each
    pattern's _ring_row step at every column); and the number of queue ids.
    An id is the mixed-radix number of the row ranks in _row_patterns order,
    top row most significant."""
    rows, stride = [], 1
    for patterns in reversed(_rows(c)):
        moves = [[_ring_row(p, col) for col in range(c.N)] for p in patterns]
        rows.append((stride, {p: k for k, p in enumerate(patterns)}, moves))
        stride *= len(patterns)
    return rows, stride


def _ring_walk(rows: list, count: int, ids: Sequence) -> list:
    """ids[successor id] per ringing column of the queues with ids 0..count-1:
    N ids per queue, in id order, in one flat column.  A row's ring table
    maps (rank, entry column) to (the rank of the row after, times the row's
    stride, exit column), so a successor's id is the sum of the entries read
    along its ring.  Per choice of upper rows, the climb through them from
    each entry column is summed once, top row down; every bottom-row pattern
    then adds its entry to the climb from its exit column, in one pass over
    the bottom row's flattened tables."""
    bottom, *upper = [[[(rank[row] * stride, out) for row, out in m] for m in moves] for stride, rank, moves in rows]
    size, N = len(bottom), len(bottom[0])
    # flat over (pattern, entry column); the orbit walk of one row reads only count < size patterns
    drops = [d for table in bottom for d, _ in table][: count * N]
    exits = [out for table in bottom for _, out in table][: count * N]
    column: list = []
    for steps in itertools.islice(itertools.product(*reversed(upper)), -(-count // size)):
        climb = [0] * N
        for table in steps:
            climb = [d + climb[col] for d, col in table]
        column += map(ids.__getitem__, map(add, drops, map(climb.__getitem__, exits)))
    return column


def ring_successors(c: Composition) -> list:
    """Each queue's successors' ids when columns 0..N-1 ring (its own id for
    a loop), N ids per queue in enumerate_mlqs order, in one flat column,
    all from one shared list."""
    rows, count = _ring_rows(c)
    return _ring_walk(rows, count, list(range(count)))


def orbit_ring_successors(c: Composition) -> tuple[list, bool]:
    """For m_1 = 1, the rotation-orbit representatives, ids 0..B-1 whose
    top-row particle sits in column N - 1 (B = mlq_count / N), each with its
    successor's id per ringing column, N per representative in one flat
    column: w for the representative w, and B + w when the ring moves the
    particle and the destination turned one column right is w.  And the
    certificate that each orbit rings as its representative turned:
    _ring_row on each pattern turned one column right (each turned once),
    entered one column on, gives the turned row and exits one column on."""
    if c.m[0] != 1:
        raise ValueError("orbit representatives need m_1 = 1")
    rows, count = _ring_rows(c)
    B, N = count // c.N, c.N
    assert B * N == count
    turns = [{p: rotate(p) for p in rank} for _, rank, _ in rows]
    commutes = all(
        moves[rank[turn[p]]][(col + 1) % N] == (turn[row], (out + 1) % N)
        for (_, rank, moves), turn in zip(rows, turns)
        for p, k in rank.items()
        for col, (row, out) in enumerate(moves[k])
    )
    # block 1's ids with each lower row turned one column right; beyond, IndexError
    lower = [[rank[turn[p]] * stride for p in rank] for (stride, rank, _), turn in zip(rows[:-1], turns)]
    turned = [B + sum(parts) for parts in itertools.product(*reversed(lower))]
    return _ring_walk(rows, B, list(range(B)) + turned), commutes


# ---------------------------------------------------------------------------
# Bully-path projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BullyLabeling:
    """Result of the bully-path projection of one queue.

    classes[r][c] holds the class of the occupied cell at grid row r,
    column c (0 for vacancies).  cover maps a vacant grid cell to the
    smallest class whose bully path queues through it.  z counts covered
    vacancies keyed by (row, class), both 1-based as in all display output.
    exponents are those of the conjectured weight (see add_covers).
    """

    queue: Queue
    composition: Composition
    classes: tuple[tuple[int, ...], ...]
    cover: dict[tuple[int, int], int]
    word: Word
    z: dict[tuple[int, int], int]
    exponents: tuple[int, ...]

    def z1(self) -> int:
        return sum(count for (row, cls), count in self.z.items() if cls == 1)

    def covered_three_count(self) -> int:
        if self.composition.n != 3:
            raise ValueError("covered-3 count is defined for three species only")
        return self.z.get((2, 1), 0)


def project_rows(
    upper_classes: Sequence[int], patterns: Iterable[Sequence[int]], new_class: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The bully-path step from one labeled row to each lower row pattern.

    Every classified particle of the upper row (classes ascending, columns
    left to right within a class) drops straight down; if the cell below is
    vacant or already taken it queues rightward, circularly, to the first
    unclassified occupied cell.  The occupied cells no path reaches take
    new_class.  Per pattern, returns the lower row's classes (0 at
    vacancies) and, per column, the smallest class whose path queues
    through that vacancy (0 if none does).  The paths are ordered once.
    """
    N = len(upper_classes)
    cols = list(range(N))
    # each path's class and the columns it scans, from the one below its particle
    starts = sorted((cls, start) for start, cls in enumerate(upper_classes) if cls)
    paths = [(cls, cols[start:] + cols[:start]) for cls, start in starts]
    steps = []
    for lower_bits in patterns:
        lower = [0] * N
        cover = [0] * N
        for cls, scan in paths:
            for j in scan:
                if lower_bits[j]:
                    if not lower[j]:
                        lower[j] = cls
                        break
                elif not cover[j]:
                    cover[j] = cls
            else:
                raise ValueError(
                    f"the path from column {scan[0] + 1} finds no free particle on the lower row"
                )
        for col in cols:
            if lower_bits[col] and not lower[col]:
                lower[col] = new_class
        steps.append((tuple(lower), tuple(cover)))
    return steps


def add_covers(exponents: Sequence[int], row: int, cover: Sequence[int]) -> tuple[int, ...]:
    """Lam-Williams rule for grid row `row` (0-based): each vacancy there covered by
    class i (cover as project_rows gives it) multiplies the weight by x_{row+1} / x_i."""
    step = list(exponents)
    for cls in cover:
        if cls:
            step[row] += 1
            step[cls - 1] -= 1
    return tuple(step)


def bully_projection(q: Queue) -> BullyLabeling:
    """Assign classes to all occupied cells, top row down: _project on the
    queue's rows, one pattern per row.

    Row 0 is all class 1, each row below is labeled from the one above by
    project_rows, its leftovers taking the next class, and bottom-row
    vacancies read as class n.  The composition is recovered, and the queue
    validated, from the rows.
    """
    comp = composition_of_queue(q)
    top = tuple(1 if bit else 0 for bit in q[0])
    projection, steps = _project(comp, [[top], *([row] for row in q[1:])])
    # each depth steps its one upper row against its one pattern
    labeled = [step for made in steps for (step,) in made.values()]
    cover = {(lower, col): cls for lower, (_, row_cover) in enumerate(labeled, start=1)
             for col, cls in enumerate(row_cover) if cls}
    z = Counter((row + 1, cls) for (row, _col), cls in cover.items())
    return BullyLabeling(
        queue=q, composition=comp, classes=(top, *(row for row, _ in labeled)), cover=cover,
        word=projection.words[0], z=z, exponents=projection.exponents[0],
    )


@dataclass(frozen=True)
class QueueProjection:
    """The bully-path projection of every queue of one composition.

    Entry i of each field belongs to queues[i], in enumerate_mlqs order:
    its projected word, the exponents of its conjectured weight, and
    covered, the bitmask of the bottom-row vacancies some bully path queues
    through (bit col for column col; for n = 3 these are the covered 3s).
    Equal words, and equal exponent tuples, are one shared object.  The
    queues are built from rows, each row's bit patterns, on first read.
    """

    rows: tuple[tuple[tuple[int, ...], ...], ...]
    words: tuple[Word, ...]
    exponents: tuple[tuple[int, ...], ...]
    covered: tuple[int, ...]

    @functools.cached_property
    def queues(self) -> tuple[Queue, ...]:
        return tuple(itertools.product(*self.rows))


def project_queues(c: Composition) -> QueueProjection:
    """Enumerate and project every queue of c, one row of all queues at a time.

    Per queue prefix, in enumerate_mlqs order, the pass keeps its last row's
    classes, its exponents and that row's covers.  Each depth steps every
    distinct labeled upper row against all patterns of the next row in one
    project_rows call and adds the covers of each distinct (exponents,
    cover) pair once (add_covers).  Raises ValueError, before building any
    queue, when there are more than MAX_QUEUES of them.
    """
    return _project(c, _rows(c))[0]


def _first_class_steps(row: tuple[int, ...]) -> list[tuple[int, int]]:
    """Per entry column col, the class-1 path into row at col: the column of
    the row's first particle at or right of col, circularly, and the
    vacancies it passes on the way; one right-to-left scan of the row doubled."""
    N, steps, landing = len(row), [], None
    for k in range(2 * N - 1, -1, -1):
        if row[k - N]:
            landing = k
        if k < N:
            steps.append((landing % N, landing - k))
    steps.reverse()
    return steps


def first_class_walk(c: Composition) -> tuple[list[tuple[int, int]], bool]:
    """For m_1 = 1, per orbit representative in orbit_representatives order,
    its bottom-row class-1 column and V_1 - z_1, stepped one lower row at a
    time from column N - 1, each distinct (column, exponent) once; and the
    certificate that _first_class_steps of each pattern turned one column
    right, entered one column on, exits one column on past as many
    vacancies.  Paths go in class order, so the class-1 path meets no other."""
    if c.m[0] != 1:
        raise ValueError("orbit representatives need m_1 = 1")
    N, walked, commutes = c.N, [(c.N - 1, c.V[0])], True
    for patterns in _rows(c)[1:]:
        steps = {p: _first_class_steps(p) for p in patterns}
        commutes = commutes and all(steps[rotate(p)] == [((out + 1) % N, k) for out, k in row[-1:] + row[:-1]]
                                    for p, row in steps.items())
        columns = list(zip(*steps.values()))  # per entry column, each pattern's step
        below = {(col, e): [(out, e - passed) for out, passed in columns[col]] for col, e in set(walked)}
        walked = [step for prefix in walked for step in below[prefix]]
    return walked, commutes


def project_orbit_representatives(c: Composition) -> tuple[QueueProjection, bool]:
    """For m_1 = 1, project_queues on the first mlq_count / N queues, the
    rotation-orbit representatives, and the certificate that each upper row
    stepped, its row and patterns turned k = 1..N-1 columns right, steps to
    its steps turned k: so the rest of each orbit projects as its
    representative turned.  Each upper-row orbit is walked once, since
    turning N columns is the identity; at each turn every step turned, its
    rows sliced one column right, is compared with the step made there.
    main, lw and identity read it; fm1 and zpart read first_class_walk.
    """
    if c.m[0] != 1:
        raise ValueError("orbit representatives need m_1 = 1")
    rows = _rows(c)
    projection, steps = _project(c, [rows[0][:1], *rows[1:]])
    for depth, made in enumerate(steps, start=1):
        patterns = rows[depth]
        index = {bits: i for i, bits in enumerate(patterns)}
        back = [index[bits[1:] + bits[:1]] for bits in patterns]  # back[i] turned right is i
        walked = set()
        for upper, labeled in made.items():
            if upper in walked:
                continue
            for _ in range(c.N - 1):
                upper = upper[-1:] + upper[:-1]
                walked.add(upper)
                # classes and cover turned one column right
                turned = [(row[-1:] + row[:-1], cover[-1:] + cover[:-1])
                          for row, cover in map(labeled.__getitem__, back)]
                labeled = made.get(upper) or project_rows(upper, patterns, depth + 1)
                if labeled != turned:
                    return projection, False
    return projection, True


def _project(c: Composition, rows: list) -> tuple[QueueProjection, list[dict]]:
    """project_queues over the given row patterns, and per depth 1.. its
    steps: each distinct upper row's classes -> its project_rows result,
    one (classes, cover) per pattern of that depth."""
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # equal exponent tuples -> one object
    # the top row's bits are its classes: every particle there is class 1
    labels, exponents, covers = rows[0], [c.V] * len(rows[0]), [()] * len(rows[0])
    made = []
    for depth, patterns in enumerate(rows[1:], start=1):
        steps, added = {}, {}  # upper row -> its project_rows steps; (exps, cover) -> add_covers
        made.append(steps)
        lower_labels, lower_exponents, covers = [], [], []
        for upper, exps in zip(labels, exponents):
            labeled = steps.get(upper)
            if labeled is None:
                labeled = steps[upper] = project_rows(upper, patterns, depth + 1)
            for classes, cover in labeled:
                step = added.get((exps, cover))
                if step is None:
                    step = add_covers(exps, depth, cover)
                    step = added[exps, cover] = shared.setdefault(step, step)
                lower_labels.append(classes)
                lower_exponents.append(step)
                covers.append(cover)
        labels, exponents = lower_labels, lower_exponents
    # bottom-row classes -> word, bottom-row covers -> covered mask
    word_of = {row: tuple(cls or c.n for cls in row) for row in set(labels)}
    mask_of = {cover: sum(1 << col for col, cls in enumerate(cover) if cls) for cover in set(covers)}
    words, covered = map(word_of.__getitem__, labels), map(mask_of.__getitem__, covers)
    return QueueProjection(tuple(map(tuple, rows)), tuple(words), tuple(exponents), tuple(covered)), made


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def word_to_text(word: Word) -> str:
    return " ".join(str(cls) for cls in word)


def parse_word(text: str) -> Word:
    parts = text.split()
    if not parts:
        raise ValueError("empty word")
    word = tuple(int(p) for p in parts)
    if any(cls < 1 for cls in word):
        raise ValueError("classes are 1-based positive integers")
    return word


def word_label(word: Word) -> str:
    if max(word) <= 9:
        return "".join(str(cls) for cls in word)
    return word_to_text(word)


def queue_label(q: Queue) -> str:
    return "/".join("".join("1" if cell else "0" for cell in row) for row in q)


def parse_queue(text: str) -> Queue:
    lines = [line.strip() for line in text.replace("/", "\n").splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError("empty queue text")
    rows = []
    for line in lines:
        if set(line) - {"0", "1"}:
            raise ValueError(f"queue rows must be over 0/1, got {line!r}")
        rows.append(tuple(int(ch) for ch in line))
    q = tuple(rows)
    composition_of_queue(q)  # validates lengths and row sums
    return q
