"""State types and combinatorics for the ring exclusion process.

Conventions used throughout the package:

* columns and grid rows are 0-based internally; every piece of user-facing
  output (CLI, rendered paths, z-statistics) is 1-based;
* a multiline queue is a tuple of row tuples over {0, 1}, row 0 on top and
  1 meaning occupied; row r (0-based) must hold M_{r+1} occupied cells;
* column arithmetic is mod N everywhere (the lattice is a ring).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .poly import LaurentPoly

Word = tuple[int, ...]
Queue = tuple[tuple[int, ...], ...]


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


def multinomial(c: Composition) -> int:
    from math import comb

    total, result = c.N, 1
    for part in c.m:
        result *= comb(total, part)
        total -= part
    return result


def enumerate_words(c: Composition) -> list[Word]:
    """All arrangements of the multiset {1^m_1, ..., n^m_n}, lex ascending."""
    words: list[Word] = []
    counts = list(c.m)

    def extend(prefix: list[int]):
        if len(prefix) == c.N:
            words.append(tuple(prefix))
            return
        for cls in range(1, c.n + 1):
            if counts[cls - 1]:
                counts[cls - 1] -= 1
                prefix.append(cls)
                extend(prefix)
                prefix.pop()
                counts[cls - 1] += 1

    extend([])
    return words


def _row_patterns(N: int, k: int) -> list[tuple[int, ...]]:
    patterns = [
        tuple(1 if i in ones else 0 for i in range(N))
        for ones in itertools.combinations(range(N), k)
    ]
    return sorted(patterns)


def enumerate_mlqs(c: Composition) -> list[Queue]:
    """All multiline queues, row-major over per-row bit patterns (smallest first)."""
    rows = [_row_patterns(c.N, c.M[r]) for r in range(c.n - 1)]
    return [tuple(choice) for choice in itertools.product(*rows)]


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


@dataclass(frozen=True)
class RingingPath:
    """Column trajectory of one clock ring, bottom row upward.

    cols lists the visited column per grid row, top row first; start is the
    bottom-row column where the clock rang (0-based).
    """

    start: int
    cols: tuple[int, ...]

    def display(self) -> tuple[int, ...]:
        return tuple(col + 1 for col in self.cols)


def ringing_path(q: Queue, i: int) -> RingingPath:
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
    return RingingPath(start=i % N, cols=tuple(cols))


def ringing_transition(q: Queue, i: int) -> Queue:
    """Apply the simultaneous left-swaps along the ringing path at column i."""
    path = ringing_path(q, i)
    new_rows = []
    N = len(q[0])
    for r, row in enumerate(q):
        col = path.cols[r]
        left = (col - 1) % N
        if row[col] and not row[left]:
            mutable = list(row)
            mutable[col], mutable[left] = 0, 1
            new_rows.append(tuple(mutable))
        else:
            new_rows.append(row)
    return tuple(new_rows)


# ---------------------------------------------------------------------------
# Bully-path projection
# ---------------------------------------------------------------------------

OrderFn = Callable[[int, int, list[int]], list[int]]


@dataclass(frozen=True)
class BullyLabeling:
    """Result of the bully-path projection of one queue.

    classes[r][c] holds the class of the occupied cell at grid row r,
    column c (0 for vacancies).  cover maps a vacant grid cell to the
    smallest class whose bully path queues through it.  z counts covered
    vacancies keyed by (row, class), both 1-based as in all display output.
    """

    queue: Queue
    composition: Composition
    classes: tuple[tuple[int, ...], ...]
    cover: dict[tuple[int, int], int]
    word: Word
    z: dict[tuple[int, int], int]

    def z1(self) -> int:
        return sum(count for (row, cls), count in self.z.items() if cls == 1)

    def covered_three_count(self) -> int:
        if self.composition.n != 3:
            raise ValueError("covered-3 count is defined for three species only")
        return self.z.get((2, 1), 0)

    def is_covered_site(self, col: int) -> bool:
        """Three-species helper: does a bully path pass over the 3 at col?"""
        if self.composition.n != 3:
            raise ValueError("covered sites are defined for three species only")
        return (1, col) in self.cover


def bully_projection(q: Queue, order_fn: OrderFn | None = None) -> BullyLabeling:
    """Assign classes to all occupied cells, top row down.

    Row 0 is all class 1.  To label grid row r+1, every already-classified
    particle on row r (classes ascending, columns left to right unless
    order_fn reorders within a class) drops straight down; if the cell
    below is vacant or already taken it queues rightward, circularly, to
    the first unclassified occupied cell.  Vacancies crossed while
    queueing record the smallest class that ever crosses them.  The
    m_{r+2} leftovers on row r+1 become the next class, and bottom-row
    vacancies read as class n.
    """
    comp = composition_of_queue(q)
    nrows, N = comp.n - 1, comp.N
    classes = [[0] * N for _ in range(nrows)]
    cover: dict[tuple[int, int], int] = {}
    for col in range(N):
        if q[0][col]:
            classes[0][col] = 1
    for upper in range(nrows - 1):
        lower = upper + 1
        for cls in range(1, upper + 2):
            cols = [c for c in range(N) if classes[upper][c] == cls]
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
        classes[nrows - 1][col] if q[nrows - 1][col] else comp.n for col in range(N)
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
    )


# ---------------------------------------------------------------------------
# Stationary-weight statistics
# ---------------------------------------------------------------------------


def conjectured_weight(labeling: BullyLabeling) -> LaurentPoly:
    """Monomial x_1^V_1 ... x_{n-2}^V_{n-2} * prod (x_row / x_class)^z."""
    comp = labeling.composition
    nvars = comp.n - 1
    exps = [0] * nvars
    for r in range(1, comp.n - 1):
        exps[r - 1] += comp.V[r - 1]
    for (row, cls), count in labeling.z.items():
        exps[row - 1] += count
        exps[cls - 1] -= count
    return LaurentPoly.monomial(1, exps)


def three_species_weight(labeling: BullyLabeling) -> LaurentPoly:
    """x1^(m3 - k) * x2^k with k the covered-3 count (three species)."""
    comp = labeling.composition
    if comp.n != 3:
        raise ValueError("three-species weight needs exactly 3 classes")
    k = labeling.covered_three_count()
    return LaurentPoly.monomial(1, (comp.m[2] - k, k))


def single_first_class_weight(labeling: BullyLabeling) -> LaurentPoly:
    """x1^(V_1 - z_1); the one-parameter weight when m_1 = 1."""
    comp = labeling.composition
    if comp.m[0] != 1:
        raise ValueError("single-first-class weight needs m_1 = 1")
    exps = [0] * (comp.n - 1)
    exps[0] = comp.V[0] - labeling.z1()
    return LaurentPoly.monomial(1, exps)


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


def queue_to_text(q: Queue) -> str:
    return "\n".join("".join("1" if cell else "0" for cell in row) for row in q)


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
