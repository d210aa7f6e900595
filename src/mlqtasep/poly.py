"""Sparse multivariate Laurent polynomials over arbitrary-precision integers.

All stationary weights, transition rates and partition functions in this
package are exact objects in Z[x1^-1, x1, ..., xk^-1, xk].  Terms are kept
in a dict mapping exponent tuples (one signed integer per variable) to a
nonzero int coefficient; the zero polynomial is the empty dict.  A
polynomial carries no variable names: text(names) chooses them when it
prints, x1..xk unless told otherwise.  Printing uses a fixed graded order
so rendered strings are stable across runs and can be used as golden
fixtures.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial, prod
from operator import add
from typing import Sequence


def _names(names: Sequence[str] | None, nvars: int) -> tuple[str, ...]:
    """One distinct name per variable, x1..xk when none are given."""
    if names is None:
        return tuple(f"x{i + 1}" for i in range(nvars))
    if len(names) != nvars or len(set(names)) != nvars:
        raise ValueError(f"need {nvars} distinct names, got {tuple(names)}")
    return tuple(names)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int coefficients.

    Equality is structural (same variable count, same term dict).  The
    variables have no names until text(names) prints them.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not have {nvars} entries")
            if coeff:
                clean[exps] = int(coeff)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, value: int, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(1, nvars)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "LaurentPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, coeff: int, exps: Sequence[int]) -> "LaurentPoly":
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other, self.nvars)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"variable count mismatch: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(other, self.nvars)
        return NotImplemented

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return LaurentPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                new = terms.get(exps, 0) + c1 * c2
                if new:
                    terms[exps] = new
                else:
                    terms.pop(exps, None)
        return LaurentPoly(self.nvars, terms)

    __rmul__ = __mul__

    # -- evaluation and predicates ------------------------------------------

    def eval(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact value at a rational point: eval_common on this polynomial alone."""
        (numerator,), denominator = eval_common([self], point)
        return Fraction(numerator, denominator)

    def is_positive(self) -> bool:
        """True iff every coefficient is > 0 and every exponent is >= 0."""
        return all(
            coeff > 0 and all(e >= 0 for e in exps)
            for exps, coeff in self.terms.items()
        )

    # -- canonical text form -------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in graded order: total degree ascending, then x1 before x2."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), tuple(-e for e in item[0])),
        )

    @staticmethod
    def _term_str(names: Sequence[str], exps: tuple[int, ...], coeff: int) -> str:
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e != 0:
                factors.append(f"{name}^{e}")
        if not factors:
            return str(abs(coeff))
        body = "*".join(factors)
        if abs(coeff) == 1:
            return body
        return f"{abs(coeff)}*{body}"

    def text(self, names: Sequence[str] | None = None) -> str:
        """The canonical rendering with the variables named by names, x1..xk
        by default; parse_poly with the same names inverts it."""
        names = _names(names, self.nvars)
        if not self.terms:
            return "0"
        parts = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            if i == 0:
                sign = "-" if coeff < 0 else ""
            else:
                sign = " - " if coeff < 0 else " + "
            parts.append(sign + self._term_str(names, exps, coeff))
        return "".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def eval_common(
    polys: Sequence[LaurentPoly], point: Sequence[Fraction | int]
) -> tuple[list[int], int]:
    """Every polynomial's exact value at a rational point, as integer
    numerators over one positive common denominator.

    With x_i = p_i / q_i and exponents of all the polynomials between lo_i
    and hi_i, each value times prod p_i^-lo_i q_i^hi_i is an integer whose
    terms are coeff * prod p_i^(e_i - lo_i) q_i^(hi_i - e_i).  Those powers
    are tabled once per variable and their products once per distinct
    exponent tuple, for the whole list; no value is made a Fraction.  Raises
    ValueError for a point of the wrong length and ZeroDivisionError if a
    zero coordinate meets a negative exponent.
    """
    for poly in polys:
        if len(point) != poly.nvars:
            raise ValueError(f"point has {len(point)} coordinates, need {poly.nvars}")
    distinct = {exps for poly in polys for exps in poly.terms}
    # each variable's exponents; (0,) when there are no terms
    columns = list(zip(*distinct)) or [(0,)] * len(point)
    numerator, denominator = 1, 1
    tables = []
    for value, column in zip(point, columns):
        value = Fraction(value)
        p, q = value.numerator, value.denominator
        lo, hi = min(column), max(column)
        if lo < 0:
            if not p:
                raise ZeroDivisionError("zero substituted into a negative exponent")
            denominator *= p**-lo
        else:
            numerator *= p**lo
        if hi < 0:
            numerator *= q**-hi
        else:
            denominator *= q**hi
        tables.append({e: p ** (e - lo) * q ** (hi - e) for e in range(lo, hi + 1)})
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    monomials = {exps: prod(map(dict.__getitem__, tables, exps)) for exps in distinct}
    return [
        numerator * sum(coeff * monomials[exps] for exps, coeff in poly.terms.items())
        for poly in polys
    ], denominator


_TERM_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_poly(text: str, nvars: int, names: Sequence[str] | None = None) -> LaurentPoly:
    """Parse the canonical rendering back into a polynomial.

    Grammar: terms joined by + or -, each term a '*'-separated product of an
    optional integer coefficient and factors name or name^exp (exp may be
    negative).  Inverse of text(names) for any polynomial of nvars variables.
    """
    index = {name: i for i, name in enumerate(_names(names, nvars))}
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return LaurentPoly.zero(nvars)
    # Split into signed terms; a minus directly after ^ is an exponent sign.
    chunks = re.split(r"(?<!\^)\s*([+-])\s*", text)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise ValueError(f"cannot parse polynomial {text!r}")
    result = LaurentPoly.zero(nvars)
    for sign, body in zip(chunks[0::2], chunks[1::2]):
        coeff = -1 if sign == "-" else 1
        exps = [0] * nvars
        for factor in body.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {body!r}")
            if re.fullmatch(r"\d+", factor):
                coeff *= int(factor)
                continue
            m = _TERM_FACTOR.match(factor)
            if not m or m.group(1) not in index:
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
            exps[index[m.group(1)]] += int(m.group(2) or 1)
        result = result + LaurentPoly.monomial(coeff, exps)
    return result


def x_vars(nvars: int) -> list[LaurentPoly]:
    """The generators x1..xk as polynomials."""
    return [LaurentPoly.variable(i, nvars) for i in range(nvars)]


def q_int_derivative(k: int, d: int) -> LaurentPoly:
    """d-th derivative of the q-integer [k]_q, in closed form.

    Equals d! * sum_{i=0}^{k-d-1} binom(i+d, i) q^i; for d >= k the sum is
    empty and the zero polynomial is returned.
    """
    if k <= 0:
        raise ValueError("q-integer index must be positive")
    if d < 0:
        raise ValueError("derivative order must be nonnegative")
    fact = factorial(d)
    return LaurentPoly(1, {(i,): fact * comb(i + d, i) for i in range(k - d)})

