"""Sparse multivariate Laurent polynomials over arbitrary-precision integers.

All stationary weights, transition rates and partition functions in this
package are exact objects in Z[x1^-1, x1, ..., xk^-1, xk].  Terms are kept
in a dict mapping exponent tuples (one signed integer per variable) to a
nonzero int coefficient; the zero polynomial is the empty dict.  Printing
uses a fixed graded order so rendered strings are stable across runs and
can be used as golden fixtures.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Sequence


def _default_names(nvars: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(nvars))


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int coefficients.

    Equality is structural (same variable count, same term dict); display
    names do not participate in comparisons.
    """

    __slots__ = ("nvars", "terms", "names")

    def __init__(self, nvars: int, terms=None, names: Sequence[str] | None = None):
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
        object.__setattr__(self, "names", tuple(names) if names else _default_names(nvars))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, names=None) -> "LaurentPoly":
        return cls(nvars, {}, names)

    @classmethod
    def constant(cls, value: int, nvars: int, names=None) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: value}, names)

    @classmethod
    def one(cls, nvars: int, names=None) -> "LaurentPoly":
        return cls.constant(1, nvars, names)

    @classmethod
    def variable(cls, index: int, nvars: int, names=None) -> "LaurentPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1}, names)

    @classmethod
    def monomial(cls, coeff: int, exps: Sequence[int], names=None) -> "LaurentPoly":
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff}, names)

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

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
            return LaurentPoly.constant(other, self.nvars, self.names)
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
        return LaurentPoly(self.nvars, terms, self.names)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(
            self.nvars, {e: -c for e, c in self.terms.items()}, self.names
        )

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
                exps = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(exps, 0) + c1 * c2
                if new:
                    terms[exps] = new
                else:
                    terms.pop(exps, None)
        return LaurentPoly(self.nvars, terms, self.names)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int):
            raise TypeError("polynomial power must be an int")
        if power < 0:
            return self.monomial_inverse() ** (-power)
        result = LaurentPoly.one(self.nvars, self.names)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse of a single Laurent monomial with coefficient +-1."""
        if not self.is_monomial():
            raise ValueError(f"cannot invert non-monomial {self}")
        ((exps, coeff),) = self.terms.items()
        if coeff not in (1, -1):
            raise ValueError(f"cannot invert monomial with coefficient {coeff}")
        return LaurentPoly(self.nvars, {tuple(-e for e in exps): coeff}, self.names)

    def monomial_div(self, mono: "LaurentPoly") -> "LaurentPoly":
        """Exact division of every term by a single Laurent monomial."""
        mono = self._coerce(mono)
        if not mono.is_monomial():
            raise ValueError(f"divisor {mono} is not a monomial")
        ((dexps, dcoeff),) = mono.terms.items()
        terms = {}
        for exps, coeff in self.terms.items():
            q, r = divmod(coeff, dcoeff)
            if r:
                raise ValueError(f"coefficient {coeff} not divisible by {dcoeff}")
            terms[tuple(a - b for a, b in zip(exps, dexps))] = q
        return LaurentPoly(self.nvars, terms, self.names)

    # -- evaluation and predicates ------------------------------------------

    def eval(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact evaluation at a rational point.

        Raises ZeroDivisionError if a zero coordinate meets a negative
        exponent.
        """
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, need {self.nvars}")
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = Fraction(coeff)
            for base, e in zip(pt, exps):
                if e == 0:
                    continue
                if base == 0 and e < 0:
                    raise ZeroDivisionError(
                        "zero substituted into a negative exponent"
                    )
                val *= base ** e
            total += val
        return total

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

    def _term_str(self, exps: tuple[int, ...], coeff: int) -> str:
        factors = []
        for name, e in zip(self.names, exps):
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

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            if i == 0:
                sign = "-" if coeff < 0 else ""
            else:
                sign = " - " if coeff < 0 else " + "
            parts.append(sign + self._term_str(exps, coeff))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


_TERM_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_poly(text: str, nvars: int, names: Sequence[str] | None = None) -> LaurentPoly:
    """Parse the canonical rendering back into a polynomial.

    Grammar: terms joined by + or -, each term a '*'-separated product of an
    optional integer coefficient and factors name or name^exp (exp may be
    negative).  Inverse of str() for any polynomial with the same names.
    """
    names = tuple(names) if names else _default_names(nvars)
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return LaurentPoly.zero(nvars, names)
    # Split into signed terms; a minus directly after ^ is an exponent sign.
    chunks = re.split(r"(?<!\^)\s*([+-])\s*", text)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise ValueError(f"cannot parse polynomial {text!r}")
    result = LaurentPoly.zero(nvars, names)
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
        result = result + LaurentPoly.monomial(coeff, exps, names)
    return result


def x_vars(nvars: int, names: Sequence[str] | None = None) -> list[LaurentPoly]:
    """The generators x1..xk as polynomials."""
    return [LaurentPoly.variable(i, nvars, names) for i in range(nvars)]


def q_int(k: int, names: Sequence[str] = ("q",)) -> LaurentPoly:
    """The q-integer 1 + q + ... + q^(k-1)."""
    if k < 0:
        raise ValueError("q-integer index must be nonnegative")
    return LaurentPoly(1, {(i,): 1 for i in range(k)}, names)


def q_int_derivative(k: int, d: int, names: Sequence[str] = ("q",)) -> LaurentPoly:
    """d-th derivative of the q-integer [k]_q, in closed form.

    Equals d! * sum_{i=0}^{k-d-1} binom(i+d, i) q^i; for d >= k the sum is
    empty and the zero polynomial is returned.
    """
    if k <= 0:
        raise ValueError("q-integer index must be positive")
    if d < 0:
        raise ValueError("derivative order must be nonnegative")
    fact = factorial(d)
    return LaurentPoly(1, {(i,): fact * comb(i + d, i) for i in range(k - d)}, names)


def complete_homogeneous(k: int, gens: Iterable[LaurentPoly | int]) -> LaurentPoly:
    """Complete homogeneous symmetric polynomial h_k evaluated at gens.

    Computed by the layered recurrence over the generating function
    prod_i 1/(1 - g_i t) truncated at degree k.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    gens = list(gens)
    if not gens:
        return LaurentPoly.zero(0) if k > 0 else LaurentPoly.one(0)
    first = next((g for g in gens if isinstance(g, LaurentPoly)), None)
    nvars = first.nvars if first is not None else 0
    names = first.names if first is not None else ()
    gens = [
        g if isinstance(g, LaurentPoly) else LaurentPoly.constant(g, nvars, names)
        for g in gens
    ]
    # h[d] = h_d of the generators consumed so far.
    h = [LaurentPoly.one(nvars, names)] + [LaurentPoly.zero(nvars, names)] * k
    for g in gens:
        powers = [LaurentPoly.one(nvars, names)]
        for _ in range(k):
            powers.append(powers[-1] * g)
        new = [LaurentPoly.zero(nvars, names) for _ in range(k + 1)]
        for d in range(k + 1):
            acc = new[d]
            for j in range(d + 1):
                acc = acc + h[d - j] * powers[j]
            new[d] = acc
        h = new
    return h[k]
