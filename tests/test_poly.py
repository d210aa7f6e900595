import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqtasep.poly import (
    LaurentPoly,
    eval_common,
    parse_poly,
    q_int_derivative,
    x_vars,
)
from mlqtasep.verify import _binomial_series
from helpers import h_bruteforce, q_int, reference_eval

X2_OVER_X1 = LaurentPoly.monomial(1, (-1, 1))


def test_basic_arithmetic():
    x1, x2 = x_vars(2)
    assert (x1 + x2) * x1 == x1 * x1 + x1 * x2
    assert str(x1 + x2) == "x1 + x2"
    assert (x1 - x1).is_zero()
    assert (x1 + x2) - (x1 + x2) == LaurentPoly.zero(2)


def test_weights_of_rotated_words_cancel():
    # both ends of the three-particle ring carry weight x1 + x2
    x1, x2 = x_vars(2)
    w123 = x1 + x2
    w231 = x2 + x1
    assert (w123 - w231).is_zero()


def test_laurent_cancellation():
    x1, x2 = x_vars(2)
    assert X2_OVER_X1 * x1 == x2
    assert LaurentPoly.monomial(1, (-1, 0)) * x1 == LaurentPoly.one(2)


def test_eval_exact():
    x1, x2 = x_vars(2)
    assert (x1 + x2).eval([2, 1]) == 3
    assert x1.eval([2, 1]) == 2
    assert X2_OVER_X1.eval([Fraction(1, 3), 2]) == 6


def test_eval_pole_rejected():
    with pytest.raises(ZeroDivisionError):
        X2_OVER_X1.eval([0, 1])


def test_positivity_check():
    x1, x2 = x_vars(2)
    assert (x1 + x2).is_positive()
    assert not (x1 - x2).is_positive()
    assert not X2_OVER_X1.is_positive()
    assert LaurentPoly.zero(2).is_positive()  # vacuous


def test_q_int_derivative_closed_form():
    assert q_int_derivative(3, 0).text(("q",)) == "1 + q + q^2"
    assert q_int_derivative(3, 1).text(("q",)) == "1 + 2*q"
    assert q_int_derivative(4, 2) == LaurentPoly(1, {(0,): 2, (1,): 6})
    assert q_int_derivative(3, 3).is_zero()
    assert q_int_derivative(3, 7).is_zero()


def _formal_derivative(p: LaurentPoly) -> LaurentPoly:
    terms = {}
    for (e,), c in p.terms.items():
        if e != 0:
            terms[(e - 1,)] = terms.get((e - 1,), 0) + c * e
    return LaurentPoly(1, terms)


@pytest.mark.parametrize("k", range(1, 11))
def test_q_int_derivative_matches_termwise_oracle(k):
    for d in range(k):
        expected = q_int(k)
        for _ in range(d):
            expected = _formal_derivative(expected)
        assert q_int_derivative(k, d) == expected


def test_complete_homogeneous_small_cases():
    # h_k(1, a, ..., a) with r copies of a is _binomial_series(r, k)
    a, one = LaurentPoly.variable(0, 1), LaurentPoly.one(1)
    assert h_bruteforce(1, [one, a, a]).text(("a",)) == "1 + 2*a"
    assert _binomial_series(2, 1).text(("a",)) == "1 + 2*a"
    assert h_bruteforce(0, [one, a, a]) == _binomial_series(2, 0) == one
    assert h_bruteforce(2, [one, a]).text(("a",)) == "1 + a + a^2"
    assert _binomial_series(1, 2).text(("a",)) == "1 + a + a^2"


@pytest.mark.parametrize("k,r", [(k, r) for k in range(9) for r in range(1, 7)])
def test_complete_homogeneous_binomial_coefficients(k, r):
    a = LaurentPoly.variable(0, 1)
    h = _binomial_series(r, k)
    assert h == h_bruteforce(k, [LaurentPoly.one(1)] + [a] * r)
    assert h.terms == {(i,): comb(i + r - 1, i) for i in range(k + 1)}


def _random_poly(rng, nvars, nterms, max_deg=3, laurent=False):
    terms = {}
    low = -max_deg if laurent else 0
    for _ in range(nterms):
        exps = tuple(rng.randint(low, max_deg) for _ in range(nvars))
        terms[exps] = rng.randint(-5, 5)
    return LaurentPoly(nvars, terms)


def test_ring_axioms_randomized():
    rng = random.Random(20240)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        p = _random_poly(rng, nvars, rng.randint(0, 5), laurent=True)
        q = _random_poly(rng, nvars, rng.randint(0, 5), laurent=True)
        r = _random_poly(rng, nvars, rng.randint(0, 5), laurent=True)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == LaurentPoly.zero(nvars)
        assert p * q == q * p


def test_eval_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        nvars = rng.randint(1, 3)
        p = _random_poly(rng, nvars, rng.randint(0, 4))
        q = _random_poly(rng, nvars, rng.randint(0, 4))
        point = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(nvars)]
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)


def test_str_parse_round_trip():
    rng = random.Random(99)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        p = _random_poly(rng, nvars, rng.randint(0, 5), laurent=True)
        assert parse_poly(str(p), nvars) == p
    assert parse_poly("x1^6*x2^5*x3^6*x4^2*x5", 5) == LaurentPoly.monomial(
        1, (6, 5, 6, 2, 1)
    )
    assert parse_poly("0", 2).is_zero()
    assert parse_poly("3 + 6*a", 1, ("a",)) == LaurentPoly(1, {(0,): 3, (1,): 6})


@st.composite
def laurent_polys(draw, nvars=None):
    """Up to 6 terms in 1-4 variables, signed coefficients, exponents in a
    range of its own inside -4..4."""
    if nvars is None:
        nvars = draw(st.integers(1, 4))
    lo = draw(st.integers(-4, 4))
    exps = st.tuples(*[st.integers(lo, draw(st.integers(lo, 4)))] * nvars)
    return LaurentPoly(nvars, draw(st.dictionaries(exps, st.integers(-50, 50), max_size=6)))


NAME = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)


@settings(max_examples=200, deadline=None)
@given(laurent_polys(), st.data())
def test_parse_poly_inverts_str(p, data):
    assert parse_poly(str(p), p.nvars) == p
    names = data.draw(st.lists(NAME, min_size=p.nvars, max_size=p.nvars, unique=True))
    assert parse_poly(p.text(names), p.nvars, names) == p


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eval_matches_termwise_oracle(data):
    # lists of 0-4 polynomials, zero ones among them, at points with zero
    # and negative coordinates, of the right length and of a wrong one: eval
    # gives each oracle value or exception; eval_common gives the values
    # over one positive denominator, or the first exception the oracle met
    nvars = data.draw(st.integers(1, 4))
    polys = data.draw(st.lists(laurent_polys(nvars), max_size=4))
    size = data.draw(st.sampled_from([nvars, nvars, nvars + 1, nvars - 1]))
    coordinate = st.fractions(min_value=-5, max_value=5, max_denominator=7) | st.just(Fraction(0))
    point = data.draw(st.lists(coordinate, min_size=size, max_size=size))
    expected = [_outcome(reference_eval, p, point) for p in polys]
    for p, want in zip(polys, expected):
        got = _outcome(p.eval, point)
        assert got == want and type(got) is type(want)
    errors = [want for want in expected if isinstance(want, tuple)]
    if errors:
        assert _outcome(eval_common, polys, point) == errors[0]
    else:
        numerators, denominator = eval_common(polys, point)
        assert denominator > 0
        assert [Fraction(v, denominator) for v in numerators] == expected


def test_str_canonical_order():
    x1, x2 = x_vars(2)
    assert str(x2 + x1) == "x1 + x2"
    assert (LaurentPoly.constant(3, 1) + 6 * LaurentPoly.variable(0, 1)).text(("a",)) == "3 + 6*a"
    assert str(x1 * x1 - x2) == "-x2 + x1^2"
    assert (x1 * x1 - x2).text(("u", "v")) == "-v + u^2"
    # a missing, extra or repeated name would print or read a variable wrongly
    with pytest.raises(ValueError, match=r"^need 2 distinct names, got \('a',\)$"):
        x1.text(("a",))
    with pytest.raises(ValueError, match="^need 2 distinct names, got "):
        (x1 + x2).text(("a", "a"))
    with pytest.raises(ValueError, match="^need 2 distinct names, got "):
        parse_poly("c", 2, ("a", "b", "c"))
    with pytest.raises(ValueError, match="^need 2 distinct names, got "):
        parse_poly("a", 2, ("a", "a"))


def test_mismatched_nvars_rejected():
    x1, _ = x_vars(2)
    q = LaurentPoly.variable(0, 3)
    with pytest.raises(ValueError):
        _ = x1 + q
