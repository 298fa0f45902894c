import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hookexp.exactnum import (
    BetaPoly,
    diff_product,
    format_rational,
    parse_rational,
    roots_poly,
    serialize_scalar,
    superfactorial,
)


def test_parse_rational_roundtrip():
    for text, want in [("3", Fraction(3)), ("-24", Fraction(-24)),
                       ("5/4", Fraction(5, 4)), ("-7/2", Fraction(-7, 2)),
                       ("0", Fraction(0))]:
        assert parse_rational(text) == want
        assert parse_rational(format_rational(want)) == want


def test_format_rational_is_canonical():
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-8, 2)) == "-4"
    assert format_rational(Fraction(0, 5)) == "0"


def test_parse_rational_rejects_junk():
    for bad in ["", "x", "1/0", "1.5", "2/", "/3"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_betapoly_basic_arithmetic():
    b = BetaPoly.beta()
    one = BetaPoly.constant(1)
    p = (one - b) * (one - b * Fraction(1, 4))
    assert p == BetaPoly([1, Fraction(-5, 4), Fraction(1, 4)])
    assert p.degree == 2
    assert p.coefficient(1) == Fraction(-5, 4)
    assert p.coefficient(7) == 0


def test_betapoly_eval_at_rational_point():
    b = BetaPoly.beta()
    p = (1 - b) * (1 - b * Fraction(1, 4))
    assert p.eval(Fraction(4)) == 0
    assert p.eval(Fraction(0)) == 1
    # the discriminant coefficient at beta = 25: (1-25)(1-25/4) = 126
    assert p.eval(Fraction(25)) == 126


def test_betapoly_eval_tau_coefficient():
    # eval of 1 - beta at 25 gives -24
    p = 1 - BetaPoly.beta()
    assert p.eval(Fraction(25)) == -24


def test_betapoly_zero_and_pow():
    z = BetaPoly()
    assert not z
    assert z.degree == -1
    b = BetaPoly.beta()
    assert b ** 0 == BetaPoly.constant(1)
    assert b ** 3 == BetaPoly([0, 0, 0, 1])
    with pytest.raises(ValueError):
        b ** -1


def test_betapoly_powers():
    p = BetaPoly([1, Fraction(-1, 2), 3])
    assert p ** 3 == p * p * p
    assert p ** 0 == BetaPoly.constant(1)
    for bad in (-1, 2.0):
        with pytest.raises(
                ValueError,
                match="^BetaPoly powers must be non-negative integers$"):
            p ** bad


def test_betapoly_hash_agrees_with_equality():
    for poly, scalar in ((BetaPoly((3,)), 3), (BetaPoly(), 0),
                         (BetaPoly((Fraction(1, 2),)), Fraction(1, 2))):
        assert poly == scalar and hash(poly) == hash(scalar)
        assert len({poly, scalar}) == 1
        assert {scalar: 1}.get(poly) == 1
    b = BetaPoly.beta()
    for p, q in ((b * b - 3 * b + 2, (b - 1) * (b - 2)),
                 (b, BetaPoly([Fraction(0), Fraction(2, 2)]))):
        assert p == q and hash(p) == hash(q)
        assert len({p, q}) == 1


def test_betapoly_subst_linear():
    b = BetaPoly.beta()
    p = b * b - 3 * b + 2
    q = p.subst_linear(1, 1)  # evaluate at 1 + beta
    assert q == b * b - b
    assert p.subst_linear(0, 1) == p


def test_betapoly_string_roundtrip():
    p = BetaPoly([Fraction(3), Fraction(-29, 6), Fraction(2), Fraction(-1, 6)])
    assert p.to_strings() == ["3", "-29/6", "2", "-1/6"]


def test_serialize_scalar():
    assert serialize_scalar(Fraction(-3, 7)) == "-3/7"
    assert serialize_scalar(5) == "5"
    s = serialize_scalar(BetaPoly([1, -1]))
    assert json.loads(s) == ["1", "-1"]


rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)
polys = st.lists(rationals, max_size=5).map(BetaPoly)


@given(polys, polys, polys)
def test_betapoly_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + BetaPoly() == p
    assert p - p == BetaPoly()


@given(polys, polys, rationals)
def test_betapoly_eval_is_a_homomorphism(p, q, x):
    assert (p + q).eval(x) == p.eval(x) + q.eval(x)
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)


@given(polys, st.one_of(rationals, st.integers(-50, 50)))
def test_betapoly_eval_matches_the_fraction_horner_loop(p, x):
    want = Fraction(0)
    for c in reversed(p.coeffs):
        want = want * x + c
    got = p.eval(x)
    assert got == want
    assert type(got) is Fraction


@given(polys, rationals, rationals, rationals)
def test_subst_linear_agrees_with_eval(p, a, b, x):
    assert p.subst_linear(a, b).eval(x) == p.eval(a + b * x)


@given(st.lists(st.integers(-40, 40), max_size=8))
def test_diff_product_is_the_plain_nested_product(vec):
    want = 1
    for i in range(len(vec)):
        for j in range(i + 1, len(vec)):
            want *= vec[i] - vec[j]
    assert diff_product(vec) == diff_product(tuple(vec)) == want


@given(st.lists(st.integers(-40, 40), max_size=8), st.integers(-50, 50))
def test_roots_poly_is_the_product_of_linear_factors(values, scale):
    # scale * prod (v - beta), multiplied out one BetaPoly factor at a time
    want = BetaPoly.constant(scale)
    for v in values:
        want = want * (v - BetaPoly.beta())
    got = roots_poly(values, scale)
    assert all(type(c) is int for c in got)
    assert BetaPoly(got) == want
    assert len(got) == len(values) + 1


def test_superfactorial_is_the_plain_nested_product():
    for k in range(12):
        want = 1
        for i in range(1, k + 1):
            for j in range(1, i + 1):
                want *= j
        assert superfactorial(k) == want, k
