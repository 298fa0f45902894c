"""Exact scalar arithmetic: rationals and polynomials in a formal variable beta.

Everything in this package is computed exactly.  Integers are plain Python
ints (arbitrary precision), rationals are `fractions.Fraction` (kept in
canonical reduced form with positive denominator by the stdlib), and symbolic
coefficients live in `BetaPoly`, a dense univariate polynomial over the
rationals.  No floats anywhere.
"""

import json
import re
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod

Rational = Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def parse_rational(text):
    """Parse "p/q" (or "p") into a Fraction.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError("not a rational: %r" % (text,))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator: %r" % (text,)) from None


def _require_size(value, name):
    if value < 0:
        raise ValueError("%s must be >= 0" % name)


def _require_exact(value, name):
    """Refuse a float (inexact) or a bool (not a number here) where an
    exact rational is meant."""
    if isinstance(value, (float, bool)):
        raise ValueError("%s must be an int or a Fraction, got %r"
                         % (name, value))


def _require_int(value, name):
    """Refuse anything but an int (a bool included)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("%s must be an integer, got %r" % (name, value))


def diff_product(vec):
    """prod over i < j of (vec[i] - vec[j]), exactly."""
    return prod(a - b for a, b in combinations(vec, 2))


def roots_poly(values, scale=1):
    """Int coefficients, lowest degree first, of scale * prod(v - X) over
    the int values: one factor (v - X) multiplied in per value."""
    poly = [scale]
    for v in values:
        poly.append(0)
        for i in range(len(poly) - 1, 0, -1):
            poly[i] = v * poly[i] - poly[i - 1]
        poly[0] *= v
    return poly


def superfactorial(k):
    """1! 2! ... k! (1 for k = 0)."""
    return prod(map(factorial, range(1, k + 1)))


def power_by_squaring(base, n, one, what):
    """base ** n by repeated squaring from the identity `one`; `what` names
    the type in the error for an n that is not a non-negative int."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("%s powers must be non-negative integers" % what)
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def format_rational(value):
    """Render an exact integer or Fraction as "p/q", or "p" when q == 1."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class BetaPoly:
    """Polynomial in one formal variable with Fraction coefficients.

    Coefficients are stored densely, lowest degree first, with trailing
    zeros stripped; the zero polynomial has an empty coefficient tuple and
    degree -1.  The variable is conventionally called beta, but the class is
    used for any formal parameter (beta, s, ...).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("BetaPoly is immutable")

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def beta(cls):
        """The monomial beta itself."""
        return cls((0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    @staticmethod
    def _coerce(other):
        if isinstance(other, BetaPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BetaPoly((other,))
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # of degree <= 0 it equals its scalar, so it must hash as one
        return hash(self.coeffs if self.degree > 0 else self.coefficient(0))

    def __neg__(self):
        return BetaPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return BetaPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return BetaPoly()
            return BetaPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, BetaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return BetaPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return BetaPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        return NotImplemented

    def __pow__(self, n):
        return power_by_squaring(self, n, BetaPoly((1,)), "BetaPoly")

    def eval(self, point):
        """Evaluate at an exact point p/q: Horner's rule on ints, over the
        coefficients' least common denominator d, and one division by
        d q^degree."""
        _require_exact(point, "point")
        point = Fraction(point)
        if not self.coeffs:
            return Fraction(0)
        p, q = point.numerator, point.denominator
        d = lcm(*(c.denominator for c in self.coeffs))
        acc, qk = 0, 1  # qk = q^(degree - i) at coefficient i
        for c in reversed(self.coeffs):
            acc = acc * p + c.numerator * (d // c.denominator) * qk
            qk *= q
        return Fraction(acc, d * qk // q)

    def subst_linear(self, a, b):
        """The polynomial p(a + b*X) in the new variable X."""
        lin = BetaPoly((a, b))
        acc = BetaPoly()
        for c in reversed(self.coeffs):
            acc = acc * lin + c
        return acc

    def to_strings(self):
        """Serialized form: list of "p/q" strings, lowest degree first."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self):
        return "BetaPoly([%s])" % ", ".join(format_rational(c) for c in self.coeffs)


def serialize_scalar(x):
    """Canonical string form of an exact scalar (int, Fraction or BetaPoly)."""
    if isinstance(x, BetaPoly):
        return json.dumps(x.to_strings())
    return format_rational(x)
