"""Exact scalar arithmetic: rationals and polynomials in a formal variable beta.

Everything in this package is computed exactly.  Integers are plain Python
ints (arbitrary precision), rationals are `fractions.Fraction` (kept in
canonical reduced form with positive denominator by the stdlib), and symbolic
coefficients live in `BetaPoly`, a dense univariate polynomial over the
rationals.  No floats anywhere.

The number rule of every public boundary lives here, in helpers that only
raise (a UsageError that names the parameter):

 * `_require_int`: an int, never a bool (optionally at least some low),
   and `_require_ints`, the same for every entry of a sequence;
 * `_require_size`: an int >= 0, for every size, order and count;
 * `_require_exact`: an int or a Fraction, never a bool, a float or a str
   (a BetaPoly too, where a formal value is meant).
 * `_invariant`: a fact about the package's own results, else an
   ArithmeticError "invariant failed: ...", also under -O (never a usage error).

`parse_rational` and `_env_int` (any HOOKEXP_* variable, one syntax) take
text; `_ints` is the int lane of Series and BetaPoly arithmetic.
"""

import json
import os
import re
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod
from operator import mul

Rational = Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


class UsageError(ValueError):
    """The one refusal type, and the CLI's only exit 2; a validator the
    package also runs on its own values raises a plain ValueError."""


def parse_rational(text):
    """Parse "p/q" (or "p") into a Fraction.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    """
    if type(text) is not str:
        raise TypeError("text must be a str, got %r" % (text,))
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise UsageError("not a rational: %r" % (text,))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError("zero denominator: %r" % (text,)) from None


_INT = {int}
_FRACTION = {Fraction}
_EXACT = (int, Fraction)


def _require_int(value, name, low=None, message=None):
    """Raise a UsageError unless value is an int (a bool is not) and, given
    low, at least low: "<name> must be an integer, got <value>" or
    "<name> must be >= <low>", or the caller's own message, which
    str.format fills with the value."""
    if type(value) is not int:
        raise UsageError(message.format(value) if message else
                         "%s must be an integer, got %r" % (name, value))
    if low is not None and value < low:
        raise UsageError(message.format(value) if message else
                         "%s must be >= %d" % (name, low))


def _require_ints(values, name):
    """_require_int on every entry of values, in one scan when all pass."""
    if not set(map(type, values)) <= _INT:
        for value in values:
            _require_int(value, name)


def _require_size(value, name):
    """Raise unless value is an int >= 0: a size, an order or a count."""
    _require_int(value, name, 0)


def _invariant(ok, what, *args):
    """Raise ArithmeticError("invariant failed: " + what % args) unless ok."""
    if not ok:
        raise ArithmeticError("invariant failed: " + what % args)


def _env_int(name, default, low):
    """The int in environment variable name: default when it is unset or
    empty, else decimal digits (blanks around them allowed), at least low."""
    raw = os.environ.get(name, "")
    if raw and not (raw.strip().isdecimal() and int(raw) >= low):
        raise UsageError("%s must be a %s integer, got %r"
                         % (name, "positive" if low else "non-negative", raw))
    return int(raw) if raw else default


def _ints(cs):
    """(ints, d) with cs[i] = ints[i] / d and d the least common
    denominator, when every c is an int or a Fraction (cs itself and 1
    when every c is an int); else None."""
    kinds = set(map(type, cs))
    if kinds <= _INT:
        return cs, 1
    if not kinds <= {int, Fraction}:
        return None
    d = lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _require_exact(value, name, beta_poly=False):
    """Raise a UsageError unless value is an int or a Fraction (never a
    bool, a float or a str), or, given beta_poly, a BetaPoly."""
    if type(value) not in _EXACT and not (beta_poly and type(value) is BetaPoly):
        raise UsageError("%s must be an int or a Fraction, got %r"
                         % (name, value))


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
    _require_int(n, "n", 0, "%s powers must be non-negative integers" % what)
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def format_rational(value):
    """Render an exact integer or Fraction as "p/q", or "p" when q == 1."""
    _require_exact(value, "value")
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


class BetaPoly:
    """Polynomial in one formal variable with Fraction coefficients.

    Coefficients are given as ints or Fractions (_require_exact) and stored
    densely as Fractions, lowest degree first, with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple and
    degree -1.  The variable is conventionally called beta, but the class is
    used for any formal parameter (beta, s, ...).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        if not set(map(type, cs)) <= _FRACTION:
            for c in cs:
                _require_exact(c, "coeffs entry")
            cs = [c if type(c) is Fraction else Fraction(c) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("BetaPoly is immutable")

    @classmethod
    def constant(cls, c):
        _require_exact(c, "c")
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
        if type(other) in _EXACT:
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
        if type(other) in _EXACT:  # a zero other leaves zeros, stripped
            return BetaPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, BetaPoly):
            return NotImplemented
        if len(self.coeffs) < len(other.coeffs):
            return other * self  # so the shorter b bounds every slice
        # one int convolution over da * db, each sum reading b reversed
        (a, da), (b, db) = _ints(self.coeffs), _ints(other.coeffs)
        lb, b = len(b), b[::-1]
        return BetaPoly([Fraction(sum(map(mul, a[max(m - lb + 1, 0):m + 1],
                                          b[max(lb - 1 - m, 0):])), da * db)
                         for m in range(len(a) + lb - 1)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) in _EXACT:
            return self * (Fraction(1) / other)
        return NotImplemented

    def __pow__(self, n):
        return power_by_squaring(self, n, BetaPoly((1,)), "BetaPoly")

    def eval(self, point):
        """Evaluate at an exact point p/q: Horner's rule on ints, over the
        coefficients' least common denominator d, and one division by
        d q^degree."""
        _require_exact(point, "point")
        if not self.coeffs:
            return Fraction(0)
        p, q = point.numerator, point.denominator
        ints, d = _ints(self.coeffs)
        acc, qk = 0, 1  # qk = q^(degree - i) at coefficient i
        for c in reversed(ints):
            acc = acc * p + c * qk
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
