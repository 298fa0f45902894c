"""Truncated formal power series with exact coefficients.

A Series holds coefficients c_0..c_N (order N) which are either Fractions or
BetaPolys; arithmetic between two series truncates to the smaller order.
On top of the generic ring operations this module provides the expansions
the rest of the package is built from: powers of the Euler product
prod_{m>=1} (1 - x^m) with rational or formal exponent (by exp/log, or by
the sparse power recurrence over the pentagonal series), the classical sparse
series (pentagonal numbers, cubes, an eighth-power double sum), divisor
power sums, principal specializations of Schur functions, a lattice-sum
route to eta powers over the t-core codings of tcore, and compositional
reversion of x * (Euler product).
"""

from fractions import Fraction
from math import factorial, isqrt, perm
from operator import mul

from .exactnum import (
    BetaPoly,
    _ints,
    _invariant,
    _require_exact,
    _require_int,
    _require_size,
    diff_product,
    power_by_squaring,
    superfactorial,
)
from .partition import _pentagonal_terms, b_stat_of, contents_of, hooks_of
from .tcore import _require_coding_t, _v_codings

_ZERO = Fraction(0)
_ONE = Fraction(1)
_COEFF_TYPES = {int, Fraction, BetaPoly}


class Series:
    """Exact truncated power series; immutable in practice.  Each
    coefficient is an int, a Fraction or a BetaPoly (_require_exact)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant term")
        if not set(map(type, cs)) <= _COEFF_TYPES:
            for c in cs:
                _require_exact(c, "coeffs entry", beta_poly=True)
        self.coeffs = cs

    @classmethod
    def zero(cls, order):
        _require_size(order, "order")
        return cls([_ZERO] * (order + 1))

    @classmethod
    def x(cls, order):
        _require_size(order, "order")
        cs = [_ZERO] * (order + 1)
        if order >= 1:
            cs[1] = _ONE
        return cls(cs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def _zero_one(self):
        zero = self.coeffs[0] * 0
        return zero, zero + 1

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return "Series([%s%s]; order=%d)" % (head, tail, self.order)

    def truncate(self, order):
        _require_size(order, "order")
        if order >= self.order:
            return self
        return Series(self.coeffs[: order + 1])

    def shift(self, k):
        """Multiply by x^k (order grows by k)."""
        _require_size(k, "k")
        zero, _ = self._zero_one()
        return Series([zero] * k + self.coeffs)

    def map(self, fn):
        return Series([fn(c) for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __mul__(self, other):
        if type(other) in (int, Fraction, BetaPoly):
            return Series([c * other for c in self.coeffs])
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        kinds = set(map(type, a + b))
        rational = Fraction in kinds and kinds <= {int, Fraction}
        if rational:  # one int convolution over da * db
            (a, da), (b, db) = _ints(a), _ints(b)
        # an all-int product stays int, other coefficients go through as is
        zero, b = a[0] * 0, b[::-1]
        out = [sum(map(mul, a, b[n - m:]), zero) for m in range(n + 1)]
        if rational:
            out = [Fraction(c, da * db) for c in out]
        return Series(out)

    __rmul__ = __mul__

    def __pow__(self, m):
        zero, one = self._zero_one()
        return power_by_squaring(self, m, Series([one] + [zero] * self.order),
                                 "series")

    def inverse(self):
        """Multiplicative inverse of a series with int or Fraction
        coefficients and a nonzero constant term, found on ints: with the
        coefficients F_k / d over one denominator d and c = F_0,
        G_0 = 1 and G_n = -sum_{k>=1} F_k c^(k-1) G_{n-k}, and the inverse
        has d G_n / c^(n+1) at x^n."""
        if not self.coeffs[0]:
            raise ValueError("constant term must be invertible")
        scaled = _ints(self.coeffs)
        if scaled is None:
            raise ValueError("the inverse needs int or Fraction coefficients")
        (c, *F), d = scaled
        w = [f * c ** k for k, f in enumerate(F)]  # w[k - 1] = F_k c^(k-1)
        G = [1]
        for _ in F:
            G.append(-sum(map(mul, w, reversed(G))))
        return Series([Fraction(d * g, c ** (n + 1)) for n, g in enumerate(G)])

    def exp(self):
        """exp of a series f with zero constant term, by
        n out[n] = sum_k k f_k out[n - k].

        While every k f_k is an integer (as for an integer Euler power) the
        sums run on ints, each divided by n exactly; from the first inexact
        division on they run on Fractions.
        """
        zero, one = self._zero_one()
        if self.coeffs[0] != zero:
            raise ValueError("exp needs a zero constant term")
        g = [k * fk for k, fk in enumerate(self.coeffs[1:], 1)]  # k f_k
        out = [one * _ONE]  # a Fraction for an int f, like every out[n]
        scaled = _ints(g)
        if scaled and scaled[1] == 1:
            gs, ints = scaled[0], [1]
            for n in range(1, self.order + 1):
                c, r = divmod(sum(map(mul, gs, reversed(ints))), n)
                if r:
                    break
                ints.append(c)
            out += map(Fraction, ints[1:])
        for n in range(len(out), self.order + 1):
            out.append(sum(map(mul, g, reversed(out)), zero) * Fraction(1, n))
        return Series(out)

    def log(self):
        """log of a series f with constant term one, by
        n out[n] = n f_n - sum_{0<k<n} k out[k] f_{n - k}."""
        zero, one = self._zero_one()
        f = self.coeffs
        if f[0] != one:
            raise ValueError("log needs constant term 1")
        out, kl = [zero * _ONE], []  # kl[k - 1] = k out[k]
        for n in range(1, self.order + 1):
            acc = sum(map(mul, kl, reversed(f[1:n])), zero)
            out.append(f[n] - acc * Fraction(1, n))
            kl.append(n * out[n])
        return Series(out)

    def compose(self, inner):
        """self(inner(x)); the inner series needs a zero constant term."""
        zero, one = inner._zero_one()
        if inner.coeffs[0] != zero:
            raise ValueError("composition needs a zero constant term inside")
        n = min(self.order, inner.order)
        acc = Series([zero] * (n + 1))
        for c in reversed(self.coeffs[: n + 1]):
            acc = acc * inner.truncate(n)
            acc.coeffs[0] = acc.coeffs[0] + one * c
        return acc


# ---------------------------------------------------------------------------
# divisor sums and Euler powers

def divisor_power_gf(alpha, order):
    """sum_{k>=1} k^alpha x^k / (1 - x^k): coefficient of x^n is
    sum of d^alpha over divisors d of n (integer alpha)."""
    _require_int(alpha, "alpha")
    _require_size(order, "order")
    out = [_ZERO] * (order + 1)
    for k in range(1, order + 1):
        term = Fraction(k ** alpha) if alpha >= 0 else Fraction(1, k ** -alpha)
        for m in range(k, order + 1, k):
            out[m] += term
    return Series(out)


def log_euler_sum(order):
    """sum_{k>=1} x^k / (k (1 - x^k)) = -log prod (1 - x^m)."""
    return divisor_power_gf(-1, order)


def euler_power(s, order):
    """prod_{m>=1} (1 - x^m)^s via exp/log, for an exact rational s or a
    BetaPoly s such as BetaPoly.beta() (then a Series of BetaPolys)."""
    _require_exact(s, "s", beta_poly=True)
    lg = log_euler_sum(order)
    return Series([-s * c for c in lg.coeffs]).exp()


def euler_power_recurrence(s, order):
    """prod_{m>=1} (1 - x^m)^s for an exact rational s = p/q, by the
    Euler / J.C.P. Miller power recurrence (Knuth, TAOCP vol. 2, 4.7) over
    f = prod (1 - x^m), run on the ints B_n = q^(2n) a_n:

        n B_n = sum_{k>=1} ((p + q) k - q n) f_k q^(2k-1) B_{n-k},

    where only the O(sqrt(n)) pentagonal k of _pentagonal_terms contribute.
    B_n is an integer, since every binomial(p/q, j) has a denominator
    dividing q^(2j-1) (p(p-q)...(p-(j-1)q) takes each prime of j! that does
    not divide q, and v_l(j!) < j); so the one division, by n, is exact.
    Each coefficient is built once, as the Fraction B_n / q^(2n).
    """
    _require_exact(s, "s")
    _require_size(order, "order")
    p, q = s.numerator, s.denominator
    # term k of the sum is (u - n v) B_{n-k}
    terms = [(k, (p + q) * k * fk * q ** (2 * k - 1), fk * q ** (2 * k))
             for k, fk in _pentagonal_terms(order)]
    B = [1]
    for n in range(1, order + 1):
        acc = 0
        for k, u, v in terms:
            if k > n:
                break
            acc += (u - n * v) * B[n - k]
        b, r = divmod(acc, n)
        _invariant(not r, "inexact division by n at x^%d", n)
        B.append(b)
    if q == 1:  # Fraction(b) builds faster than Fraction(b, 1)
        return Series(list(map(Fraction, B)))
    return Series([Fraction(b, q ** (2 * n)) for n, b in enumerate(B)])


def euler_power_formal(order):
    """prod (1 - x^m)^(beta - 1) with beta formal: a Series of BetaPolys.

    The power recurrence of euler_power_recurrence with s = beta - 1, run on
    A_n = n! a_n, which lies in Z[beta] (Corollary 2.3):

        A_n = sum_{k>=1} (beta k - n) f_k (n-1)!/(n-k)! A_{n-k}.

    The A_n are plain int coefficient lists, lowest degree first; each is
    divided by n! once, when the BetaPoly is built.
    """
    _require_size(order, "order")
    terms = _pentagonal_terms(order)
    A = [[1]]
    for n in range(1, order + 1):
        acc = [0] * (n + 1)
        for k, fk in terms:
            if k > n:
                break
            c = fk * perm(n - 1, k - 1)  # f_k (n-1)!/(n-k)!
            cn, ck = c * n, c * k
            for i, v in enumerate(A[n - k]):
                if v:
                    acc[i] -= cn * v
                    acc[i + 1] += ck * v
        A.append(acc)
    out = []
    for n, An in enumerate(A):
        nf = factorial(n)
        out.append(BetaPoly([Fraction(v, nf) for v in An]))
    return Series(out)


def euler_product_direct(s, order, step=1):
    """prod_{m>=1} (1 - x^{step*m})^s for integer s, by explicit factors.

    An independent route to euler_power for integer exponents: each factor
    (1 - x^d) is multiplied in (or divided out, for negative s) directly on
    an integer coefficient array.
    """
    _require_int(s, "s")
    _require_size(order, "order")
    arr = [0] * (order + 1)
    arr[0] = 1
    for d in range(step, order + 1, step):
        for _ in range(s):
            for i in range(order, d - 1, -1):
                arr[i] -= arr[i - d]
        for _ in range(-s):
            geometric_divide(arr, d)
    return Series([Fraction(a) for a in arr])


def partition_gf(order):
    """1 / prod (1 - x^m): the partition-count generating function."""
    return pentagonal_series(order).inverse()


# ---------------------------------------------------------------------------
# classical sparse expansions

def _sparse(order, terms):
    """The Fraction series sum c x^e over the (exponent, coefficient) terms,
    to order `order`; a term past the order is dropped."""
    out = [0] * (order + 1)
    for e, c in terms:
        if e <= order:
            out[e] += c
    return Series([Fraction(a) for a in out])


def pentagonal_series(order):
    """prod (1 - x^m) = sum_{k in Z} (-1)^k x^{k(3k+1)/2}: the constant 1
    and the terms of _pentagonal_terms."""
    _require_size(order, "order")
    return _sparse(order, [(0, 1)] + _pentagonal_terms(order))


def jacobi_cube_series(order):
    """prod (1 - x^m)^3 = sum_{m>=0} (-1)^m (2m+1) x^{m(m+1)/2}."""
    _require_size(order, "order")
    return _sparse(order, ((m * (m + 1) // 2, (-1) ** m * (2 * m + 1))
                           for m in range(isqrt(2 * order) + 1)))


def _half(v):
    c, r = divmod(v, 2)
    _invariant(not r, "eta8 double-sum term %d is odd", v)
    return c


def eta8_double_sum(order):
    """prod (1 - x^m)^8 as a two-parameter sparse double sum.

    Coefficients come in two families indexed by k, m >= 0:
      +(3k+1)(3m+1)(3k+3m+2)/2 at exponent k^2+k+m^2+m+km, and
      -(3k+2)(3m+2)(3k+3m+4)/2 at exponent k^2+k+m^2+m+(k+1)(m+1).
    """
    _require_size(order, "order")
    r = range(isqrt(order) + 1)  # both exponents are at least k^2 and m^2
    return _sparse(order, (term for k in r for m in r for term in (
        (k * k + k + m * m + m + k * m,
         _half((3 * k + 1) * (3 * m + 1) * (3 * k + 3 * m + 2))),
        (k * k + k + m * m + m + (k + 1) * (m + 1),
         -_half((3 * k + 2) * (3 * m + 2) * (3 * k + 3 * m + 4))))))


# ---------------------------------------------------------------------------
# eta powers as lattice sums over zero-sum vectors

def macdonald_eta_power(t, order):
    """prod (1 - x^m)^(t^2 - 1) for odd t >= 3, as a lattice sum.

    Sums (-1)^((t-1)/2)/(1!2!...(t-1)!) * prod_{i<j}(v_i - v_j) over integer
    vectors (v_0..v_{t-1}) with v_i = i mod t and sum zero, the exponent of x
    being sum(v^2)/(2t) - (t^2-1)/24: the V-codings of the t-cores, each at
    its core's weight.  The coding search _v_codings hands each vector of
    a weight to diff_product, whose int sum takes the sign and one exact
    division by 1!2!...(t-1)!; no vector is kept, checked or decoded.
    """
    _require_coding_t(t)
    _require_size(order, "order")
    sign, scale = (-1) ** ((t - 1) // 2), superfactorial(t - 1)
    out = []
    for n in range(order + 1):
        c, r = divmod(sign * sum(_v_codings(n, t, diff_product)), scale)
        _invariant(r == 0, "eta-power coefficients must be integers")
        out.append(c)
    return Series(out)


# ---------------------------------------------------------------------------
# principal specializations of Schur functions

def geometric_divide(arr, h):
    """In place: multiply the coefficient array by 1/(1 - x^h)."""
    for i in range(h, len(arr)):
        arr[i] += arr[i - h]


def schur_principal_x(parts, order):
    """s_lambda(x, x^2, x^3, ...) truncated: x^(|. | + b) / prod (1 - x^h),
    a series with int coefficients."""
    _require_size(order, "order")
    shift = sum(parts) + b_stat_of(parts)
    arr = [0] * (order + 1)
    if shift <= order:
        arr[shift] = 1
        for h in hooks_of(parts):
            geometric_divide(arr, h)
    return Series(arr)


def schur_principal_ones(parts, d):
    """s_lambda(1, ..., 1) with d ones: prod (d + content) / hook."""
    num = 1
    den = 1
    for c in contents_of(parts):
        num *= d + c
    for h in hooks_of(parts):
        den *= h
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# reversion of x * prod (1 - x^m)

def revert_euler(order, method="lagrange"):
    """Compositional inverse y(x) of x = y * prod_{m>=1} (1 - y^m).

    method="lagrange" is Lagrange inversion through the power recurrence:
      [x^n] y = (1/n) * [x^(n-1)] prod(1 - x^m)^(-n), read off
    euler_power_recurrence(-n, n - 1); it enumerates no partition.
    method="iterate" solves the fixed point y = x / prod(1 - y^m) by
    successive substitution over int coefficients, one extra correct order
    per round (round r works only to order r, the first order it can fix),
    and then checks the fixed point at the full order.  Both return
    Fraction coefficients.
    """
    _require_size(order, "order")
    if method == "lagrange":
        coeffs = [_ZERO]
        for n in range(1, order + 1):
            c = euler_power_recurrence(-n, n - 1)[n - 1] / n
            _invariant(c.denominator == 1,
                       "reversion coefficient of x^%d is not an integer", n)
            coeffs.append(c)
        return Series(coeffs)
    if method != "iterate":
        raise ValueError("method must be 'lagrange' or 'iterate'")
    # the coefficients are integers, so the iteration runs on ints
    pgf = Series([int(c) for c in partition_gf(order).coeffs])
    y = Series([0, 1][: order + 1])  # right through x^1
    for r in range(2, order + 1):
        # y is right through x^(r-1), which fixes x * P(y) through x^r
        y = pgf.truncate(r - 1).compose(y).shift(1)
    _invariant(pgf.compose(y).shift(1).truncate(order) == y,
               "iteration did not settle")
    return y.map(Fraction)
