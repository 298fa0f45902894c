from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hookexp.exactnum import BetaPoly
from hookexp.partition import (
    _pentagonal_terms,
    hook_beta_sum,
    hook_beta_sum_poly,
    partition_count,
    partition_tuples,
)
from hookexp.series import (
    Series,
    divisor_power_gf,
    eta8_double_sum,
    euler_power,
    euler_power_formal,
    euler_power_recurrence,
    euler_product_direct,
    jacobi_cube_series,
    log_euler_sum,
    macdonald_eta_power,
    partition_gf,
    pentagonal_series,
    revert_euler,
    schur_principal_ones,
    schur_principal_x,
)

N = 16


def frac_series(order):
    return st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        min_size=order + 1, max_size=order + 1).map(Series)


def test_series_basics():
    s = Series([Fraction(1), Fraction(2), Fraction(3)])
    assert s.order == 2
    assert s[1] == 2
    assert s.shift(2).coeffs[:3] == [0, 0, 1]
    assert s.truncate(1) == Series([Fraction(1), Fraction(2)])
    assert (s - s) == Series.zero(2)
    assert s * 2 == s + s
    for n in range(4):
        for t in (Series.zero(n), Series.x(n)):
            assert all(type(c) is Fraction for c in t.coeffs)


def test_powers_and_scalar_products():
    s = Series([Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5)])
    assert s ** 3 == s * s * s
    assert s ** 0 == Series([Fraction(1)] + [Fraction(0)] * 3)
    for k in (3, Fraction(-2, 7), BetaPoly([1, -1])):
        assert k * s == s * k
    for bad in (-1, 2.0):
        with pytest.raises(
                ValueError,
                match="^series powers must be non-negative integers$"):
            s ** bad


def test_inverse_of_the_euler_product_is_the_partition_series():
    p = pentagonal_series(N).inverse()
    for n in range(N + 1):
        assert p[n] == partition_count(n)
    assert p == partition_gf(N)


def test_exp_log_roundtrip():
    lg = log_euler_sum(N)
    assert lg.exp().log() == lg
    assert partition_gf(N).log().exp() == partition_gf(N)


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError, match="^constant term must be invertible$"):
        Series([Fraction(0), Fraction(1)]).inverse()
    with pytest.raises(ValueError, match="^constant term must be invertible$"):
        Series([BetaPoly(), BetaPoly.beta()]).inverse()
    with pytest.raises(ValueError, match="int or Fraction coefficients"):
        Series([BetaPoly.constant(1), BetaPoly.beta()]).inverse()
    with pytest.raises(ValueError):
        Series([Fraction(1), Fraction(1)]).exp()


@settings(max_examples=40)
@given(frac_series(6), frac_series(6))
def test_multiplication_commutes_and_distributes(a, b):
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a


@settings(max_examples=25)
@given(frac_series(6))
def test_inverse_roundtrip(a):
    coeffs = list(a.coeffs)
    coeffs[0] = Fraction(1)
    a = Series(coeffs)
    assert (a * a.inverse()).coeffs == [1] + [0] * 6


# The plain Fraction loops that mul, exp and inverse run on ints where they
# can: the oracles of the differential tests below.

def _mul_loop(a, b):
    n = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def _exp_loop(f):
    out = [Fraction(1)]
    for n in range(1, len(f)):
        out.append(sum((k * f[k] * out[n - k] for k in range(1, n + 1)),
                       Fraction(0)) / n)
    return out


def _inverse_loop(c):
    out = [1 / Fraction(c[0])]
    for n in range(1, len(c)):
        out.append(-sum((c[k] * out[n - k] for k in range(1, n + 1)),
                        Fraction(0)) * out[0])
    return out


def _recurrence_loop(s, order):
    # ints up to the first inexact division, Fractions from there on
    s = Fraction(s)
    p, q = s.numerator, s.denominator
    terms = _pentagonal_terms(order)
    a = [1]
    for n in range(1, order + 1):
        acc = 0
        for k, fk in terms:
            if k > n:
                break
            acc += ((p + q) * k - q * n) * fk * a[n - k]
        den = q * n
        if isinstance(acc, int):
            c, r = divmod(acc, den)
            if r:
                c = Fraction(acc, den)
        else:
            c = acc / den
        a.append(c)
    return [Fraction(c) for c in a]


int_coeffs = st.integers(-30, 30)
rational_coeffs = st.one_of(int_coeffs, st.fractions(
    min_value=-9, max_value=9, max_denominator=12))
coeff_lists = st.one_of(st.lists(int_coeffs, min_size=1, max_size=12),
                        st.lists(rational_coeffs, min_size=1, max_size=12))


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists)
def test_products_match_the_fraction_loop(a, b):
    got = (Series(a) * Series(b)).coeffs
    assert got == _mul_loop(a, b)
    n = len(got)  # the product reads only the terms through its order
    if all(type(c) is int for c in a[:n] + b[:n]):
        assert {type(c) for c in got} == {int}  # an int product stays int
    else:
        assert {type(c) for c in got} == {Fraction}


@settings(max_examples=60, deadline=None)
@given(st.lists(int_coeffs, max_size=14),
       st.lists(rational_coeffs, max_size=14))
def test_exp_matches_the_fraction_loop(ks, fs):
    # k f_k = a_k: the int lane, up to its first inexact division; an int
    # series; and rationals, which mostly skip it
    for f in ([Fraction(0)] + [Fraction(a, k) for k, a in enumerate(ks, 1)],
              [0] + ks, [Fraction(0)] + fs):
        got = Series(f).exp().coeffs
        assert got == _exp_loop(f)
        assert all(type(c) is Fraction for c in got)
    # log of an int or Fraction series lies in the field of fractions too
    for f in ([1] + ks, [Fraction(1)] + fs):
        got = Series(f).log().coeffs
        assert got == _skip_zero_log(f)
        assert all(type(c) is Fraction for c in got)


def test_exp_leaves_the_int_lane_at_its_first_inexact_division():
    # exp(x^3) = sum x^(3m) / m!: integral through x^5, 1/2 at x^6
    got = Series([Fraction(0)] * 3 + [Fraction(1)] + [Fraction(0)] * 14).exp()
    assert got.coeffs == [Fraction(1, factorial(n // 3)) if n % 3 == 0 else 0
                          for n in range(18)]
    # s = 7/2: k f_k = -7 sigma(k) / 2 is not integral at k = 1
    f = [-Fraction(7, 2) * c for c in log_euler_sum(30).coeffs]
    assert euler_power(Fraction(7, 2), 30).coeffs == _exp_loop(f)
    assert euler_power(Fraction(7, 2), 30) == euler_power_recurrence(
        Fraction(7, 2), 30)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, -1, 2, Fraction(-3, 2)]),
       st.lists(int_coeffs, max_size=12),
       st.lists(rational_coeffs, max_size=12))
def test_inverse_matches_the_fraction_loop(c0, ks, fs):
    # every int or Fraction series, over a unit or not, takes the one int
    # lane; the Fraction loop is its oracle
    for c in ([c0] + ks, [c0] + fs):
        got = Series(c).inverse().coeffs
        assert got == _inverse_loop(c)
        assert all(type(x) is Fraction for x in got)


def test_int_lanes_hold_at_order_200():
    lg, p = log_euler_sum(200), partition_gf(200)
    assert p.coeffs == [partition_count(n) for n in range(201)]
    assert euler_power(3, 200) == euler_product_direct(3, 200)
    assert (lg * p).coeffs == _mul_loop(lg.coeffs, p.coeffs)


def test_betapoly_series_take_the_generic_loops():
    beta = BetaPoly.beta()
    a = Series([BetaPoly([1, 2]), beta, Fraction(1, 3), BetaPoly([0, 0, -1])])
    b = Series([Fraction(2), BetaPoly([1, 1]), 3, beta])
    f = Series([BetaPoly(), beta, BetaPoly([Fraction(1, 2), -1]), 5, 0])
    prod, ex = a * b, f.exp()
    assert all(type(c) is BetaPoly for c in prod.coeffs + ex.coeffs)
    for x in (Fraction(0), Fraction(7, 2), Fraction(-3)):
        def at(s):
            return [c.eval(x) if isinstance(c, BetaPoly) else c
                    for c in s.coeffs]
        assert at(prod) == _mul_loop(at(a), at(b))
        assert at(ex) == _exp_loop(at(f))


# The loops that Series.__mul__, exp and log ran on coefficients of any type
# before each became one sum of products, each skipping every zero factor:
# the oracles of the test below, over series that mix all three types.

def _skip_zero_mul(a, b):
    n = min(len(a), len(b)) - 1
    out = [a[0] * 0] * (n + 1)
    for i, ca in enumerate(a[: n + 1]):
        if not ca:
            continue
        for j in range(n + 1 - i):
            cb = b[j]
            if cb:
                out[i + j] += ca * cb
    return out


def _skip_zero_exp(f):
    one = f[0] ** 0
    out = [one]
    for n in range(1, len(f)):
        acc = one * 0
        for k in range(1, n + 1):
            gk = k * f[k]
            if gk:
                acc += gk * out[n - k]
        out.append(acc * Fraction(1, n))
    return out


def _skip_zero_log(f):
    zero = f[0] ** 0 * 0
    out = [zero] * len(f)
    for n in range(1, len(f)):
        acc = zero
        for k in range(1, n):
            fk = out[k]
            if fk:
                acc += (k * fk) * f[n - k]
        out[n] = f[n] - acc * Fraction(1, n)
    return out


mixed_coeffs = st.one_of(
    rational_coeffs, st.sampled_from([0, Fraction(0), BetaPoly()]),
    st.lists(rational_coeffs, max_size=3).map(BetaPoly))
mixed_tails = st.lists(mixed_coeffs, max_size=7)


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_coeffs, min_size=1, max_size=8),
       st.lists(mixed_coeffs, min_size=1, max_size=8),
       st.sampled_from([0, Fraction(0), BetaPoly()]), mixed_tails,
       st.sampled_from([1, Fraction(1), BetaPoly.constant(1)]), mixed_tails)
def test_mixed_series_match_the_skip_zero_loops(a, b, z, f, one, g):
    assert (Series(a) * Series(b)).coeffs == _skip_zero_mul(a, b)
    assert Series([z] + f).exp().coeffs == _skip_zero_exp([z] + f)
    assert Series([one] + g).log().coeffs == _skip_zero_log([one] + g)


def test_reversion_by_iteration_runs_on_ints(monkeypatch):
    kinds = set()
    compose = Series.compose

    def recorded(self, inner):
        out = compose(self, inner)
        kinds.update(map(type, self.coeffs + inner.coeffs + out.coeffs))
        return out
    monkeypatch.setattr(Series, "compose", recorded)
    y = revert_euler(30, method="iterate")
    assert kinds == {int}
    assert y == revert_euler(30, method="lagrange")


def _divisor_sum(n, alpha):
    total = Fraction(0)
    for d in range(1, n + 1):
        if n % d == 0:
            total += Fraction(d) ** alpha if alpha >= 0 else Fraction(1, d ** -alpha)
    return total


def test_divisor_power_gf_matches_brute_force():
    for alpha in (-3, -1, 0, 1, 2, 3):
        ser = divisor_power_gf(alpha, N)
        assert ser[0] == 0
        for n in range(1, N + 1):
            assert ser[n] == _divisor_sum(n, alpha)


def test_log_euler_sum_is_weighted_divisor_series():
    # sum_k x^k / (k (1 - x^k)) has coefficient sigma_{-1}(n)
    lg = log_euler_sum(N)
    for n in range(1, N + 1):
        assert lg[n] == _divisor_sum(n, -1)


def test_euler_power_is_multiplicative_in_the_exponent():
    a = euler_power(Fraction(3, 2), N)
    b = euler_power(Fraction(1, 2), N)
    c = euler_power(2, N)
    assert a * b == c


def test_euler_power_matches_direct_product_for_integers():
    for s in (-2, -1, 0, 1, 2, 3, 8, 24):
        assert euler_power(s, N) == euler_product_direct(s, N)
        assert euler_power_recurrence(s, N) == euler_product_direct(s, N)


def test_sparse_classical_series():
    assert pentagonal_series(N) == euler_power(1, N)
    assert jacobi_cube_series(N) == euler_power(3, N)
    assert eta8_double_sum(N) == euler_power(8, N)


def test_pentagonal_terms_and_sparse_series_match_the_direct_product():
    # the explicit factors are the one route that shares no pentagonal list
    direct = euler_product_direct(1, 500).coeffs
    assert _pentagonal_terms(500) == [(e, c) for e, c in enumerate(direct)
                                      if e and c]
    inverse = euler_product_direct(-1, 400)
    assert [partition_count(n) for n in range(401)] == inverse.coeffs
    for s, sparse in ((1, pentagonal_series), (3, jacobi_cube_series),
                      (8, eta8_double_sum)):
        assert sparse(200) == euler_product_direct(s, 200), s


def test_direct_product_with_a_step_spreads_the_plain_one():
    plain = euler_product_direct(-2, 13)
    spread = [0] * 41
    spread[::3] = plain.coeffs
    assert euler_product_direct(-2, 40, step=3).coeffs == spread


def test_pentagonal_prefix():
    assert pentagonal_series(12).coeffs == [
        1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_macdonald_lattice_sum():
    for t in (3, 5, 7, 9):
        assert macdonald_eta_power(t, 12) == euler_power(t * t - 1, 12)


def test_macdonald_needs_an_odd_t_of_at_least_3():
    for t in (1, 2, 4):
        with pytest.raises(ValueError, match="odd t >= 3"):
            macdonald_eta_power(t, 5)


def test_macdonald_reads_the_coding_search_at_every_degree(monkeypatch):
    import hookexp.series as series_mod
    real = series_mod._v_codings
    calls = []

    def counting(n, t, read):
        calls.append((n, t))
        return real(n, t, read)
    monkeypatch.setattr(series_mod, "_v_codings", counting)
    assert macdonald_eta_power(5, 8) == euler_power(24, 8)
    assert calls == [(n, 5) for n in range(9)]


def test_formal_euler_power_evaluates_to_numeric_ones():
    f = euler_power_formal(10)
    for beta in (Fraction(2), Fraction(25), Fraction(-1), Fraction(7, 3)):
        num = euler_power(beta - 1, 10)
        for n in range(11):
            assert f[n].eval(beta) == num[n]


def test_formal_euler_power_matches_hook_sums():
    # coefficient-exact comparison against the partition route
    f = euler_power_formal(10)
    assert all(type(c) is BetaPoly for c in f.coeffs)
    for n in range(11):
        assert f[n] == hook_beta_sum_poly(n)


small_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)


def test_exp_log_power_at_a_formal_exponent_is_the_formal_series():
    # exp/log at s = beta against the recurrence at beta - 1, moved by one
    formal = euler_power(BetaPoly.beta(), 12)
    assert all(type(c) is BetaPoly for c in formal.coeffs)
    assert formal == euler_power_formal(12).map(lambda c: c.subst_linear(1, 1))


@settings(max_examples=25, deadline=None)
@given(small_rationals)
def test_exp_log_power_at_a_formal_exponent_evaluates_to_numeric_ones(s):
    formal = euler_power(BetaPoly.beta(), 10)
    assert [c.eval(s) for c in formal.coeffs] == euler_power(s, 10).coeffs


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-12, max_value=12, max_denominator=12),
       st.integers(min_value=0, max_value=40))
def test_power_recurrence_matches_exp_log(s, order):
    rec = euler_power_recurrence(s, order)
    assert rec == euler_power(s, order)
    assert rec.coeffs == _recurrence_loop(s, order)
    assert all(type(c) is Fraction for c in rec.coeffs)
    # B_n = q^(2n) a_n, which the recurrence runs on, is an integer
    q = s.denominator
    assert all((c * q ** (2 * n)).denominator == 1
               for n, c in enumerate(rec.coeffs))


@pytest.mark.parametrize("p", [1, 25, 49])
def test_power_recurrence_matches_the_fraction_loop_at_half_exponents(p):
    s = Fraction(p, 2)
    assert euler_power_recurrence(s, 300).coeffs == _recurrence_loop(s, 300)


@pytest.mark.parametrize("s, n", [(1, 1), (Fraction(1, 2), 2)])
def test_power_recurrence_refuses_an_inexact_division(monkeypatch, s, n):
    # an int series with constant term 1 keeps every division exact, so
    # only a non-integral term can trip the check
    import hookexp.series as series_mod
    monkeypatch.setattr(series_mod, "_pentagonal_terms",
                        lambda order: [(1, Fraction(-1, 2))])
    with pytest.raises(ArithmeticError, match=r"at x\^%d$" % n):
        euler_power_recurrence(s, 3)


@settings(max_examples=25, deadline=None)
@given(small_rationals)
def test_formal_power_recurrence_evaluates_to_exp_log(beta):
    f = euler_power_formal(12)
    num = euler_power(beta - 1, 12)
    for n in range(13):
        assert f[n].eval(beta) == num[n]


def test_integer_iteration_matches_lagrange_to_order_20():
    for order in range(21):
        a = revert_euler(order, method="lagrange")
        b = revert_euler(order, method="iterate")
        assert a == b
        assert all(type(c) is Fraction for c in b.coeffs)


def test_revert_euler_refuses_a_negative_order():
    for method in ("lagrange", "iterate"):
        with pytest.raises(ValueError, match="order must be >= 0"):
            revert_euler(-1, method=method)


NEGATIVE_ORDER = {
    "euler_power_recurrence": lambda: euler_power_recurrence(2, -1),
    "euler_power_formal": lambda: euler_power_formal(-1),
    "euler_power": lambda: euler_power(2, -1),
    "euler_power beta": lambda: euler_power(BetaPoly.beta(), -1),
    "partition_gf": lambda: partition_gf(-1),
    "pentagonal_series": lambda: pentagonal_series(-1),
    "divisor_power_gf": lambda: divisor_power_gf(1, -1),
    "log_euler_sum": lambda: log_euler_sum(-1),
    "macdonald_eta_power": lambda: macdonald_eta_power(3, -1),
    "schur_principal_x": lambda: schur_principal_x((2, 1), -1),
    "jacobi_cube_series": lambda: jacobi_cube_series(-1),
    "eta8_double_sum": lambda: eta8_double_sum(-1),
    "euler_product_direct": lambda: euler_product_direct(2, -1),
    "Series.zero": lambda: Series.zero(-1),
    "Series.x": lambda: Series.x(-1),
}


INEXACT_EXPONENT = {
    "euler_power_recurrence": (lambda s: euler_power_recurrence(s, 3),
                               "s must be an int or a Fraction, got %r"),
    "euler_power": (lambda s: euler_power(s, 3),
                    "s must be an int or a Fraction, got %r"),
    "divisor_power_gf": (lambda alpha: divisor_power_gf(alpha, 3),
                         "alpha must be an integer, got %r"),
    "euler_product_direct": (lambda s: euler_product_direct(s, 3),
                             "s must be an integer, got %r"),
}


@pytest.mark.parametrize("name", sorted(INEXACT_EXPONENT))
def test_every_exponent_refuses_a_float_or_a_bool(name):
    fn, message = INEXACT_EXPONENT[name]
    for bad in (0.1, 0.5, 2.0, True, False):
        with pytest.raises(ValueError) as err:
            fn(bad)
        assert str(err.value) == message.replace("%r", repr(bad))
    assert fn(2).order == 3  # an int still goes through


def test_divisor_power_gf_refuses_a_fraction_alpha():
    with pytest.raises(ValueError, match=r"^alpha must be an integer, "
                                         r"got Fraction\(1, 2\)$"):
        divisor_power_gf(Fraction(1, 2), 3)


@pytest.mark.parametrize("name", sorted(NEGATIVE_ORDER))
def test_every_series_refuses_a_negative_order_as_reversion_does(name):
    with pytest.raises(ValueError) as want:
        revert_euler(-1)
    with pytest.raises(ValueError) as got:
        NEGATIVE_ORDER[name]()
    assert str(got.value) == str(want.value) == "order must be >= 0"


def test_an_empty_series_keeps_its_own_message():
    with pytest.raises(ValueError, match="a series needs at least the "
                                         "constant term"):
        Series([])


def test_lagrange_integrality_check_raises(monkeypatch):
    import hookexp.series as series_mod
    monkeypatch.setattr(series_mod, "hook_beta_sums_poly",
                        lambda N: [BetaPoly.constant(Fraction(1, 2))] * (N + 1))
    with pytest.raises(ArithmeticError):
        revert_euler(3, method="lagrange")


def test_compose_and_shift():
    # compose the partition series with 2x: p(n) 2^n
    p = partition_gf(8)
    inner = Series([Fraction(0), Fraction(2)] + [Fraction(0)] * 7)
    comp = p.compose(inner)
    for n in range(9):
        assert comp[n] == partition_count(n) * 2 ** n


def test_revert_euler_routes_agree():
    a = revert_euler(14, method="lagrange")
    b = revert_euler(14, method="iterate")
    assert a == b
    assert a.coeffs[:8] == [0, 1, 1, 3, 10, 38, 153, 646]


def test_revert_euler_substitution():
    y = revert_euler(14)
    sub = pentagonal_series(14).compose(y) * y
    assert sub == Series.x(14)
    # and the reverse composition: y(x prod(1-x^m)) = x
    inner = pentagonal_series(14).shift(1).truncate(14)
    assert y.compose(inner) == Series.x(14)


def _geom(h, order):
    # 1 / (1 - x^h)
    return Series([Fraction(1 if n % h == 0 else 0) for n in range(order + 1)])


def test_schur_principal_x_hook_content_examples():
    # s_(2)(x, x^2, ...) = x^2 / ((1-x)(1-x^2))
    assert schur_principal_x((2,), 10) == \
        (_geom(1, 10) * _geom(2, 10)).shift(2).truncate(10)
    # s_(2,1): weight 3, b = 1, hooks 3,1,1
    assert schur_principal_x((2, 1), 10) == \
        (_geom(3, 10) * _geom(1, 10) * _geom(1, 10)).shift(4).truncate(10)


def test_schur_principal_ones_counts_ssyt():
    # s_(2)(1,1) counts multisets {a<=b} from {1,2}: 3
    assert schur_principal_ones((2,), 2) == 3
    # s_(1,1)(1,1) counts strict pairs: 1
    assert schur_principal_ones((1, 1), 2) == 1
    assert schur_principal_ones((3, 1), 2) == 3
    # d smaller than the number of rows forces zero
    assert schur_principal_ones((2, 1, 1), 2) == 0


def test_schur_specialization_limit():
    # substituting x -> 1 in x^(|.|+b) / prod (1-x^h) diverges, but the
    # finite-variable count matches the content/hook ratio formula
    for parts in partition_tuples(4):
        for d in (1, 2, 3, 4):
            val = schur_principal_ones(parts, d)
            num = 1
            den = 1
            from hookexp.partition import contents_of, hooks_of
            for c in contents_of(parts):
                num *= d + c
            for h in hooks_of(parts):
                den *= h
            assert val == Fraction(num, den)


def test_tau_prefix():
    tau = euler_power(24, 9)
    assert tau.coeffs == [1, -24, 252, -1472, 4830, -6048, -16744, 84480,
                          -113643, -115920]


def test_hook_sum_at_zero_counts_partitions():
    # every product is 1 at beta = 0, so the sum is p(n)
    for n in range(10):
        assert hook_beta_sum(n, 0) == partition_count(n)
