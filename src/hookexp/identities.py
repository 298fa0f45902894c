"""Registry of machine-verifiable identities.

Every entry computes both sides of one identity by independent routes
(different algorithms, usually different modules) and compares them
exactly — no floats, no tolerances.  A failed comparison reports the
smallest graded location where the sides differ, with both values
serialized exactly.

A check returns (checked_range, rows): rows is a lazy iterable of
(location, lhs, rhs) triples in graded order, and one scan
(_first_mismatch, run by the registry entry inside verify()'s timed
section) reports the first row whose sides differ.  An rhs that is a
literal string ("integer", "> 0", "a t-core") names a property that lhs
lacks, so a check yields such a row only where the property fails.  Rows
are produced on demand, so the scan stops at the first mismatch and
nothing past it is computed.

verify() runs one entry; verify_all() runs the whole registry at default
(or budget-clamped) parameters, optionally across worker processes
(HOOKEXP_WORKERS), and orders the aggregate report by id.
"""

import json
import time
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import factorial, isqrt, prod
from types import SimpleNamespace

from .exactnum import (
    BetaPoly,
    UsageError,
    _env_int,
    _require_int,
    _require_ints,
    diff_product,
    roots_poly,
    serialize_scalar,
)
from .partition import (
    b_stat_of,
    contents_of,
    hook_beta_poly_of,
    hook_beta_sum_poly,  # perfbench/selftest.py wraps it in this module
    hook_beta_sums,
    hook_beta_sums_poly,
    hook_eval_product,
    hook_multiset_all,
    hook_power_moments,
    hook_power_moments2,
    hook_type_census,
    hooks_of,
    part_occurrence_census,
    partition_count,
    partition_tuples,
    parts_multiset_duplicated,
    staircase,
    syt_count_of,
)
from .series import (
    Series,
    divisor_power_gf,
    eta8_double_sum,
    euler_power,
    euler_power_formal,
    euler_power_recurrence,
    euler_product_direct,
    geometric_divide,
    jacobi_cube_series,
    log_euler_sum,
    macdonald_eta_power,
    partition_gf,
    pentagonal_series,
    revert_euler,
    schur_principal_ones,
    schur_principal_x,
)
from .tcore import (
    _h_elements,
    _n_of,
    _require_coding_t,
    _u_of,
    _v_of,
    core_product_from_v,
    core_weight_from_n,
    core_weight_from_v,
    is_t_core,
    t_cores_upto,
)


class VerificationReport(namedtuple("VerificationReport", (
        "id", "params", "status", "checked_range", "first_mismatch",
        "elapsed_ms"))):
    """The outcome of one registry entry: status "pass" or "fail", the range
    checked, the first mismatch (or None) and the wall time of the check."""

    __slots__ = ()

    @property
    def ok(self):
        return self.status == "pass"

    def to_dict(self):
        d = self._asdict()
        d["params"] = {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in self.params.items()}
        return d

    def to_json(self):
        return json.dumps(self.to_dict())


REGISTRY = {}


def _register(cid, description, defaults, minimal):
    """Register check(**params) -> (checked_range, rows); the keys of
    `minimal` are its range parameters, each with its smallest valid value.

    The entry's fn returns (checked_range, first_mismatch): it scans the
    rows itself, so that a wrapper around fn (perfbench's per-check trace
    spans) times the comparison along with the check.
    """
    def deco(check):
        def fn(**params):
            rng, rows = check(**params)
            return rng, _first_mismatch(rows)
        REGISTRY[cid] = SimpleNamespace(
            id=cid, description=description, defaults=defaults,
            minimal=minimal, fn=fn)
        return check
    return deco


def _mm(location, lhs, rhs):
    """first_mismatch payload; values may be scalars or literal strings."""
    def ser(x):
        return x if isinstance(x, str) else serialize_scalar(x)
    return {"location": location, "lhs": ser(lhs), "rhs": ser(rhs)}


def _first_mismatch(rows):
    """_mm of the first row whose sides differ, or None; a literal-string
    rhs names a property lhs lacks, so such a row always differs."""
    return next((_mm(where, lhs, rhs) for where, lhs, rhs in rows
                 if isinstance(rhs, str) or lhs != rhs), None)


def _coefficients(where, lhs, rhs):
    """Rows (where % n, lhs[n], rhs[n]) over the longer of two coefficient
    sequences (series or lists): a short side raises IndexError instead of
    leaving degrees unchecked."""
    lhs, rhs = list(lhs), list(rhs)
    for n in range(max(len(lhs), len(rhs))):
        yield where % n, lhs[n], rhs[n]


def _by_degree(*routes):
    """Interleave the rows of several routes degree by degree."""
    return chain.from_iterable(zip(*routes))


# ---------------------------------------------------------------------------
# the checks


@_register("main-identity",
           "hook-length expansion of an arbitrary formal power of the Euler product",
           {"N": 30}, {"N": 0})
def _check_main_identity(N):
    return ("x^0..x^%d, symbolic beta" % N,
            _coefficients("x^%d", euler_power_formal(N), hook_beta_sums_poly(N)))


@_register("theorem-2-1",
           "doubly-indexed refinement: direct products (1-x^{am})^b vs hook sums",
           {"K": 4, "N": 8}, {"K": 1, "N": 0})
def _check_theorem_2_1(K, N):
    hsums = [hook_beta_sums(N, b + 1) for b in range(K + 1)]

    def spread(b, a):  # the hook sums of b placed at every a-th degree
        arr = [0] * (N + 1)
        arr[::a] = hsums[b][:N // a + 1]
        return arr
    return ("1<=X-deg<=%d, 0<=Y-deg<=%d, x^0..x^%d" % (K, K, N),
            (row for a in range(1, K + 1) for b in range(K + 1)
             for row in _coefficients("X^%d Y^%d x^%%d" % (a, b),
                                      euler_product_direct(b, N, step=a),
                                      spread(b, a))))


def _partition_poly_sum(m):
    """sum over the partitions of m of prod(1 - beta/h^2), one
    hook_beta_poly_of per partition: the sum the sweep packs, not read
    from it."""
    return sum(map(hook_beta_poly_of, partition_tuples(m)), BetaPoly())


@_register("corollary-2-3",
           "n! times the degree-n hook polynomial has integer coefficients",
           {"n": 10}, {"n": 0})
def _check_corollary_2_3(n):
    return "n=0..%d" % n, (
        ("n=%d beta^%d" % (m, i), c, "integer")
        for m in range(n + 1)
        for i, c in enumerate((_partition_poly_sum(m) * factorial(m)).coeffs)
        if c.denominator != 1)


@_register("corollary-2-4",
           "hook sums at positive integer beta are integers",
           {"n": 15, "k": 10}, {"n": 0, "k": 1})
def _check_corollary_2_4(n, k):
    sums = [hook_beta_sums(n, kk) for kk in range(1, k + 1)]
    return "n=0..%d, k=1..%d" % (n, k), (
        ("n=%d k=%d" % (m, kk), s[m], "integer")
        for m in range(n + 1) for kk, s in enumerate(sums, 1)
        if s[m].denominator != 1)


@_register("corollary-2-6",
           "convolution powers of the partition series vs hook sums at beta=-k",
           {"n": 10, "k": 3}, {"n": 0, "k": 0})
def _check_corollary_2_6(n, k):
    pgf = Series([partition_count(i) for i in range(n + 1)])

    def rows():
        conv = Series([1] + [0] * n)  # (partition gf)^0
        for kk in range(k + 1):
            conv = conv * pgf
            yield from _coefficients("k=%d x^%%d" % kk, conv,
                                     hook_beta_sums(n, -kk))
    return "n=0..%d, k=0..%d" % (n, k), rows()


@_register("rsk-square-sum",
           "sum of squared standard-tableau counts equals n!",
           {"n": 10}, {"n": 0})
def _check_rsk_square_sum(n):
    return "n=0..%d" % n, (
        ("n=%d" % m, sum(syt_count_of(parts) ** 2 for parts in partition_tuples(m)),
         factorial(m))
        for m in range(n + 1))


@_register("pp-identity",
           "ordered pairs of partitions vs hook sums at beta=-1",
           {"n": 12}, {"n": 0})
def _check_pp_identity(n):
    return "n=0..%d" % n, (
        ("x^%d" % m, sum(len(partition_tuples(a)) * len(partition_tuples(m - a))
                         for a in range(m + 1)), rhs)
        for m, rhs in enumerate(hook_beta_sums(n, -1)))


@_register("pentagonal-beta2",
           "hook sums at beta=2 vs the pentagonal-number series",
           {"N": 30}, {"N": 0})
def _check_pentagonal_beta2(N):
    return "x^0..x^%d" % N, _coefficients("x^%d", hook_beta_sums(N, 2),
                                          pentagonal_series(N))


@_register("tau-5core",
           "discriminant coefficients via 5-core hook products at beta=25",
           {"N": 20}, {"N": 1})
def _check_tau_5core(N):
    E = euler_power(24, N - 1)
    return "n=1..%d" % N, (
        ("n=%d" % (m + 1), E[m], sum(hook_eval_product(c, 25) for c in cores))
        for m, cores in enumerate(t_cores_upto(N - 1, 5)))


@_register("jacobi-beta4",
           "cube of the Euler product: hook sums at beta=4, odd-square series, "
           "exp route, and staircase products",
           {"N": 30}, {"N": 0})
def _check_jacobi_beta4(N):
    jac = jacobi_cube_series(N)
    staircases = (("staircase m=%d" % m, hook_eval_product(staircase(m), 4),
                   (-1) ** m * (2 * m + 1))
                  for m in range(1, N + 1) if m * (m + 1) // 2 <= N)
    return ("x^0..x^%d (hook sum / sparse / exp routes), staircases within order" % N,
            chain(_by_degree(
                _coefficients("x^%d (sparse vs exp)", jac, euler_power(3, N)),
                _coefficients("x^%d (hook sum vs sparse)", hook_beta_sums(N, 4), jac)),
                staircases))


@_register("eta8-beta9",
           "eighth power of the Euler product: 3-core hook sums at beta=9, "
           "sparse double sum, and exp route",
           {"N": 20}, {"N": 0})
def _check_eta8_beta9(N):
    dbl = eta8_double_sum(N)
    cores = [sum(hook_eval_product(c, 9) for c in cores)
             for cores in t_cores_upto(N, 3)]
    return ("x^0..x^%d (3-core sum / double sum / exp routes)" % N,
            _by_degree(_coefficients("x^%d (double sum vs exp)", dbl, euler_power(8, N)),
                       _coefficients("x^%d (3-core sum vs double sum)", cores, dbl)))


def _t_cores(t, n, start=0):
    """Yield (t, m, core, label) for every t-core of m = start..n, each t."""
    for tt in t:
        _require_coding_t(tt)
        for m, cores in enumerate(t_cores_upto(n, tt)[start:], start):
            for core in cores:
                yield tt, m, core, "t=%d core=%s" % (tt, ",".join(map(str, core)))


def _u_ratio(u, t):
    """prod over j >= 1 of (u_j + t) / u_j, for the U-coding u of a t-core."""
    return Fraction(prod(uj + t for uj in u[1:]), prod(u[1:]))


def _positive_hook_ratio(elements, t):
    """prod over the positive a in an H-set of 1 - t^2/a^2."""
    pos = [a for a in elements if a > 0]
    return Fraction(prod(a * a - t * t for a in pos), prod(pos) ** 2)


@_register("gks-weight",
           "t-core weight from its region vector",
           {"n": 25, "t": (3, 5, 7)}, {"n": 0})
def _check_gks_weight(n, t):
    return "all t-cores of n=0..%d, t in %s" % (n, list(t)), (
        (at, core_weight_from_n(_n_of(core, tt), tt), m)
        for tt, m, core, at in _t_cores(t, n))


@_register("phi-v-theorem",
           "zero-sum coding: weight and difference-product formulas",
           {"n": 25, "t": (3, 5, 7)}, {"n": 0})
def _check_phi_v_theorem(n, t):
    def rows():
        for tt, m, core, at in _t_cores(t, n):
            v = _v_of(core, tt)
            yield at + " weight", core_weight_from_v(v, tt), m
            yield (at + " product", core_product_from_v(v, tt),
                   hook_eval_product(core, tt * tt))
    return "all t-cores of n=0..%d, t in %s" % (n, list(t)), rows()


@_register("lemma-5-5",
           "positive-hook product via residue-maximal elements",
           {"n": 25, "t": (3, 5, 7)}, {"n": 0})
def _check_lemma_5_5(n, t):
    return "all t-cores of n=0..%d, t in %s" % (n, list(t)), (
        (at, _positive_hook_ratio(_h_elements(core, tt), tt),
         _u_ratio(_u_of(core, tt), tt))
        for tt, m, core, at in _t_cores(t, n))


@_register("lemma-5-6",
           "difference-product ratio under erasure of the first column",
           {"n": 25, "t": (3, 5, 7)}, {"n": 0})
def _check_lemma_5_6(n, t):
    def rows():
        for tt, m, core, at in _t_cores(t, n, start=1):
            erased = tuple(x - 1 for x in core if x > 1)
            if not is_t_core(erased, tt):
                yield at + " erased", ",".join(map(str, erased)), "a t-core"
            u = _u_of(core, tt)
            yield (at, Fraction(diff_product(u), diff_product(_u_of(erased, tt))),
                   _u_ratio(u, tt))
    return "all non-empty t-cores of n=0..%d, t in %s" % (n, list(t)), rows()


@_register("macdonald",
           "eta-power coefficients as a lattice sum over zero-sum vectors",
           {"t": (3, 5), "N": 20}, {"N": 0})
def _check_macdonald(t, N):
    return "t in %s, x^0..x^%d" % (list(t), N), (
        row for tt in t
        for row in _coefficients("t=%d x^%%d" % tt, macdonald_eta_power(tt, N),
                                 euler_power(tt * tt - 1, N)))


@_register("prop-6-1",
           "generating function of reciprocal squared hooks",
           {"N": 25}, {"N": 0})
def _check_prop_6_1(N):
    return "x^0..x^%d" % N, _coefficients(
        "x^%d", hook_power_moments(N, -2),
        partition_gf(N) * log_euler_sum(N))


@_register("thm-6-2",
           "hook power sums transfer to divisor power sums",
           {"N": 25, "alpha": (-1, 0, 1, 2)}, {"N": 0})
def _check_thm_6_2(N, alpha):
    pgf = partition_gf(N)
    return "alpha in %s, x^0..x^%d" % (list(alpha), N), (
        row for a in alpha
        for row in _coefficients("alpha=%d x^%%d" % a,
                                 hook_power_moments(N, a),
                                 pgf * divisor_power_gf(a + 1, N)))


@_register("sebbm",
           "occurrences of part k vs cells of arm j and hook k, all j < k",
           {"n": 12}, {"n": 0})
def _check_sebbm(n):
    def rows():
        for m in range(n + 1):
            parts, cells = part_occurrence_census(m), hook_type_census(m)
            for k in range(1, m + 1):
                for j in range(k):
                    yield ("n=%d part=%d arm=%d" % (m, k, j),
                           cells[j, k - 1 - j], parts[k])
    return "n=0..%d, all parts k, all arms j<k" % n, rows()


@_register("prop-6-4",
           "hook multiset equals the part multiset with duplication",
           {"n": 12}, {"n": 0})
def _check_prop_6_4(n):
    def rows():
        for m in range(n + 1):
            ha, gd = hook_multiset_all(m), parts_multiset_duplicated(m)
            for v in sorted(ha.keys() | gd.keys()):
                yield "n=%d value=%d" % (m, v), ha[v], gd[v]
    return "n=0..%d" % n, rows()


def _prefix_product_sum(N, terms):
    """Coefficients x^0..x^N of sum c x^e / prod_{i<=j} (1 - x^i) over the
    (j, c, e) triples, whose j are consecutive from 0 or 1: one running
    product array, divided by 1 - x^j as each j > 0 arrives."""
    acc = [0] * (N + 1)
    prodarr = [1] + [0] * N
    for j, c, e in terms:
        if j:
            geometric_divide(prodarr, j)
        for i in range(N + 1 - e):
            acc[e + i] += c * prodarr[i]
    return acc


@_register("cor-6-7",
           "total parts = reciprocal-hook sum; divisor convolution and m-sum forms",
           {"N": 25}, {"N": 0})
def _check_cor_6_7(N):
    conv = partition_gf(N) * divisor_power_gf(0, N)
    msum = _prefix_product_sum(N, ((j, j, j) for j in range(1, N + 1)))
    parts = [sum(map(len, partition_tuples(m))) for m in range(N + 1)]
    hooks = hook_power_moments(N, -1)
    return "x^0..x^%d, four routes" % N, _by_degree(
        _coefficients("x^%d (hooks vs parts)", hooks, parts),
        _coefficients("x^%d (divisor convolution)", conv, parts),
        _coefficients("x^%d (m-sum form)", msum, parts))


@_register("prop-6-8",
           "unordered pairs of distinct cells, reciprocal squared hooks",
           {"N": 25}, {"N": 0})
def _check_prop_6_8(N):
    lg = log_euler_sum(N)
    return "x^0..x^%d" % N, _coefficients(
        "x^%d", [(sq - quart) / 2 for sq, quart in
                 zip(hook_power_moments2(N, -2), hook_power_moments(N, -4))],
        partition_gf(N) * lg * lg * Fraction(1, 2))


@_register("thm-6-9",
           "square of the reciprocal-squared-hook sum",
           {"N": 25}, {"N": 0})
def _check_thm_6_9(N):
    lg = log_euler_sum(N)
    return "x^0..x^%d" % N, _coefficients(
        "x^%d", hook_power_moments2(N, -2),
        partition_gf(N) * (divisor_power_gf(-3, N) + lg * lg))


def _moment(poly, m, k):
    """(-1)^(m-k) m!^2 [beta^(m-k)] poly.  On slot m of the hook sums (or of
    euler_power_formal) it is the sum over partitions of m of
    f_lambda^2 e_k(h^2), since f^2/m!^2 is 1/prod h^2."""
    c = poly.coefficient(m - k) * factorial(m) ** 2
    return -c if (m - k) % 2 else c


def _moment_closed_form(n, k, closed):
    """Rows comparing the moments of one sweep, hook_beta_sums_poly(n), with
    the series route and with the closed form closed(m), degree by degree."""
    sweep, series = hook_beta_sums_poly(n), euler_power_formal(n)
    return "n=0..%d" % n, _by_degree(
        (("n=%d (sweep vs series)" % m, _moment(sweep[m], m, k),
          _moment(series[m], m, k)) for m in range(n + 1)),
        (("n=%d" % m, _moment(sweep[m], m, k), closed(m)) for m in range(n + 1)))


@_register("marked-hook",
           "tableau-squared-weighted sum of squared hooks, closed form",
           {"n": 10}, {"n": 0})
def _check_marked_hook(n):
    return _moment_closed_form(
        n, 1, lambda m: m * (3 * m - 1) // 2 * factorial(m))


@_register("prop-6-11",
           "tableau-squared-weighted pairs of squared hooks, closed form",
           {"n": 8}, {"n": 0})
def _check_prop_6_11(n):
    return _moment_closed_form(
        n, 2, lambda m: Fraction(m * (m - 1) * (27 * m * m - 67 * m + 74), 24)
        * factorial(m))


@_register("prop-6-12",
           "tableau-squared-weighted triples of squared hooks, closed form",
           {"n": 8}, {"n": 2})
def _check_prop_6_12(n):
    return _moment_closed_form(
        n, 3, lambda m: Fraction(m * (m - 1) * (m - 2)
                                 * (27 * m ** 3 - 174 * m ** 2 + 511 * m - 600),
                                 48) * factorial(m))


@_register("kostant-poly",
           "coefficient polynomials of the s-th Euler power, three routes",
           {"k": 4}, {"k": 2})
def _check_kostant_poly(k):
    s = BetaPoly.beta()
    closed = {
        2: s * (s - 3) * Fraction(1, 2),
        3: s * (s - 1) * (s - 8) * Fraction(-1, 6),
        4: s * (s - 1) * (s - 3) * (s - 14) * Fraction(1, 24),
    }
    EF = euler_power_formal(k)

    def rows():
        for kk in range(k + 1):
            f_exp = EF[kk].subst_linear(1, 1)  # beta = s + 1
            # partition route: f_k(s) = sum over partitions of k of
            # prod (1 - (s + 1) / h^2)
            f_part = _partition_poly_sum(kk).subst_linear(1, 1)
            yield "k=%d (series vs partition routes)" % kk, f_exp, f_part
            if kk in closed:
                yield "k=%d (closed form)" % kk, f_exp, closed[kk]
    return "k=0..%d, closed forms for k in {2,3,4}" % k, rows()


@_register("kostant-sign",
           "sign of Euler-power coefficients past the square boundary, "
           "with non-negative summand certificates",
           {"k": 8}, {"k": 1})
def _check_kostant_sign(k):
    def rows():
        for kk in range(1, k + 1):
            sign = (-1) ** kk
            for s in (Fraction(kk * kk - 1), Fraction(kk * kk),
                      Fraction(2 * kk * kk + 1, 2), Fraction(2 * kk * kk)):
                at = "k=%d s=%s" % (kk, s)
                ws = [sign * hook_eval_product(parts, s + 1)
                      for parts in partition_tuples(kk)]
                total = sum(ws, Fraction(0))
                yield at + " (routes)", total, sign * euler_power(s, kk)[kk]
                yield (at + " (recurrence)", total,
                       sign * euler_power_recurrence(s, kk)[kk])
                boundary = s == kk * kk - 1
                if boundary and min(ws) < 0:
                    yield at + " certificate", min(ws), ">= 0"
                elif boundary and kk < 4:
                    # below k=4 every summand vanishes on the boundary
                    yield at + " boundary", total, 0
                elif not total > 0:  # a positive total has a positive summand
                    yield at + (" strict" if boundary else " sign"), total, "> 0"
    return ("k=1..%d, s in {k^2-1, k^2, k^2+1/2, 2k^2}; certificate at s=k^2-1" % k,
            rows())


@_register("cauchy-special",
           "principal specialization of the Schur expansion of the d-fold "
           "inverse Euler product",
           {"d": (1, 2, 3), "N": 12}, {"N": 0})
def _check_cauchy_special(d, N):
    def schur_total(dd):
        return sum((schur_principal_x(parts, N) * schur_principal_ones(parts, dd)
                    for m in range(N + 1) for parts in partition_tuples(m)
                    if len(parts) <= dd and m + b_stat_of(parts) <= N),
                   Series.zero(N))
    return "d in %s, x^0..x^%d" % (list(d), N), (
        row for dd in d
        for row in _coefficients("d=%d x^%%d" % dd, schur_total(dd),
                                 euler_power(-dd, N)))


def _content_hook_polys(N, content_shift):
    """Coefficients x^0..x^N, as BetaPolys, of the sum over partitions of
    x^(|.|+b) * prod (content + shift - beta) / (h (1 - x^h)).

    Each term is taken on int coefficients as N!/prod h times
    prod (content + shift - beta), times the int coefficients of
    schur_principal_x, whose zeros are skipped; the sum is divided by N!
    once, at the end.
    """
    fact = factorial(N)
    acc = [[0] * (N + 1) for _ in range(N + 1)]  # acc[k][i]: x^k beta^i
    for parts in (parts for m in range(N + 1) for parts in partition_tuples(m)
                  if m + b_stat_of(parts) <= N):
        poly = roots_poly((c + content_shift for c in contents_of(parts)),
                          fact // prod(hooks_of(parts)))
        for k, a in enumerate(schur_principal_x(parts, N).coeffs):
            if a:
                row = acc[k]
                for i, v in enumerate(poly):
                    row[i] += a * v
    return [BetaPoly([Fraction(v, fact) for v in row]) for row in acc]


@_register("thm-8-3",
           "Schur-type expansion of an arbitrary Euler power, symbolic in beta",
           {"N": 12}, {"N": 0})
def _check_thm_8_3(N):
    return "x^0..x^%d, symbolic beta" % N, _coefficients(
        "x^%d", _content_hook_polys(N, 0), euler_power(BetaPoly.beta(), N))


@_register("euler-cor-8-4",
           "alternating column expansion of the Euler product",
           {"N": 30}, {"N": 0})
def _check_euler_cor_8_4(N):
    pent = pentagonal_series(N)
    # r(r + 1)/2 <= N exactly for the r below (isqrt(8N + 1) + 1) // 2
    acc = _prefix_product_sum(N, ((r, (-1) ** r, r * (r + 1) // 2)
                                  for r in range((isqrt(8 * N + 1) + 1) // 2)))
    return "x^0..x^%d" % N, _by_degree(
        _coefficients("x^%d (column sum vs sparse)", acc, pent),
        _coefficients("x^%d (sparse vs exp)", pent, euler_power(1, N)))


@_register("magic",
           "two hook expansions of the same series, symbolic in beta",
           {"N": 12}, {"N": 0})
def _check_magic(N):
    return "x^0..x^%d, symbolic beta" % N, _coefficients(
        "x^%d", _content_hook_polys(N, 1), hook_beta_sums_poly(N))


def _hook_reversion(n):
    """[x^(m+1)] of the reversion of x prod(1 - x^m), m = 0..n, as the
    paper's hook sums (1/(m+1)) sum over partitions of m of
    prod(1 + m/h^2), from one sweep."""
    return [poly.eval(-m) / (m + 1)
            for m, poly in enumerate(hook_beta_sums_poly(n))]


@_register("reversion",
           "compositional inverse of x times the Euler product",
           {"N": 20}, {"N": 1})
def _check_reversion(N):
    hook = [0] + _hook_reversion(N - 1)
    a = revert_euler(N, method="lagrange")
    b = revert_euler(N, method="iterate")
    prefix = [0, 1, 1, 3, 10, 38, 153, 646]
    return ("x^0..x^%d, recurrence vs fixed-point routes, substitution, "
            "hook sums" % N, chain(
        _coefficients("x^%d (routes)", a, b),
        _coefficients("x^%d (substitution)",
                      pentagonal_series(N).compose(a) * a, Series.x(N)),
        _coefficients("x^%d (hook sum)", hook, a),
        _coefficients("x^%d (known prefix)", a.coeffs[:len(prefix)],
                      prefix[:N + 1])))


@_register("cor-9-2",
           "scaled reversion hook sums are positive integers",
           {"n": 15}, {"n": 0})
def _check_cor_9_2(n):
    return "n=0..%d" % n, (("n=%d" % m, val, "positive integer")
                           for m, val in enumerate(_hook_reversion(n))
                           if val.denominator != 1 or val <= 0)


# ---------------------------------------------------------------------------
# driver

def verify(check_id, params=None):
    """Run one registry entry; returns a VerificationReport.  A parameter
    that is not an int (a tuple parameter: an int or a tuple or list of
    ints; bools are refused), or that would check nothing (below its floor,
    or empty), raises UsageError."""
    try:
        entry = REGISTRY[check_id]
    except KeyError:
        raise UsageError("unknown identity id: %r" % (check_id,)) from None
    merged = dict(entry.defaults)
    for key, value in (params or {}).items():
        if key not in merged:
            raise UsageError("unknown parameter %r for %r" % (key, check_id))
        many = isinstance(merged[key], tuple)
        items = tuple(value) if many and isinstance(value, (tuple, list)) \
            else (value,)
        try:
            _require_ints(items, key)
        except ValueError:
            raise UsageError("parameter %r for %r must be %s, got %r"
                             % (key, check_id, "ints" if many else "an int",
                                value)) from None
        if many:
            if not items:
                raise UsageError("parameter %r for %r must not be empty"
                                 % (key, check_id))
            value = items
        floor = entry.minimal.get(key)
        if floor is not None and value < floor:
            raise UsageError("parameter %r for %r must be at least %d, got %r"
                             % (key, check_id, floor, value))
        merged[key] = value
    start = time.perf_counter()
    rng, mismatch = entry.fn(**merged)
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        id=check_id,
        params=merged,
        status="pass" if mismatch is None else "fail",
        checked_range=rng,
        first_mismatch=mismatch,
        elapsed_ms=round(elapsed, 3),
    )


def budget_params(entry, order_budget):
    """Default parameters, with range-type ones clamped to the budget."""
    params = dict(entry.defaults)
    if order_budget is not None:
        for key, floor in entry.minimal.items():
            params[key] = max(floor, min(params[key], order_budget))
    return params


def verify_all(order_budget=None, workers=None):
    """Run every registry entry; reports ordered by id.

    The worker count comes from the HOOKEXP_WORKERS environment variable
    (default 1) unless given explicitly; results do not depend on it.  An
    order_budget or workers that is not an int (or is a bool), or workers
    below 1, raises UsageError before any check runs.
    """
    if order_budget is not None:
        _require_int(order_budget, "order_budget")
    if workers is None:
        workers = _env_int("HOOKEXP_WORKERS", 1, 1)
    _require_int(workers, "workers", 1)
    tasks = [(cid, budget_params(REGISTRY[cid], order_budget))
             for cid in sorted(REGISTRY)]
    if workers > 1:
        from multiprocessing import Pool
        with Pool(workers) as pool:
            return pool.starmap(verify, tasks)
    return [verify(cid, params) for cid, params in tasks]
