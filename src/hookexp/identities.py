"""Registry of machine-verifiable identities.

Every entry computes both sides of one identity by independent routes
(different algorithms, usually different modules) and compares them
exactly — no floats, no tolerances.  A failed comparison reports the
smallest graded location where the sides differ, with both values
serialized exactly.

verify() runs one entry; verify_all() runs the whole registry at default
(or budget-clamped) parameters, optionally across worker processes
(HOOKEXP_WORKERS), and orders the aggregate report by id.
"""

import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .exactnum import BetaPoly, diff_product, serialize_scalar
from .partition import (
    b_stat_of,
    contents_of,
    hook_beta_poly_of,
    hook_beta_sum_poly,  # unused here; perfbench/selftest.py traces this name
    hook_beta_sums,
    hook_beta_sums_poly,
    hook_eval_product,
    hook_lists,
    hook_multiset_all,
    hook_power_moment,
    hook_power_moment2,
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
    core_product_from_v,
    core_weight_from_n,
    core_weight_from_v,
    enumerate_t_cores,
    h_set,
    is_t_core,
    n_coding,
    u_coding,
    v_coding,
)
WORKERS_ENV = "HOOKEXP_WORKERS"


@dataclass
class VerificationReport:
    id: str
    params: dict
    status: str
    checked_range: str
    first_mismatch: dict
    elapsed_ms: float

    @property
    def ok(self):
        return self.status == "pass"

    def to_dict(self):
        params = {k: (list(v) if isinstance(v, tuple) else v)
                  for k, v in self.params.items()}
        return {
            "id": self.id,
            "params": params,
            "status": self.status,
            "checked_range": self.checked_range,
            "first_mismatch": self.first_mismatch,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self):
        return json.dumps(self.to_dict())


class _Check:
    __slots__ = ("id", "description", "defaults", "minimal", "range_params", "fn")

    def __init__(self, cid, description, defaults, minimal, range_params, fn):
        self.id = cid
        self.description = description
        self.defaults = defaults
        self.minimal = minimal
        self.range_params = range_params
        self.fn = fn


REGISTRY = {}


def _register(cid, description, defaults, minimal=None, range_params=()):
    def deco(fn):
        REGISTRY[cid] = _Check(cid, description, defaults, minimal or {},
                               range_params, fn)
        return fn
    return deco


def _mm(location, lhs, rhs):
    """first_mismatch payload; values may be scalars or literal strings."""
    def ser(x):
        return x if isinstance(x, str) else serialize_scalar(x)
    return {"location": location, "lhs": ser(lhs), "rhs": ser(rhs)}


# ---------------------------------------------------------------------------
# the checks


@_register("main-identity",
           "hook-length expansion of an arbitrary formal power of the Euler product",
           {"N": 30}, {"N": 0}, ("N",))
def _check_main_identity(N):
    rng = "x^0..x^%d, symbolic beta" % N
    lhs = euler_power_formal(N)
    for n, rhs in enumerate(hook_beta_sums_poly(N)):
        if lhs[n] != rhs:
            return False, rng, _mm("x^%d" % n, lhs[n], rhs)
    return True, rng, None


@_register("theorem-2-1",
           "doubly-indexed refinement: direct products (1-x^{am})^b vs hook sums",
           {"K": 4, "N": 8}, {"K": 1, "N": 0}, ("K", "N"))
def _check_theorem_2_1(K, N):
    rng = "1<=X-deg<=%d, 0<=Y-deg<=%d, x^0..x^%d" % (K, K, N)
    hsums = [hook_beta_sums(N, b + 1) for b in range(K + 1)]
    for a in range(1, K + 1):
        for b in range(K + 1):
            lhs = euler_product_direct(b, N, step=a)
            arr = [Fraction(0)] * (N + 1)
            for m in range(N // a + 1):
                arr[a * m] += hsums[b][m]
            for n in range(N + 1):
                if lhs[n] != arr[n]:
                    return False, rng, _mm("X^%d Y^%d x^%d" % (a, b, n),
                                           lhs[n], arr[n])
    return True, rng, None


@_register("corollary-2-3",
           "n! times the degree-n hook polynomial has integer coefficients",
           {"n": 10}, {"n": 0}, ("n",))
def _check_corollary_2_3(n):
    rng = "n=0..%d" % n
    for m, poly in enumerate(hook_beta_sums_poly(n)):
        poly = poly * factorial(m)
        for i in range(m + 1):
            c = poly.coefficient(i)
            if c.denominator != 1:
                return False, rng, _mm("n=%d beta^%d" % (m, i), c, "integer")
    return True, rng, None


@_register("corollary-2-4",
           "hook sums at positive integer beta are integers",
           {"n": 15, "k": 10}, {"n": 0, "k": 1}, ("n", "k"))
def _check_corollary_2_4(n, k):
    rng = "n=0..%d, k=1..%d" % (n, k)
    sums = {kk: hook_beta_sums(n, kk) for kk in range(1, k + 1)}
    for m in range(n + 1):
        for kk in range(1, k + 1):
            val = sums[kk][m]
            if val.denominator != 1:
                return False, rng, _mm("n=%d k=%d" % (m, kk), val, "integer")
    return True, rng, None


@_register("corollary-2-6",
           "convolution powers of the partition series vs hook sums at beta=-k",
           {"n": 10, "k": 3}, {"n": 0, "k": 0}, ("n", "k"))
def _check_corollary_2_6(n, k):
    rng = "n=0..%d, k=0..%d" % (n, k)
    pl = [partition_count(i) for i in range(n + 1)]
    conv = [1] + [0] * n  # (partition gf)^0
    for kk in range(k + 1):
        conv = [sum(conv[j] * pl[m - j] for j in range(m + 1))
                for m in range(n + 1)]
        for m, rhs in enumerate(hook_beta_sums(n, -kk)):
            if conv[m] != rhs:
                return False, rng, _mm("k=%d x^%d" % (kk, m), Fraction(conv[m]), rhs)
    return True, rng, None


@_register("rsk-square-sum",
           "sum of squared standard-tableau counts equals n!",
           {"n": 10}, {"n": 0}, ("n",))
def _check_rsk_square_sum(n):
    rng = "n=0..%d" % n
    for m in range(n + 1):
        total = sum(syt_count_of(parts) ** 2 for parts in partition_tuples(m))
        if total != factorial(m):
            return False, rng, _mm("n=%d" % m, Fraction(total),
                                   Fraction(factorial(m)))
    return True, rng, None


@_register("pp-identity",
           "ordered pairs of partitions vs hook sums at beta=-1",
           {"n": 12}, {"n": 0}, ("n",))
def _check_pp_identity(n):
    rng = "n=0..%d" % n
    for m, rhs in enumerate(hook_beta_sums(n, -1)):
        pairs = sum(len(partition_tuples(a)) * len(partition_tuples(m - a))
                    for a in range(m + 1))
        if pairs != rhs:
            return False, rng, _mm("x^%d" % m, Fraction(pairs), rhs)
    return True, rng, None


@_register("pentagonal-beta2",
           "hook sums at beta=2 vs the pentagonal-number series",
           {"N": 30}, {"N": 0}, ("N",))
def _check_pentagonal_beta2(N):
    rng = "x^0..x^%d" % N
    pent = pentagonal_series(N)
    for m, lhs in enumerate(hook_beta_sums(N, 2)):
        if lhs != pent[m]:
            return False, rng, _mm("x^%d" % m, lhs, pent[m])
    return True, rng, None


@_register("tau-5core",
           "discriminant coefficients via 5-core hook products at beta=25",
           {"N": 20}, {"N": 1}, ("N",))
def _check_tau_5core(N):
    rng = "n=1..%d" % N
    E = euler_power(24, N - 1)
    for m in range(1, N + 1):
        lhs = E[m - 1]
        rhs = sum((hook_eval_product(c, 25) for c in enumerate_t_cores(m - 1, 5)),
                  Fraction(0))
        if lhs != rhs:
            return False, rng, _mm("n=%d" % m, lhs, rhs)
    return True, rng, None


@_register("jacobi-beta4",
           "cube of the Euler product: hook sums at beta=4, odd-square series, "
           "exp route, and staircase products",
           {"N": 30}, {"N": 0}, ("N",))
def _check_jacobi_beta4(N):
    rng = "x^0..x^%d (hook sum / sparse / exp routes), staircases within order" % N
    jac = jacobi_cube_series(N)
    eul = euler_power(3, N)
    for m, lhs in enumerate(hook_beta_sums(N, 4)):
        if jac[m] != eul[m]:
            return False, rng, _mm("x^%d (sparse vs exp)" % m, jac[m], eul[m])
        if lhs != jac[m]:
            return False, rng, _mm("x^%d (hook sum vs sparse)" % m, lhs, jac[m])
    m = 1
    while m * (m + 1) // 2 <= N:
        got = hook_eval_product(staircase(m).parts, 4)
        want = Fraction((-1) ** m * (2 * m + 1))
        if got != want:
            return False, rng, _mm("staircase m=%d" % m, got, want)
        m += 1
    return True, rng, None


@_register("eta8-beta9",
           "eighth power of the Euler product: 3-core hook sums at beta=9, "
           "sparse double sum, and exp route",
           {"N": 20}, {"N": 0}, ("N",))
def _check_eta8_beta9(N):
    rng = "x^0..x^%d (3-core sum / double sum / exp routes)" % N
    dbl = eta8_double_sum(N)
    eul = euler_power(8, N)
    for m in range(N + 1):
        if dbl[m] != eul[m]:
            return False, rng, _mm("x^%d (double sum vs exp)" % m, dbl[m], eul[m])
        lhs = sum((hook_eval_product(c, 9) for c in enumerate_t_cores(m, 3)),
                  Fraction(0))
        if lhs != dbl[m]:
            return False, rng, _mm("x^%d (3-core sum vs double sum)" % m,
                                   lhs, dbl[m])
    return True, rng, None


def _t_tuple(t):
    return (t,) if isinstance(t, int) else tuple(t)


def _t_cores(t, n, start=0):
    """Yield (t, m, core, label) for every t-core of m = start..n, each t."""
    for tt in _t_tuple(t):
        for m in range(start, n + 1):
            for core in enumerate_t_cores(m, tt):
                yield tt, m, core, "t=%d core=%s" % (tt, ",".join(map(str, core)))


@_register("gks-weight",
           "t-core weight from its region vector",
           {"n": 25, "t": (3, 5, 7)}, {"n": 0}, ("n",))
def _check_gks_weight(n, t):
    rng = "all t-cores of n=0..%d, t in %s" % (n, list(_t_tuple(t)))
    for tt, m, core, at in _t_cores(t, n):
        w = core_weight_from_n(n_coding(core, tt), tt)
        if w != m:
            return False, rng, _mm(at, Fraction(w), Fraction(m))
    return True, rng, None


@_register("phi-v-theorem",
           "zero-sum coding: weight and difference-product formulas",
           {"n": 25, "t": (3, 5, 7)}, {"n": 0}, ("n",))
def _check_phi_v_theorem(n, t):
    rng = "all t-cores of n=0..%d, t in %s" % (n, list(_t_tuple(t)))
    for tt, m, core, at in _t_cores(t, n):
        v = v_coding(core, tt)
        w = core_weight_from_v(v, tt)
        if w != m:
            return False, rng, _mm(at + " weight", Fraction(w), Fraction(m))
        pa = core_product_from_v(v, tt)
        pb = hook_eval_product(core, tt * tt)
        if pa != pb:
            return False, rng, _mm(at + " product", pa, pb)
    return True, rng, None


@_register("lemma-5-5",
           "positive-hook product via residue-maximal elements",
           {"n": 25, "t": (3, 5, 7)}, {"n": 0}, ("n",))
def _check_lemma_5_5(n, t):
    rng = "all t-cores of n=0..%d, t in %s" % (n, list(_t_tuple(t)))
    for tt, m, core, at in _t_cores(t, n):
        t2 = Fraction(tt * tt)
        lhs = Fraction(1)
        for a in h_set(core, tt).elements:
            if a > 0:
                lhs *= 1 - t2 / (a * a)
        rhs = Fraction(1)
        for u in u_coding(core, tt)[1:]:
            rhs *= Fraction(u + tt, u)
        if lhs != rhs:
            return False, rng, _mm(at, lhs, rhs)
    return True, rng, None


@_register("lemma-5-6",
           "difference-product ratio under erasure of the first column",
           {"n": 25, "t": (3, 5, 7)}, {"n": 0}, ("n",))
def _check_lemma_5_6(n, t):
    rng = "all non-empty t-cores of n=0..%d, t in %s" % (n, list(_t_tuple(t)))
    for tt, m, core, at in _t_cores(t, n, start=1):
        erased = tuple(x - 1 for x in core if x > 1)
        if not is_t_core(erased, tt):
            return False, rng, _mm(at + " erased", ",".join(map(str, erased)),
                                   "a t-core")
        u = u_coding(core, tt)
        u2 = u_coding(erased, tt)
        lhs = Fraction(diff_product(u), diff_product(u2))
        rhs = Fraction(1)
        for uj in u[1:]:
            rhs *= Fraction(uj + tt, uj)
        if lhs != rhs:
            return False, rng, _mm(at, lhs, rhs)
    return True, rng, None


@_register("macdonald",
           "eta-power coefficients as a lattice sum over zero-sum vectors",
           {"t": (3, 5), "N": 20}, {"N": 0}, ("N",))
def _check_macdonald(t, N):
    ts = _t_tuple(t)
    rng = "t in %s, x^0..x^%d" % (list(ts), N)
    for tt in ts:
        lattice = macdonald_eta_power(tt, N)
        eul = euler_power(tt * tt - 1, N)
        for m in range(N + 1):
            if lattice[m] != eul[m]:
                return False, rng, _mm("t=%d x^%d" % (tt, m), lattice[m], eul[m])
    return True, rng, None


@_register("prop-6-1",
           "generating function of reciprocal squared hooks",
           {"N": 25}, {"N": 0}, ("N",))
def _check_prop_6_1(N):
    rng = "x^0..x^%d" % N
    rhs = partition_gf(N) * log_euler_sum(N)
    for m in range(N + 1):
        lhs = hook_power_moment(m, -2)
        if lhs != rhs[m]:
            return False, rng, _mm("x^%d" % m, lhs, rhs[m])
    return True, rng, None


@_register("thm-6-2",
           "hook power sums transfer to divisor power sums",
           {"N": 25, "alpha": (-1, 0, 1, 2)}, {"N": 0}, ("N",))
def _check_thm_6_2(N, alpha):
    alphas = (alpha,) if isinstance(alpha, int) else tuple(alpha)
    rng = "alpha in %s, x^0..x^%d" % (list(alphas), N)
    pgf = partition_gf(N)
    for a in alphas:
        rhs = pgf * divisor_power_gf(a + 1, N)
        for m in range(N + 1):
            lhs = hook_power_moment(m, a)
            if lhs != rhs[m]:
                return False, rng, _mm("alpha=%d x^%d" % (a, m), lhs, rhs[m])
    return True, rng, None


@_register("sebbm",
           "occurrences of part k vs cells of arm j and hook k, all j < k",
           {"n": 12}, {"n": 0}, ("n",))
def _check_sebbm(n):
    rng = "n=0..%d, all parts k, all arms j<k" % n
    for m in range(n + 1):
        parts_census = part_occurrence_census(m)
        cells = hook_type_census(m)
        for k in range(1, m + 1):
            want = parts_census.get(k, 0)
            for j in range(k):
                got = cells.get((j, k - 1 - j), 0)
                if got != want:
                    return False, rng, _mm("n=%d part=%d arm=%d" % (m, k, j),
                                           Fraction(got), Fraction(want))
    return True, rng, None


@_register("prop-6-4",
           "hook multiset equals the part multiset with duplication",
           {"n": 12}, {"n": 0}, ("n",))
def _check_prop_6_4(n):
    rng = "n=0..%d" % n
    for m in range(n + 1):
        ha = hook_multiset_all(m)
        gd = parts_multiset_duplicated(m)
        if ha != gd:
            for v in sorted(set(ha) | set(gd)):
                if ha.get(v, 0) != gd.get(v, 0):
                    return False, rng, _mm("n=%d value=%d" % (m, v),
                                           Fraction(ha.get(v, 0)),
                                           Fraction(gd.get(v, 0)))
    return True, rng, None


@_register("cor-6-7",
           "total parts = reciprocal-hook sum; divisor convolution and m-sum forms",
           {"N": 25}, {"N": 0}, ("N",))
def _check_cor_6_7(N):
    rng = "x^0..x^%d, four routes" % N
    conv = partition_gf(N) * divisor_power_gf(0, N)
    msum = [0] * (N + 1)
    prodarr = [1] + [0] * N
    for j in range(1, N + 1):
        geometric_divide(prodarr, j)
        for i in range(j, N + 1):
            msum[i] += j * prodarr[i - j]
    for m in range(N + 1):
        total_parts = sum(len(parts) for parts in partition_tuples(m))
        hooks_form = hook_power_moment(m, -1)
        if hooks_form != total_parts:
            return False, rng, _mm("x^%d (hooks vs parts)" % m,
                                   hooks_form, Fraction(total_parts))
        if conv[m] != total_parts:
            return False, rng, _mm("x^%d (divisor convolution)" % m,
                                   conv[m], Fraction(total_parts))
        if msum[m] != total_parts:
            return False, rng, _mm("x^%d (m-sum form)" % m,
                                   Fraction(msum[m]), Fraction(total_parts))
    return True, rng, None


@_register("prop-6-8",
           "unordered pairs of distinct cells, reciprocal squared hooks",
           {"N": 25}, {"N": 0}, ("N",))
def _check_prop_6_8(N):
    rng = "x^0..x^%d" % N
    lg = log_euler_sum(N)
    rhs = partition_gf(N) * lg * lg * Fraction(1, 2)
    for m in range(N + 1):
        lhs = (hook_power_moment2(m, -2) - hook_power_moment(m, -4)) / 2
        if lhs != rhs[m]:
            return False, rng, _mm("x^%d" % m, lhs, rhs[m])
    return True, rng, None


@_register("thm-6-9",
           "square of the reciprocal-squared-hook sum",
           {"N": 25}, {"N": 0}, ("N",))
def _check_thm_6_9(N):
    rng = "x^0..x^%d" % N
    lg = log_euler_sum(N)
    rhs = partition_gf(N) * (divisor_power_gf(-3, N) + lg * lg)
    for m in range(N + 1):
        lhs = hook_power_moment2(m, -2)
        if lhs != rhs[m]:
            return False, rng, _mm("x^%d" % m, lhs, rhs[m])
    return True, rng, None


def _hook_moment(m, k):
    """sum over partitions of m of f_lambda^2 e_k(h^2), in integers; the
    elementary symmetric e_k of the squared hooks is built hook by hook."""
    total = 0
    for parts, hooks in zip(partition_tuples(m), hook_lists(m)):
        e = [1] + [0] * k
        for h in hooks:
            h2 = h * h
            for j in range(k, 0, -1):
                e[j] += h2 * e[j - 1]
        f = syt_count_of(parts)
        total += f * f * e[k]
    return total


def _moment_closed_form(n, k, closed):
    """Compare _hook_moment(m, k) with the closed form closed(m), m <= n."""
    rng = "n=0..%d" % n
    for m in range(n + 1):
        lhs = _hook_moment(m, k)
        rhs = closed(m)
        if lhs != rhs:
            return False, rng, _mm("n=%d" % m, Fraction(lhs), Fraction(rhs))
    return True, rng, None


@_register("marked-hook",
           "tableau-squared-weighted sum of squared hooks, closed form",
           {"n": 10}, {"n": 0}, ("n",))
def _check_marked_hook(n):
    return _moment_closed_form(
        n, 1, lambda m: m * (3 * m - 1) // 2 * factorial(m))


@_register("prop-6-11",
           "tableau-squared-weighted pairs of squared hooks, closed form",
           {"n": 8}, {"n": 0}, ("n",))
def _check_prop_6_11(n):
    return _moment_closed_form(
        n, 2, lambda m: Fraction(m * (m - 1) * (27 * m * m - 67 * m + 74), 24)
        * factorial(m))


@_register("prop-6-12",
           "tableau-squared-weighted triples of squared hooks, closed form",
           {"n": 8}, {"n": 2}, ("n",))
def _check_prop_6_12(n):
    return _moment_closed_form(
        n, 3, lambda m: Fraction(m * (m - 1) * (m - 2)
                                 * (27 * m ** 3 - 174 * m ** 2 + 511 * m - 600),
                                 48) * factorial(m))


@_register("kostant-poly",
           "coefficient polynomials of the s-th Euler power, three routes",
           {"k": 4}, {"k": 2}, ("k",))
def _check_kostant_poly(k):
    rng = "k=0..%d, closed forms for k in {2,3,4}" % k
    s = BetaPoly.beta()
    closed = {
        2: s * (s - 3) * Fraction(1, 2),
        3: s * (s - 1) * (s - 8) * Fraction(-1, 6),
        4: s * (s - 1) * (s - 3) * (s - 14) * Fraction(1, 24),
    }
    EF = euler_power_formal(k)
    for kk in range(k + 1):
        f_exp = EF[kk].subst_linear(1, 1)  # beta = s + 1
        # partition route: f_k(s) = sum over partitions of k of
        # prod (1 - (s + 1) / h^2)
        f_part = sum(map(hook_beta_poly_of, partition_tuples(kk)),
                     BetaPoly()).subst_linear(1, 1)
        if f_exp != f_part:
            return False, rng, _mm("k=%d (series vs partition routes)" % kk,
                                   f_exp, f_part)
        if kk in closed and f_exp != closed[kk]:
            return False, rng, _mm("k=%d (closed form)" % kk, f_exp, closed[kk])
    return True, rng, None


@_register("kostant-sign",
           "sign of Euler-power coefficients past the square boundary, "
           "with non-negative summand certificates",
           {"k": 8}, {"k": 1}, ("k",))
def _check_kostant_sign(k):
    rng = ("k=1..%d, s in {k^2-1, k^2, k^2+1/2, 2k^2}; certificate at s=k^2-1" % k)
    for kk in range(1, k + 1):
        grid = [Fraction(kk * kk - 1), Fraction(kk * kk),
                Fraction(2 * kk * kk + 1, 2), Fraction(2 * kk * kk)]
        sign = (-1) ** kk
        for s in grid:
            ws = [sign * hook_eval_product(parts, s + 1)
                  for parts in partition_tuples(kk)]
            total = sum(ws, Fraction(0))
            via_series = sign * euler_power(s, kk)[kk]
            if total != via_series:
                return False, rng, _mm("k=%d s=%s (routes)" % (kk, s),
                                       total, via_series)
            if s == kk * kk - 1:
                if any(w < 0 for w in ws):
                    bad = min(w for w in ws)
                    return False, rng, _mm("k=%d s=%s certificate" % (kk, s),
                                           bad, ">= 0")
                if kk >= 4:
                    if not any(w > 0 for w in ws) or not total > 0:
                        return False, rng, _mm("k=%d s=%s strict" % (kk, s),
                                               total, "> 0")
                elif total != 0:
                    # below k=4 every summand vanishes on the boundary
                    return False, rng, _mm("k=%d s=%s boundary" % (kk, s),
                                           total, "0")
            elif not total > 0:
                return False, rng, _mm("k=%d s=%s sign" % (kk, s), total, "> 0")
    return True, rng, None


@_register("cauchy-special",
           "principal specialization of the Schur expansion of the d-fold "
           "inverse Euler product",
           {"d": (1, 2, 3), "N": 12}, {"N": 0}, ("N",))
def _check_cauchy_special(d, N):
    ds = _t_tuple(d)
    rng = "d in %s, x^0..x^%d" % (list(ds), N)
    for dd in ds:
        rhs = euler_power(-dd, N)
        tot = Series.zero(N)
        for m in range(N + 1):
            for parts in partition_tuples(m):
                if len(parts) > dd or m + b_stat_of(parts) > N:
                    continue
                tot = tot + schur_principal_x(parts, N) * schur_principal_ones(parts, dd)
        for n in range(N + 1):
            if tot[n] != rhs[n]:
                return False, rng, _mm("d=%d x^%d" % (dd, n), tot[n], rhs[n])
    return True, rng, None


def _beta_samples(N):
    """N+3 distinct rationals; the compared coefficients have beta-degree
    <= N, so agreement on N+1 of them already pins the identity."""
    return [Fraction(j, 2) - 2 for j in range(N + 3)]


def _content_hook_series(parts, beta, N, content_shift=0):
    """x^(|.|+b) * prod (content + shift - beta) / (h (1 - x^h)), exactly."""
    p, q = beta.numerator, beta.denominator
    m = sum(parts)
    num = 1
    for c in contents_of(parts):
        num *= q * (c + content_shift) - p
    if not num:
        return None
    den = q ** m
    for h in hooks_of(parts):
        den *= h
    return schur_principal_x(parts, N) * Fraction(num, den)


@_register("thm-8-3",
           "Schur-type expansion of an arbitrary Euler power, sampled in beta",
           {"N": 12}, {"N": 0}, ("N",))
def _check_thm_8_3(N):
    samples = _beta_samples(N)
    rng = "x^0..x^%d at %d rational beta samples" % (N, len(samples))
    for b0 in samples:
        lhs = euler_power(b0, N)
        tot = Series.zero(N)
        for m in range(N + 1):
            for parts in partition_tuples(m):
                if m + b_stat_of(parts) > N:
                    continue
                term = _content_hook_series(parts, b0, N)
                if term is not None:
                    tot = tot + term
        for n in range(N + 1):
            if tot[n] != lhs[n]:
                return False, rng, _mm("beta=%s x^%d" % (b0, n), tot[n], lhs[n])
    return True, rng, None


@_register("euler-cor-8-4",
           "alternating column expansion of the Euler product",
           {"N": 30}, {"N": 0}, ("N",))
def _check_euler_cor_8_4(N):
    rng = "x^0..x^%d" % N
    pent = pentagonal_series(N)
    eul = euler_power(1, N)
    acc = [0] * (N + 1)
    acc[0] = 1
    prodarr = [1] + [0] * N
    r = 1
    while r * (r + 1) // 2 <= N:
        geometric_divide(prodarr, r)
        e = r * (r + 1) // 2
        sign = (-1) ** r
        for i in range(N - e + 1):
            acc[e + i] += sign * prodarr[i]
        r += 1
    for m in range(N + 1):
        if acc[m] != pent[m]:
            return False, rng, _mm("x^%d (column sum vs sparse)" % m,
                                   Fraction(acc[m]), pent[m])
        if pent[m] != eul[m]:
            return False, rng, _mm("x^%d (sparse vs exp)" % m, pent[m], eul[m])
    return True, rng, None


@_register("magic",
           "two hook expansions of the same series, sampled in beta",
           {"N": 12}, {"N": 0}, ("N",))
def _check_magic(N):
    samples = _beta_samples(N)
    rng = "x^0..x^%d at %d rational beta samples" % (N, len(samples))
    for b0 in samples:
        tot = Series.zero(N)
        for m in range(N + 1):
            for parts in partition_tuples(m):
                if m + b_stat_of(parts) > N:
                    continue
                term = _content_hook_series(parts, b0, N, content_shift=1)
                if term is not None:
                    tot = tot + term
        for n, rhs in enumerate(hook_beta_sums(N, b0)):
            if tot[n] != rhs:
                return False, rng, _mm("beta=%s x^%d" % (b0, n), tot[n], rhs)
    return True, rng, None


@_register("reversion",
           "compositional inverse of x times the Euler product",
           {"N": 20}, {"N": 1}, ("N",))
def _check_reversion(N):
    rng = "x^0..x^%d, hook-sum vs fixed-point routes, substitution" % N
    a = revert_euler(N, method="lagrange")
    b = revert_euler(N, method="iterate")
    for n in range(N + 1):
        if a[n] != b[n]:
            return False, rng, _mm("x^%d (routes)" % n, a[n], b[n])
    sub = pentagonal_series(N).compose(a) * a
    x = Series.x(N)
    for n in range(N + 1):
        if sub[n] != x[n]:
            return False, rng, _mm("x^%d (substitution)" % n, sub[n], x[n])
    prefix = [0, 1, 1, 3, 10, 38, 153, 646]
    for n in range(min(N, 7) + 1):
        if a[n] != prefix[n]:
            return False, rng, _mm("x^%d (known prefix)" % n, a[n],
                                   Fraction(prefix[n]))
    return True, rng, None


@_register("cor-9-2",
           "scaled reversion hook sums are positive integers",
           {"n": 15}, {"n": 0}, ("n",))
def _check_cor_9_2(n):
    rng = "n=0..%d" % n
    for m, poly in enumerate(hook_beta_sums_poly(n)):
        val = poly.eval(-m) / (m + 1)
        if val.denominator != 1 or val <= 0:
            return False, rng, _mm("n=%d" % m, val, "positive integer")
    return True, rng, None


# ---------------------------------------------------------------------------
# driver

def verify(check_id, params=None):
    """Run one registry entry; returns a VerificationReport."""
    try:
        entry = REGISTRY[check_id]
    except KeyError:
        raise ValueError("unknown identity id: %r" % (check_id,)) from None
    merged = dict(entry.defaults)
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError("unknown parameter %r for %r" % (key, check_id))
        if isinstance(merged[key], tuple) and isinstance(value, int):
            value = (value,)
        merged[key] = value
    start = time.perf_counter()
    ok, rng, mismatch = entry.fn(**merged)
    elapsed = (time.perf_counter() - start) * 1000.0
    if (mismatch is None) != bool(ok):
        raise RuntimeError("%s: status and first_mismatch disagree" % check_id)
    return VerificationReport(
        id=check_id,
        params=merged,
        status="pass" if ok else "fail",
        checked_range=rng,
        first_mismatch=mismatch,
        elapsed_ms=round(elapsed, 3),
    )


def budget_params(entry, order_budget):
    """Default parameters, with range-type ones clamped to the budget."""
    params = dict(entry.defaults)
    if order_budget is not None:
        for key in entry.range_params:
            floor = entry.minimal.get(key, 0)
            params[key] = max(floor, min(params[key], order_budget))
    return params


def _verify_task(task):
    cid, params = task
    return verify(cid, params)


def verify_all(order_budget=None, workers=None):
    """Run every registry entry; reports ordered by id.

    The worker count comes from the HOOKEXP_WORKERS environment variable
    (default 1) unless given explicitly; results do not depend on it.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "") or "1"
        if not raw.strip().isdigit() or int(raw) < 1:
            raise ValueError("%s must be a positive integer, got %r"
                             % (WORKERS_ENV, raw))
        workers = int(raw)
    tasks = [(cid, budget_params(REGISTRY[cid], order_budget))
             for cid in sorted(REGISTRY)]
    if workers > 1:
        from multiprocessing import Pool
        with Pool(workers) as pool:
            reports = pool.map(_verify_task, tasks)
    else:
        reports = [_verify_task(t) for t in tasks]
    return reports
