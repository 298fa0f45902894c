"""Output checkers for the benchmark's CLI jobs.

Each checker takes a job's exit code and stdout and judges them with its
own arithmetic; none of them imports hookexp, so a bug shared by the
program and its checker cannot hide.  A checker returns
(attempted, failed, detail): attempted operations are the job itself plus,
for ``verify --all``, each of the 34 checks in its report.
"""

import functools
import json
import re
from fractions import Fraction

# The registry as the report must list it, in report order (sorted by id).
REGISTRY_IDS = tuple(sorted((
    "main-identity", "theorem-2-1", "corollary-2-3", "corollary-2-4",
    "corollary-2-6", "rsk-square-sum", "pp-identity", "pentagonal-beta2",
    "tau-5core", "jacobi-beta4", "eta8-beta9", "gks-weight",
    "phi-v-theorem", "lemma-5-5", "lemma-5-6", "macdonald", "prop-6-1",
    "thm-6-2", "sebbm", "prop-6-4", "cor-6-7", "prop-6-8", "thm-6-9",
    "marked-hook", "prop-6-11", "prop-6-12", "kostant-poly",
    "kostant-sign", "cauchy-special", "thm-8-3", "euler-cor-8-4", "magic",
    "reversion", "cor-9-2",
)))

# The recorded prop-6-12 closed form is wrong from n=3 on; the check must
# keep reporting exactly this mismatch (the erratum stays red).
PROP_6_12_MISMATCH = {"location": "n=3", "lhs": "108", "rhs": "72"}

REPORT_KEYS = {"id", "params", "status", "checked_range", "first_mismatch",
               "elapsed_ms"}

TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)

# Sample points at which the symbolic-beta expansion is evaluated.
BETA_SAMPLES = (Fraction(3, 2), Fraction(-5, 7), Fraction(11))


class CheckFailed(Exception):
    pass


def _need(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# series arithmetic, written independently of hookexp.series

def pentagonal(order):
    """Integer coefficients of prod_{m>=1} (1 - x^m) up to x^order."""
    out = [0] * (order + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        sign = -1 if k % 2 else 1
        for e in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if e <= order:
                out[e] += sign
        k += 1
    return out


def partition_numbers(order):
    """p(0..order) by Euler's recurrence over the pentagonal numbers."""
    f = pentagonal(order)
    terms = [(k, c) for k, c in enumerate(f) if c and k]
    p = [1] + [0] * order
    for n in range(1, order + 1):
        p[n] = -sum(c * p[n - k] for k, c in terms if k <= n)
    return p


def check_euler_power(coeffs, s):
    """Raise unless coeffs are prod (1 - x^m)^s truncated.

    Uses J.C.P. Miller's power recurrence over the pentagonal series f:
    n a_n = sum_{k=1..n} ((s+1) k - n) f_k a_{n-k}, with a_0 = 1.
    """
    _need(coeffs and coeffs[0] == 1, "constant term is not 1")
    f = pentagonal(len(coeffs) - 1)
    terms = [(k, c) for k, c in enumerate(f) if c and k]
    s1 = s + 1
    for n in range(1, len(coeffs)):
        rhs = sum((s1 * k - n) * c * coeffs[n - k] for k, c in terms if k <= n)
        _need(n * coeffs[n] == rhs, "power recurrence fails at x^%d" % n)


def check_reverts_euler(y):
    """Raise unless y * prod (1 - y^m) = x to the order of y (integers)."""
    order = len(y) - 1
    _need(order >= 1 and y[0] == 0 and y[1] == 1, "y must start 0 + x")
    f = pentagonal(order)
    total = [0] * (order + 1)
    power = list(y)  # y^(k+1), truncated
    for k in range(order):
        if f[k]:
            for i, c in enumerate(power):
                total[i] += f[k] * c
        power = _mul_trunc(power, y)
    _need(total == [0, 1] + [0] * (order - 1),
          "y * prod(1 - y^m) is not x")


def _mul_trunc(a, b):
    n = len(a)
    out = [0] * n
    for i, ca in enumerate(a):
        if ca:
            for j in range(n - i):
                out[i + j] += ca * b[j]
    return out


# ---------------------------------------------------------------------------
# output parsing

def _plain_values(out, order):
    """Parse "n: value" lines for n = 0..order."""
    lines = out.splitlines()
    _need(len(lines) == order + 1,
          "expected %d lines, got %d" % (order + 1, len(lines)))
    values = []
    for n, line in enumerate(lines):
        head, sep, value = line.partition(": ")
        _need(sep and head == str(n), "bad line %d: %r" % (n, line[:60]))
        values.append(value)
    return values


def _rational(text):
    _need(re.fullmatch(r"-?\d+(/\d+)?", text) is not None,
          "not a rational: %r" % text[:60])
    return Fraction(text)


def _integer(text):
    _need(re.fullmatch(r"-?\d+", text) is not None,
          "not an integer: %r" % text[:60])
    return int(text)


def _bfile_values(out, count):
    """Parse "i a(i)" lines for i = 1..count."""
    lines = out.splitlines()
    _need(len(lines) == count, "expected %d lines, got %d" % (count, len(lines)))
    values = []
    for i, line in enumerate(lines, start=1):
        head, sep, value = line.partition(" ")
        _need(sep and head == str(i), "bad line %d: %r" % (i, line[:60]))
        values.append(_integer(value))
    return values


# ---------------------------------------------------------------------------
# one checker per job kind; each takes (code, out) plus the job's parameters

def _one_operation(check):
    """Turn a check that raises CheckFailed into (attempted, failed, detail)."""
    @functools.wraps(check)
    def judge(code, out, *args):
        try:
            _need(code == 0, "exit code %d" % code)
            check(out, *args)
        except CheckFailed as exc:
            return 1, 1, str(exc)
        return 1, 0, "ok"
    return judge


@_one_operation
def check_expand(out, exponent, order):
    """expand --exponent EXPONENT --order ORDER (plain format)."""
    if exponent == "beta":
        _check_beta_expansion(out, order)
        return
    coeffs = [_rational(v) for v in _plain_values(out, order)]
    check_euler_power(coeffs, Fraction(exponent))
    if Fraction(exponent) == 24:
        _need(tuple(coeffs[:10]) == TAU, "tau(1..10) differ")


def _check_beta_expansion(out, order):
    polys = []
    for n, text in enumerate(_plain_values(out, order)):
        try:
            items = json.loads(text)
        except ValueError:
            raise CheckFailed("x^%d is not a JSON list" % n) from None
        _need(isinstance(items, list) and all(isinstance(c, str) for c in items),
              "x^%d is not a list of strings" % n)
        _need(len(items) <= n + 1, "x^%d has degree above %d" % (n, n))
        polys.append([_rational(c) for c in items])
    for beta in BETA_SAMPLES:
        values = []
        for poly in polys:
            acc = Fraction(0)
            for c in reversed(poly):
                acc = acc * beta + c
            values.append(acc)
        check_euler_power(values, beta - 1)


@_one_operation
def check_revert(out, order):
    """revert --order ORDER."""
    check_reverts_euler([_integer(v) for v in _plain_values(out, order)])


@_one_operation
def check_seq_a109085(out, count):
    """seq --name a109085 --count COUNT."""
    check_reverts_euler([0] + _bfile_values(out, count))


@_one_operation
def check_main_identity(out, order):
    """verify --id main-identity --order ORDER (plain format)."""
    pattern = (r"main-identity: pass  \(x\^0\.\.x\^%d, symbolic beta\)  "
               r"\d+\.\d+ ms\n" % order)
    _need(re.fullmatch(pattern, out) is not None,
          "unexpected report: %r" % out[:120])


def t_core_count(n, t):
    """[x^n] prod (1 - x^{tm})^t / (1 - x^m), in integers."""
    p = partition_numbers(n)
    g = [1] + [0] * (n // t)
    f = pentagonal(n // t)
    for _ in range(t):
        g = _mul_trunc(g, f)
    return sum(c * p[n - t * j] for j, c in enumerate(g))


def _t_hook_count(parts, t):
    """Hooks of length t, read off the first-column hook set (abacus).

    A hook of length t corresponds to a first-column hook b >= t whose
    b - t is not a first-column hook.
    """
    length = len(parts)
    beta = {row + length - i - 1 for i, row in enumerate(parts)}
    return sum(1 for b in beta if b >= t and b - t not in beta)


@_one_operation
def check_cores(out, n, t):
    """cores --n N --t T: exactly the t-cores of n, reverse-lex."""
    prev = None
    count = 0
    for line in out.splitlines():
        parts = tuple(int(x) for x in line.split(",")) if line else ()
        _need(all(a >= b >= 1 for a, b in zip(parts, parts[1:] + (1,))),
              "not a partition: %s" % line[:60])
        _need(sum(parts) == n, "%s does not sum to %d" % (line[:60], n))
        _need(_t_hook_count(parts, t) == 0,
              "%s has a hook of length %d" % (line[:60], t))
        _need(prev is None or parts < prev,
              "not strictly reverse-lex at %s" % line[:60])
        prev = parts
        count += 1
    expected = t_core_count(n, t)
    _need(count == expected, "%d cores, expected %d" % (count, expected))


def strip_elapsed(out):
    """Report text with every elapsed_ms value removed."""
    out = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', out)
    return re.sub(r"  \d+\.\d+ ms$", "", out, flags=re.M)


def check_registry(code, out):
    """verify --all --format json: 34 checks, only prop-6-12 failing."""
    try:
        _need(code == 1, "exit code %d, expected 1" % code)
        try:
            reports = json.loads(out)
        except ValueError:
            raise CheckFailed("report is not JSON") from None
        _need(isinstance(reports, list), "report is not a list")
        ids = [r.get("id") if isinstance(r, dict) else None for r in reports]
        _need(tuple(ids) == REGISTRY_IDS,
              "report ids differ from the 34-entry registry")
    except CheckFailed as exc:
        return 1 + len(REGISTRY_IDS), 1 + len(REGISTRY_IDS), str(exc)
    bad = []
    for r in reports:
        if set(r) != REPORT_KEYS:
            bad.append("%s: keys %s" % (r["id"], sorted(r)))
        elif r["id"] == "prop-6-12":
            if r["status"] != "fail" or r["first_mismatch"] != PROP_6_12_MISMATCH:
                bad.append("prop-6-12: %s %s" % (r["status"], r["first_mismatch"]))
        elif r["status"] != "pass" or r["first_mismatch"] is not None:
            bad.append("%s: %s" % (r["id"], r["status"]))
    return 1 + len(reports), len(bad), "; ".join(bad) or "ok"


@_one_operation
def check_list_identities(out):
    """list-identities: the 34 ids, in order."""
    ids = tuple(line.partition(": ")[0] for line in out.splitlines())
    _need(ids == REGISTRY_IDS, "catalog differs from the 34-entry registry")

