"""Integer partitions, Young diagrams (English convention), hooks and
hook-length statistics.

A partition is a weakly decreasing tuple of positive integers.  Cells are
addressed (i, j), 1-based, row-major; row 1 is the longest row.  The hook
length of a cell is arm + leg + 1.

A partition is always a plain tuple: `validate_partition` checks one,
`partition_tuples(n)` lists those of n and the helpers below read them.
Every sum over partitions of prod(1 - beta/h^2), symbolic or at a rational
beta, is read from one cached symbolic sweep (`hook_beta_sums_poly`).
The hook-count census and the hook power moments read `hook_lists(n)`.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import factorial, lcm, prod
from operator import ge, mul

from .exactnum import BetaPoly


# ---------------------------------------------------------------------------
# enumeration and counting

@lru_cache(maxsize=None)
def partition_tuples(n):
    """All partitions of n as tuples, reverse-lexicographic (largest first).

    Each partition follows from the last by the reverse-lexicographic
    successor (algorithm ZS1 of Zoghbi and Stojmenovic): the last part
    above 1, x[h], drops by one to r, and the cells it freed together with
    the trailing ones are refilled by parts of r and a remainder.  Past
    index h the list holds only ones, so nothing needs clearing.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not n:
        return ((),)
    x = [1] * n
    x[0] = n
    m, h = 1, 0  # length, index of the last part above 1
    out = [(n,)]
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # cells to refill after x[h] = r
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1
            if t:
                m += 1
                if t > 1:
                    h += 1
                    x[h] = t
        out.append(tuple(x[:m]))
    return tuple(out)


def enumerate_partitions(n):
    """Yield the partitions of n as tuples, largest first."""
    yield from partition_tuples(n)


_PARTITION_COUNTS = [1]  # p(0), p(1), ... as far as asked so far


def partition_count(n):
    """p(n) by the pentagonal-number recurrence (no enumeration).

    The table grows bottom-up, so a large n needs no deep recursion.
    """
    if n < 0:
        return 0
    table = _PARTITION_COUNTS
    for m in range(len(table), n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * table[m - g1]
            if g1 + k <= m:
                total += sign * table[m - g1 - k]
            k += 1
        table.append(total)
    return table[n]


# ---------------------------------------------------------------------------
# diagram helpers on raw tuples

def conjugate_of(parts):
    """Conjugate partition (columns become rows), in O(rows + cols).

    Column j has i cells exactly when parts[i] <= j < parts[i - 1], so the
    rows are read from the shortest up, each adding its new columns at once.
    """
    out = []
    for i in range(len(parts), 0, -1):
        out.extend([i] * (parts[i - 1] - len(out)))
    return tuple(out)


def hooks_of(parts):
    """All hook lengths, row-major."""
    conj = conjugate_of(parts)
    out = []
    for i, row in enumerate(parts):
        for j in range(row):
            out.append(row - j + conj[j] - i - 1)
    return tuple(out)


@lru_cache(maxsize=None)
def hook_lists(n):
    """Hook-length tuples aligned index-by-index with partition_tuples(n)."""
    return tuple(hooks_of(parts) for parts in partition_tuples(n))


def contents_of(parts):
    """All contents j - i, row-major (same cell order as hooks_of)."""
    out = []
    for i, row in enumerate(parts):
        for j in range(row):
            out.append(j - i)
    return tuple(out)


def first_column_hooks_of(parts):
    """Hook lengths of the first-column cells, strictly decreasing."""
    length = len(parts)
    return tuple(parts[i] + length - i - 1 for i in range(length))


def b_stat_of(parts):
    """The statistic sum_i (i-1) * parts_i."""
    return sum(i * row for i, row in enumerate(parts))


def validate_partition(parts):
    parts = tuple(parts)
    # fast path: all ints, weakly decreasing, the last (least) part positive
    if (all(map(isinstance, parts, repeat(int)))
            and all(map(ge, parts, parts[1:]))
            and (not parts or parts[-1] >= 1)):
        return parts
    # otherwise find the first bad part, for the error message
    for i, row in enumerate(parts):
        if not isinstance(row, int) or row < 1:
            raise ValueError("parts must be positive integers: %r" % (parts,))
        if i and parts[i - 1] < row:
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
    return parts


# ---------------------------------------------------------------------------
# hook products

def syt_count_of(parts):
    """Number of standard Young tableaux: n! divided by the hook product."""
    n = sum(parts)
    ph = prod(hooks_of(parts))
    f, rem = divmod(factorial(n), ph)
    if rem:
        raise ArithmeticError("hook product must divide n!")
    return f


def hook_beta_poly_of(parts):
    """prod over cells of (1 - beta/h^2), as a BetaPoly in beta.

    Computed as prod(h^2 - beta) over prod(h^2), all in integer arithmetic.
    """
    poly = [1]
    ph = 1
    for h in hooks_of(parts):
        h2 = h * h
        ph *= h
        poly.append(-poly[-1])
        for i in range(len(poly) - 2, 0, -1):
            poly[i] = h2 * poly[i] - poly[i - 1]
        poly[0] = h2 * poly[0]
    den = ph * ph
    return BetaPoly([Fraction(c, den) for c in poly])


def hook_eval_product(parts, beta):
    """prod over cells of (1 - beta/h^2) at an exact rational beta."""
    beta = Fraction(beta)
    p, q = beta.numerator, beta.denominator
    num = 1
    den = 1
    for h in hooks_of(parts):
        h2 = h * h
        num *= q * h2 - p
        den *= h2
    return Fraction(num, den * q ** sum(parts))


# ---------------------------------------------------------------------------
# the hook sweep: the hook-product sums of every size n <= N in one walk

def _hook_sweep(N, cell):
    """[sum over partitions of n of f^2 * P for n = 0..N], f = n!/prod h.

    P starts at 1 and each cell of hook h turns it into cell(P, h).  The
    depth-first walk grows mu by a new top row of length L >= mu_1: the
    cells below keep their hooks, and the new row's hooks are
    L - j + mu'_j + 1 for j = 1..L, read from the column lengths mu'
    (adding the largest bead of a beta-set, Macdonald I.1).  Each prefix
    is shared by all its extensions, the stack holds O(N) values and no
    partition table is built.

    Conjugation keeps the hooks, so only the tall member of each conjugate
    pair is summed: a partition with mu_1 < rows counts twice, one with
    mu_1 = rows once, and one with mu_1 > rows not at all.  A node pays
    its new row's length in cells, so the tall member is the cheap one.
    A child of top row L needs at least L - rows - 1 more rows, of at
    least L cells each, before it is tall; it is entered only while they
    fit, and since that need grows with L the first L that fails ends the
    loop.
    """
    fact = [factorial(n) for n in range(N + 1)]
    sums = [0] * (N + 1)
    cols = [0] * N  # mu'_j at cols[j - 1]

    def grow(n, top, rows, hook_prod, P):
        if top <= rows:
            f = fact[n] // hook_prod
            sums[n] += (f * f if top == rows else 2 * f * f) * P
        for L in range(max(top, 1), N - n + 1):
            if (L - rows - 1) * L > N - n - L:
                break
            H, Q = hook_prod, P
            for j in range(L):
                h = L - j + cols[j]
                H *= h
                Q = cell(Q, h)
            for j in range(L):
                cols[j] += 1
            grow(n + L, L, rows + 1, H, Q)
            for j in range(L):
                cols[j] -= 1

    grow(0, 0, 0, 1, 1)
    return sums


def _packing_bits(N):
    """Bits per coefficient for sweep sums of size <= N packed at X = 2^B.

    prod(h^2 + X) has non-negative coefficients, each at most 2^n prod h^2,
    so slot n's coefficients are at most p(n) 2^n n!^2: B - 2 bits hold them.
    """
    return (partition_count(N) * 2 ** N * factorial(N) ** 2).bit_length() + 2


def _unpack_hook_sum(packed, n, B):
    """The BetaPoly (1/n!^2) sum f^2 prod(h^2 - beta) from its value at
    -beta = X = 2^B.  Every coefficient must divide exactly by n!
    (Corollary 2.3) and no bits may lie past degree n; ArithmeticError
    otherwise.
    """
    fact = factorial(n)
    mask = (1 << B) - 1
    coeffs = []
    for k in range(n + 1):
        c, rem = divmod(packed & mask, fact)
        if rem:
            raise ArithmeticError("packed hook sum of size %d: coefficient %d "
                                  "is not divisible by %d!" % (n, k, n))
        coeffs.append(Fraction(-c if k % 2 else c, fact))
        packed >>= B
    if packed:
        raise ArithmeticError("packed hook sum of size %d has bits past "
                              "degree %d" % (n, n))
    return BetaPoly(coeffs)


@lru_cache(maxsize=None)
def _hook_sums_poly(N):
    """The symbolic sweep of size N as a tuple of (immutable) BetaPolys.

    The sweep carries P = prod(h^2 + X), X = -beta, as one integer at
    X = 2^B (Kronecker substitution), so each cell costs h^2 P + (P << B).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    B = _packing_bits(N)
    sums = _hook_sweep(N, lambda P, h: h * h * P + (P << B))
    return tuple(_unpack_hook_sum(s, n, B) for n, s in enumerate(sums))


def hook_beta_sums_poly(N):
    """[sum over partitions of n of prod(1 - beta/h^2) for n = 0..N], each
    a BetaPoly, from one cached sweep."""
    return list(_hook_sums_poly(N))


def hook_beta_sums(N, beta):
    """[sum over partitions of n of prod(1 - beta/h^2) for n = 0..N] at an
    exact rational beta: the symbolic sums of the sweep, evaluated."""
    return [poly.eval(beta) for poly in _hook_sums_poly(N)]


def hook_beta_sum(n, beta):
    """sum over partitions of n of prod(1 - beta/h^2), exactly."""
    return _hook_sums_poly(n)[n].eval(beta)


def hook_beta_sum_poly(n):
    """sum over partitions of n of prod(1 - beta/h^2), as a BetaPoly."""
    return _hook_sums_poly(n)[n]


# ---------------------------------------------------------------------------
# the hook-count census

@lru_cache(maxsize=None)
def hook_count_census(n):
    """Int tuple C: C[h] cells of hook length h over the partitions of n."""
    counts = Counter(chain.from_iterable(hook_lists(n)))
    return tuple(counts[h] for h in range(n + 1))


def _power_weights(n, alpha):
    """Ints w[h], d with h^alpha = w[h] / d for 1 <= h <= n; w[0] = 0."""
    if alpha >= 0:
        return [0] + [h ** alpha for h in range(1, n + 1)], 1
    top = lcm(*range(1, n + 1))
    return [0] + [(top // h) ** -alpha for h in range(1, n + 1)], top ** -alpha


def hook_power_moment(n, alpha):
    """sum over partitions of n of sum over cells of h^alpha (integer alpha)."""
    w, d = _power_weights(n, alpha)
    return Fraction(sum(map(mul, hook_count_census(n), w)), d)


def hook_power_moment2(n, alpha):
    """sum over partitions of n of (sum over cells of h^alpha)^2."""
    w, d = _power_weights(n, alpha)
    return Fraction(sum(sum(map(w.__getitem__, hooks)) ** 2
                        for hooks in hook_lists(n)), d * d)


# ---------------------------------------------------------------------------
# aggregate multisets over all partitions of n

def hook_multiset_all(n):
    """Multiset of all hook lengths of all partitions of n (Counter)."""
    return Counter({h: c for h, c in enumerate(hook_count_census(n)) if c})


def parts_multiset_duplicated(n):
    """Multiset of parts of all partitions of n, a part k counted k times."""
    return Counter({k: k * c for k, c in part_occurrence_census(n).items()})


def part_occurrence_census(n):
    """How many times each value occurs as a part among partitions of n."""
    census = Counter()
    for parts in partition_tuples(n):
        census.update(parts)
    return census


def hook_type_census(n):
    """Counter of (arm, leg) pairs over all cells of all partitions of n."""
    census = Counter()
    for parts in partition_tuples(n):
        conj = conjugate_of(parts)
        for i, row in enumerate(parts):
            for j in range(row):
                census[(row - j - 1, conj[j] - i - 1)] += 1
    return census


# ---------------------------------------------------------------------------
# special shapes

def staircase(m):
    """The staircase partition (m, m-1, ..., 1)."""
    return tuple(range(m, 0, -1))
