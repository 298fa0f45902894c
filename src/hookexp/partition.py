"""Integer partitions, Young diagrams (English convention), hooks and
hook-length statistics.

A partition is a weakly decreasing tuple of positive integers.  Cells are
addressed (i, j), 1-based, row-major; row 1 is the longest row.  The hook
length of a cell is arm + leg + 1.

A partition is always a plain tuple: `validate_partition` checks one,
`enumerate_partitions(n)` yields those of n, `partition_tuples(n)` caches them.
Every hook statistic summed over all partitions of each size n <= N comes
from one depth-first walk, `_top_row_walk`, which grows each partition by a
new top row and visits only the tall member of each conjugate pair: the
sums of prod(1 - beta/h^2) (`hook_beta_sum*`, one cached symbolic sweep),
the hook-count census and the hook power moments, and, pruned at a hook of
length t, the t-cores (`tcore`).  `hook_beta_poly_of` and
`hook_eval_product` give the product of one partition, for the checks that
sum it themselves.

The public functions check their numbers by the rule of `exactnum` and a
partition by `_require_partition`, once, at entry.  Every memo, p(n)'s
table too, is made by `_memo`, keyed by typed arguments (1.0 or True never
reads the entry of 1), and `_clear_memos()` forgets them all.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import count, takewhile
from math import factorial, lcm, prod
from operator import add, mul

from .exactnum import (
    BetaPoly,
    _invariant,
    _require_exact,
    _require_int,
    _require_size,
    roots_poly,
)


# ---------------------------------------------------------------------------
# memos, enumeration and counting

_MEMOS = []  # every memo of the package, in the order made


def _memo(fn):
    """fn memoized by its typed arguments, listed in _MEMOS; it is the lru
    cache itself, whose cache_info() perfbench's tracer reads."""
    memo = lru_cache(maxsize=None, typed=True)(fn)
    _MEMOS.append(memo)
    return memo


def _clear_memos():
    """Forget every memo of the package, p(n)'s table included."""
    for memo in _MEMOS:
        memo.cache_clear()


def enumerate_partitions(n):
    """Yield the partitions of n as tuples, reverse-lexicographic (largest
    first).

    Each partition follows from the last by the reverse-lexicographic
    successor (algorithm ZS1 of Zoghbi and Stojmenovic): the last part
    above 1, x[h], drops by one to r, and the cells it freed together with
    the trailing ones are refilled by parts of r and a remainder.  Past
    index h the list holds only ones, so nothing needs clearing.
    """
    _require_size(n, "n")
    if not n:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0  # length, index of the last part above 1
    yield (n,)
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
        yield tuple(x[:m])


@_memo
def partition_tuples(n):
    """All partitions of n, in the order of enumerate_partitions, cached."""
    return tuple(enumerate_partitions(n))


def _pentagonal_term(i):
    """Term i (from 0) of _pentagonal_terms: k = i // 2 + 1."""
    k = i // 2 + 1
    return k * (3 * k + (1 if i % 2 else -1)) // 2, (-1) ** k


def _pentagonal_terms(order):
    """(e, c) for the nonzero c = [x^e] prod (1 - x^m), 1 <= e <= order, in
    increasing e: the generalized pentagonal numbers e = k(3k -+ 1)/2,
    k >= 1, with c = (-1)^k (Euler's pentagonal theorem)."""
    return list(takewhile(lambda term: term[0] <= order,
                          map(_pentagonal_term, count())))


@_memo
def _count_table():
    """partition_count's lists: p(0), p(1), ..., and the terms reached."""
    return [1], [_pentagonal_term(0)]


def partition_count(n):
    """p(n) by Euler's recurrence p(m) = -sum c p(m - e) over the terms
    (e, c) of _pentagonal_term (no enumeration).

    The table grows bottom-up, so a large n needs no deep recursion, and
    each term is built once, when the table reaches its e.
    """
    _require_int(n, "n")
    if n < 0:
        return 0
    table, terms = _count_table()
    for m in range(len(table), n + 1):
        if terms[-1][0] <= m:  # e rises by at least 1: this e is m
            terms.append(_pentagonal_term(len(terms)))
        p = 0
        for e, c in terms:
            if e > m:
                break
            p -= c * table[m - e]
        table.append(p)
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
    """All hook lengths, row-major, of a partition it checks first."""
    _require_partition(parts)
    conj = conjugate_of(parts)
    out = []
    for i, row in enumerate(parts):
        for j in range(row):
            out.append(row - j + conj[j] - i - 1)
    return tuple(out)


@_memo
def hook_lists(n):
    """Hook lengths of each partition of n as bytes, aligned index-by-index
    with partition_tuples(n).  No hook exceeds n, so n must be <= 255.
    Only tests and perfbench's tracer (its cache_info()) read it."""
    if n > 255:
        raise ValueError("hook_lists needs n <= 255, got %d" % n)
    return tuple(map(bytes, map(hooks_of, partition_tuples(n))))


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


def _require_partition(parts):
    """Raise a ValueError unless the sequence parts is weakly decreasing
    and made of positive ints (a bool is not one)."""
    for i, row in enumerate(parts):
        if type(row) is not int or row < 1:
            raise ValueError("parts must be positive integers: %r"
                             % (tuple(parts),))
        if i and parts[i - 1] < row:
            raise ValueError("parts must be weakly decreasing: %r"
                             % (tuple(parts),))


def validate_partition(parts):
    """The parts as a tuple, checked by _require_partition."""
    parts = tuple(parts)
    _require_partition(parts)
    return parts


# ---------------------------------------------------------------------------
# hook products

def syt_count_of(parts):
    """Number of standard Young tableaux: n! divided by the hook product."""
    ph = prod(hooks_of(parts))
    f, rem = divmod(factorial(sum(parts)), ph)
    _invariant(not rem, "hook product must divide n!")
    return f


def hook_beta_poly_of(parts):
    """prod over cells of (1 - beta/h^2), as a BetaPoly in beta.

    Computed as prod(h^2 - beta) over prod(h^2), all in integer arithmetic.
    """
    hooks = hooks_of(parts)
    den = prod(hooks) ** 2
    return BetaPoly([Fraction(c, den) for c in roots_poly(h * h for h in hooks)])


def hook_eval_product(parts, beta):
    """prod over cells of (1 - beta/h^2) at an exact rational beta."""
    _require_exact(beta, "beta")
    hooks = hooks_of(parts)
    p, q = beta.numerator, beta.denominator
    num = 1
    den = 1
    for h in hooks:
        h2 = h * h
        num *= q * h2 - p
        den *= h2
    return Fraction(num, den * q ** sum(parts))


# ---------------------------------------------------------------------------
# the top-row walk, and the hook sweep: the hook-product sums of every size
# n <= N in one walk

def _top_row_walk(N, visit, state, t=None):
    """Walk the tall partitions (mu_1 <= rows) of every size <= N, with the
    wide ones on the way to them, depth first.

    The walk grows mu by a new top row of length L >= mu_1: the cells below
    keep their hooks, and the new row's hooks are L - j + mu'_j + 1 for
    j = 1..L, read from the column lengths mu' (adding the largest bead of
    a beta-set, Macdonald I.1).  Each child is passed to
    visit(state, weight, hooks, n), with the parent's state and its size n;
    what visit returns is the state of the child's subtree.  The root, the
    empty partition, is not visited.  Each prefix is shared by all its
    extensions and the stack holds O(N) values.

    Conjugation keeps the hooks, so a statistic of the hooks needs only the
    tall member of each conjugate pair: weight is 2 when mu_1 < rows (the
    child stands for its conjugate too), 1 when mu_1 = rows and 0 when
    mu_1 > rows (its conjugate is visited).  A node pays its new row's
    length in cells, so the tall member is the cheap one.  A child of top
    row L needs at least L - rows more rows, of at least L cells each,
    before it is tall; it is entered only while they fit, and since that
    need grows with L the first L that fails ends the loop.  By the same
    rule at L' = L, a child whose own first row does not fit is a leaf, and
    the walk does not descend into it.

    Given t, a child with a hook of length t is skipped with its subtree:
    every extension keeps that hook, so none of them is a t-core.
    """
    _require_size(N, "N")
    cols = [0] * N  # mu'_j at cols[j - 1]
    downs = [range(L, 0, -1) for L in range(N + 1)]  # L - j + 1, j = 1..L
    succ = (1).__add__

    def fits(L, rows, room):
        # a new top row of L cells, the rows-th row, with room cells left
        # for it and for the L - rows rows of >= L cells still to come
        return L <= room and (L - rows) * L <= room - L

    def grow(n, top, rows, state):
        rows += 1  # the children's row count
        room = N - n
        for L in count(max(top, 1)):
            if not fits(L, rows, room):
                break
            hooks = list(map(add, downs[L], cols))
            if t and t in hooks:
                continue
            child = visit(state, (L < rows) + (L <= rows), hooks, n + L)
            if fits(L, rows + 1, room - L):
                below = cols[:L]
                cols[:L] = map(succ, below)
                grow(n + L, L, rows, child)
                cols[:L] = below

    grow(0, 0, 0, state)


def _hook_sweep(N, cell):
    """[sum over partitions of n of f^2 * P for n = 0..N], f = n!/prod h.

    P starts at 1 and each cell of hook h turns it into cell(P, h), along
    one _top_row_walk.
    """
    fact = [factorial(n) for n in range(N + 1)]
    sums = [1] + [0] * N  # the empty partition: f = 1, P = 1

    def visit(state, weight, hooks, n):
        H, P = state
        H *= prod(hooks)
        for h in hooks:
            P = cell(P, h)
        if weight:
            f = fact[n] // H
            sums[n] += weight * f * f * P
        return H, P

    _top_row_walk(N, visit, (1, 1))
    return sums


def _packing_bits(N):
    """Bits per coefficient for sweep sums of size <= N packed at X = 2^B.

    prod(h^2 + X) has non-negative coefficients, each at most 2^n prod h^2,
    so slot n's coefficients are at most p(n) 2^n n!^2 <= 4^N N!^2, as each
    partition of n >= 1 is a composition (p(n) <= 2^n): B - 2 bits hold them.
    """
    return (factorial(N) ** 2 << 2 * N).bit_length() + 2


def _slots(packed, count, B):
    """The `count` B-bit slots of a packed sum, lowest first.  No bits may
    lie past the last slot; ArithmeticError otherwise."""
    mask = (1 << B) - 1
    out = []
    for _ in range(count):
        out.append(packed & mask)
        packed >>= B
    _invariant(not packed, "packed sum has bits past its %d slots", count)
    return out


def _unpack_hook_sum(packed, n, B):
    """The BetaPoly (1/n!^2) sum f^2 prod(h^2 - beta) from its value at
    -beta = X = 2^B.  Every coefficient must divide exactly by n!
    (Corollary 2.3); ArithmeticError otherwise.
    """
    fact = factorial(n)
    coeffs = []
    for k, slot in enumerate(_slots(packed, n + 1, B)):
        c, rem = divmod(slot, fact)
        _invariant(not rem, "packed hook sum of size %d: coefficient %d "
                   "is not divisible by %d!", n, k, n)
        coeffs.append(Fraction(-c if k % 2 else c, fact))
    return BetaPoly(coeffs)


@_memo
def _hook_sums_poly(N):
    """The symbolic sweep of size N as a tuple of (immutable) BetaPolys.

    The sweep carries P = prod(h^2 + X), X = -beta, as one integer at
    X = 2^B (Kronecker substitution), so each cell costs h^2 P + (P << B).
    The public callers check N first, ahead of factorial(N) in
    _packing_bits.
    """
    B = _packing_bits(N)
    sums = _hook_sweep(N, lambda P, h: h * h * P + (P << B))
    return tuple(_unpack_hook_sum(s, n, B) for n, s in enumerate(sums))


def hook_beta_sums_poly(N):
    """[sum over partitions of n of prod(1 - beta/h^2) for n = 0..N], each
    a BetaPoly, from one cached sweep."""
    _require_size(N, "N")
    return list(_hook_sums_poly(N))


def hook_beta_sums(N, beta):
    """[sum over partitions of n of prod(1 - beta/h^2) for n = 0..N] at an
    exact rational beta: the symbolic sums of the sweep, evaluated."""
    _require_size(N, "N")
    _require_exact(beta, "beta")
    return [poly.eval(beta) for poly in _hook_sums_poly(N)]


def hook_beta_sum(n, beta):
    """sum over partitions of n of prod(1 - beta/h^2), exactly."""
    _require_size(n, "n")
    _require_exact(beta, "beta")
    return _hook_sums_poly(n)[n].eval(beta)


def hook_beta_sum_poly(n):
    """sum over partitions of n of prod(1 - beta/h^2), as a BetaPoly."""
    _require_size(n, "n")
    return _hook_sums_poly(n)[n]


# ---------------------------------------------------------------------------
# the hook-count census and the hook power moments: sums over the cells of
# each partition, from one walk over every size n <= N

def _cell_sum_powers(N, w, power):
    """[sum over partitions of n of (sum over cells of w[h - 1]) ** power
    for n = 0..N], power >= 1, from one walk."""
    w = dict(enumerate(w, 1))  # hook length -> weight
    sums = [0] * (N + 1)  # the empty partition's cell sum is 0

    def visit(S, weight, hooks, n):
        S += sum(map(w.__getitem__, hooks))
        if weight:
            sums[n] += weight * S ** power
        return S

    _top_row_walk(N, visit, 0)
    return sums


@_memo
def _hook_censuses(N):
    """hook_count_census(n)[1:] for n = 0..N: slot h - 1 of B bits counts
    the cells of hook h, at most the n p(n) <= N 2^N cells of size n (see
    _packing_bits for p(n) <= 2^n)."""
    B = (N << N).bit_length()
    packed = _cell_sum_powers(N, [1 << k * B for k in range(N)], 1)
    return tuple(tuple(_slots(s, n, B)) for n, s in enumerate(packed))


def hook_count_census(n):
    """Int tuple C: C[h] cells of hook length h over the partitions of n."""
    _require_size(n, "n")
    return (0,) + _hook_censuses(n)[n]


def _power_weights(n, alpha):
    """Ints w[h - 1], d with h^alpha = w[h - 1] / d for 1 <= h <= n; alpha
    must be an int (not a bool)."""
    _require_int(alpha, "alpha")
    d = 1 if alpha >= 0 else lcm(*range(1, n + 1)) ** -alpha
    return [h ** alpha if alpha >= 0 else d // h ** -alpha
            for h in range(1, n + 1)], d


def hook_power_moments(N, alpha):
    """[sum over partitions of n of sum over cells of h^alpha for
    n = 0..N] (integer alpha), from one cached census walk."""
    _require_size(N, "N")
    w, d = _power_weights(N, alpha)
    return [Fraction(sum(map(mul, census, w)), d) for census in _hook_censuses(N)]


@_memo
def _hook_moments2(N, alpha):
    w, d = _power_weights(N, alpha)
    return tuple(Fraction(s, d * d) for s in _cell_sum_powers(N, w, 2))


def hook_power_moments2(N, alpha):
    """[sum over partitions of n of (sum over cells of h^alpha)^2 for
    n = 0..N], from one cached walk."""
    _require_size(N, "N")
    return list(_hook_moments2(N, alpha))


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
