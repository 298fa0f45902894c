from collections import Counter
from fractions import Fraction
from math import factorial
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from hookexp.partition import (
    b_stat_of,
    conjugate_of,
    enumerate_partitions,
    first_column_hooks_of,
    hook_beta_poly_of,
    hook_beta_sum,
    hook_beta_sum_poly,
    hook_beta_sums,
    hook_beta_sums_poly,
    hook_count_census,
    hook_eval_product,
    hook_lists,
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
    validate_partition,
)
from hookexp.exactnum import BetaPoly


def test_partitions_of_4_reverse_lexicographic():
    assert partition_tuples(4) == (
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_of_0_is_the_empty_partition():
    assert partition_tuples(0) == ((),)


def _gen_desc(remaining, cap):
    # the recursive generator that partition_tuples used before the
    # successor loop: parts of `remaining`, each <= cap, reverse-lex
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in _gen_desc(remaining - first, first):
            yield (first,) + rest


def test_partition_tuples_match_the_recursive_generator():
    for n in range(31):
        want = tuple(_gen_desc(n, n)) if n else ((),)
        assert partition_tuples(n) == want, n
        assert tuple(enumerate_partitions(n)) == want, n
        assert len(want) == partition_count(n)
    with pytest.raises(ValueError):
        partition_tuples(-1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        next(enumerate_partitions(-1))


def test_hook_rows_are_bytes_of_the_hooks():
    for n in range(13):
        rows = hook_lists(n)
        assert rows == tuple(bytes(hooks_of(p)) for p in partition_tuples(n))


def test_hook_rows_refuse_n_past_a_byte_at_once():
    before = partition_tuples.cache_info()
    with pytest.raises(ValueError, match="n <= 255"):
        hook_lists(256)
    assert partition_tuples.cache_info() == before


def test_enumeration_count_matches_recurrence():
    # the pentagonal recurrence is an independent oracle for the counts
    for n in range(13):
        assert len(partition_tuples(n)) == partition_count(n)
    assert partition_count(30) == 5604
    assert partition_count(100) == 190569292


def test_partition_count_builds_each_pentagonal_term_once(monkeypatch):
    # a caller that grows the table one size at a time, as the CLI's guard
    # does, must not rebuild the term list at each size
    import hookexp.partition as part
    terms = part._pentagonal_terms(3000)
    want = [1]
    for m in range(1, 3001):
        want.append(-sum(c * want[m - e] for e, c in terms if e <= m))
    term = part._pentagonal_term
    built = Counter()

    def counted(i):
        built[i] += 1
        return term(i)

    def refuse(*args):
        raise AssertionError("partition_count must not rebuild the term list")
    monkeypatch.setattr(part, "_pentagonal_term", counted)
    monkeypatch.setattr(part, "_pentagonal_terms", refuse)
    monkeypatch.setattr(part, "_PARTITION_COUNTS", [1])
    monkeypatch.setattr(part, "_COUNT_TERMS", [term(0)])
    assert [partition_count(n) for n in range(3001)] == want
    # every term with e <= 3000 once, and the next one ahead
    assert built == Counter(range(1, len(terms) + 1))
    # a table reset on its own still reads only the terms it has reached
    monkeypatch.setattr(part, "_PARTITION_COUNTS", [1])
    assert partition_count(100) == want[100]


def test_conjugate():
    assert conjugate_of((6, 3, 3, 2)) == (4, 4, 3, 1, 1, 1)
    assert conjugate_of(()) == ()
    for parts in partition_tuples(8):
        assert conjugate_of(conjugate_of(parts)) == parts


def test_hooks_of_known_shape():
    # cell-by-cell hook lengths of (6,3,3,2)
    assert hooks_of((6, 3, 3, 2)) == (9, 8, 6, 3, 2, 1, 5, 4, 2, 4, 3, 1, 2, 1)


def test_hooks_are_conjugation_invariant():
    for parts in partition_tuples(9):
        assert sorted(hooks_of(parts)) == sorted(hooks_of(conjugate_of(parts)))


def test_first_column_hooks():
    # staircase (4,3,2,1): distinct odd first-column hooks
    assert first_column_hooks_of((4, 3, 2, 1)) == (7, 5, 3, 1)
    assert first_column_hooks_of(()) == ()


def test_validate_partition_rejects_bad_input():
    for bad in [(1, 2), (3, 0), (2, -1)]:
        with pytest.raises(ValueError):
            validate_partition(bad)


def test_partition_count_needs_no_deep_recursion():
    assert partition_count(1000) == 24061467864032622473692149727991
    assert partition_count(-1) == 0


def test_conjugate_against_a_cell_count():
    for n in range(15):
        for parts in partition_tuples(n):
            cols = parts[0] if parts else 0
            want = tuple(sum(1 for row in parts if row > j) for j in range(cols))
            assert conjugate_of(parts) == want


def _validate_by_loop(parts):
    # the part-by-part check with its messages, as an oracle
    parts = tuple(parts)
    for i, row in enumerate(parts):
        if type(row) is not int or row < 1:
            raise ValueError("parts must be positive integers: %r" % (parts,))
        if i and parts[i - 1] < row:
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
    return parts


def _outcome(fn, parts):
    try:
        return "ok", fn(parts)
    except ValueError as exc:
        return "error", str(exc)


_PART = st.one_of(st.integers(-3, 7), st.integers(-3, 7), st.just(2.0),
                  st.just("2"), st.just(None), st.just(True))


@settings(max_examples=300, deadline=None)
@given(st.lists(_PART, max_size=7))
def test_validate_partition_messages_match_the_loop(parts):
    assert _outcome(validate_partition, parts) == _outcome(_validate_by_loop, parts)


def test_validate_partition_messages_on_known_bad_tuples():
    cases = {
        (3, 0): "parts must be positive integers: (3, 0)",
        (2, -1): "parts must be positive integers: (2, -1)",
        (1, 2): "parts must be weakly decreasing: (1, 2)",
        (2, 1.0): "parts must be positive integers: (2, 1.0)",
        (3, 4, 0): "parts must be weakly decreasing: (3, 4, 0)",
    }
    # (2, True) equals the key (2, 1.0), so it is listed apart
    for bad, message in [*cases.items(),
                         ((2, True), "parts must be positive integers: (2, True)")]:
        with pytest.raises(ValueError) as info:
            validate_partition(bad)
        assert str(info.value) == message


def _syt_recurrence(parts, cache={(): 1}):
    # remove a corner cell in every possible way; independent of hooks
    parts = tuple(parts)
    if parts in cache:
        return cache[parts]
    total = 0
    for i, p in enumerate(parts):
        if i + 1 < len(parts) and parts[i + 1] == p:
            continue
        smaller = parts[:i] + ((p - 1,) if p > 1 else ()) + parts[i + 1:]
        total += _syt_recurrence(smaller)
    cache[parts] = total
    return total


def test_syt_count_matches_corner_removal_recurrence():
    for n in range(9):
        for parts in partition_tuples(n):
            assert syt_count_of(parts) == _syt_recurrence(parts)


def test_syt_squares_sum_to_factorial():
    for n in range(9):
        assert sum(syt_count_of(p) ** 2 for p in partition_tuples(n)) == factorial(n)


def test_hook_multiset_all_vs_duplicated_parts():
    # H(4): multiset of all hooks over all partitions of 4
    assert hook_multiset_all(4) == {1: 7, 2: 6, 3: 3, 4: 4}
    for n in range(11):
        assert hook_multiset_all(n) == parts_multiset_duplicated(n)


def test_part_occurrence_census_vs_cells():
    for n in range(10):
        census = part_occurrence_census(n)
        cells = hook_type_census(n)
        for k in range(1, n + 1):
            for j in range(k):
                assert cells.get((j, k - 1 - j), 0) == census.get(k, 0)


def test_staircase_products_at_beta_4():
    # only staircases survive at beta = 4, each contributing (-1)^m (2m+1)
    for m in range(1, 7):
        got = hook_eval_product(staircase(m), 4)
        assert got == (-1) ** m * (2 * m + 1)
    # no float and no bool is taken for an exact beta
    for bad in (4.0, 0.5, True, False):
        with pytest.raises(ValueError, match="^beta must be an int or a "
                           "Fraction, got %r$" % (bad,)):
            hook_eval_product((2, 1), bad)
        with pytest.raises(ValueError, match="^beta must be an int or a "
                           "Fraction, got %r$" % (bad,)):
            hook_beta_sums(3, bad)


def test_doubled_staircase_products_at_beta_9():
    # 3-cores (k, k-1, ..., 1) doubled: (2k-1, 2k-3, ..., 1) pattern
    for k in range(1, 6):
        parts = tuple(row for j in range(k, 0, -1) for row in (j, j))
        got = hook_eval_product(parts, 9)
        assert got == Fraction((3 * k + 1) * (3 * k + 2), 2)


def test_hook_sum_vanishes_at_beta_2_off_pentagonal():
    assert hook_beta_sum(4, 2) == 0
    assert hook_beta_sum(5, 2) == 1  # pentagonal number 5, sign +
    assert hook_beta_sum(7, 2) == 1


# Per-partition hook sums over the hooks of each partition of n: the
# sweep-free oracles (the library's per-n bodies before the sweep).

def _oracle_hook_beta_sum(n, beta):
    beta = Fraction(beta)
    p, q = beta.numerator, beta.denominator
    fact = factorial(n)
    total = 0
    for hooks in map(hooks_of, partition_tuples(n)):
        num = 1
        ph = 1
        for h in hooks:
            ph *= h
            num *= q * h * h - p
        f = fact // ph
        total += f * f * num
    return Fraction(total, fact * fact * q ** n)


def _oracle_hook_beta_sum_poly(n):
    fact = factorial(n)
    acc = [0] * (n + 1)
    for hooks in map(hooks_of, partition_tuples(n)):
        poly = [1]  # prod(h^2 - beta), lowest degree first
        ph = 1
        for h in hooks:
            h2 = h * h
            ph *= h
            poly.append(-poly[-1])
            for i in range(len(poly) - 2, 0, -1):
                poly[i] = h2 * poly[i] - poly[i - 1]
            poly[0] = h2 * poly[0]
        f = fact // ph
        for i, c in enumerate(poly):
            acc[i] += f * f * c
    fact2 = fact * fact
    return BetaPoly([Fraction(c, fact2) for c in acc])


def test_hook_beta_sum_poly_matches_per_partition_oracle():
    for n in range(9):
        want = BetaPoly()
        for parts in partition_tuples(n):
            term = BetaPoly.constant(1)
            for h in hooks_of(parts):
                term = term * BetaPoly([1, Fraction(-1, h * h)])
            assert hook_beta_poly_of(parts) == term
            want = want + term
        assert hook_beta_sum_poly(n) == want
        assert _oracle_hook_beta_sum_poly(n) == want


def test_hook_beta_sum_agrees_with_poly_eval():
    for n in range(8):
        poly = hook_beta_sum_poly(n)
        for beta in [Fraction(0), Fraction(2), Fraction(25), Fraction(-3, 2)]:
            assert hook_beta_sum(n, beta) == poly.eval(beta)
            assert _oracle_hook_beta_sum(n, beta) == poly.eval(beta)


SWEEP_POLYS = hook_beta_sums_poly(20)


def test_symbolic_sweep_matches_per_partition_sums():
    assert len(SWEEP_POLYS) == 21
    for n in range(21):
        assert SWEEP_POLYS[n] == sum(map(hook_beta_poly_of, partition_tuples(n)),
                                     BetaPoly())
        assert hook_beta_sums_poly(n) == SWEEP_POLYS[:n + 1]
    for n in range(13):
        assert SWEEP_POLYS[n] == _oracle_hook_beta_sum_poly(n)


rationals_50 = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 18), rationals_50)
def test_numeric_sweep_matches_oracle_and_symbolic_sweep(N, beta):
    sums = hook_beta_sums(N, beta)
    assert len(sums) == N + 1 and all(type(v) is Fraction for v in sums)
    for n, value in enumerate(sums):
        assert value == _oracle_hook_beta_sum(n, beta)
        assert value == SWEEP_POLYS[n].eval(beta)
    assert hook_beta_sum(N, beta) == sums[N]


def test_sweep_builds_no_partition_table(monkeypatch):
    import hookexp.partition as part
    part._hook_sums_poly.cache_clear()  # so that the sweep runs here

    def refuse(*args):
        raise AssertionError("the sweep must not enumerate partitions")
    for name in ("hooks_of", "hook_lists", "partition_tuples"):
        monkeypatch.setattr(part, name, refuse)
    assert part.hook_beta_sums_poly(12) == SWEEP_POLYS[:13]
    assert part.hook_beta_sums(12, 7) == [p.eval(7) for p in SWEEP_POLYS[:13]]


def test_sweep_walks_the_tall_member_of_each_conjugate_pair():
    # one cell update per new-row cell of each node entered: the walk over
    # the tall members (mu_1 <= rows) makes 254,536 at N = 34, where the
    # wide members (mu_1 >= rows) would take 443,927
    import hookexp.partition as part
    calls = [0]

    def cell(P, h):
        calls[0] += 1
        return P
    sums = part._hook_sweep(34, cell)
    assert calls[0] == 254536
    assert sums == [factorial(n) for n in range(35)]  # sum f^2 = n!


def _column_loop_walk(N, visit, state, t=None):
    """The top-row walk with one loop per column update and no leaf test
    (every child entered is grown, leaves too): the oracle of the visits
    of _top_row_walk."""
    cols = [0] * N
    downs = [range(L, 0, -1) for L in range(N + 1)]

    def grow(n, top, rows, state):
        rows += 1
        for L in range(max(top, 1), N - n + 1):
            if (L - rows) * L > N - n - L:
                break
            hooks = list(map(add, downs[L], cols))
            if t and t in hooks:
                continue
            child = visit(state, (L < rows) + (L <= rows), hooks, n + L)
            for j in range(L):
                cols[j] += 1
            grow(n + L, L, rows, child)
            for j in range(L):
                cols[j] -= 1

    grow(0, 0, 0, state)


def test_walk_visits_what_the_column_loop_walk_visits():
    import hookexp.partition as part
    for t in (None, 1, 2, 3, 5):
        for N in range(15):
            runs = []
            for walk in (_column_loop_walk, part._top_row_walk):
                seen = []

                def visit(parent, weight, hooks, n):
                    # each node records its parent's index: the states too
                    seen.append((parent, weight, tuple(hooks), n))
                    return len(seen) - 1
                walk(N, visit, -1, t)
                runs.append(seen)
            assert runs[0] == runs[1], (N, t)


def test_sweep_rejects_negative_sizes():
    with pytest.raises(ValueError, match="N must be >= 0"):
        hook_beta_sums(-1, 2)
    with pytest.raises(ValueError, match="N must be >= 0"):
        hook_beta_sums_poly(-1)


def test_census_and_moments_reject_negative_sizes():
    # each refuses a negative size by its own parameter's name, as the
    # sweep does: no IndexError, no []
    for call, name in ((hook_count_census, "n"), (hook_multiset_all, "n"),
                       (lambda N: hook_power_moments(N, -2), "N"),
                       (lambda N: hook_power_moments2(N, -2), "N")):
        with pytest.raises(ValueError, match="^%s must be >= 0$" % name):
            call(-1)


def test_every_hook_sum_of_one_size_comes_from_one_sweep(monkeypatch):
    import hookexp.partition as part
    part._hook_sums_poly.cache_clear()
    sweeps = []
    sweep = part._hook_sweep

    def counted(N, cell):
        sweeps.append(N)
        return sweep(N, cell)
    monkeypatch.setattr(part, "_hook_sweep", counted)
    want = SWEEP_POLYS[:11]
    assert hook_beta_sums_poly(10) == want
    assert hook_beta_sums(10, 2) == [p.eval(2) for p in want]
    assert hook_beta_sums(10, Fraction(-7, 3)) == [p.eval(Fraction(-7, 3))
                                                   for p in want]
    assert hook_beta_sum(10, 5) == want[10].eval(5)
    assert hook_beta_sum_poly(10) == want[10]
    assert sweeps == [10]
    assert hook_beta_sums_poly(4) == want[:5]
    assert sweeps == [10, 4]


def test_callers_cannot_change_the_cached_sums():
    polys, values = hook_beta_sums_poly(8), hook_beta_sums(8, 3)
    polys[2] = values[2] = None
    polys.append(BetaPoly())
    values.clear()
    assert hook_beta_sums_poly(8) == SWEEP_POLYS[:9]
    assert hook_beta_sums(8, 3) == [p.eval(3) for p in SWEEP_POLYS[:9]]


def test_corrupted_packed_sum_raises_under_python_O():
    import subprocess
    import sys
    # one unit more in the lowest coefficient breaks the division by n!;
    # a bit past degree n is left over after unpacking
    sweep = ("B = P._packing_bits(6)\n"
             "walk = P._hook_sweep\n"
             "def bad(N, cell):\n"
             "    s = walk(N, cell)\n"
             "    s[6] = %s\n"
             "    return s\n"
             "P._hook_sweep = bad\n"
             "P.hook_beta_sums_poly(6)\n")
    # the census packs the count of hook h at w[h - 1] = 2^((h - 1)B), n
    # slots for size n: a bit just past hook n is left over too, and so is
    # any bit of size 0, which has no slot
    census = ("walk = P._cell_sum_powers\n"
              "def bad(N, w, power):\n"
              "    s = walk(N, w, power)\n"
              "    s[%d] += %s\n"
              "    return s\n"
              "P._cell_sum_powers = bad\n"
              "P.hook_count_census(%d)\n")
    for code in (sweep % "s[6] + 1", sweep % "s[6] + (1 << 7 * B)",
                 census % (6, "w[5] << w[1].bit_length() - 1", 6),
                 census % (0, "1", 0), census % (0, "1 << 40", 6)):
        run = subprocess.run([sys.executable, "-O", "-c",
                              "import hookexp.partition as P\n" + code],
                             capture_output=True, text=True)
        assert run.returncode == 1, code
        assert "ArithmeticError" in run.stderr, run.stderr


# Per-partition Fraction sums of hook statistics: the census-free oracle.

def _stat_sum(n, stat):
    return sum((stat(hooks_of(parts)) for parts in partition_tuples(n)),
               Fraction(0))


def _power_stat(hooks, alpha):
    if alpha >= 0:
        return Fraction(sum(h ** alpha for h in hooks))
    return sum(Fraction(1, h ** -alpha) for h in hooks)


def _pair_stat(hooks):
    s1 = sum(Fraction(1, h * h) for h in hooks)
    s2 = sum(Fraction(1, h ** 4) for h in hooks)
    return (s1 * s1 - s2) / 2


def _sq_stat(hooks):
    s1 = sum(Fraction(1, h * h) for h in hooks)
    return s1 * s1


def test_census_matches_per_partition_hook_counts():
    for n in range(13):
        census = hook_count_census(n)
        assert type(census) is tuple and all(type(c) is int for c in census)
        counts = [[hooks_of(parts).count(h) for h in range(n + 1)]
                  for parts in partition_tuples(n)]
        assert list(census) == [sum(c[h] for c in counts) for h in range(n + 1)]
        assert hook_multiset_all(n) == Counter(
            h for parts in partition_tuples(n) for h in hooks_of(parts))


def test_census_dot_products_match_the_section_6_statistics():
    for m in range(13):
        for alpha in (-4, -2, -1, 0, 1, 2):
            assert hook_power_moments(m, alpha)[m] == _stat_sum(
                m, lambda hooks: _power_stat(hooks, alpha))
        pair = (hook_power_moments2(m, -2)[m] - hook_power_moments(m, -4)[m]) / 2
        assert pair == _stat_sum(m, _pair_stat)
        assert hook_power_moments2(m, -2)[m] == _stat_sum(m, _sq_stat)


def test_power_moments_refuse_a_non_int_alpha_before_any_walk(monkeypatch):
    import hookexp.partition as part
    assert hook_power_moments2(6, 1) == [_stat_sum(m, lambda hooks: sum(
        hooks, Fraction(0)) ** 2) for m in range(7)]  # (6, 1) is cached
    part._hook_censuses.cache_clear()

    def refuse(*args):
        raise AssertionError("alpha must be refused before the walk")
    monkeypatch.setattr(part, "_top_row_walk", refuse)
    for alpha in (Fraction(1, 2), True, False, 2.0, "2"):
        for moments in (hook_power_moments, hook_power_moments2):
            with pytest.raises(ValueError) as err:
                moments(6, alpha)
            assert str(err.value) == "alpha must be an integer, got %r" % (
                alpha,)


def test_census_and_moments_of_every_size_come_from_one_walk(monkeypatch):
    import hookexp.partition as part
    part._hook_censuses.cache_clear()
    part._hook_moments2.cache_clear()
    walks = []
    walk = part._top_row_walk

    def counted(N, visit, state, t=None):
        walks.append(N)
        return walk(N, visit, state, t)

    def refuse(*args):
        raise AssertionError("the census must not read a partition table")
    monkeypatch.setattr(part, "_top_row_walk", counted)
    for name in ("hooks_of", "hook_lists", "partition_tuples"):
        monkeypatch.setattr(part, name, refuse)
    N = 12
    for alpha in (-4, -2, -1, 0, 1, 2):
        assert part.hook_power_moments(N, alpha) == [
            _stat_sum(m, lambda hooks: _power_stat(hooks, alpha))
            for m in range(N + 1)]
    assert part.hook_power_moments2(N, -2) == [_stat_sum(m, _sq_stat)
                                               for m in range(N + 1)]
    assert walks == [N, N]  # one census walk, one second-moment walk


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 14), st.integers(-4, 4))
def test_census_power_moments_at_random_alpha(m, alpha):
    got = hook_power_moments(m, alpha)[m]
    assert type(got) is Fraction
    assert got == _stat_sum(m, lambda hooks: _power_stat(hooks, alpha))
    assert hook_power_moments2(m, alpha)[m] == _stat_sum(
        m, lambda hooks: _power_stat(hooks, alpha) ** 2)


def test_b_stat():
    # sum of (i-1) * lambda_i
    assert b_stat_of((4, 3, 2, 1)) == 0 * 4 + 1 * 3 + 2 * 2 + 3 * 1
    assert b_stat_of(()) == 0


PER_PARTITION = {
    "hooks_of": hooks_of,
    "syt_count_of": syt_count_of,
    "hook_beta_poly_of": hook_beta_poly_of,
    "hook_eval_product": lambda parts: hook_eval_product(parts, 2),
}


@pytest.mark.parametrize("name", sorted(PER_PARTITION))
def test_per_partition_functions_refuse_a_bad_partition(name):
    fn = PER_PARTITION[name]
    for bad, message in (
            ((1, 3), "parts must be weakly decreasing: (1, 3)"),
            ([1, 3], "parts must be weakly decreasing: (1, 3)"),
            ((2, 0), "parts must be positive integers: (2, 0)"),
            ((2, True), "parts must be positive integers: (2, True)"),
            ((2.0, 1), "parts must be positive integers: (2.0, 1)")):
        with pytest.raises(ValueError) as err:
            fn(bad)
        assert str(err.value) == message, name


@pytest.mark.parametrize("name", sorted(PER_PARTITION))
def test_per_partition_functions_check_the_parts_once(monkeypatch, name):
    import hookexp.partition as part
    calls = []
    check = part._require_partition

    def counting(parts):
        calls.append(parts)
        return check(parts)
    monkeypatch.setattr(part, "_require_partition", counting)
    PER_PARTITION[name]((3, 1))
    assert calls == [(3, 1)], name
