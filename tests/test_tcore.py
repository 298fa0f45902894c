from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import hookexp.tcore as T
from hookexp.partition import (
    enumerate_partitions,
    hook_eval_product,
    hooks_of,
    partition_tuples,
)
from hookexp.tcore import (
    HSet,
    _v_codings,
    core_from_v,
    core_product_from_v,
    core_weight_from_n,
    core_weight_from_v,
    enumerate_t_cores,
    h_set,
    is_t_core,
    n_coding,
    n_from_v,
    t_cores_upto,
    u_coding,
    u_from_v,
    v_coding,
    v_from_n,
    validate_t_compact,
)

# the worked 5-core used throughout: weight 54
CORE54 = (14, 10, 6, 6, 4, 4, 4, 2, 2, 2)


def test_is_t_core_against_all_hooks():
    for n in range(21):
        for parts in partition_tuples(n):
            hooks = hooks_of(parts)
            for t in range(1, n + 3):
                assert is_t_core(parts, t) == (t not in hooks), (parts, t)


def test_is_t_core_basic():
    assert is_t_core((), 3)
    assert is_t_core((1,), 2)
    assert not is_t_core((2,), 2)
    assert is_t_core(CORE54, 5)
    assert not is_t_core((3, 1, 1), 5)  # hook of length 5 at the corner


def test_h_set_of_the_worked_core():
    hs = h_set(CORE54, 5)
    assert hs.sorted_desc() == (
        23, 18, 13, 12, 9, 8, 7, 4, 3, 2, -1, -2, -3, -4, -5)


def test_h_set_rejects_t_multiples():
    with pytest.raises(ValueError):
        h_set((3, 1, 1), 5)
    with pytest.raises(ValueError):
        h_set(CORE54, 4)  # t must be odd and >= 3


def test_t_compact_validation():
    hs = h_set(CORE54, 5)
    validate_t_compact(hs.elements, 5)
    # drop the closure element 7 below 12: no longer 5-compact
    with pytest.raises(ValueError):
        HSet(5, frozenset(hs.elements - {7}))
    with pytest.raises(ValueError):
        validate_t_compact(hs.elements - {7}, 5)


def test_h_set_is_an_immutable_value():
    import pickle
    hs = h_set(CORE54, 5)
    same = HSet(5, frozenset(hs.elements))
    assert hs == same and hash(hs) == hash(same) and len({hs, same}) == 1
    assert hs != h_set(CORE54[1:], 5)
    assert pickle.loads(pickle.dumps(hs)) == hs
    with pytest.raises(AttributeError):
        hs.t = 7
    with pytest.raises(AttributeError):
        del hs.elements


def test_h_set_is_a_named_tuple_that_validates_every_build():
    import pickle
    hs = h_set(CORE54, 5)
    assert hs == (5, hs.elements) and len(hs) == 2 and tuple(hs)[0] == 5
    assert repr(hs) == "HSet(t=5, elements=%r)" % (hs.elements,)
    not_compact = hs.elements - {7}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(hs, protocol))
        assert type(back) is HSet and back == hs, protocol
        forged = tuple.__new__(HSet, (5, not_compact))  # skips the checks
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(forged, protocol))
    for build in (lambda: hs._replace(elements=not_compact),
                  lambda: HSet._make((5, not_compact)),
                  lambda: hs._replace(t=4)):
        with pytest.raises(ValueError):
            build()
    assert type(hs._replace(t=5)) is HSet
    for field in ("t", "elements"):
        with pytest.raises(AttributeError):
            setattr(hs, field, 7)
        with pytest.raises(AttributeError):
            delattr(hs, field)


def test_codings_of_the_worked_core():
    assert u_coding(CORE54, 5) == (-5, -4, 12, 23, 9)
    assert v_coding(CORE54, 5) == (5, 16, 2, -12, -11)
    assert n_coding(CORE54, 5) == (-2, -2, 1, 3, 0)


def test_codings_of_the_empty_core():
    assert u_coding((), 3) == (-3, -2, -1)
    assert v_coding((), 3) == (0, 1, -1)
    assert n_coding((), 3) == (0, 0, 0)
    assert core_weight_from_v((0, 1, -1), 3) == 0


def test_coding_translations_roundtrip():
    for t in (3, 5, 7):
        for n in range(16):
            for core in enumerate_t_cores(n, t):
                v = v_coding(core, t)
                nn = n_coding(core, t)
                assert v_from_n(nn, t) == v
                assert n_from_v(v, t) == nn
                assert u_from_v(v, t) == u_coding(core, t)
                assert core_from_v(v, t) == core


# the coding maps as plain residue loops, one each, to check the placements
def _u_loop(parts, t):
    best = {}  # the largest element of each residue class mod t
    for e in T._h_elements(parts, t):
        r = e % t
        if r not in best or e > best[r]:
            best[r] = e
    return tuple(best[i] for i in range(t))


def _v_loop(parts, t):
    u = _u_loop(parts, t)
    shift = sum(u) // t
    v = [None] * t
    for x in u:
        v[(x - shift) % t] = x - shift
    return tuple(v)


def _n_loop(parts, t):
    n = [None] * t
    for e in _u_loop(parts, t):
        d = e - len(parts)
        n[d % t] = d // t + 1
    return tuple(n)


def _v_from_n_loop(nvec, t):
    tp = (t - 1) // 2
    v = [0] * t
    for i in range(0, tp + 1):
        v[i] = t * nvec[i + tp] + i
    for i in range(tp + 1, t):
        v[i] = t * nvec[i - tp - 1] + i - t
    return tuple(v)


def _n_from_v_loop(vvec, t):
    tp = (t - 1) // 2
    n = [None] * t
    for v in vvec:
        j = (v + tp) % t
        n[j] = (v + tp - j) // t
    return tuple(n)


def _u_from_v_loop(vvec, t):
    shift = -t - min(vvec)
    u = [None] * t
    for v in vvec:
        u[(v + shift) % t] = v + shift
    return tuple(u)


def test_coding_maps_match_the_residue_loops():
    seen = 0
    for t in (3, 5, 7, 9, 11):
        for n in range(25):
            for core in enumerate_t_cores(n, t):  # the filter: no coding map
                u, v, nn = _u_loop(core, t), _v_loop(core, t), _n_loop(core, t)
                assert T._u_of(core, t) == u, (core, t)
                assert T._v_of(core, t) == v, (core, t)
                assert T._n_of(core, t) == nn, (core, t)
                assert v_from_n(nn, t) == _v_from_n_loop(nn, t) == v
                assert n_from_v(v, t) == _n_from_v_loop(v, t) == nn
                assert u_from_v(v, t) == _u_from_v_loop(v, t) == u
                seen += 1
    assert seen == 6515


def test_u_is_read_off_the_parts_of_every_partition(monkeypatch):
    # cores or not: with the u_0 check off, U is the largest element of
    # each residue class of the first-column hooks and -1..-t
    monkeypatch.setattr(T, "_invariant", lambda ok, what: None)
    for n in range(15):
        for parts in partition_tuples(n):
            for t in range(1, 17):
                assert T._u_of(parts, t) == _u_loop(parts, t), (parts, t)


def test_by_residue_refuses_a_repeated_or_missing_residue():
    assert T._by_residue((4, -1, 0), 3, "x") == (0, 4, -1)
    for values in ((1, 4, 2), (1, 2), (0, 1, 2, 3)):
        with pytest.raises(ArithmeticError, match="placed twice"):
            T._by_residue(values, 3, "placed twice")


def test_by_residue_refuses_a_repeated_residue_under_python_O():
    import subprocess
    import sys
    code = "import hookexp.tcore as T; T._by_residue((1, 4, 2), 3, 'twice')"
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert run.returncode != 0
    assert "ArithmeticError" in run.stderr and "twice" in run.stderr


def test_weight_formulas_agree_with_size():
    for t in (3, 5, 7):
        for n in range(16):
            for core in enumerate_t_cores(n, t):
                assert core_weight_from_v(v_coding(core, t), t) == n
                assert core_weight_from_n(n_coding(core, t), t) == n


def test_both_n_coding_readers_refuse_one_bad_shape_alike():
    for read in (v_from_n, core_weight_from_n):
        for nvec in ((0, 0), (0, 0, 0, 0), (1, 0, 0)):
            with pytest.raises(ValueError, match="^N-coding must have t "
                                                 "entries summing to zero$"):
                read(nvec, 3)
        with pytest.raises(ValueError, match="odd t >= 3"):
            read((0, 0, 0, 0), 4)


def test_worked_core_weight_and_product():
    v = v_coding(CORE54, 5)
    assert core_weight_from_v(v, 5) == 54
    assert core_product_from_v(v, 5) == 60035976
    assert hook_eval_product(CORE54, 25) == 60035976


def test_product_formula_matches_hooks_everywhere():
    for t in (3, 5):
        for n in range(13):
            for core in enumerate_t_cores(n, t):
                lhs = core_product_from_v(v_coding(core, t), t)
                assert lhs == hook_eval_product(core, t * t)


@settings(max_examples=60, deadline=None)
@given(t=st.sampled_from(range(3, 16, 2)), n=st.integers(0, 24))
def test_coding_matches_filter_and_every_coding_round_trips(t, n):
    cores = enumerate_t_cores(n, t, method="coding")
    assert cores == enumerate_t_cores(n, t, method="filter")
    for core in cores:
        v = v_coding(core, t)
        assert core_from_v(v, t) == core
        assert v_from_n(n_coding(core, t), t) == v
        assert u_from_v(v, t) == u_coding(core, t)


def test_coding_decode_checks_each_core_once(monkeypatch):
    # one hook check per decoded core, and no detour through the public
    # encoders, which would check the core again
    calls = Counter()

    def counting(name):
        original = getattr(T, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("is_t_core", "h_set", "u_coding", "v_coding"):
        monkeypatch.setattr(T, name, counting(name))
    cores = enumerate_t_cores(40, 5, method="coding")
    assert len(cores) > 1
    assert calls == Counter(is_t_core=len(cores))


def test_five_cores_of_five():
    assert enumerate_t_cores(5, 5) == [(3, 2), (2, 2, 1)]


def test_filter_and_coding_enumerations_agree():
    for t in (3, 5, 7, 9, 11, 13):
        for n in range(17):
            a = enumerate_t_cores(n, t, method="filter")
            b = enumerate_t_cores(n, t, method="coding")
            assert a == b


def test_five_core_counts_to_300_match_the_eta_quotient():
    # #5-cores of n = [x^n] prod (1-x^{5m})^5 / (1-x^m), in integers
    N = 300
    ser = [1] + [0] * N
    for m in range(5, N + 1, 5):  # times (1 - x^m)^5
        for _ in range(5):
            for i in range(N, m - 1, -1):
                ser[i] -= ser[i - m]
    for m in range(1, N + 1):  # divided by (1 - x^m)
        for i in range(m, N + 1):
            ser[i] += ser[i - m]
    for n in range(N + 1):
        assert len(_v_codings(n, 5, lambda v: v)) == ser[n], n
    for n in (0, 1, 2, 151, 299, 300):  # decoding keeps every coding
        assert len(enumerate_t_cores(n, 5, method="coding")) == ser[n], n


def _codings_by_scan(n, t):
    # every coordinate over one box |m| <= bound, pruned by a per-coordinate
    # least weight that ignores the zero sum: the search before the
    # Cauchy-Schwarz bound, kept as an oracle
    bound = ((t - 1) + isqrt((t - 1) ** 2 + 2 * t * n)) // t + 1
    twice = [[t * m * m + 2 * i * m for m in range(-bound, bound + 1)]
             for i in range(t)]
    tail_least = [0] * (t + 1)
    for i in range(t - 1, -1, -1):
        tail_least[i] = tail_least[i + 1] + min(twice[i])
    out = []
    vec = [0] * t

    def descend(i, rsum, acc):
        if i == t - 1:
            m = -rsum
            if abs(m) <= bound and acc + t * m * m + 2 * i * m == 2 * n:
                vec[i] = m
                out.append(tuple(vec))
            return
        for k, w in enumerate(twice[i]):
            if acc + w + tail_least[i + 1] <= 2 * n:
                vec[i] = k - bound
                descend(i + 1, rsum + k - bound, acc + w)

    descend(0, 0, 0)
    return out


def test_coding_search_matches_the_box_scan():
    # the scan works on N-codings, so it shares no bound with the V search
    for t, top in ((3, 120), (5, 60), (7, 30), (9, 16), (11, 10)):
        for n in range(top):
            got = _v_codings(n, t, lambda v: v)  # lexicographic
            want = sorted(v_from_n(m, t) for m in _codings_by_scan(n, t))
            assert got == sorted(got) == want, (n, t)


def test_filter_takes_a_t_past_every_hook():
    # no hook of a partition of 5 is 300, so the walk prunes nothing
    assert enumerate_t_cores(5, 300) == list(partition_tuples(5))


def test_walk_listing_matches_an_is_t_core_scan():
    # every t = 1..9, including t > n, at every size n <= 20
    for t in range(1, 10):
        listed = t_cores_upto(20, t)
        for n in range(21):
            want = [p for p in enumerate_partitions(n) if is_t_core(p, t)]
            assert list(listed[n]) == want, (n, t)
            assert enumerate_t_cores(n, t) == want, (n, t)


def test_walk_listing_reads_no_partition_table():
    from hookexp.partition import _clear_memos, hook_lists
    _clear_memos()
    before = partition_tuples.cache_info(), hook_lists.cache_info()
    assert len(t_cores_upto(40, 4)[40]) == 7  # [x^40] of the eta quotient
    assert (partition_tuples.cache_info(), hook_lists.cache_info()) == before


def test_walk_listing_rejects_bad_input():
    with pytest.raises(ValueError, match="n must be >= 0"):
        t_cores_upto(-1, 3)
    for t in (0, -2, 2.0, None):
        for call in (lambda: t_cores_upto(5, t), lambda: is_t_core((2, 1), t)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "t must be a positive integer"


def test_enumerate_rejects_negative_n():
    for method in ("filter", "coding"):
        with pytest.raises(ValueError):
            enumerate_t_cores(-1, 5, method=method)


def test_enumerate_rejects_unknown_method():
    with pytest.raises(ValueError):
        enumerate_t_cores(4, 3, method="guess")


def test_core_counts_match_eta_quotient():
    # #t-cores of n = [x^n] prod (1-x^{tm})^t / (1-x^m); the sizes past 255
    # were out of reach of the per-size hook table
    from hookexp.series import euler_product_direct, partition_gf
    N = 300
    for t, sizes in ((3, (256, 300)), (4, (256, 300)), (5, ())):
        ser = euler_product_direct(t, N, step=t) * partition_gf(N)
        for n in [*range(19), *sizes]:
            assert len(enumerate_t_cores(n, t)) == ser[n], (n, t)


def test_first_column_erasure_ratio():
    # removing the first column scales the difference product by
    # prod (u_j + t) / u_j over the positive-slot entries
    for t in (3, 5):
        for n in range(1, 13):
            for core in enumerate_t_cores(n, t):
                erased = tuple(x - 1 for x in core if x > 1)
                assert is_t_core(erased, t)
                u = u_coding(core, t)
                u2 = u_coding(erased, t)

                def dp(vec):
                    out = 1
                    for i in range(len(vec)):
                        for j in range(i + 1, len(vec)):
                            out *= vec[i] - vec[j]
                    return out

                ratio = Fraction(dp(u), dp(u2))
                want = Fraction(1)
                for uj in u[1:]:
                    want *= Fraction(uj + t, uj)
                assert ratio == want


def test_erasure_example():
    # erasing the first column of the worked core shifts U as documented
    erased = tuple(x - 1 for x in CORE54 if x > 1)
    assert u_coding(erased, 5) == (-5, 11, 22, 8, -1)


def test_all_partitions_filtered():
    # cross-check the filter route against a hand enumeration at n=6, t=3
    cores = [p for p in partition_tuples(6) if is_t_core(p, 3)]
    assert cores == enumerate_t_cores(6, 3)
