import json
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from hookexp import identities, partition, tcore
from hookexp.exactnum import BetaPoly
from hookexp.partition import (
    b_stat_of,
    contents_of,
    hook_beta_sum_poly,
    hooks_of,
    partition_tuples,
    syt_count_of,
)
from hookexp.series import Series, euler_power_formal, schur_principal_x
from hookexp.tcore import h_set, u_coding
from hookexp.identities import (
    REGISTRY,
    VerificationReport,
    budget_params,
    verify,
    verify_all,
)

ALL_IDS = [
    "main-identity", "theorem-2-1", "corollary-2-3", "corollary-2-4",
    "corollary-2-6", "rsk-square-sum", "pp-identity", "pentagonal-beta2",
    "tau-5core", "jacobi-beta4", "eta8-beta9", "gks-weight", "phi-v-theorem",
    "lemma-5-5", "lemma-5-6", "macdonald", "prop-6-1", "thm-6-2", "sebbm",
    "prop-6-4", "cor-6-7", "prop-6-8", "thm-6-9", "marked-hook", "prop-6-11",
    "prop-6-12", "kostant-poly", "kostant-sign", "cauchy-special", "thm-8-3",
    "magic", "euler-cor-8-4", "reversion", "cor-9-2",
]

# the closed form recorded for prop-6-12 is off by n(n-1)(n-2) n! from
# n = 3 on (both independent routes agree on the other value), so that one
# entry fails by design at any n >= 3
EXPECTED_FAILING = {"prop-6-12"}


def test_registry_is_complete():
    assert sorted(REGISTRY) == sorted(ALL_IDS)
    assert len(REGISTRY) == 34


def test_registry_entries_have_descriptions_and_defaults():
    for cid, entry in REGISTRY.items():
        assert entry.id == cid
        assert entry.description
        assert isinstance(entry.defaults, dict) and entry.defaults
        for key in entry.minimal:
            assert key in entry.defaults


def test_every_entry_passes_at_small_parameters():
    for cid, entry in REGISTRY.items():
        params = budget_params(entry, 6)
        if cid in EXPECTED_FAILING:
            params = dict(entry.minimal)
        report = verify(cid, params)
        assert report.status == "pass", (cid, report.first_mismatch)
        assert report.first_mismatch is None
        assert report.id == cid


def test_prop_6_12_fails_where_the_recorded_closed_form_is_wrong():
    report = verify("prop-6-12", {"n": 4})
    assert report.status == "fail"
    assert report.first_mismatch == {
        "location": "n=3", "lhs": "108", "rhs": "72"}
    # the enumeration side differs from the recorded polynomial by
    # exactly n(n-1)(n-2) * n! -- here 3*2*1*6 = 36
    assert int(report.first_mismatch["lhs"]) - \
        int(report.first_mismatch["rhs"]) == 36


def test_triple_hook_moment_has_constant_term_minus_552():
    # the corrected prop-6-12 polynomial, and its distance from the -600 form
    for n in range(16):
        cubic = n * (n - 1) * (n - 2)
        corrected = Fraction(cubic * (27 * n ** 3 - 174 * n ** 2 + 511 * n - 552),
                             48) * factorial(n)
        recorded = Fraction(cubic * (27 * n ** 3 - 174 * n ** 2 + 511 * n - 600),
                            48) * factorial(n)
        assert identities._moment(hook_beta_sum_poly(n), n, 3) == corrected, n
        assert corrected - recorded == cubic * factorial(n), n


def test_report_dict_shape():
    report = verify("pentagonal-beta2", {"N": 6})
    d = report.to_dict()
    assert list(d) == ["id", "params", "status", "checked_range",
                       "first_mismatch", "elapsed_ms"]
    assert d["id"] == "pentagonal-beta2"
    assert d["params"] == {"N": 6}
    assert d["status"] == "pass"
    assert d["first_mismatch"] is None
    assert isinstance(d["elapsed_ms"], float)
    parsed = json.loads(report.to_json())
    assert parsed["checked_range"] == d["checked_range"]


def test_report_tuples_become_json_lists():
    report = verify("macdonald", {"t": (3,), "N": 4})
    d = report.to_dict()
    assert d["params"] == {"t": [3], "N": 4}
    json.dumps(d)  # must be serializable as-is


def test_reports_are_immutable_values():
    report = verify("pentagonal-beta2", {"N": 6})
    with pytest.raises(AttributeError):
        report.status = "fail"
    assert report == VerificationReport(**report._asdict())
    assert report != report._replace(status="fail")
    assert repr(report).startswith(
        "VerificationReport(id='pentagonal-beta2', params={'N': 6}, ")


def test_verify_rejects_unknown_id_and_param():
    with pytest.raises(ValueError):
        verify("not-a-check")
    with pytest.raises(ValueError):
        verify("main-identity", {"badparam": 3})


def test_verify_refuses_parameters_that_would_check_nothing():
    for cid, params, key in (("theorem-2-1", {"K": 0}, "K"),
                             ("tau-5core", {"N": 0}, "N"),
                             ("prop-6-12", {"n": 1}, "n"),
                             ("gks-weight", {"t": ()}, "t"),
                             ("thm-6-2", {"alpha": ()}, "alpha"),
                             ("cauchy-special", {"d": ()}, "d")):
        with pytest.raises(ValueError) as info:
            verify(cid, params)
        message = str(info.value)
        assert repr(cid) in message and repr(key) in message, cid
        assert "constant term" not in message


def test_verify_refuses_parameters_that_are_not_ints():
    # a float, a bool and a str, as a range value and in a tuple; each is
    # refused before the check runs, instead of failing deep inside it or
    # (a bool) running as 0 or 1
    for bad in (2.5, True, "3"):
        for cid, params, key in (("main-identity", {"N": bad}, "N"),
                                 ("thm-6-2", {"alpha": bad}, "alpha"),
                                 ("thm-6-2", {"alpha": (1, bad)}, "alpha"),
                                 ("gks-weight", {"t": [3, bad]}, "t")):
            with pytest.raises(ValueError) as info:
                verify(cid, params)
            message = str(info.value)
            assert repr(cid) in message and repr(key) in message, (cid, bad)
            assert repr(bad) in message, (cid, bad)


def test_verify_normalizes_scalar_t():
    report = verify("gks-weight", {"n": 6, "t": 3})
    assert report.params["t"] == (3,)
    assert report.status == "pass"


def test_reports_are_reproducible():
    a = verify("thm-6-2", {"N": 8}).to_dict()
    b = verify("thm-6-2", {"N": 8}).to_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_verify_all_minimal_budget_passes_everything():
    reports = verify_all(order_budget=0)
    assert len(reports) == len(REGISTRY)
    assert [r.id for r in reports] == sorted(REGISTRY)
    assert all(r.status == "pass" for r in reports)


def test_verify_all_budget_clamps_but_keeps_non_range_params():
    entry = REGISTRY["thm-6-2"]
    params = budget_params(entry, 5)
    assert params["N"] == 5
    assert params["alpha"] == (-1, 0, 1, 2)
    # budgets above the default never raise the default
    assert budget_params(entry, 10 ** 6)["N"] == entry.defaults["N"]
    # minimal floors are respected
    assert budget_params(REGISTRY["prop-6-12"], 0)["n"] == 2
    assert budget_params(REGISTRY["tau-5core"], 0)["N"] == 1


def test_verify_all_worker_count_does_not_change_results():
    serial = [r.to_dict() for r in verify_all(order_budget=4, workers=1)]
    parallel = [r.to_dict() for r in verify_all(order_budget=4, workers=3)]
    for d in serial + parallel:
        d.pop("elapsed_ms")
    assert serial == parallel


def test_verify_all_refuses_a_bad_budget_or_worker_count_before_any_check(
        monkeypatch):
    def refuse(task):
        raise AssertionError("no check may run")
    monkeypatch.setattr(identities, "_verify_task", refuse)
    for kwargs, message in (
            ({"order_budget": 2.5}, "order_budget must be an integer, got 2.5"),
            ({"order_budget": True}, "order_budget must be an integer, got True"),
            ({"order_budget": "4"}, "order_budget must be an integer, got '4'"),
            ({"workers": True}, "workers must be an integer, got True"),
            ({"workers": 2.0}, "workers must be an integer, got 2.0"),
            ({"workers": 0}, "workers must be >= 1")):
        with pytest.raises(ValueError) as err:
            verify_all(**kwargs)
        assert str(err.value) == message


def test_injected_failure_is_reported_with_location(monkeypatch):
    # perturb one side of a check and make sure the harness notices and
    # pinpoints the smallest failing coefficient
    from fractions import Fraction
    import hookexp.series

    real = hookexp.series.pentagonal_series

    def skewed(order):
        ser = real(order)
        if order >= 5:
            ser.coeffs[5] += Fraction(1)
        return ser

    monkeypatch.setattr(identities, "pentagonal_series", skewed)
    report = verify("pentagonal-beta2", {"N": 8})
    assert report.status == "fail"
    assert report.first_mismatch is not None
    assert report.first_mismatch["location"] == "x^5"
    assert report.first_mismatch["lhs"] == "1"
    assert report.first_mismatch["rhs"] == "2"


def test_failing_status_and_mismatch_are_consistent():
    ok = verify("rsk-square-sum", {"n": 5})
    assert ok.status == "pass" and ok.first_mismatch is None
    bad = verify("prop-6-12", {"n": 3})
    assert bad.status == "fail" and bad.first_mismatch is not None


def test_kostant_polynomials_match_their_closed_forms():
    report = verify("kostant-poly", {"k": 4})
    assert report.status == "pass"
    # and the degree-3 polynomial vanishes at s = 8: checked through the
    # series route, which the registry compares against the partition route
    from hookexp.series import euler_power
    assert euler_power(8, 3)[3] == 0


def test_hook_moment_matches_the_power_sum_forms():
    # e_1, e_2, e_3 of the squared hooks through the power sums s_j of h^2j:
    # the forms the moment checks used before the e_k recurrence
    for m in range(11):
        want = [0, 0, 0, 0]
        for parts in partition_tuples(m):
            hooks = hooks_of(parts)
            f2 = syt_count_of(parts) ** 2
            s1, s2, s3 = (sum(h ** (2 * j) for h in hooks) for j in (1, 2, 3))
            want[1] += f2 * s1
            want[2] += f2 * (s1 * s1 - s2) // 2
            want[3] += f2 * (s1 ** 3 - 3 * s1 * s2 + 2 * s3) // 6
        for k in (1, 2, 3):
            assert identities._moment(hook_beta_sum_poly(m), m, k) == want[k], (m, k)


def test_moment_checks_read_one_sweep():
    # the sums of every m <= n come from the one cached sweep of size n
    from hookexp.partition import _hook_sums_poly
    for cid in ("marked-hook", "prop-6-11", "prop-6-12"):
        _hook_sums_poly.cache_clear()
        report = verify(cid, {"n": 12})
        assert report.ok == (cid != "prop-6-12"), cid
        assert _hook_sums_poly.cache_info().currsize == 1, cid
    assert report.first_mismatch == {"location": "n=3", "lhs": "108",
                                     "rhs": "72"}


SWEEP_CHECKS = {
    "main-identity": {"N": 6}, "theorem-2-1": {"K": 2, "N": 6},
    "corollary-2-3": {"n": 6}, "corollary-2-4": {"n": 6, "k": 2},
    "corollary-2-6": {"n": 6, "k": 1}, "pp-identity": {"n": 6},
    "pentagonal-beta2": {"N": 6}, "jacobi-beta4": {"N": 6}, "magic": {"N": 4},
    "cor-9-2": {"n": 6}, "marked-hook": {"n": 6}, "prop-6-11": {"n": 6},
}


def test_sweep_sits_on_one_side_of_each_check(monkeypatch):
    # skew every hook sum the sweep returns by 1/2: a check that had the
    # sweep on both of its sides would still pass
    from fractions import Fraction
    import hookexp.series
    from hookexp.partition import (hook_beta_sum_poly, hook_beta_sums,
                                   hook_beta_sums_poly)

    def skew(kernel):
        return lambda *args: [v + Fraction(1, 2) for v in kernel(*args)]
    monkeypatch.setattr(identities, "hook_beta_sum_poly",
                        lambda n: hook_beta_sum_poly(n) + Fraction(1, 2))
    monkeypatch.setattr(identities, "hook_beta_sums", skew(hook_beta_sums))
    monkeypatch.setattr(identities, "hook_beta_sums_poly",
                        skew(hook_beta_sums_poly))
    monkeypatch.setattr(hookexp.series, "hook_beta_sums_poly",
                        skew(hook_beta_sums_poly))
    for cid, params in SWEEP_CHECKS.items():
        assert verify(cid, params).status == "fail", cid
    # the lagrange side of `reversion` stops at its integrality check
    with pytest.raises(ArithmeticError):
        verify("reversion", {"N": 6})
    monkeypatch.undo()
    assert all(verify(cid, params).ok for cid, params in SWEEP_CHECKS.items())


def _bump_coefficient(at):
    """Wrap a series- or list-valued route so its coefficient `at` is one
    higher; the route's own result, which may be cached, is not touched."""
    def wrap(fn):
        def skewed(*args, **kwargs):
            out = fn(*args, **kwargs)
            coeffs = list(out if isinstance(out, list) else out.coeffs)
            if len(coeffs) > at:
                coeffs[at] += 1
            return coeffs if isinstance(out, list) else Series(coeffs)
        return skewed
    return wrap


def _bump_value(fn):
    return lambda *args: fn(*args) + 1


def _bump_shape(shape, at):
    """Like _bump_coefficient, for the route's result on one partition."""
    def wrap(fn):
        bumped = _bump_coefficient(at)(fn)
        return lambda parts, *args: (bumped if parts == shape else fn)(parts, *args)
    return wrap


# (check, params, {route: wrapper}, first mismatch location): the rows of a
# multi-route check run degree by degree, and within a degree route by route
MULTI_ROUTE_SKEWS = [
    ("jacobi-beta4", {"N": 6}, {"euler_power": _bump_coefficient(3)},
     "x^3 (sparse vs exp)"),
    ("jacobi-beta4", {"N": 6}, {"hook_beta_sums": _bump_coefficient(3)},
     "x^3 (hook sum vs sparse)"),
    ("jacobi-beta4", {"N": 6}, {"hook_beta_sums": _bump_coefficient(3),
                                "jacobi_cube_series": _bump_coefficient(4)},
     "x^3 (hook sum vs sparse)"),
    ("jacobi-beta4", {"N": 6}, {"hook_beta_sums": _bump_coefficient(3),
                                "euler_power": _bump_coefficient(3)},
     "x^3 (sparse vs exp)"),
    ("jacobi-beta4", {"N": 6}, {"hook_eval_product": _bump_value},
     "staircase m=1"),
    ("eta8-beta9", {"N": 6}, {"eta8_double_sum": _bump_coefficient(2)},
     "x^2 (double sum vs exp)"),
    ("eta8-beta9", {"N": 6}, {"euler_power": _bump_coefficient(2)},
     "x^2 (double sum vs exp)"),
    ("eta8-beta9", {"N": 6}, {"hook_eval_product": _bump_value},
     "x^0 (3-core sum vs double sum)"),
    # the divisor series of the convolution starts at x^1
    ("cor-6-7", {"N": 6}, {"partition_gf": _bump_coefficient(3)},
     "x^4 (divisor convolution)"),
    ("cor-6-7", {"N": 6}, {"hook_power_moments": _bump_coefficient(0)},
     "x^0 (hooks vs parts)"),
    ("cor-6-7", {"N": 6}, {"partition_gf": _bump_coefficient(0),
                           "hook_power_moments": _bump_coefficient(0)},
     "x^0 (hooks vs parts)"),
    ("euler-cor-8-4", {"N": 8}, {"pentagonal_series": _bump_coefficient(4)},
     "x^4 (column sum vs sparse)"),
    ("euler-cor-8-4", {"N": 8}, {"euler_power": _bump_coefficient(4)},
     "x^4 (sparse vs exp)"),
    ("reversion", {"N": 6}, {"pentagonal_series": _bump_coefficient(2)},
     "x^3 (substitution)"),
    ("kostant-poly", {"k": 4}, {"euler_power_formal": _bump_coefficient(3)},
     "k=3 (series vs partition routes)"),
    ("kostant-poly", {"k": 4}, {"hook_beta_poly_of": _bump_value},
     "k=0 (series vs partition routes)"),
    ("phi-v-theorem", {"n": 4, "t": (3,)}, {"core_weight_from_v": _bump_value},
     "t=3 core= weight"),
    ("phi-v-theorem", {"n": 4, "t": (3,)}, {"core_product_from_v": _bump_value},
     "t=3 core= product"),
    ("kostant-sign", {"k": 3}, {"euler_power": _bump_coefficient(1)},
     "k=1 s=0 (routes)"),
    ("kostant-sign", {"k": 3}, {"euler_power": _bump_coefficient(2)},
     "k=2 s=3 (routes)"),
    ("thm-8-3", {"N": 4}, {"schur_principal_x": _bump_coefficient(3)},
     "x^3"),
    ("magic", {"N": 4}, {"schur_principal_x": _bump_coefficient(3)},
     "x^3"),
    # prod (c - beta) over (1,1,1) vanishes at beta = -2, but it is not the
    # zero polynomial, so the bumped Schur term still shows
    ("thm-8-3", {"N": 8}, {"schur_principal_x": _bump_shape((1, 1, 1), 6)},
     "x^6"),
    # prod (c + 1 - beta) over (1,1,1,1) vanishes at beta = -2
    ("magic", {"N": 10}, {"schur_principal_x": _bump_shape((1, 1, 1, 1), 10)},
     "x^10"),
    # adding 1 to a BetaPoly moves its constant term, which the moment of
    # order k reads at n = k
    ("marked-hook", {"n": 6}, {"euler_power_formal": _bump_coefficient(1)},
     "n=1 (sweep vs series)"),
    ("prop-6-11", {"n": 6}, {"euler_power_formal": _bump_coefficient(2)},
     "n=2 (sweep vs series)"),
    ("prop-6-12", {"n": 6}, {"euler_power_formal": _bump_coefficient(3)},
     "n=3 (sweep vs series)"),
    # the exp/log side of thm-8-3, at the formal exponent beta
    ("thm-8-3", {"N": 4}, {"euler_power": _bump_coefficient(2)}, "x^2"),
]


@pytest.mark.parametrize("cid, params, skews, location", MULTI_ROUTE_SKEWS)
def test_multi_route_check_reports_its_first_mismatch(monkeypatch, cid, params,
                                                      skews, location):
    for name, wrap in skews.items():
        monkeypatch.setattr(identities, name, wrap(getattr(identities, name)))
    report = verify(cid, params)
    assert report.status == "fail"
    assert report.first_mismatch["location"] == location


def _walk_without(node):
    """Wrap _top_row_walk so that `node` and its subtree never reach the
    visitor: the walk itself still runs, unchanged."""
    walk = partition._top_row_walk

    def skewed(N, visit, state, t=None):
        def drop(st, weight, hooks, n):
            parts, inner = st
            if parts is not None:
                parts = (len(hooks),) + parts
                if parts != node:
                    return parts, visit(inner, weight, hooks, n)
            return None, inner
        walk(N, drop, ((), state), t)
    return skewed


@pytest.fixture
def cold_walk_caches():
    def clear():
        for cache in (partition._hook_sums_poly, partition._hook_censuses,
                      partition._hook_moments2, tcore.t_cores_upto):
            cache.cache_clear()
    clear()
    yield
    clear()  # no skewed value may outlive the test


# (check, params, node, first mismatch location) once the walk drops the
# tall node with its conjugate and its subtree: each consumer of the walk
# (the sweep, the census, the second moment, the t-core listing) is caught
# by a route that does not walk.  (2, 2, 1) is a 5-core of size 5.  The
# sweep's unpacking refuses a size whose sums are no longer divisible by n!
# (Corollary 2.3), so its row drops (1, 1) and (2), whose f^2 sum is 2!.
WALK_SKEWS = [
    ("main-identity", {"N": 2}, (1, 1), "x^2"),
    ("prop-6-1", {"N": 8}, (2, 2, 1), "x^5"),
    ("cor-6-7", {"N": 8}, (2, 2, 1), "x^5 (hooks vs parts)"),
    ("prop-6-8", {"N": 8}, (2, 2, 1), "x^5"),
    ("thm-6-9", {"N": 8}, (2, 2, 1), "x^5"),
    ("tau-5core", {"N": 8}, (2, 2, 1), "n=6"),
]


@pytest.mark.parametrize("cid, params, node, location", WALK_SKEWS)
def test_a_skewed_walk_shows_on_one_side_only(monkeypatch, cold_walk_caches,
                                              cid, params, node, location):
    skewed = _walk_without(node)
    monkeypatch.setattr(partition, "_top_row_walk", skewed)
    monkeypatch.setattr(tcore, "_top_row_walk", skewed)
    report = verify(cid, params)
    assert report.status == "fail"
    assert report.first_mismatch["location"] == location


def test_a_sweep_that_skips_a_node_raises(monkeypatch, cold_walk_caches):
    monkeypatch.setattr(partition, "_top_row_walk", _walk_without((2, 2, 1)))
    with pytest.raises(ArithmeticError, match="size 5"):
        verify("main-identity", {"N": 8})


@pytest.mark.parametrize("skewed_methods, location", [
    (("iterate",), "x^3 (routes)"),
    (("lagrange",), "x^3 (routes)"),
    (("lagrange", "iterate"), "x^3 (substitution)"),
])
def test_reversion_reports_its_first_mismatch(monkeypatch, skewed_methods,
                                              location):
    real = identities.revert_euler
    skewed = _bump_coefficient(3)(real)

    def revert(order, method):
        return (skewed if method in skewed_methods else real)(order, method=method)
    monkeypatch.setattr(identities, "revert_euler", revert)
    report = verify("reversion", {"N": 6})
    assert report.status == "fail"
    assert report.first_mismatch["location"] == location


@pytest.mark.parametrize("side", ["hook_beta_sums", "pentagonal_series"])
def test_a_short_side_raises_instead_of_passing(monkeypatch, side):
    # one coefficient fewer on either side must not shorten the comparison;
    # IndexError, not ValueError (which the CLI reports as a usage error)
    real = getattr(identities, side)

    def short(*args):
        out = real(*args)
        return out[:-1] if isinstance(out, list) else Series(out.coeffs[:-1])
    monkeypatch.setattr(identities, side, short)
    with pytest.raises(IndexError):
        verify("pentagonal-beta2", {"N": 8})


def test_hook_moments_match_the_euler_power_series():
    # sum f^2 e_k(h^2) = (-1)^(m-k) m!^2 [beta^(m-k)] a_m(beta), a_m the
    # coefficient m of prod (1 - x^j)^(beta - 1): f^2 / m!^2 = 1 / prod h^2
    formal = euler_power_formal(14)
    for m in range(15):
        for k in range(min(m, 5) + 1):
            want = (-1) ** (m - k) * factorial(m) ** 2 \
                * formal[m].coefficient(m - k)
            assert identities._moment(hook_beta_sum_poly(m), m, k) == want, (m, k)
    assert identities._moment(hook_beta_sum_poly(3), 3, 3) == 108


def _fraction_content_hook_total(beta, N, content_shift):
    # the content-hook sum at one rational beta in Fraction/Series form:
    # one Series product and sum per partition
    p, q = beta.numerator, beta.denominator
    tot = Series.zero(N)
    for m in range(N + 1):
        for parts in partition_tuples(m):
            if m + b_stat_of(parts) > N:
                continue
            num = prod(q * (c + content_shift) - p for c in contents_of(parts))
            if num:
                den = q ** m * prod(hooks_of(parts))
                tot = tot + schur_principal_x(parts, N) * Fraction(num, den)
    return tot


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12),
       st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
       st.sampled_from((0, 1)))
def test_content_hook_total_matches_the_fraction_series_form(N, beta, shift):
    polys = identities._content_hook_polys(N, shift)
    assert all(type(p) is BetaPoly for p in polys)
    assert [p.eval(beta) for p in polys] == \
        _fraction_content_hook_total(beta, N, shift).coeffs


def test_integer_ratios_match_fraction_products():
    for tt, m, core, at in identities._t_cores((3, 5, 7), 20):
        u = u_coding(core, tt)
        assert identities._u_ratio(u, tt) == \
            prod(Fraction(uj + tt, uj) for uj in u[1:]), at
        elements = h_set(core, tt).elements
        assert identities._positive_hook_ratio(elements, tt) == \
            prod(1 - Fraction(tt * tt, a * a) for a in elements if a > 0), at


T_CORE_CHECKS = ("gks-weight", "phi-v-theorem", "lemma-5-5", "lemma-5-6")


def test_t_core_checks_do_not_check_the_filtered_cores_again(monkeypatch):
    # the filter yields only t-cores, so the checks code them without the
    # hook check of the public codings
    import hookexp.tcore
    calls = []
    real = hookexp.tcore.is_t_core

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(hookexp.tcore, "is_t_core", counting)
    for n in range(11):
        for cid in T_CORE_CHECKS:
            assert verify(cid, {"n": n}).ok, (cid, n)
    assert calls == []


def test_lemma_5_6_reports_a_non_core_erasure_before_coding_it(monkeypatch):
    coded = []
    real = identities._u_of

    def counting(parts, t):
        coded.append(parts)
        return real(parts, t)
    monkeypatch.setattr(identities, "is_t_core", lambda parts, t: False)
    monkeypatch.setattr(identities, "_u_of", counting)
    report = verify("lemma-5-6", {"n": 3, "t": (3,)})
    assert report.status == "fail"
    assert report.first_mismatch == {
        "location": "t=3 core=1 erased", "lhs": "", "rhs": "a t-core"}
    assert coded == []


@pytest.mark.parametrize("cid", T_CORE_CHECKS)
def test_t_core_checks_refuse_a_t_without_codings(cid):
    for t in (0, 1, 2, 4):
        with pytest.raises(ValueError, match="odd t >= 3"):
            verify(cid, {"n": 4, "t": (t,)})
