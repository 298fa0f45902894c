"""The kernel-skew matrix: which kernels each registry entry can see.

Each function of partition, series, tcore and exactnum, and each method of
Series and BetaPoly that computes a value, is nudged in turn, by +1 and by
+1/2, in every hookexp module or class that binds it.  Each entry runs at
budget_params(entry, 8) from cleared memos (partition._clear_memos, p(n)'s
table included).  A nudge adds the constant to every number the kernel
returns: an int or Fraction, a BetaPoly, each coefficient of a Series,
each entry of a flat tuple or list of numbers (a partition too) and each
count of a Counter.  An entry
catches a kernel when a nudge that changed one of its values moves the
entry's outcome: its first-mismatch location (prop-6-12 already fails at
n=3), or an error the program raises for a broken invariant.  A TypeError
or AttributeError only says that +1/2 landed where an int must be.

The north star ranks one invariant above deduplication: the two sides of
a check never share the kernel it tests.  A kernel both sides read would
cancel, and show as called and nudged but not caught.  The test is one
sided: a kernel both sides read differently can still be caught.
"""

import inspect
import sys
from collections import Counter
from fractions import Fraction

import pytest

from hookexp import exactnum, partition, series, tcore
from hookexp.exactnum import BetaPoly
from hookexp.identities import REGISTRY, budget_params, verify
from hookexp.partition import _clear_memos, partition_count
from hookexp.series import Series

KERNELS = {"%s.%s" % (mod.__name__.rpartition(".")[2], name): obj
           for mod in (partition, series, tcore, exactnum)
           for name, obj in vars(mod).items()
           if getattr(obj, "__module__", None) == mod.__name__
           and (inspect.isfunction(obj) or hasattr(obj, "cache_clear"))}
# The object protocol returns no number of a route.  Item access is how
# the comparison reads both sides, so its nudge cancels by design.
PROTOCOL = {"__init__", "__setattr__", "__eq__", "__hash__", "__bool__",
            "__repr__", "__getitem__"}
KERNELS.update(("%s.%s.%s" % (cls.__module__.rpartition(".")[2],
                              cls.__name__, name), obj)
               for cls in (Series, BetaPoly)
               for name, obj in vars(cls).items()
               if inspect.isfunction(obj) and name == obj.__name__
               and name not in PROTOCOL)
_BETA_ADD = BetaPoly.__add__  # _nudge's own +, whichever method is nudged

# Kernels whose nudge no entry has to see, and why.
UNSEEN = {
    "partition._packing_bits":
        "the sweep's slot width is an upper bound, and a wider slot unpacks "
        "the same sums",
}

# The entries that compare one route with a closed form or a property.
SINGLE_ROUTE = {"cor-9-2", "corollary-2-3", "corollary-2-4", "lemma-5-5",
                "pp-identity", "rsk-square-sum"}


def _plus(x, c):
    return _BETA_ADD(x, c) if isinstance(x, BetaPoly) else x + c


def _nudge(value, c):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction, BetaPoly)):
        return _plus(value, c)
    if isinstance(value, Series):
        return Series([_plus(x, c) for x in value.coeffs])
    if isinstance(value, (tuple, list)) and value and all(
            isinstance(x, (int, Fraction, BetaPoly))
            and not isinstance(x, bool) for x in value):
        return type(value)(_plus(x, c) for x in value)
    if isinstance(value, Counter):
        return Counter({k: v + c for k, v in value.items()})
    return value


def _outcome(cid, wraps):
    """The outcome of entry `cid` with each kernel `key` of `wraps` replaced
    by wraps[key] wherever a hookexp module, Series or BetaPoly binds it,
    from cleared memos: "pass", the first-mismatch location, the name of
    the error raised, or None when a nudge landed where an int must be."""
    hosts = [m for n, m in sys.modules.items() if n.startswith("hookexp")]
    by_id = {id(KERNELS[key]): wrapper for key, wrapper in wraps.items()}
    undo = []
    for host in hosts + [Series, BetaPoly]:
        for name, value in list(vars(host).items()):
            if id(value) in by_id:
                undo.append((host, name, value))
                setattr(host, name, by_id[id(value)])
    _clear_memos()
    try:
        report = verify(cid, budget_params(REGISTRY[cid], 8))
    except (TypeError, AttributeError):
        return None
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    finally:
        for host, name, kernel in undo:
            setattr(host, name, kernel)
        _clear_memos()  # no nudged value may outlive the run
    return (report.first_mismatch or {"location": "pass"})["location"]


def _recorder(key, called):
    kernel = KERNELS[key]

    def wrapper(*args, **kwargs):
        called.add(key)
        return kernel(*args, **kwargs)
    return wrapper


def _nudger(key, c, changed):
    kernel = KERNELS[key]

    def wrapper(*args, **kwargs):
        value = kernel(*args, **kwargs)
        nudged = _nudge(value, c)
        if nudged is not value:
            changed.append(key)
        return nudged
    return wrapper


@pytest.fixture(scope="module")
def matrix():
    """{entry: (kernels caught, kernels called and nudged but not caught)}."""
    out = {}
    for cid in sorted(REGISTRY):
        called = set()
        base = _outcome(cid, {key: _recorder(key, called) for key in KERNELS})
        caught, missed = set(), set()
        for key in called:
            for c in (1, Fraction(1, 2)):
                changed = []
                got = _outcome(cid, {key: _nudger(key, c, changed)})
                if changed:
                    (caught if got not in (None, base) else missed).add(key)
        out[cid] = caught, missed - caught
    return out


# What each entry catches at the parameters above: its route map.
CAUGHT = {cid: set(kernels.split()) for cid, kernels in {
    "cauchy-special":
        "partition.b_stat_of partition.conjugate_of partition.contents_of "
        "partition.hooks_of series.Series.__add__ series.Series.__mul__ "
        "series.Series._zero_one series.Series.exp series.divisor_power_gf "
        "series.euler_power series.log_euler_sum "
        "series.schur_principal_ones series.schur_principal_x",
    "cor-6-7":
        "partition._cell_sum_powers partition._pentagonal_term "
        "partition._slots partition.hook_power_moments "
        "series.Series.__mul__ series.Series.inverse series._sparse "
        "series.divisor_power_gf series.partition_gf "
        "series.pentagonal_series",
    "cor-9-2":
        "exactnum.BetaPoly.eval partition._hook_sums_poly "
        "partition._hook_sweep partition._slots partition._unpack_hook_sum "
        "partition.hook_beta_sums_poly",
    "corollary-2-3":
        "exactnum.BetaPoly.__add__ exactnum.BetaPoly.__mul__ "
        "exactnum.roots_poly partition.conjugate_of "
        "partition.hook_beta_poly_of partition.hooks_of",
    "corollary-2-4":
        "exactnum.BetaPoly.eval partition._hook_sums_poly "
        "partition._hook_sweep partition._slots partition._unpack_hook_sum "
        "partition.hook_beta_sums",
    "corollary-2-6":
        "exactnum.BetaPoly.eval partition._hook_sums_poly "
        "partition._hook_sweep partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums "
        "partition.partition_count series.Series.__mul__",
    "eta8-beta9":
        "partition.conjugate_of partition.hook_eval_product "
        "partition.hooks_of series.Series._zero_one series.Series.exp "
        "series._half series._sparse series.divisor_power_gf "
        "series.eta8_double_sum series.euler_power series.log_euler_sum",
    "euler-cor-8-4":
        "partition._pentagonal_term series.Series._zero_one "
        "series.Series.exp series._sparse series.divisor_power_gf "
        "series.euler_power series.log_euler_sum series.pentagonal_series",
    "gks-weight":
        "partition.conjugate_of tcore._by_residue tcore._n_of tcore._u_of "
        "tcore._v_of tcore.core_weight_from_n tcore.n_from_v",
    "jacobi-beta4":
        "exactnum.BetaPoly.eval partition._hook_sums_poly "
        "partition._hook_sweep partition._slots partition._unpack_hook_sum "
        "partition.conjugate_of partition.hook_beta_sums "
        "partition.hook_eval_product partition.hooks_of partition.staircase "
        "series.Series._zero_one series.Series.exp series._sparse "
        "series.divisor_power_gf series.euler_power "
        "series.jacobi_cube_series series.log_euler_sum",
    "kostant-poly":
        "exactnum.BetaPoly.__add__ exactnum.BetaPoly.__mul__ "
        "exactnum.BetaPoly.__neg__ exactnum.BetaPoly.__sub__ "
        "exactnum.BetaPoly.subst_linear exactnum.roots_poly "
        "partition._pentagonal_term partition.conjugate_of "
        "partition.hook_beta_poly_of partition.hooks_of "
        "series.euler_power_formal",
    "kostant-sign":
        "partition._pentagonal_term partition.conjugate_of "
        "partition.hook_eval_product partition.hooks_of "
        "series.Series._zero_one series.Series.exp series.divisor_power_gf "
        "series.euler_power series.euler_power_recurrence "
        "series.log_euler_sum",
    "lemma-5-5":
        "partition.conjugate_of partition.first_column_hooks_of tcore._u_of",
    "lemma-5-6":
        "exactnum.diff_product partition.conjugate_of "
        "partition.validate_partition tcore._u_of",
    "macdonald":
        "exactnum.diff_product exactnum.superfactorial "
        "series.Series._zero_one series.Series.exp series.divisor_power_gf "
        "series.euler_power series.log_euler_sum series.macdonald_eta_power "
        "tcore._v_codings",
    "magic":
        "exactnum.roots_poly partition._hook_sums_poly "
        "partition._hook_sweep partition._slots partition._unpack_hook_sum "
        "partition.b_stat_of partition.conjugate_of partition.contents_of "
        "partition.hook_beta_sums_poly partition.hooks_of "
        "series.schur_principal_x",
    "main-identity":
        "partition._hook_sums_poly partition._hook_sweep "
        "partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly "
        "series.euler_power_formal",
    "marked-hook":
        "exactnum.BetaPoly.coefficient partition._hook_sums_poly "
        "partition._hook_sweep partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly "
        "series.euler_power_formal",
    "pentagonal-beta2":
        "exactnum.BetaPoly.eval partition._hook_sums_poly "
        "partition._hook_sweep partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums series._sparse "
        "series.pentagonal_series",
    "phi-v-theorem":
        "exactnum.diff_product exactnum.superfactorial "
        "partition.conjugate_of partition.hook_eval_product "
        "partition.hooks_of tcore._by_residue tcore._u_of tcore._v_of "
        "tcore.core_product_from_v tcore.core_weight_from_v",
    "pp-identity":
        "exactnum.BetaPoly.eval partition._hook_sums_poly "
        "partition._hook_sweep partition._slots partition._unpack_hook_sum "
        "partition.hook_beta_sums",
    "prop-6-1":
        "partition._cell_sum_powers partition._pentagonal_term "
        "partition._slots partition.hook_power_moments "
        "series.Series.__mul__ series.Series.inverse series._sparse "
        "series.divisor_power_gf series.log_euler_sum series.partition_gf "
        "series.pentagonal_series",
    "prop-6-11":
        "exactnum.BetaPoly.coefficient partition._hook_sums_poly "
        "partition._hook_sweep partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly "
        "series.euler_power_formal",
    "prop-6-12":
        "exactnum.BetaPoly.coefficient partition._hook_sums_poly "
        "partition._hook_sweep partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly "
        "series.euler_power_formal",
    "prop-6-4":
        "partition._cell_sum_powers partition._slots "
        "partition.hook_count_census partition.hook_multiset_all "
        "partition.part_occurrence_census "
        "partition.parts_multiset_duplicated",
    "prop-6-8":
        "partition._cell_sum_powers partition._hook_moments2 "
        "partition._pentagonal_term partition._slots "
        "partition.hook_power_moments partition.hook_power_moments2 "
        "series.Series.__mul__ series.Series.inverse series._sparse "
        "series.divisor_power_gf series.log_euler_sum series.partition_gf "
        "series.pentagonal_series",
    "reversion":
        "exactnum.BetaPoly.eval partition._hook_sums_poly "
        "partition._hook_sweep partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly "
        "series.Series.__mul__ series.Series._zero_one "
        "series.Series.compose series.Series.inverse series.Series.map "
        "series.Series.shift series.Series.truncate series._sparse "
        "series.euler_power_recurrence series.partition_gf "
        "series.pentagonal_series series.revert_euler",
    "rsk-square-sum":
        "partition.conjugate_of partition.hooks_of partition.syt_count_of",
    "sebbm":
        "partition.conjugate_of partition.hook_type_census "
        "partition.part_occurrence_census",
    "tau-5core":
        "partition.conjugate_of partition.hook_eval_product "
        "partition.hooks_of series.Series._zero_one series.Series.exp "
        "series.divisor_power_gf series.euler_power series.log_euler_sum",
    "theorem-2-1":
        "exactnum.BetaPoly.eval partition._hook_sums_poly "
        "partition._hook_sweep partition._slots partition._unpack_hook_sum "
        "partition.hook_beta_sums series.euler_product_direct",
    "thm-6-2":
        "partition._cell_sum_powers partition._pentagonal_term "
        "partition._slots partition.hook_power_moments "
        "series.Series.__mul__ series.Series.inverse series._sparse "
        "series.divisor_power_gf series.partition_gf "
        "series.pentagonal_series",
    "thm-6-9":
        "partition._cell_sum_powers partition._hook_moments2 "
        "partition._pentagonal_term partition.hook_power_moments2 "
        "series.Series.__add__ series.Series.__mul__ series.Series.inverse "
        "series._sparse series.divisor_power_gf series.log_euler_sum "
        "series.partition_gf series.pentagonal_series",
    "thm-8-3":
        "exactnum.BetaPoly.__add__ exactnum.BetaPoly.__mul__ "
        "exactnum.BetaPoly.__neg__ exactnum.roots_poly partition.b_stat_of "
        "partition.conjugate_of partition.contents_of partition.hooks_of "
        "series.Series._zero_one series.Series.exp series.divisor_power_gf "
        "series.euler_power series.log_euler_sum series.schur_principal_x",
}.items()}


def test_each_entry_catches_its_pinned_kernels(matrix):
    assert {cid: caught for cid, (caught, _) in matrix.items()} == CAUGHT


def test_each_entry_with_two_routes_catches_two_kernels(matrix):
    assert SINGLE_ROUTE <= set(matrix)
    assert [cid for cid, (caught, _) in matrix.items()
            if cid not in SINGLE_ROUTE and len(caught) < 2] == []


def test_a_nudged_run_leaves_no_nudged_p_n_behind():
    # the first run to grow p(n)'s table does so under the nudge
    _clear_memos()
    changed = []
    key = "partition._pentagonal_term"
    _outcome("corollary-2-6", {key: _nudger(key, 1, changed)})
    assert changed
    assert [partition_count(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_no_called_kernel_cancels_outside_the_whitelist(matrix):
    # only the sweep's slot width, an upper bound, may go unseen
    assert set(UNSEEN) == {"partition._packing_bits"}
    assert {cid: missed - set(UNSEEN) for cid, (_, missed) in matrix.items()
            if missed - set(UNSEEN)} == {}
