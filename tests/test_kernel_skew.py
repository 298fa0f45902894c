"""The kernel-skew matrix: which kernels each registry entry can see.

Each function of partition, series, tcore and exactnum is nudged in turn,
by +1 and by +1/2, in every hookexp module that binds it, and each entry
runs at budget_params(entry, 8) from cold caches.  A nudge adds the
constant to every number the kernel returns: an int or Fraction, a
BetaPoly, each coefficient of a Series, each entry of a flat tuple or list
of numbers (a partition too) and each count of a Counter.  An entry
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
from hookexp.series import Series

KERNELS = {"%s.%s" % (mod.__name__.rpartition(".")[2], name): obj
           for mod in (partition, series, tcore, exactnum)
           for name, obj in vars(mod).items()
           if getattr(obj, "__module__", None) == mod.__name__
           and (inspect.isfunction(obj) or hasattr(obj, "cache_clear"))}
CACHES = [obj for obj in KERNELS.values() if hasattr(obj, "cache_clear")]

# Kernels whose nudge no entry has to see, and why.
UNSEEN = {
    "partition._packing_bits":
        "the sweep's slot width is an upper bound, and a wider slot unpacks "
        "the same sums",
    "partition.partition_count":
        "where only a slot width reads it: _packing_bits, and the census's "
        "bits of N p(N)",
}

# The entries that compare one route with a closed form or a property.
SINGLE_ROUTE = {"cor-9-2", "corollary-2-3", "corollary-2-4", "lemma-5-5",
                "pp-identity", "rsk-square-sum"}


def _nudge(value, c):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction, BetaPoly)):
        return value + c
    if isinstance(value, Series):
        return Series([x + c for x in value.coeffs])
    if isinstance(value, (tuple, list)) and value and all(
            isinstance(x, (int, Fraction, BetaPoly))
            and not isinstance(x, bool) for x in value):
        return type(value)(x + c for x in value)
    if isinstance(value, Counter):
        return Counter({k: v + c for k, v in value.items()})
    return value


def _outcome(cid, wraps):
    """The outcome of entry `cid` with each kernel `key` of `wraps` replaced
    by wraps[key] in every hookexp module that binds it, from cold caches:
    "pass", the first-mismatch location, the name of the error raised, or
    None when a nudge landed where an int must be."""
    hosts = [m for n, m in sys.modules.items() if n.startswith("hookexp")]
    undo = []
    for key, wrapper in wraps.items():
        name, kernel = key.partition(".")[2], KERNELS[key]
        for mod in hosts:
            if vars(mod).get(name) is kernel:
                undo.append((mod, name, kernel))
                setattr(mod, name, wrapper)
    for cache in CACHES:
        cache.cache_clear()
    try:
        report = verify(cid, budget_params(REGISTRY[cid], 8))
    except (TypeError, AttributeError):
        return None
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__
    finally:
        for mod, name, kernel in undo:
            setattr(mod, name, kernel)
        for cache in CACHES:
            cache.cache_clear()  # no nudged value may outlive the run
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
        "partition.hooks_of series.divisor_power_gf series.euler_power "
        "series.log_euler_sum series.schur_principal_ones "
        "series.schur_principal_x",
    "cor-6-7":
        "partition._cell_sum_powers partition._pentagonal_term "
        "partition._slots partition.hook_power_moments series._sparse "
        "series.divisor_power_gf series.partition_gf series.pentagonal_series",
    "cor-9-2":
        "partition._hook_sums_poly partition._hook_sweep partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly",
    "corollary-2-3":
        "partition._hook_sums_poly partition._hook_sweep partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly",
    "corollary-2-4":
        "partition._hook_sums_poly partition._hook_sweep partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums",
    "corollary-2-6":
        "partition._hook_sums_poly partition._hook_sweep partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums "
        "partition.partition_count",
    "eta8-beta9":
        "partition.conjugate_of partition.hook_eval_product "
        "partition.hooks_of series._half series._sparse "
        "series.divisor_power_gf series.eta8_double_sum series.euler_power "
        "series.log_euler_sum",
    "euler-cor-8-4":
        "partition._pentagonal_term series._sparse series.divisor_power_gf "
        "series.euler_power series.log_euler_sum series.pentagonal_series",
    "gks-weight":
        "partition.conjugate_of tcore._by_residue tcore._n_of tcore._u_of "
        "tcore._v_of tcore.core_weight_from_n tcore.n_from_v",
    "jacobi-beta4":
        "partition._hook_sums_poly partition._hook_sweep partition._slots "
        "partition._unpack_hook_sum partition.conjugate_of "
        "partition.hook_beta_sums partition.hook_eval_product "
        "partition.hooks_of partition.staircase series._sparse "
        "series.divisor_power_gf series.euler_power series.jacobi_cube_series "
        "series.log_euler_sum",
    "kostant-poly":
        "exactnum.roots_poly partition._pentagonal_term "
        "partition.conjugate_of partition.hook_beta_poly_of "
        "partition.hooks_of series.euler_power_formal",
    "kostant-sign":
        "partition.conjugate_of partition.hook_eval_product "
        "partition.hooks_of series.divisor_power_gf series.euler_power "
        "series.log_euler_sum",
    "lemma-5-5":
        "partition.conjugate_of partition.first_column_hooks_of tcore._u_of",
    "lemma-5-6":
        "exactnum.diff_product partition.conjugate_of "
        "partition.validate_partition tcore._u_of",
    "macdonald":
        "exactnum.diff_product exactnum.superfactorial "
        "series.divisor_power_gf series.euler_power series.log_euler_sum "
        "series.macdonald_eta_power tcore._v_codings "
        "tcore.core_product_from_v",
    "magic":
        "exactnum.roots_poly partition._hook_sums_poly partition._hook_sweep "
        "partition._slots partition._unpack_hook_sum partition.b_stat_of "
        "partition.conjugate_of partition.contents_of "
        "partition.hook_beta_sums_poly partition.hooks_of "
        "series.schur_principal_x",
    "main-identity":
        "partition._hook_sums_poly partition._hook_sweep "
        "partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly "
        "series.euler_power_formal",
    "marked-hook":
        "partition._hook_sums_poly partition._hook_sweep "
        "partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly "
        "series.euler_power_formal",
    "pentagonal-beta2":
        "partition._hook_sums_poly partition._hook_sweep "
        "partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums series._sparse "
        "series.pentagonal_series",
    "phi-v-theorem":
        "exactnum.diff_product exactnum.superfactorial partition.conjugate_of "
        "partition.hook_eval_product partition.hooks_of tcore._by_residue "
        "tcore._u_of tcore._v_of tcore.core_product_from_v "
        "tcore.core_weight_from_v",
    "pp-identity":
        "partition._hook_sums_poly partition._hook_sweep partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums",
    "prop-6-1":
        "partition._cell_sum_powers partition._pentagonal_term "
        "partition._slots partition.hook_power_moments series._sparse "
        "series.divisor_power_gf series.log_euler_sum series.partition_gf "
        "series.pentagonal_series",
    "prop-6-11":
        "partition._hook_sums_poly partition._hook_sweep "
        "partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly "
        "series.euler_power_formal",
    "prop-6-12":
        "partition._hook_sums_poly partition._hook_sweep "
        "partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly "
        "series.euler_power_formal",
    "prop-6-4":
        "partition._cell_sum_powers partition._slots "
        "partition.hook_count_census partition.hook_multiset_all "
        "partition.part_occurrence_census partition.parts_multiset_duplicated",
    "prop-6-8":
        "partition._cell_sum_powers partition._hook_moments2 "
        "partition._pentagonal_term partition._slots "
        "partition.hook_power_moments partition.hook_power_moments2 "
        "series._sparse series.divisor_power_gf series.log_euler_sum "
        "series.partition_gf series.pentagonal_series",
    "reversion":
        "partition._hook_sums_poly partition._hook_sweep "
        "partition._pentagonal_term partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums_poly "
        "series._sparse series.partition_gf series.pentagonal_series "
        "series.revert_euler",
    "rsk-square-sum":
        "partition.conjugate_of partition.hooks_of partition.syt_count_of",
    "sebbm":
        "partition.conjugate_of partition.hook_type_census "
        "partition.part_occurrence_census",
    "tau-5core":
        "partition.conjugate_of partition.hook_eval_product "
        "partition.hooks_of series.divisor_power_gf series.euler_power "
        "series.log_euler_sum",
    "theorem-2-1":
        "partition._hook_sums_poly partition._hook_sweep partition._slots "
        "partition._unpack_hook_sum partition.hook_beta_sums "
        "series.euler_product_direct",
    "thm-6-2":
        "partition._cell_sum_powers partition._pentagonal_term "
        "partition._slots partition.hook_power_moments series._sparse "
        "series.divisor_power_gf series.partition_gf series.pentagonal_series",
    "thm-6-9":
        "partition._cell_sum_powers partition._hook_moments2 "
        "partition._pentagonal_term partition.hook_power_moments2 "
        "series._sparse series.divisor_power_gf series.log_euler_sum "
        "series.partition_gf series.pentagonal_series",
    "thm-8-3":
        "exactnum.roots_poly partition.b_stat_of partition.conjugate_of "
        "partition.contents_of partition.hooks_of series.divisor_power_gf "
        "series.euler_power series.log_euler_sum series.schur_principal_x",
}.items()}


def test_each_entry_catches_its_pinned_kernels(matrix):
    assert {cid: caught for cid, (caught, _) in matrix.items()} == CAUGHT


def test_each_entry_with_two_routes_catches_two_kernels(matrix):
    assert SINGLE_ROUTE <= set(matrix)
    assert [cid for cid, (caught, _) in matrix.items()
            if cid not in SINGLE_ROUTE and len(caught) < 2] == []


def test_a_fresh_count_table_shows_a_nudged_pentagonal_term(monkeypatch):
    # partition_count keeps p(n) in module lists that cache_clear() leaves
    # alone, so once a run has grown them a nudged _pentagonal_term no
    # longer reaches p(n) in the matrix; from fresh lists corollary-2-6
    # catches it.  The matrix keeps the warm lists: the sweep readers read
    # p(n) only as a slot width and would show it called but not caught.
    monkeypatch.setattr(partition, "_PARTITION_COUNTS", [1])
    monkeypatch.setattr(partition, "_COUNT_TERMS",
                        [partition._pentagonal_term(0)])
    changed = []
    key = "partition._pentagonal_term"
    got = _outcome("corollary-2-6", {key: _nudger(key, 1, changed)})
    assert changed and got == "k=0 x^2"


def test_no_called_kernel_cancels_outside_the_whitelist(matrix):
    # only the slot widths, which are upper bounds, may go unseen
    assert set(UNSEEN) == {"partition._packing_bits",
                           "partition.partition_count"}
    assert {cid: missed - set(UNSEEN) for cid, (_, missed) in matrix.items()
            if missed - set(UNSEEN)} == {}
