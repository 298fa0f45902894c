"""Per-layer metrics: which spans feed which metric, and their aggregation.

The tracer (tracer.py) names a span "module.function",
"module.Class.method" or, for the registry's checks,
"identities.check.<id>"; ``enumerate_t_cores`` spans carry the method,
because the coding search and the filter scan are different layers.
A layer's time is the self time of its spans: span time minus the time of
its child spans.  This module imports no hookexp code.
"""

import json

from checkers import REGISTRY_IDS

LAYERS = {
    "partition.enum": (
        "partition.partition_tuples", "partition.hook_lists",
        "partition.enumerate_partitions", "partition.partition_count"),
    "partition.kernel": (
        "partition.hook_beta_sum", "partition.hook_beta_sum_poly",
        "partition.hook_eval_product", "partition.hook_beta_poly_of",
        "partition.syt_count_of", "partition.hooks_of",
        "partition.conjugate_of"),
    "partition.census": (
        "partition.hook_multiset_all", "partition.parts_multiset_duplicated",
        "partition.part_occurrence_census", "partition.hook_type_census"),
    "tcore.search": ("tcore.enumerate_t_cores[coding]",),
    "tcore.decode": ("tcore.v_from_n", "tcore.u_from_v", "tcore.core_from_v"),
    "tcore.filter": ("tcore.enumerate_t_cores[filter]",),
    "tcore.codings": (
        "tcore.h_set", "tcore.u_coding", "tcore.v_coding", "tcore.n_coding",
        "tcore.n_from_v", "tcore.is_t_core", "tcore.max_by_residue",
        "tcore.validate_t_compact", "tcore.core_weight_from_v",
        "tcore.core_weight_from_n", "tcore.core_product_from_v"),
    "series.exp": ("series.Series.exp", "series.Series.log"),
    "series.mul": (
        "series.Series.__mul__", "series.Series.__rmul__",
        "series.Series.__pow__"),
    "series.inverse": ("series.Series.inverse",),
    "series.compose": ("series.Series.compose",),
    "series.power": (
        "series.euler_power", "series.euler_power_formal",
        "series.euler_product_direct", "series.log_euler_sum",
        "series.divisor_power_gf"),
    "series.sparse": (
        "series.pentagonal_series", "series.jacobi_cube_series",
        "series.eta8_double_sum", "series.macdonald_eta_power",
        "series.schur_principal_x", "series.schur_principal_ones",
        "series.geometric_divide"),
    "exactnum.betapoly": tuple(
        "exactnum.BetaPoly." + m for m in (
            "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__truediv__", "__pow__")),
}

# Wrapped but in no layer: the registry runner and glue, whose self time
# would otherwise be charged to cli.output_s.
OTHER = ("series.partition_gf", "series.revert_euler", "identities.verify",
         "identities.verify_all", "cli.main")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("partition.enum_s", "s", "lower"),
     ("partition.enum_hit_ratio", "ratio", "higher"),
     ("partition.partitions_built", "count", "lower"),
     ("partition.kernel_s", "s", "lower"),
     ("partition.kernel_calls", "count", "lower"),
     ("partition.partitions_weighted", "count", "lower"),
     ("partition.census_s", "s", "lower"),
     ("tcore.search_s", "s", "lower"),
     ("tcore.decode_s", "s", "lower"),
     ("tcore.cores_out", "count", "higher"),
     ("tcore.filter_s", "s", "lower"),
     ("tcore.codings_s", "s", "lower"),
     ("series.exp_s", "s", "lower"),
     ("series.mul_s", "s", "lower"),
     ("series.inverse_s", "s", "lower"),
     ("series.compose_s", "s", "lower"),
     ("series.power_s", "s", "lower"),
     ("series.sparse_s", "s", "lower"),
     ("series.coeffs_out", "count", "higher"),
     ("exactnum.betapoly_s", "s", "lower"),
     ("exactnum.betapoly_ops", "count", "lower")]
    + [("identities.check.%s_s" % cid, "s", "lower") for cid in REGISTRY_IDS]
    + [("identities.checks_failed", "count", "lower"),
       ("identities.w2_busy_frac", "ratio", "higher"),
       ("cli.output_s", "s", "lower"),
       ("cli.output_bytes", "bytes", "lower"),
       ("trace.overhead_s", "s", "lower")])

COUNTERS = ("partition.partitions_built", "partition.partitions_weighted",
            "tcore.cores_out", "series.coeffs_out", "identities.checks_failed")


def _elapsed_s(report_text):
    """Sum of elapsed_ms over a `verify --all --format json` report, in s."""
    return sum(r["elapsed_ms"] for r in json.loads(report_text)) / 1000.0


def per_layer_metrics(summaries, traced, plain, w2):
    """Metrics of one traced round.

    summaries: tracer summaries, one per job; traced / plain: the traced and
    untraced samples of the same jobs (wall, out); w2: (wall, report text)
    of the untraced 2-worker `verify --all`, or None on other workloads.
    """
    self_s, incl_s, calls, counts = {}, {}, {}, {}
    hits = lookups = 0
    for summary in summaries:
        for table, into in ((summary["self_s"], self_s),
                            (summary["incl_s"], incl_s),
                            (summary["calls"], calls),
                            (summary["counts"], counts)):
            for key, value in table.items():
                into[key] = into.get(key, 0) + value
        for cache in summary["cache"].values():
            hits += cache["hits"]
            lookups += cache["hits"] + cache["misses"]

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    m = {}
    for layer, names in LAYERS.items():
        m[layer + "_s"] = float(total(self_s, names))
    m["partition.enum_hit_ratio"] = hits / lookups if lookups else 0.0
    m["partition.kernel_calls"] = total(calls, LAYERS["partition.kernel"])
    m["exactnum.betapoly_ops"] = total(calls, LAYERS["exactnum.betapoly"])
    for name in COUNTERS:
        m[name] = counts.get(name, 0)
    for cid in REGISTRY_IDS:
        m["identities.check.%s_s" % cid] = incl_s.get("identities.check." + cid, 0.0)
    m["identities.w2_busy_frac"] = (
        _elapsed_s(w2[1]) / (2 * w2[0]) if w2 is not None else 0.0)
    m["cli.output_s"] = self_s.get("cli.main", 0.0)
    m["cli.output_bytes"] = sum(len(s.out.encode()) for s in traced)
    m["trace.overhead_s"] = (sum(s.wall for s in traced)
                             - sum(s.wall for s in plain))
    return {name: (m[name], unit) for name, unit, _ in PER_LAYER}
