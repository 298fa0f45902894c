"""Exact hook-length expansions of powers of the Euler product.

Everything here is integer or rational arithmetic: partitions and their
hook lengths, t-core codings, truncated power series over Fraction or
over polynomials in a formal variable, and a registry of identity checks
that computes each statement by independent routes and compares exactly.
"""

from .exactnum import BetaPoly, Rational, format_rational, parse_rational
from .partition import (
    enumerate_partitions,
    hook_beta_poly_of,
    hook_beta_sum,
    hook_beta_sum_poly,
    hook_beta_sums,
    hook_beta_sums_poly,
    hook_eval_product,
    hooks_of,
    partition_count,
    partition_tuples,
    syt_count_of,
)
from .series import (
    Series,
    euler_power,
    euler_power_formal,
    euler_power_recurrence,
    macdonald_eta_power,
    partition_gf,
    pentagonal_series,
    revert_euler,
)
from .tcore import (
    HSet,
    core_weight_from_v,
    enumerate_t_cores,
    h_set,
    is_t_core,
    n_coding,
    u_coding,
    v_coding,
)
from .identities import REGISTRY, VerificationReport, verify, verify_all

__version__ = "1.0.0"

__all__ = [
    "BetaPoly",
    "HSet",
    "Rational",
    "REGISTRY",
    "Series",
    "VerificationReport",
    "core_weight_from_v",
    "enumerate_partitions",
    "enumerate_t_cores",
    "euler_power",
    "euler_power_formal",
    "euler_power_recurrence",
    "format_rational",
    "h_set",
    "hook_beta_poly_of",
    "hook_beta_sum",
    "hook_beta_sum_poly",
    "hook_beta_sums",
    "hook_beta_sums_poly",
    "hook_eval_product",
    "hooks_of",
    "is_t_core",
    "macdonald_eta_power",
    "n_coding",
    "parse_rational",
    "partition_count",
    "partition_gf",
    "partition_tuples",
    "pentagonal_series",
    "revert_euler",
    "syt_count_of",
    "u_coding",
    "v_coding",
    "verify",
    "verify_all",
]
