"""Command-line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
(bad flags, malformed values, impossible or too costly requests), and 141
(128 + SIGPIPE, as a process killed by the signal reports) when the reader
of stdout closes it early.

`partitions` and `cores --method filter` enumerate every partition of n;
they refuse an n with more than HOOKEXP_MAX_PARTITIONS partitions
(default 10^6, about n = 60).  `verify` with `--order N` or `--n N`, and
`revert --method lagrange --order N`, walk the partitions of every size up
to N; they refuse an N with more than that many in all (about N = 48).
`verify --all --order B` is guarded at the largest size it runs, which
budget_params caps at the largest default.

Flags and both HOOKEXP_* variables go through the package's number rules
(exactnum._require_int and _env_int, tcore's t rules), the messages naming
the flag or the variable; so both variables take one syntax.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from math import factorial

from .exactnum import (
    _env_int,
    _invariant,
    _require_int,
    format_rational,
    parse_rational,
    serialize_scalar,
)
from .identities import REGISTRY, budget_params, verify, verify_all
from .partition import (
    enumerate_partitions,
    hook_eval_product,
    partition_count,
    validate_partition,
)
from .series import (
    divisor_power_gf,
    euler_power_formal,
    euler_power_recurrence,
    log_euler_sum,
    partition_gf,
    revert_euler,
)
from .tcore import (
    HSet,
    _h_elements,
    _n_of,
    _require_coding_t,
    _require_t,
    _u_of,
    _v_of,
    core_product_from_v,
    core_weight_from_v,
    enumerate_t_cores,
    is_t_core,
)


MAX_PARTITIONS_ENV = "HOOKEXP_MAX_PARTITIONS"
EXIT_BROKEN_PIPE = 141
_ODD_T = "--t must be an odd integer >= 3"  # codings, and registry t


class UsageError(ValueError):
    pass


def _guard_partition_count(flag, n, up_to=False, t=None):
    """Refuse an n whose partitions (of n, or of every size up to n) are
    too many to enumerate; point a t-core listing at the coding search when
    it takes the t (none given, or an odd t >= 3)."""
    limit = _env_int(MAX_PARTITIONS_ENV, 10 ** 6, 0)
    # p is increasing, so the first size whose count (or running sum)
    # passes the limit decides, and no larger count is computed
    count = 0
    for m in range(n + 1):
        count = count + partition_count(m) if up_to else partition_count(m)
        if count > limit:
            raise UsageError(
                "%s %d has more partitions%s than the %d this command may "
                "enumerate (%s); %s"
                % (flag, n, " of sizes up to %d" % n if up_to else "",
                   limit, MAX_PARTITIONS_ENV,
                   "for t-cores with odd t >= 3 use `cores --method coding`"
                   if not up_to and (t is None or t >= 3 and t % 2) else
                   "lower %s" % flag))


def _as_int(x, what):
    x = Fraction(x)
    if x.denominator != 1:
        raise UsageError("%s is not an integer: %s" % (what, x))
    return x.numerator


def _cmd_expand(args):
    _require_int(args.order, "--order", 0, "--order must be non-negative")
    _require_int(args.shift, "--shift", 0, "--shift must be non-negative")
    formal = args.exponent.strip() == "beta"
    base = max(args.order - args.shift, 0)
    if formal:
        ser = euler_power_formal(base)
    else:
        try:  # the parse is quadratic, so past 4300 digits it is not run
            if max(map(len, args.exponent.strip().lstrip("+-").split("/"))) > 4300:
                raise ValueError("numerator or denominator over 4300 digits")
            exponent = parse_rational(args.exponent)
        except ValueError as exc:
            raise UsageError("--exponent: %s" % exc) from None
        ser = euler_power_recurrence(exponent, base)
    # Past the order every kept coefficient is zero, so the shift is capped.
    shift = min(args.shift, args.order + 1)
    coeffs = ser.shift(shift).coeffs[:args.order + 1]
    if args.format == "plain":
        for n, c in enumerate(coeffs):
            print("%d: %s" % (n, serialize_scalar(c)))
    elif args.format == "json":
        if formal:
            print(json.dumps([c.to_strings() for c in coeffs]))
        else:
            print(json.dumps([format_rational(c) for c in coeffs]))
    else:  # bfile: 1-based integer lines "n a(n)"
        if formal:
            raise UsageError("bfile output needs a numeric --exponent")
        values = [_as_int(coeffs[n], "--format bfile: coefficient of x^%d" % n)
                  for n in range(1, args.order + 1)]  # all checked first
        for n, v in enumerate(values, 1):
            print("%d %d" % (n, v))
    return 0


def _print_report(report):
    print("%s: %s  (%s)  %.3f ms" % (report.id, report.status,
                                     report.checked_range, report.elapsed_ms))
    if report.first_mismatch:
        mm = report.first_mismatch
        print("    first mismatch at %s: lhs=%s rhs=%s"
              % (mm["location"], mm["lhs"], mm["rhs"]))


def _cmd_verify(args):
    if args.all:
        for flag in ("id", "t", "n"):
            if getattr(args, flag) is not None:
                raise UsageError("--all cannot be combined with --%s" % flag)
        if args.order is not None:
            _require_int(args.order, "--order", 0,
                         "--order must be at least 0 with --all")
            _guard_partition_count("--order", max(
                budget_params(e, args.order)[key]
                for e in REGISTRY.values() for key in e.minimal), up_to=True)
        reports = verify_all(order_budget=args.order)
    else:
        if not args.id:
            raise UsageError("verify needs --id or --all")
        if args.id not in REGISTRY:
            raise UsageError("unknown identity id: %s" % args.id)
        entry = REGISTRY[args.id]
        params = {}
        for flag, key in (("order", "N"), ("t", "t"), ("n", "n")):
            value = getattr(args, flag)
            if value is None:
                continue
            if key not in entry.defaults:
                raise UsageError("%s takes no --%s parameter" % (args.id, flag))
            floor = entry.minimal.get(key)
            if floor is not None and value < floor:
                raise UsageError("--%s must be at least %d for %s"
                                 % (flag, floor, args.id))
            if flag == "t":
                _require_coding_t(value, _ODD_T)
            else:
                _guard_partition_count("--" + flag, value, up_to=True)
            params[key] = value
        reports = [verify(args.id, params)]
    if args.format == "json":
        if args.all:
            print(json.dumps([r.to_dict() for r in reports]))
        else:
            print(reports[0].to_json())
    else:
        for r in reports:
            _print_report(r)
        if args.all:
            bad = sum(1 for r in reports if not r.ok)
            print("%d checks: %d pass, %d fail"
                  % (len(reports), len(reports) - bad, bad))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_list_identities(args):
    for cid in sorted(REGISTRY):
        entry = REGISTRY[cid]
        shown = []
        for key, value in entry.defaults.items():
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            shown.append("%s=%s" % (key, value))
        print("%s: %s [defaults: %s]" % (cid, entry.description, ", ".join(shown)))
    return 0


def _cmd_partitions(args):
    _require_int(args.n, "--n", 0, "--n must be non-negative")
    t = args.t_core
    if t is not None:
        _require_t(t, "--t-core must be positive")
    _guard_partition_count("--n", args.n, t=t)
    for parts in enumerate_partitions(args.n):  # streamed: constant memory
        if t is None or is_t_core(parts, t):
            print(",".join(map(str, parts)))
    return 0


def _cmd_cores(args):
    _require_int(args.n, "--n", 0, "--n must be non-negative")
    if args.method == "filter":
        _require_t(args.t, "--t must be a positive integer")
        args.t_core = args.t  # the same scan as `partitions --t-core`
        return _cmd_partitions(args)
    _require_coding_t(args.t, _ODD_T)
    for core in enumerate_t_cores(args.n, args.t, method="coding"):
        print(",".join(map(str, core)))
    return 0


def _cmd_coding(args):
    text = args.parts.strip()  # the empty string is the empty partition
    try:
        parts = validate_partition(map(int, text.split(","))) if text else ()
    except ValueError as exc:
        raise UsageError("--parts: %s" % exc) from None
    csv = ",".join(map(str, parts))
    t = args.t
    _require_coding_t(t, _ODD_T)
    if not is_t_core(parts, t):
        raise UsageError("%s is not a %d-core" % (csv or "()", t))
    hs = HSet(t, _h_elements(parts, t))  # parts are now a checked t-core
    u = _u_of(parts, t)
    v = _v_of(parts, t)
    nn = _n_of(parts, t)
    weight = core_weight_from_v(v, t)
    _invariant(weight == sum(parts), "weight formula disagrees with |partition|")
    prod = core_product_from_v(v, t)
    _invariant(prod == hook_eval_product(parts, t * t),
               "difference-product route disagrees with hooks")
    print("partition: %s" % csv)
    print("t: %d" % t)
    print("H-set: %s" % list(hs.sorted_desc()))
    print("U-coding: %s" % (u,))
    print("V-coding: %s" % (v,))
    print("N-coding: %s" % (nn,))
    print("weight: %d" % weight)
    print("beta=%d product: %s" % (t * t, format_rational(prod)))
    return 0


def _seq_values(name, count):
    if name == "tau":
        ser = euler_power_recurrence(24, count - 1)
        return [_as_int(ser[i], "tau(%d)" % (i + 1)) for i in range(count)]
    if name == "a006128":
        ser = partition_gf(count) * divisor_power_gf(0, count)
        return [_as_int(ser[i], "a(%d)" % i) for i in range(1, count + 1)]
    if name == "a057623":
        ser = partition_gf(count) * log_euler_sum(count)
        return [_as_int(ser[i] * factorial(i), "a(%d)" % i)
                for i in range(1, count + 1)]
    if name == "a109085":
        ser = revert_euler(count, method="iterate")
        return [_as_int(ser[i], "a(%d)" % i) for i in range(1, count + 1)]
    # pp: ordered pairs of partitions with total size n
    pl = [partition_count(i) for i in range(count + 1)]
    return [sum(pl[a] * pl[n - a] for a in range(n + 1))
            for n in range(1, count + 1)]


def _cmd_seq(args):
    _require_int(args.count, "--count", 1, "--count must be positive")
    vals = _seq_values(args.name, args.count)
    if args.format == "json":
        print(json.dumps(vals))
    else:
        for i, v in enumerate(vals):
            print("%d %d" % (i + 1, v))
    return 0


def _cmd_revert(args):
    _require_int(args.order, "--order", 0, "--order must be non-negative")
    if args.method == "lagrange":
        _guard_partition_count("--order", args.order, up_to=True)
    ser = revert_euler(args.order, method=args.method)
    for n in range(args.order + 1):
        print("%d: %s" % (n, format_rational(ser[n])))
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="hookexp",
        description="exact hook-length expansions of powers of the Euler product")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="coefficients of the Euler product power")
    p.add_argument("--exponent", required=True,
                   help="rational like 24 or -3/2, or the literal 'beta'")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--shift", type=int, default=0,
                   help="multiply the series by x^k")
    p.add_argument("--format", choices=("plain", "json", "bfile"),
                   default="plain")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("--id", help="registry id (see list-identities)")
    p.add_argument("--order", type=int, help="series order N (or --all budget)")
    p.add_argument("--t", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--all", action="store_true")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("list-identities", help="catalog of registered checks")
    p.set_defaults(func=_cmd_list_identities)

    p = sub.add_parser("partitions", help="partitions of n, reverse lexicographic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-core", dest="t_core", type=int,
                   help="keep only t-cores")
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("cores", help="t-cores of n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--method", choices=("filter", "coding"), default="filter")
    p.set_defaults(func=_cmd_cores)

    p = sub.add_parser("coding", help="all codings of one t-core")
    p.add_argument("--parts", required=True,
                   help="comma-separated partition, e.g. 14,10,6,6,4,4,4,2,2,2")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_coding)

    p = sub.add_parser("seq", help="classical sequences computed exactly")
    p.add_argument("--name", required=True,
                   choices=("tau", "a006128", "a057623", "a109085", "pp"))
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("bfile", "json"), default="bfile")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("revert", help="compositional inverse of x*prod(1-x^m)")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", choices=("lagrange", "iterate"),
                   default="lagrange")
    p.set_defaults(func=_cmd_revert)

    return ap


def _glue_negative_exponent(argv):
    # argparse reads "--exponent -3/2" as a missing value; pre-join it
    out = []
    i = 0
    while i < len(argv):
        if (argv[i] == "--exponent" and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _glue_negative_exponent(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else int(exc.code)
    # exact output has no digit cap; in-process callers get theirs back
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull so that the
        # flush at interpreter exit does not raise again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # stdout is not a file descriptor (captured in-process)
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
