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
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from math import factorial

from .exactnum import (BetaPoly, format_rational, parse_rational,
                       serialize_scalar)
from .identities import REGISTRY, verify, verify_all
from .partition import (
    hook_eval_product,
    partition_count,
    partition_tuples,
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
    core_product_from_v,
    core_weight_from_v,
    enumerate_t_cores,
    h_set,
    is_t_core,
    n_coding,
    u_coding,
    v_coding,
)


MAX_PARTITIONS_ENV = "HOOKEXP_MAX_PARTITIONS"
DEFAULT_MAX_PARTITIONS = 10 ** 6
EXIT_BROKEN_PIPE = 141


class UsageError(ValueError):
    pass


def _guard_partition_count(flag, n, up_to=False):
    """Refuse an n whose partitions (of n, or of every size up to n) are
    too many to enumerate."""
    raw = os.environ.get(MAX_PARTITIONS_ENV, "")
    try:
        limit = int(raw) if raw else DEFAULT_MAX_PARTITIONS
    except ValueError:
        raise UsageError("%s must be an integer, got %r"
                         % (MAX_PARTITIONS_ENV, raw)) from None
    count = sum(map(partition_count, range(n + 1) if up_to else (n,)))
    if count > limit:
        raise UsageError(
            "%s %d has %d partitions%s, more than the %d this command may "
            "enumerate (%s); %s"
            % (flag, n, count, " of sizes up to %d" % n if up_to else "",
               limit, MAX_PARTITIONS_ENV,
               "lower %s" % flag if up_to else
               "for t-cores with odd t >= 3 use `cores --method coding`"))


def _require_odd_t(t):
    """Codings, and every registry entry that takes t, need an odd t >= 3."""
    if t < 3 or t % 2 == 0:
        raise UsageError("--t must be an odd integer >= 3")


def _as_int(x, what):
    x = Fraction(x)
    if x.denominator != 1:
        raise UsageError("%s is not an integer: %s" % (what, x))
    return x.numerator


def _cmd_expand(args):
    if args.order < 0:
        raise UsageError("--order must be non-negative")
    if args.shift < 0:
        raise UsageError("--shift must be non-negative")
    formal = args.exponent.strip() == "beta"
    base = args.order - args.shift
    if formal:
        if base < 0:
            coeffs = [BetaPoly()] * (args.order + 1)
        else:
            coeffs = list(euler_power_formal(base).shift(args.shift).coeffs)
    else:
        s = parse_rational(args.exponent)
        if base < 0:
            coeffs = [Fraction(0)] * (args.order + 1)
        else:
            ser = euler_power_recurrence(s, base)
            coeffs = list(ser.shift(args.shift).coeffs)
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
        for n in range(1, args.order + 1):
            print("%d %d" % (n, _as_int(coeffs[n], "coefficient of x^%d" % n)))
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
            if args.order < 0:
                raise UsageError("--order must be at least 0 with --all")
            _guard_partition_count("--order", args.order, up_to=True)
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
                _require_odd_t(value)
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
    if args.n < 0:
        raise UsageError("--n must be non-negative")
    t = args.t_core
    if t is not None and t < 1:
        raise UsageError("--t-core must be positive")
    _guard_partition_count("--n", args.n)
    for parts in partition_tuples(args.n):
        if t is not None and not is_t_core(parts, t):
            continue
        print(",".join(map(str, parts)))
    return 0


def _cmd_cores(args):
    if args.n < 0:
        raise UsageError("--n must be non-negative")
    if args.method == "filter":
        if args.t < 1:
            raise UsageError("--t must be a positive integer")
        _guard_partition_count("--n", args.n)
    else:
        _require_odd_t(args.t)
    for core in enumerate_t_cores(args.n, args.t, method=args.method):
        print(",".join(map(str, core)))
    return 0


def _cmd_coding(args):
    text = args.parts.strip()  # the empty string is the empty partition
    parts = validate_partition(map(int, text.split(","))) if text else ()
    csv = ",".join(map(str, parts))
    t = args.t
    _require_odd_t(t)
    if not is_t_core(parts, t):
        raise UsageError("%s is not a %d-core" % (csv or "()", t))
    hs = h_set(parts, t)
    u = u_coding(parts, t)
    v = v_coding(parts, t)
    nn = n_coding(parts, t)
    weight = core_weight_from_v(v, t)
    if weight != sum(parts):
        raise RuntimeError("weight formula disagrees with |partition|")
    prod = core_product_from_v(v, t)
    if prod != hook_eval_product(parts, t * t):
        raise RuntimeError("difference-product route disagrees with hooks")
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
    if args.count < 1:
        raise UsageError("--count must be positive")
    vals = _seq_values(args.name, args.count)
    if args.format == "json":
        print(json.dumps(vals))
    else:
        for i, v in enumerate(vals):
            print("%d %d" % (i + 1, v))
    return 0


def _cmd_revert(args):
    if args.order < 0:
        raise UsageError("--order must be non-negative")
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


if __name__ == "__main__":
    sys.exit(main())
