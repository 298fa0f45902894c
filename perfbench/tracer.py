"""Run one hookexp CLI job in-process with every layer wrapped in spans.

    python3 perfbench/tracer.py --job ID --summary FILE --spans FILE -- ARGS...

runs ``hookexp.cli.main(ARGS)`` in this fresh interpreter.  Before the
call it replaces the public functions of each module (exactnum, partition,
tcore, series, identities, cli) with timing wrappers: in the defining module,
in every module that imported the name with ``from .x import ...``, and on
the classes for methods.  The wrappers are removed again before the process
writes its results, and their removal is checked.

Each span has a name, start and end (perf_counter seconds), its parent
span, the job id and ``cache``: "cold" when a partition cache
(``partition_tuples`` or ``hook_lists``) missed during the span, else
"warm".  A function that calls itself gets one span for the outermost
call.  Helpers that are not wrapped count toward their caller's self time.
Spans are kept in memory and written as JSONL when the job ends; the
summary holds per-span-name self and inclusive times, call counts, the
lru ``cache_info()`` deltas and the counters named in layers.COUNTERS.
"""

import argparse
import json
import sys
from collections import Counter
from time import perf_counter

import hookexp
from hookexp import cli, exactnum, identities, partition, series, tcore
from checkers import partition_numbers
from layers import LAYERS, OTHER

MODULES = (exactnum, partition, tcore, series, identities, cli, hookexp)

PARTITION_CACHES = ("partition_tuples", "hook_lists")


def _is_wrapper(obj):
    return getattr(obj, "_perfbench_span", None) is not None


def installed_wrappers():
    """(owner, attribute) pairs that still hold a tracing wrapper."""
    found = []
    owners = list(MODULES) + [series.Series, exactnum.BetaPoly]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if _is_wrapper(value):
                found.append((getattr(owner, "__name__", owner), attr))
    for cid, entry in identities.REGISTRY.items():
        if _is_wrapper(entry.fn):
            found.append(("REGISTRY", cid))
    return found


class Tracer:
    """Spans and counters of one traced job."""

    def __init__(self, job):
        self.job = job
        self.spans = []         # (id, parent, name, t0, t1, cold)
        self.stack = []         # open frames: [id, child_time, misses_at_start]
        self.active = set()     # names with an open span (recursion guard)
        self.self_s = Counter()
        self.incl_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.misses = 0         # partition-cache misses seen so far
        self._patches = []      # (owner, attribute, original)
        self._cache_start = {}

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, label=None, after=None):
        tr = self
        stack, active, spans = self.stack, self.active, self.spans

        def wrapper(*args, **kwargs):
            span = name if label is None else label(args, kwargs)
            if span in active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            sid = len(spans) + len(stack)
            frame = [sid, 0.0, tr.misses]
            stack.append(frame)
            active.add(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active.discard(span)
            if after is not None:
                after(args, result)
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            tr.self_s[span] += dur - frame[1]
            tr.incl_s[span] += dur
            tr.calls[span] += 1
            spans.append((sid, None if parent is None else parent[0], span,
                          t0, t1, tr.misses != frame[2]))
            return result

        wrapper._perfbench_span = name
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr, **hooks):
        original = getattr(module, attr)
        wrapper = self._wrap("%s.%s" % (module.__name__.split(".")[-1], attr),
                             original, **hooks)
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper)

    def _patch_method(self, cls, attr, **hooks):
        owner = cls.__module__.split(".")[-1]
        wrapper = self._wrap("%s.%s.%s" % (owner, cls.__name__, attr),
                             vars(cls)[attr], **hooks)
        self._patch(cls, attr, wrapper)

    # -- counters fed by the wrappers ---------------------------------------

    def _cache_hook(self, fn, built):
        before = [0]

        def after(args, result):
            misses = fn.cache_info().misses
            if misses != before[0]:
                self.misses += misses - before[0]
                if built:
                    self.counts["partition.partitions_built"] += len(result)
            before[0] = misses
        before[0] = fn.cache_info().misses
        return after

    def _weighted(self, args, result):
        n = args[0]
        self.counts["partition.partitions_weighted"] += partition_numbers(n)[n]

    def _cores_out(self, args, result):
        self.counts["tcore.cores_out"] += len(result)

    def _series_out(self, args, result):
        # count only coefficients handed to a caller outside the series layer
        if isinstance(result, series.Series) and not any(
                name.startswith("series.") for name in self.active):
            self.counts["series.coeffs_out"] += len(result.coeffs)

    def _check_status(self, args, result):
        if result.status != "pass":
            self.counts["identities.checks_failed"] += 1

    # -- install / remove ---------------------------------------------------

    def install(self):
        """Wrap every layer function; undo with remove()."""
        for fn_name in PARTITION_CACHES:
            self._cache_start[fn_name] = getattr(partition, fn_name).cache_info()
        modules = {m.__name__.split(".")[-1]: m for m in MODULES}
        names = {n for group in LAYERS.values() for n in group} | set(OTHER)
        names -= set(LAYERS["tcore.search"] + LAYERS["tcore.filter"])
        for name in sorted(names):
            parts = name.split(".")
            hooks = {}
            if parts[0] == "series":
                hooks["after"] = self._series_out
            elif parts[1] in PARTITION_CACHES:
                hooks["after"] = self._cache_hook(
                    getattr(partition, parts[1]),
                    built=parts[1] == "partition_tuples")
            elif parts[1] in ("hook_beta_sum", "hook_beta_sum_poly"):
                hooks["after"] = self._weighted
            elif name == "identities.verify":
                hooks["after"] = self._check_status
            module = modules[parts[0]]
            if len(parts) == 3:
                self._patch_method(getattr(module, parts[1]), parts[2], **hooks)
            else:
                self._patch_function(module, parts[1], **hooks)
        # one function, two layers: the span name carries the method
        self._patch_function(
            tcore, "enumerate_t_cores", after=self._cores_out,
            label=lambda a, k: "tcore.enumerate_t_cores[%s]"
            % (a[2] if len(a) > 2 else k.get("method", "filter")))
        for cid, entry in identities.REGISTRY.items():
            self._patch(entry, "fn", self._wrap(
                "identities.check." + cid, entry.fn))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def cache_deltas(self):
        out = {}
        for fn_name in PARTITION_CACHES:
            start = self._cache_start[fn_name]
            now = getattr(partition, fn_name).cache_info()
            out[fn_name] = {"hits": now.hits - start.hits,
                            "misses": now.misses - start.misses}
        return out

    def summary(self):
        return {"job": self.job, "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "cache": self.cache_deltas(),
                "spans": len(self.spans)}

    def write_spans(self, fh):
        line = ('{"id": %%d, "parent": %%s, "name": "%%s", "start": %%.9f, '
                '"end": %%.9f, "job": %s, "cache": "%%s"}\n' % json.dumps(self.job))
        for sid, parent, name, t0, t1, cold in sorted(self.spans):
            fh.write(line % (sid, "null" if parent is None else parent, name,
                             t0, t1, "cold" if cold else "warm"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--job", required=True)
    ap.add_argument("--summary", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv
    tracer = Tracer(opts.job)
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.remove()
        sys.stdout.flush()
    left = installed_wrappers()
    if left:
        raise SystemExit("tracing wrappers left installed: %r" % (left,))
    with open(opts.spans, "w") as fh:
        tracer.write_spans(fh)
    with open(opts.summary, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
