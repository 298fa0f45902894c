"""The benchmark's tracer looks up every layer name with getattr, so a name
deleted or renamed in hookexp would crash a traced benchmark run; these
tests fail first.  The files under perfbench/ are only imported, never
changed."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Import perfbench/<name>.py.  Its siblings (checkers.py, layers.py)
    import as top-level modules; those are dropped again afterwards."""
    saved = sys.dont_write_bytecode, set(sys.modules)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_" + name, PERFBENCH / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved[0]
        for sibling in ("checkers", "layers"):
            if sibling not in saved[1]:
                sys.modules.pop(sibling, None)
    return module


def test_every_traced_name_resolves_in_hookexp():
    layers = _load("layers")
    names = {n for group in layers.LAYERS.values() for n in group}
    names |= set(layers.OTHER)
    missing = []
    for name in sorted(names):
        # "tcore.enumerate_t_cores[coding]": the suffix tags the span only
        module, *attrs = name.split("[")[0].split(".")
        obj = importlib.import_module("hookexp." + module)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert len(names) > 50
    assert missing == []


def test_the_tracer_installs_and_removes_every_wrapper():
    # the tracer wraps functions by object identity and reads cache_info()
    # from the partition caches: a traced name that is deleted, aliased to
    # another traced name or uncached makes install() raise
    tracer = _load("tracer")
    traced = tracer.Tracer("install-remove")
    try:
        traced.install()
        assert tracer.installed_wrappers() != []
    finally:
        traced.remove()
    assert tracer.installed_wrappers() == []


def test_every_name_the_selftest_reads_resolves():
    # perfbench/selftest.py reads module attributes such as
    # identities.hook_beta_sum_poly directly, so a dropped import breaks it
    import re
    text = (PERFBENCH / "selftest.py").read_text()
    aliases = {"hcli": "cli", "identities": "identities",
               "partition": "partition", "series": "series"}
    found = set(re.findall(r"\b(%s)\.([A-Za-z_]\w*)\b" % "|".join(aliases), text))
    assert ("identities", "hook_beta_sum_poly") in found
    missing = [(alias, attr) for alias, attr in sorted(found)
               if not hasattr(importlib.import_module("hookexp." + aliases[alias]),
                              attr)
               and (alias, attr) != ("identities", "check")]  # a span-name prefix
    assert missing == []
