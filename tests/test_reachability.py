"""Least code, kept so: every function of src/hookexp is reached by the CLI.

One fresh interpreter, profiled with sys.setprofile from before `import
hookexp` (so import-time code counts), runs commands through cli.main at
HOOKEXP_WORKERS=1: every `hookexp` line of the README's sh blocks
(test_readme.COMMANDS), then EXTRA: one small command per perfbench job
kind and the options that neither shows.
Each function defined at module or class level in src/hookexp must be
reached by one of them, or be on one of two lists, each entry with its
reason:

- PUBLIC_ONLY: object protocol, validation and public API that only
  library callers and tests reach.  A new library-only name goes here.
- KEPT_FOR_PERFBENCH: names nothing reaches that perfbench still maps or
  imports.  This list only shrinks: drop an entry, and the function, when
  perfbench stops naming it.

Run as a script, this file is that interpreter: it prints a JSON object,
{"codes": {command: exit code}, "reached": {function: bool}}.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import shlex
import subprocess
import sys

import pytest

EXTRA = [
    # one small command per perfbench job kind
    "hookexp verify --id main-identity --order 8",
    "hookexp seq --name a109085 --count 10",
    "hookexp expand --exponent 24 --order 40",
    "hookexp expand --exponent 3/2 --order 20",
    "hookexp expand --exponent beta --order 8",
    "hookexp revert --order 10 --method iterate",
    "hookexp cores --n 60 --t 5 --method coding",
    "hookexp cores --n 30 --t 9 --method coding",
    # (the registry's `verify --all --format json` is a README line)
    # the rest of each command's options
    "hookexp cores --n 12 --t 3 --method filter",
    "hookexp revert --order 8 --method lagrange",
    "hookexp seq --name tau --count 6",
    "hookexp seq --name a006128 --count 6",
    "hookexp seq --name a057623 --count 6",
    "hookexp seq --name a109085 --count 6 --format json",
    "hookexp seq --name pp --count 6",
    "hookexp expand --exponent 2 --order 6 --format plain",
    "hookexp expand --exponent 2 --order 6 --format json",
    "hookexp expand --exponent 2 --order 6 --format bfile",
    "hookexp verify --id macdonald --t 5 --order 6 --format json",
]

# Reached by no command; library callers and tests reach them.
PUBLIC_ONLY = {
    "exactnum.BetaPoly.__bool__": "object protocol: truth value",
    "exactnum.BetaPoly.__hash__": "object protocol: equal BetaPolys hash "
                                  "alike",
    "exactnum.BetaPoly.__repr__": "object protocol: the debugging form",
    "exactnum.BetaPoly.__setattr__": "object protocol: a BetaPoly is "
                                     "immutable",
    "series.Series.__repr__": "object protocol: the debugging form",
    "tcore.HSet.__reduce__": "unpickling goes through the validating "
                             "constructor",
    "tcore.HSet._make": "validation on unpickling",
    "exactnum.BetaPoly.constant": "public API: the constant polynomial c",
    "exactnum.BetaPoly.degree": "public API: the degree in beta",
    "partition.hook_beta_sum": "public API (hookexp.__all__): one beta "
                               "sum for one n",
    "partition.hook_beta_sum_poly": "public API (hookexp.__all__): one "
                                    "polynomial beta sum for one n",
    "tcore.h_set": "public API (hookexp.__all__): the H-set coding",
    "tcore.u_coding": "public API (hookexp.__all__): the U-coding",
    "tcore.v_coding": "public API (hookexp.__all__): the V-coding",
    "tcore.n_coding": "public API (hookexp.__all__): the N-coding",
    "tcore._checked_core": "the check that the four public codings share",
    "partition._clear_memos": "the test hook that forgets every memo",
}

# Reached by no command; perfbench still maps or imports them.  Only
# shrinks.
KEPT_FOR_PERFBENCH = {
    "exactnum.BetaPoly.__pow__": "perfbench/layers.py: exactnum.betapoly",
    "exactnum.BetaPoly.__truediv__": "perfbench/layers.py: exactnum.betapoly",
    "exactnum.BetaPoly.__rsub__": "perfbench/layers.py: exactnum.betapoly",
    "series.Series.__pow__": "perfbench/layers.py: series.mul",
    "series.Series.log": "perfbench/layers.py: series.exp",
    "tcore.max_by_residue": "perfbench/layers.py: tcore.codings",
    "exactnum.power_by_squaring": "only the two __pow__ methods reach it",
    "partition.hook_lists": "perfbench/layers.py: partition.enum, and "
                            "perfbench/tracer.py: PARTITION_CACHES",
    "tcore.v_from_n": "perfbench/layers.py: tcore.decode; "
                      "tests/test_acceptance.py imports it",
}
PERFBENCH_CAP = 9  # len(KEPT_FOR_PERFBENCH) at the test's start


def _defined():
    """{"module.qualname": code object} of every function defined at
    module or class level in a hookexp module."""
    import hookexp
    out = {}

    def add(mod, fn):
        fn = inspect.unwrap(fn)  # a memo's function
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            out["%s.%s" % (mod.__name__.rpartition(".")[2],
                           fn.__qualname__)] = fn.__code__

    for info in pkgutil.iter_modules(hookexp.__path__, "hookexp."):
        mod = importlib.import_module(info.name)
        for obj in vars(mod).values():
            add(mod, obj)
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for member in vars(obj).values():
                    if isinstance(member, property):
                        for fn in (member.fget, member.fset, member.fdel):
                            if fn:
                                add(mod, fn)
                    else:
                        add(mod, getattr(member, "__func__", member))
    return out


def _trace():
    """Run every command under the profile; see the module docstring."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    from hookexp.cli import main
    from test_readme import COMMANDS

    codes = {}
    for line in COMMANDS + EXTRA:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes[line] = main(shlex.split(line)[1:])
    sys.setprofile(None)
    return {"codes": codes,
            "reached": {name: code in called
                        for name, code in _defined().items()}}


if __name__ == "__main__":
    json.dump(_trace(), sys.stdout)


@pytest.fixture(scope="module")
def traced():
    env = dict(os.environ, HOOKEXP_WORKERS="1")  # PYTHONPATH: conftest.py
    env.pop("HOOKEXP_MAX_PARTITIONS", None)
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_command_runs(traced):
    # the registry's prop-6-12 fails by design, so `verify --all` exits 1
    for line, code in traced["codes"].items():
        assert code == (1 if "verify --all" in line else 0), line


def test_every_function_is_reached_or_listed(traced):
    listed = set(PUBLIC_ONLY) | set(KEPT_FOR_PERFBENCH)
    unreached = {name for name, hit in traced["reached"].items() if not hit}
    assert sorted(unreached - listed) == []


def test_every_listed_name_is_defined_and_unreached(traced):
    for name in list(PUBLIC_ONLY) + list(KEPT_FOR_PERFBENCH):
        assert name in traced["reached"], "%s is no longer defined" % name
        assert not traced["reached"][name], "%s is reached" % name


def test_the_lists_are_disjoint_and_give_reasons():
    assert not set(PUBLIC_ONLY) & set(KEPT_FOR_PERFBENCH)
    for reason in list(PUBLIC_ONLY.values()) + list(
            KEPT_FOR_PERFBENCH.values()):
        assert reason.strip()


def test_kept_for_perfbench_only_shrinks():
    assert len(KEPT_FOR_PERFBENCH) <= PERFBENCH_CAP
