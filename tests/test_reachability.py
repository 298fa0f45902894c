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

The same run pins what each command prints: PINNED holds its exit code
and the SHA-256 of its stdout, with the timings set to fixed values
(_scrub).  The `verify` lines run again at HOOKEXP_WORKERS=2, and the whole
run once more under `python -O`; both must give the same table.  A change
that alters output on purpose updates PINNED and says which lines moved.

Run as a script, this file is that interpreter: it prints a JSON object,
{"outputs": {command: [exit code, digest]}, "reached": {function: bool}}.
"""

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
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
    "hookexp revert --order 60",
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

# {command line: (exit code, SHA-256 of its scrubbed stdout)}; see the
# module docstring.
PINNED = {
    "hookexp expand --exponent 24 --order 6 --shift 1 --format bfile":
        (0, "1a251355f63ae4dda9b931c7fb86c74b3be89ebc6f46bf08ed58e40568fe583b"),
    "hookexp expand --exponent beta --order 3":
        (0, "18c4483446b237b5e2f6e813f35bd13c66245d602131ca4eb2681f3d0879a34c"),
    "hookexp verify --id main-identity --order 30":
        (0, "279b029ce373c2e77ec0ef7351939fb07e2d6767666b4c30aa47f2906ebe3373"),
    "hookexp verify --id macdonald --t 7 --order 15":
        (0, "09df719ed47a2fa3cb8959c1437eb0c1b9c8cc1a3c3a2327e3356b2447cd3517"),
    "hookexp verify --all --format json":
        (1, "1343701ce9c75063ebbf007612ce1365da45224d628faaa5a19c0f7e0c196482"),
    "hookexp list-identities":
        (0, "45f93d7031d8fdcb64ce1aa7727dc0be7d586010b30fcee8c3badc5b0fce4ad1"),
    "hookexp verify --all --order 10":
        (1, "c1a79188fc10db72aa7239351905bcc3c6a4cab8cbbd548c76395b45f1a2ed47"),
    "hookexp partitions --n 5 --t-core 3":
        (0, "751bc88f91111d0040a8878aa8c63eab5b6091ea729d7a0e011fe5ba730480af"),
    "hookexp cores --n 20 --t 5 --method coding":
        (0, "93ebd65e1cfe0f7d1bc4190e0572c116f10ba4115744cd89757f3bbc2c275f83"),
    "hookexp coding --parts 14,10,6,6,4,4,4,2,2,2 --t 5":
        (0, "6a1e57be48517f9a2276782039388f9fcd2dcbbc50503c4ae10871d371913b7a"),
    "hookexp seq --name tau --count 10":
        (0, "f4785f0461554592f8b145515cbb793331cbf9bb068d06597428f7c67b427fda"),
    "hookexp seq --name a109085 --count 7 --format json":
        (0, "2ec7dc4adb6b5c973ea80193509980619f9f4ebacd2e7741aead70d29fb5fda2"),
    "hookexp revert --order 10 --method lagrange":
        (0, "39844961fc4847dbe55c290e79111c4613942cb5481ce02c16a40ef2fba67561"),
    "hookexp verify --id main-identity --order 8":
        (0, "192f47823f9a4a20d799e0b63062231b055c36e61bddd50f0716bf1f19662c9a"),
    "hookexp seq --name a109085 --count 10":
        (0, "242a459123fb6777eca8380c7a32689f56fa4488bbb735535dd353a541654ccb"),
    "hookexp expand --exponent 24 --order 40":
        (0, "8c83ff949f0a18323edbb8be98dd0a46652bdb3e07abcd62edde54e9024ecd27"),
    "hookexp expand --exponent 3/2 --order 20":
        (0, "5ee566b5df603b1411e9853f332e1ff3f10840bf86c434046bd576bfd4cbeff6"),
    "hookexp expand --exponent beta --order 8":
        (0, "4a6c89cf6f35166278f94be28bd48e3f6880f9a4770847dd171323df3a300488"),
    "hookexp revert --order 10 --method iterate":
        (0, "39844961fc4847dbe55c290e79111c4613942cb5481ce02c16a40ef2fba67561"),
    "hookexp cores --n 60 --t 5 --method coding":
        (0, "2dca4c41208baab5b1a3a64092970fda52967bf41cd78af1e33f4548b1f7f17c"),
    "hookexp cores --n 30 --t 9 --method coding":
        (0, "503804cad457da94d5d988ada70f27e97ddd1bb8b6f9fcae52cb89003bdc4536"),
    "hookexp cores --n 12 --t 3 --method filter":
        (0, "a4ff568d016f2bfc5709809373f5e50544191472d83911ed2c9738129193a483"),
    "hookexp revert --order 8 --method lagrange":
        (0, "86bde6a6c5af281b31278a657acc818f11ff428c2292b2610b1952f435fe96ee"),
    "hookexp revert --order 60":
        (0, "ad4091a247369f27efd03def22683c44273e3bc3182aec9056d486910542f686"),
    "hookexp seq --name tau --count 6":
        (0, "1a251355f63ae4dda9b931c7fb86c74b3be89ebc6f46bf08ed58e40568fe583b"),
    "hookexp seq --name a006128 --count 6":
        (0, "91db2543e47d67f0a4795964cab2df558449987f67c45bd1048f90baac994a1a"),
    "hookexp seq --name a057623 --count 6":
        (0, "65a89d728c7189b32ce9968b77c98007a348a14188b46e44dcc4064e0bfc240f"),
    "hookexp seq --name a109085 --count 6 --format json":
        (0, "4d616314108afcdb712773692362cc6a5d9a8c336ae867e4842105bfbfaf0d62"),
    "hookexp seq --name pp --count 6":
        (0, "758a6dde62be4900bb4ea3b974ed6af43bca9672e37741e5aac87227f9420fb4"),
    "hookexp expand --exponent 2 --order 6 --format plain":
        (0, "9f272f0c33cdb9da9f8dbb8460e34996924aeae13ed31e900c5480b2bed4aa1b"),
    "hookexp expand --exponent 2 --order 6 --format json":
        (0, "7bf4b0cc740af0eac1f44dc18a81c80112b5ab5b418b3f61142a458c5058f4e5"),
    "hookexp expand --exponent 2 --order 6 --format bfile":
        (0, "b562808408920967707f473e4d1fd1ec21099df8248a5f023bed639c5fdc181c"),
    "hookexp verify --id macdonald --t 5 --order 6 --format json":
        (0, "c21ed23f01b0859c10d96ecb220bce81b60fa48d18f155acbac232bb22f1b6cc"),
}

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


def _scrub(out):
    """stdout with its timings fixed: JSON "elapsed_ms" values and the
    "... ms" that ends each plain `verify` report line."""
    out = re.sub(r'"elapsed_ms": [^,}]+', '"elapsed_ms": 0', out)
    return re.sub(r"  \d+\.\d{3} ms$", "  0.000 ms", out, flags=re.M)


def _outputs(lines):
    """{line: (exit code, SHA-256 of its scrubbed stdout)}, each line run
    through cli.main."""
    from hookexp.cli import main
    outputs = {}
    for line in lines:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(shlex.split(line)[1:])
        outputs[line] = code, hashlib.sha256(
            _scrub(out.getvalue()).encode()).hexdigest()
    return outputs


def _trace():
    """Run every command under the profile; see the module docstring."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    from test_readme import COMMANDS
    outputs = _outputs(COMMANDS + EXTRA)
    sys.setprofile(None)
    return {"outputs": outputs,
            "reached": {name: code in called
                        for name, code in _defined().items()}}


if __name__ == "__main__":
    json.dump(_trace(), sys.stdout)


def _run_traced(*flags):
    env = dict(os.environ, HOOKEXP_WORKERS="1")  # PYTHONPATH: conftest.py
    env.pop("HOOKEXP_MAX_PARTITIONS", None)
    done = subprocess.run([sys.executable, *flags, __file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout)
    traced["outputs"] = {line: tuple(pin)
                         for line, pin in traced["outputs"].items()}
    return traced


@pytest.fixture(scope="module")
def traced():
    return _run_traced()


def test_every_command_runs(traced):
    # the registry's prop-6-12 fails by design, so `verify --all` exits 1
    for line, (code, _) in traced["outputs"].items():
        assert code == (1 if "verify --all" in line else 0), line


def test_every_command_prints_its_pinned_bytes(traced):
    assert len(PINNED) == 33
    assert traced["outputs"] == PINNED


def test_two_workers_print_the_pinned_bytes(monkeypatch):
    monkeypatch.setenv("HOOKEXP_WORKERS", "2")
    monkeypatch.delenv("HOOKEXP_MAX_PARTITIONS", raising=False)
    lines = [line for line in PINNED if line.startswith("hookexp verify ")]
    assert any("--all" in line for line in lines)
    assert _outputs(lines) == {line: PINNED[line] for line in lines}


def test_python_o_prints_the_pinned_bytes():
    assert _run_traced("-O")["outputs"] == PINNED


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
