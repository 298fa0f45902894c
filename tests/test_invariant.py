"""One invariant rule: every fact the package checks about its own results
goes through exactnum._invariant, which raises ArithmeticError("invariant
failed: ...") also under python -O, so a broken formula never reads as a
usage error (exit 2)."""

import ast
import builtins
import subprocess
import sys
from pathlib import Path

import pytest

import hookexp
from hookexp import cli, exactnum, tcore
from hookexp.series import Series, revert_euler

SRC = Path(hookexp.__file__).resolve().parent


def _nodes(tree):
    """(name of the enclosing function or None, node) for every node."""
    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            name = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)
            yield name, child
            yield from walk(child, name)
    return walk(tree, None)


def _raised(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_every_self_check_goes_through_the_one_invariant_rule():
    found, rule = [], []
    for path in sorted(SRC.glob("*.py")):
        for fn, node in _nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):  # gone under python -O
                found.append("%s:%d assert" % (path.name, node.lineno))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                name = _raised(node)
                where = "%s:%d %s" % (path.name, node.lineno, name)
                if (name == "ArithmeticError"
                        and (path.name, fn) == ("exactnum.py", "_invariant")):
                    rule.append(where)
                elif name in ("ArithmeticError", "RuntimeError"):
                    found.append(where)
    assert found == []
    assert len(rule) == 1
    assert tcore._invariant is exactnum._invariant  # not a copy of its own


def test_a_wrong_weight_in_coding_raises_the_invariant(monkeypatch):
    monkeypatch.setattr(cli, "core_weight_from_v", lambda v, t: 3)
    with pytest.raises(ArithmeticError,
                       match="^invariant failed: weight formula disagrees"):
        cli.main(["coding", "--parts", "2", "--t", "3"])


def _inexact_weight(monkeypatch):
    # the weight formula's one division, by 24t, leaves a remainder
    def divmod_(a, b):
        q, r = builtins.divmod(a, b)
        return (q, r or 1) if b % 24 == 0 else (q, r)
    monkeypatch.setattr(tcore, "divmod", divmod_, raising=False)


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "phi-v-theorem", "--n", "3"],
    ["coding", "--parts", "2", "--t", "3"],
])
def test_an_inexact_weight_formula_is_not_a_usage_error(monkeypatch, argv):
    _inexact_weight(monkeypatch)
    with pytest.raises(ArithmeticError, match="did not produce an integer"):
        cli.main(argv)


def test_an_iteration_that_does_not_settle_raises(monkeypatch):
    # a composition off by x at the full order: the loop never composes at
    # that order, the closing check does, and y no longer solves it
    compose = Series.compose

    def off_by_x(self, inner):
        out = compose(self, inner)
        return out + Series.x(out.order) if self.order == 6 else out
    monkeypatch.setattr(Series, "compose", off_by_x)
    with pytest.raises(ArithmeticError, match="did not settle"):
        revert_euler(6, method="iterate")


def test_a_newly_routed_check_raises_under_python_O():
    code = ("import hookexp.tcore as T\n"
            "T.divmod = lambda a, b: (0, 1)\n"
            "T.core_weight_from_v((0, 1, -1), 3)\n")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert ("ArithmeticError: invariant failed: weight formula did not "
            "produce an integer") in run.stderr, run.stderr
