"""One invariant rule and one refusal type.

Every fact the package checks about its own results goes through
exactnum._invariant, which raises ArithmeticError("invariant failed: ...")
also under python -O.  Only exactnum.UsageError is a refused request, and
it is the one exception cli.main turns into exit 2; a ValueError from a
validator the package runs on its own values is a fault and propagates.
So a broken formula or coding never reads as a usage error (exit 2)."""

import ast
import builtins
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hookexp
from hookexp import cli, exactnum, identities, partition, series, tcore
from hookexp.exactnum import UsageError
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


# The three handlers that re-word a refusal of the caller's own input:
# --exponent, --parts, and verify()'s int check of a parameter.
WRAPPERS = [("cli.py", "_cmd_coding"), ("cli.py", "_cmd_expand"),
            ("identities.py", "verify")]


def _catches_value_errors(handler):
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(name is None or isinstance(name, ast.Name) and name.id in
               ("ValueError", "Exception", "BaseException") for name in names)


def test_usage_error_is_the_one_refusal_type():
    classes, catches = [], []
    for path in sorted(SRC.glob("*.py")):
        for fn, node in _nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id.endswith(("Error", "Exception"))
                    for b in node.bases):
                classes.append((path.name, node.name))
            elif (isinstance(node, ast.ExceptHandler)
                    and _catches_value_errors(node)):
                catches.append((path.name, fn))
    assert classes == [("exactnum.py", "UsageError")]
    assert sorted(catches) == WRAPPERS  # no catch-all sends faults to exit 2
    assert cli.UsageError is tcore.UsageError is identities.UsageError \
        is exactnum.UsageError


REFUSALS = {
    "int": lambda: exactnum._require_int("3", "n"),
    "int-low": lambda: exactnum._require_int(-1, "n", 0),
    "ints": lambda: exactnum._require_ints((1, True), "n"),
    "size": lambda: exactnum._require_size(-1, "n"),
    "exact": lambda: exactnum._require_exact(0.5, "x"),
    "rational": lambda: exactnum.parse_rational("1.5"),
    "rational-zero": lambda: exactnum.parse_rational("1/0"),
    "coding-t-low": lambda: tcore._require_coding_t(1),
    "coding-t-even": lambda: tcore._require_coding_t(4),
    "verify-id": lambda: identities.verify("no-such-id"),
    "verify-key": lambda: identities.verify("macdonald", {"M": 3}),
    "verify-int": lambda: identities.verify("macdonald", {"N": "3"}),
    "verify-empty": lambda: identities.verify("macdonald", {"t": ()}),
    "verify-floor": lambda: identities.verify("macdonald", {"N": -1}),
    "verify-all-budget": lambda: identities.verify_all(order_budget="3"),
    "verify-all-workers": lambda: identities.verify_all(workers=0),
}


@pytest.mark.parametrize("refusal", REFUSALS.values(), ids=list(REFUSALS))
def test_every_refusal_is_a_usage_error(refusal):
    with pytest.raises(UsageError):
        refusal()


def test_a_bad_environment_variable_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("HOOKEXP_WORKERS", "two")
    with pytest.raises(UsageError, match="^HOOKEXP_WORKERS must be a positive"):
        exactnum._env_int("HOOKEXP_WORKERS", 1, 1)


@pytest.mark.parametrize("check", [
    lambda: partition._require_partition((1, 2)),
    lambda: tcore._validate_v((1, 0, -1), 3),
    lambda: tcore.validate_t_compact({-3, -2, -1, 3}, 3),
    lambda: tcore._validate_v((0.0, 1, -1), 3),
    lambda: tcore._validate_n((0, True, -1), 3),
    lambda: tcore.validate_t_compact({-3, -2, -1, 1.0}, 3),
])
def test_a_structured_validator_is_not_a_refusal(check):
    # the package runs these on its own values too, where a failure is a fault
    with pytest.raises(ValueError) as err:
        check()
    assert not isinstance(err.value, UsageError)


def _list_one_bad_vector(monkeypatch, bad):
    """_v_codings, for cores and for the Macdonald sum, with the first
    vector of each weight replaced by bad(v, t)."""
    real = tcore._v_codings

    def listing(n, t, read):
        vs = real(n, t, tuple)
        return [read(bad(v, t) if i == 0 else v) for i, v in enumerate(vs)]
    monkeypatch.setattr(tcore, "_v_codings", listing)
    monkeypatch.setattr(series, "_v_codings", listing)


def test_a_wrong_residue_vector_is_a_fault_not_a_refusal(monkeypatch, capsys):
    _list_one_bad_vector(monkeypatch, lambda v, t: (v[1], v[0]) + v[2:])
    with pytest.raises(ValueError, match="^V-coding entry .* mod t") as err:
        cli.main(["cores", "--n", "8", "--t", "5", "--method", "coding"])
    assert not isinstance(err.value, UsageError)
    # the Macdonald sum reads the vector as it is, so the check fails
    assert cli.main(["verify", "--id", "macdonald", "--t", "5",
                     "--order", "6"]) == 1
    assert "macdonald: fail" in capsys.readouterr().out


def test_a_wrong_weight_vector_is_never_listed(monkeypatch, capsys):
    # same residues, still zero-sum: a valid coding of a core of another size
    _list_one_bad_vector(monkeypatch, lambda v, t: (v[0] + t, v[1] - t) + v[2:])
    with pytest.raises(ArithmeticError,
                       match="^invariant failed: decoded cores must have size 8"):
        cli.main(["cores", "--n", "8", "--t", "5", "--method", "coding"])
    assert capsys.readouterr().out == ""


def test_a_broken_v_coding_in_coding_is_a_fault(monkeypatch):
    real = cli._v_of
    monkeypatch.setattr(cli, "_v_of", lambda parts, t: real(parts, t)[::-1])
    with pytest.raises(ValueError, match="^V-coding entry") as err:
        cli.main(["coding", "--parts", "2", "--t", "3"])
    assert not isinstance(err.value, UsageError)


def test_a_float_entry_in_a_built_coding_is_a_fault(monkeypatch):
    # the coding validators raise a plain ValueError, so this never exits 2
    real = cli._v_of
    monkeypatch.setattr(cli, "_v_of", lambda parts, t: tuple(
        map(float, real(parts, t))))
    with pytest.raises(ValueError, match="^vvec entry must be an integer, "
                                         "got 3.0$") as err:
        cli.main(["coding", "--parts", "2", "--t", "3"])
    assert not isinstance(err.value, UsageError)


def test_a_fractional_sequence_term_raises_the_invariant(monkeypatch):
    real = cli.euler_power_recurrence
    monkeypatch.setattr(cli, "euler_power_recurrence", lambda a, n: Series(
        real(a, n).coeffs[:-1] + [Fraction(1, 2)]))
    with pytest.raises(ArithmeticError,
                       match="^invariant failed: tau terms must be integers"):
        cli.main(["seq", "--name", "tau", "--count", "5"])


def test_main_lets_a_plain_value_error_through(monkeypatch):
    def broken(order, method):
        raise ValueError("a fault inside the command")
    monkeypatch.setattr(cli, "revert_euler", broken)
    with pytest.raises(ValueError, match="^a fault inside the command$"):
        cli.main(["revert", "--order", "3"])
