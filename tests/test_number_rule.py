"""One number rule at the public boundary: every callable in hookexp.__all__
refuses a float, a bool and a str where a number is meant, with a
ValueError or TypeError that names the parameter, and never returns.

The parameters are read off each signature and matched by name, so a new
public function whose parameter is in neither table below fails
test_every_public_parameter_is_classified until it is classified.
"""

import inspect
import re
from fractions import Fraction

import pytest

import hookexp
from hookexp.tcore import v_from_n

# Names in __all__ that are not probed, and why.
EXCLUDED = {
    "Rational": "the stdlib Fraction under another name, not hookexp code",
    "VerificationReport": "a record of one verify() outcome, filled by verify",
    "REGISTRY": "a dict of entries, not callable",
}


def _scalar(bad):
    return bad


# Number parameters: a value that the callables all take, and where a bad
# number goes (the argument itself, or one entry of a sequence).
NUMBERS = {
    "n": (3, _scalar),
    "N": (3, _scalar),
    "order": (3, _scalar),
    "t": (3, _scalar),
    "s": (2, _scalar),
    "beta": (2, _scalar),
    "value": (2, _scalar),
    "order_budget": (1, _scalar),
    "workers": (1, _scalar),
    "text": ("1/2", _scalar),
    "coeffs": ((1, 2), lambda bad: (1, bad)),
    "parts": ((2,), lambda bad: (2, bad)),  # (2,) is a 3-core
    "vvec": ((0, 1, -1), lambda bad: (bad, 1, -1)),
    "elements": (frozenset((-1, -2, -3)), lambda bad: {-1, -2, -3, bad}),
}

# Parameters that carry no number, each with a value to call with.
OTHERS = {
    "check_id": "main-identity",  # a registry id
    "params": {"N": 2},  # verify checks each value itself
    "method": None,  # a name; the default is used
}

BAD = (0.5, 2.0, True, False, "2")


def _callables():
    out = []
    for name in hookexp.__all__:
        if name in EXCLUDED:
            continue
        obj = getattr(hookexp, name)
        assert callable(obj), name
        out.append((name, obj))
    return out


def _kwargs(fn):
    kwargs = {}
    for p in inspect.signature(fn).parameters.values():
        if p.name in NUMBERS:
            kwargs[p.name] = NUMBERS[p.name][0]
        elif OTHERS.get(p.name) is not None:
            kwargs[p.name] = OTHERS[p.name]
    return kwargs


def _call(fn, kwargs):
    out = fn(**kwargs)
    if inspect.isgenerator(out):
        out = list(out)
    return out


def _probes():
    for name, fn in _callables():
        for param in inspect.signature(fn).parameters:
            if param in NUMBERS:
                yield pytest.param(name, fn, param, id="%s-%s" % (name, param))


def test_the_exclusions_are_the_three_non_functions():
    assert set(EXCLUDED) <= set(hookexp.__all__)
    assert hookexp.Rational is __import__("fractions").Fraction
    assert not callable(hookexp.REGISTRY)
    assert len(_callables()) == len(hookexp.__all__) - len(EXCLUDED)


@pytest.mark.parametrize("name, fn", _callables())
def test_every_public_parameter_is_classified(name, fn):
    params = set(inspect.signature(fn).parameters)
    assert params - set(NUMBERS) - set(OTHERS) == set(), name


@pytest.mark.parametrize("name, fn", _callables())
def test_every_callable_takes_the_valid_values(name, fn):
    _call(fn, _kwargs(fn))


@pytest.mark.parametrize("name, fn, param", list(_probes()))
def test_a_float_a_bool_and_a_str_are_refused_by_name(name, fn, param):
    place = NUMBERS[param][1]
    for bad in BAD:
        if param == "text" and type(bad) is str:
            continue  # parse_rational is the one entry that takes text
        kwargs = dict(_kwargs(fn), **{param: place(bad)})
        with pytest.raises((ValueError, TypeError)) as err:
            _call(fn, kwargs)
        assert re.search(r"\b%s\b" % re.escape(param), str(err.value)), (
            name, param, bad, str(err.value))


# The messages this rule introduced or changed, pinned word for word.
MESSAGES = [
    (lambda: hookexp.core_weight_from_v((-3.0, 1.0, 2.0), 3),
     "vvec entry must be an integer, got -3.0"),
    (lambda: hookexp.BetaPoly([Fraction(1, 2), 0.1]),
     "coeffs entry must be an int or a Fraction, got 0.1"),
    (lambda: hookexp.Series([1, "2"]),
     "coeffs entry must be an int or a Fraction, got '2'"),
    (lambda: hookexp.euler_power_recurrence("1/2", 3),
     "s must be an int or a Fraction, got '1/2'"),
    (lambda: hookexp.hook_beta_sums(3, "2"),
     "beta must be an int or a Fraction, got '2'"),
    (lambda: hookexp.hook_beta_sum(3, 0.5),
     "beta must be an int or a Fraction, got 0.5"),
    (lambda: hookexp.hook_beta_sum(-1, 2), "n must be >= 0"),
    (lambda: hookexp.hook_beta_sum_poly(-1), "n must be >= 0"),
    (lambda: list(hookexp.enumerate_partitions(True)),
     "n must be an integer, got True"),
    (lambda: hookexp.partition_tuples(1.0), "n must be an integer, got 1.0"),
    (lambda: hookexp.partition_count(2.5), "n must be an integer, got 2.5"),
    (lambda: hookexp.is_t_core((2, 1), True), "t must be a positive integer"),
    (lambda: hookexp.enumerate_t_cores(5, True, "coding"),
     "codings need an odd t >= 3, got True"),
    (lambda: hookexp.HSet(3, {-1, -2, -3, 1.0}),
     "elements entry must be an integer, got 1.0"),
    (lambda: hookexp.hooks_of((1, 3)), "parts must be weakly decreasing: (1, 3)"),
    (lambda: hookexp.syt_count_of((2, True)),
     "parts must be positive integers: (2, True)"),
    (lambda: hookexp.verify_all(order_budget=2.5),
     "order_budget must be an integer, got 2.5"),
    (lambda: hookexp.verify_all(workers=True), "workers must be an integer, got True"),
    (lambda: hookexp.verify_all(workers=0), "workers must be >= 1"),
    (lambda: hookexp.format_rational(0.5),
     "value must be an int or a Fraction, got 0.5"),
    (lambda: hookexp.BetaPoly.beta() ** True,
     "BetaPoly powers must be non-negative integers"),
    (lambda: v_from_n((0, 0.0, 0), 3), "nvec entry must be an integer, got 0.0"),
    (lambda: hookexp.Series([1, 2, 3]).shift(True),
     "k must be an integer, got True"),
    (lambda: hookexp.Series([1, 2, 3]).shift(-1), "k must be >= 0"),
    (lambda: hookexp.Series([1, 2, 3]).shift(1.5),
     "k must be an integer, got 1.5"),
    (lambda: hookexp.Series([1, 2, 3]).truncate(True),
     "order must be an integer, got True"),
    (lambda: hookexp.Series([1, 2, 3]).truncate(1.5),
     "order must be an integer, got 1.5"),
    (lambda: hookexp.Series([1, 2, 3]).truncate(-1), "order must be >= 0"),
    (lambda: hookexp.BetaPoly.constant(0.5),
     "c must be an int or a Fraction, got 0.5"),
]


@pytest.mark.parametrize("i", range(len(MESSAGES)))
def test_each_new_message_word_for_word(i):
    call, message = MESSAGES[i]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_parse_rational_takes_only_text():
    with pytest.raises(TypeError) as err:
        hookexp.parse_rational(0.5)
    assert str(err.value) == "text must be a str, got 0.5"
    assert hookexp.parse_rational(" 2/4 ") == Fraction(1, 2)


def test_operators_refuse_a_bool_operand():
    for value in (hookexp.BetaPoly.beta(), hookexp.Series([1, 2])):
        for op in (lambda: value * True, lambda: False * value):
            with pytest.raises(TypeError):
                op()
