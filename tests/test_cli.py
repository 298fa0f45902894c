import io
import json
import contextlib

import pytest

from hookexp.cli import main


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_expand_bfile_discriminant():
    code, out, _ = run_cli("expand", "--exponent", "24", "--order", "6",
                           "--shift", "1", "--format", "bfile")
    assert code == 0
    assert out == "1 1\n2 -24\n3 252\n4 -1472\n5 4830\n6 -6048\n"


def test_expand_plain_rational_exponent():
    code, out, _ = run_cli("expand", "--exponent", "-1/2", "--order", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0: 1"
    assert lines[1] == "1: 1/2"


def test_expand_formal_beta():
    code, out, _ = run_cli("expand", "--exponent", "beta", "--order", "2")
    assert code == 0
    assert out.splitlines() == [
        '0: ["1"]',
        '1: ["1", "-1"]',
        '2: ["2", "-5/2", "1/2"]',
    ]


def test_expand_json_roundtrip():
    code, out, _ = run_cli("expand", "--exponent", "3", "--order", "4",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == ["1", "-3", "0", "5", "0"]


def test_expand_beta_json():
    code, out, _ = run_cli("expand", "--exponent", "beta", "--order", "1",
                           "--format", "json")
    assert json.loads(out) == [["1"], ["1", "-1"]]


def test_expand_rejects_bad_exponent_and_bfile_beta():
    code, _, err = run_cli("expand", "--exponent", "1.5", "--order", "3")
    assert code == 2 and "error" in err
    code, _, err = run_cli("expand", "--exponent", "beta", "--order", "3",
                           "--format", "bfile")
    assert code == 2
    code, _, err = run_cli("expand", "--exponent", "-1/2", "--order", "3",
                           "--format", "bfile")
    assert code == 2  # fractional coefficients cannot go into a b-file


def test_expand_bfile_checks_every_coefficient_before_printing():
    # x^2 prod (1 - x^m)^(1/3) has -1/3 at x^3: nothing may be printed first
    code, out, err = run_cli("expand", "--exponent", "1/3", "--order", "5",
                             "--shift", "2", "--format", "bfile")
    assert (code, out) == (2, "")
    assert "--format bfile: coefficient of x^3 is not an integer" in err
    assert run_cli("expand", "--exponent", "1/3", "--order", "1", "--shift",
                   "1", "--format", "bfile") == (0, "1 1\n", "")


def test_expand_exponent_errors_name_the_flag():
    for exponent, message in (
            ("abc", "not a rational: 'abc'"),
            ("1/0", "zero denominator: '1/0'"),
            ("1/" + "7" * 4401, "numerator or denominator over 4300 digits"),
            ("-" + "7" * 4301, "numerator or denominator over 4300 digits")):
        assert run_cli("expand", "--exponent", exponent, "--order", "3") == (
            2, "", "error: --exponent: %s\n" % message), exponent[:9]
    for exponent in ("1/" + "7" * 4300, "-" + "7" * 4300):
        assert run_cli("expand", "--exponent", exponent, "--order", "1")[0] == 0


def test_exact_output_is_not_cut_at_4300_digits():
    import sys
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = cap()
    code, out, err = run_cli("expand", "--exponent", "1/1" + "0" * 100,
                             "--order", "45")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 46 and lines[-1].startswith("45: -")
    assert max(map(len, lines[-1][5:].split("/"))) > 4300
    assert cap() == before  # an in-process caller keeps its own cap


def test_negative_sizes_are_usage_errors_naming_the_flag():
    for argv, message in (
            (("expand", "--exponent", "1", "--order", "-1"), "--order"),
            (("expand", "--exponent", "1", "--order", "3", "--shift", "-1"),
             "--shift"),
            (("revert", "--order", "-1"), "--order"),
            (("partitions", "--n", "-1"), "--n"),
            (("cores", "--n", "-1", "--t", "3"), "--n")):
        assert run_cli(*argv) == (
            2, "", "error: %s must be non-negative\n" % message), argv
    assert run_cli("partitions", "--n", "3", "--t-core", "0") == (
        2, "", "error: --t-core must be positive\n")


def test_expand_shift_pads_with_zeros():
    code, out, _ = run_cli("expand", "--exponent", "1", "--order", "2",
                           "--shift", "4")
    assert code == 0
    assert out.splitlines() == ["0: 0", "1: 0", "2: 0"]
    code, out, _ = run_cli("expand", "--exponent", "beta", "--order", "2",
                           "--shift", "4", "--format", "json")
    assert (code, json.loads(out)) == (0, [[], [], []])
    code, out, _ = run_cli("expand", "--exponent", "beta", "--order", "3",
                           "--shift", "1", "--format", "json")
    assert (code, json.loads(out)) == (
        0, [[], ["1"], ["1", "-1"], ["2", "-5/2", "1/2"]])
    code, out, _ = run_cli("expand", "--exponent", "24", "--order", "3",
                           "--shift", "5", "--format", "bfile")
    assert (code, out) == (0, "1 0\n2 0\n3 0\n")
    # A shift far past the order costs no more than one just past it.
    code, out, _ = run_cli("expand", "--exponent", "24", "--order", "3",
                           "--shift", "1000000000000")
    assert (code, out.splitlines()) == (0, ["0: 0", "1: 0", "2: 0", "3: 0"])
    code, out, _ = run_cli("expand", "--exponent", "beta", "--order", "3",
                           "--shift", "1000000000000", "--format", "json")
    assert (code, json.loads(out)) == (0, [[], [], [], []])


def test_verify_single_pass_and_exit_codes():
    code, out, _ = run_cli("verify", "--id", "pentagonal-beta2",
                           "--order", "8")
    assert code == 0
    assert out.startswith("pentagonal-beta2: pass")


def test_verify_single_json_schema():
    code, out, _ = run_cli("verify", "--id", "macdonald", "--t", "3",
                           "--order", "6", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert list(d) == ["id", "params", "status", "checked_range",
                       "first_mismatch", "elapsed_ms"]
    assert d["status"] == "pass"
    assert d["params"]["t"] == [3]


def test_verify_failing_check_exits_1():
    code, out, _ = run_cli("verify", "--id", "prop-6-12", "--format", "json")
    assert code == 1
    d = json.loads(out)
    assert d["status"] == "fail"
    assert d["first_mismatch"]["location"] == "n=3"


def test_verify_usage_errors():
    assert run_cli("verify")[0] == 2
    assert run_cli("verify", "--id", "no-such-check")[0] == 2
    assert run_cli("verify", "--id", "main-identity", "--t", "5")[0] == 2
    assert run_cli("verify", "--id", "main-identity", "--all")[0] == 2


def test_verify_t_errors_name_the_flag():
    for cid in ("gks-weight", "phi-v-theorem", "lemma-5-5", "lemma-5-6",
                "macdonald"):
        for t in ("4", "1", "-3"):
            assert run_cli("verify", "--id", cid, "--t", t) == (
                2, "", "error: --t must be an odd integer >= 3\n"), (cid, t)


def test_cores_t_errors_name_the_flag():
    for argv, message in (
            (("--t", "0"), "--t must be a positive integer"),
            (("--t", "4", "--method", "coding"),
             "--t must be an odd integer >= 3"),
            (("--t", "1", "--method", "coding"),
             "--t must be an odd integer >= 3")):
        assert run_cli("cores", "--n", "5", *argv) == (
            2, "", "error: %s\n" % message), argv


def test_verify_all_refuses_flags_it_would_ignore():
    for flag in ("--t", "--n"):
        code, out, err = run_cli("verify", "--all", flag, "5")
        assert (code, out) == (2, ""), flag
        assert flag in err and "--all" in err


def test_malformed_worker_count_is_a_usage_error(monkeypatch):
    # "²" passes str.isdigit but not int()
    for raw in ("x", "0", "-2", "1.5", "\u00b2"):
        monkeypatch.setenv("HOOKEXP_WORKERS", raw)
        code, out, err = run_cli("verify", "--all", "--order", "0")
        assert (code, out) == (2, ""), raw
        assert "HOOKEXP_WORKERS" in err and repr(raw) in err


# Both HOOKEXP_* variables read one syntax: unset or empty is the default,
# else decimal digits with blanks around them allowed.
ENV_VERDICTS = {"": True, " 3 ": True, "1_000": False, "+9": False,
                "x": False, "-1": False, "1.5": False, "\u00b2": False}


@pytest.mark.parametrize("name, argv, kind", (
    ("HOOKEXP_MAX_PARTITIONS", ("partitions", "--n", "0"), "non-negative"),
    ("HOOKEXP_WORKERS", ("verify", "--all", "--order", "0"), "positive")))
def test_both_variables_take_one_syntax(monkeypatch, name, argv, kind):
    monkeypatch.delenv("HOOKEXP_MAX_PARTITIONS", raising=False)
    monkeypatch.delenv("HOOKEXP_WORKERS", raising=False)
    for raw, accepted in ENV_VERDICTS.items():
        monkeypatch.setenv(name, raw)
        code, out, err = run_cli(*argv)
        if accepted:
            assert code in (0, 1) and err == "", raw
        else:
            assert (code, out, err) == (2, "", "error: %s must be a %s "
                                        "integer, got %r\n" % (name, kind, raw))


def test_verify_rejects_order_below_minimum():
    assert run_cli("verify", "--all", "--order", "-3") == (
        2, "", "error: --order must be at least 0 with --all\n")
    for cid, order, floor in (("tau-5core", "0", 1), ("main-identity", "-5", 0)):
        code, out, err = run_cli("verify", "--id", cid, "--order", order)
        assert (code, out) == (2, "")
        assert "--order" in err and "at least %d" % floor in err
        assert "constant term" not in err


def test_partition_walks_refuse_too_many_partitions(monkeypatch):
    # sizes 0..3 have 1 + 1 + 2 + 3 = 7 partitions, sizes 0..4 have 12
    monkeypatch.setenv("HOOKEXP_MAX_PARTITIONS", "11")
    for argv in (("verify", "--id", "main-identity", "--order", "3"),
                 ("verify", "--id", "cor-9-2", "--n", "3"),
                 ("verify", "--all", "--order", "3"),
                 ("revert", "--order", "30", "--method", "iterate"),
                 ("revert", "--order", "4"),
                 ("revert", "--method", "lagrange", "--order", "4")):
        assert run_cli(*argv)[0] in (0, 1), argv
    for argv, flag in (
            (("verify", "--id", "main-identity", "--order", "4"), "--order"),
            (("verify", "--id", "theorem-2-1", "--order", "40"), "--order"),
            (("verify", "--id", "cor-9-2", "--n", "4"), "--n"),
            (("verify", "--all", "--order", "4"), "--order")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert "%s %s has" % (flag, argv[-1]) in err
        assert "HOOKEXP_MAX_PARTITIONS" in err and "lower " + flag in err


def test_verify_all_json_is_the_same_at_one_and_two_workers():
    import os
    import subprocess
    import sys
    outs = []
    for workers in ("1", "2"):
        env = dict(os.environ, HOOKEXP_WORKERS=workers)
        run = subprocess.run(
            [sys.executable, "-m", "hookexp.cli", "verify", "--all", "--order",
             "6", "--format", "json"], capture_output=True, text=True, env=env)
        assert run.returncode == 1 and run.stderr == ""
        reports = json.loads(run.stdout)
        for r in reports:
            assert r.pop("elapsed_ms") >= 0
        outs.append(reports)
    assert outs[0] == outs[1]
    assert [r["id"] for r in outs[0]] == sorted(r["id"] for r in outs[0])


def test_verify_all_with_budget():
    code, out, _ = run_cli("verify", "--all", "--order", "0",
                           "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 34
    assert [r["id"] for r in reports] == sorted(r["id"] for r in reports)
    assert all(r["status"] == "pass" for r in reports)


def test_verify_all_budget_past_the_defaults_runs_the_defaults():
    # --all clamps every range parameter to min(default, budget), so a
    # budget of 60 runs nothing past 30 and the guard must not refuse it
    def reports(*budget):
        code, out, err = run_cli("verify", "--all", *budget, "--format", "json")
        assert (code, err) == (1, ""), budget
        return [dict(r, elapsed_ms=None) for r in json.loads(out)]
    assert reports("--order", "60") == reports()


def test_verify_all_plain_summary_line():
    code, out, _ = run_cli("verify", "--all", "--order", "1")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "34 checks: 34 pass, 0 fail"


def test_list_identities():
    code, out, _ = run_cli("list-identities")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 34
    ids = [line.split(":", 1)[0] for line in lines]
    assert ids == sorted(ids)
    assert any(line.startswith("main-identity: ") for line in lines)


def test_partitions_listing():
    code, out, _ = run_cli("partitions", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]


def test_partitions_t_core_filter():
    code, out, _ = run_cli("partitions", "--n", "5", "--t-core", "3")
    assert code == 0
    assert out.splitlines() == ["3,1,1"]


def test_cores_methods_agree():
    # and with them the t-core filter of `partitions`
    for n in (0, 1, 7, 8, 13):
        for t in range(1, 8):
            want = run_cli("partitions", "--n", str(n), "--t-core", str(t))
            assert want[0] == 0
            assert run_cli("cores", "--n", str(n), "--t", str(t),
                           "--method", "filter") == want, (n, t)
            if t % 2 and t >= 3:
                assert run_cli("cores", "--n", str(n), "--t", str(t),
                               "--method", "coding") == want, (n, t)


def test_listings_stream_without_the_partition_caches():
    from hookexp.partition import hook_lists, partition_tuples
    before = partition_tuples.cache_info(), hook_lists.cache_info()
    for argv in (("partitions", "--n", "20", "--t-core", "3"),
                 ("cores", "--n", "20", "--t", "3", "--method", "filter")):
        code, out, _ = run_cli(*argv)
        assert (code, out) == (0, "8,6,4,2\n4,4,3,3,2,2,1,1\n"), argv
    assert (partition_tuples.cache_info(), hook_lists.cache_info()) == before


FILTER_HWM = """
import os, runpy, sys
sys.argv = ["hookexp", "cores", "--n", "45", "--t", "4", "--method", "filter"]
sys.stdout = open(os.devnull, "w")
try:
    runpy.run_module("hookexp.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
for line in open("/proc/self/status"):
    if line.startswith("VmHWM:"):
        sys.stderr.write(line.split()[1])
"""


def test_filter_listing_keeps_its_memory_flat():
    # the child's own high-water RSS in kB: holding every partition of 45
    # and its hooks took it past 60 MiB, the streamed scan stays near start-up
    import os
    import subprocess
    import sys
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    run = subprocess.run([sys.executable, "-c", FILTER_HWM],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stderr) < 30 * 1024


def test_coding_golden_output():
    code, out, _ = run_cli("coding", "--parts", "14,10,6,6,4,4,4,2,2,2",
                           "--t", "5")
    assert code == 0
    assert out == (
        "partition: 14,10,6,6,4,4,4,2,2,2\n"
        "t: 5\n"
        "H-set: [23, 18, 13, 12, 9, 8, 7, 4, 3, 2, -1, -2, -3, -4, -5]\n"
        "U-coding: (-5, -4, 12, 23, 9)\n"
        "V-coding: (5, 16, 2, -12, -11)\n"
        "N-coding: (-2, -2, 1, 3, 0)\n"
        "weight: 54\n"
        "beta=25 product: 60035976\n"
    )


def test_coding_validates_its_partition_twice(monkeypatch):
    # once parsing --parts, once in the command's own is_t_core
    import hookexp.cli
    import hookexp.tcore
    calls = []
    original = hookexp.cli.validate_partition

    def counting(parts):
        calls.append(parts)
        return original(parts)
    for module in (hookexp.cli, hookexp.tcore):
        monkeypatch.setattr(module, "validate_partition", counting)
    code, out, _ = run_cli("coding", "--parts", "14,10,6,6,4,4,4,2,2,2",
                           "--t", "5")
    assert code == 0 and out.startswith("partition: 14,10,6,6,4,4,4,2,2,2\n")
    assert len(calls) == 2


def test_coding_usage_errors():
    for parts, t, message in (
            ("3,1,1", "5", "3,1,1 is not a 5-core"),
            (" 3, 1,1 ", "5", "3,1,1 is not a 5-core"),
            ("2,1", "4", "--t must be an odd integer >= 3"),
            ("1,3", "5", "--parts: parts must be weakly decreasing: (1, 3)"),
            ("3,0", "5", "--parts: parts must be positive integers: (3, 0)"),
            ("3,x", "5",
             "--parts: invalid literal for int() with base 10: 'x'")):
        assert run_cli("coding", "--parts", parts, "--t", t) == (
            2, "", "error: %s\n" % message), parts


def test_coding_of_the_empty_core():
    # the empty string is the empty partition, a t-core for every t
    code, out, _ = run_cli("coding", "--parts", "", "--t", "5")
    assert code == 0
    assert out == (
        "partition: \n"
        "t: 5\n"
        "H-set: [-1, -2, -3, -4, -5]\n"
        "U-coding: (-5, -4, -3, -2, -1)\n"
        "V-coding: (0, 1, 2, -2, -1)\n"
        "N-coding: (0, 0, 0, 0, 0)\n"
        "weight: 0\n"
        "beta=25 product: 1\n"
    )


def test_seq_goldens():
    cases = {
        ("tau", 5): [1, -24, 252, -1472, 4830],
        ("a006128", 6): [1, 3, 6, 12, 20, 35],
        ("a057623", 5): [1, 5, 29, 218, 1814],
        ("a109085", 7): [1, 1, 3, 10, 38, 153, 646],
        ("pp", 5): [2, 5, 10, 20, 36],
    }
    for (name, count), want in cases.items():
        code, out, _ = run_cli("seq", "--name", name, "--count", str(count),
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == want, name


def test_seq_pp_counts_ordered_pairs_of_partitions():
    # the oracle: sum over a of p(a) p(n - a), from the partition table
    from hookexp.partition import partition_count
    code, out, _ = run_cli("seq", "--name", "pp", "--count", "60",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        sum(partition_count(a) * partition_count(n - a) for a in range(n + 1))
        for n in range(1, 61)]


def test_seq_bfile_is_one_based_with_no_trailing_whitespace():
    code, out, _ = run_cli("seq", "--name", "tau", "--count", "3")
    assert code == 0
    assert out == "1 1\n2 -24\n3 252\n"
    for line in out.splitlines():
        assert line == line.rstrip()


def test_seq_rejects_bad_count():
    for count in ("0", "-1"):
        assert run_cli("seq", "--name", "tau", "--count", count) == (
            2, "", "error: --count must be positive\n"), count


def test_revert_plain():
    code, out, _ = run_cli("revert", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["0: 0", "1: 1", "2: 1", "3: 3", "4: 10"]
    other = run_cli("revert", "--order", "4", "--method", "iterate")
    assert other[1] == out


def test_revert_walks_no_partition_so_the_limit_leaves_it_be(monkeypatch):
    monkeypatch.setenv("HOOKEXP_MAX_PARTITIONS", "0")
    code, out, err = run_cli("revert", "--order", "60")
    assert (code, err) == (0, "")
    assert run_cli("revert", "--order", "60", "--method", "iterate") == (
        0, out, "")


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate")[0] == 2
    assert run_cli()[0] == 2


def test_console_entry_point_matches_library(tmp_path):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "hookexp.cli", "seq", "--name", "tau",
         "--count", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1 1\n2 -24\n3 252\n"


def test_cli_output_does_not_depend_on_python_O():
    import subprocess
    import sys
    argv = ["-m", "hookexp.cli", "revert", "--order", "12", "--method", "iterate"]
    plain = subprocess.run([sys.executable] + argv, capture_output=True, text=True)
    opt = subprocess.run([sys.executable, "-O"] + argv, capture_output=True,
                         text=True)
    assert plain.returncode == opt.returncode == 0
    assert plain.stdout.splitlines()[:5] == ["0: 0", "1: 1", "2: 1", "3: 3", "4: 10"]
    assert opt.stdout == plain.stdout


def test_seq_a109085_matches_the_fixed_point_reversion():
    # the sequence takes the default (lagrange) route, so compare the other
    code, out, _ = run_cli("seq", "--name", "a109085", "--count", "20")
    assert code == 0
    seq = [line.split() for line in out.splitlines()]
    code, out, _ = run_cli("revert", "--order", "20", "--method", "iterate")
    assert code == 0
    rev = [line.split(": ") for line in out.splitlines()]
    assert len(seq) == 20
    for (i, a), (n, b) in zip(seq, rev[1:]):
        assert (i, a) == (n, b)


def test_cores_coding_round_trip_checks_survive_python_O():
    import subprocess
    import sys
    argv = ["cores", "--n", "12", "--t", "5", "--method", "coding"]
    plain = subprocess.run([sys.executable, "-m", "hookexp.cli"] + argv,
                           capture_output=True, text=True)
    opt = subprocess.run([sys.executable, "-O", "-m", "hookexp.cli"] + argv,
                         capture_output=True, text=True)
    assert plain.returncode == opt.returncode == 0
    assert opt.stdout == plain.stdout and plain.stdout
    # break the V-coding encoder that core_from_v round-trips through
    patched = ("import sys, hookexp.tcore as T; from hookexp.cli import main; "
               "orig = T._v_of; "
               "T._v_of = lambda p, t: tuple(reversed(orig(p, t))); "
               "sys.exit(main(%r))" % (argv,))
    bad = subprocess.run([sys.executable, "-O", "-c", patched],
                         capture_output=True, text=True)
    assert bad.returncode != 0
    assert "ArithmeticError" in bad.stderr and "round-trip" in bad.stderr
    assert bad.stdout == ""


def test_closed_pipe_ends_quietly():
    import subprocess
    import sys
    # far more output than a pipe buffers, so writes fail once it is closed
    proc = subprocess.Popen([sys.executable, "-m", "hookexp.cli", "partitions",
                             "--n", "40"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert first == b"40\n"
    assert err == b""


def test_enumerating_commands_refuse_too_many_partitions(monkeypatch):
    monkeypatch.setenv("HOOKEXP_MAX_PARTITIONS", "11")  # p(6) = 11, p(7) = 15
    assert run_cli("partitions", "--n", "6")[0] == 0
    assert run_cli("cores", "--n", "6", "--t", "3")[0] == 0
    for argv in (("partitions", "--n", "7"),
                 ("partitions", "--n", "7", "--t-core", "3"),
                 ("cores", "--n", "7", "--t", "3"),
                 ("cores", "--n", "2000", "--t", "5", "--method", "filter")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert "--n" in err and "--method coding" in err
    # the coding search enumerates no partitions, so the limit leaves it be
    code, out, _ = run_cli("cores", "--n", "8", "--t", "3", "--method", "coding")
    assert (code, out) == (0, "4,2,1,1\n")
    for raw in ("many", "-1"):
        monkeypatch.setenv("HOOKEXP_MAX_PARTITIONS", raw)
        code, _, err = run_cli("partitions", "--n", "0")
        assert code == 2, raw
        assert "HOOKEXP_MAX_PARTITIONS" in err and repr(raw) in err, raw


def test_the_partition_guard_stops_at_the_first_size_past_the_limit(
        monkeypatch):
    # p(61) is the first count past the default limit of 10^6, and the sum
    # p(0) + ... + p(49) the first running sum: a refused n of 60000 must
    # not grow the partition_count table to 60000 first
    from hookexp import partition
    monkeypatch.delenv("HOOKEXP_MAX_PARTITIONS", raising=False)
    for argv, flag in (
            (("partitions", "--n", "60000"), "--n"),
            (("cores", "--n", "60000", "--t", "5", "--method", "filter"), "--n"),
            (("verify", "--id", "main-identity", "--order", "60000"), "--order")):
        partition._clear_memos()
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert "%s 60000 has" % flag in err and "HOOKEXP_MAX_PARTITIONS" in err
        assert len(partition._count_table()[0]) <= 62, argv


def test_refusals_hint_the_coding_search_only_where_it_runs(monkeypatch):
    monkeypatch.setenv("HOOKEXP_MAX_PARTITIONS", "11")  # p(7) = 15
    for argv in (("cores", "--n", "7", "--t", "4"),
                 ("cores", "--n", "7", "--t", "1", "--method", "filter"),
                 ("partitions", "--n", "7", "--t-core", "2")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert "--n" in err and "lower --n" in err, argv
        assert "--method coding" not in err, argv
    code, _, err = run_cli("cores", "--n", "7", "--t", "5")
    assert code == 2 and "--method coding" in err


def test_cores_decode_checks_survive_python_O():
    import subprocess
    import sys
    argv = ["cores", "--n", "12", "--t", "5", "--method", "coding"]
    patches = {
        # the decoded diagram is checked for a hook of length t
        "T.is_t_core = lambda p, t: False":
            ("ArithmeticError", "must be a t-core"),
        # a repeated first-column hook decodes to increasing parts: the
        # last class's entry is replaced by the one before it.  The parts
        # are the program's own, so this is a fault, not a usage error.
        "orig = T.u_from_v; T.u_from_v = lambda v, t: orig(v, t)[:-1] + orig(v, t)[-2:-1]":
            ("ValueError: parts must be weakly decreasing: "
             "(1, 2, 2, 2, 0, 1, 1, 1)", ""),
    }
    for patch, (kind, what) in patches.items():
        code = ("import sys, hookexp.tcore as T; from hookexp.cli import main; "
                "%s; sys.exit(main(%r))" % (patch, argv))
        bad = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert bad.returncode not in (0, 2), patch
        assert kind in bad.stderr and what in bad.stderr, bad.stderr
        assert bad.stdout == ""


def test_cli_import_leaves_dataclasses_out():
    # dataclasses pulls in inspect, about 11 ms of start-up per CLI process
    import subprocess
    import sys
    code = ("import sys; before = set(sys.modules); import hookexp.cli; "
            "print(sorted(set(sys.modules) - before))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert run.returncode == 0 and "hookexp.cli" in run.stdout
    assert "'dataclasses'" not in run.stdout
