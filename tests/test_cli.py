import io
import json
import contextlib

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


def test_expand_shift_pads_with_zeros():
    code, out, _ = run_cli("expand", "--exponent", "1", "--order", "2",
                           "--shift", "4")
    assert code == 0
    assert out.splitlines() == ["0: 0", "1: 0", "2: 0"]


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
    for raw in ("x", "0", "-2", "1.5"):
        monkeypatch.setenv("HOOKEXP_WORKERS", raw)
        code, out, err = run_cli("verify", "--all", "--order", "0")
        assert (code, out) == (2, ""), raw
        assert "HOOKEXP_WORKERS" in err and repr(raw) in err


def test_verify_rejects_order_below_minimum():
    code, out, err = run_cli("verify", "--all", "--order", "-3")
    assert (code, out) == (2, "")
    assert "--order" in err and "at least 0" in err
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
                 ("revert", "--order", "3"),
                 ("revert", "--order", "30", "--method", "iterate")):
        assert run_cli(*argv)[0] in (0, 1), argv
    for argv, flag in (
            (("verify", "--id", "main-identity", "--order", "4"), "--order"),
            (("verify", "--id", "theorem-2-1", "--order", "40"), "--order"),
            (("verify", "--id", "cor-9-2", "--n", "4"), "--n"),
            (("verify", "--all", "--order", "4"), "--order"),
            (("revert", "--order", "4"), "--order"),
            (("revert", "--method", "lagrange", "--order", "4"), "--order")):
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
    a = run_cli("cores", "--n", "8", "--t", "5", "--method", "filter")
    b = run_cli("cores", "--n", "8", "--t", "5", "--method", "coding")
    assert a == b and a[0] == 0


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


def test_coding_usage_errors():
    for parts, t, message in (
            ("3,1,1", "5", "3,1,1 is not a 5-core"),
            (" 3, 1,1 ", "5", "3,1,1 is not a 5-core"),
            ("2,1", "4", "--t must be an odd integer >= 3"),
            ("1,3", "5", "parts must be weakly decreasing: (1, 3)"),
            ("3,0", "5", "parts must be positive integers: (3, 0)"),
            ("3,x", "5", "invalid literal for int() with base 10: 'x'")):
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


def test_seq_bfile_is_one_based_with_no_trailing_whitespace():
    code, out, _ = run_cli("seq", "--name", "tau", "--count", "3")
    assert code == 0
    assert out == "1 1\n2 -24\n3 252\n"
    for line in out.splitlines():
        assert line == line.rstrip()


def test_seq_rejects_bad_count():
    assert run_cli("seq", "--name", "tau", "--count", "0")[0] == 2


def test_revert_plain():
    code, out, _ = run_cli("revert", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["0: 0", "1: 1", "2: 1", "3: 3", "4: 10"]
    other = run_cli("revert", "--order", "4", "--method", "iterate")
    assert other[1] == out


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


def test_seq_a109085_matches_lagrange_reversion():
    code, out, _ = run_cli("seq", "--name", "a109085", "--count", "20")
    assert code == 0
    seq = [line.split() for line in out.splitlines()]
    code, out, _ = run_cli("revert", "--order", "20", "--method", "lagrange")
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
    monkeypatch.setenv("HOOKEXP_MAX_PARTITIONS", "many")
    code, _, err = run_cli("partitions", "--n", "3")
    assert code == 2 and "HOOKEXP_MAX_PARTITIONS" in err


def test_cores_decode_checks_survive_python_O():
    import subprocess
    import sys
    argv = ["cores", "--n", "12", "--t", "5", "--method", "coding"]
    patches = {
        # the decoded diagram is checked for a hook of length t
        "T.is_t_core = lambda p, t: False":
            ("ArithmeticError", "must be a t-core"),
        # a repeated first-column hook decodes to increasing parts
        "orig = T.u_from_v; T.u_from_v = lambda v, t: orig(v, t) + (max(orig(v, t)),)":
            ("error: parts must be weakly decreasing", ""),
    }
    for patch, (kind, what) in patches.items():
        code = ("import sys, hookexp.tcore as T; from hookexp.cli import main; "
                "%s; sys.exit(main(%r))" % (patch, argv))
        bad = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert bad.returncode != 0, patch
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
