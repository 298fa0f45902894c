"""Self-test of the benchmark harness (small inputs, a few seconds).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that every output checker accepts real CLI output and rejects a
corrupted copy, that traced CLI stdout is byte-identical to untraced
stdout, that the tracing wrappers are gone after a run, that the spans are
well formed, that BENCHMARK.json names exactly the metrics the benchmark
prints, and that the benchmark refuses to run without the sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checkers  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

OUT = HERE / "out" / "selftest"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
           HOOKEXP_WORKERS="1")


def cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "hookexp.cli"] + list(argv),
                          capture_output=True, text=True, env=ENV, cwd=ROOT,
                          timeout=120)
    return proc.returncode, proc.stdout


def _replace_line(out, index, new):
    lines = out.splitlines()
    lines[index] = new
    return "\n".join(lines) + "\n"


def _bump_last_number(line):
    head, _, last = line.rpartition(" ")
    return "%s %d" % (head, int(last) + 1)


def _failed(result):
    return result[1]


def test_checkers_accept_good_output_and_reject_corrupted():
    cases = []

    code, out = cli("expand", "--exponent", "24", "--order", "40")
    check = lambda c, o: checkers.check_expand(c, o, "24", 40)  # noqa: E731
    cases.append((check, code, out,
                  [_replace_line(out, 17, _bump_last_number(out.splitlines()[17])),
                   out.replace("3: -1472\n", "3: -1471\n")]))

    code, out = cli("expand", "--exponent", "7/2", "--order", "25")
    check = lambda c, o: checkers.check_expand(c, o, "7/2", 25)  # noqa: E731
    cases.append((check, code, out,
                  [_replace_line(out, 25, "25: 1/3"), out.rsplit("\n", 2)[0] + "\n"]))

    code, out = cli("expand", "--exponent", "beta", "--order", "12")
    check = lambda c, o: checkers.check_expand(c, o, "beta", 12)  # noqa: E731
    line9 = out.splitlines()[9]
    coeffs = json.loads(line9.partition(": ")[2])
    coeffs[3] = str(checkers.Fraction(coeffs[3]) + 1)
    cases.append((check, code, out,
                  [_replace_line(out, 9, "9: " + json.dumps(coeffs))]))

    code, out = cli("revert", "--order", "12", "--method", "iterate")
    check = lambda c, o: checkers.check_revert(c, o, 12)  # noqa: E731
    cases.append((check, code, out, [out.replace("5: 38\n", "5: 39\n")]))

    code, out = cli("seq", "--name", "a109085", "--count", "12")
    check = lambda c, o: checkers.check_seq_a109085(c, o, 12)  # noqa: E731
    cases.append((check, code, out,
                  [_replace_line(out, 11, _bump_last_number(out.splitlines()[11]))]))

    code, out = cli("verify", "--id", "main-identity", "--order", "8")
    check = lambda c, o: checkers.check_main_identity(c, o, 8)  # noqa: E731
    cases.append((check, code, out, [out.replace(": pass", ": fail")]))

    code, out = cli("cores", "--n", "30", "--t", "5", "--method", "coding")
    check = lambda c, o: checkers.check_cores(c, o, 30, 5)  # noqa: E731
    lines = out.splitlines()
    cases.append((check, code, out, [
        "\n".join(lines[1:]) + "\n",                                  # one missing
        "\n".join([lines[1], lines[0]] + lines[2:]) + "\n",           # out of order
        "\n".join(lines[:1] + lines[:-1]) + "\n",                     # duplicate
        _replace_line(out, 0, "30"),                                   # hook of 5
        _replace_line(out, 0, "29"),                                   # wrong size
    ]))

    code, out = cli("list-identities")
    cases.append((checkers.check_list_identities, code, out,
                  ["\n".join(out.splitlines()[1:]) + "\n"]))

    code, out = cli("verify", "--all", "--order", "6", "--format", "json")
    reports = json.loads(out)
    fixed = [dict(r, status="pass", first_mismatch=None) if r["id"] == "prop-6-12"
             else r for r in reports]
    broken = [dict(r, status="fail") if r["id"] == "magic" else r for r in reports]
    cases.append((checkers.check_registry, code, out,
                  [json.dumps(fixed), json.dumps(broken), json.dumps(reports[1:]),
                   out[:-20]]))

    for check, code, out, corrupted in cases:
        assert _failed(check(code, out)) == 0, check(code, out)
        assert _failed(check(code + 1, out)) >= 1
        for bad in corrupted:
            assert bad != out
            assert _failed(check(code, bad)) >= 1, bad[:200]
    attempted, failed, _ = checkers.check_registry(code, out)
    assert (attempted, failed) == (1 + len(checkers.REGISTRY_IDS), 0)


def _partitions(n, cap=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _hooks(parts):
    conj = [sum(1 for row in parts if row > j) for j in range(parts[0])] if parts else []
    return [row - j + conj[j] - i - 1 for i, row in enumerate(parts) for j in range(row)]


def test_t_core_count_and_hook_test_match_brute_force():
    for t in (2, 3, 5, 9):
        for n in range(16):
            cores = [p for p in _partitions(n) if t not in _hooks(p)]
            assert checkers.t_core_count(n, t) == len(cores), (n, t)
            for p in _partitions(n):
                assert checkers._t_hook_count(p, t) == _hooks(p).count(t), (p, t)


def test_traced_stdout_is_identical_and_wrappers_are_removed():
    import tracer
    from hookexp import cli as hcli, identities, partition, series

    OUT.mkdir(parents=True, exist_ok=True)
    for argv in (["cores", "--n", "40", "--t", "5", "--method", "coding"],
                 ["expand", "--exponent", "beta", "--order", "8"],
                 ["seq", "--name", "a109085", "--count", "10"]):
        plain = subprocess.run([sys.executable, "-m", "hookexp.cli"] + argv,
                               capture_output=True, env=ENV, cwd=ROOT, timeout=120)
        spans = OUT / "spans.jsonl"
        traced = subprocess.run(
            [sys.executable, str(HERE / "tracer.py"), "--job", "j1",
             "--summary", str(OUT / "summary.json"), "--spans", str(spans),
             "--"] + argv, capture_output=True, env=ENV, cwd=ROOT, timeout=120)
        assert traced.returncode == plain.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        _check_spans(spans)

    originals = (partition.hooks_of, identities.hook_beta_sum_poly,
                 hcli.euler_power_formal, vars(series.Series)["__mul__"],
                 identities.REGISTRY["magic"].fn, hcli.main)
    t = tracer.Tracer("in-process")
    t.install()
    try:
        assert tracer._is_wrapper(identities.hook_beta_sum_poly)
        assert tracer._is_wrapper(hcli.euler_power_formal)
        assert tracer._is_wrapper(vars(series.Series)["__mul__"])
        assert tracer._is_wrapper(identities.REGISTRY["magic"].fn)
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = hcli.main(["verify", "--id", "magic", "--order", "4"])
    finally:
        t.remove()
    assert code == 0 and buf.getvalue().startswith("magic: pass")
    assert tracer.installed_wrappers() == []
    assert originals == (partition.hooks_of, identities.hook_beta_sum_poly,
                         hcli.euler_power_formal, vars(series.Series)["__mul__"],
                         identities.REGISTRY["magic"].fn, hcli.main)
    summary = t.summary()
    assert summary["calls"]["identities.check.magic"] == 1
    assert summary["calls"]["cli.main"] == 1


def _check_spans(path):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans
    ids = {s["id"] for s in spans}
    assert len(ids) == len(spans)
    for s in spans:
        assert set(s) == {"id", "parent", "name", "start", "end", "job", "cache"}
        assert s["parent"] is None or s["parent"] in ids
        assert s["start"] <= s["end"] and s["cache"] in ("cold", "warm")
        assert s["job"] == "j1"
    assert [s["name"] for s in spans if s["parent"] is None] == ["cli.main"]


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in layers.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: u for n, u, _ in layers.PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_refuses_to_run_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hooks",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def main():
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except Exception:  # report every test, then fail
                failed += 1
                print("FAIL %s\n%s" % (name, traceback.format_exc()))
            else:
                print("ok   %s" % name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
