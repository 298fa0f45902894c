"""hookexp benchmark: runs the CLI the way users do and times each job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every job is a fresh ``python -m hookexp.cli`` process, so the
in-process caches start cold each time, as they do for a user.  Each child
is reaped with ``os.wait4``, whose rusage gives that job's own CPU time and
peak RSS.  Every output is judged by an independent checker (checkers.py).

With ``--trace 0`` the run cycles over the workload's jobs, each at
HOOKEXP_WORKERS=1 and =2, until ``--seconds`` are used, and reports the
end-to-end metrics.  With ``--trace 1`` each round runs the list untraced
and then traced (tracer.py) and reports the per-layer metrics.  The last
line of stdout is one JSON object; the full record of the run, with the
machine description, goes to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checkers
from layers import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HARD_LIMIT_S = 165      # a run must end well inside 180 s
SETUP_BATCH = 4         # `list-identities` runs before each cycle and at the end
CALIBRATION_LOOPS = 1_500_000


class Job:
    """One CLI invocation and the checker that judges its output."""

    def __init__(self, name, argv, check, *check_args, workers=1):
        self.name = name
        self.argv = argv
        self.workers = workers  # HOOKEXP_WORKERS for this job
        self.group = None       # job group within the kernels workload
        self._check = check
        self._check_args = check_args

    def check(self, code, out):
        return self._check(code, out, *self._check_args)


def half_integer_numerator(seed):
    """The odd numerator p of the half-integer exponent p/2 (series jobs)."""
    return 2 * (seed % 25) + 1


def workloads(seed):
    """Workload name -> job list.

    The kernels workload runs three groups of jobs, each loading one layer:
    hooks (partition kernels), series (series and BetaPoly) and cores (the
    t-core coding search); each group's wall time is printed too.
    """
    p = half_integer_numerator(seed)
    hooks = [
        Job("main-identity", ["verify", "--id", "main-identity", "--order", "34"],
            checkers.check_main_identity, 34),
        Job("a109085", ["seq", "--name", "a109085", "--count", "36"],
            checkers.check_seq_a109085, 36),
    ]
    series = [
        Job("expand-24", ["expand", "--exponent", "24", "--order", "800"],
            checkers.check_expand, "24", 800),
        Job("expand-half", ["expand", "--exponent", "%d/2" % p, "--order", "300"],
            checkers.check_expand, "%d/2" % p, 300),
        Job("expand-beta", ["expand", "--exponent", "beta", "--order", "80"],
            checkers.check_expand, "beta", 80),
        Job("revert", ["revert", "--order", "30", "--method", "iterate"],
            checkers.check_revert, 30),
    ]
    cores = [
        Job("cores-2000-5", ["cores", "--n", "2000", "--t", "5", "--method", "coding"],
            checkers.check_cores, 2000, 5),
        Job("cores-100-9", ["cores", "--n", "100", "--t", "9", "--method", "coding"],
            checkers.check_cores, 100, 9),
    ]
    for group, jobs in (("hooks", hooks), ("series", series), ("cores", cores)):
        for job in jobs:
            job.group = group
    registry = [
        Job("verify-all", ["verify", "--all", "--format", "json"],
            checkers.check_registry),
        Job("verify-all-w2", ["verify", "--all", "--format", "json"],
            checkers.check_registry, workers=2),
    ]
    return {"registry": registry, "kernels": hooks + series + cores}


WORKLOAD_NAMES = ("registry", "kernels")

# ---------------------------------------------------------------------------
# running one child process

class Sample:
    __slots__ = ("wall", "cpu", "rss_mb", "code", "out", "err_tail", "timed_out")


class Runner:
    """Starts children, reaps them with wait4 and enforces the run's limit."""

    def __init__(self, started):
        self.deadline = started + HARD_LIMIT_S
        # Children see none of the caller's PYTHON* or HOOKEXP_* settings
        # (such as PYTHONUNBUFFERED or PYTHONDONTWRITEBYTECODE), so what is
        # timed does not depend on the shell the benchmark was started from.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("PYTHON", "HOOKEXP_"))}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def run(self, cmd, workers):
        env = dict(self.env, HOOKEXP_WORKERS=str(workers))
        timeout = max(1.0, self.deadline - time.monotonic())
        with tempfile.TemporaryFile(dir=OUT) as out, \
                tempfile.TemporaryFile(dir=OUT) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                    cwd=ROOT, start_new_session=True)
            fired = []
            timer = threading.Timer(timeout, self._kill, (proc.pid, fired))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if fired:
            self._kill(proc.pid, [])  # pool workers of a killed job
        s = Sample()
        s.wall = wall
        s.cpu = usage.ru_utime + usage.ru_stime
        s.rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        s.code = proc.returncode
        s.out = stdout.decode("utf-8", "replace")
        s.err_tail = stderr[-300:].decode("utf-8", "replace")
        s.timed_out = bool(fired)
        return s

    @staticmethod
    def _kill(pid, fired):
        fired.append(True)
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def cli(self, argv, workers=1):
        return self.run([sys.executable, "-m", "hookexp.cli"] + argv, workers)

    def traced(self, name, argv):
        """Run one job under tracer.py; returns (sample, summary or None)."""
        summary = OUT / ("trace-%s.json" % name)
        cmd = [sys.executable, str(HERE / "tracer.py"), "--job", name,
               "--summary", str(summary),
               "--spans", str(OUT / ("spans-%s.jsonl" % name)), "--"] + argv
        s = self.run(cmd, 1)
        if s.timed_out or not summary.exists():
            return s, None
        data = json.loads(summary.read_text())
        summary.unlink()
        return s, data


# ---------------------------------------------------------------------------
# bookkeeping of operations and their verdicts

class Ledger:
    """Counts operations attempted and failed; caches verdicts by output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self._verdicts = {}

    def judge(self, job, sample, reference=None):
        """Check one job's output; `reference` is output it must match."""
        if sample.timed_out:
            attempted, failed, detail = 1, 1, "killed at the run's time limit"
        else:
            key = (job.name, sample.code,
                   hashlib.sha256(sample.out.encode()).hexdigest())
            if key not in self._verdicts:
                self._verdicts[key] = job.check(sample.code, sample.out)
            attempted, failed, detail = self._verdicts[key]
            if (reference is not None and not failed
                    and checkers.strip_elapsed(sample.out)
                    != checkers.strip_elapsed(reference)):
                failed, detail = 1, "output differs from the reference run"
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append("%s: %s %s" % (job.name, detail, sample.err_tail.strip()))


# ---------------------------------------------------------------------------
# machine record

def calibrate():
    """Seconds for a fixed pure-Python loop: a noise diagnostic only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - t0


def machine_record():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# the two kinds of run

def _rounds(seconds, started_at, body):
    """Call body(round_index) while another round fits in `seconds`."""
    index = 0
    longest = 0.0
    while True:
        t0 = time.monotonic()
        if not body(index):
            break
        longest = max(longest, time.monotonic() - t0)
        index += 1
        if time.monotonic() - started_at + longest > seconds:
            break
    return index


SETUP_JOB = Job("list-identities", ["list-identities"],
                checkers.check_list_identities)


def run_untraced(jobs, seconds, runner, ledger, record):
    """End-to-end metrics, and the ones that are only printed."""
    runner.cli(SETUP_JOB.argv)  # warm-up: byte-compiles the package once
    setup_times = record["setup_times_s"] = []
    samples = {job.name: [] for job in jobs}
    references = {}
    started = time.monotonic()

    def measure_setup():
        for _ in range(SETUP_BATCH):
            s = runner.cli(SETUP_JOB.argv)
            ledger.judge(SETUP_JOB, s)
            setup_times.append(s.wall)

    def fits(job):
        walls = [s.wall for s in samples[job.name]]
        if not walls:
            return True  # every job runs at least once
        return time.monotonic() - started + statistics.median(walls) <= seconds

    # Cycle over the jobs, reversing their order every other cycle.  A job
    # is skipped once its median time no longer fits in the time left; the
    # run stops when none fits.
    cycle = 0
    killed = False
    while not killed:
        pending = [job for job in (jobs if cycle % 2 == 0 else jobs[::-1])
                   if fits(job)]
        if not pending:
            break
        measure_setup()
        for job in pending:
            if not fits(job):
                continue
            s = runner.cli(job.argv, job.workers)
            key = tuple(job.argv)
            ledger.judge(job, s, reference=references.get(key))
            references.setdefault(key, s.out)
            samples[job.name].append(s)
            if s.timed_out:
                killed = True
                break
        cycle += 1
    record["rounds"] = cycle
    measure_setup()
    record["samples"] = {
        name: [{"wall_s": s.wall, "cpu_s": s.cpu, "rss_mb": s.rss_mb,
                "exit": s.code} for s in ss]
        for name, ss in samples.items()}
    if not all(samples.values()):
        return {}, {}  # a job was killed before every job had a sample

    def total(field, workers):
        return sum(statistics.median(getattr(s, field) for s in samples[job.name])
                   for job in jobs if job.workers == workers)

    metrics = {
        "wall_s": (total("wall", 1), "s"),
        "cpu_s": (total("cpu", 1), "s"),
        "peak_rss_mb": (max(statistics.median(s.rss_mb for s in ss)
                            for ss in samples.values()), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    printed = {}
    if any(job.workers == 2 for job in jobs):
        printed["wall_w2_s"] = (total("wall", 2), "s")
    for group in sorted({job.group for job in jobs if job.group}):
        printed[group + ".wall_s"] = (sum(
            statistics.median(s.wall for s in samples[job.name])
            for job in jobs if job.group == group), "s")
    return metrics, printed


def run_traced(jobs, seconds, runner, ledger, record):
    """Per-layer metrics, each the median over rounds."""
    runner.cli(SETUP_JOB.argv)  # warm-up: byte-compiles the package once
    rounds = []
    started = time.monotonic()

    def one_round(index):
        references, plain, w2 = {}, [], None
        for job in jobs:
            s = runner.cli(job.argv, job.workers)
            key = tuple(job.argv)
            ledger.judge(job, s, reference=references.get(key))
            references.setdefault(key, s.out)
            if s.timed_out:
                return False
            if job.workers == 1:
                plain.append((job, s))
            else:
                w2 = (s.wall, s.out)
        summaries, traced = [], []
        for job, ref in plain:
            s, summary = runner.traced(job.name, job.argv)
            ledger.judge(job, s, reference=ref.out)
            if summary is None:
                return False
            summaries.append(summary)
            traced.append(s)
        rounds.append(per_layer_metrics(summaries, traced,
                                        [s for _, s in plain], w2))
        return True

    record["rounds"] = _rounds(seconds, started, one_round)
    if not rounds:
        return {}, {}
    out = {}
    for key, (_, unit) in rounds[0].items():
        values = [r[key][0] for r in rounds]
        # counts are exact and the same in every round: keep them integers
        exact = all(isinstance(v, int) for v in values)
        out[key] = ((statistics.median_low if exact else statistics.median)(values), unit)
    return out, {}


# ---------------------------------------------------------------------------

def _as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="hookexp CLI benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if opts.seconds < 1:
        ap.error("--seconds must be positive")
    if not (SRC / "hookexp" / "cli.py").is_file():
        print("error: no hookexp sources at %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2

    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    runner = Runner(started)
    ledger = Ledger()
    jobs = workloads(opts.seed)[opts.workload]
    record = {"workload": opts.workload, "seed": opts.seed,
              "seconds": opts.seconds, "trace": opts.trace,
              "jobs": [job.argv for job in jobs],
              "machine": machine_record(), "calibration_s": [calibrate()]}
    run = run_traced if opts.trace else run_untraced
    metrics, printed = run(jobs, opts.seconds, runner, ledger, record)
    record["calibration_s"].append(calibrate())
    record["elapsed_s"] = time.monotonic() - started
    fail_frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    result = _as_json(metrics)
    record.update(metrics=result, printed=_as_json(printed),
                  attempted=ledger.attempted, failed=ledger.failed,
                  fail_frac=fail_frac, failures=ledger.notes)
    path = OUT / ("%s-seed%d-trace%d.json" % (opts.workload, opts.seed, opts.trace))
    path.write_text(json.dumps(record, indent=1))

    m = record["machine"]
    print("# %s seed=%d trace=%d: %d rounds in %.1f s; %s, nproc=%s, Python %s; "
          "calibration %.3f/%.3f s"
          % (opts.workload, opts.seed, opts.trace, record["rounds"],
             record["elapsed_s"], m["cpu_model"], m["nproc"], m["python"],
             record["calibration_s"][0], record["calibration_s"][1]))
    for key, (value, unit) in list(metrics.items()) + list(printed.items()):
        print("%-40s %14.6f %s" % (key, value, unit))
    print("%-40s %14.6f %s" % ("fail_frac", fail_frac, "ratio"))
    for note in ledger.notes:
        print("# failed: %s" % note)
    print(json.dumps({
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
