"""Benchmark of the `alike` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it repeats the workload's invocation list for S seconds, each
invocation a fresh `python -m alike` child with PYTHONPATH=src and one BLAS
thread, one at a time.  After each invocation it times a fixed pure-Python
loop, and it reports a pass's time in units of that loop: other tenants of the
shared host slow the box by up to 1.7x for minutes at a time, and the ratio
cancels that.  With --trace 1 it runs the list in-process
(perfbench/tracing.py), once untraced and once traced, each in a fresh child
interpreter, and reports the per-layer metrics.  Either way every output is
checked (perfbench/check.py) outside the timed children, and repeats of one
seed must print the same bytes.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
sys.path.insert(0, str(ROOT))

from perfbench import check, tracing, workloads  # noqa: E402

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7
#: Seconds of reference loops timed after an invocation, per second it took:
#: the loops sample the host's speed evenly over the run.
REFERENCE_SHARE = 0.1
END_TO_END = (
    ("wall_ref", "ref"),
    ("cpu_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "ALIKE_CAP_D"}
    env["PYTHONPATH"] = str(SRC)
    # One thread per child: the box has two cores and other tenants, and a
    # second BLAS thread would time their load more than the program.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(argv, out_path, err_path, env):
    """Run one child to exit: (exit code, wall s, user+sys cpu s, max rss MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would give
            # a running maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def measure_setup(work, env):
    """Median seconds for a fresh interpreter to import alike.cli."""
    argv = [sys.executable, "-c", "import alike.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one writes the bytecode cache
        code, wall, _, _ = spawn(argv, work / "setup.out", work / "setup.err", env)
        if code != 0:
            raise RuntimeError((work / "setup.err").read_text(errors="replace"))
        if i:
            times.append(wall)
    return statistics.median(times)


class Judge:
    """Checks outputs: the first result of each invocation by content, repeats by bytes."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.first = [None] * len(invocations)  # (exit code, sha256, problems)
        self.attempted = 0
        self.failed = 0

    def judge(self, index, code, stdout):
        inv = self.invocations[index]
        digest = hashlib.sha256(stdout).hexdigest()
        self.attempted += 1
        if self.first[index] is None:
            self.first[index] = (code, digest, check.problems(inv, code, stdout))
            found = self.first[index][2]
        else:
            first_code, first_digest, found = self.first[index]
            if (code, digest) != (first_code, first_digest):
                found = found + ["stdout or exit code differs from an earlier repeat"]
        if found:
            self.failed += 1
            print(f"FAILED alike {' '.join(inv.argv)}: {'; '.join(found)}", file=sys.stderr)


def reference_loop():
    """A fixed pure-Python CPU loop: the yardstick for the host's speed.  It
    imports nothing from `alike`, so a change to the program cannot move it."""
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def time_reference(budget):
    """(wall s, cpu s) of each reference loop timed in `budget` seconds, at
    least one."""
    times = []
    end = time.perf_counter() + budget
    while not times or time.perf_counter() < end:
        wall, cpu = time.perf_counter(), time.process_time()
        reference_loop()
        times.append((time.perf_counter() - wall, time.process_time() - cpu))
    return times


def run_timed(invocations, seconds, work):
    env = child_env()
    setup_s = measure_setup(work, env)
    judge = Judge(invocations)
    argvs = [[sys.executable, "-m", "alike", *inv.argv] for inv in invocations]
    outs = [(work / f"{i}.out", work / f"{i}.err") for i in range(len(invocations))]
    samples = [[] for _ in invocations]  # (wall, cpu, max rss) per repeat
    reference = []  # (wall, cpu) per reference loop
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        for i, argv in enumerate(argvs):
            code, wall, cpu, rss = spawn(argv, *outs[i], env)
            samples[i].append((wall, cpu, rss))
            reference += time_reference(REFERENCE_SHARE * wall)
            judge.judge(i, code, outs[i][0].read_bytes())  # outside the timed child
        now = time.perf_counter()
        if now - start + (now - cycle) > seconds:
            break
    # A pass's time is the sum over its invocations of the median repeat, in
    # units of the median reference loop of the same run.  Other tenants slow
    # both alike for minutes at a time; the ratio cancels that.
    pass_wall = sum(statistics.median(s[0] for s in runs) for runs in samples)
    pass_cpu = sum(statistics.median(s[1] for s in runs) for runs in samples)
    ref_wall = statistics.median(r[0] for r in reference)
    ref_cpu = statistics.median(r[1] for r in reference)
    values = {
        "wall_ref": pass_wall / ref_wall,
        "cpu_ref": pass_cpu / ref_cpu,
        "setup_s": setup_s,
        "peak_rss_mb": max(statistics.median(s[2] for s in runs) for runs in samples),
        "ok_ratio": (judge.attempted - judge.failed) / judge.attempted,
    }
    repeats = len(samples[0])
    how = {
        "wall_ref": f"{pass_wall:.4f} s pass / {ref_wall:.5f} s loop, medians of {repeats}",
        "cpu_ref": f"{pass_cpu:.4f} s pass / {ref_cpu:.5f} s loop, medians of {repeats}",
        "setup_s": f"median of {SETUP_REPEATS} imports",
        "peak_rss_mb": f"largest per-invocation median of {repeats} repeats",
        "ok_ratio": f"of {judge.attempted} invocations",
    }
    for name, unit in END_TO_END:
        print(f"{name:12} {values[name]:12.4f} {unit:6} {how[name]}")
    for inv, runs in zip(invocations, samples):
        walls = sorted(s[0] for s in runs)
        print(
            f"  {statistics.median(walls):8.3f} s median, {walls[0]:8.3f} s fastest:"
            f" alike {' '.join(inv.argv)}"
        )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return judge, metrics


def run_traced(workload, seed, invocations, work):
    """Untraced then traced in-process pass, each in a fresh child interpreter."""
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    spans_path = WORK / f"spans-{workload}-{seed}.jsonl"
    summaries = {}
    for mode in ("untraced", "traced"):
        argv = [sys.executable, "-m", "perfbench.tracing", mode, workload, str(seed)]
        argv += [str(work), str(spans_path)]
        code, _, _, _ = spawn(argv, work / f"{mode}.log", work / f"{mode}.err", env)
        if code != 0:
            raise RuntimeError((work / f"{mode}.err").read_text(errors="replace"))
        summaries[mode] = json.loads((work / f"{mode}.json").read_text())
    judge = Judge(invocations)
    for mode, summary in summaries.items():
        for i, code in enumerate(summary["codes"]):
            judge.judge(i, code, (work / f"{mode}-{i}.out").read_bytes())
    values = summaries["traced"]["values"]
    values["trace.untraced_wall_s"] = sum(summaries["untraced"]["seconds"])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit, _, _ in tracing.PER_LAYER
    }
    for name, unit, _, note in tracing.PER_LAYER:
        print(f"{name:40} {metrics[name]['value']:>20} {unit:6} {note}")
    print(f"spans written to {spans_path}")
    return judge, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "alike" / "cli.py").is_file():
        print(f"error: no alike sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        invocations = workloads.build(args.workload, args.seed, work)
        print(
            f"workload {args.workload} seed {args.seed}: "
            f"{len(invocations)} invocation(s) per pass"
        )
        if args.trace:
            judge, metrics = run_traced(args.workload, args.seed, invocations, work)
        else:
            judge, metrics = run_timed(invocations, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": judge.failed == 0,
                "attempted": judge.attempted,
                "failed": judge.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
