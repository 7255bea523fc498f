"""Benchmark of the oscoal batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # both workloads in turn

Each job is a fresh `python -m oscoal ...` process, as a batch user runs it:
every job pays interpreter start, imports and cold caches.  A workload is
two jobs (see `workloads.py`).  The benchmark writes their inputs from the
seed into a scratch directory inside the checkout, runs the two jobs
alternately for about `--seconds` (each at least twice, so that determinism
is checked), then checks every output against its oracle, outside the timed
region.

With `--trace 0` it reports the end-to-end metrics, from untraced jobs.
With `--trace 1` the first run of each job is under `spans.py`, which times
the calls into each layer, and the per-layer metrics come from those runs;
the untraced runs after them give the tracing overhead.

A run fails on a nonzero exit, on output bytes that differ from the other
runs of the same job and seed (sha256), or on a failed oracle check.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the exit code is 1 if any run failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_RUNS = 5
MIN_RUNS = 2
# No run may go past this point of one invocation, which must end in 180 s.
DEADLINE_S = 150.0

END_TO_END = {
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "output_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Run:
    wall: float
    rss_mb: float
    rc: int
    traced: bool
    digest: str = None


def run_child(cmd, cwd, timeout):
    """Run one process to its end; return (wall s, its peak RSS in MB, exit code).

    The peak RSS comes from wait4 on this child alone (RUSAGE_CHILDREN would
    be a high-water mark over all children).  At exec the kernel also folds
    the spawning process's own RSS high-water mark into the child's, so this
    process imports no numpy and writes the inputs and runs the checks in
    other processes or after the last run.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def child_stderr(workdir):
    return (workdir / "stderr.txt").read_text(errors="replace")[-2000:]


def mem_available_mb():
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no MemAvailable line in /proc/meminfo")


def guard_memory(job):
    avail = mem_available_mb()
    if avail < 2 * job.expected_peak_mb:
        raise BenchError(
            f"refusing {job.name}: MemAvailable is {avail:.0f} MB, below twice "
            f"its expected peak RSS of {job.expected_peak_mb} MB"
        )


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def measure_setup(workdir, deadline):
    """Wall times of fresh `python -m oscoal --version` runs, after one warm-up."""
    cmd = [sys.executable, "-m", "oscoal", "--version"]
    times = []
    for i in range(SETUP_RUNS + 1):
        wall, _, rc = run_child(cmd, workdir, deadline - time.perf_counter())
        if rc != 0:
            raise BenchError(f"`oscoal --version` exited with {rc}: {child_stderr(workdir)}")
        if i:
            times.append(wall)
    return times


class JobRunner:
    """Runs one job in its own work dir and keeps its first good output."""

    def __init__(self, job, seed, workdir, deadline):
        self.job = job
        self.spec = wl.job_spec(job, seed)
        self.workdir = workdir
        self.out = workdir / self.spec.output
        self.kept = workdir / ("checked-" + self.spec.output)
        self.spans_path = workdir / "spans.json"
        self.deadline = deadline
        self.runs = []
        workdir.mkdir()
        gen = [sys.executable, str(HERE / "workloads.py"), job.name, str(seed), str(workdir)]
        if run_child(gen, workdir, deadline - time.perf_counter())[2] != 0:
            raise BenchError(f"writing the inputs of {job.name} failed: "
                             + child_stderr(workdir))

    @property
    def walls(self):
        return [r.wall for r in self.runs if not r.traced]

    def run(self, traced=False):
        self.out.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "spans.py"), str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "oscoal"]
        wall, rss, rc = run_child(cmd + self.spec.argv, self.workdir,
                                  self.deadline - time.perf_counter())
        run = Run(wall, rss, rc, traced)
        if rc != 0:
            print(f"{self.job.name} exited with {rc}: {child_stderr(self.workdir)}",
                  file=sys.stderr)
        elif self.out.exists():
            run.digest = sha256(self.out)
            if not self.kept.exists():
                os.replace(self.out, self.kept)
        self.runs.append(run)

    def check(self, seed, oracles):
        """Failed checks, and the number of failed runs."""
        if self.kept.exists():
            reference = sha256(self.kept)
            checks = oracles.CHECKS[self.job.name](self.kept, seed)
        else:
            reference = None
            checks = [("run", "no run produced an output")]
        if len({r.digest for r in self.runs if r.rc == 0}) > 1:
            checks.append(("determinism", "outputs of one job and seed differ"))
        failed = sum(1 for r in self.runs if r.rc != 0 or r.digest != reference
                     or any(name != "determinism" for name, _ in checks))
        return checks, failed

    def record(self, checks):
        rec = dict(self.spec.record, argv=["python", "-m", "oscoal", *self.spec.argv],
                   outputs=[self.spec.output], output_bytes=self.output_bytes(),
                   walls_s=self.walls, wall_s_tail=tail(self.walls),
                   traced_walls_s=[r.wall for r in self.runs if r.traced],
                   checks_failed=[name for name, _ in checks])
        if self.job.name.startswith("yields") and self.kept.exists():
            rec["mc"] = json.loads(self.kept.read_text()).get("mc")
        return rec

    def output_bytes(self):
        return self.kept.stat().st_size if self.kept.exists() else 0


def tail(samples):
    """(percentile, value) with ten samples beyond it, or None below 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run_jobs(runners, seconds, trace, deadline):
    """Rounds of one run of each job that is due.

    A run is due while it is expected to end within `seconds`, or while its
    job has fewer than the minimum runs.
    """
    t0 = time.perf_counter()
    minimum = 1 if trace else MIN_RUNS

    def due(r):
        expected = statistics.median(r.walls) if r.walls else 0.0
        now = time.perf_counter()
        return now + expected <= deadline and (
            len(r.walls) < minimum or now - t0 + expected <= seconds
        )

    if trace:
        for r in runners:
            r.run(traced=True)
    while any(due(r) for r in runners):
        for r in runners:
            if due(r):
                r.run()


def run_workload(workload, seed, seconds, trace):
    """Time, check and report one workload; returns (result dict, record dict)."""
    deadline = time.perf_counter() + DEADLINE_S
    jobs = [wl.JOBS[name] for name in workload.jobs]
    for job in jobs:
        guard_memory(job)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        runners = [JobRunner(job, seed, workdir / job.name, deadline) for job in jobs]
        setup = measure_setup(workdir, deadline)
        run_jobs(runners, seconds, trace, deadline)

        # After the last run: the checks import numpy and the program.
        import oracles

        failed, checks = 0, {}
        for r in runners:
            checks[r.job.name], n = r.check(seed, oracles)
            failed += n
            for name, message in checks[r.job.name]:
                print(f"CHECK FAILED {r.job.name} {name}: {message}", file=sys.stderr)
        attempted = sum(len(r.runs) for r in runners)

        # One round of both jobs at each job's median speed.
        wall_s = sum(statistics.median(r.walls) for r in runners)
        e2e = {
            "wall_s": wall_s,
            "items_per_s": sum(j.items for j in jobs) / wall_s,
            "peak_rss_mb": max(statistics.median(x.rss_mb for x in r.runs if not x.traced)
                               for r in runners),
            "output_mb": sum(r.output_bytes() for r in runners) / 1e6,
            "setup_s": statistics.median(setup),
        }
        record = {"workload": workload.name, "seed": seed, "setup_walls_s": setup,
                  "error_rate": failed / attempted, "metrics": e2e,
                  "jobs": [r.record(checks[r.job.name]) for r in runners]}
        if trace:
            layers = spans.layer_metrics(
                [json.loads(r.spans_path.read_text()) for r in runners
                 if r.spans_path.exists()]
            )
            traced_s = sum(x.wall for r in runners for x in r.runs if x.traced)
            layers["trace.overhead_s"] = traced_s - wall_s
            metrics = {m: {"value": layers[m], "unit": u}
                       for m, (u, _) in spans.LAYER_METRICS.items()}
        else:
            metrics = {m: {"value": e2e[m], "unit": u} for m, (u, _) in END_TO_END.items()}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def print_summary(name, result, record):
    for metric, (unit, _) in END_TO_END.items():
        print(f"{name:10s} {metric:14s} {record['metrics'][metric]:14.6g} {unit}")
    for job in record["jobs"]:
        n, t = len(job["walls_s"]), job["wall_s_tail"]
        print(f"{name:10s} {job['job']:24s} median {statistics.median(job['walls_s']):.4g} s, "
              + (f"tail p{t[0]:.0f} {t[1]:.4g} s" if t else "tail n/a (needs 11 runs)")
              + f", {n} runs")
    print(f"{name:10s} {'error_rate':14s} {record['error_rate']:14.6g} "
          f"({result['failed']} of {result['attempted']} runs failed)")
    for metric, v in result["metrics"].items():
        if metric not in END_TO_END:
            print(f"{name:10s} {metric:40s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({"record": record}, sort_keys=True))


def run_all(args):
    """Each workload in its own benchmark process, so none sees another's memory."""
    results = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


def _terminate(signum, frame):
    # SIGTERM unwinds like an exception, so the running child is killed and
    # waited for, and the work dir is removed.
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "oscoal" / "__init__.py").is_file():
        print(f"perfbench: no oscoal sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))  # the checks call the program's own reference routes
    try:
        result, record = run_workload(wl.WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print_summary(args.workload, result, record)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
