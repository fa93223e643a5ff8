#!/usr/bin/env python3
"""spectrumkit benchmark: seeded job lists, run closed loop, checked by oracles.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload functionals --seed 1 --seconds 10 --trace 0

One process runs the jobs of one workload one at a time, in the same order
every run, single-threaded.  It runs whole passes over the job list until
``--seconds`` have passed (at least one pass).  A pass is a round over every
job and, on some workloads, further rounds over the fast ones; a job's time
is the CPU time it took, the median over its runs.  A traced run makes one
round.  Every job's result is checked by its oracle and hashed.  Lines
starting with ``#`` give the run metadata, the determinism digest and a
summary; the last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced pass
(``--trace 1``).  Per-job lines go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
#: jobs whose first run takes less than this are run again in later rounds
#: of a pass (``workloads.REPEATS``); a slower job averages its noise out
REPEAT_BELOW_S = 0.5

# single-threaded: pin the BLAS pools before numpy is imported
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


class JobDeadline(Exception):
    """A job ran past its workload's deadline."""


def _on_alarm(signum, frame):
    raise JobDeadline()


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_job(job, deadline_s: float):
    """Time ``job.work`` under the deadline, then judge it (untimed).

    Returns (seconds, wall seconds, Verdict).  ``seconds`` is the CPU time
    the job took: the jobs are single-threaded and never wait, so on an idle
    machine it equals their wall time, and on a shared host it leaves out
    the time the host ran other guests instead (steal time).  A job stopped
    at its (wall-clock) deadline counts as taking the deadline.  An
    exception or a passed deadline is a failed job, never a crashed run.
    """
    from workloads import Verdict

    signal.signal(signal.SIGALRM, _on_alarm)
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            result = job.work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except JobDeadline:
        return deadline_s, time.perf_counter() - t0, Verdict("failed", f"deadline {deadline_s:g} s", "deadline")
    except Exception as e:  # a job's failure is data, the run goes on
        return (cpu_seconds() - c0, time.perf_counter() - t0,
                Verdict("failed", f"{type(e).__name__}: {e}"[:200], f"raised {type(e).__name__}"))
    seconds, wall_s = cpu_seconds() - c0, time.perf_counter() - t0
    return seconds, wall_s, job.judge(result)


def run_pass(jobs, deadline_s: float, repeats: int, log) -> list[list[tuple[float, object]]]:
    """One pass over the job list: a first round runs every job, then each
    later round runs again, in the same order, every job whose first run
    took less than REPEAT_BELOW_S.  Returns each job's (seconds, Verdict)
    runs."""
    from workloads import digest

    runs: list[list[tuple[float, object]]] = [[] for _ in jobs]
    for round_no in range(1, repeats + 1):
        for job, done in zip(jobs, runs):
            if round_no > 1 and done[0][0] >= REPEAT_BELOW_S:
                continue
            seconds, wall_s, verdict = run_job(job, deadline_s)
            done.append((seconds, verdict))
            log(f"{round_no} {verdict.status:<8} {seconds:9.4f} s cpu {wall_s:9.4f} s wall  "
                f"{digest(verdict.record)[:12]}  {job.name}" + (f"  [{verdict.reason}]" if verdict.reason else ""))
    return runs


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median over fresh interpreters of the CPU time taken by: import, input
    generation, writing files."""
    code = (
        "import sys, time\n"
        "t0 = time.process_time()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "import pathlib, workloads\n"
        f"workloads.build({workload!r}, {seed}, pathlib.Path({str(workdir)!r}))\n"
        "print(time.process_time() - t0)\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def metadata(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def harrell_davis(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Job times are few and far apart around the median of
    some workloads, where a single order statistic jumps between runs."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(xs, dtype=float))
    n = x.size
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def end_to_end(runs, setup_s: float, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """``runs`` holds each job's (seconds, Verdict) runs; a job's time is the
    median of its runs, which were taken in rounds some seconds apart."""
    times = [statistics.median(s for s, _ in done) for done in runs]
    statuses = [v.status for done in runs for _, v in done]
    n = len(statuses)
    failed = sum(s in ("failed", "wrong") for s in statuses)
    finished = n - failed
    disagree = statuses.count("disagree")
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s_p50": (harrell_davis(times, 0.5), "s"),
        "job_s_p90": (harrell_davis(times, 0.9), "s"),
        "ok_rate": (1.0 - failed / n, "ratio"),
        "agree_rate": (1.0 - disagree / finished if finished else 1.0, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spectrumkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no spectrumkit sources under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}\n")
        return 2

    def log(line: str) -> None:
        sys.stderr.write(line + "\n")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = setup_seconds(args.workload, args.seed, workdir / "setup")
        jobs = workloads.build(args.workload, args.seed, workdir / "run")
        deadline = workloads.DEADLINE_S[args.workload]
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        # a traced run makes one pass of one round, so that its counts are
        # those of the job list run once and compare across commits
        repeats = 1 if tracer else workloads.REPEATS[args.workload]
        runs = [[] for _ in jobs]
        passes = 0
        t0 = time.perf_counter()
        try:
            while not passes or (not tracer and time.perf_counter() - t0 < args.seconds):
                for done, more in zip(runs, run_pass(jobs, deadline, repeats, log)):
                    done.extend(more)
                passes += 1
        finally:
            wall_s = time.perf_counter() - t0
            # before the metric code imports anything more
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # every run of a job must give the same result as its first
    first = "\n".join(f"{job.name} {workloads.digest(done[0][1].record)}" for job, done in zip(jobs, runs))
    consistent = all(v.record == done[0][1].record for done in runs for _, v in done)
    verdicts = [(job.name, v) for job, done in zip(jobs, runs) for _, v in done]
    wrong = [(name, v.reason) for name, v in verdicts if v.status == "wrong"]
    failed = [(name, v.reason) for name, v in verdicts if v.status in ("failed", "wrong")]

    print("# meta " + json.dumps(metadata(args.seed), sort_keys=True))
    print(f"# digest {workloads.digest(first)} jobs={len(jobs)} passes={passes} "
          f"runs={len(verdicts)} consistent={consistent}")
    for name, reason in sorted(set(failed)):
        print(f"# failed {name}: {reason}")
    if tracer:
        metrics = tracing.layer_metrics(tracer, wall_s, tracing.span_cost_s())
    else:
        metrics = end_to_end(runs, setup_s, peak_rss_mb)
    print(json.dumps({
        "correct": not wrong and consistent,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
