#!/usr/bin/env python3
"""Time the three scaling-tail jobs of the ``functionals`` benchmark workload.

Usage: python3 scripts/bench_bracket_stop.py [--repeats N] [--seed S] [--src DIR] [--json]

The jobs are ``functional quantum W``, ``functional support W`` and
``functional support sparse26``, all at theta = (3/5, 2/5, 0), built by
``perfbench/workloads.py`` from the workload seed (default 1) exactly as the
benchmark builds them, and run in process through ``spectrumkit.cli.main``.
For each job it prints the scaling iterations (summed over the job's
``entropic_scaling`` calls, counted by wrapping that function), why the last
run stopped (``bracket``, ``tol`` or ``cap``; ``-`` on a checkout whose
trace does not record it), the reported bits, the benchmark's verdict and
the CPU seconds of the job, the median over ``--repeats`` runs after one
untimed run of every job.  ``--src`` runs the same jobs against another
checkout's ``src`` directory, with this checkout's benchmark code;
``--json`` prints one JSON object in place of the table.  BLAS is pinned to
one thread.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
TAIL_JOBS = (
    "functional quantum W theta=3/5,2/5,0",
    "functional support W theta=3/5,2/5,0",
    "functional support sparse26 (3, 3, 2) theta=3/5,2/5,0",
)


class ScalingProbe:
    """Stands in for ``entropic_scaling``: counts iterations, keeps the last
    stop reason."""

    def __init__(self, scaling):
        self.scaling = scaling
        self.iterations = 0
        self.stop = "-"

    def __call__(self, *args, **kwargs):
        cert, trace = self.scaling(*args, **kwargs)
        self.iterations += trace.iterations
        self.stop = getattr(trace, "stop", "-")
        return cert, trace


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), str(ROOT / "perfbench")]
    import numpy as np

    import workloads
    from spectrumkit import functionals

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        jobs = workloads.functionals_jobs(np.random.default_rng(args.seed), Path(tmp))
        todo = [job for job in jobs if job.name in TAIL_JOBS]
        for job in todo:
            job.work()
        for job in todo:
            cpu, iters, stop, result = [], None, "-", None
            for _ in range(max(1, args.repeats)):
                probe = ScalingProbe(functionals.entropic_scaling)
                functionals.entropic_scaling = probe
                try:
                    start = time.process_time()
                    result = job.work()
                    cpu.append(time.process_time() - start)
                finally:
                    functionals.entropic_scaling = probe.scaling
                iters, stop = probe.iterations, probe.stop
            verdict = job.judge(result)
            payload = json.loads(result[1])
            rows.append({
                "job": job.name,
                "iterations": iters,
                "stop": stop,
                "bits": payload["bits"],
                "bracket": payload.get("bracket"),
                "verdict": verdict.status,
                "cpu_s": round(statistics.median(cpu), 4),
            })
    if args.json:
        print(json.dumps({"seed": args.seed, "repeats": args.repeats, "jobs": rows}))
        return 0
    print(f"{'job':52s} {'iters':>6s} {'stop':>7s} {'bits':>18s} {'verdict':>8s} {'cpu_s':>7s}")
    for r in rows:
        print(f"{r['job']:52s} {r['iterations']:6d} {r['stop']:>7s} {r['bits']:18.15f} "
              f"{r['verdict']:>8s} {r['cpu_s']:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
