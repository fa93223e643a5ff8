#!/usr/bin/env python3
"""Time the eight moment-descent jobs of the ``covers`` benchmark workload.

Usage: python3 scripts/bench_moment_stop.py [--repeats N] [--seed S] [--src DIR] [--json]

The jobs are ``g_stable_rank`` on W, W x W and rand334 and ``ncrank`` on
identity3, row_pencil, skew3, rand663_0 and rand663_1, built by
``perfbench/workloads.py`` from the workload seed (default 1) exactly as the
benchmark builds them, and run in process.  For each job it prints the
descent iterations, its ``converged`` flag and why it stopped (``bracket``,
``tol``, ``stall`` or ``cap``; ``-`` on a checkout whose result does not
record it), all read by wrapping ``minimize_over_moment_polytope`` where
``ranks`` calls it.  A job that makes no descent because its moment route
is certified prints 0 iterations, ``converged`` True and the certificate
(``free_support``, ``semistable`` or ``square_pencil``, from the report's
``details["moment_certificate"]``) as its stop.  Then come the moment route (``moment_linf`` for the G-stable rank, the raw ``moment_l1``
value for ncrank), the reported rank, the benchmark's verdict, and the CPU
seconds of the descent and of the whole job, the medians over ``--repeats``
runs after one untimed run of every job.  ``--src`` runs the same jobs
against another checkout's ``src`` directory, with this checkout's benchmark
code; ``--json`` prints one JSON object in place of the table.  BLAS is
pinned to one thread.
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


class DescentProbe:
    """Stands in for ``minimize_over_moment_polytope``: counts iterations and
    CPU seconds, keeps the last stop reason and converged flag."""

    def __init__(self, descent):
        self.descent = descent
        self.iterations = 0
        self.cpu_s = 0.0
        self.stop = "-"
        self.converged = None
        self.calls = 0

    def __call__(self, *args, **kwargs):
        start = time.process_time()
        res = self.descent(*args, **kwargs)
        self.cpu_s += time.process_time() - start
        self.calls += 1
        self.iterations += res.iterations
        self.stop = getattr(res, "stop", "-")
        self.converged = res.converged
        return res


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), str(ROOT / "perfbench")]

    import workloads
    from spectrumkit import ranks

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        jobs = workloads.build("covers", args.seed, Path(tmp))
        todo = [job for job in jobs if job.name.startswith(("g_stable_rank ", "ncrank "))]
        for job in todo:
            job.work()
        for job in todo:
            cpu, descent_cpu, probe, rep = [], [], None, None
            for _ in range(max(1, args.repeats)):
                probe = DescentProbe(ranks.minimize_over_moment_polytope)
                ranks.minimize_over_moment_polytope = probe
                try:
                    start = time.process_time()
                    rep = job.work()
                    cpu.append(time.process_time() - start)
                finally:
                    ranks.minimize_over_moment_polytope = probe.descent
                descent_cpu.append(probe.cpu_s)
            route = rep.details["moment_raw"] if rep.quantity == "ncrank" else rep.routes["moment_linf"]
            certificate = rep.details.get("moment_certificate")
            skipped = probe.calls == 0 and certificate is not None
            rows.append({
                "job": job.name,
                "iterations": probe.iterations,
                "stop": certificate if skipped else probe.stop,
                "converged": True if skipped else probe.converged,
                "route": route,
                "value": rep.value,
                "verdict": job.judge(rep).status,
                "descent_cpu_s": round(statistics.median(descent_cpu), 4),
                "cpu_s": round(statistics.median(cpu), 4),
            })
    if args.json:
        print(json.dumps({"seed": args.seed, "repeats": args.repeats, "jobs": rows}))
        return 0
    print(f"{'job':24s} {'iters':>6s} {'conv':>5s} {'stop':>13s} {'route':>18s} {'value':>6s} "
          f"{'verdict':>8s} {'desc_s':>7s} {'cpu_s':>7s}")
    for r in rows:
        print(f"{r['job']:24s} {r['iterations']:6d} {str(r['converged']):>5s} {r['stop']:>13s} {r['route']:18.15f} "
              f"{r['value']:6.3g} {r['verdict']:>8s} {r['descent_cpu_s']:7.4f} {r['cpu_s']:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
