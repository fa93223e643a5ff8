#!/usr/bin/env python3
"""Time the six exact-cover jobs of the ``covers`` benchmark workload.

Usage: python3 scripts/bench_exact_cover.py [--repeats N] [--seed S] [--src DIR] [--json]

The jobs are ``vertex_cover`` on W^3 and W^4 at xi = (1, 1, 1), (1, 0.5, 1)
and (1, 1, 0), built by ``perfbench/workloads.py`` from the workload seed
(default 1) exactly as the benchmark builds them, and run in process.  For
each job it prints the branch-and-bound nodes, the certified lower bound,
the cover value, the benchmark's verdict, and the CPU seconds of the job, the
median over ``--repeats`` runs after one untimed run of every job.  The
nodes and the bound are read from ``CoverResult.nodes`` and
``CoverResult.lower_bound``; on a checkout whose result does not record
them, the nodes are the calls of its recursive search, counted under
``sys.setprofile`` in one more untimed run, and the bound is ``-``.
``--src`` runs the same jobs against another checkout's ``src`` directory,
with this checkout's benchmark code; ``--json`` prints one JSON object in
place of the table.  BLAS is pinned to one thread.
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


def count_recursive_calls(work, name: str = "recurse") -> int:
    """Run ``work`` once and count the calls of functions called ``name``."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == name:
            calls += 1

    sys.setprofile(hook)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), str(ROOT / "perfbench")]

    import workloads

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        jobs = workloads.build("covers", args.seed, Path(tmp))
        todo = [job for job in jobs if job.name.startswith("vertex_cover ")]
        for job in todo:
            job.work()
        for job in todo:
            cpu, res = [], None
            for _ in range(max(1, args.repeats)):
                start = time.process_time()
                res = job.work()
                cpu.append(time.process_time() - start)
            nodes = getattr(res, "nodes", None)
            if nodes is None:
                nodes = count_recursive_calls(job.work)
            rows.append({
                "job": job.name,
                "nodes": nodes,
                "lower_bound": getattr(res, "lower_bound", None),
                "value": res.value,
                "verdict": job.judge(res).status,
                "cpu_s": round(statistics.median(cpu), 4),
            })
    if args.json:
        print(json.dumps({"seed": args.seed, "repeats": args.repeats, "jobs": rows}))
        return 0
    print(f"{'job':36s} {'nodes':>7s} {'lo':>5s} {'value':>6s} {'verdict':>8s} {'cpu_s':>7s}")
    for r in rows:
        lo = "-" if r["lower_bound"] is None else f"{r['lower_bound']:g}"
        print(f"{r['job']:36s} {r['nodes']:7d} {lo:>5s} {r['value']:6g} {r['verdict']:>8s} {r['cpu_s']:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
