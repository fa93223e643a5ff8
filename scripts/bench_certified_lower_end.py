#!/usr/bin/env python3
"""Time the functional and minimax jobs of the ``functionals`` workload, with
the work each one did and how the lower end of its bracket was obtained.

Usage: python3 scripts/bench_certified_lower_end.py [--seed N] [--repeats N] [--src DIR] [--json]

The cases are the jobs of ``perfbench/workloads.py`` for ``functionals`` at
``--seed`` (default 1), the same inputs and command lines the benchmark
runs, less the ``functional symmetric`` jobs, which no bracket reaches.  For
each it prints the exit code and perfbench's verdict, the scaling calls
and iterations and the moment-descent iterations the job ran (by wrapping
``functionals.entropic_scaling`` and
``functionals.minimize_over_moment_polytope``), the descent's stop, the
CPU seconds of the job, ``bits`` and ``bracket`` (or the minimax ``lhs``
and ``rhs``), and the certificate's ``lower_end``; on a checkout whose
certificates lack that field every bracket comes from scaling, and the
column says so.  Times are medians over ``--repeats`` runs, after one
untimed pass over every case that pays for the lazy imports.  The summary
sums the median CPU of three groups: the three scaling-tail jobs at
theta = (3/5, 2/5, 0), the eight linf and l1-uniform ``check-minimax``
jobs, and all cases, and the scaling calls and iterations of one pass
over all cases.  ``--src`` runs the same
cases against another checkout's ``src`` directory.  ``--json`` prints one
JSON object in place of the table.  BLAS is pinned to one thread.
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

ROOT = Path(__file__).resolve().parents[1]

TAIL = (
    "functional quantum W theta=3/5,2/5,0",
    "functional support W theta=3/5,2/5,0",
    "functional support sparse26 (3, 3, 2) theta=3/5,2/5,0",
)


class Work:
    """Counts the wrapped scaling runs and sums their iterations and the
    descents'."""

    def __init__(self, functionals):
        self.functionals = functionals
        self.scaling = functionals.entropic_scaling
        self.descent = functionals.minimize_over_moment_polytope
        self.reset()

    def reset(self):
        self.scaling_calls, self.scaling_iters = 0, 0
        self.descent_iters, self.descent_stop = 0, None

    def __enter__(self):
        def scaling(*args, **kwargs):
            cert, trace = self.scaling(*args, **kwargs)
            self.scaling_calls += 1
            self.scaling_iters += trace.iterations
            return cert, trace

        def descent(*args, **kwargs):
            res = self.descent(*args, **kwargs)
            self.descent_iters += res.iterations
            self.descent_stop = res.stop
            return res

        self.functionals.entropic_scaling = scaling
        self.functionals.minimize_over_moment_polytope = descent
        return self

    def __exit__(self, *exc):
        self.functionals.entropic_scaling = self.scaling
        self.functionals.minimize_over_moment_polytope = self.descent


def lower_end(payload: dict):
    if "lower_end" in payload:
        return payload["lower_end"]
    return "scaling" if payload.get("bracket") is not None else None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), str(ROOT)]
    from spectrumkit import functionals

    from perfbench import workloads

    with tempfile.TemporaryDirectory() as tmp:
        jobs = [j for j in workloads.build("functionals", args.seed, Path(tmp))
                if not j.name.startswith("functional symmetric")]
        for job in jobs:
            job.work()
        rows = []
        for job in jobs:
            cpu = []
            with Work(functionals) as work:
                for _ in range(max(1, args.repeats)):
                    work.reset()
                    start = time.process_time()
                    result = job.work()
                    cpu.append(time.process_time() - start)
            code, text = result
            payload = json.loads(text) if text else {}
            row = {
                "case": job.name,
                "exit": code,
                "status": job.judge(result).status,
                "scaling_calls": work.scaling_calls,
                "scaling_iters": work.scaling_iters,
                "descent_iters": work.descent_iters,
                "descent_stop": work.descent_stop,
                "cpu_s": round(statistics.median(cpu), 5),
                "lower_end": lower_end(payload),
            }
            for key in ("bits", "bracket", "lhs", "rhs"):
                if key in payload:
                    row[key] = payload[key]
            rows.append(row)

    def total(names) -> float:
        return round(sum(r["cpu_s"] for r in rows if r["case"] in names), 4)

    minimax = {r["case"] for r in rows if r["case"].startswith("check-minimax")
               and not r["case"].endswith("neg-entropy")}
    summary = {"tail_cpu_s": total(TAIL), "minimax_linf_l1_cpu_s": total(minimax),
               "all_cpu_s": total({r["case"] for r in rows}),
               "scaling_calls": sum(r["scaling_calls"] for r in rows),
               "scaling_iters": sum(r["scaling_iters"] for r in rows)}
    if args.json:
        print(json.dumps({"seed": args.seed, "repeats": args.repeats, "summary": summary,
                          "cases": rows}))
        return 0
    print(f"{'case':56s} {'exit':>4s} {'scale':>5s} {'scale_it':>8s} {'desc_it':>7s} {'cpu_s':>8s}  "
          f"{'lower_end':13s} value")
    for r in rows:
        value = (f"{r['bits']:.12f}" if "bits" in r
                 else f"lhs {r.get('lhs', float('nan')):.12f} rhs {r.get('rhs', float('nan')):.12f}")
        print(f"{r['case']:56s} {r['exit']:4d} {r['scaling_calls']:5d} {r['scaling_iters']:8d} "
              f"{r['descent_iters']:7d} "
              f"{r['cpu_s']:8.4f}  {str(r['lower_end']):13s} {value}")
    print(" ".join(f"{k} {v}" for k, v in summary.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
