#!/usr/bin/env python3
"""Time ``rank slice`` on the tensors of the ``slice_rank`` workload at three
weightings, with the work each run did.

Usage: python3 scripts/bench_slice_rank.py [--seed N] [--repeats N] [--src DIR] [--json]

The tensors are the inputs of ``perfbench/workloads.py`` for ``slice_rank``
at ``--seed`` (default 1): W, matmul222, unit2+unit1 and a seeded random
2x3x4 tensor, each at xi = (1,1,1), (1,1/2,1) and (1,1,0).  Each case is
the command line ``rank slice FILE --xi XI --seed 0 --jobs 1`` through the
in-process ``spectrumkit.cli.main``.  One counted run per case wraps the
library where it is called and records:

* ``cuts``: the cuts or max-min oracles of the theta route (on a free
  support the route is the max-min program, and counts its oracles);
* ``max_min_calls``: the calls of ``max_min_weighted_entropy_witness``
  made from ``ranks`` or ``optim``, the max-min solves of both routes;
* ``scaling_runs``: the report's count, and ``scaling_calls``, the calls of
  ``entropic_scaling`` made from ``ranks`` or ``functionals``;
* ``scaling_iterations``: the iterations of those calls, summed from each
  call's ``ScalingTrace.iterations``;
* ``final_brackets``: the calls of ``ranks._bracketed_scaling``, a scaling
  run at the theta route's best theta on a checkout that still makes one
  (0 where ``ranks`` has no such function);
* ``masters`` and ``master_pivots``: the ``kelley_master`` calls of both
  routes and the iterations they report (simplex pivots, or HiGHS
  iterations on a checkout that solves the masters with HiGHS);
* ``theta_bracket``: the theta route's bracket.

It also records the exit code, ``status``, ``notes`` and ``value`` of the
JSON output, and ``cpu_ms``, the median CPU milliseconds over ``--repeats``
uncounted runs, after one untimed pass over every case that pays for the
lazy imports.  ``--src`` runs the same cases against another checkout's
``src`` directory.  ``--json`` prints one JSON object in place of the table.
BLAS is pinned to one thread.
"""

import argparse
import contextlib
import io
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

XIS = ("1,1,1", "1,1/2,1", "1,1,0")


class Counts:
    """Wraps the functions that do the work of one run, while in use."""

    def __init__(self, modules):
        self.modules = modules
        self.saved = []
        self.reset()

    def reset(self):
        self.cuts = self.scaling_calls = self.scaling_iterations = self.final_brackets = 0
        self.masters = self.master_pivots = self.max_min_calls = 0
        self.report = None

    def _wrap(self, module, name, after):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result)
            return result

        self.saved.append((module, name, fn))
        setattr(module, name, wrapper)

    def __enter__(self):
        cli, functionals, optim, ranks = self.modules

        def route(result):
            # (theta, bracket, cuts, solve); before the route ended at its
            # bracket, (value, theta, bracket, cuts, runs, solve)
            self.cuts += result[3] if len(result) == 6 else result[2]

        def scaling(result):
            self.scaling_calls += 1
            self.scaling_iterations += result[1].iterations

        def final_bracket(result):
            self.final_brackets += 1

        def master(result):
            self.masters += 1
            self.master_pivots += int(result.iterations)

        def max_min(result):
            self.max_min_calls += 1

        def report(result):
            self.report = result

        self._wrap(cli, "asymptotic_slice_rank", report)
        self._wrap(ranks, "_slice_rank_theta_route", route)
        if hasattr(ranks, "_bracketed_scaling"):
            self._wrap(ranks, "_bracketed_scaling", final_bracket)
        for module in (ranks, functionals):
            self._wrap(module, "entropic_scaling", scaling)
        for module in (ranks, optim):
            self._wrap(module, "kelley_master", master)
            if hasattr(module, "max_min_weighted_entropy_witness"):
                self._wrap(module, "max_min_weighted_entropy_witness", max_min)
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self.saved):
            setattr(module, name, fn)
        self.saved.clear()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), str(ROOT)]
    from spectrumkit import cli, functionals, optim, ranks

    from perfbench import workloads

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        workloads.build("slice_rank", args.seed, Path(tmp))
        labels = ("W", "matmul222", "unit2+unit1", "rand234")
        cases = [(f"{label} xi={xi}", ["rank", "slice", str(Path(tmp) / f"{label}.json"),
                                       "--xi", xi] + workloads.CLI_COMMON)
                 for label in labels for xi in XIS]
        for _, argv in cases:
            run(argv)
        rows = []
        for name, argv in cases:
            with Counts((cli, functionals, optim, ranks)) as counts:
                code, text = run(argv)
            cpu = []
            for _ in range(max(1, args.repeats)):
                start = time.process_time()
                run(argv)
                cpu.append(time.process_time() - start)
            payload = json.loads(text)
            details = counts.report.details
            rows.append({
                "case": name,
                "exit": code,
                "status": payload["status"],
                "notes": payload["notes"],
                "value": payload["value"],
                "theta_bracket": list(details["theta_bracket"]),
                "cuts": counts.cuts,
                "scaling_runs": details["scaling_runs"],
                "scaling_calls": counts.scaling_calls,
                "scaling_iterations": counts.scaling_iterations,
                "final_brackets": counts.final_brackets,
                "max_min_calls": counts.max_min_calls,
                "masters": counts.masters,
                "master_pivots": counts.master_pivots,
                "cpu_ms": round(1e3 * statistics.median(cpu), 2),
            })

    if args.json:
        print(json.dumps({"seed": args.seed, "repeats": args.repeats, "cases": rows}))
        return 0
    print(f"{'case':26s} {'exit':>4s} {'cuts':>4s} {'runs':>4s} {'iters':>5s} {'fb':>2s} {'mm':>3s} "
          f"{'mst':>4s} {'pivots':>6s} {'cpu_ms':>8s} {'value':>14s}  theta_bracket")
    for r in rows:
        lo, hi = r["theta_bracket"]
        print(f"{r['case']:26s} {r['exit']:4d} {r['cuts']:4d} {r['scaling_runs']:4d} "
              f"{r['scaling_iterations']:5d} {r['final_brackets']:2d} {r['max_min_calls']:3d} "
              f"{r['masters']:4d} {r['master_pivots']:6d} "
              f"{r['cpu_ms']:8.2f} "
              f"{r['value']:14.10f}  [{lo:.10f}, {hi:.10f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
