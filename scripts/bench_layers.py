#!/usr/bin/env python3
"""Time each layer of spectrumkit next to the work it did.

Usage: python3 scripts/bench_layers.py [--seed S] [--repeats N] [--src DIR] [--json]

Every layer has one fixed case table; the cases of the last six below are
jobs of ``perfbench/workloads.py`` built from the workload seed ``--seed``
(default 1).  Each row reports:

* ``support`` (the entropy, inf-norm and l1 programs on W^4): the
  ``min_convex_over_support`` solves, their Newton steps or LP pivots, the
  value and its certified gap;
* ``max_min`` (``max_min_weighted_entropy_witness`` at tol 1e-7 on W^3, W^4
  and three seeded sparse supports at five xi): the oracles, the Kelley
  masters and their pivots, the Newton steps over theta, the oracles' own
  Newton steps, the ``_assess`` calls, the value and its certified gap;
* ``scaling`` and ``descent`` (``entropic_scaling``, and
  ``minimize_over_moment_polytope`` at a 6,000-step cap and no bound): the
  iterations and the CPU microseconds per iteration;
* ``basis_search`` (the support functional, the slice-rank and G-stable
  cover routes, the minimax check, the symmetric support functional and
  ``ncrank_fr``): the bases scored, the CPU seconds of the search (from the
  first candidate drawn to the end of the scan, or of the scoring calls
  where a search draws its own candidates), and a digest of the result
  without its counts of bases scored;
* ``exact_cover`` (``vertex_cover`` in ``covers``): the branch-and-bound
  nodes, the certified lower bound and the value;
* ``functional`` (the quantum, support and check-minimax jobs of
  ``functionals``, through ``cli.main``): the exit code, the scaling runs
  and iterations, the descent steps, ``lower_end``, and the bits with their
  bracket (or lhs and rhs);
* ``slice_route`` (``rank slice`` on the ``slice_rank`` tensors at three
  xi): the theta route's cuts, the scaling runs and iterations, the max-min
  solves, the Kelley masters and their pivots, and the theta bracket;
* ``moment_route`` (``g_stable_rank`` and ``ncrank`` in ``covers``): the
  descent steps, its stop or the certificate that made it unneeded, the
  moment route's value, and the report's gap and status;
* ``cover_lp`` (``fractional_vertex_cover`` in ``covers``): the LP rows,
  the HiGHS iterations, the duality gap and the value;
* ``matching`` (``bipartite_vertex_cover`` in ``covers``): the edges and
  the matching size.

Each case runs once with its probes in place, untimed, which also pays for
any lazy import: a probe stands in for a library function where its caller
looks it up and adds up the work read off each result.  ``cpu_s`` is then
the median CPU seconds of ``--repeats`` runs without probes.  ``--src``
runs the cases against another checkout's ``src`` directory of the current
API; ``--json`` prints one JSON object in place of the tables.  BLAS is
pinned to one thread.
"""

import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]


def load(src: str) -> None:
    """Import the library from ``src`` and perfbench from this checkout as
    the globals the layers use; deferred, so that ``--src`` comes first."""
    global np, sk, cli, functionals, hypergraphs, optim, ranks, tensors, workloads
    sys.path[:0] = [os.path.abspath(src), str(ROOT)]
    import numpy as np

    import spectrumkit as sk
    from perfbench import workloads
    from spectrumkit import cli, functionals, hypergraphs, optim, ranks, tensors


class Case(NamedTuple):
    name: str
    call: Callable[[], Any]
    read: Callable[[Any], dict]  # the row's fields read off the call's result
    probes: tuple = ()  # (module, attribute, work[, timed]) per probe


class Probe:
    """Stands in for ``module.attr``: each call adds ``work(result, args)``,
    a dict, to ``counts`` (numbers add up, other values replace), and
    ``timed``, if given, names a count of the CPU seconds spent inside.  A
    generator's work is read off each item it yields, and its time runs from
    its first item to its end."""

    def __init__(self, counts, module, attr, work, timed=None):
        self.counts, self.module, self.attr = counts, module, attr
        self.fn, self.work, self.timed = getattr(module, attr), work, timed

    def add(self, work: dict, start: float | None = None) -> None:
        if start is not None and self.timed:
            work = {**work, self.timed: time.process_time() - start}
        for key, value in work.items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            self.counts[key] = self.counts.get(key, 0) + value if number else value

    def __call__(self, *args, **kwargs):
        start = time.process_time()
        result = self.fn(*args, **kwargs)
        if inspect.isgenerator(result):
            return self.each(result, args)
        self.add(self.work(result, args), start)
        return result

    def each(self, items, args):
        start = time.process_time()
        try:
            for item in items:
                self.add(self.work(item, args))
                yield item
        finally:  # exhausted, or closed when the search stops early
            self.add({}, start)


def counted(case: Case, counts: tuple[str, ...]) -> dict:
    """One run of ``case`` with its probes in place: its row, with every
    name of ``counts`` present."""
    row = dict.fromkeys(counts, 0)
    probes = [Probe(row, *spec) for spec in case.probes]
    for probe in probes:
        setattr(probe.module, probe.attr, probe)
    try:
        result = case.call()
    finally:
        for probe in reversed(probes):
            setattr(probe.module, probe.attr, probe.fn)
    return {"case": case.name, **row, **case.read(result)}


def timed(case: Case, counts: tuple[str, ...], repeats: int) -> dict:
    """The counted row, then the median CPU seconds of ``repeats`` runs."""
    row = counted(case, counts)
    cpu = []
    for _ in range(max(1, repeats)):
        start = time.process_time()
        case.call()
        cpu.append(time.process_time() - start)
    row["cpu_s"] = round(statistics.median(cpu), 6)
    if row.get("iterations"):
        row["us_per_iter"] = round(1e6 * row["cpu_s"] / row["iterations"], 1)
    return row


def digest(result) -> str:
    """A sha256 prefix of every value, array and basis of ``result``
    except its counts of bases scored."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if dataclasses.is_dataclass(x):
            h.update(type(x).__name__.encode())
            x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
        if isinstance(x, dict):
            for k in sorted(set(x) - {"bases_scored", "pairs_scored", "cover_bases"}):
                h.update(str(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        elif isinstance(x, np.ndarray):
            h.update(repr((x.dtype.str, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif x is None or isinstance(x, (bool, int, float, str, np.generic)):
            h.update(repr(x).encode())
        else:
            raise TypeError(f"cannot digest {type(x).__name__}")

    feed(result)
    return h.hexdigest()[:16]


def jobs(workload: str, seed: int, workdir: Path, prefix) -> list:
    """The perfbench jobs of ``workload`` whose names start with ``prefix``
    (a string or a tuple of them), in run order."""
    return [job for job in workloads.build(workload, seed, workdir / workload) if job.name.startswith(prefix)]


def cli_case(job, keys: tuple[str, ...], probes: tuple) -> Case:
    """A perfbench CLI job: the fields ``keys`` of its exit code
    (``exit``), perfbench's verdict (``verdict``) and its JSON output."""
    def read(result):
        code, text = result
        row = {"exit": code, "verdict": job.judge(result).status, **json.loads(text)}
        return {k: row[k] for k in keys if k in row}
    return Case(job.name, job.work, read, probes)


def lib_case(job, fields: Callable[[Any], dict], probes: tuple = ()) -> Case:
    """A perfbench library job: ``fields(result)`` and perfbench's verdict."""
    return Case(job.name, job.work, lambda r: {**fields(r), "verdict": job.judge(r).status}, probes)


# ---------------------------------------------------------------------------
# the layers: each builds (its count names, its cases) from the workload
# seed and a directory for the input files

LAYERS: dict[str, Callable[[int, Path], tuple[tuple[str, ...], list[Case]]]] = {}


def layer(build):
    LAYERS[build.__name__] = build
    return build


@layer
def support(seed, workdir):
    w4 = sk.kronecker_power(sk.hypergraph_of(sk.w_tensor()), 4).as_support()
    probes = ((optim, "min_convex_over_support", lambda r, a: {"solves": 1, "iterations": r.iterations}),)

    def case(name, objective):
        return Case(name, lambda: optim.min_convex_over_support(w4, objective, tol=1e-9),
                    lambda r: {"value": r.value, "certified_gap": r.certified_gap}, probes)

    return ("solves", "iterations"), [
        case("entropy W^4 theta=(1/2,1/2,0)", optim.NegWeightedEntropy(sk.ThetaWeights.theta([0.5, 0.5, 0]))),
        case("linf W^4 alpha=(1,1/2,2)", optim.MaxInfNorm(sk.ThetaWeights.alpha([1, 0.5, 2]))),
        case("l1 W^4", optim.L1FromUniform()),
    ]


@layer
def max_min(seed, workdir):
    def sparse(dims, nnz, seed):
        rng = np.random.default_rng(seed)
        flat = np.zeros(int(np.prod(dims)), dtype=complex)
        idx = rng.choice(flat.size, nnz, replace=False)
        flat[idx] = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
        return sk.support(sk.Tensor(flat.reshape(dims)), 0.0)

    w = sk.hypergraph_of(sk.w_tensor())
    supports = {"W^3": sk.kronecker_power(w, 3).as_support(), "W^4": sk.kronecker_power(w, 4).as_support(),
                "sparse (4,3,6) nnz=6 seed=1": sparse((4, 3, 6), 6, 1),
                "sparse (4,3,6) nnz=9 seed=0": sparse((4, 3, 6), 9, 0),
                "sparse (6,6,6) nnz=9 seed=0": sparse((6, 6, 6), 9, 0)}
    probes = ((optim, "_newton", lambda r, a: {"oracle_newton_steps": r[2]}),
              (optim, "_assess", lambda r, a: {"assess_calls": 1}),
              (optim, "kelley_master", lambda r, a: {"masters": 1, "master_pivots": r.iterations}),
              (optim, "_theta_newton_step", lambda r, a: {"theta_steps": int(r is not None)}))
    return ("oracles", "masters", "master_pivots", "theta_steps", "oracle_newton_steps", "assess_calls"), [
        Case(f"{label} xi={xi}",
             lambda s=s, xi=xi: optim.max_min_weighted_entropy_witness(s, sk.ThetaWeights.xi(xi), tol=1e-7),
             lambda r: {"oracles": r[0].iterations, "value": r[0].value, "certified_gap": r[0].certified_gap},
             probes)
        for label, s in supports.items()
        for xi in ((1.0, 0.5, 1.0), (1.0, 1.0, 0.25), (1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (0.3, 1.0, 0.7))
    ]


@layer
def scaling(seed, workdir):
    def case(name, t, theta):
        return Case(name, lambda: functionals.entropic_scaling(t, sk.ThetaWeights.theta(theta)),
                    lambda r: {"iterations": r[1].iterations, "converged": r[1].converged, "value": r[0].bits})

    return ("iterations",), [
        case("W theta=uniform", sk.w_tensor(), [1 / 3, 1 / 3, 1 / 3]),
        case("W theta=(3/5,2/5,0)", sk.w_tensor(), [0.6, 0.4, 0.0]),
        case("rand234 theta=uniform", tensors.random_tensor((2, 3, 4), np.random.default_rng(0)), [1 / 3] * 3),
    ]


@layer
def descent(seed, workdir):
    def case(name, t, objective, legs=None):
        return Case(name, lambda: functionals.minimize_over_moment_polytope(t, objective, active_legs=legs,
                                                                           max_iter=6000),
                    lambda r: {"iterations": r.iterations, "converged": r.converged, "stop": r.stop,
                               "value": r.value})

    w = sk.w_tensor()
    rand663 = sk.MatrixTuple(np.random.default_rng(1).standard_normal((3, 6, 6))
                             + 1j * np.random.default_rng(2).standard_normal((3, 6, 6))).as_tensor()
    return ("iterations",), [
        case("rand663 l1 legs=(0,1)", rand663, optim.L1FromUniform(), (0, 1)),
        case("WxW linf", sk.tensor_product(w, w), optim.MaxInfNorm(sk.ThetaWeights.alpha([1, 1, 1]))),
    ]


@layer
def basis_search(seed, workdir):
    w = sk.w_tensor()
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    named = {
        "W": w,
        "matmul222": sk.matmul_tensor(2, 2, 2),
        "unit2+unit1": sk.direct_sum(sk.make_unit(2, 3), sk.make_unit(1, 3)),
        "rand234": tensors.random_tensor((2, 3, 4), np.random.default_rng(0)),
        # W under a Gaussian GL element: no candidate meets the bound
        "GL.W": sk.Tensor(np.einsum("ai,bj,ck,ijk->abc", *mats, w.entries)),
    }
    cfg, theta = sk.SearchConfig(), sk.ThetaWeights.uniform(3)
    xi, alpha = sk.ThetaWeights.xi([1, 1, 1]), sk.ThetaWeights.alpha([1, 1, 1])

    def case(name, call, value, *scorers):
        """A search counted by the candidates it draws, or by the calls of
        ``scorers`` (module, name) where it draws its own."""
        probes = tuple((m, n, lambda r, a: {"bases": 1}, "search_cpu_s")
                       for m, n in scorers or ((functionals, "unitary_candidates"), (ranks, "unitary_candidates")))
        return Case(name, call, lambda r: {"value": value(r), "digest": digest(r)}, probes)

    out = []
    for name, t in named.items():
        out += [case(f"support {name}", lambda t=t: sk.support_functional(t, theta, cfg), lambda r: r.value),
                case(f"slice cover {name}", lambda t=t: sk.asymptotic_slice_rank(t, xi, cfg), lambda r: r.value),
                case(f"minimax linf {name}", lambda t=t: sk.minimax_gap(t, optim.MaxInfNorm(alpha), cfg),
                     lambda r: r.rhs),
                case(f"g_stable {name}", lambda t=t: sk.g_stable_rank(t, alpha, cfg), lambda r: r.value)]
        if len(set(t.dims)) == 1:
            out.append(case(f"symmetric {name}", lambda t=t: sk.symmetric_support_functional(t, cfg),
                            lambda r: r.value, (functionals, "min_convex_over_support")))
    skew = np.zeros((3, 3, 3), dtype=complex)
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        skew[k][i, j], skew[k][j, i] = 1, -1
    rng = np.random.default_rng(5)
    pencils = {"skew3": skew, "rand4x2": rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))}
    for name, m in pencils.items():
        out.append(case(f"ncrank_fr {name}", lambda a=sk.MatrixTuple(m): sk.ncrank_fr(a), lambda r: r[0],
                        (ranks, "bipartite_vertex_cover")))
    return ("bases", "search_cpu_s"), out


@layer
def exact_cover(seed, workdir):
    return ("nodes",), [
        lib_case(job, lambda r: {"nodes": r.nodes, "lower_bound": r.lower_bound, "value": r.value})
        for job in jobs("covers", seed, workdir, "vertex_cover ")
    ]


@layer
def functional(seed, workdir):
    probes = ((functionals, "entropic_scaling",
               lambda r, a: {"scaling_calls": 1, "scaling_iters": r[1].iterations}),
              (functionals, "minimize_over_moment_polytope",
               lambda r, a: {"descent_iters": r.iterations, "descent_stop": r.stop}))
    keys = ("exit", "verdict", "lower_end", "value", "bits", "bracket", "lhs", "rhs")
    return ("scaling_calls", "scaling_iters", "descent_iters"), [
        cli_case(job, keys, probes)
        for job in jobs("functionals", seed, workdir, ("functional quantum", "functional support", "check-minimax"))
    ]


@layer
def slice_route(seed, workdir):
    probes = [(cli, "asymptotic_slice_rank", lambda r, a: {
                  "theta_bracket": list(r.details["theta_bracket"]), "scaling_runs": r.details["scaling_runs"]}),
              (ranks, "_slice_rank_theta_route", lambda r, a: {"cuts": r[2]})]
    for m in (ranks, functionals):
        probes.append((m, "entropic_scaling",
                       lambda r, a: {"scaling_calls": 1, "scaling_iterations": r[1].iterations}))
    for m in (ranks, optim):
        probes.append((m, "kelley_master", lambda r, a: {"masters": 1, "master_pivots": r.iterations}))
        probes.append((m, "max_min_weighted_entropy_witness", lambda r, a: {"max_min_calls": 1}))
    out = []
    for job in jobs("slice_rank", seed, workdir, "rank slice "):
        label = job.name.split()[-1]
        for xi in ("1,1,1", "1,1/2,1", "1,1,0"):
            argv = ["rank", "slice", str(workdir / "slice_rank" / f"{label}.json"), "--xi", xi]
            run = workloads.cli_job(f"{label} xi={xi}", argv + workloads.CLI_COMMON, lambda payload: None)
            out.append(cli_case(run, ("exit", "status", "notes", "value"), tuple(probes)))
    return ("cuts", "scaling_runs", "scaling_calls", "scaling_iterations", "max_min_calls", "masters",
            "master_pivots"), out


@layer
def moment_route(seed, workdir):
    # ncrank descends through the name in ranks, g_stable_rank through the
    # one in functionals
    probes = tuple((m, "minimize_over_moment_polytope",
                    lambda r, a: {"descent_iters": r.iterations, "stop": r.stop, "converged": r.converged})
                   for m in (ranks, functionals))

    def fields(rep):
        certificate = rep.details.get("moment_certificate")
        return {**({"stop": certificate, "converged": True} if certificate else {}),
                "route": rep.details["moment_raw"] if rep.quantity == "ncrank" else rep.routes["moment_linf"],
                "value": rep.value, "gap": rep.gap, "status": rep.status}

    return ("descent_iters",), [lib_case(job, fields, probes)
                                for job in jobs("covers", seed, workdir, ("g_stable_rank ", "ncrank "))]


@layer
def cover_lp(seed, workdir):
    probes = ((hypergraphs, "solve_lp", lambda r, a: {"lp_rows": a[0].n_rows, "highs_iterations": r.iterations}),)
    return ("lp_rows", "highs_iterations"), [
        lib_case(job, lambda r: {"gap": r.lp_duality_gap, "value": r.value}, probes)
        for job in jobs("covers", seed, workdir, "fractional_vertex_cover ")
    ]


@layer
def matching(seed, workdir):
    probes = ((sk, "bipartite_vertex_cover", lambda r, a: {"edges": len(a[0].edges), "matching": len(r.matching)}),)
    return ("edges", "matching"), [lib_case(job, lambda r: {"value": r.value}, probes)
                                   for job in jobs("covers", seed, workdir, "bipartite_vertex_cover ")]


# ---------------------------------------------------------------------------


def cell(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(map(cell, value)) + "]"
    return f"{value:.10g}" if isinstance(value, float) else "-" if value is None else str(value)


def print_table(name: str, rows: list[dict]) -> None:
    columns = list(dict.fromkeys(k for row in rows for k in row))
    table = [columns] + [[cell(row.get(c)) for c in columns] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    print(f"\n{name} ({len(rows)} cases)")
    for line in table:
        print("  ".join(v.ljust(w) if i == 0 else v.rjust(w) for i, (v, w) in enumerate(zip(line, widths))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1, help="the perfbench workload seed")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    load(args.src)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in LAYERS.items():
            counts, cases = build(args.seed, Path(tmp))
            out[name] = [timed(case, counts, args.repeats) for case in cases]
            if not args.json:
                print_table(name, out[name])
    if args.json:
        print(json.dumps({"seed": args.seed, "repeats": args.repeats, "layers": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
