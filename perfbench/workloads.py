"""Seeded job lists for the three benchmark workloads, with per-job oracles.

A job is one call a user of spectrumkit makes: ``spectrumkit.cli.main(argv)``
for CLI-shaped jobs, an exported library function otherwise.  ``build``
generates every input from the workload seed, writes the JSON input files
the CLI jobs read, and returns the jobs in the order they run.  Each job
pairs the timed call (``work``) with an untimed ``judge`` that checks the
result against an oracle and serialises it for the determinism digest.

Why each workload exists:

* ``functionals``: the support engine (``optim``) and cold, full-accuracy
  scaling runs (one per support job) share the time.  W at theta=(3/5,2/5,0)
  needs about 10k scaling iterations, so the workload has a latency tail.
  Sparse tensors with 3-8 nonzeros vary the support shapes.
* ``slice_rank``: nearly all time is in ``functionals.entropic_scaling``,
  about 334 loose, warm-started runs per tensor; ``optim`` does little, so
  this workload bypasses support-engine changes.
* ``covers``: cover LPs, branch and bound, bipartite matching, moment
  descent and ncrank; it never calls ``entropic_scaling``, so scaling
  changes should leave it unchanged.  Two jobs are known failures of the
  program and stay in the list so that a fix shows: the cover LP of W^6
  (729 edges) runs into the simplex iteration limit after minutes and is
  stopped by the job deadline, and the matching on the n=3000 path-like
  graph raises ``RecursionError``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import spectrumkit
import spectrumkit.cli
from spectrumkit import serialize
from spectrumkit.hypergraphs import BipartiteGraph
from spectrumkit.tensors import Tensor, random_tensor

WORKLOADS = ("functionals", "slice_rank", "covers")

#: per-job deadline in seconds, far above the slowest passing job of each
#: workload (functionals: W at theta=(3/5,2/5,0), about 4 s; slice_rank: W,
#: about 25 s; covers: g_stable_rank of W x W, about 8 s)
DEADLINE_S = {"functionals": 20.0, "slice_rank": 120.0, "covers": 20.0}

#: rounds per pass: jobs faster than ``run.REPEAT_BELOW_S`` run this many
#: times and their time is the median.  On covers the median job time falls
#: among a few jobs of 0.04-0.2 s whose single runs spread by 15%.  On
#: functionals the extra rounds would add 10-20 s a run, and slice_rank has
#: no job that fast.
REPEATS = {"functionals": 1, "slice_rank": 1, "covers": 3}

F_UNIF_W = 2.0 ** (-(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3))  # 1.8898815748
THETA_GRID = ("1/3,1/3,1/3", "1/2,1/4,1/4", "3/5,2/5,0")
SPARSE_SHAPES = ((3, 2, 2), (3, 3, 2), (2, 2, 2))
SPARSE_PER_CELL = 6  # sparse tensors per (shape, theta) pair
VALUE_TOL = 1e-6
SLICE_TOL = 2e-3
GAP_FLOOR, GAP_CEIL = -1e-3, 2e-3  # accepted support - quantum gap


@dataclass(frozen=True)
class Verdict:
    """``status`` is ok, disagree (routes differ), failed, or wrong (oracle miss)."""

    status: str
    reason: str
    record: str  # serialised result, hashed into the determinism digest


@dataclass(frozen=True)
class Job:
    name: str
    work: Callable[[], Any]
    judge: Callable[[Any], Verdict]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# oracles: each returns None when the value passes, else the reason it fails


def near(value: float, expected: float, tol: float = VALUE_TOL) -> str | None:
    """Relative to |expected| when that exceeds 1, absolute below."""
    if abs(value - expected) <= tol * max(1.0, abs(expected)):
        return None
    return f"value {value!r} != expected {expected!r}"


def within(value: float, lo: float, hi: float) -> str | None:
    if lo - 1e-9 <= value <= hi + 1e-9:
        return None
    return f"value {value!r} outside [{lo!r}, {hi!r}]"


def theta_bound(dims: tuple[int, ...], theta: str) -> float:
    """prod_j n_j^theta_j, the largest value any theta-functional can take."""
    ws = [float(Fraction(p)) for p in theta.split(",")]
    return float(np.prod([n**w for n, w in zip(dims, ws)]))


def support_gap_oracle(gap: float | None) -> str | None:
    """The support functional bounds the quantum one from above."""
    if gap is None:
        return "no support - quantum gap reported"
    if gap < GAP_FLOOR:
        return f"support below quantum by {-gap:.3e}"
    return None


def fractional_cover_oracle(h, alpha: np.ndarray, res, reference: float) -> str | None:
    """Feasible cover and matching, LP duality gap <= 1e-9, and the value of
    an independent LP solve (HiGHS) through the same constraints."""
    if res.lp_duality_gap > 1e-9:
        return f"LP duality gap {res.lp_duality_gap:.3e} > 1e-9"
    for e in h.edges:
        if sum(res.cover.get((j, v), 0.0) for j, v in enumerate(e)) < 1.0 - 1e-9:
            return f"edge {e} is not covered"
    load: dict[tuple[int, int], float] = {}
    for e, y in res.matching.items():
        for j, v in enumerate(e):
            load[(j, v)] = load.get((j, v), 0.0) + y
    if any(w > alpha[j] + 1e-9 for (j, _), w in load.items()):
        return "fractional matching exceeds a vertex weight"
    cover_cost = sum(alpha[j] * u for (j, _), u in res.cover.items())
    return near(res.value, cover_cost, 1e-9) or near(res.value, reference, 1e-7)


def highs_cover_value(h, alpha: np.ndarray) -> float:
    from scipy.optimize import linprog
    from spectrumkit.hypergraphs import build_cover_lp

    lp = build_cover_lp(h, spectrumkit.ThetaWeights.alpha(alpha))
    sol = linprog(lp.objective, A_ub=-lp.lhs, b_ub=-lp.rhs, method="highs")
    return float(sol.fun)


def vertex_cover_oracle(h, xi: np.ndarray, res) -> str | None:
    """The cover covers every edge, uses no zero-weight part, and costs value;
    for 0/1 weights the value also equals an independent ILP optimum."""
    chosen = set(res.cover)
    if any(xi[j] == 0 for j, _ in chosen):
        return "cover uses a part with zero weight"
    for e in h.edges:
        if not any((j, v) in chosen for j, v in enumerate(e)):
            return f"edge {e} is not covered"
    counts = [sum(1 for j, _ in chosen if j == k) for k in range(h.d)]
    cost = sum(c ** (1.0 / xi[j]) for j, c in enumerate(counts) if c > 0)
    problem = near(res.value, cost, 1e-9)
    if problem is None and set(xi.tolist()) <= {0.0, 1.0}:
        problem = near(res.value, ilp_cover_value(h, xi), 1e-9)
    return problem


def ilp_cover_value(h, xi: np.ndarray) -> float:
    from scipy.optimize import Bounds, LinearConstraint, milp

    offsets = np.concatenate([[0], np.cumsum(h.parts)])
    a = np.zeros((h.n_edges, int(offsets[-1])))
    for k, e in enumerate(h.edges):
        for j, v in enumerate(e):
            a[k, offsets[j] + v] = 1.0
    upper = np.concatenate([np.full(n, 1.0 if xi[j] > 0 else 0.0) for j, n in enumerate(h.parts)])
    res = milp(
        np.ones(a.shape[1]),
        constraints=LinearConstraint(a, lb=1.0),
        integrality=np.ones(a.shape[1]),
        bounds=Bounds(0.0, upper),
    )
    return float(res.fun)


def bipartite_cover_oracle(b: BipartiteGraph, res, expected: int | None) -> str | None:
    """Matching size equals cover size, the matching is a matching of b, and
    the cover covers every edge."""
    if len(res.matching) != len(res.cover) or res.value != len(res.cover):
        return f"matching {len(res.matching)} / cover {len(res.cover)} / value {res.value}"
    edges = set(b.edges)
    lefts = [i for i, _ in res.matching]
    rights = [j for _, j in res.matching]
    if not set(res.matching) <= edges or len(set(lefts)) < len(lefts) or len(set(rights)) < len(rights):
        return "matching is not a matching of the graph"
    cover = set(res.cover)
    if any(("L", i) not in cover and ("R", j) not in cover for i, j in b.edges):
        return "cover misses an edge"
    return None if expected is None else near(float(res.value), float(expected), 0.0)


# ---------------------------------------------------------------------------
# job constructors


def cli_job(name: str, argv: list[str], check: Callable[[dict], str | None],
            routes_differ: Callable[[dict], bool] = lambda payload: False) -> Job:
    """A CLI invocation; exit 1/2 or converged=False fail, exit 3 disagrees."""

    def work():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = spectrumkit.cli.main(argv)
        return code, out.getvalue()

    def judge(result) -> Verdict:
        code, text = result
        record = f"exit {code}\n{text}"
        if code in (1, 2):
            return Verdict("failed", f"exit {code}", record)
        payload = json.loads(text)
        if payload.get("converged") is False:
            return Verdict("failed", "converged=False", record)
        problem = check(payload)
        if problem:
            return Verdict("wrong", problem, record)
        if code == 3 or routes_differ(payload):
            return Verdict("disagree", f"exit {code}", record)
        return Verdict("ok", "", record)

    return Job(name, work, judge)


def lib_job(name: str, work: Callable[[], Any], check: Callable[[Any], str | None],
            summary: Callable[[Any], Any], routes_differ: Callable[[Any], bool] = lambda r: False) -> Job:
    """A library call; its summary is serialised for the digest."""

    def judge(result) -> Verdict:
        record = json.dumps(summary(result), sort_keys=True)
        problem = check(result)
        if problem:
            return Verdict("wrong", problem, record)
        if routes_differ(result):
            return Verdict("disagree", "routes differ", record)
        return Verdict("ok", "", record)

    return Job(name, work, judge)


def _write(workdir: Path, name: str, obj: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(serialize.dumps(obj))
    return str(path)


def sparse_patterns() -> list[tuple[tuple[int, ...], np.ndarray]]:
    """A fixed catalogue of sparse supports: SPARSE_PER_CELL per shape with
    3-8 nonzeros each.  The benchmark seed draws the nonzero values only: the
    work of a support job depends mostly on the pattern, and fresh patterns
    per seed made the run time differ by more than machine noise does."""
    rng = np.random.default_rng(20260117)
    out = []
    for dims in SPARSE_SHAPES:
        size = int(np.prod(dims))
        for _ in range(SPARSE_PER_CELL * len(THETA_GRID)):
            nnz = min(int(rng.integers(3, 9)), size)
            out.append((dims, np.sort(rng.choice(size, nnz, replace=False))))
    return out


def sparse_tensor(dims: tuple[int, ...], idx: np.ndarray, rng: np.random.Generator) -> Tensor:
    flat = np.zeros(int(np.prod(dims)), dtype=complex)
    flat[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    return Tensor(flat.reshape(dims))


CLI_COMMON = ["--seed", "0", "--jobs", "1"]


# ---------------------------------------------------------------------------
# workloads


def _corpus(rng: np.random.Generator) -> dict[str, tuple[Tensor, float | None]]:
    """Named tensors with their known value (at every theta), if any."""
    return {
        "W": (spectrumkit.w_tensor(), None),
        "matmul222": (spectrumkit.matmul_tensor(2, 2, 2), 4.0),
        "unit3": (spectrumkit.make_unit(3, 3), 3.0),
        "unit2+unit1": (spectrumkit.direct_sum(spectrumkit.make_unit(2, 3), spectrumkit.make_unit(1, 3)), 3.0),
        "rand222": (random_tensor((2, 2, 2), rng), None),
        "rand234": (random_tensor((2, 3, 4), rng), None),
    }


def functionals_jobs(rng: np.random.Generator, workdir: Path) -> list[Job]:
    jobs: list[Job] = []
    corpus = _corpus(rng)

    def functional_check(label, dims, theta, known):
        def check(payload):
            problem = within(payload["value"], 1.0, theta_bound(dims, theta))
            if problem is None and known is not None:
                problem = near(payload["value"], known)
            if problem is None and label == "W" and theta == THETA_GRID[0]:
                problem = near(payload["value"], F_UNIF_W)
            if problem is None and "gap" in payload and payload["gap"] is not None:
                problem = support_gap_oracle(payload["gap"])
            return problem
        return check

    def gap_differs(payload):
        gap = payload.get("gap")
        return gap is not None and not GAP_FLOOR <= gap <= GAP_CEIL

    files = {label: _write(workdir, label, serialize.tensor_to_json_dict(t)) for label, (t, _) in corpus.items()}
    for label, (t, known) in corpus.items():
        for theta in THETA_GRID:
            for kind in ("quantum", "support"):
                jobs.append(cli_job(
                    f"functional {kind} {label} theta={theta}",
                    ["functional", kind, files[label], "--theta", theta] + CLI_COMMON,
                    functional_check(label, t.dims, theta, known),
                    gap_differs,
                ))

    for k, (dims, idx) in enumerate(sparse_patterns()):
        theta = THETA_GRID[k % len(THETA_GRID)]
        t = sparse_tensor(dims, idx, rng)
        path = _write(workdir, f"sparse{k}", serialize.tensor_to_json_dict(t))
        jobs.append(cli_job(
            f"functional support sparse{k} {dims} theta={theta}",
            ["functional", "support", path, "--theta", theta] + CLI_COMMON,
            functional_check(f"sparse{k}", dims, theta, None),
            gap_differs,
        ))

    square = [label for label, (t, _) in corpus.items() if len(set(t.dims)) == 1]
    for label in square:
        t, known = corpus[label]
        known = F_UNIF_W if label == "W" else known

        def check(payload, n=t.dims[0], known=known):
            problem = within(payload["value"], 1.0, float(n))
            return problem or (near(payload["value"], known) if known is not None else None)

        jobs.append(cli_job(f"functional symmetric {label}",
                            ["functional", "symmetric", files[label]] + CLI_COMMON, check))

    # known minimax values: -log2 F_unif, 1 / G-stable rank, and 0 for
    # tensors with uniform marginals
    known_minimax = {
        ("W", "neg-entropy"): -math.log2(F_UNIF_W), ("W", "linf"): 1 / 1.5,
        ("matmul222", "neg-entropy"): -2.0, ("matmul222", "linf"): 0.25, ("matmul222", "l1-uniform"): 0.0,
        ("unit3", "neg-entropy"): -math.log2(3), ("unit3", "linf"): 1 / 3, ("unit3", "l1-uniform"): 0.0,
    }
    for label in ("W", "matmul222", "unit3", "rand222"):
        for objective in ("neg-entropy", "linf", "l1-uniform"):
            known = known_minimax.get((label, objective))

            def check(payload, known=known):
                if known is None:
                    return None
                return near(payload["lhs"], known, 1e-3) or near(payload["rhs"], known, 1e-3)

            jobs.append(cli_job(f"check-minimax {label} {objective}",
                                ["check-minimax", files[label], "--objective", objective] + CLI_COMMON, check))
    return jobs


def slice_rank_jobs(rng: np.random.Generator, workdir: Path) -> list[Job]:
    tensors = {
        "W": (spectrumkit.w_tensor(), F_UNIF_W),
        "matmul222": (spectrumkit.matmul_tensor(2, 2, 2), 4.0),
        "unit2+unit1": (spectrumkit.direct_sum(spectrumkit.make_unit(2, 3), spectrumkit.make_unit(1, 3)), 3.0),
        "rand234": (random_tensor((2, 3, 4), rng), None),
    }
    jobs = []
    for label, (t, known) in tensors.items():
        path = _write(workdir, label, serialize.tensor_to_json_dict(t))

        def check(payload, known=known, hi=float(min(t.dims))):
            if known is not None:
                return within(payload["value"], known - SLICE_TOL, known + SLICE_TOL)
            return within(payload["value"], 1.0, hi + SLICE_TOL)

        jobs.append(cli_job(f"rank slice {label}", ["rank", "slice", path] + CLI_COMMON, check,
                            lambda payload: payload["status"] == "warn"))
    return jobs


def covers_jobs(rng: np.random.Generator, workdir: Path) -> list[Job]:
    sk = spectrumkit
    jobs: list[Job] = []
    w = sk.w_tensor()

    def w_power(n):
        return sk.kronecker_power(sk.hypergraph_of(w), n)

    def frac_summary(r):
        return {"value": r.value, "gap": r.lp_duality_gap,
                "cover": sorted([list(k), v] for k, v in r.cover.items()),
                "matching": sorted([list(k), v] for k, v in r.matching.items())}

    for n in (3, 4, 5):
        h = w_power(n)
        for alpha in ((1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (0.5, 1.0, 1.5)):
            a = np.array(alpha)
            jobs.append(lib_job(
                f"fractional_vertex_cover W^{n} alpha={alpha}",
                lambda n=n, a=a: sk.fractional_vertex_cover(w_power(n), sk.ThetaWeights.alpha(a)),
                lambda r, h=h, a=a: fractional_cover_oracle(h, a, r, highs_cover_value(h, a)),
                frac_summary,
            ))
    # known failure: the in-package simplex hits its iteration limit
    h6 = w_power(6)
    ones = np.ones(3)
    jobs.append(lib_job(
        "fractional_vertex_cover W^6 alpha=(1.0, 1.0, 1.0)",
        lambda: sk.fractional_vertex_cover(w_power(6), sk.ThetaWeights.alpha(ones)),
        lambda r: fractional_cover_oracle(h6, ones, r, highs_cover_value(h6, ones)),
        frac_summary,
    ))

    for n in (3, 4):
        h = w_power(n)
        for xi in ((1.0, 1.0, 1.0), (1.0, 0.5, 1.0), (1.0, 1.0, 0.0)):
            x = np.array(xi)
            jobs.append(lib_job(
                f"vertex_cover W^{n} xi={xi}",
                lambda n=n, x=x: sk.vertex_cover(w_power(n), sk.ThetaWeights.xi(x)),
                lambda r, h=h, x=x: vertex_cover_oracle(h, x, r),
                lambda r: {"value": r.value, "cover": [list(v) for v in r.cover]},
            ))
            hi = min(float(p) ** (1.0 / xj) for p, xj in zip(h.parts, x) if xj > 0)

            def avc_check(v, n=n, x=x, hi=hi):
                if np.all(x == 1.0):
                    return near(v, F_UNIF_W**n)
                return within(v, 1.0, hi)

            jobs.append(lib_job(
                f"asymptotic_vertex_cover W^{n} xi={xi}",
                lambda n=n, x=x: sk.asymptotic_vertex_cover(w_power(n), sk.ThetaWeights.xi(x)),
                avc_check,
                lambda v: {"value": v},
            ))

    graphs = []
    for n in (100, 800, 3000):  # 3000 is a known failure (RecursionError)
        edges = [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n)]
        graphs.append((f"path n={n}", BipartiteGraph(n, tuple(edges)), n))
    for k in range(4):
        n = int(rng.integers(50, 201))
        m = int(rng.integers(n, 4 * n))
        edges = {(int(i), int(j)) for i, j in zip(rng.integers(0, n, m), rng.integers(0, n, m))}
        graphs.append((f"random{k} n={n}", BipartiteGraph(n, tuple(sorted(edges))), None))
    for label, b, expected in graphs:
        jobs.append(lib_job(
            f"bipartite_vertex_cover {label}",
            lambda b=b: sk.bipartite_vertex_cover(b),
            lambda r, b=b, expected=expected: bipartite_cover_oracle(b, r, expected),
            lambda r: {"value": r.value, "cover": [list(v) for v in r.cover],
                       "matching": [list(e) for e in r.matching]},
        ))

    rank_summary = serialize.rank_report_to_json_dict

    def warn(rep):
        return rep.status == "warn"

    for label, t, known in (
        ("W", w, 1.5),
        ("WxW", sk.tensor_product(w, w), None),
        ("rand334", random_tensor((3, 3, 4), rng), None),
    ):
        def check(rep, known=known, hi=float(min(t.dims))):
            if known is not None:
                return within(rep.value, known - 1e-3, known + 1e-3)
            return within(rep.value, 1.0, hi + 1e-3)

        jobs.append(lib_job(f"g_stable_rank {label}", lambda t=t: sk.g_stable_rank(t), check, rank_summary, warn))

    row_pencil = np.zeros((2, 2, 2), dtype=complex)
    row_pencil[0, 0, 0] = row_pencil[1, 0, 1] = 1.0
    skew = np.zeros((3, 3, 3), dtype=complex)
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        skew[k, i, j], skew[k, j, i] = 1.0, -1.0
    tuples = [("identity3", np.eye(3)[None], 3), ("row_pencil", row_pencil, 1), ("skew3", skew, 3)]
    for k in range(2):
        mats = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
        tuples.append((f"rand663_{k}", mats, 6))
    for label, mats, known in tuples:
        a = sk.MatrixTuple(mats)
        jobs.append(lib_job(
            f"ncrank {label}",
            lambda a=a: sk.ncrank(a),
            lambda rep, known=known: near(rep.value, float(known), 0.0),
            rank_summary,
            warn,
        ))
    return jobs


BUILDERS = {"functionals": functionals_jobs, "slice_rank": slice_rank_jobs, "covers": covers_jobs}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Generate the inputs of ``workload`` from ``seed``; write the JSON input
    files under ``workdir`` and return the jobs in run order."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng, workdir)
