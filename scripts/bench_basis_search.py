#!/usr/bin/env python3
"""Time the basis searches: the support functional, the slice-rank and
G-stable cover routes, the minimax check, the symmetric support functional
and the matrix-pair search of ``ncrank_fr``.

Usage: python3 scripts/bench_basis_search.py [--repeats N] [--src DIR] [--json]

Each case is one library call at ``SearchConfig()``, the command line's
defaults (``ncrank_fr`` at its own default), on a named tensor or matrix
tuple.  It prints the bases scored, the CPU seconds of the basis search
(from the first candidate drawn to the end of the scan), the CPU seconds of
the whole call, which adds the independent route (scaling, cutting planes
or moment descent), and a digest of the result; times are
medians over ``--repeats`` runs, after one untimed run of every case that
pays for scipy's lazy imports.  The bases are counted by wrapping
``unitary_candidates`` where the searches call it, or, for the two searches
that draw their own candidates and are the whole call, the function that
scores each candidate once; so the numbers mean the same on a checkout
whose searches score every candidate.  The digest hashes every value,
array and basis of the result except the counts of bases scored, so two
checkouts whose searches pick the same bases print the same digests.
``--src`` runs the same cases against another checkout's ``src``
directory.
``--json`` prints one JSON object in place of the table.  BLAS is pinned to
one thread.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

#: result fields that count the bases scored; not every checkout reports them
COUNTS = {"bases_scored", "pairs_scored", "cover_bases"}


def _feed(h, x) -> None:
    if dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        for k in sorted(set(x) - COUNTS):
            h.update(str(k).encode())
            _feed(h, x[k])
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for y in x:
            _feed(h, y)
        h.update(b"]")
    elif isinstance(x, np.ndarray):
        h.update(repr((x.dtype.str, x.shape)).encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif x is None or isinstance(x, (bool, int, float, str, np.generic)):
        h.update(repr(x).encode())
    else:
        raise TypeError(f"cannot digest {type(x).__name__}")


def digest(result) -> str:
    """A sha256 prefix of ``result`` without its counts of bases scored."""
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()[:16]


class SearchProbe:
    """Counts the candidates a search draws and the CPU time it spends on
    them, by standing in for ``unitary_candidates``."""

    def __init__(self, candidates):
        self.candidates = candidates
        self.bases = 0
        self.search_s = 0.0

    def __call__(self, t, *cfg):  # a checkout with Haar restarts also passes its config
        start = time.process_time()
        try:
            for u in self.candidates(t, *cfg):
                self.bases += 1
                yield u
        finally:  # exhausted, or closed when the search stops early
            self.search_s += time.process_time() - start


class CallCounter:
    """Counts the calls of a function that scores each candidate once."""

    def __init__(self, func):
        self.func = func
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.func(*args, **kwargs)


def cases(sk):
    """(name, call, scorer) for every case: ``scorer`` is None for a search
    over ``unitary_candidates``, else the (module, name) of the function
    that scores each candidate of a search that is the whole call."""
    from spectrumkit import functionals, ranks
    from spectrumkit.optim import MaxInfNorm, ThetaWeights
    from spectrumkit.tensors import Tensor, direct_sum, random_tensor

    w = sk.w_tensor()
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    tensors = {
        "W": w,
        "matmul222": sk.matmul_tensor(2, 2, 2),
        "unit2+unit1": direct_sum(sk.make_unit(2, 3), sk.make_unit(1, 3)),
        "rand234": random_tensor((2, 3, 4), np.random.default_rng(0)),
        # W under a Gaussian GL element: no candidate meets the bound
        "GL.W": Tensor(np.einsum("ai,bj,ck,ijk->abc", *mats, w.entries)),
    }
    cfg = sk.SearchConfig()
    theta = ThetaWeights.uniform(3)
    xi = ThetaWeights.xi([1, 1, 1])
    alpha = ThetaWeights.alpha([1, 1, 1])
    linf = MaxInfNorm(alpha)
    symmetric = (functionals, "min_convex_over_support")
    out = []
    for name, t in tensors.items():
        out.append((f"support {name}", lambda t=t: sk.support_functional(t, theta, cfg), None))
        out.append((f"slice cover {name}", lambda t=t: sk.asymptotic_slice_rank(t, xi, cfg), None))
        out.append((f"minimax linf {name}", lambda t=t: sk.minimax_gap(t, linf, cfg), None))
        out.append((f"g_stable {name}", lambda t=t: sk.g_stable_rank(t, alpha, cfg), None))
        if len(set(t.dims)) == 1:
            out.append((f"symmetric {name}",
                        lambda t=t: sk.symmetric_support_functional(t, cfg), symmetric))
    pencils = {"skew3": np.zeros((3, 3, 3), dtype=complex)}
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        pencils["skew3"][k][i, j], pencils["skew3"][k][j, i] = 1, -1
    rng = np.random.default_rng(5)
    pencils["rand4x2"] = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    for name, m in pencils.items():
        a = sk.MatrixTuple(m)
        out.append((f"ncrank_fr {name}", lambda a=a: sk.ncrank_fr(a),
                    (ranks, "bipartite_vertex_cover")))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import spectrumkit as sk
    from spectrumkit import functionals, ranks

    todo = cases(sk)
    for _, call, _ in todo:
        call()
    rows = []
    for name, call, scorer in todo:
        bases, search, total = [], [], []
        for _ in range(max(1, args.repeats)):
            probe = SearchProbe(functionals.unitary_candidates)
            functionals.unitary_candidates = ranks.unitary_candidates = probe
            if scorer is not None:
                counter = CallCounter(getattr(*scorer))
                setattr(scorer[0], scorer[1], counter)
            try:
                start = time.process_time()
                result = call()
                total.append(time.process_time() - start)
            finally:
                functionals.unitary_candidates = ranks.unitary_candidates = probe.candidates
                if scorer is not None:
                    setattr(scorer[0], scorer[1], counter.func)
            bases.append(probe.bases if scorer is None else counter.calls)
            search.append(probe.search_s if scorer is None else total[-1])
        rows.append({
            "case": name,
            "bases": bases[0],
            "search_cpu_s": round(statistics.median(search), 4),
            "call_cpu_s": round(statistics.median(total), 4),
            "digest": digest(result),
        })
    if args.json:
        print(json.dumps({"repeats": args.repeats, "cases": rows}))
        return 0
    print(f"{'case':28s} {'bases':>5s} {'search_s':>9s} {'call_s':>8s}  digest")
    for r in rows:
        print(f"{r['case']:28s} {r['bases']:5d} {r['search_cpu_s']:9.4f} {r['call_cpu_s']:8.4f}  "
              f"{r['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
