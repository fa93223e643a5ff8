"""JSON formats for tensors, matrix tuples, hypergraphs, and result records.

Indices are 1-based in files; complex numbers are {"re": .., "im": ..} pairs
or [re, im] arrays depending on the record (documented per format).  Dumps
are key-sorted with indent 2, so equal inputs give byte-identical output.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .functionals import FunctionalCertificate, MinimaxReport
from .hypergraphs import Hypergraph
from .ranks import RankReport
from .tensors import InvalidArgumentError, MatrixTuple, Tensor


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidArgumentError(msg)


# ---------------------------------------------------------------------------
# tensors: {"dims": [...], "entries": [{"idx": [...], "re": x, "im": y}, ...]}


def tensor_to_json_dict(t: Tensor, eta: float = 0.0) -> dict:
    mags = np.abs(t.entries)
    cut = eta * mags.max() if (eta > 0 and mags.size) else 0.0
    entries = []
    for idx in np.argwhere(mags > cut):
        z = t.entries[tuple(idx)]
        entries.append(
            {"idx": [int(i) + 1 for i in idx], "re": float(z.real), "im": float(z.imag)}
        )
    return {"dims": [int(n) for n in t.dims], "entries": entries}


def tensor_from_json_dict(obj: dict) -> Tensor:
    _require(isinstance(obj, dict), "tensor JSON must be an object")
    _require("dims" in obj, "tensor JSON lacks the field 'dims'")
    dims = obj["dims"]
    _require(
        isinstance(dims, list) and len(dims) >= 2 and all(isinstance(n, int) and n >= 1 for n in dims),
        "field 'dims' must be a list of >= 2 positive integers",
    )
    _require("entries" in obj, "tensor JSON lacks the field 'entries'")
    arr = np.zeros(tuple(dims), dtype=complex)
    for k, ent in enumerate(obj["entries"]):
        _require(isinstance(ent, dict) and "idx" in ent, f"entries[{k}] lacks the field 'idx'")
        idx = ent["idx"]
        _require(
            isinstance(idx, list) and len(idx) == len(dims),
            f"entries[{k}].idx must list one index per leg",
        )
        for j, (i, n) in enumerate(zip(idx, dims)):
            _require(
                isinstance(i, int) and 1 <= i <= n,
                f"entries[{k}].idx[{j}] = {i} out of range 1..{n}",
            )
        re = ent.get("re", 0.0)
        im = ent.get("im", 0.0)
        _require(
            isinstance(re, (int, float)) and isinstance(im, (int, float)),
            f"entries[{k}] re/im must be numbers",
        )
        arr[tuple(i - 1 for i in idx)] = complex(re, im)
    return Tensor(arr)


# ---------------------------------------------------------------------------
# matrix tuples: {"n": 3, "mats": [[[ [re, im], ... ] per row] per matrix]}


def matrix_tuple_to_json_dict(a: MatrixTuple) -> dict:
    mats = [
        [[[float(z.real), float(z.imag)] for z in row] for row in m]
        for m in a.mats
    ]
    return {"n": int(a.n), "mats": mats}


def matrix_tuple_from_json_dict(obj: dict) -> MatrixTuple:
    _require(isinstance(obj, dict), "matrix tuple JSON must be an object")
    _require("n" in obj and isinstance(obj["n"], int) and obj["n"] >= 1, "field 'n' must be a positive integer")
    _require("mats" in obj and isinstance(obj["mats"], list) and obj["mats"], "field 'mats' must be a nonempty list")
    n = obj["n"]
    out = []
    for k, m in enumerate(obj["mats"]):
        _require(isinstance(m, list) and len(m) == n, f"mats[{k}] must have {n} rows")
        rows = []
        for i, row in enumerate(m):
            _require(isinstance(row, list) and len(row) == n, f"mats[{k}][{i}] must have {n} entries")
            vals = []
            for j, z in enumerate(row):
                _require(
                    isinstance(z, list) and len(z) == 2 and all(isinstance(x, (int, float)) for x in z),
                    f"mats[{k}][{i}][{j}] must be an [re, im] pair",
                )
                vals.append(complex(z[0], z[1]))
            rows.append(vals)
        out.append(rows)
    return MatrixTuple(np.array(out, dtype=complex))


# ---------------------------------------------------------------------------
# hypergraphs: {"parts": [...], "edges": [[...], ...]} (1-based)


def hypergraph_to_json_dict(h: Hypergraph) -> dict:
    return {
        "parts": [int(n) for n in h.parts],
        "edges": [[int(i) + 1 for i in e] for e in h.edges],
    }


def hypergraph_from_json_dict(obj: dict) -> Hypergraph:
    _require(isinstance(obj, dict), "hypergraph JSON must be an object")
    _require("parts" in obj, "hypergraph JSON lacks the field 'parts'")
    _require("edges" in obj, "hypergraph JSON lacks the field 'edges'")
    parts = obj["parts"]
    edges = [tuple(int(i) - 1 for i in e) for e in obj["edges"]]
    return Hypergraph(tuple(parts), tuple(edges))


# ---------------------------------------------------------------------------
# result records


def _complex_matrix_list(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def certificate_to_json_dict(cert: FunctionalCertificate) -> dict:
    out: dict[str, Any] = {
        "value": float(cert.value),
        "bits": float(cert.bits),
        "converged": bool(cert.converged),
        "witness": {"marginals": [[float(x) for x in p] for p in cert.witness.probs]},
    }
    out["theta"] = [float(x) for x in cert.theta] if cert.theta is not None else None
    out["group"] = (
        [_complex_matrix_list(f) for f in cert.group_factors]
        if cert.group_factors is not None
        else None
    )
    out["gap"] = float(cert.gap) if cert.gap is not None else None
    out["bracket"] = [float(x) for x in cert.bracket] if cert.bracket is not None else None
    out["lower_end"] = cert.lower_end
    return out


def minimax_to_json_dict(rep: MinimaxReport) -> dict:
    return {
        "lhs": float(rep.lhs),
        "rhs": float(rep.rhs),
        "gap": float(rep.gap),
        "converged": bool(rep.converged),
    }


def rank_report_to_json_dict(rep: RankReport) -> dict:
    out = rep.to_json_dict()
    if rep.quantity == "ncrank" and "moment_raw" in rep.details:
        out["routes"] = dict(out["routes"])
        out["routes"]["moment_l1"] = {
            "raw": float(rep.details["moment_raw"]),
            "rounded": int(rep.routes["moment_l1"]),
        }
    return out


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
