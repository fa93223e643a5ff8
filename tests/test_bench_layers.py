"""The layer bench ``scripts/bench_layers.py`` runs against the current API:
the counted run of the first case of every layer reports that layer's
counts and a finite value, and puts back every function it probed."""

import importlib.util
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_first_case_of_every_layer_reports_its_counts(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "scripts" / "bench_layers.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench.load(str(ROOT / "src"))
    for name, build in bench.LAYERS.items():
        counts, cases = build(1, tmp_path)
        row = bench.counted(cases[0], counts)
        assert set(counts) <= set(row), name
        assert math.isfinite(row["value"]), name
        assert not any(isinstance(getattr(module, attr), bench.Probe) for module, attr, *_ in cases[0].probes)
