"""Checks of the benchmark itself: oracles, determinism, deadlines, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import run  # noqa: E402
import spectrumkit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    out = {}
    for name in workloads.WORKLOADS:
        for job in workloads.build(name, 7, tmp_path_factory.mktemp(name)):
            out[job.name] = job
    return out


def _edit_cli(result, **changes):
    code, text = result
    payload = json.loads(text)
    payload.update(changes)
    return code, json.dumps(payload)


CLI_PERTURBATIONS = [
    ("functional quantum unit3 theta=1/3,1/3,1/3", {"value": 3.0001}),
    ("functional support unit2+unit1 theta=1/2,1/4,1/4", {"value": 2.9999}),
    ("functional quantum matmul222 theta=3/5,2/5,0", {"value": 4.0001}),
    ("functional quantum W theta=1/3,1/3,1/3", {"value": 1.88989}),
    ("functional support W theta=1/3,1/3,1/3", {"gap": -2e-3}),
    ("functional support rand234 theta=1/2,1/4,1/4", {"gap": -2e-3}),
    ("functional symmetric W", {"value": 1.8899}),
    ("check-minimax unit3 neg-entropy", {"lhs": -1.57}),
    ("check-minimax W neg-entropy", {"rhs": -0.92}),
]


@pytest.mark.parametrize("name,change", CLI_PERTURBATIONS)
def test_cli_oracles_reject_perturbed_values(jobs, name, change):
    job = jobs[name]
    result = job.work()
    assert job.judge(result).status == "ok"
    assert job.judge(_edit_cli(result, **change)).status == "wrong"


def test_support_gap_above_ceiling_is_a_disagreement(jobs):
    job = jobs["functional support rand222 theta=1/3,1/3,1/3"]
    assert job.judge(_edit_cli(job.work(), gap=5e-3)).status == "disagree"


@pytest.mark.parametrize("label,good,bad", [("W", 1.8905, 1.8925), ("matmul222", 4.001, 4.003)])
def test_slice_rank_oracle(jobs, label, good, bad):
    judge = jobs[f"rank slice {label}"].judge
    payload = {"value": good, "status": "ok"}
    assert judge((0, json.dumps(payload))).status == "ok"
    assert judge((0, json.dumps(dict(payload, value=bad)))).status == "wrong"
    assert judge((0, json.dumps(dict(payload, status="warn")))).status == "disagree"
    assert judge((2, json.dumps(payload))).status == "failed"


def _drop_first(mapping_or_tuple):
    if isinstance(mapping_or_tuple, dict):
        return dict(list(mapping_or_tuple.items())[1:])
    return mapping_or_tuple[1:]


LIB_PERTURBATIONS = [
    ("fractional_vertex_cover W^3 alpha=(1.0, 1.0, 1.0)", {"value": 5.000001}),
    ("fractional_vertex_cover W^4 alpha=(0.5, 1.0, 1.5)", {"lp_duality_gap": 1e-8}),
    ("fractional_vertex_cover W^3 alpha=(1.0, 2.0, 1.0)", {"cover": _drop_first}),
    ("vertex_cover W^3 xi=(1.0, 1.0, 1.0)", {"value": 5.0}),
    ("vertex_cover W^3 xi=(1.0, 1.0, 0.0)", {"cover": _drop_first}),
    ("vertex_cover W^3 xi=(1.0, 0.5, 1.0)", {"value": 6.5}),
    ("bipartite_vertex_cover path n=100", {"cover": _drop_first}),
    ("bipartite_vertex_cover path n=800", {"value": 799}),
    ("g_stable_rank W", {"value": 1.502}),
    ("ncrank skew3", {"value": 2.0}),
    ("ncrank row_pencil", {"value": 2.0}),
]


@pytest.mark.parametrize("name,change", LIB_PERTURBATIONS)
def test_library_oracles_reject_perturbed_values(jobs, name, change):
    job = jobs[name]
    result = job.work()
    assert job.judge(result).status == "ok"
    fields = {k: (v(getattr(result, k)) if callable(v) else v) for k, v in change.items()}
    assert job.judge(dataclasses.replace(result, **fields)).status == "wrong"


def test_asymptotic_cover_oracle(jobs):
    job = jobs["asymptotic_vertex_cover W^4 xi=(1.0, 1.0, 1.0)"]
    value = job.work()
    assert job.judge(value).status == "ok"
    assert job.judge(value * (1 + 1e-5)).status == "wrong"


def test_same_seed_gives_same_inputs_and_digests(tmp_path):
    a = workloads.build("functionals", 3, tmp_path / "a")
    b = workloads.build("functionals", 3, tmp_path / "b")
    c = workloads.build("functionals", 4, tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes() for f in files)
    assert [j.name for j in a] == [j.name for j in b]
    picked = [k for k, j in enumerate(a) if "sparse" in j.name][:4]
    for k in picked:
        assert a[k].judge(a[k].work()).record == b[k].judge(b[k].work()).record


def test_deadline_and_exceptions_are_failed_jobs(jobs):
    slow = workloads.Job("sleeper", lambda: time.sleep(5), lambda r: workloads.Verdict("ok", "", ""))
    t0 = time.perf_counter()
    seconds, wall_s, verdict = run.run_job(slow, 0.2)
    assert verdict.status == "failed" and verdict.reason.startswith("deadline")
    assert seconds == 0.2 and wall_s < 1.0 and time.perf_counter() - t0 < 1.0

    seconds, _, verdict = run.run_job(jobs["fractional_vertex_cover W^6 alpha=(1.0, 1.0, 1.0)"], 1.0)
    assert verdict.status == "failed" and verdict.reason.startswith("deadline") and seconds == 1.0

    _, _, verdict = run.run_job(jobs["bipartite_vertex_cover path n=3000"], 20.0)
    assert verdict.status == "failed" and verdict.reason.startswith("RecursionError")


def test_job_time_is_cpu_time_and_excludes_waiting():
    idle = workloads.Job("idle", lambda: time.sleep(0.3), lambda r: workloads.Verdict("ok", "", ""))
    seconds, wall_s, verdict = run.run_job(idle, 5.0)
    assert verdict.status == "ok" and wall_s >= 0.3 and seconds < 0.1


def test_pass_repeats_fast_jobs_and_takes_their_median():
    calls = []

    def job(name, cost):
        def work():
            calls.append(name)
            t_end = time.process_time() + cost
            while time.process_time() < t_end:
                pass
        return workloads.Job(name, work, lambda r: workloads.Verdict("ok", "", name))

    jobs = [job("fast", 0.01), job("slow", run.REPEAT_BELOW_S + 0.05)]
    runs = run.run_pass(jobs, 5.0, 3, lambda line: None)
    assert calls == ["fast", "slow", "fast", "fast"]
    assert [len(r) for r in runs] == [3, 1]
    runs[0] = [(t, v) for t, (_, v) in zip((0.5, 0.001, 0.002), runs[0])]
    metrics = run.end_to_end(runs, 0.5, 10.0)
    assert metrics["jobs_per_s"][0] == pytest.approx(2 / (0.002 + runs[1][0][0]))
    assert metrics["ok_rate"][0] == 1.0


def test_tracer_wraps_every_namespace_and_uninstalls():
    original = spectrumkit.functionals.max_weighted_entropy
    scaling = spectrumkit.functionals.entropic_scaling
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectrumkit.ranks.entropic_scaling is spectrumkit.functionals.entropic_scaling
        assert spectrumkit.functionals.entropic_scaling is not scaling
        cfg = spectrumkit.SearchConfig(restarts=2, nm_budget=0)
        theta = spectrumkit.ThetaWeights.theta([0.5, 0.25, 0.25])
        spectrumkit.support_functional(spectrumkit.w_tensor(), theta, cfg)
    finally:
        tracer.uninstall()
    assert spectrumkit.functionals.entropic_scaling is scaling
    assert spectrumkit.functionals.max_weighted_entropy is original
    metrics = tracing.layer_metrics(tracer, 1.0, 0.0)
    assert metrics["functionals.entropic_scaling.calls"][0] == 1
    # identity, eigenbasis, two restarts, and the re-solve of the winner
    assert metrics["optim.min_convex_over_support.calls"][0] == 5
    assert metrics["tensors.support.calls"][0] == 5
    self_s = tracer.self_times()
    total = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    assert sum(self_s.values()) == pytest.approx(total)


def test_face_polish_solves_count_as_polish_calls(jobs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        jobs["asymptotic_vertex_cover W^4 xi=(1.0, 0.5, 1.0)"].work()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1.0, 0.0)
    assert metrics["optim.min_convex_over_support.calls"][0] == 1
    assert metrics["optim.min_convex_over_support.polish_calls"][0] > 0


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "covers", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_harrell_davis_quantiles():
    assert run.harrell_davis([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    assert run.harrell_davis([2.0] * 7, 0.9) == pytest.approx(2.0)
    times = [0.01] * 10 + [0.05, 0.06] + [1.0] * 10
    assert 0.01 < run.harrell_davis(times, 0.5) < 1.0
    assert run.harrell_davis(times, 0.5) < run.harrell_davis(times, 0.9)
