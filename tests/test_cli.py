import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectrumkit
from conftest import gl_w_tensor, sparse_tensor
from spectrumkit import MatrixTuple, cli, functionals, hypergraphs, make_unit, optim, ranks, w_tensor
from spectrumkit import serialize as ser
from spectrumkit.cli import main
from spectrumkit.linprog import LpError
from spectrumkit.tensors import random_tensor


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, t in (("unit3", make_unit(3, 3)), ("w", w_tensor()), ("unit2", make_unit(2, 3)),
                    ("gl_w", gl_w_tensor()),
                    ("ww", spectrumkit.tensor_product(w_tensor(), w_tensor())),
                    ("rand334", random_tensor((3, 3, 4), np.random.default_rng(0)))):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(ser.tensor_to_json_dict(t)))
        paths[name] = str(p)
    e = np.zeros((2, 2, 2), dtype=complex)
    e[0, 0, 0] = 1.0
    e[1, 0, 1] = 1.0
    p = tmp_path / "row_pencil.json"
    p.write_text(json.dumps(ser.matrix_tuple_to_json_dict(MatrixTuple(e))))
    paths["row_pencil"] = str(p)
    z = tmp_path / "zero.json"
    z.write_text(json.dumps({"dims": [2, 2, 2], "entries": []}))
    paths["zero"] = str(z)
    b = tmp_path / "broken.json"
    b.write_text('{"dims": [2, 2, 2], "entries": [{"idx": [1, 1]}]}')
    paths["broken"] = str(b)
    return paths


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_quantum_unit3(files, capsys):
    code, out = run(capsys, "functional", "quantum", files["unit3"], "--theta", "1/3,1/3,1/3")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 3.0) <= 1e-6
    assert payload["converged"] is True


def test_support_w(files, capsys):
    code, out = run(
        capsys, "functional", "support", files["w"], "--theta", "1/3,1/3,1/3",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 1.8899) <= 1e-3
    assert abs(payload["gap"]) <= 1e-3


def test_zero_tensor_exit_1(files, capsys):
    code, _ = run(capsys, "functional", "quantum", files["zero"], "--theta", "1/3,1/3,1/3")
    assert code == 1


def test_malformed_entry_names_field(files, capsys):
    code = main(["functional", "quantum", files["broken"], "--theta", "1/3,1/3,1/3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "idx" in captured.err


def test_bad_theta_exit_1(files, capsys):
    code, _ = run(capsys, "functional", "quantum", files["unit3"], "--theta", "1/2,1/2,1/2")
    assert code == 1


def test_unknown_flag_exit_1(files, capsys):
    # both flags were deleted; a usage error is an input error, not exit 2
    for flag in ("--nm-budget", "--restarts"):
        code = main(["functional", "support", files["w"], "--theta", "1/2,1/4,1/4", flag, "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err


def _nonfinite_inputs(tmp_path) -> dict:
    paths = {}
    for name, v in (("nan_tensor", float("nan")), ("inf_tensor", float("inf"))):
        entries = [{"idx": [1, 1, 1], "re": v}, {"idx": [2, 2, 2], "re": 1.0}]
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"dims": [2, 2, 2], "entries": entries}))
    paths["nan_tuple"] = tmp_path / "nan_tuple.json"
    paths["nan_tuple"].write_text(json.dumps({"n": 2, "mats": [[[[float("nan"), 0], [0, 0]],
                                                                [[0, 0], [1, 0]]]]}))
    return paths


THIRDS = ("--theta", "1/3,1/3,1/3")


@pytest.mark.parametrize("argv", [
    ("functional", "quantum", "nan_tensor", *THIRDS),
    ("functional", "quantum", "inf_tensor", *THIRDS),
    ("functional", "support", "nan_tensor", *THIRDS),
    ("functional", "symmetric", "nan_tensor"),
    ("functional", "symmetric", "inf_tensor"),
    ("rank", "slice", "nan_tensor"),
    ("rank", "gstable", "inf_tensor"),
    ("rank", "ncrank", "nan_tuple"),
    ("check-minimax", "nan_tensor", "--objective", "linf"),
    ("functional", "quantum", "w", *THIRDS, "--tol", "-1"),
    ("functional", "quantum", "w", *THIRDS, "--tol", "nan"),
    ("functional", "support", "w", *THIRDS, "--tol", "inf"),
    ("rank", "slice", "w", "--tol", "nan"),
    ("rank", "gstable", "w", "--route-tol", "-1"),
    ("rank", "gstable", "w", "--route-tol", "nan"),
    ("check-minimax", "w", "--objective", "linf", "--bound", "-1"),
    ("check-minimax", "w", "--objective", "l1-uniform", "--bound", "nan"),
    ("rank", "ncrank", "row_pencil", "--seed", "-1"),
    ("SPECTRUMKIT_SEED=-1", "rank", "ncrank", "row_pencil"),
    ("functional", "quantum", "w", *THIRDS, "--eta", "nan"),
    ("functional", "support", "w", *THIRDS, "--eta", "inf"),
    ("rank", "gstable", "w", "--eta", "-1"),
], ids=lambda argv: " ".join(argv))
def test_nonfinite_input_and_bad_thresholds_exit_1(argv, files, tmp_path, capsys, monkeypatch):
    # NaN entries used to vanish from the support, a NaN --tol to fail
    # neither bracket test, a NaN --eta to empty the support, and a negative
    # seed to raise in numpy's SeedSequence
    env = dict(a.split("=", 1) for a in argv if "=" in a)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    paths = {**files, **_nonfinite_inputs(tmp_path)}
    code = main([str(paths.get(a, a)) for a in argv if a.split("=")[0] not in env])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    flag = next((a for a in argv if a in ("--eta", "--seed", "--tol", "--route-tol", "--bound")),
                None)
    assert (flag or next(iter(env), "non-finite entries")) in captured.err


def test_tol_0_stays_valid(files, capsys):
    code, out = run(capsys, "functional", "quantum", files["w"], *THIRDS, "--tol", "0")
    assert code == 0 and json.loads(out)["lower_end"] == "scaling"


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: spectrumkit" in capsys.readouterr().out
    assert main(["rank", "--help"]) == 0
    assert "--route-tol" in capsys.readouterr().out


def test_rank_slice_w(files, capsys):
    code, out = run(
        capsys, "rank", "slice", files["w"], "--xi", "1,1,1",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 1.8899) <= 2e-3


def test_rank_ncrank_pencil(files, capsys):
    code, out = run(capsys, "rank", "ncrank", files["row_pencil"])
    assert code == 0
    payload = json.loads(out)
    assert payload["routes"]["fortin_reutenauer"] == 1
    assert payload["routes"]["moment_l1"]["rounded"] == 1


def test_rank_gstable_w(files, capsys):
    code, out = run(capsys, "rank", "gstable", files["w"], "--alpha", "1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 1.5) <= 1e-3


def test_rank_gstable_route_tol_sets_the_descent_stop(files, capsys, monkeypatch):
    # a generic 3x3x4 tensor is neither free nor certified semistable, so its
    # moment route is a descent that runs until it is within --route-tol of
    # the cover LP's 3: a tighter tolerance takes more steps
    steps = []
    descend = ranks.minimize_over_moment_polytope

    def counted(*args, **kwargs):
        res = descend(*args, **kwargs)
        steps.append(res.iterations)
        return res

    monkeypatch.setattr(ranks, "minimize_over_moment_polytope", counted)
    for tol in ("5e-3", "1e-3", "1e-4"):
        code, out = run(capsys, "rank", "gstable", files["rand334"], "--route-tol", tol)
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["value"] - 3.0) <= 1e-9
        assert payload["gap"] <= float(tol)
    assert steps[0] < steps[1] < steps[2] <= 6000
    # a descent cut short leaves the routes further apart than --route-tol:
    # exit 3
    monkeypatch.setattr(ranks, "minimize_over_moment_polytope",
                        lambda *a, **k: descend(*a, **{**k, "max_iter": 3}))
    code, out = run(capsys, "rank", "gstable", files["rand334"], "--route-tol", "1e-4")
    assert code == 3 and json.loads(out)["gap"] > 1e-4


def test_rank_gstable_solver_failure_exit_2(files, capsys, monkeypatch):
    def failing(lp):
        raise LpError("iteration limit reached")

    monkeypatch.setattr(hypergraphs, "solve_lp", failing)
    code = main(["rank", "gstable", files["gl_w"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: iteration limit reached\n"


def test_rank_gstable_size_cap_exit_2(files, capsys, monkeypatch):
    def capped(lp):
        raise hypergraphs.ResourceLimitError("4096^2 edges exceeds the cap 1000000")

    monkeypatch.setattr(hypergraphs, "solve_lp", capped)
    code = main(["rank", "gstable", files["gl_w"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: 4096^2 edges exceeds the cap 1000000\n"


def test_check_minimax_w(files, capsys):
    code, out = run(
        capsys, "check-minimax", files["w"], "--objective", "neg-entropy:1/3,1/3,1/3",
    )
    assert code == 0
    assert abs(json.loads(out)["gap"]) <= 1e-3


def test_check_minimax_w_linf_closed_bracket_converges(files, capsys):
    code, out = run(capsys, "check-minimax", files["w"], "--objective", "linf")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert abs(payload["lhs"] - 2 / 3) <= 1e-6


def test_check_minimax_unit2_linf(files, capsys):
    code, out = run(
        capsys, "check-minimax", files["unit2"], "--objective", "linf:1,1,1",
        "--bound", "1e-6",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lhs"] - 0.5) <= 1e-6
    assert abs(payload["gap"]) <= 1e-6


def test_bracket_in_the_output(files, capsys):
    code, out = run(capsys, "functional", "quantum", files["w"], "--theta", "3/5,2/5,0")
    payload = json.loads(out)
    lo, hi = payload["bracket"]
    assert code == 0 and payload["bits"] == lo
    assert hi == 1.0 and 0.0 <= hi - lo <= 1e-7
    code, out = run(capsys, "functional", "support", files["w"], "--theta", "3/5,2/5,0")
    payload = json.loads(out)
    assert code == 0 and payload["bracket"] == [lo, hi]
    assert lo <= payload["bits"] <= hi
    code, out = run(capsys, "functional", "symmetric", files["w"])
    assert code == 0 and json.loads(out)["bracket"] is None


def test_lower_end_in_the_output(files, capsys):
    code, out = run(capsys, "functional", "quantum", files["w"], "--theta", "3/5,2/5,0")
    payload = json.loads(out)
    assert code == 0 and payload["lower_end"] == "free_support" and payload["group"] is None
    code, out = run(capsys, "functional", "support", files["w"], "--theta", "3/5,2/5,0",
                    "--format", "table")
    assert code == 0 and "  lower end  free_support\n" in out
    code, out = run(capsys, "functional", "symmetric", files["w"])
    assert code == 0 and json.loads(out)["lower_end"] is None


def test_bracket_ordered_up_to_rounding(files, capsys):
    # on unit3 the first iterate lies one ulp above the exact-support bound,
    # which is inside the bracket width, so no inverted-bracket exit
    code, out = run(capsys, "functional", "quantum", files["unit3"], "--theta", "1/3,1/3,1/3")
    lo, hi = json.loads(out)["bracket"]
    assert code == 0
    assert lo <= hi + 1e-7


def test_tol_sets_the_bracket_width(tmp_path, capsys):
    # a sparse 3x3x2 tensor whose run closes its bracket before the residual rule
    p = tmp_path / "sparse.json"
    p.write_text(json.dumps(ser.tensor_to_json_dict(sparse_tensor((3, 3, 2), 8, 5))))
    for tol, width in (("1e-8", 1e-7), ("1e-10", 1e-9)):
        code, out = run(capsys, "functional", "quantum", str(p), "--theta", "3/5,2/5,0", "--tol", tol)
        lo, hi = json.loads(out)["bracket"]
        assert code == 0 and 0.0 <= hi - lo <= width


def test_tol_below_the_residual_rule_on_a_semistable_tensor(tmp_path, capsys):
    # a dense 3x3x2 tensor whose discriminant certifies the rank maximum: the
    # bracket is closed whatever --tol asks, with no scaling run
    p = tmp_path / "dense332.json"
    p.write_text(json.dumps(ser.tensor_to_json_dict(sparse_tensor((3, 3, 2), 18, 1))))
    code, out = run(capsys, "functional", "quantum", str(p), "--theta", "1/3,1/3,1/3", "--tol", "1e-10")
    payload = json.loads(out)
    lo, hi = payload["bracket"]
    assert code == 0 and payload["lower_end"] == "semistable" and hi - lo == 0.0
    assert lo == payload["bits"] and abs(lo - (2 * np.log2(3) + 1) / 3) <= 1e-15


def test_inverted_bracket_exit_3(files, capsys, monkeypatch):
    # an upper bound half a bit too low: every iterate lies above it
    bound = functionals.exact_support_bound

    def low(*args):
        hi, opt = bound(*args)
        return hi - 0.5, opt

    monkeypatch.setattr(functionals, "exact_support_bound", low)
    for argv in (
        ("functional", "quantum", files["w"], "--theta", "3/5,2/5,0"),
        ("functional", "support", files["w"], "--theta", "3/5,2/5,0"),
        ("check-minimax", files["w"], "--objective", "neg-entropy:3/5,2/5,0"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: inverted bracket") and captured.err.count("\n") == 1
        assert captured.out  # the result is still printed


def _moment_raw_above(monkeypatch, shift):
    """``ranks.ncrank_moment`` with its raw value moved up by ``shift`` and
    its rounding kept."""
    moment = ranks.ncrank_moment

    def shifted(*args, **kwargs):
        raw, rounded, res = moment(*args, **kwargs)
        return raw + shift, rounded, res

    monkeypatch.setattr(ranks, "ncrank_moment", shifted)


@pytest.mark.parametrize("argv", [
    ("rank", "slice", "gl_w"),
    ("rank", "gstable", "gl_w"),
    ("rank", "ncrank", "row_pencil"),
    ("rank", "slice", "w", "--xi", "1,1/2,1"),
], ids=lambda argv: " ".join(argv))
def test_rank_warn_exit_3(argv, files, capsys, monkeypatch):
    # GL.W's routes lie further apart than --route-tol; the row pencil's
    # moment raw, 0.3 above its rounding and the cover, and W's theta
    # bracket, left open at 3 cuts, agree with the other routes yet warn,
    # and now exit 3 as well
    if argv[1] == "ncrank":
        _moment_raw_above(monkeypatch, 0.3)
    if "--xi" in argv:
        monkeypatch.setattr(optim, "MAX_MIN_CUTS", 3)
    code = main([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # the result is still printed
    assert code == 3 and payload["status"] == "warn"
    assert captured.err.startswith("error: rank status warn: ") and captured.err.count("\n") == 1
    if argv[1] == "ncrank":
        # the cokernel note informs; the two warnings follow it
        assert payload["gap"] == 0.0
        assert [n.split()[0] for n in payload["notes"]] == ["slices", "moment", "inverted"]
        assert "inverted bracket: moment raw 1.3" in captured.err
    if "--xi" in argv:
        assert "not closed after 3 cuts" in captured.err


def test_rank_slice_route_tol_sets_the_status(files, capsys):
    # GL.W's routes lie 0.11 apart: within --route-tol 1, so the status and
    # the exit code both say ok
    code, out = run(capsys, "rank", "slice", files["gl_w"], "--route-tol", "1")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "ok" and 0.1 <= payload["gap"] <= 1.0
    code, out = run(capsys, "rank", "slice", files["gl_w"])
    assert code == 3 and json.loads(out)["status"] == "warn"


def test_output_deterministic(files, tmp_path, capsys):
    args = [
        "functional", "support", files["w"], "--theta", "1/3,1/3,1/3",
        "--seed", "42",
    ]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_basis_searches_do_not_depend_on_the_seed(tmp_path, capsys):
    # GL.W leaves every bracket open, so each search scores both of its bases
    p = tmp_path / "glw.json"
    p.write_text(json.dumps(ser.tensor_to_json_dict(gl_w_tensor())))
    for args in (["functional", "support", str(p), "--theta", "1/3,1/3,1/3"],
                 ["rank", "gstable", str(p)]):
        _, out0 = run(capsys, *args, "--seed", "0")
        _, out7 = run(capsys, *args, "--seed", "7")
        assert out0 == out7


def test_seed_is_read_per_call_and_the_parser_built_once(files, capsys, monkeypatch):
    builds, seeds = [], []
    build, rank = cli.build_parser, cli.ncrank

    def counted_build():
        builds.append(1)
        return build()

    def seen(a, cfg):
        seeds.append(cfg.seed)
        return rank(a, cfg)

    monkeypatch.setattr(cli, "build_parser", counted_build)
    monkeypatch.setattr(cli, "ncrank", seen)
    cli._parser.cache_clear()
    args = ("rank", "ncrank", files["row_pencil"])
    for env in ("3", "11"):
        monkeypatch.setenv("SPECTRUMKIT_SEED", env)
        assert run(capsys, *args)[0] == 0
    assert run(capsys, *args, "--seed", "5")[0] == 0
    monkeypatch.delenv("SPECTRUMKIT_SEED")
    assert run(capsys, *args)[0] == 0
    assert seeds == [3, 11, 5, 0] and len(builds) == 1
    monkeypatch.setenv("SPECTRUMKIT_SEED", "x")
    assert main(list(args)) == 1
    assert capsys.readouterr().err.startswith("error: SPECTRUMKIT_SEED")


def test_jobs_flag_is_accepted_and_ignored(files, capsys):
    args = ["functional", "support", files["w"], "--theta", "1/3,1/3,1/3"]
    _, out1 = run(capsys, *args)
    code, out2 = run(capsys, *args, "--jobs", "2")
    assert code == 0
    assert out1 == out2


def test_out_file_and_table(files, tmp_path, capsys):
    dest = tmp_path / "res.json"
    code, out = run(
        capsys, "functional", "quantum", files["unit3"], "--theta", "1/3,1/3,1/3",
        "--out", str(dest),
    )
    assert code == 0 and out == ""
    assert abs(json.loads(dest.read_text())["value"] - 3.0) <= 1e-6
    code, out = run(
        capsys, "functional", "quantum", files["unit3"], "--theta", "1/3,1/3,1/3",
        "--format", "table",
    )
    assert code == 0 and "value" in out


def test_eta_flag_changes_support(files, capsys, tmp_path):
    # a tensor with one large and one tiny entry: eta decides the support
    d = {
        "dims": [2, 2, 2],
        "entries": [
            {"idx": [1, 1, 1], "re": 1.0},
            {"idx": [2, 2, 2], "re": 1e-12},
        ],
    }
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(d))
    _, out_default = run(capsys, "functional", "support", str(p), "--theta", "1/3,1/3,1/3")
    _, out_zero = run(
        capsys, "functional", "support", str(p), "--theta", "1/3,1/3,1/3",
        "--eta", "0",
    )
    v_default = json.loads(out_default)["value"]
    v_zero = json.loads(out_zero)["value"]
    assert abs(v_default - 1.0) <= 1e-9  # tiny entry pruned
    assert v_zero >= 1.9  # exact support keeps both diagonal points


def _fresh_process(code: str, *argv: str) -> str:
    src = str(Path(spectrumkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    ).stdout


def test_import_leaves_scipy_solvers_unloaded():
    # every CLI run pays for the import; scipy.optimize alone takes ~0.5 s
    code = (
        "import sys, spectrumkit.cli; "
        "print([m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.linalg') if m in sys.modules])"
    )
    assert _fresh_process(code).strip() == "[]"


#: runs each argv string through ``main`` and prints the exit codes and the
#: scipy modules loaded
_CLI_RUNS = (
    "import contextlib, io, sys\n"
    "from spectrumkit.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    codes = [main(a.split()) for a in sys.argv[1:]]\n"
    "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
)


def test_functional_and_minimax_runs_leave_scipy_unloaded(files):
    # no job of these commands needs scipy, so none pays for its import
    w = files["w"]
    runs = [f"functional quantum {w} --theta 3/5,2/5,0", f"functional quantum {w} --theta 1/2,1/4,1/4",
            f"functional support {w} --theta 3/5,2/5,0", f"functional support {w} --theta 1/3,1/3,1/3"]
    runs += [f"check-minimax {w} --objective {o}" for o in ("linf", "l1-uniform", "neg-entropy")]
    assert _fresh_process(_CLI_RUNS, *runs).strip() == f"{[0] * len(runs)} []"


def test_gstable_runs_on_free_supports_leave_scipy_unloaded(files):
    # on a free support the cover LP of the identity basis is the dual of
    # the inf-norm program that certifies the moment route, so no HiGHS solve
    runs = [f"rank gstable {files['w']}", f"rank gstable {files['ww']}"]
    assert _fresh_process(_CLI_RUNS, *runs).strip() == f"{[0] * len(runs)} []"


def test_slice_rank_runs_leave_scipy_unloaded(files):
    # the Kelley masters of both routes go through the in-package simplex,
    # so no job of these runs needs scipy
    w = files["w"]
    runs = [f"rank slice {w}", f"rank slice {w} --xi 1,1/2,1"]
    assert _fresh_process(_CLI_RUNS, *runs).strip() == f"{[0] * len(runs)} []"
