"""Batch command-line front end.

Subcommands:

* ``functional {quantum,support,symmetric}``: spectral functionals of a
  tensor loaded from JSON, certificate JSON out;
* ``rank {slice,gstable,ncrank}``: rank reports with per-route values;
* ``check-minimax``: compare both sides of the minimax identity for a
  built-in objective.

Exit codes: 0 converged / in-tolerance (and ``--help``), 1 input error
(also an argparse usage error, such as an unknown flag), 2 finished without
convergence (result still printed) or a solver failure or size cap on valid
input (one ``error:`` line, no result), 3 route disagreement above threshold
or an inverted bracket (a scaling iterate above the exact-support bound by
more than the bracket width; result printed, one ``error:`` line).
All randomness is derived from --seed (default: $SPECTRUMKIT_SEED, else 0),
so equal invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import serialize
from .functionals import (
    FunctionalCertificate,
    SearchConfig,
    bracket_width,
    minimax_gap,
    quantum_functional,
    support_functional,
    symmetric_quantum_functional,
)
from .hypergraphs import ResourceLimitError
from .linprog import LpError
from .optim import L1FromUniform, MaxInfNorm, NegWeightedEntropy, ThetaWeights
from .ranks import ROUTE_TOL, asymptotic_slice_rank, g_stable_rank, ncrank
from .tensors import InvalidArgumentError, Tensor

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_DISAGREE = 3


def _parse_weights(text: str, d: int | None, role: str) -> ThetaWeights:
    """Parse comma-separated rationals like ``1/3,1/3,1/3``."""
    try:
        vals = [float(Fraction(part.strip())) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidArgumentError(f"cannot parse weights {text!r}: {e}")
    if d is not None and len(vals) != d:
        raise InvalidArgumentError(f"expected {d} weights, got {len(vals)} in {text!r}")
    arr = np.array(vals, dtype=float)
    if role == "theta":
        if abs(arr.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError(f"theta weights must sum to 1, got {arr.sum()!r}")
        return ThetaWeights.theta(arr)
    if role == "xi":
        return ThetaWeights.xi(arr)
    return ThetaWeights.alpha(arr)


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise InvalidArgumentError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise InvalidArgumentError(f"malformed JSON in {path}: {e}")


def _emit(args, payload: dict, table_lines: list[str]) -> None:
    if args.format == "json":
        text = serialize.dumps(payload)
    else:
        text = "\n".join(table_lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _seed(args) -> int:
    """--seed, else $SPECTRUMKIT_SEED as it is at this call, else 0."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("SPECTRUMKIT_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"SPECTRUMKIT_SEED must be an integer, got {text!r}")


def _config(args) -> SearchConfig:
    return SearchConfig(
        seed=_seed(args),
        eta=args.eta,
        inner_tol=args.tol,
    )


def _inverted(cert: FunctionalCertificate, cfg: SearchConfig) -> bool:
    """A scaling iterate above the exact-support bound by more than the
    bracket width is no value: one of the two sides is wrong.  Says so on
    stderr."""
    if cert.bracket is None:
        return False
    lo, hi = cert.bracket
    if lo <= hi + bracket_width(cfg.inner_tol):
        return False
    sys.stderr.write(f"error: inverted bracket: scaling iterate {lo!r} bits "
                     f"above the exact-support bound {hi!r} bits\n")
    return True


def _cmd_functional(args) -> int:
    obj = _load_json(args.tensor)
    t = serialize.tensor_from_json_dict(obj)
    if t.is_zero():
        raise InvalidArgumentError("the zero tensor has no functional values")
    cfg = _config(args)
    if args.kind == "quantum":
        theta = _parse_weights(args.theta, t.order, "theta")
        cert = quantum_functional(t, theta, inner_tol=cfg.inner_tol)
    elif args.kind == "support":
        theta = _parse_weights(args.theta, t.order, "theta")
        cert = support_functional(t, theta, cfg)
    else:
        cert = symmetric_quantum_functional(t)
    payload = serialize.certificate_to_json_dict(cert)
    lines = [
        f"{args.kind} functional",
        f"  value      {cert.value:.10g}",
        f"  bits       {cert.bits:.10g}",
        f"  converged  {cert.converged}",
    ]
    if cert.gap is not None:
        lines.append(f"  gap        {cert.gap:.3e}")
    if cert.bracket is not None:
        lines.append(f"  bracket    [{cert.bracket[0]:.10g}, {cert.bracket[1]:.10g}] bits")
        lines.append(f"  lower end  {cert.lower_end}")
    _emit(args, payload, lines)
    if _inverted(cert, cfg):
        return EXIT_DISAGREE
    return EXIT_OK if cert.converged else EXIT_NOT_CONVERGED


def _cmd_rank(args) -> int:
    obj = _load_json(args.input)
    cfg = _config(args)
    if args.kind == "ncrank":
        a = serialize.matrix_tuple_from_json_dict(obj)
        rep = ncrank(a, cfg)
        threshold = 0.5
    else:
        t = serialize.tensor_from_json_dict(obj)
        if t.is_zero():
            raise InvalidArgumentError("the zero tensor has no rank values")
        if args.kind == "slice":
            xi = (
                _parse_weights(args.xi, t.order, "xi")
                if args.xi
                else ThetaWeights.xi(np.ones(t.order))
            )
            rep = asymptotic_slice_rank(t, xi, cfg)
        else:
            alpha = (
                _parse_weights(args.alpha, t.order, "alpha")
                if args.alpha
                else ThetaWeights.alpha(np.ones(t.order))
            )
            rep = g_stable_rank(t, alpha, cfg, route_tol=args.route_tol)
            if args.dump_lp:
                from .hypergraphs import build_cover_lp, hypergraph_of

                lp = build_cover_lp(hypergraph_of(t, cfg.eta), alpha)
                with open(args.dump_lp, "w") as f:
                    f.write(serialize.dumps(lp.to_json_dict()))
        threshold = args.route_tol
    payload = serialize.rank_report_to_json_dict(rep)
    lines = [f"{rep.quantity}", f"  value  {rep.value:.10g}"]
    for name, val in sorted(rep.routes.items()):
        lines.append(f"  route {name:<22} {val:.10g}")
    lines.append(f"  gap    {rep.gap:.3e}")
    lines.append(f"  status {rep.status}")
    for note in rep.notes:
        lines.append(f"  note   {note}")
    _emit(args, payload, lines)
    return EXIT_DISAGREE if rep.gap > threshold else EXIT_OK


def _parse_objective(spec: str, d: int):
    if spec.startswith("neg-entropy"):
        _, _, rest = spec.partition(":")
        theta = (
            _parse_weights(rest, d, "theta")
            if rest
            else ThetaWeights.uniform(d)
        )
        return NegWeightedEntropy(theta)
    if spec.startswith("linf"):
        _, _, rest = spec.partition(":")
        alpha = (
            _parse_weights(rest, d, "alpha")
            if rest
            else ThetaWeights.alpha(np.ones(d))
        )
        return MaxInfNorm(alpha)
    if spec == "l1-uniform":
        return L1FromUniform()
    raise InvalidArgumentError(
        f"unknown objective {spec!r}; use neg-entropy[:theta], linf[:alpha], or l1-uniform"
    )


def _cmd_check_minimax(args) -> int:
    obj = _load_json(args.tensor)
    t = serialize.tensor_from_json_dict(obj)
    if t.is_zero():
        raise InvalidArgumentError("the zero tensor has no minimax values")
    cfg = _config(args)
    objective = _parse_objective(args.objective, t.order)
    rep = minimax_gap(t, objective, cfg)
    payload = serialize.minimax_to_json_dict(rep)
    lines = [
        "minimax check",
        f"  lhs  {rep.lhs:.10g}",
        f"  rhs  {rep.rhs:.10g}",
        f"  gap  {rep.gap:.3e}",
    ]
    _emit(args, payload, lines)
    if _inverted(rep.lhs_certificate, cfg):
        return EXIT_DISAGREE
    return EXIT_OK if abs(rep.gap) <= args.bound else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrumkit",
        description="Tensor spectral functionals, covers, and noncommutative rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--eta", type=float, default=1e-9, help="relative support threshold")
        p.add_argument("--seed", type=int, default=None,
                       help="seed of the random blow-ups of rank ncrank (default: "
                            "$SPECTRUMKIT_SEED, else 0); basis searches score the "
                            "identity and the marginal eigenbasis, with no draws")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="support-program tolerance in bits; cold scaling runs stop "
                            "once their bracket is 10 times this wide")
        p.add_argument("--jobs", type=int, default=1,
                       help="ignored; basis candidates are scored one after another")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("functional", help="quantum / support / symmetric functional")
    p.add_argument("kind", choices=("quantum", "support", "symmetric"))
    p.add_argument("tensor", help="tensor JSON file")
    p.add_argument("--theta", type=str, default=None, help="comma-separated rationals summing to 1")
    common(p)
    p.set_defaults(func=_cmd_functional)

    p = sub.add_parser("rank", help="slice / gstable / ncrank reports")
    p.add_argument("kind", choices=("slice", "gstable", "ncrank"))
    p.add_argument("input", help="tensor or matrix-tuple JSON file")
    p.add_argument("--xi", type=str, default=None, help="cover weights (slice)")
    p.add_argument("--alpha", type=str, default=None, help="cover weights (gstable)")
    p.add_argument("--route-tol", type=float, default=ROUTE_TOL, dest="route_tol")
    p.add_argument("--dump-lp", type=str, default=None, dest="dump_lp",
                   help="write the identity-basis cover LP as debug JSON (gstable)")
    common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("check-minimax", help="compare both sides of the minimax identity")
    p.add_argument("tensor", help="tensor JSON file")
    p.add_argument("--objective", type=str, required=True,
                   help="neg-entropy[:theta] | linf[:alpha] | l1-uniform")
    p.add_argument("--bound", type=float, default=1e-3)
    common(p)
    p.set_defaults(func=_cmd_check_minimax)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and reused by every
    later call in the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed its usage error (exit 2) or the --help text (exit 0)
        return EXIT_OK if e.code == 0 else EXIT_INPUT
    if args.command == "functional" and args.kind != "symmetric" and not args.theta:
        sys.stderr.write("error: --theta is required for this functional\n")
        return EXIT_INPUT
    try:
        return args.func(args)
    except InvalidArgumentError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT
    except (LpError, ResourceLimitError) as e:
        # a solver failed or a size cap was hit on valid input: no result
        sys.stderr.write(f"error: {e}\n")
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
