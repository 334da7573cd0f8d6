"""Command-line interface: the full verification suite plus focused
single-check subcommands, all emitting JSON."""
from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import sys

import numpy as np

from .cocycles import (_EXPONENTS, DEFAULT_TAU_SEQUENCE, PhaseExponent,
                       evaluate_batch, infinitesimal_exponent_batch)
from .algebra import basis_rows
from .group import element_from_dict, random_element_batch
from .harness import (DEFAULT_TOLERANCES, SuiteConfig, _check_heisenberg,
                      _fails, _finite_positive, _multipliers_pass,
                      _read_json, cocycle_sweep, default_config, load_config,
                      report_json, run_suite)
from .representations import KIND_DIMS, MOMENTUM_KINDS, rep_to_dict
from .states import random_state
from .verify import extract_multiplier_batch, match_exponent_batch

__all__ = ["entry", "main"]


def _print(doc: dict):
    print(report_json(doc))


def _load_pair(path: str, dim: int, seed: int):
    """(r, s) as 1-row batches: from the JSON file, or a seeded draw."""
    if path:
        doc = _read_json(path)
        if not (isinstance(doc, dict) and doc.keys() == {"r", "s"}):
            raise ValueError(f"{path}: expected a JSON object with the "
                             f"elements r and s and no other key")
        return tuple(element_from_dict(doc[key]) for key in "rs")
    pair = random_element_batch(seed, 2, dim)
    return pair[:1], pair[1:]


def _cmd_verify_all(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:  # --seed beats the config's seed
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_suite(cfg)
    _print(report)
    return 0 if report["suite_pass"] else 1


def _cmd_cocycle(args) -> int:
    dim = args.dim or _EXPONENTS[args.name].dims[0]
    xi = PhaseExponent(args.name, dim, gamma=args.gamma, lam=args.lam,
                       S=args.S, a1=args.a1, a2=args.a2, t=args.t)
    worst = cocycle_sweep(xi, args.seed, args.triples, args.scale)
    passed = worst < args.tolerance
    _print({"name": args.name, "params": xi.params(),
            "n_triples": args.triples, "max_residual": worst,
            "pass": passed})
    return 0 if passed else 1


def _cmd_multiplier(args) -> int:
    rep = {r.kind: r for r in SuiteConfig.reps}[args.rep]
    r, s = _load_pair(args.pair, rep.dim, args.seed)
    state = random_state(args.seed + 1, rep.dim)
    # a pair that overflows gives NaN residuals, as a sweep's case does
    with np.errstate(over="ignore", invalid="ignore"):
        rows = extract_multiplier_batch(rep, r, s, args.t, state)
        name, match = match_exponent_batch(rep, r, s, args.t, rows)
    spread, modulus, match = (float(x[0]) for x in (
        rows.constancy_spread, rows.modulus_error, match))
    passed = _multipliers_pass(spread, modulus, match)
    _print({
        "rep": rep_to_dict(rep),
        "t": args.t,
        "omega": complex(rows.omega[0]),
        "constancy_spread": spread,
        "modulus_error": modulus,
        "matched_exponent": {"name": name, "residual": match},
        "pass": passed,
    })
    return 0 if passed else 1


def _cmd_infexp(args) -> int:
    xi = PhaseExponent(args.name, args.dim or _EXPONENTS[args.name].dims[0],
                       gamma=args.gamma)
    value, error, converged = (x[0] for x in infinitesimal_exponent_batch(
        xi, basis_rows([args.x], xi.dim), basis_rows([args.y], xi.dim)))
    _print({
        "name": args.name,
        "x": args.x,
        "y": args.y,
        "gamma": args.gamma,
        "value": float(value),
        "tau_sequence": list(DEFAULT_TAU_SEQUENCE),
        "extrapolation_error": float(error),
        "converged": bool(converged),
    })
    return 0 if converged else 1


def _cmd_heisenberg(args) -> int:
    [entry] = [e for e in _check_heisenberg(default_config())
               if e["rep"] == args.rep]
    _print(entry)
    return 1 if _fails(entry) else 0


def _cmd_action(args) -> int:
    r, s = _load_pair(args.pair, None, 0)
    xi = PhaseExponent("xi_t", r.dim, gamma=args.gamma, t=args.t)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(evaluate_batch(xi, r, s)[0])
    if not math.isfinite(value):
        raise ValueError(f"the exponent xi_t of the pair is not finite: "
                         f"{value}")
    _print({
        "gamma": args.gamma,
        "t": args.t,
        "value": value,
        "multiplier": complex(math.cos(value), math.sin(value)),
    })
    return 0


def _parsed(parse, ok, message: str):
    """argparse type: parse(text) where ok holds of it, else an error that
    says message and names the text."""
    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{message}, got {text!r}")
        return value
    return check


# the number flags: a finite number; a scale, as a config's, or a tolerance;
# a seed, as numpy takes it; a sweep's case count
_finite = _parsed(float, math.isfinite, "expected a finite number")
_positive = _parsed(float, _finite_positive,
                    "expected a finite, positive number")
_seed = _parsed(int, lambda n: n >= 0, "seed must be a non-negative integer")
_count = _parsed(int, lambda n: n >= 1, "expected a positive integer")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galiray",
        description="Verification suite for Galilei ray representations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run the full check suite")
    p.add_argument("--config",
                   help="JSON config file: an object of SuiteConfig fields")
    p.add_argument("--seed", type=_seed, help="override the config's seed")
    p.set_defaults(func=_cmd_verify_all)

    p = sub.add_parser("cocycle", help="residual sweep for one phase exponent")
    p.add_argument("name", choices=sorted(_EXPONENTS))
    p.add_argument("--dim", type=int, choices=(1, 2, 3))
    p.add_argument("--triples", type=_count, default=1000)
    p.add_argument("--seed", type=_seed, default=12345)
    p.add_argument("--scale", type=_positive, default=1.0)
    p.add_argument("--tolerance", type=_positive,
                   default=DEFAULT_TOLERANCES["cocycle"])
    p.add_argument("--gamma", type=_finite, default=1.0)
    p.add_argument("--lam", type=_finite, default=1.0)
    p.add_argument("--S", type=_finite, default=1.0)
    p.add_argument("--a1", type=_finite, default=1.0)
    p.add_argument("--a2", type=_finite, default=1.0)
    p.add_argument("--t", type=_finite, default=0.0)
    p.set_defaults(func=_cmd_cocycle)

    p = sub.add_parser("multiplier", help="extract one multiplier")
    p.add_argument("--rep", required=True, choices=MOMENTUM_KINDS)
    p.add_argument("--t", type=_finite, default=0.0)
    p.add_argument("--pair", help="JSON file with elements r and s")
    p.add_argument("--seed", type=_seed, default=12345)
    p.set_defaults(func=_cmd_multiplier)

    p = sub.add_parser("infexp", help="infinitesimal exponent of a basis pair")
    p.add_argument("name", choices=sorted(_EXPONENTS))
    p.add_argument("--x", required=True, help="basis name, e.g. b1")
    p.add_argument("--y", required=True, help="basis name, e.g. d1")
    p.add_argument("--dim", type=int, choices=(1, 2, 3))
    p.add_argument("--gamma", type=_finite, default=1.0)
    p.set_defaults(func=_cmd_infexp)

    p = sub.add_parser("heisenberg",
                       help="check the Heisenberg law at K = i/hbar")
    p.add_argument("--rep", required=True, choices=tuple(KIND_DIMS))
    p.set_defaults(func=_cmd_heisenberg)

    p = sub.add_parser("action", help="time-extension phase exponent")
    p.add_argument("--gamma", type=_finite, required=True)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--pair", required=True,
                   help="JSON file with elements r and s")
    p.set_defaults(func=_cmd_action)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """The process entry of the `galiray` console script and of `python -m
    galiray.cli`: main on sys.argv, then gc.freeze() once its output is
    written, so that the interpreter's final collection skips its walk over
    every object still alive.  Output, exit codes and atexit handlers are
    unchanged.  An in-process main(argv) never freezes: that would pin the
    caller's garbage for good."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
