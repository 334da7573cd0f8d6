"""Correctness gate for galiray verify-all reports.

The gate reads a report as parsed JSON, the form the CLI prints, and
re-derives the verdict of every check from its residuals instead of
trusting the report's own `pass` flags.  A check fails when

- it reports `pass` false and is not a documented exception,
- a residual in `max_residual` or `details` is not finite, or
- a residual is not below the tolerance of its family.

A report whose shape is wrong (check count, exception set, seed, summary
counts) fails as a whole: every check it should hold counts as failed.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

# Check-name prefix -> (tolerance key of max_residual, residuals in details).
# A details entry maps a key to a tolerance key; "per_generator" holds one
# {"residual": x} record per generator.  The multiplier max_residual mixes
# four tolerances, so only its four details residuals are held to them.
FAMILIES = (
    ("group_axioms_", "group", {}),
    ("algebra_", "algebra", {}),
    ("cocycle_", "cocycle", {}),
    ("infinitesimal_exponents", "infexp", {}),
    ("unitarity_", "unitarity", {}),
    ("time_zero_", "time_zero", {}),
    ("time_multiplier_", "time_multiplier",
     {"pure_boost_max": "time_multiplier", "general_max": "time_multiplier"}),
    ("multiplier_", None,
     {"max_constancy_spread": "multiplier_spread",
      "max_modulus_error": "multiplier_modulus",
      "max_matched_exponent_residual": "multiplier_match",
      "max_exponent_cocycle_residual": "exponent_cocycle"}),
    ("heisenberg_", "heisenberg", {"per_generator": "heisenberg"}),
    ("initial_conditions_", "initial_condition", {}),
)

MARGIN_FLOOR = 1e-300  # an exact zero residual counts as this, not as -inf


class GateError(RuntimeError):
    """The benchmark cannot trust its own checking: it must stop."""


@dataclass
class GateResult:
    attempted: int
    failed: int
    min_margin_dec: float
    problems: list = field(default_factory=list)


def expected_check_count(cfg, momentum_kinds) -> int:
    """Checks run_suite must emit for cfg: group and algebra per dimension,
    the cocycle cases, the infinitesimal table, four carrier families per
    momentum rep, and Heisenberg plus initial conditions per rep."""
    n_momentum = sum(1 for rep in cfg.reps if rep.kind in momentum_kinds)
    return (3 + 3 + 4 + 2 * len(cfg.t_samples) + 1
            + 4 * n_momentum + 2 * len(cfg.reps))


def _family(name: str):
    for prefix, tol_key, detail_keys in FAMILIES:
        if name.startswith(prefix):
            return tol_key, detail_keys
    raise KeyError(name)


def _residuals(check: dict):
    """(label, value, tolerance key) for every residual the check carries;
    the tolerance key is None where no single tolerance applies."""
    tol_key, detail_keys = _family(check["check"])
    out = [("max_residual", check["max_residual"], tol_key)]
    details = check["details"] if isinstance(check["details"], dict) else {}
    for key, key_tol in detail_keys.items():
        if key == "per_generator":
            for gen, record in details.get(key, {}).items():
                out.append((f"{key}.{gen}", record.get("residual"), key_tol))
        else:
            out.append((key, details.get(key), key_tol))
    return out


def _is_finite_number(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def check_report(report: dict, cfg, tolerances: dict,
                 momentum_kinds) -> GateResult:
    """Gate one parsed report produced for cfg."""
    expected = expected_check_count(cfg, momentum_kinds)
    checks = report.get("checks")
    if not isinstance(checks, list):
        return GateResult(expected, expected, math.nan, ["no check list"])
    shape = []
    if report.get("n_checks") != expected or len(checks) != expected:
        shape.append(f"n_checks {report.get('n_checks')} / "
                     f"{len(checks)} entries, expected {expected}")
    if report.get("seed") != cfg.seed:
        shape.append(f"seed {report.get('seed')}, expected {cfg.seed}")
    documented = {c.get("check") for c in checks
                  if c.get("documented_exception")}
    if documented != set(cfg.expected_divergences):
        shape.append(f"documented exceptions {sorted(documented)}, "
                     f"expected {sorted(cfg.expected_divergences)}")
    n_flagged = sum(1 for c in checks
                    if not c.get("pass") and not c.get("documented_exception"))
    if (report.get("n_failed") != n_flagged
            or report.get("suite_pass") is not (n_flagged == 0)):
        shape.append("summary counts disagree with the check flags")

    failed = 0
    margin = math.inf
    problems = []
    for check in checks:
        is_exception = bool(check.get("documented_exception"))
        bad = []
        if not check.get("pass") and not is_exception:
            bad.append("pass is false")
        try:
            residuals = _residuals(check)
        except (KeyError, TypeError, AttributeError) as exc:
            residuals = []
            bad.append(f"unreadable residuals ({exc!r})")
        for label, value, tol_key in residuals:
            if not _is_finite_number(value):
                bad.append(f"{label} is {value!r}")
                continue
            if is_exception or tol_key is None:
                continue
            tol = float(tolerances[tol_key])
            if not value < tol:
                bad.append(f"{label} {value:.3e} >= {tol_key} tolerance "
                           f"{tol:.0e}")
            margin = min(margin, math.log10(tol / max(value, MARGIN_FLOOR)))
        if (check.get("check") == "infinitesimal_exponents"
                and not is_exception):
            details = check.get("details") or {}
            if (details.get("n_unconverged") != 0
                    or details.get("failing_pairs")):
                bad.append("unconverged or failing basis pairs")
        if bad:
            failed += 1
            problems.append(f"{check.get('check')}: " + "; ".join(bad))
    if shape:
        failed = expected  # none of a malformed report's checks is trusted
    return GateResult(expected, failed, margin, shape + problems)


def deterministic_text(report: dict) -> str:
    """The report without its timestamp, canonically serialized; it must be
    byte-identical for one (config, seed)."""
    body = {k: v for k, v in report.items() if k != "generated_at"}
    return json.dumps(body, indent=2, sort_keys=True)


def negative_control(report: dict, cfg, tolerances: dict, momentum_kinds):
    """Show the gate can fail: each of three single-fault mutants of a clean
    report must register a failure, or GateError is raised.  A report that
    already fails has shown that, and is counted by its caller."""
    if check_report(report, cfg, tolerances, momentum_kinds).failed:
        return
    target = next(c["check"] for c in report["checks"]
                  if not c["documented_exception"]
                  and _family(c["check"])[0] is not None)

    def mutant(edit):
        doc = copy.deepcopy(report)
        check = next(c for c in doc["checks"] if c["check"] == target)
        edit(check)
        return doc

    def nan_residual(check):
        check["max_residual"] = math.nan

    def flip_pass(check):
        check["pass"] = False

    def over_tolerance(check):
        check["max_residual"] = 10.0 * float(
            tolerances[_family(check["check"])[0]])

    for label, edit in (("NaN residual", nan_residual),
                        ("flipped pass", flip_pass),
                        ("residual above tolerance", over_tolerance)):
        result = check_report(mutant(edit), cfg, tolerances, momentum_kinds)
        if result.failed < 1:
            raise GateError(f"gate missed a {label} in {target}")
