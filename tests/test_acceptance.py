"""Acceptance battery: the headline guarantees of the package, each checked
at its pinned tolerance.  Every test prints one line

    ACCEPTANCE <n> [<label>]: PASS|FAIL (<details>)

before asserting; run with `pytest tests/test_acceptance.py -s` to see all
nine lines inline."""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import galiray
from galiray.cocycles import cocycle_residual
from galiray.group import random_element
from galiray.harness import (
    _check_algebra,
    _check_cocycles,
    _check_group_axioms,
    _check_infinitesimal,
    _check_multipliers,
    _check_time_multiplier,
    _check_time_zero,
    _check_unitarity,
    default_config,
)
from galiray.representations import MOMENTUM_KINDS, RepDescriptor
from galiray.verify import heisenberg_fit


def _line(num, label, ok, details=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({details})" if details else ""
    print(f"ACCEPTANCE {num} [{label}]: {status}{extra}")
    return ok


def test_acceptance_1_group_and_algebra_identities():
    # 334 triples per dimension puts both batteries above 1000 triples each
    cfg = default_config(n_triples=1002)
    t0 = time.perf_counter()
    entries = _check_group_axioms(cfg) + _check_algebra(cfg)
    elapsed = time.perf_counter() - t0
    worst = max(e["max_residual"] for e in entries)
    n = sum(e["n_cases"] for e in entries)
    ok = all(e["pass"] for e in entries) and worst < 1e-12 and elapsed < 5.0
    assert _line(1, "group and algebra identities", ok,
                 f"{n} triples, worst={worst:.2e}, {elapsed:.2f}s")


def test_acceptance_2_phase_exponent_cocycle_identities():
    cfg = default_config()  # 1000 triples per exponent case
    entries = _check_cocycles(cfg)
    worst = max(e["max_residual"] for e in entries)
    ok = all(e["pass"] for e in entries) and worst < 1e-10

    # the eta_r variant of the fifth exponent must fail loudly, not quietly
    def broken(r, s):
        vr, ur, etar = r.v[:, 0], r.u[:, 0], r.eta
        vs, us, etas = s.v[:, 0], s.u[:, 0], s.eta
        part1 = ur * vs - us * vr + etar * vr * vs
        part2 = ur * etas - us * etar - etar * etas * vr
        return 0.5 * (part1 + part2)

    rng = np.random.default_rng(67)
    worst_broken = 0.0
    for _ in range(200):
        r, s, q = (random_element(rng, 1) for _ in range(3))
        worst_broken = max(worst_broken, cocycle_residual(broken, r, s, q))
    ok = ok and worst_broken > 1e-3
    assert _line(2, "five phase exponents satisfy the cocycle law", ok,
                 f"{len(entries)} cases x {cfg.n_triples} triples, "
                 f"worst={worst:.1e}; broken variant residual="
                 f"{worst_broken:.3f}")


def test_acceptance_3_infinitesimal_exponent_pattern():
    cfg = default_config()
    t0 = time.perf_counter()
    entry = _check_infinitesimal(cfg)[0]
    elapsed = time.perf_counter() - t0
    ok = (entry["pass"] and entry["max_residual"] < 1e-6
          and entry["details"]["n_unconverged"] == 0 and elapsed < 10.0)
    assert _line(3, "infinitesimal exponent on all basis pairs", ok,
                 f"{entry['n_cases']} pairs, worst={entry['max_residual']:.2e}"
                 f", {elapsed:.2f}s")


def test_acceptance_4_multiplier_extraction():
    cfg = default_config()  # 500 pairs and 60 exponent triples per kind
    entries = _check_multipliers(cfg)
    ok = all(e["pass"] for e in entries)
    spread = modulus = match = cocycle = 0.0
    for e in entries:
        d = e["details"]
        spread = max(spread, d["max_constancy_spread"])
        modulus = max(modulus, d["max_modulus_error"])
        match = max(match, d["max_matched_exponent_residual"])
        cocycle = max(cocycle, d["max_exponent_cocycle_residual"])
    ok = (ok and spread < 1e-9 and modulus < 1e-10 and match < 1e-9
          and cocycle < 1e-8)
    assert _line(4, "multipliers are constant, unimodular, and matched", ok,
                 f"{cfg.n_pairs} pairs/kind, spread={spread:.1e}, "
                 f"modulus={modulus:.1e}, match={match:.1e}, "
                 f"cocycle={cocycle:.1e}")


def test_acceptance_5_time_dependent_multiplier():
    cfg = default_config()  # 200 (r, s, t) cases per kind
    entries = _check_time_multiplier(cfg)
    worst = max(e["max_residual"] for e in entries)
    boost_worst = max(e["details"]["pure_boost_max"] for e in entries)
    ok = all(e["pass"] for e in entries) and worst < 1e-9
    ok = ok and boost_worst < 1e-9
    assert _line(5, "time multiplier ratio equals the action term", ok,
                 f"{cfg.n_time_cases} cases/kind, worst={worst:.1e}, "
                 f"pure boosts={boost_worst:.1e}")


def test_acceptance_6_heisenberg_law():
    # d/dt R_t(X) = K [R(H), R_t(X)] at K = i/hbar, i for the momentum kinds
    cfg = default_config()
    ok = True
    for rep in cfg.reps:
        if rep.kind not in MOMENTUM_KINDS:
            continue
        residuals, time_independent = heisenberg_fit(rep)
        ok = (ok and max(residuals.values()) <= 1e-12
              and all(free for name, free in time_independent.items()
                      if not name.startswith("N")))
    pos = RepDescriptor("position1d", m=1.0, hbar=1.0, force_f=0.5, V0=0.25)
    presiduals, _ = heisenberg_fit(pos)
    # P breaks the law by 2|f|: the sign of its force term
    ok = (ok and presiduals == {"H": 0.0, "P": 1.0, "N": 0.0}
          and "heisenberg_position1d" in cfg.expected_divergences)
    assert _line(6, "Heisenberg law at K=i/hbar, documented position"
                    " divergence", ok,
                 f"momentum residual 0 within 1e-12; position residuals "
                 f"{presiduals}")


def test_acceptance_7_time_zero_matches_the_static_map():
    cfg = default_config()  # 100 cases per kind
    entries = _check_time_zero(cfg)
    worst = max(e["max_residual"] for e in entries)
    ok = all(e["pass"] for e in entries) and worst < 1e-12
    assert _line(7, "t=0 extension reduces to the static representation", ok,
                 f"{cfg.n_time_zero_cases} cases/kind, worst={worst:.1e}")


def test_acceptance_8_unitarity():
    cfg = default_config()  # 100 cases per kind
    entries = _check_unitarity(cfg)
    worst = max(e["max_residual"] for e in entries)
    ok = all(e["pass"] for e in entries) and worst < 1e-9
    assert _line(8, "inner products are preserved", ok,
                 f"{cfg.n_unitarity_cases} cases/kind, worst={worst:.1e}")


def test_acceptance_9_cli_end_to_end():
    exe = shutil.which("galiray")
    cmd = [exe] if exe else [sys.executable, "-m", "galiray.cli"]
    env = dict(os.environ)
    # the child imports the galiray under test, installed or not
    package_root = os.path.dirname(os.path.dirname(galiray.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["verify-all"], capture_output=True,
                          text=True, timeout=120, env=env)
    elapsed = time.perf_counter() - t0
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        report = {}
    ok = (proc.returncode == 0 and report.get("suite_pass") is True
          and report.get("n_failed") == 0
          and report.get("n_documented_exceptions") == 1
          and elapsed < 60.0)
    assert _line(9, "verify-all exits green", ok,
                 f"exit={proc.returncode}, {elapsed:.1f}s, "
                 f"n_checks={report.get('n_checks')}")
