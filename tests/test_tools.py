"""tools/report_digests.py: the sha256 of a config's deterministic report
text, the report of run_suite without its generated_at timestamp."""

import copy
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from galiray import harness
from galiray.harness import (DEFAULT_TOLERANCES, config_to_dict,
                             default_config, run_suite)
from galiray.representations import MOMENTUM_KINDS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def test_report_digests_hashes_the_report_without_its_timestamp(tmp_path):
    cfg = default_config(seed=3, n_triples=6, n_pairs=3, n_time_cases=3,
                         n_unitarity_cases=2, n_time_zero_cases=2,
                         n_exponent_triples=1)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    done = subprocess.run([sys.executable, str(TOOL), "--config", str(path)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = run_suite(cfg)
    del report["generated_at"]
    text = json.dumps(report, indent=2, sort_keys=True)
    assert done.stdout.split() == [str(path),
                                   hashlib.sha256(text.encode()).hexdigest()]



WARM_UP = dict(n_triples=3, n_pairs=2, n_time_cases=2, n_unitarity_cases=1,
               n_time_zero_cases=1, n_exponent_triples=1)


def test_report_digests_diff_of_the_tree_against_itself_is_empty(tmp_path):
    path = tmp_path / "warm_up.json"
    path.write_text(json.dumps(config_to_dict(default_config(**WARM_UP))))
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, str(TOOL), "--config", str(path),
                           "--diff", str(src)], capture_output=True,
                          text=True)
    assert (done.returncode, done.stdout) == (0, ""), done.stderr


def _refuse(token):
    raise ValueError(f"bare {token} token")


def test_report_digests_json_writes_a_non_finite_residual_as_a_string(
        tmp_path):
    # at scale 1e160 the sweeps overflow to NaN residuals
    cfg = default_config(scale=1e160, **WARM_UP)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    done = subprocess.run([sys.executable, str(TOOL), "--config", str(path),
                           "--json"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout, parse_constant=_refuse)[str(path)]
    axioms = [c for c in report["checks"]
              if c["check"].startswith("group_axioms_")]
    assert [c["max_residual"] for c in axioms] == ["NaN"] * 3
    # the family line reads the string back as NaN
    assert _load_tool().family_lines(
        [(c["check"], None, c) for c in axioms], ("group_axioms_",)) == [
        "family group_axioms: 3 moved, largest max_residual None -> nan"]


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digests_diff_lists_moved_residuals_and_flips():
    report = json.loads(json.dumps(run_suite(default_config(**WARM_UP))))
    moved = copy.deepcopy(report)
    moved["checks"][0]["max_residual"] *= 2.0
    moved["checks"][1]["details"] = {"note": "changed"}
    moved["checks"][2]["pass"] = not moved["checks"][2]["pass"]
    names = [c["check"] for c in report["checks"][:3]]
    lines, flips = _load_tool().diff_lines("cfg", report, moved, (3.0, 2.5))
    assert flips == 1
    assert lines == [
        f"cfg {names[0]} max_residual "
        f"{report['checks'][0]['max_residual']!r} -> "
        f"{moved['checks'][0]['max_residual']!r}",
        f"cfg {names[1]} details [] -> {{'note': 'changed'}}",
        f"cfg {names[2]} VERDICT pass True -> False",
        "cfg min_margin_dec 3.0 -> 2.5"]
    assert _load_tool().diff_lines("cfg", report, report, (3.0, 3.0)) \
        == ([], 0)


# a check that one report alone holds, passing or failing: (the side that
# holds it, its verdict, whether the change is a flip)
ONE_SIDED = {"added_passing": ("new", True, 0),
             "removed_passing": ("old", True, 0),
             "added_failing": ("new", False, 1),
             "removed_failing": ("old", False, 1)}


@pytest.mark.parametrize("side, passed, flips", ONE_SIDED.values(),
                         ids=ONE_SIDED)
def test_report_digests_diff_prints_an_added_or_removed_check(side, passed,
                                                              flips):
    # a new or retired check is not a flip unless it fails; the drift step
    # exits 1 on a flip
    report = json.loads(json.dumps(run_suite(default_config(**WARM_UP))))
    extra = {**report["checks"][0], "check": "extra_check", "pass": passed,
             "max_residual": 0.5}
    grown = {**report, "checks": [*report["checks"], extra]}
    old, new = (grown, report) if side == "old" else (report, grown)
    change = "added" if side == "new" else "removed"
    assert _load_tool().diff_lines("cfg", old, new, (3.0, 3.0)) == (
        [f"cfg extra_check {change}, pass {passed}: max_residual 0.5"], flips)


def test_report_digests_diff_names_the_moved_details_fields():
    # an entry whose max_residual stayed says which of its details moved
    report = json.loads(json.dumps(run_suite(default_config(**WARM_UP))))
    moved = copy.deepcopy(report)
    old, new = (next(c["details"] for c in r["checks"]
                     if c["check"] == "multiplier_bargmann3d")
                for r in (report, moved))
    new["max_matched_exponent_residual"] = 2e-16
    new["max_exponent_cocycle_residual"] = math.nan
    lines, flips = _load_tool().diff_lines("cfg", report, moved, (3.0, 3.0))
    assert (lines, flips) == ([
        f"cfg multiplier_bargmann3d details.max_exponent_cocycle_residual "
        f"{old['max_exponent_cocycle_residual']!r} -> nan, "
        f"details.max_matched_exponent_residual "
        f"{old['max_matched_exponent_residual']!r} -> 2e-16"], 0)


def test_report_digests_reads_momentum_kinds_from_representations(
        monkeypatch):
    # harness re-exports MOMENTUM_KINDS only for its own use
    sys.path.insert(0, str(TOOL.parent.parent / "perfbench"))
    try:
        import gate
    finally:
        sys.path.pop(0)
    cfg = default_config(**WARM_UP)
    report = json.loads(gate.deterministic_text(run_suite(cfg)))
    expected = gate.check_report(report, cfg, DEFAULT_TOLERANCES,
                                 MOMENTUM_KINDS).min_margin_dec
    monkeypatch.delattr(harness, "MOMENTUM_KINDS")
    assert _load_tool().min_margin(harness, gate, cfg, report) == expected


def test_report_digests_diff_ends_with_one_line_per_moved_family():
    tool = _load_tool()
    report = json.loads(json.dumps(run_suite(default_config(**WARM_UP))))
    moved = copy.deepcopy(report)
    by_name = {c["check"]: c for c in moved["checks"]}
    by_name["unitarity_bargmann3d"]["max_residual"] = 3e-15
    by_name["unitarity_schrodinger2d"]["max_residual"] = 2e-15
    by_name["time_multiplier_bargmann3d"]["details"] = {"note": "moved"}
    by_name["multiplier_nonabelian2d"]["max_residual"] = math.nan
    moves = tool.moved_entries(report, moved)
    assert [check for check, *_ in moves] == [
        "multiplier_nonabelian2d", "time_multiplier_bargmann3d",
        "unitarity_bargmann3d", "unitarity_schrodinger2d"]
    old = {c["check"]: c["max_residual"] for c in report["checks"]}
    prefixes = ("unitarity_", "time_multiplier_", "multiplier_", "algebra_")
    lines = tool.family_lines(moves, prefixes)
    unitarity = max(old["unitarity_bargmann3d"],
                    old["unitarity_schrodinger2d"])
    assert lines == [
        f"family unitarity: 2 moved, largest max_residual {unitarity!r} "
        f"-> 3e-15",
        f"family time_multiplier: 1 moved, largest max_residual "
        f"{old['time_multiplier_bargmann3d']!r} -> "
        f"{old['time_multiplier_bargmann3d']!r}",
        f"family multiplier: 1 moved, largest max_residual "
        f"{old['multiplier_nonabelian2d']!r} -> nan"]
    assert tool.family_lines([], prefixes) == []
