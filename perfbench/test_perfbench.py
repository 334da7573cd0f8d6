"""Self-tests of the benchmark: the gate can fail, the tracer leaves reports
unchanged and restores galiray, and BENCHMARK.json names what the runs emit.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""
import copy
import json
import math
from pathlib import Path

import pytest
from galiray import group, harness
from galiray.representations import MOMENTUM_KINDS

import gate
import layers
from tracer import Tracer
from workloads import WARM_UP, WORKLOADS

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def tiny():
    cfg = WARM_UP.config(harness, 7)
    doc = json.loads(harness.report_json(harness.run_suite(cfg)))
    return cfg, doc


def _gate(doc, cfg):
    return gate.check_report(doc, cfg, harness.DEFAULT_TOLERANCES,
                             MOMENTUM_KINDS)


def _edit(doc, check_name, edit):
    doc = copy.deepcopy(doc)
    edit(next(c for c in doc["checks"] if c["check"] == check_name))
    return doc


def test_gate_passes_a_clean_report(tiny):
    cfg, doc = tiny
    result = _gate(doc, cfg)
    assert (result.failed, result.problems) == (0, [])
    assert result.attempted == doc["n_checks"] == 35
    assert 0 < result.min_margin_dec < 300
    gate.negative_control(doc, cfg, harness.DEFAULT_TOLERANCES,
                          MOMENTUM_KINDS)


@pytest.mark.parametrize("check_name, edit", [
    ("cocycle_xi0_dim3",
     lambda c: c.__setitem__("max_residual", math.nan)),
    ("algebra_dim2", lambda c: c.__setitem__("pass", False)),
    ("group_axioms_dim3", lambda c: c.__setitem__("max_residual", 2e-12)),
    ("multiplier_bargmann3d",
     lambda c: c["details"].__setitem__("max_modulus_error", math.inf)),
    ("time_multiplier_schrodinger2d",
     lambda c: c["details"].__setitem__("general_max", 1e-6)),
    ("heisenberg_bargmann3d",
     lambda c: c["details"]["per_generator"]["H"].__setitem__(
         "residual", math.nan)),
    ("heisenberg_position1d",
     lambda c: c.__setitem__("documented_exception", False)),
])
def test_gate_registers_each_single_fault(tiny, check_name, edit):
    cfg, doc = tiny
    assert _gate(_edit(doc, check_name, edit), cfg).failed >= 1


def test_gate_fails_a_report_with_a_missing_check(tiny):
    cfg, doc = tiny
    doc = copy.deepcopy(doc)
    doc["checks"].pop()
    assert _gate(doc, cfg).failed == 35


def test_traced_report_matches_untraced_and_self_times_fit(tiny):
    cfg, doc = tiny
    originals = (harness.multiply, group.GalileiElement.__post_init__)
    tracer = Tracer()
    tracer.install(layers.targets(), "galiray")
    try:
        assert harness.multiply is not originals[0]
        with tracer.request():
            traced = json.loads(harness.report_json(harness.run_suite(cfg)))
    finally:
        tracer.uninstall()
    assert (harness.multiply, group.GalileiElement.__post_init__) == originals
    assert gate.deterministic_text(traced) == gate.deterministic_text(doc)
    (request,) = tracer.aggregate()
    assert 0 < request["self_total_s"] <= request["wall_s"]
    spans = request["spans"]
    assert spans["harness.run_suite"][0] == 1
    assert spans["group.element_init"][0] > spans["group.multiply"][0] > 0
    share, ok, _ = layers.design_check(WORKLOADS["suite_default"], [request])
    assert ok and 0.9 < share <= 1.0


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.metric_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {name: w.why for name, w in WORKLOADS.items()}
