"""The galiray layers the traced run measures, and the per-layer metrics
derived from their spans.

Each entry of TRACED names a span, where the callable lives (module, and
class for a method), and which per-layer metrics come from it: `calls` gives
`<span>.calls`, `self_s` gives `<span>.self_s`, and `incl` gives `<span>_s`,
the inclusive time (used for the harness check families).
"""
from __future__ import annotations

import importlib
import statistics

from workloads import FAMILIES

TRACED = (
    ("harness.run_suite", "harness", None, "run_suite", ()),
    *((f"harness.{fam}", "harness", None, f"_check_{fam}", ("incl",))
      for fam in FAMILIES),
    ("harness.report_json", "harness", None, "report_json", ("incl",)),
    ("group.element_init", "group", "GalileiElement", "__post_init__",
     ("calls", "self_s")),
    ("group.multiply", "group", None, "multiply", ("calls", "self_s")),
    ("group.inverse", "group", None, "inverse", ("calls",)),
    ("group.embed_matrix", "group", None, "embed_matrix", ("calls", "self_s")),
    ("group.random_element", "group", None, "random_element",
     ("calls", "self_s")),
    ("algebra.exponential", "algebra", None, "exponential",
     ("calls", "self_s")),
    ("algebra.commutator", "algebra", None, "commutator", ("self_s",)),
    ("algebra.jacobi_residual", "algebra", None, "jacobi_residual",
     ("self_s",)),
    ("algebra.embed_algebra", "algebra", None, "embed_algebra", ("self_s",)),
    ("cocycles.evaluate", "cocycles", None, "evaluate", ("calls", "self_s")),
    ("cocycles.cocycle_residual", "cocycles", None, "cocycle_residual",
     ("self_s",)),
    ("cocycles.infinitesimal_exponent", "cocycles", None,
     "infinitesimal_exponent", ("self_s",)),
    ("states.state_init", "states", "PolyGaussianState", "__init__",
     ("calls", "self_s")),
    ("states.evaluate", "states", "PolyGaussianState", "evaluate",
     ("calls", "self_s")),
    ("states.substitute", "states", "PolyGaussianState", "substitute",
     ("calls", "self_s")),
    ("states.multiply_phase", "states", "PolyGaussianState", "multiply_phase",
     ("self_s",)),
    ("states.inner_product", "states", None, "inner_product",
     ("calls", "self_s")),
    ("states.op_apply", "states", "PolyDiffOperator", "apply", ("self_s",)),
    ("states.op_compose", "states", "PolyDiffOperator", "compose",
     ("self_s",)),
    ("representations.apply_time", "representations", None, "apply_time",
     ("calls", "self_s")),
    ("representations.generator", "representations", None, "generator",
     ("self_s",)),
    ("verify.extract_multiplier", "verify", None, "extract_multiplier",
     ("calls", "self_s")),
    ("verify.sample_points", "verify", None, "default_sample_points",
     ("self_s",)),
    ("verify.heisenberg_fit", "verify", None, "heisenberg_fit", ("self_s",)),
)

_FIELD_SUFFIX = {"calls": ".calls", "self_s": ".self_s", "incl": "_s"}
_FIELD_UNIT = {"calls": "count", "self_s": "s", "incl": "s"}

# metrics that are not a single span field
DERIVED = (
    ("verify.evals_per_multiplier", "evals/call"),
    ("verify.points_used_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("design.target_share", "ratio"),
)


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span, _, _, _, fields in TRACED:
        for f in fields:
            units[span + _FIELD_SUFFIX[f]] = _FIELD_UNIT[f]
    units.update(DERIVED)
    return units


def _count_points(tracer, report):
    tracer.count("points_used", report.n_points)
    tracer.count("points_attempted", report.n_points + report.n_skipped)


def targets() -> list:
    """(span, owner, attribute, on_result) for Tracer.install."""
    out = []
    for span, module, cls, attr, _ in TRACED:
        owner = importlib.import_module(f"galiray.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        hook = _count_points if span == "verify.extract_multiplier" else None
        out.append((span, owner, attr, hook))
    return out


def family_shares(request: dict) -> dict:
    """Share of the traced run_suite time spent in each check family."""
    spans = request["spans"]
    total = spans["harness.run_suite"][1]
    return {fam: spans[f"harness.{fam}"][1] / total for fam in FAMILIES}


def design_check(workload, requests: list):
    """(target share, ok, message): does the workload still stress what it
    was chosen for?  The share is the median over the traced requests."""
    share = statistics.median(
        sum(family_shares(req)[f] for f in workload.target_families)
        for req in requests)
    if workload.min_share is None:
        missing = [f for f in FAMILIES
                   if any(req["spans"][f"harness.{f}"][0] == 0
                          for req in requests)]
        ok = not missing
        message = ("every family runs" if ok
                   else f"families that never ran: {missing}")
    else:
        ok = share >= workload.min_share
        message = (f"{share:.1%} of suite time in "
                   f"{'/'.join(workload.target_families)}, "
                   f"needs {workload.min_share:.0%}")
    return share, ok, message


def per_layer_metrics(requests: list, speed: list, untraced_s: list,
                      traced_s: list, target_share: float) -> dict:
    """Median over traced requests of every per-layer metric.  Times are
    multiplied by each request's speed factor, as the end-to-end times are
    (calibrate.py)."""
    samples = {name: [] for name in metric_units()}
    for req, factor in zip(requests, speed):
        spans = req["spans"]
        for span, _, _, _, fields in TRACED:
            calls, incl, own = spans[span]
            value = {"calls": calls, "self_s": own * factor,
                     "incl": incl * factor}
            for f in fields:
                samples[span + _FIELD_SUFFIX[f]].append(value[f])
        n_extract = spans["verify.extract_multiplier"][0]
        samples["verify.evals_per_multiplier"].append(
            spans["states.evaluate"][0] / n_extract if n_extract else 0.0)
        counters = req["counters"]
        attempted = counters.get("points_attempted", 0.0)
        samples["verify.points_used_ratio"].append(
            counters.get("points_used", 0.0) / attempted if attempted else 0.0)
    samples["trace.overhead_s"] = [statistics.median(traced_s)
                                   - statistics.median(untraced_s)]
    samples["design.target_share"] = [target_share]
    return {name: statistics.median(values)
            for name, values in samples.items()}
