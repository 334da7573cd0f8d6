"""Benchmark workloads.  Each one is a galiray SuiteConfig built from the
workload's overrides and the seed the benchmark is given.

This module does not import galiray, so that the set-up probe can time that
import from its first line.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# check families of harness.run_suite, in the order it runs them
FAMILIES = ("group_axioms", "algebra", "cocycles", "infinitesimal",
            "unitarity", "time_zero", "multipliers", "time_multiplier",
            "heisenberg", "initial_conditions")
SWEEP_FAMILIES = ("group_axioms", "algebra", "cocycles")
CARRIER_FAMILIES = ("unitarity", "time_zero", "multipliers", "time_multiplier")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict = field(default_factory=dict)
    # the design check: these families must take at least min_share of the
    # suite's time; with min_share None, each must merely appear
    target_families: tuple = FAMILIES
    min_share: float | None = None

    def config(self, harness, seed: int):
        """The validated SuiteConfig for this workload and seed."""
        return harness.default_config(seed=seed, **self.overrides)


_CARRIER_MINIMUM = dict(n_pairs=1, n_unitarity_cases=1, n_time_zero_cases=1,
                        n_exponent_triples=1, n_time_cases=2)

WORKLOADS = {w.name: w for w in (
    Workload(
        "suite_default",
        "default_config() mix at a quarter of its case counts: every layer "
        "as users and CI run it, group/algebra/cocycle sweeps ~40% of time",
        overrides=dict(n_triples=250, n_pairs=125, n_time_cases=50,
                       n_unitarity_cases=25, n_time_zero_cases=25,
                       n_exponent_triples=15)),
    Workload(
        "sweep_heavy",
        "large n_triples, carrier counts at their minimum: exercises "
        "group, algebra and cocycles and bypasses the carrier-state layer",
        overrides=dict(n_triples=900, **_CARRIER_MINIMUM),
        target_families=SWEEP_FAMILIES, min_share=0.9),
    Workload(
        "carrier_heavy",
        "n_triples 3, carrier counts raised: exercises states and multiplier "
        "extraction, with scalar group calls, and bypasses the sweeps",
        overrides=dict(n_triples=3, n_pairs=340, n_time_cases=140,
                       n_unitarity_cases=85, n_time_zero_cases=85,
                       n_exponent_triples=42),
        target_families=CARRIER_FAMILIES, min_share=0.9),
)}

# a config that touches every code path in well under a second; run once
# before timing so that lazy set-up is not charged to the first sample
WARM_UP = Workload("warm_up", "untimed", overrides=dict(
    n_triples=3, n_pairs=2, n_time_cases=2, n_unitarity_cases=1,
    n_time_zero_cases=1, n_exponent_triples=1))
