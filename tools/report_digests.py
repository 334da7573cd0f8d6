"""sha256 of the deterministic report text of galiray's reference configs.

Usage, from the root of a galiray checkout:

    python3 tools/report_digests.py [--src DIR] [--config FILE]

For each config it prints `<name> <sha256>`, the digest of the report of
`run_suite` without its `generated_at` timestamp, serialized as
perfbench/gate.py's deterministic_text does.  Equal digests on two
checkouts mean byte-identical reports.  The reference configs are
`default_config()`, the scales 0.001, 100 and 1000, and each benchmark
workload at the seeds 1, 201 and 1401.  --config digests one config file
(as `galiray verify-all --config` reads it) instead, and --src imports
galiray from another source tree (by default this checkout's src/), so
that one run can digest the reports of another revision.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALES = (0.001, 100.0, 1000.0)
SEEDS = (1, 201, 1401)


def reference_configs(harness, workloads) -> dict:
    """The reference configs by name, as SuiteConfig factories."""
    configs = {"default_config()": harness.default_config}
    for scale in SCALES:
        configs[f"scale={scale}"] = (
            lambda scale=scale: harness.default_config(scale=scale))
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            configs[f"{name}@{seed}"] = (
                lambda w=workload, seed=seed: w.config(harness, seed))
    return configs


def digest(harness, gate, cfg) -> str:
    text = gate.deterministic_text(harness.run_suite(cfg))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the galiray package")
    parser.add_argument("--config", type=Path,
                        help="digest this config file instead")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import gate
    import workloads
    from galiray import harness

    if args.config is None:
        cfgs = reference_configs(harness, workloads)
    else:
        cfgs = {str(args.config): lambda: harness.load_config(args.config)}
    for name, make in cfgs.items():
        print(name, digest(harness, gate, make()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
