"""sha256 of the deterministic report text of galiray's reference configs.

Usage, from the root of a galiray checkout:

    python3 tools/report_digests.py [--src DIR] [--config FILE]
                                    [--json | --diff OTHER_SRC]

For each config it prints `<name> <sha256>`, the digest of the report of
`run_suite` without its `generated_at` timestamp, serialized by galiray's
one JSON writer, `harness.report_json` (a value that is not finite as the
string "NaN", "Infinity" or "-Infinity").  Equal digests on two
checkouts mean byte-identical reports.  The reference configs are
`default_config()`, the scales 0.001, 100 and 1000, and each benchmark
workload at the seeds 1, 201 and 1401.  --config digests one config file
(as `galiray verify-all --config` reads it) instead, and --src imports
galiray from another source tree (by default this checkout's src/), so
that one run can digest the reports of another revision.

--json prints the reports themselves, one JSON object by config name.
--diff OTHER_SRC compares each config's report with the one galiray from
OTHER_SRC gives (run in a child process, as --json).  It prints one line per
check that only one report holds, added or removed, with its verdict and
max_residual, and one per kept check whose entry differs: the old
(OTHER_SRC) and new max_residual if that moved, else the old and new value
of each other field that did, a field of details by its name there
(details.<field>).  It prints one line more per kept check whose verdict
flips, and one per config whose minimum margin (perfbench/gate.py's
min_margin_dec) changes; identical reports print nothing.  It ends with one
line per check family (perfbench/gate.py's FAMILIES) with a moved, added or
removed entry: how many entries moved over all configs, and the largest
max_residual among them, old and new.  It exits 1 if a verdict flips, or a
failing check is added or removed, else 0: an added or removed passing
check is not a flip.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
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


def report_text(harness, cfg) -> str:
    """The report of cfg without its timestamp, as report_json writes it."""
    report = harness.run_suite(cfg)
    del report["generated_at"]
    return harness.report_json(report)


def digest(harness, cfg) -> str:
    return hashlib.sha256(report_text(harness, cfg).encode()).hexdigest()


def _entries(report: dict) -> dict:
    """The report's check entries by name, each as canonical JSON text, so
    that a NaN residual compares equal to itself."""
    return {c["check"]: json.dumps(c, sort_keys=True)
            for c in report["checks"]}


def moved_entries(old: dict, new: dict) -> list:
    """(check, old entry, new entry) for each check whose entry differs
    between the reports old and new; a missing entry is None."""
    old_entries, new_entries = _entries(old), _entries(new)
    return [(check, *(json.loads(e) if e else None
                      for e in (old_entries.get(check),
                                new_entries.get(check))))
            for check in dict.fromkeys([*old_entries, *new_entries])
            if old_entries.get(check) != new_entries.get(check)]


def _fields(entry: dict, expand: bool) -> dict:
    """The fields of a report entry but check and pass; if expand, each
    field of its details object as details.<field>."""
    out = {k: v for k, v in entry.items() if k not in ("check", "pass")}
    if expand:
        out.update({f"details.{k}": v for k, v in out.pop("details").items()})
    return out


def moved_fields(a: dict, b: dict) -> list:
    """(field, old, new) for each field, as _fields names it, that differs
    between the entries a and b; details is split into its fields when it
    is an object in both."""
    expand = all(isinstance(e.get("details"), dict) for e in (a, b))
    a, b = _fields(a, expand), _fields(b, expand)
    return [(k, a.get(k), b.get(k)) for k in dict.fromkeys([*a, *b])
            if json.dumps(a.get(k)) != json.dumps(b.get(k))]


def diff_lines(name: str, old: dict, new: dict, margins) -> tuple:
    """(lines, flips) for the reports old and new of config name: one line
    per check that one report alone holds, one per kept check whose entry
    differs other than in its verdict alone, one per verdict flip, and one
    if the minimum margin pair margins differs.  flips counts the verdict
    flips and the failing checks that one report alone holds."""
    lines, flips = [], 0
    for check, a, b in moved_entries(old, new):
        if a is None or b is None:
            change, entry = ("added", b) if a is None else ("removed", a)
            flips += not entry["pass"]
            lines.append(f"{name} {check} {change}, pass {entry['pass']}: "
                         f"max_residual {entry['max_residual']!r}")
            continue
        moved = moved_fields(a, b)
        if any(field == "max_residual" for field, *_ in moved):
            moved = [("max_residual", a["max_residual"], b["max_residual"])]
        if moved:
            lines.append(f"{name} {check} " + ", ".join(
                f"{field} {x!r} -> {y!r}" for field, x, y in moved))
        if a["pass"] != b["pass"]:
            flips += 1
            lines.append(f"{name} {check} VERDICT pass "
                         f"{a['pass']} -> {b['pass']}")
    if margins[0] != margins[1]:
        lines.append(f"{name} min_margin_dec {margins[0]!r} -> "
                     f"{margins[1]!r}")
    return lines, flips


def _largest(values) -> float | None:
    """The largest of the numbers among values, a value that is not finite
    read from its report_json string too; NaN if one is NaN."""
    numbers = [float(v) for v in values if isinstance(v, float)
               or v in ("NaN", "Infinity", "-Infinity")]
    return max(numbers, key=lambda v: (math.isnan(v), v), default=None)


def family_lines(moves, prefixes) -> list:
    """One line per family, in the order of prefixes (check-name prefixes,
    as perfbench/gate.py's FAMILIES give them), that has an entry among
    moves, (check, old entry, new entry) triples: the number of moved
    entries and the largest old and new max_residual among them."""
    lines = []
    for prefix in prefixes:
        mine = [(a, b) for check, a, b in moves if check.startswith(prefix)]
        if mine:
            old, new = (_largest(e["max_residual"] for e in side if e)
                        for side in zip(*mine))
            lines.append(f"family {prefix.rstrip('_')}: {len(mine)} moved, "
                         f"largest max_residual {old!r} -> {new!r}")
    return lines


def min_margin(harness, gate, cfg, report: dict) -> float:
    # galiray is importable once main has put --src on sys.path
    from galiray.representations import MOMENTUM_KINDS

    return gate.check_report(report, cfg, harness.DEFAULT_TOLERANCES,
                             MOMENTUM_KINDS).min_margin_dec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the galiray package")
    parser.add_argument("--config", type=Path,
                        help="digest this config file instead")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true",
                      help="print the reports instead of their digests")
    mode.add_argument("--diff", type=Path, metavar="OTHER_SRC",
                      help="list what differs from the reports of the "
                           "galiray in OTHER_SRC")
    args = parser.parse_args(argv)
    other = None
    if args.diff is not None:
        # the other tree's reports come from a child process, which runs
        # while this one computes its own
        command = [sys.executable, str(Path(__file__).resolve()), "--json",
                   "--src", str(args.diff)]
        if args.config is not None:
            command += ["--config", str(args.config)]
        other = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import gate
    import workloads
    from galiray import harness

    if args.config is None:
        cfgs = reference_configs(harness, workloads)
    else:
        cfgs = {str(args.config): lambda: harness.load_config(args.config)}
    if args.json:
        print(json.dumps({name: json.loads(report_text(harness, make()))
                          for name, make in cfgs.items()}))
        return 0
    if other is None:
        for name, make in cfgs.items():
            print(name, digest(harness, make()), flush=True)
        return 0
    new = {}
    for name, make in cfgs.items():
        cfg = make()
        new[name] = (cfg, json.loads(report_text(harness, cfg)))
    out, _ = other.communicate()
    if other.returncode:
        print(f"the reports of {args.diff} could not be made",
              file=sys.stderr)
        return 2
    old = json.loads(out)
    flips, moves = 0, []
    for name, (cfg, report) in new.items():
        margins = (min_margin(harness, gate, cfg, old[name]),
                   min_margin(harness, gate, cfg, report))
        lines, n = diff_lines(name, old[name], report, margins)
        flips += n
        moves += moved_entries(old[name], report)
        for line in lines:
            print(line)
    for line in family_lines(moves, [p for p, *_ in gate.FAMILIES]):
        print(line)
    return 1 if flips else 0


if __name__ == "__main__":
    sys.exit(main())
