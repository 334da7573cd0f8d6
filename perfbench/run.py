"""galiray benchmark: the time to a verdict of `galiray verify-all`.

Usage, from the root of a galiray checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

galiray is imported from the checkout's src/ directory and nowhere else.
One caller runs a closed loop: each suite starts when the previous one is
done.  With --trace 0 each round runs one warm in-process `run_suite` and
one `python -m galiray.cli verify-all` subprocess, for S seconds, and the
run reports the end-to-end metrics.  With --trace 1 each round runs one
untraced and one traced `run_suite`, and the run reports the per-layer
metrics from the spans.  Times are reported at a reference host speed
(calibrate.py); the raw wall times are printed too.  Every report goes
through the correctness gate (gate.py).  The last stdout line is the JSON
result; the lines before it give each metric by name and unit, fail_ratio,
and the environment stamp, which is also written with the full result to
.perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pinned before numpy loads, here and in every child process: the suite does
# linear algebra on matrices of size 5 or less, where more BLAS threads on a
# small machine only contend with each other.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import gate  # noqa: E402
import layers  # noqa: E402
from calibrate import reference_seconds, scaled  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WARM_UP, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_ROUNDS = 2        # determinism is compared across at least two repeats
SETUP_REPEATS = 7     # fresh processes timed for setup_s, after one warm-up

END_TO_END_UNITS = {"suite_s": "s", "cli_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "min_margin_dec": "dec"}


def import_galiray():
    """Import galiray from this checkout's src/, and fail if that is not
    where it came from."""
    package = SRC / "galiray"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no galiray package at {package}")
    sys.path.insert(0, str(SRC))
    import galiray
    import galiray.harness  # noqa: F401
    if Path(galiray.__file__).resolve().parent != package:
        raise SystemExit(f"error: galiray imported from {galiray.__file__}, "
                         f"not from {package}")
    return galiray


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment_stamp(galiray, seed: int) -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "galiray": galiray.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


class Verdicts:
    """Gates every report of one run, tallies checks attempted and failed,
    and requires one deterministic report text across all repeats."""

    def __init__(self, cfg):
        from galiray.harness import DEFAULT_TOLERANCES
        from galiray.representations import MOMENTUM_KINDS
        self.gate_args = (cfg, DEFAULT_TOLERANCES, MOMENTUM_KINDS)
        self.expected = gate.expected_check_count(cfg, MOMENTUM_KINDS)
        self.attempted = 0
        self.failed = 0
        self.min_margin_dec = math.inf
        self.problems = []
        self.reference = None

    def add(self, source: str, doc):
        """doc is the parsed report, or None when the run raised."""
        if doc is None:
            self.fail_all(source, "the run raised")
            return
        result = gate.check_report(doc, *self.gate_args)
        self.attempted += result.attempted
        self.failed += result.failed
        self.min_margin_dec = min(self.min_margin_dec, result.min_margin_dec)
        self.problems += [f"{source}: {p}" for p in result.problems]
        text = gate.deterministic_text(doc)
        if self.reference is None:
            gate.negative_control(doc, *self.gate_args)
            self.reference = text
        elif text != self.reference:
            raise gate.GateError(f"{source}: the deterministic part of the "
                                 "report differs between repeats")

    def fail_all(self, source: str, why: str):
        self.attempted += self.expected
        self.failed += self.expected
        self.problems.append(f"{source}: {why}")


def timed_suite(harness, cfg):
    """(seconds, parsed report or None) for one in-process run_suite."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        report = harness.run_suite(cfg)
        elapsed = time.perf_counter() - t0
        return elapsed, json.loads(harness.report_json(report))
    except Exception:  # a raising run is counted as failed, not fatal
        traceback.print_exc()
        return time.perf_counter() - t0, None


def run_cli(config_path: Path):
    """(seconds, peak RSS in MB, exit code, stdout) of one verify-all."""
    cmd = [sys.executable, "-m", "galiray.cli", "verify-all",
           "--config", str(config_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=child_env(),
                            cwd=ROOT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait4, not wait: it returns this child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - t0
    return elapsed, usage.ru_maxrss * 1024 / 1e6, proc.returncode, out


def measure_setup(workload, seed: int):
    """setup_s samples, at reference speed and raw, from fresh processes."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload.name,
           str(seed)]
    at_ref, raw = [], []
    before = reference_seconds()
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        after = reference_seconds()
        probe = json.loads(done.stdout.splitlines()[-1])
        if Path(probe["galiray"]).resolve().parent != SRC / "galiray":
            raise SystemExit(f"error: probe imported {probe['galiray']}")
        if i:  # the first probe only warms the bytecode and file caches
            raw.append(probe["seconds"])
            at_ref.append(scaled(probe["seconds"], before, after))
        before = after
    return at_ref, raw


def rounds(seconds: float, step):
    """Call step() until the next call would pass the deadline, at least
    MIN_ROUNDS times."""
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        t0 = time.perf_counter()
        step()
        n += 1
        took = time.perf_counter() - t0
        if n >= MIN_ROUNDS and time.perf_counter() + took > deadline:
            return n


def run_end_to_end(galiray, workload, cfg, seconds, verdicts):
    harness = galiray.harness
    setup, setup_raw = measure_setup(workload, cfg.seed)
    timed_suite(harness, WARM_UP.config(harness, cfg.seed))
    config_path = WORK / f"config_{workload.name}_{cfg.seed}.json"
    config_path.write_text(json.dumps(harness.config_to_dict(cfg), indent=2))
    suite_s, cli_s, rss_mb, suite_raw, cli_raw = [], [], [], [], []
    refs = [reference_seconds()]

    def step():
        wall, doc = timed_suite(harness, cfg)
        mid = reference_seconds()
        suite_raw.append(wall)
        suite_s.append(scaled(wall, refs[-1], mid))
        verdicts.add("suite", doc)
        wall, rss, code, out = run_cli(config_path)
        refs.extend((mid, reference_seconds()))
        cli_raw.append(wall)
        cli_s.append(scaled(wall, mid, refs[-1]))
        rss_mb.append(rss)
        try:
            doc = json.loads(out)
        except ValueError:
            verdicts.fail_all("cli", f"exit {code}, stdout is not a report")
            return
        if code != (0 if doc.get("suite_pass") else 1):
            verdicts.fail_all("cli", f"exit {code} disagrees with the report")
            return
        verdicts.add("cli", doc)

    rounds(seconds, step)
    metrics = {
        "suite_s": statistics.median(suite_s),
        "cli_s": statistics.median(cli_s),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss_mb),
        "min_margin_dec": verdicts.min_margin_dec,
    }
    samples = {"suite_s": suite_s, "cli_s": cli_s, "setup_s": setup,
               "peak_rss_mb": rss_mb, "suite_wall_s": suite_raw,
               "cli_wall_s": cli_raw, "setup_wall_s": setup_raw,
               "reference_s": refs}
    return metrics, END_TO_END_UNITS, samples, {}


def run_traced(galiray, workload, cfg, seconds, verdicts):
    harness = galiray.harness
    timed_suite(harness, WARM_UP.config(harness, cfg.seed))
    tracer = Tracer()
    targets = layers.targets()
    untraced_s, traced_s, speed = [], [], []
    refs = [reference_seconds()]

    def step():
        wall, doc = timed_suite(harness, cfg)
        mid = reference_seconds()
        untraced_s.append(scaled(wall, refs[-1], mid))
        verdicts.add("suite", doc)
        tracer.install(targets, "galiray")
        try:
            with tracer.request():
                wall, doc = timed_suite(harness, cfg)
        finally:
            tracer.uninstall()
        refs.extend((mid, reference_seconds()))
        traced_s.append(scaled(wall, mid, refs[-1]))
        speed.append(scaled(1.0, mid, refs[-1]))
        verdicts.add("traced suite", doc)

    rounds(seconds, step)
    requests = tracer.aggregate()
    for req in requests:
        if req["self_total_s"] > req["wall_s"]:
            raise gate.GateError(f"span self times add up to "
                                 f"{req['self_total_s']:.6f} s, more than the "
                                 f"traced wall time {req['wall_s']:.6f} s")
    tracer.dump(WORK / f"spans_{workload.name}.npz")
    share, ok, message = layers.design_check(workload, requests)
    metrics = layers.per_layer_metrics(requests, speed, untraced_s, traced_s,
                                       share)
    extra = {"design_check": {"ok": ok, "message": message}}
    samples = {"untraced_suite_s": untraced_s, "traced_suite_s": traced_s,
               "reference_s": refs}
    return metrics, layers.metric_units(), samples, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    galiray = import_galiray()
    WORK.mkdir(exist_ok=True)
    # One core for this process and every child it starts: the speed factor
    # (calibrate.py) is measured here, and on a shared VM each core has its
    # own neighbours.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    cfg = workload.config(galiray.harness, args.seed)
    stamp = environment_stamp(galiray, args.seed)
    verdicts = Verdicts(cfg)
    run = run_traced if args.trace else run_end_to_end
    metrics, units, samples, extra = run(galiray, workload, cfg, args.seconds,
                                         verdicts)

    fail_ratio = verdicts.failed / verdicts.attempted
    correct = verdicts.failed == 0 and not verdicts.problems
    for name, value in metrics.items():
        if not math.isfinite(value):  # only when no report could be read
            metrics[name] = 0.0
            correct = False
    result = {
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = {"workload": workload.name, "why": workload.why,
              "trace": args.trace, "seconds": args.seconds,
              "environment": stamp,
              "config": galiray.harness.config_to_dict(cfg),
              "fail_ratio": fail_ratio, "problems": verdicts.problems,
              "samples": samples, **extra, "result": result}
    name = f"result_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=2))

    print("environment " + json.dumps(stamp, sort_keys=True))
    for problem in verdicts.problems:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        n = len(samples.get(name, ()))
        print(f"{workload.name} {name} = {metrics[name]:.6g} {unit}"
              + (f" (median of {n})" if n else ""))
    for name, values in samples.items():
        if name.endswith("_wall_s"):
            print(f"{workload.name} {name} = {statistics.median(values):.6g} s"
                  f" (median of {len(values)}, not scaled to reference speed)")
    print(f"{workload.name} fail_ratio = {fail_ratio:.6g} "
          f"({verdicts.failed}/{verdicts.attempted} checks)")
    if "design_check" in extra:
        check = extra["design_check"]
        print(f"design check {'ok' if check['ok'] else 'DRIFTED'}: "
              f"{check['message']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
