"""Host-speed reference for the benchmark's timings.

On a shared virtual machine the speed of a core swings with its neighbours'
load: on a 2-core Xeon VM the same run_suite took from 0.84 s to 1.5 s
within two minutes, in phases that last tens of seconds, while a loop of the
same kind of work slowed by the same factor (their ratio varied 6.8% against
16% for the raw times).  So every timed sample is bracketed by this fixed
loop, which does not touch galiray, and is reported as

    wall time * REFERENCE_S / (loop time next to the sample),

the seconds the sample would take on a host where the loop takes
REFERENCE_S.  A change to galiray moves the sample and not the loop.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.09  # the loop on an unloaded 2-core Intel Xeon VM


def reference_seconds(n: int = 5000) -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls,
    like the suite's: 3x3 products, det, max-abs, complex exp, dicts."""
    rng = np.random.default_rng(0)
    eye = np.eye(3)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(n):
        A = rng.normal(size=(3, 3))
        v = rng.uniform(-1.0, 1.0, size=3)
        acc += float(np.max(np.abs(A @ A.T - eye))) + float(np.linalg.det(A))
        record = {"x": float(v @ (A @ v)), "v": [float(x) for x in v]}
        acc += record["x"] * 1e-9 + complex(np.exp(0.1j * i)).real
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("reference loop went non-finite")
    return elapsed


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s at reference speed, from the loop timed just before and after."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
