"""Machine-speed correction for request times.

On a shared VM the speed of the CPU changes by up to 2x in spells of a few
seconds to a minute, so the median of a 36-second run moves with the spells
that fall into it.  A fixed probe — Python bytecode and small matrix
products, the two kinds of work the decoder does — is timed between
consecutive decode calls.  Each call's wall time is scaled by how much
slower than ``REFERENCE_S`` the probes on either side of it ran, which gives
its time at a steady machine speed.

The probe is the benchmark's own code and never calls the package, so a
change to the package moves the scaled times exactly as it moves the wall
times.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time taken as the steady machine speed: about its fast-spell time
#: on a 2-core x86-64 VM (2.1 GHz) with Python 3.11 and one OpenBLAS thread.
REFERENCE_S = 0.0045

_TABLE = {i: i for i in range(1000)}
_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def probe() -> float:
    """Time one fixed unit of work, about 4-8 ms; return its wall seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += _TABLE[i % 1000] * i
    m = _MATRIX
    for _ in range(200):
        m @ m
    return time.perf_counter() - t0


def steady(wall_s: float, probe_before: float, probe_after: float) -> float:
    """``wall_s`` at the reference speed, from the probes that bracket it."""
    return wall_s * REFERENCE_S * 2.0 / (probe_before + probe_after)
