"""Order statistics for the benchmark report, each carrying its sample count."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable

#: Percentiles tried, highest first, when a run has enough samples for a tail.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
#: Samples that must lie beyond a percentile before it is reported.
TAIL_MIN_BEYOND = 10
#: Below this many samples only the median is reported.
TAIL_MIN_SAMPLES = 40


@dataclass(frozen=True)
class Stat:
    """A summary value and the number of samples it was taken over."""

    value: float
    samples: int


def median(values: Iterable[float]) -> Stat:
    vals = list(values)
    if not vals:
        raise ValueError("median of no samples")
    return Stat(float(statistics.median(vals)), len(vals))


def percentile(values: Iterable[float], q: float) -> Stat:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    return Stat(float(vals[_rank(q, len(vals)) - 1]), len(vals))


def _rank(q: float, n: int) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def tail(values: Iterable[float]) -> tuple[float, Stat] | None:
    """Highest percentile with at least ten samples beyond it, or None.

    With fewer than forty samples there is no tail worth the name, and
    only the median is reported.
    """
    vals = list(values)
    if len(vals) < TAIL_MIN_SAMPLES:
        return None
    for q in TAIL_PERCENTILES:
        if len(vals) - _rank(q, len(vals)) >= TAIL_MIN_BEYOND:
            return q, percentile(vals, q)
    return None


def quartile_spread(values: Iterable[float]) -> Stat:
    """Distance between the first and third quartile as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them.
    """
    vals = list(values)
    if len(vals) < 2:
        raise ValueError("quartile spread needs at least two samples")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    mid = statistics.median(vals)
    if mid == 0:
        raise ValueError("quartile spread of a zero median")
    return Stat((q3 - q1) / abs(mid), len(vals))
