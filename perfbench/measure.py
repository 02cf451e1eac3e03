"""Small statistics and process helpers shared by the benchmark."""

from __future__ import annotations

import math
import os
import platform
import resource
from typing import Dict, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples`` (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_pct(n: int, want: float = 99.0) -> float:
    """``want`` when at least :data:`TAIL_SAMPLES` samples lie beyond it,
    else the highest whole percentile that has them (never below 50)."""
    if n <= 0:
        return want
    if n * (100.0 - want) / 100.0 >= TAIL_SAMPLES:
        return want
    return max(50.0, math.floor(100.0 * (1.0 - TAIL_SAMPLES / n)))


def latency_summary(samples_s: Sequence[float]) -> Dict[str, float]:
    """Median and tail (see :func:`tail_pct`) of seconds, in ms."""
    tail = tail_pct(len(samples_s))
    return {"p50_ms": percentile(samples_s, 50.0) * 1e3,
            "tail_ms": percentile(samples_s, tail) * 1e3,
            "tail_pct": tail, "n": len(samples_s)}


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> Dict[str, object]:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}

