"""Small helpers shared by perfbench/run.py, its worker and its tests."""

from __future__ import annotations

import math
import resource
import statistics
import time
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (listed in .gitignore).
WORK = ROOT / ".perfbench"

#: Additions per reference-loop repetition, and repetitions per reading.
REFERENCE_ADDS = 1_000_000
REFERENCE_REPEATS = 5


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine-speed reading
    taken before and after every run. It is a diagnostic, not a metric
    with a bound: a run that lands in one of the host's slow phases shows
    it here."""
    samples = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ADDS):
            total += i
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def percentile(values: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-quantile (0 < q <= 1) and the sample count it
    was taken from. Raises on an empty sample instead of inventing 0."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``q``-quantile: the guard for reporting a tail percentile."""
    return count - max(1, math.ceil(q * count))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
