"""Measurement loop, statistics, environment record and the result line.

Everything here is workload-agnostic: a workload (see ``workloads.py``)
supplies ``setup``/``op``/``check``; this module times the closed loop,
derives the metrics and prints them.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import platform
import re
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Metric names: letters, digits, ``_``, ``.``, ``-``; start alnum; <= 64.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in percent) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n_samples: int, q: float) -> int:
    """How many of *n_samples* lie above the nearest-rank ``q`` percentile."""
    return n_samples - max(1, math.ceil(q / 100.0 * n_samples))


def tail_percentile(values: List[float], q: float) -> Optional[float]:
    """The ``q`` percentile, or ``None`` when fewer than ten samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(values, q)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
def _cache_sizes() -> Dict[str, int]:
    """Unified/data cache size per level in bytes, from sysfs (empty if absent)."""
    sizes: Dict[str, int] = {}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")) if root.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        factor = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
        sizes[f"L{level}"] = int(text.rstrip("KM")) * factor
    return sizes


def environment() -> Dict[str, object]:
    """The machine and library facts a reader needs to compare runs."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    components = importlib.import_module("repro.utils.connected_components")
    caches = _cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "connected_components": (
            "scipy" if components._HAVE_SCIPY else "union-find"
        ),
    }


# --------------------------------------------------------------------------
@dataclass
class Phase:
    """What one timed closed loop observed."""

    latencies_s: List[float] = field(default_factory=list)
    #: Frames each op completed per wall second of its cycle (op + check);
    #: a failed op completes none.
    op_rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    frames: int = 0
    wall_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def frames_per_s(self) -> float:
        """Median per-op rate: a short slow spell of the host does not move it."""
        return statistics.median(self.op_rates) if self.op_rates else 0.0

    @property
    def overall_frames_per_s(self) -> float:
        """All frames over the whole phase's wall time."""
        return self.frames / self.wall_s if self.wall_s > 0 else 0.0


def run_closed_loop(
    op: Callable[[], object],
    check: Callable[[object], bool],
    frames_per_op: int,
    seconds: float,
) -> Phase:
    """One client, next op only after the previous one completed and was checked.

    Runs until *seconds* have passed (at least one op).  An op fails when it
    raises or its output fails *check*; failed ops complete no frames.
    Latency covers the op itself, not the check.
    """
    phase = Phase()
    start = time.perf_counter()
    while phase.attempted == 0 or time.perf_counter() - start < seconds:
        phase.attempted += 1
        op_start = time.perf_counter()
        latency = None
        try:
            output = op()
            latency = time.perf_counter() - op_start
            ok = bool(check(output))
        except Exception:  # a failing op is counted and reported, never fatal
            if latency is None:
                latency = time.perf_counter() - op_start
            ok = False
            phase.errors.append(traceback.format_exc(limit=-3))
        phase.latencies_s.append(latency)
        phase.op_rates.append(frames_per_op / (time.perf_counter() - op_start) if ok else 0.0)
        if ok:
            phase.frames += frames_per_op
        else:
            phase.failed += 1
    phase.wall_s = time.perf_counter() - start
    return phase


def timed_setups(make: Callable[[], object], repeats: int):
    """Build the workload *repeats* times; keep the last, return (it, seconds)."""
    seconds: List[float] = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            # Free the previous build first, so set-ups never share memory.
            workload.close()
            workload = None
            gc.collect()
        start = time.perf_counter()
        workload = make()
        workload.setup()
        seconds.append(time.perf_counter() - start)
    return workload, seconds


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> str:
    """The final stdout line: ``{"correct", "attempted", "failed", "metrics"}``."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                check_metric_name(name): {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )

