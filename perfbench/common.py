"""Shared helpers: locating the program's sources, percentiles, and the
process counters the end-to-end metrics read (wchar, peak RSS)."""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# A failed or wrong outcome counts as +inf in the latency percentiles.
FAILED = math.inf

# tail candidates, highest first: p99/p95/p90, and below p90 only where
# a run collects fewer than 100 samples of a kind
TAIL_CANDIDATES = (99, 95, 90, 85, 80, 75, 70, 65, 60, 55)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def use_source_tree() -> None:
    """Import hrbac from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hrbac", "__init__.py")):
        raise BenchError(f"program sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hrbac  # noqa: F401  (fail early, before any set-up)

    if not os.path.abspath(hrbac.__file__).startswith(SRC + os.sep):
        raise BenchError(f"hrbac imported from {hrbac.__file__}, not {SRC}")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; +inf samples sort last."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_label(expected_n: int) -> str:
    """The highest candidate percentile that leaves at least ten samples
    beyond it at the expected sample count; "max" when none does."""
    for pct in TAIL_CANDIDATES:
        if expected_n * (100 - pct) / 100.0 >= 10:
            return f"p{pct}"
    return "max"


def tail_value(values: list[float], label: str) -> float:
    if label == "max":
        return max(values)
    return percentile(values, float(label[1:]))


def median(values: list[float]) -> float:
    return statistics.median(values)


def wchar(pid: str = "self") -> int:
    """Bytes the process passed to write-type syscalls so far."""
    with open(f"/proc/{pid}/io", "r", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key == "wchar":
                return int(value)
    raise BenchError("/proc/<pid>/io has no wchar field")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def disk_bytes(path: str) -> int:
    """Allocated bytes of every file under path (st_blocks, not st_size)."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.lstat(os.path.join(dirpath, name)).st_blocks * 512
    return total


def fs_type(path: str) -> str:
    """Filesystem type of the longest mount point containing path."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mounts", "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) < 3:
                continue
            mount = parts[1].replace("\\040", " ")
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, parts[2]
    return kind
