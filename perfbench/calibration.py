"""Fixed work that times how fast the machine runs right now.

Neither kind calls the library, so a change to omegadec leaves their times
alone. `calibration_work` runs in the calling process and tracks operations
that run there; `child_start_work` starts an interpreter and tracks operations
that run in child interpreters. This module imports nothing heavy, so a fresh
interpreter can time its work before its set-up without moving the set-up's
own imports.
"""

import statistics
import subprocess
import sys
import time
from fractions import Fraction

# times of the two kinds of work on a shared 2-core VM
CALIBRATION_REF_S = 0.017
CHILD_START_REF_S = 0.07


def calibration_work() -> None:
    """Fixed interpreter work of 10-20 ms: tuple keys, dict updates, Fraction sums."""
    acc: dict = {}
    for i in range(3000):
        key = ((i % 37,), ((i * 7) % 11,))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 5 + 1, 3)


def child_start_work() -> None:
    """Start a bare interpreter and wait for it to end."""
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


def calibrate(times: list[float], work=calibration_work) -> None:
    t0 = time.perf_counter()
    work()
    times.append(time.perf_counter() - t0)


def calibration_seconds() -> float:
    """Median of three timings of calibration_work."""
    times: list[float] = []
    for _ in range(3):
        calibrate(times)
    return statistics.median(times)
