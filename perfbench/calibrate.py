"""Host noise, measured beside the program and taken out of its times,
so that timings from a busy shared machine read like timings from a
quiet one.

Two things slow the same code on a shared virtual machine, and
both change over seconds and over minutes:

* **steal**: the hypervisor runs other guests while this one's CPU is
  ready to run.  The kernel counts it (``/proc/stat``), and leaves it
  out of the CPU time it counts for each process.  Of the CPU time the
  measured processes wanted in a pass, ``steal / (cpu + steal)`` was
  stolen; the work stood still for that share of the pass, whether one
  thread ran at a time or two (two threads want twice the CPU and lose
  twice the steal), and the pass's call times are shortened by it.
* **speed**: a busy sibling hyperthread or memory bus makes every
  instruction slower.  A fixed reference computation (numpy and
  interpreter work on the benchmark's own private arrays, independent
  of the program under test) runs in short slices between timed calls,
  whenever ``INTERVAL_S`` has passed since the last one, and the pass's
  call times are scaled by ``REF_SLICE_S`` over its median slice (a
  median, so that steal is not counted twice).

A change in the program moves neither the steal counter nor the slices,
so it moves the corrected figures as it moves the raw ones.  The raw
figures and the host's speed go to the run record.
"""

from __future__ import annotations

import os
import time
from statistics import median

import numpy as np

__all__ = ["INTERVAL_S", "REF_SLICE_S", "steal_s", "HostSample",
           "Calibrator"]

#: a slice runs when this long has passed since the previous one ends
INTERVAL_S = 0.025
#: one slice's time at reference host speed, about its median on the
#: 2-vCPU Intel Xeon VM the benchmark was tuned on
REF_SLICE_S = 1.7e-3
#: at most this share of a pass is ever taken out as steal
MAX_STEAL_SHARE = 0.9

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Stolen seconds so far, all CPUs together; 0 where unreported."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) * _TICK_S
    except (OSError, IndexError, ValueError):
        return 0.0


class HostSample:
    """Steal, CPU time and reference slices over one pass.

    ``cpu_s`` returns the CPU seconds used so far by every process doing
    the measured work.
    """

    def __init__(self, cpu_s=time.process_time) -> None:
        self.slices: list[float] = []
        self.cpu = 0.0
        self.steal = 0.0
        self._cpu_s = cpu_s
        self._c0 = cpu_s()
        self._s0 = steal_s()

    def close(self) -> None:
        self.cpu = self._cpu_s() - self._c0
        self.steal = steal_s() - self._s0

    def factor(self) -> float:
        """Corrected over raw time for the pass's calls; 1 if unmeasured."""
        wanted = self.cpu + self.steal
        share = min(self.steal / wanted, MAX_STEAL_SHARE) if wanted > 0 \
            else 0.0
        speed = REF_SLICE_S / median(self.slices) if self.slices else 1.0
        return (1.0 - share) * speed


def _kernel(x: np.ndarray, y: np.ndarray) -> float:
    """Quantize, count, sort, transform and scan: the kinds of work the
    codecs do, on 256 KiB and 1 MiB of private data."""
    q = np.rint(np.diff(x, axis=0) / 1e-3).astype(np.int64)
    _, counts = np.unique(q, return_counts=True)
    s = 0
    for c in counts[:2000].tolist():
        s += c * c
    head = np.sort(x.ravel())[0]
    spectrum = np.fft.rfft(x[0]).real.sum()
    scan = np.cumsum(y) * 0.5 + y
    return s + float(head) + float(spectrum) + float(scan[-1])


class Calibrator:
    """Runs reference slices at most every ``INTERVAL_S``."""

    def __init__(self) -> None:
        rng = np.random.default_rng(123)
        self._x = np.cumsum(rng.standard_normal((32, 32, 32)), axis=2)
        self._y = rng.standard_normal(1 << 17)
        self._last = 0.0
        _kernel(self._x, self._y)  # first-touch and import costs

    def maybe(self, host: HostSample) -> None:
        """Time one slice into ``host`` if one is due."""
        if time.perf_counter() - self._last < INTERVAL_S:
            return
        t0 = time.perf_counter()
        _kernel(self._x, self._y)
        self._last = time.perf_counter()
        host.slices.append(self._last - t0)
