"""Machine-speed calibration for the benchmark's timings.

On a shared host the same work can take half again as long for tens of
seconds at a time. A fixed kernel, benchmark code that never touches
quasinv, is timed between cycles of measured operations; each latency is
multiplied by nominal / (mean kernel time at the two ends of its cycle).
Timings are thereby reported at the speed where the kernel takes its
nominal time, about its median on the machine the benchmark was written
on. A change to quasinv cannot change the kernel, so it shows in full.
Raw latencies are kept next to the scaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter_ns

import numpy as np

_RNG = np.random.default_rng(12345)
_M4 = _RNG.standard_normal((4, 4)) + _RNG.standard_normal((4, 4)).T
_WORDS = np.arange(1, (1 << 17) + 1, dtype=np.uint64)


def python_kernel() -> None:
    """Interpreter-bound work with small numpy calls, like analyze or a process start."""
    acc = 0
    table = {}
    for i in range(18000):
        acc += (i * i) % 7
        table[i % 97] = acc
    for _ in range(180):
        np.linalg.eigvalsh(_M4)
        float(np.einsum("ij,ij->", _M4 @ _M4, _M4))


def numpy_kernel() -> None:
    """Vectorized integer hashing and Box-Muller, like the samplers."""
    z = _WORDS * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    u = (z >> np.uint64(11)) * 2.0**-53
    float((np.sqrt(-2.0 * np.log1p(-u)) * np.cos(6.283185307179586 * u)).sum())


def spawn_kernel() -> None:
    """A bare interpreter start and exit, like the first part of a CLI process."""
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


NOMINAL_MS = {python_kernel: 6.0, numpy_kernel: 6.0, spawn_kernel: 70.0}


class Speed:
    """Kernel ticks between cycles of operations, and the latencies of each cycle."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.nominal_ms = NOMINAL_MS[kernel]
        self.kernel_ms: list[float] = []
        self.cycles: list[list] = []

    def tick(self) -> None:
        """Time the kernel and start a new cycle."""
        start = perf_counter_ns()
        self.kernel()
        self.kernel_ms.append((perf_counter_ns() - start) / 1e6)
        self.cycles.append([])

    def add(self, key: str, ns: int, work: float = 1) -> None:
        self.cycles[-1].append((key, ns, work))

    def finish(self) -> dict:
        """key -> (scaled ns list, raw ns list, summed work)."""
        self.tick()
        out: dict = {}
        for i, cycle in enumerate(self.cycles[:-1]):
            factor = self.nominal_ms / (0.5 * (self.kernel_ms[i] + self.kernel_ms[i + 1]))
            for key, ns, work in cycle:
                scaled, raw, total = out.setdefault(key, ([], [], [0]))
                scaled.append(ns * factor)
                raw.append(ns)
                total[0] += work
        return {k: (scaled, raw, total[0]) for k, (scaled, raw, total) in out.items()}

    def summary(self) -> dict:
        return {"kernel": self.kernel.__name__, "nominal_ms": self.nominal_ms,
                "kernel_ms_p50": statistics.median(self.kernel_ms), "ticks": len(self.kernel_ms)}
