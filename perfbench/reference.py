"""Fixed reference kernels that gauge the machine's speed beside the timing.

On a shared host the same detection runs up to about 1.8x slower for
seconds to minutes at a time, while nothing in the guest is busy: the
neighbours on the host share the core, caches and memory bandwidth. A
kernel that does the same kind of work as the timed code slows down with
it. The benchmark times one such kernel right before and right after each
timed step, and divides the step's time by the mean of the two, scaled by
the kernel's nominal seconds. A timing reported that way is in reference
seconds: the time the step would take on this machine while the kernel
takes its nominal time. The kernels are benchmark code and numpy alone, so
a change to the detector leaves them as they are and shows in full in the
ratio.

The nominal seconds are each kernel's median on a 2-vCPU KVM guest (Python
3.11, numpy 2.4) in a quiet spell; they set the scale of the reported
figures and nothing else.
"""

from __future__ import annotations

import mmap
import time


class StreamKernel:
    """Sweeps like one batched ADMM iteration over (rows, cols) float64 arrays.

    Elementwise products, a clip and row dot products over six arrays of
    rows x cols: the memory-bound pattern of the robust periodogram, at a
    batch size typical of the workload. The arrays live in an anonymous
    mapping that is unmapped when the call returns, so they leave no freed
    blocks in the heap the detector allocates from and add nothing to its
    peak memory while they are smaller than its own working set.
    """

    def __init__(self, rows: int, cols: int, sweeps: int, nominal_s: float):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.rows_init = rng.standard_normal((3, cols))
        self.b_init = rng.standard_normal((2, rows))
        self.shape = (rows, cols)
        self.sweeps = sweeps
        self.nominal_s = nominal_s

    def __call__(self) -> float:
        rows, cols = self.shape
        arena = mmap.mmap(-1, 6 * rows * cols * 8)
        arrays = self.np.frombuffer(arena, self.np.float64).reshape(6, rows, cols)
        try:
            return self._sweeps(*arrays)
        finally:
            del arrays  # the mapping cannot close while a view of it exists
            arena.close()

    def _sweeps(self, cos, sin, x, u, v, z) -> float:
        np = self.np
        cos[:], sin[:], x[:] = self.rows_init
        u.fill(0.0)
        b0, b1 = self.b_init
        for _ in range(self.sweeps):
            np.multiply(cos, b0[:, None], out=v)
            np.multiply(sin, b1[:, None], out=z)
            v += z
            v += u
            v -= x
            np.clip(v, -1.0, 1.0, out=z)
            z /= -2.0
            z += v
            np.subtract(v, z, out=u)
            b0 = np.einsum("ij,ij->i", cos, z) * 1e-3
            b1 = np.einsum("ij,ij->i", sin, z) * 1e-3
        return float(b0[0] + b1[0])


class SmallKernel:
    """Many short numpy calls on one series: a circular filter, a median, an FFT.

    The non-robust pipeline is a chain of such calls on arrays of a few
    thousand samples, where per-call overhead weighs as much as the work.
    """

    def __init__(self, length: int, calls: int, nominal_s: float):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(length)
        self.taps = rng.standard_normal(8)
        self.idx = (np.arange(length)[:, None] - np.arange(8)[None, :]) % length
        self.calls = calls
        self.nominal_s = nominal_s

    def __call__(self) -> float:
        np = self.np
        acc = 0.0
        for _ in range(self.calls):
            y = self.x[self.idx] @ self.taps
            acc += float(np.median(np.abs(y)))
            spectrum = np.fft.rfft(y, 2 * y.size)
            acc += float(np.abs(spectrum[1:64]).max())
        return acc


class InterpreterKernel:
    """Pure-Python dictionary and string work, like importing modules.

    Needs no import, so it can gauge a fresh interpreter before numpy loads.
    """

    def __init__(self, items: int, nominal_s: float):
        self.items = items
        self.nominal_s = nominal_s

    def __call__(self) -> int:
        table = {}
        for i in range(self.items):
            table[f"name{i}"] = i * i % 7
        return sum(table.values())


def gauge(kernel, clock=time.perf_counter) -> float:
    """One run of ``kernel``: its wall time over its nominal time."""
    start = clock()
    kernel()
    return (clock() - start) / kernel.nominal_s
