"""Fixed calibration kernels that measure how fast the host runs right now.

A shared host runs the same code up to twice as slow for seconds or minutes
at a time, and how much slower depends on the kind of work: small dense
kernels and interpreter-bound loops slow down far more than large LAPACK
calls. So each workload names the kernel that does its kind of work, and
every timed pass or set-up is bracketed by that kernel; the benchmark scales
the measured time by the kernel's reference time over the mean of the
calibrations around it. The kernels use numpy only, on constant matrices,
or start a bare interpreter that imports numpy; none calls the library, so a
change to the library cannot move them.

Reference times are each kernel's block time on an unloaded 2-core x86-64
host with numpy 2.4 and OpenBLAS pinned to one thread; a reference second is
a second at that speed.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np


def _matrix(n: int) -> np.ndarray:
    rng = np.random.default_rng(20170413 + n)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class _Kernel:
    """One block of work, timed ``blocks`` times around each timed piece of work."""

    blocks = 7
    reference_s = 0.0
    # ReferenceClock runs one block during the work about every this many
    # blocks' worth of reference time; None runs blocks around it only.
    sample_every: int | None = None

    def block(self) -> None:
        raise NotImplementedError

    def block_times(self) -> list[float]:
        times = []
        for _ in range(self.blocks):
            start = time.perf_counter()
            self.block()
            times.append(time.perf_counter() - start)
        return times


class SteadyStateKernel(_Kernel):
    """Singular values and a linear solve of a fixed n x n complex matrix,
    the work of the library's steady-state solve at d^2 = n."""

    def __init__(self, n: int, repeats: int, blocks: int, reference_s: float,
                 sample_every: int):
        self.matrix = _matrix(n)
        self.rhs = np.ones(n, dtype=complex)
        self.repeats, self.blocks, self.reference_s = repeats, blocks, reference_s
        self.sample_every = sample_every

    def block(self) -> None:
        for _ in range(self.repeats):
            np.linalg.svd(self.matrix, compute_uv=False)
            np.linalg.solve(self.matrix, self.rhs)


class Rk4Kernel(_Kernel):
    """Fixed-step RK4 on a 100 x 100 matrix and on a driven 4 x 4 one, the
    two kinds of Python-level stepping in g2(tau) and the amplitude ODE."""

    reference_s = 0.0042
    sample_every = 20

    def __init__(self, steps: int = 100):
        self.big = 1e-2 * _matrix(100)
        self.small = 1e-2 * _matrix(4)
        self.drive = np.ones(4, dtype=complex)
        self.steps = steps

    def block(self) -> None:
        dt = 1e-3
        vec = np.ones(100, dtype=complex)
        liou = self.big
        for _ in range(self.steps):
            k1 = liou @ vec
            k2 = liou @ (vec + 0.5 * dt * k1)
            k3 = liou @ (vec + 0.5 * dt * k2)
            k4 = liou @ (vec + dt * k3)
            vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u = np.zeros(4, dtype=complex)
        mat, drive = self.small, self.drive
        for _ in range(self.steps):
            k1 = mat @ u + drive
            k2 = mat @ (u + 0.5 * dt * k1) + drive
            k3 = mat @ (u + 0.5 * dt * k2) + drive
            k4 = mat @ (u + dt * k3) + drive
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class ImportKernel(_Kernel):
    """A fresh interpreter that imports numpy and exits: the process start,
    file reads and module loading that a benchmark set-up also pays, without
    the library. It runs once before and once after a set-up, never during
    it, so that two processes do not compete for the cores."""

    blocks = 1
    reference_s = 0.15

    def block(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)


def kernel(name: str) -> _Kernel:
    if name == "steady_state_100":
        return SteadyStateKernel(100, repeats=2, blocks=7, reference_s=0.0030, sample_every=50)
    if name == "steady_state_484":
        # a block is long, so sample more often for a few samples per pass
        return SteadyStateKernel(484, repeats=1, blocks=3, reference_s=0.090, sample_every=10)
    if name == "rk4":
        return Rk4Kernel()
    if name == "import":
        return ImportKernel()
    raise KeyError(name)


class ReferenceClock:
    """Times work in reference seconds.

    The kernel runs just before and just after the work, and also during
    it unless its sample_every is None: a timer signal interrupts the work
    about every sample_every blocks' worth of reference time to run one
    block, because a pass of several seconds sees the host change speed more
    than once. The work's wall time, less the time spent in those blocks, is
    scaled by the kernel's reference time over the mean of all the blocks
    timed for it.
    """

    def __init__(self, kernel_name: str):
        self.kernel = kernel(kernel_name)
        self.kernel.block_times()  # warm-up
        self.calibrations: list[float] = []

    def time(self, work):
        """Return work's result, its wall time less the blocks sampled during
        it, and that time in reference seconds."""
        blocks = self.kernel.block_times()
        sampled: list[float] = []

        def sample(signum, frame):
            start = time.perf_counter()
            self.kernel.block()
            sampled.append(time.perf_counter() - start)

        every = self.kernel.sample_every
        if every is not None:
            interval = every * self.kernel.reference_s
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
        start = time.perf_counter()
        try:
            out = work()
        finally:
            if every is not None:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        blocks += sampled + self.kernel.block_times()
        calibration = statistics.fmean(blocks)
        self.calibrations.append(calibration)
        wall -= sum(sampled)
        return out, wall, wall * self.kernel.reference_s / calibration
