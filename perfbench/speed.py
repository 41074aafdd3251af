"""Host-speed normalisation of measured times.

On a shared host the same fixed computation runs up to 1.5x slower for
spells of several seconds (measured on a 2-vCPU VM: a fixed mix of
Python loops and small eigenproblems took 75 to 128 ms within 30 s).
Such spells would swamp any change the benchmark is meant to show.  So
the benchmark runs a small fixed reference kernel between consecutive
operations and, for work done in this process, every SAMPLE_S during an
operation (from a timer signal, leaving that time out of the operation's
time), and scales each operation by the kernel's reference duration over
its measured duration around and during the operation:

    normalized = measured * REFERENCE_S / median(kernel runs around and in it)

The kernel is the benchmark's own code and never calls polyrep, so a
change to polyrep cannot move it.  A normalized time reads in seconds at
the reference speed (REFERENCE_S per kernel); raw times are kept in the
run's result file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import statistics
import time

import numpy as np

# Duration of one kernel at the reference speed (about this host's fast
# spells).  Any constant works; it only fixes the scale.
REFERENCE_S = 0.008
# Interval of the kernel runs inside a timed block of in-process work.
SAMPLE_S = 0.25

_MATS = [m + m.T for m in np.random.default_rng(0).standard_normal((4, 8, 8))]
_IDX = np.arange(8)


def kernel() -> float:
    """Time one fixed mix of interpreter work and small numpy calls."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50000):
        acc += (i * i) % 7
    for k in range(160):
        np.linalg.eigvalsh(_MATS[k % 4])
        _MATS[k % 4][np.ix_(_IDX[:5], _IDX[3:])].sum()
    return time.perf_counter() - t0


def factor_now(runs: int = 5) -> float:
    """REFERENCE_S over the median of kernel runs made now."""
    return REFERENCE_S / statistics.median(kernel() for _ in range(runs))


class SpeedTrack:
    """Kernel runs around, and optionally inside, consecutive timed blocks.

    `timed()` runs the kernel right after each block (the run after one
    block is the run before the next).  With `sample_inside`, a timer
    signal also runs it every SAMPLE_S while the block runs, and that
    time is left out of the block's measured time; a block that the
    signal pauses (in-process work) is then normalized by the speed seen
    during it, not only at its edges.  A block is normalized by the
    median of the runs inside it and the three before and after it.
    """

    def __init__(self, sample_inside: bool):
        self.kernels = [kernel()]
        self.sample_inside = sample_inside

    @contextlib.contextmanager
    def timed(self):
        block = Block(len(self.kernels) - 1)

        def on_alarm(signum, frame):
            t0 = time.perf_counter()
            self.kernels.append(kernel())
            block.paused += time.perf_counter() - t0

        if self.sample_inside:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            yield block
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            block.seconds = time.perf_counter() - t0 - block.paused
            self.kernels.append(kernel())
            block.last = len(self.kernels) - 1

    def factor(self, block: "Block") -> float:
        window = self.kernels[max(0, block.first - 2) : block.last + 3]
        return REFERENCE_S / statistics.median(window)


@dataclasses.dataclass
class Block:
    first: int  # index of the kernel run right before the block
    last: int = -1  # index of the kernel run right after it
    seconds: float = 0.0  # measured time, kernel runs inside left out
    paused: float = 0.0
