"""Wall time normalised for the speed the machine gives this thread.

On the shared 2-core machine this benchmark was built on, one thread's
speed switches between a fast and a slow state, about 2x apart, on a
scale of seconds, and the share of slow time drifts over minutes.  Over
five minutes, raw times of the same call spread 23-44% (interquartile
range over median).

`SpeedSampler` times a small fixed kernel from a SIGALRM handler every
`PERIOD_S` of wall time while it is active, so the samples fall inside the
measured code.  `measure` removes the handler's own time from a call's
wall time and scales the rest by the mean of `ref_s / sample`, which
turns it into seconds at the speed where the kernel takes `ref_s`.

Kernels run no edgealloc code, so a change to edgealloc does not change
the scale.  Of three kernels tried on solves, oracle calls and 0.3 s
batches of tiny solves, the small-array numpy one cut those spreads to
3.5-6.4%, a pure-Python loop to 8-17%, and a random walk over a list to
19-31%.  The import probe uses the pure-Python loop, because it must
sample before numpy is loaded; it cut the import's spread from 15% to
6%.  This module imports only the standard library at load time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
PYTHON_REF_S = 115e-6  # typical times of the kernels inside the handler
NUMPY_REF_S = 230e-6


def python_kernel() -> int:
    acc = 0
    for i in range(1000):
        acc += i * (i ^ 7)
    return acc


def make_numpy_kernel():
    """The kernel for solver code: small-array numpy calls mixed with
    interpreter work, as in the solvers."""
    import numpy as np  # deferred so that the import probe can load this module first

    x = np.linspace(0.0, 1.0, 64)

    def numpy_kernel() -> float:
        acc = 0.0
        for k in range(20):
            y = np.sqrt(x * x + k) - x
            acc += float(y.sum()) + sum(i * (i ^ k) for i in range(20))
        return acc

    return numpy_kernel


class SpeedSampler:
    """Context manager that samples the kernel's time while active.

    `measure` works outside the `with` block too: with no samples it
    returns raw wall time.
    """

    def __init__(self, kernel, ref_s: float):
        self.kernel = kernel
        self.ref_s = ref_s
        self.samples: list = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn, *args):
        """Call `fn(*args)`; return its result and its normalised seconds."""
        first = len(self.samples)
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        during = self.samples[first:]
        seconds = wall - sum(during)
        if during:
            seconds *= statistics.fmean(self.ref_s / s for s in during)
        return out, seconds
