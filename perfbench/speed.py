"""Machine-speed calibration for timings taken on a shared virtual machine.

On the 2-vCPU VM this benchmark was built on, each vCPU switches between a
fast and a slow state for stretches of seconds to minutes while the VM is
otherwise idle (presumably other guests on the host; steal time stays near zero). A fixed
kernel ran 1.37x slower in the slow state, and a 20-second run cannot
average the states out: the mean rerank latency of six back-to-back runs of
one input spread by 19% (interquartile range over median).

So a fixed calibration kernel, which does not touch mirank, is timed just
before and just after every operation, and the operation's time is scaled
by the kernel's nominal time over the mean of those two kernel times. The
state can change within a second, so the samples must be that close: over
ten 10-second stretches of the evaluate workload, the median latency spread
by 42% unscaled, 5.8% scaled by the median kernel time of the 11 nearest
operations, and 4.2% scaled by the two adjacent samples. Interpreter-bound
and numpy-bound code slow by different factors in the slow state, so each
workload calibrates with the kernels that resemble its own mix: against a
numpy kernel, the evaluate workload's time moved 1.6x as much as the
kernel's, and against an interpreter kernel 1.0x as much.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

# Kernel samples on either side of a set-up.
SETUP_SAMPLES = 3

_RECORDS = json.dumps([{"id": i, "price": 1.37 * i, "features": [0.1 * i] * 10} for i in range(30)])
_PAIRS = np.random.default_rng(1).standard_normal((200, 50, 20))
_WEIGHTS = np.random.default_rng(2).standard_normal(20)


def interpreter_kernel() -> None:
    """JSON parsing, dict building and hashing, like log and CLI handling."""
    for _ in range(3):
        totals = {}
        for entry in json.loads(_RECORDS):
            totals[entry["id"]] = sum(entry["features"]) + entry["price"]
        hashlib.sha256(_RECORDS.encode()).digest()


def numpy_kernel() -> None:
    """Batched products, ReLU and softmax over mid-sized arrays, like the models."""
    for _ in range(3):
        scores = np.maximum(_PAIRS @ _WEIGHTS, 0.0)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)


# Fixed reference times of the kernels, run back to back on that VM in its
# fast state. Only their constancy matters: they set the unit of every scaled
# time, which is not a wall time (between mirank calls the kernels run with
# colder caches, so scales are typically near 0.5).
NOMINAL_S = {interpreter_kernel: 0.00028, numpy_kernel: 0.00037}


class Calibration:
    """Scales times to nominal machine speed with a fixed set of kernels."""

    def __init__(self, *kernels):
        self.kernels = kernels
        self.nominal_s = sum(NOMINAL_S[kernel] for kernel in kernels)

    def sample(self) -> float:
        """Wall time of one run of every kernel."""
        start = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        return time.perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        """Factor that scales a time taken between two samples to nominal speed."""
        return 2.0 * self.nominal_s / (before + after)

    def timed(self, fn):
        """Run ``fn()`` between two groups of kernel samples.

        Returns (result, wall seconds, seconds scaled to nominal speed).
        """
        before = [self.sample() for _ in range(SETUP_SAMPLES)]
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        after = [self.sample() for _ in range(SETUP_SAMPLES)]
        return result, seconds, seconds * self.scale(statistics.median(before), statistics.median(after))
