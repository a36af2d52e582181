"""A fixed reference kernel that tracks the speed of a shared host.

On a machine shared with other tenants the same work can take 40 % longer
from one minute to the next, so raw wall times drift more than any bound a
regression gate can use. The benchmark therefore times this kernel right
before and right after each timed operation and reports the operation's
wall time scaled by REFERENCE_S over the kernel's mean time: the operation's
duration on a host where the kernel takes REFERENCE_S. The kernel uses no
expandforge code, so a change to the program cannot move it; it mixes the
kinds of work the program does (small numpy calls from a Python loop, a
BLAS product, sha256 over a buffer).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

REFERENCE_S = 0.01  # about the kernel's time between operations on the development VM


class HostSpeed:
    def __init__(self):
        gen = np.random.default_rng(0)
        self._a = gen.standard_normal((64, 256))
        self._v = gen.standard_normal(256)
        self._b = gen.standard_normal((256, 512))
        self._c = gen.standard_normal((512, 32))
        self._buf = gen.bytes(1 << 19)

    def kernel_s(self) -> float:
        start = time.perf_counter()
        for _ in range(600):
            x = self._a @ self._v
            y = np.exp(x - x.max())
            float((y / y.sum()) @ x)
        self._b @ self._c
        hashlib.sha256(self._buf).digest()
        return time.perf_counter() - start

    @staticmethod
    def scale(before_s: float, after_s: float) -> float:
        """Factor that turns a wall time measured between two kernel runs into reference time."""
        return REFERENCE_S / ((before_s + after_s) / 2)
