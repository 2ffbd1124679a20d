"""Machine-speed probe for the set-up time.

The benchmark runs on a few cores of a shared host.  Other tenants on the
same physical cores slow it down by up to about 60%, in phases that last
from a second to several minutes.  A set-up is too short to pair with a
run of the frozen reference package (see ``pipeline``), so each set-up
process times a fixed kernel right after its set-up instead.  The kernel is
benchmark code, made of the same kinds of work as the pipeline
(interpreted Python loops, numpy calls on small arrays, numpy gathers over
a draw-sized array), so no change to the package can make it faster or
slower.  A set-up's normalised time is its wall time multiplied by ``REF_S``
over the median kernel time.  ``REF_S`` is a round figure near the
kernel's typical time on the machine the baseline was measured on (2 shared
vCPUs of an Intel Xeon, Python 3.11, numpy 2.4), so normalised times read
as seconds on that machine at a typical load.
"""

import math
import statistics
import time

import numpy as np

REF_S = 1.5e-3

_rng = np.random.default_rng(20150513)
_SMALL = _rng.random(64)
_ROWS = _rng.integers(0, 8, size=(8, 200))
_DRAWS = _rng.integers(0, 8, size=(1000, 200)).astype(np.int32)
_GATHER = _rng.permutation(_DRAWS.size)[:40000]
_COUNTS = _rng.integers(1, 9, size=12)
_S1 = _rng.random(12)
_S2 = _rng.random(12)
_U = _rng.random(16)


def kernel() -> float:
    """The reference work; about ``REF_S`` seconds at a typical load.

    In time, about 2 parts interpreted loop, 1 part numpy on small arrays,
    1 part numpy over a draw-sized array and 2 parts seat draws shaped
    like one step of a collapsed Gibbs sweep.
    """
    x = 0
    for i in range(6000):
        x += i * i
    s = 0.0
    for _ in range(60):
        s += float(np.exp(_SMALL).sum())
    for row in _ROWS:
        s += float(np.bincount(row, minlength=8).max())
    s += float(_DRAWS.ravel()[_GATHER].sum())
    s += float((_DRAWS[:, :100] == _DRAWS[:, 100:]).sum())
    k = 8
    for u in _U:
        logw = np.log(_COUNTS[: k + 1] + 1.0) - 0.5 * np.log(_S2[: k + 1] + _S1[: k + 1] ** 2)
        logw[:k] += np.log(_COUNTS[:k])
        logw[k] += math.log(0.5)
        logw -= logw.max()
        weights = np.exp(logw)
        weights /= weights.sum()
        s += min(int(np.searchsorted(np.cumsum(weights), u)), k)
    return x + s


def normalised(seconds: float, kernel_s: list[float]) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at ``REF_S`` speed."""
    return seconds * REF_S / statistics.median(kernel_s)


def kernel_times(n: int) -> list[float]:
    """Seconds the kernel takes, ``n`` times in a row."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times
