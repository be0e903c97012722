"""Host-speed calibration for timings taken on a shared machine.

On a host whose cores are shared with other tenants, the same call runs
faster or slower by up to a third from one minute to the next, and every
kind of work here (interpreter dispatch, small numpy ops, BLAS) slows
together. A run therefore times a fixed calibration kernel between its
units, and each unit's time is scaled by ``REFERENCE_SECONDS`` over the
kernel time measured around it. A calibrated time reads as the time the unit
would take on a host where the kernel takes ``REFERENCE_SECONDS`` (its median
on the 2-core box where the baseline was measured). The kernel is the
benchmark's own reference model plus a pure-Python loop, so nothing a change
to the package does can speed it up or slow it down.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

import reference

REFERENCE_SECONDS = 0.0065


@functools.lru_cache(maxsize=1)
def _inputs():
    rng = np.random.default_rng(0)
    n = 8
    observed = np.cumsum(rng.uniform(-1.0, 1.0, (n, 6, 2)), axis=1)
    future = observed[:, -1:, :] + np.cumsum(rng.uniform(-1.0, 1.0, (n, 6, 2)), axis=1)
    scene = {"observed": observed, "future": future, "plan": future[0].copy(),
             "obs_mask": np.ones((n, 6), dtype=bool),
             "fut_mask": np.ones((n, 6), dtype=bool),
             "categories": ["vehicle", "pedestrian", "bicyclist", "others"] * 2}
    return scene, reference.init_params(64, 0)


def kernel_seconds() -> float:
    scene, params = _inputs()
    start = time.perf_counter()
    reference.predict(scene, params)
    sum(i * i % 7 for i in range(20000))
    return time.perf_counter() - start


class Calibration:
    """Kernel times taken before the first unit and after every unit; each
    sample is the median of ``repeats`` kernel runs."""

    def __init__(self, repeats: int = 1):
        self.repeats = repeats
        self.times = []
        self.sample()

    def sample(self) -> None:
        self.times.append(statistics.median(kernel_seconds() for _ in range(self.repeats)))

    def factor(self, unit: int) -> float:
        """Scale for unit ``unit``: the median kernel time of the two
        samples around it and their neighbours."""
        return REFERENCE_SECONDS / statistics.median(self.times[max(0, unit - 1):unit + 3])

    def overall(self) -> float:
        return REFERENCE_SECONDS / statistics.median(self.times)
