"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host the same trial can take up to twice as long from one minute
to the next, because other tenants contend for the core and its caches.  The
benchmark times reference kernels next to every trial and scales the trial's
time by ``nominal / measured`` reference time, which cancels most of that
drift (see ``README.md``).  The kernels use only numpy and Python, never
``maxgap``, so a change to the package moves the trials and not the reference.

Contention slows the two kinds of work the workloads do by different amounts,
so there is one kernel for each, and each workload names the kernels that match
its own work:

- ``numpy_calls``: many small numpy calls driven from Python, like the bound
  updates at K=90;
- ``draws``: large blocks of normal draws reduced over an axis, like
  ``sample_block``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds each kernel takes on an uncontended 2-vCPU Xeon host (rounded), so
# corrected times read as uncontended seconds.
NOMINAL_S = {"numpy_calls": 0.021, "draws": 0.0165}


class Reference:
    """Times the reference kernels named by one workload."""

    def __init__(self, kernels: tuple[str, ...]) -> None:
        if not kernels or not set(kernels) <= NOMINAL_S.keys():
            raise ValueError(f"unknown reference kernels {kernels!r}")
        self.kernels = tuple(getattr(self, k) for k in kernels)
        self.nominal_s = sum(NOMINAL_S[k] for k in kernels)
        rng = np.random.default_rng(12345)
        self._x = rng.random(90)
        self._y = rng.random(400)
        self._items = list(range(300))
        self._rng = np.random.Generator(np.random.PCG64(1))

    def time(self) -> float:
        """Wall seconds of one pass over the workload's kernels."""
        t0 = perf_counter()
        for kernel in self.kernels:
            kernel()
        return perf_counter() - t0

    def numpy_calls(self) -> None:
        x, y, items = self._x, self._y, self._items
        for _ in range(1800):
            np.searchsorted(np.sort(x), y)
            np.minimum.accumulate(x[::-1])
            np.lexsort((x, -x))
            sum(items)

    def draws(self) -> None:
        for _ in range(12):
            self._rng.standard_normal((4000, 24)).sum(axis=0)
