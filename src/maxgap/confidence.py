"""Per-arm empirical statistics and anytime confidence intervals.

Two interval forms are defined.  The raw interval after s samples is
``mean_hat +- radius(s)`` with
``radius(s) = sigma * sqrt(2 * log(4*K*s^2/delta) / s)``, an anytime
sub-Gaussian bound: a union bound over arms and sample counts gives
``sum_a sum_s 2 exp(-s c_s^2 / (2 sigma^2)) = (pi^2/12) delta < delta``, so
with probability at least 1-delta every arm's true mean lies inside its raw
interval at every step.  (Without the factor 2 the union bound diverges and
the coverage guarantee measurably fails.)  The monotone envelope
keeps the running max of lower bounds and running min of upper bounds, so
envelopes are nested over time and contain the true mean at every step exactly
when the raw intervals always did.  Only the envelopes are kept; a raw
interval exists only inside the refresh that tightens its arm's envelope.
"""

from __future__ import annotations

import math

import numpy as np

from .env import Instance

__all__ = [
    "radius",
    "IntervalTracker",
]


def radius(count: int, n_arms: int, delta: float, sigma: float) -> float:
    """Anytime confidence radius after ``count`` samples of one arm.

    Scales linearly in sigma; strictly decreasing in the count over the
    relevant range and vanishing as count grows.  The count must be >= 1
    (no interval exists before the first sample).  This checked scalar form
    is the reference that ``IntervalTracker.radius`` is tested against.
    """
    if count < 1:
        raise ValueError(f"interval undefined before the first sample (count={count})")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if n_arms < 2:
        raise ValueError(f"need at least 2 arms, got {n_arms}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    s = float(count)
    return sigma * math.sqrt(2.0 * math.log(4.0 * n_arms * s * s / delta) / s)


class IntervalTracker:
    """Vectorized counts, sums, means and envelopes for all arms of one run.

    ``add`` accumulates per-arm block sums, keeps the means of the arms it
    touched and marks them; ``refresh`` tightens the envelopes of those arms
    only, by ``mean +- radius``.  An untouched arm's interval is unchanged,
    and tightening an envelope by the same interval again is a no-op, so
    this equals a recompute over every sampled arm.  Whole runs are checked
    against a per-arm, plain-Python reference in ``tests/test_reference_run.py``.
    """

    def __init__(self, n_arms: int, sigmas: np.ndarray, delta: float):
        if n_arms < 3:
            raise ValueError(f"need at least 3 arms, got {n_arms}")
        self.n_arms = n_arms
        self.sigmas = np.asarray(sigmas, dtype=float)
        self.delta = float(delta)
        self.counts = np.zeros(n_arms, dtype=np.int64)
        self.sums = np.zeros(n_arms, dtype=float)
        self.l_env = np.full(n_arms, -np.inf)
        self.r_env = np.full(n_arms, np.inf)
        self._touched = np.zeros(n_arms, dtype=bool)  # added to since the last refresh
        self._means = np.full(n_arms, np.nan)  # sums / counts, nan before the first sample

    def add(self, arm_indices: np.ndarray, n_rounds: int, sums: np.ndarray) -> None:
        """Accumulate ``n_rounds >= 1`` draws per listed arm, totalling ``sums``.

        Indices may repeat (an arm drawn twice per round); contributions
        accumulate per occurrence.
        """
        np.add.at(self.counts, arm_indices, n_rounds)
        np.add.at(self.sums, arm_indices, sums)
        self._touched[arm_indices] = True
        self._means[arm_indices] = self.sums[arm_indices] / self.counts[arm_indices]

    @property
    def means(self) -> np.ndarray:
        """Empirical means, a fresh array; ``nan`` for an arm not sampled yet."""
        return self._means.copy()

    def radius(self, counts: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        """Elementwise ``radius`` at this run's K and delta.

        The formula every run uses; unchecked, so every count must be >= 1.
        """
        return sigmas * np.sqrt(
            2.0 * np.log(4.0 * self.n_arms * counts * counts / self.delta) / counts
        )

    def refresh(self) -> None:
        arms = self._touched.nonzero()[0]
        self._touched.fill(False)
        # float counts: the radius on int64 counts takes twice as long
        c = self.radius(self.counts[arms].astype(float), self.sigmas[arms])
        mean = self._means[arms]
        self.l_env[arms] = np.maximum(self.l_env[arms], mean - c)
        self.r_env[arms] = np.minimum(self.r_env[arms], mean + c)

    def contains_truth(self, instance: Instance) -> bool:
        """The good event: every true mean lies inside its envelope, which is
        equivalent to the raw intervals having covered the truth at every
        refresh so far.  A diagnostic that peeks at ground truth."""
        return bool(
            np.all((self.l_env <= instance.means) & (instance.means <= self.r_env))
        )
