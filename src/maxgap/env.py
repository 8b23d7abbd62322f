"""Problem instances: true arm means, Gaussian noise, and ground-truth gap structure.

An instance is a fixed set of arms, each with a true mean and a sub-Gaussian
noise scale (here: Gaussian standard deviation).  The quantity of interest is
the largest difference between *adjacent* means in sorted order, and the
two-cluster partition it induces.  Instances are immutable after construction
and safe to share across trials; randomness lives entirely in the per-trial
generator passed to the sampling functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ArmSpec",
    "Instance",
    "InstanceError",
    "sample_block",
    "sample_sums",
    "build_two_gap_instance",
    "build_one_gap_instance",
    "build_lower_bound_instance",
    "load_means_file",
]


def _descending_order(values: np.ndarray) -> np.ndarray:
    """Indices by descending value, ties by ascending index (a stable sort),
    ``nan`` last: the one arm order of the package."""
    return (-values).argsort(kind="stable")


def _split_order(order: np.ndarray, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first ``m`` arms of ``order`` and the rest, as sorted index tuples."""
    return (
        tuple(sorted(int(i) for i in order[:m])),
        tuple(sorted(int(i) for i in order[m:])),
    )


class InstanceError(ValueError):
    """Raised when a set of arms does not form a valid problem instance."""


@dataclass(frozen=True)
class ArmSpec:
    """One sampleable arm: true mean and Gaussian noise scale (sigma >= 0)."""

    mean: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise InstanceError(f"arm mean must be finite, got {self.mean}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise InstanceError(f"arm sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class Instance:
    """A fixed collection of K >= 3 arms with a unique largest adjacent-mean gap.

    Derived attributes (all cached):

    - ``sorted_order``: arm indices sorted by descending mean; rank ``j``
      (1-based) corresponds to ``sorted_order[j - 1]``.  Ties in means are
      broken by ascending arm index so the ordering is deterministic.
    - ``adjacent_gaps``: the K-1 differences between consecutive sorted means.
    - ``gaps``: per-arm gap, the max of the arm's left and right adjacent
      differences; extreme ranks take their single finite side.
    - ``delta_max`` / ``split_rank``: value and (1-based) rank of the unique
      largest adjacent gap.
    - ``top_cluster`` / ``bottom_cluster``: arm indices above / below the split.

    Construction rejects instances where the largest adjacent gap is tied
    (exact float comparison), since the target partition would be ambiguous.
    """

    arms: tuple[ArmSpec, ...]

    def __post_init__(self) -> None:
        if len(self.arms) < 3:
            raise InstanceError(f"need at least 3 arms, got {len(self.arms)}")
        gaps = self.adjacent_gaps
        best = gaps.max()
        if best <= 0.0 or int((gaps == best).sum()) != 1:
            raise InstanceError(
                "largest adjacent gap must be unique and positive; "
                f"adjacent gaps: {gaps.tolist()}"
            )

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    @cached_property
    def means(self) -> np.ndarray:
        return np.array([a.mean for a in self.arms], dtype=float)

    @cached_property
    def sigmas(self) -> np.ndarray:
        return np.array([a.sigma for a in self.arms], dtype=float)

    @cached_property
    def sorted_order(self) -> np.ndarray:
        return _descending_order(self.means)

    @cached_property
    def sorted_means(self) -> np.ndarray:
        return self.means[self.sorted_order]

    @cached_property
    def adjacent_gaps(self) -> np.ndarray:
        s = self.sorted_means
        return s[:-1] - s[1:]

    @cached_property
    def delta_max(self) -> float:
        return float(self.adjacent_gaps.max())

    @cached_property
    def split_rank(self) -> int:
        """1-based rank m such that the largest gap lies between ranks m and m+1."""
        return int(np.argmax(self.adjacent_gaps)) + 1

    @cached_property
    def gaps(self) -> np.ndarray:
        """Per-arm gap: max of the two adjacent differences touching the arm."""
        s = self.sorted_means
        k = self.n_arms
        left = np.empty(k)   # gap to the next-smaller mean
        right = np.empty(k)  # gap to the next-larger mean
        left[:-1] = s[:-1] - s[1:]
        left[-1] = -np.inf   # smallest arm has no left gap
        right[1:] = s[:-1] - s[1:]
        right[0] = -np.inf   # largest arm has no right gap
        by_rank = np.maximum(left, right)
        out = np.empty(k)
        out[self.sorted_order] = by_rank
        return out

    @cached_property
    def top_cluster(self) -> tuple[int, ...]:
        return _split_order(self.sorted_order, self.split_rank)[0]

    @cached_property
    def bottom_cluster(self) -> tuple[int, ...]:
        return _split_order(self.sorted_order, self.split_rank)[1]


def _checked_arms(instance: Instance, arm_indices: np.ndarray) -> np.ndarray:
    """``arm_indices`` as an int array; an index outside [0, K) is an ``IndexError``."""
    arm_indices = np.asarray(arm_indices, dtype=int)
    if arm_indices.size and (arm_indices.min() < 0 or arm_indices.max() >= instance.n_arms):
        raise IndexError("arm index out of range")
    return arm_indices


def sample_block(
    instance: Instance,
    arm_indices: np.ndarray,
    n_rounds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n_rounds`` rewards from each listed arm; shape (n_rounds, len(arms)).

    Each draw is ``mean + sigma * z``, with ``z`` from one
    ``rng.standard_normal((n_rounds, len(arms)))``: row i holds round i's
    draws in the given arm order, the same values that one
    ``rng.standard_normal()`` per draw, round by round, would give.
    """
    arm_indices = _checked_arms(instance, arm_indices)
    z = rng.standard_normal((n_rounds, arm_indices.size))
    return instance.means[arm_indices] + instance.sigmas[arm_indices] * z


def sample_sums(
    instance: Instance,
    arm_indices: np.ndarray,
    n_rounds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sum of ``n_rounds`` rewards from each listed arm; shape (len(arms),).

    The sum of n Gaussian draws has law N(n * mean, n * sigma^2), so one
    normal per listed arm gives it exactly; a repeated index gets its own.
    With ``n_rounds = 1`` the stream and the result equal ``sample_block``'s
    single row bit for bit.
    """
    return _sample_sums(instance, _checked_arms(instance, arm_indices), n_rounds, rng)


def _sample_sums(
    instance: Instance, arm_indices: np.ndarray, n_rounds: int, rng: np.random.Generator
) -> np.ndarray:
    """``sample_sums`` without the index check: ``arm_indices`` must be an
    int array of valid arms.  Runs draw through this form."""
    z = rng.standard_normal(arm_indices.size)
    return (
        n_rounds * instance.means[arm_indices]
        + math.sqrt(n_rounds) * instance.sigmas[arm_indices] * z
    )


def _instance_from_sorted_gaps(
    top_mean: float, gaps_desc: Sequence[float], sigma: float
) -> Instance:
    """Build an instance from the top mean and adjacent gaps in descending rank order.

    Arms are labelled in descending-mean order, so 1-based arm i is rank i.
    """
    means = [top_mean]
    for g in gaps_desc:
        means.append(means[-1] - g)
    return Instance(tuple(ArmSpec(mean=m, sigma=sigma) for m in means))


def build_two_gap_instance() -> Instance:
    """24 unit-variance arms with competing large gaps 0.98 and 1.0.

    Adjacent gaps, top to bottom: 0.2 everywhere except 0.98 between ranks 9
    and 10 and 1.0 between ranks 18 and 19.  The true top cluster is ranks
    1..18 (arm indices 0..17).
    """
    gaps = [0.2] * 23
    gaps[8] = 0.98
    gaps[17] = 1.0
    top = float(sum(gaps))
    return _instance_from_sorted_gaps(top, gaps, sigma=1.0)


def build_one_gap_instance(n_arms: int, delta_min: float, delta_max: float) -> Instance:
    """Ladder of equal small gaps with one large gap at rank floor(K/2)."""
    if n_arms < 3:
        raise InstanceError(f"need at least 3 arms, got {n_arms}")
    if not delta_min < delta_max:
        raise InstanceError(
            f"delta_min must be strictly below delta_max, got {delta_min} >= {delta_max}"
        )
    gaps = [delta_min] * (n_arms - 1)
    gaps[n_arms // 2 - 1] = delta_max
    top = float(sum(gaps))
    return _instance_from_sorted_gaps(top, gaps, sigma=1.0)


def build_lower_bound_instance(nu: float, epsilon: float) -> Instance:
    """Four unit-variance arms with means (2*nu+2*eps, nu+2*eps, eps, 0).

    Arm 4 (index 3) has mean 0; separating it from arm 3 is the hard decision
    that drives the instance's difficulty.  Requires nu > 2*epsilon so the
    largest gap (nu + epsilon, between arms 2 and 3) is unambiguous.
    """
    if not (epsilon > 0 and nu > 2 * epsilon):
        raise InstanceError(f"need nu > 2*epsilon > 0, got nu={nu}, epsilon={epsilon}")
    means = [2 * nu + 2 * epsilon, nu + 2 * epsilon, epsilon, 0.0]
    return Instance(tuple(ArmSpec(mean=m, sigma=1.0) for m in means))


def load_means_file(path: str, sigma: float) -> Instance:
    """Read an instance from a plain text file, one decimal mean per line.

    Arms keep the file's order; all arms share the given sigma.  Fails on
    empty files, unparseable or non-finite lines (naming ``path:line``),
    fewer than 3 arms, or a tied largest gap.
    """
    means: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                mean = float(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: cannot parse mean {text!r}") from exc
            if not math.isfinite(mean):
                raise InstanceError(f"{path}:{lineno}: arm mean must be finite, got {text!r}")
            means.append(mean)
    if not means:
        raise ValueError(f"{path}: empty means file")
    if len(means) < 3:
        raise InstanceError(f"{path}: need at least 3 means, got {len(means)}")
    return Instance(tuple(ArmSpec(mean=m, sigma=sigma) for m in means))
