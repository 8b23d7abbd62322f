"""Largest-gap bandit: adaptively cluster arms at the biggest mean gap.

Sample K noisy arms to find the largest difference between adjacent means and
return the induced two-cluster partition with fixed-confidence guarantees.
See ``env`` (instances), ``confidence`` (anytime intervals), ``gapbounds``
(gap confidence bounds), ``algorithms`` (adaptive samplers and baselines),
``hardness`` (difficulty parameters), and ``cli`` (experiment harness).
"""

from .algorithms import (
    ALGORITHMS,
    CheckpointRecord,
    RunConfig,
    RunTrace,
    max_gap_elim,
    max_gap_top2_ucb,
    max_gap_ucb,
    naive_sort_then_bai,
    report_clusters,
    uniform_baseline,
)
from .confidence import (
    ArmStats,
    IntervalState,
    IntervalTracker,
    radius,
    update,
)
from .env import (
    ArmSpec,
    Instance,
    InstanceError,
    build_lower_bound_instance,
    build_one_gap_instance,
    build_two_gap_instance,
    load_means_file,
    sample,
    sample_block,
    sample_sums,
)
from .gapbounds import (
    IntervalSnapshot,
    brute_force_upper_gap,
    left_anchor_gap,
    lower_max_gap,
    right_anchor_gap,
    upper_gap,
    upper_gaps,
)
from .hardness import (
    HardnessReport,
    gamma,
    hardness_report,
    naive_gamma,
    predicted_complexity,
    rho,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ArmSpec",
    "ArmStats",
    "CheckpointRecord",
    "HardnessReport",
    "Instance",
    "InstanceError",
    "IntervalSnapshot",
    "IntervalState",
    "IntervalTracker",
    "RunConfig",
    "RunTrace",
    "build_lower_bound_instance",
    "build_one_gap_instance",
    "build_two_gap_instance",
    "brute_force_upper_gap",
    "gamma",
    "hardness_report",
    "left_anchor_gap",
    "load_means_file",
    "lower_max_gap",
    "max_gap_elim",
    "max_gap_top2_ucb",
    "max_gap_ucb",
    "naive_gamma",
    "naive_sort_then_bai",
    "predicted_complexity",
    "radius",
    "report_clusters",
    "rho",
    "right_anchor_gap",
    "sample",
    "sample_block",
    "sample_sums",
    "uniform_baseline",
    "update",
    "upper_gap",
    "upper_gaps",
]
