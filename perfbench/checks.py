"""Correctness gates applied to every run the benchmark makes.

``trace_problems`` and ``elimination_problems`` restate the invariants of
``tests/conftest.py`` (``check_trace_invariants`` and
``check_elimination_monotone``) as checks that name what broke instead of
raising, so one broken run is counted rather than ending the benchmark, and so
they hold under ``python -O``.  One scope is narrower than there: the
invariants on the upper bounds cover the records before an arm's envelope
crosses (see ``crossed_records``).

``bound_problems`` cross-checks the fast gap bounds: ``cli.verify_bounds``
against the brute-force oracle at small K, and, on interval rows recorded by
real runs at any K, ``upper_gaps`` and the recorded bounds against the scalar
``upper_gap`` and ``lower_max_gap`` against a direct enumeration of splits.
"""

from __future__ import annotations

import numpy as np

from maxgap import cli, gapbounds

TOL = 1e-12


def crossed_records(trace) -> np.ndarray:
    """Mask of the records where some arm's envelope has crossed (l > r).

    Under the good event every envelope holds its arm's true mean, so none
    crosses.  On a bad-event run an envelope can become empty, and stays so,
    since envelopes only shrink.  ``upper_gaps`` keeps its bounds defined for
    crossed envelopes but not monotone: the upper bound of a crossed arm can
    rise afterwards (two-gap instance, trial seeds 10400017 and 10900048)."""
    return (trace.env_l > trace.env_r).any(axis=1)


def trace_problems(trace, instance, atol: float = 1e-9) -> list[str]:
    """Names of the per-trace invariants this trace breaks (empty if none)."""
    bad = []
    k = instance.n_arms
    c1, c2 = trace.clusters
    if not (c1 and c2) or sorted(c1 + c2) != list(range(k)):
        bad.append("clusters_not_partition")
    if trace.total_samples != int(trace.final_counts.sum()):
        bad.append("total_samples_mismatch")
    if trace.round_index.size == 0:
        return bad

    proper = ~crossed_records(trace)
    for field in ("upper_right", "upper_left", "upper"):
        if not np.all(np.diff(getattr(trace, field)[proper], axis=0) <= atol):
            bad.append(f"{field}_increased")
    upper = trace.upper[proper]
    top = upper >= upper.max(axis=1, keepdims=True) - 1e-12
    if not np.all(top.sum(axis=1) >= 2):
        bad.append("single_top_upper_bound")
    deltas = np.diff(trace.counts, axis=0)
    if not np.all(deltas >= 0):
        bad.append("counts_decreased")
    if not np.all(deltas[~trace.sampled[1:]] == 0):
        bad.append("unsampled_arm_grew")
    mu = instance.means
    contained = np.all((trace.env_l <= mu) & (mu <= trace.env_r), axis=1)
    if contained.any():
        if not np.all(trace.upper[contained] >= instance.gaps[None, :] - atol):
            bad.append("upper_below_true_gap")
        if not np.all(trace.lower[contained] <= instance.delta_max + atol):
            bad.append("lower_above_delta_max")
    return bad


def elimination_problems(trace, instance) -> list[str]:
    """Active sets shrink, eliminated arms stay unsampled, and under the good
    event the two arms flanking the largest gap are never eliminated."""
    active = trace.active
    if active.shape[0] == 0:
        return []
    bad = []
    if not np.all(active[:-1] | ~active[1:]):
        bad.append("active_set_grew")
    if not np.all(np.diff(trace.counts, axis=0)[~active[:-1]] == 0):
        bad.append("eliminated_arm_sampled")
    if trace.good_event:
        m = instance.split_rank
        flanks = instance.sorted_order[m - 1 : m + 1]
        if not np.all(active[:, flanks]):
            bad.append("flanking_arm_eliminated")
    return bad


def _enumerated_lower(l, r, means) -> tuple[float, int]:
    order = np.lexsort((np.arange(means.size), -means))
    best, best_split = -np.inf, 0
    for split in range(1, means.size):
        val = l[order[:split]].min() - r[order[split:]].max()
        if val > best:
            best, best_split = val, split
    return float(best), best_split


def row_problems(l: np.ndarray, r: np.ndarray, udr: np.ndarray, udl: np.ndarray) -> list[str]:
    """Check one recorded interval row and the bounds recorded for it."""
    bad = []
    fast_r, fast_l = gapbounds.upper_gaps(l, r)
    snap = gapbounds.IntervalSnapshot(l=l, r=r)
    for a in range(l.size):
        ref_r, ref_l, _ = gapbounds.upper_gap(a, snap)
        if max(abs(fast_r[a] - ref_r), abs(fast_l[a] - ref_l)) > TOL:
            bad.append(f"upper_gaps_vs_scalar(arm={a})")
        if max(abs(udr[a] - ref_r), abs(udl[a] - ref_l)) > TOL:
            bad.append(f"recorded_upper_vs_scalar(arm={a})")
    means = (l + r) / 2.0
    lb, split, _ = gapbounds.lower_max_gap(l, r, means)
    ref_lb, ref_split = _enumerated_lower(l, r, means)
    if abs(lb - ref_lb) > TOL or split != ref_split:
        bad.append("lower_max_gap_vs_enumeration")
    return bad


def recorded_rows_problems(traces, rows_per_trace: int = 3) -> tuple[int, list[str]]:
    """Cross-check evenly spaced recorded rows (first, middle, last, ...) of
    each trace whose envelopes are proper intervals.  Returns (rows checked,
    problems)."""
    checked, bad = 0, []
    for trace in traces:
        n = trace.round_index.size
        if n == 0:
            continue
        picks = np.unique(np.linspace(0, n - 1, rows_per_trace).round().astype(int))
        for i in picks:
            l, r = trace.env_l[i], trace.env_r[i]
            if not np.all(l <= r):
                continue  # crossed envelopes (a bad-event artifact) have no snapshot
            checked += 1
            bad += [
                f"{trace.algorithm} row {i}: {p}"
                for p in row_problems(l, r, trace.upper_right[i], trace.upper_left[i])
            ]
    return checked, bad


def oracle_problems(seed: int, snapshots: int) -> list[str]:
    """``cli.verify_bounds`` for K = 3..8 against the brute-force oracle."""
    bad = []
    for k in range(3, gapbounds.BRUTE_FORCE_MAX_ARMS + 1):
        rep = cli.verify_bounds(k, snapshots, seed)
        if not rep["max_discrepancy"] <= TOL:
            bad.append(f"verify_bounds K={k}: max discrepancy {rep['max_discrepancy']!r}")
    return bad
