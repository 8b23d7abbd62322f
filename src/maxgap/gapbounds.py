"""Confidence bounds on gaps, derived from per-arm mean intervals.

Given one interval [l_a, r_a] per arm, ``upper_gap`` computes the largest
right/left adjacent-mean gap any assignment of means consistent with all
intervals could give arm ``a``.  The key fact is that the optimum is attained
with the arm pinned at one of finitely many anchor positions: the left
endpoints of intervals falling inside [l_a, r_a] for the right gap (right
endpoints for the left gap).  ``upper_gaps`` bounds all arms at once: away
from the top of the order an anchor's value does not depend on the arm, so
each arm's right bound is a range max over one sorted anchor vector (an
O(K log K) sort and searches plus one ``reduceat``), and the left bound is the
same kernel on the reflected intervals.

``brute_force_upper_gap`` independently maximizes the same objective by
enumerating candidate endpoint placements and checking, per configuration,
that every other arm can be placed outside the open gap interval.  It is the
cross-validation oracle for the fast path and is exponential-flavored, so it
is restricted to small K.

``lower_max_gap`` certifies a global lower bound on the largest gap: order
arms by empirical mean and find the split whose top-group lower bounds clear
the bottom-group upper bounds by the widest margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import _descending_order

__all__ = [
    "IntervalSnapshot",
    "right_anchor_gap",
    "left_anchor_gap",
    "upper_gap",
    "upper_gaps",
    "lower_max_gap",
    "brute_force_upper_gap",
]

BRUTE_FORCE_MAX_ARMS = 8


@dataclass(frozen=True)
class IntervalSnapshot:
    """Per-arm intervals at a fixed time; arrays indexed by arm."""

    l: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "l", np.asarray(self.l, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if self.l.shape != self.r.shape or self.l.ndim != 1:
            raise ValueError("l and r must be 1-d arrays of equal length")
        if self.l.size < 3:
            raise ValueError("need at least 3 arms")
        if not np.all(self.l <= self.r):
            raise ValueError("every interval needs l <= r")

    @property
    def n_arms(self) -> int:
        return self.l.size


def right_anchor_gap(a: int, x: float, snapshot: IntervalSnapshot) -> float:
    """Largest possible right gap of arm ``a`` were its mean exactly ``x``.

    If some other arm's interval lies entirely right of ``x`` (its lower
    endpoint exceeds ``x``), the nearest such arm caps the gap: take the
    smallest upper endpoint among them.  Otherwise every other arm can slide
    left of ``x`` except one pushed to its upper endpoint, so the gap is the
    largest other upper endpoint minus ``x`` (possibly negative).
    """
    l, r = snapshot.l, snapshot.r
    others = np.arange(snapshot.n_arms) != a
    forced_right = others & (l > x)
    if forced_right.any():
        return float(r[forced_right].min() - x)
    return float(r[others].max() - x)


def left_anchor_gap(a: int, x: float, snapshot: IntervalSnapshot) -> float:
    """Mirror of ``right_anchor_gap``: largest possible left gap at position ``x``."""
    l, r = snapshot.l, snapshot.r
    others = np.arange(snapshot.n_arms) != a
    forced_left = others & (r < x)
    if forced_left.any():
        return float(x - l[forced_left].max())
    return float(x - l[others].min())


def upper_gap(a: int, snapshot: IntervalSnapshot) -> tuple[float, float, float]:
    """(right, left, combined) gap upper bounds for one arm.

    Anchors for the right bound are the left endpoints inside [l_a, r_a]
    (closed on both sides, the arm's own included); mirror for the left.
    """
    l, r = snapshot.l, snapshot.r
    la, ra = l[a], r[a]
    right_anchors = np.append(l[(l >= la) & (l <= ra)], la)
    ud_r = max(right_anchor_gap(a, float(x), snapshot) for x in right_anchors)
    left_anchors = np.append(r[(r >= la) & (r <= ra)], ra)
    ud_l = max(left_anchor_gap(a, float(x), snapshot) for x in left_anchors)
    return ud_r, ud_l, max(ud_r, ud_l)


def _right_gaps(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Right gap upper bound of every arm (the left one is ``_right_gaps(-r, -l)``).

    An anchor at sorted-``l`` position ``j`` is worth ``min r`` over the arms
    whose left endpoint lies strictly above ``ls[j]``, minus ``ls[j]``: that
    does not depend on the arm being bounded, so one vector holds every
    anchor value, and an arm's bound is its range max over the anchors in
    ``[l_a, r_a]``.  On the top tie group of ``l`` nothing is forced right,
    so the largest upper endpoint caps the gap: the suffix-min buffer ends in
    ``max r`` and those anchors are worth ``max r - max l``.  Only the arm
    holding ``max r`` must exclude itself there, and it alone is fixed up.
    Each range keeps at least the arm's own anchor, so crossed envelopes
    (l > r) stay defined.
    """
    k = l.size
    order = l.argsort(kind="stable")
    ls = l[order]
    top = r.argmax()
    # suffix min of r in sorted-l order, then the anchor values in place;
    # slot k is both the top group's cap and the end that ranges may reach
    vals = np.empty(k + 1)
    vals[k] = r[top]
    np.minimum.accumulate(r[order[::-1]], out=vals[k - 1::-1])
    np.subtract(vals[ls.searchsorted(ls, "right")], ls, out=vals[:k])
    lo = ls.searchsorted(l)
    hi = ls.searchsorted(r, "right")
    np.maximum(hi, lo + 1, out=hi)
    bounds = np.empty(2 * k, dtype=np.intp)
    bounds[0::2] = lo
    bounds[1::2] = hi
    # a compact copy: a caller that keeps it does not pin all 2k values
    ud = np.maximum.reduceat(vals, bounds)[::2].copy()
    top_group = ls.searchsorted(ls[-1])
    if hi[top] > top_group:  # the arm holding max r reaches the top group
        r_excl = max(
            np.maximum.reduce(r[:top], initial=-np.inf),
            np.maximum.reduce(r[top + 1 :], initial=-np.inf),
        )
        ud[top] = max(
            np.maximum.reduce(vals[lo[top] : top_group], initial=-np.inf), r_excl - ls[-1]
        )
    return ud


def upper_gaps(l: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right and left gap upper bounds for every arm at once.

    Returns (upper_right, upper_left).  One sort, a few binary searches and a
    single ``np.maximum.reduceat`` range max per side, with no per-arm Python
    loop and no (arm, anchor) pairs written out; the left side is the right
    kernel on the reflected intervals ``[-r, -l]``.  Matches the scalar
    ``upper_gap``, and stays defined for crossed envelope intervals (a
    bad-event artifact where l > r).
    """
    l = np.asarray(l, dtype=float)
    r = np.asarray(r, dtype=float)
    return _right_gaps(l, r), _right_gaps(-r, -l)


def lower_max_gap(
    l: np.ndarray, r: np.ndarray, empirical_means: np.ndarray
) -> tuple[float, int, tuple[int, int]]:
    """Certified lower bound on the largest gap, with its maximizing split.

    Arms are ordered by descending empirical mean (ties by arm index); for
    each split size k the bound is (min lower endpoint among the top k) minus
    (max upper endpoint among the rest).  Returns (bound, split size, witness
    arm pair); the bound can be negative when no split is separated, and ties
    across splits resolve to the smallest top group.
    """
    l = np.asarray(l, dtype=float)
    r = np.asarray(r, dtype=float)
    means = np.asarray(empirical_means, dtype=float)
    order = _descending_order(means)
    l_ord, r_ord = l[order], r[order]

    prefmin = np.minimum.accumulate(l_ord)
    sufmax = np.maximum.accumulate(r_ord[::-1])[::-1]
    vals = prefmin[:-1] - sufmax[1:]
    split = int(vals.argmax())  # first max -> smallest top group
    bound = float(vals[split])

    # witnesses: argmin of l in the top prefix, argmax of r in the bottom suffix
    top_w = int(order[l_ord[: split + 1].argmin()])
    bot_w = int(order[split + 1 + r_ord[split + 1 :].argmax()])
    return bound, split + 1, (top_w, bot_w)


def _endpoint_candidates(l: np.ndarray, r: np.ndarray) -> list[np.ndarray]:
    """Per arm: its own endpoints plus every endpoint inside its interval."""
    endpoints = np.concatenate([l, r])
    cands = []
    for i in range(l.size):
        inside = endpoints[(endpoints >= l[i]) & (endpoints <= r[i])]
        cands.append(np.unique(np.concatenate([inside, [l[i], r[i]]])))
    return cands


def _brute_force_right(a: int, l: np.ndarray, r: np.ndarray) -> float:
    """Maximize mu_b - mu_a over endpoint placements with an empty open gap.

    For each candidate position x of arm ``a`` and y of a neighbor ``b``, the
    configuration is feasible iff every other arm can sit outside (x, y),
    i.e. its interval reaches left of x or right of y.  Optimal placements
    occur at interval endpoints, so scanning the candidate grid is exact.
    """
    k = l.size
    cands = _endpoint_candidates(l, r)
    xs = cands[a]
    best = -math.inf
    for b in range(k):
        if b == a:
            continue
        ys = cands[b]
        rest = np.array([i for i in range(k) if i != a and i != b])
        # feasible[i, xi, yi]: arm i clears the open interval (x, y)
        ok_left = l[rest][:, None] <= xs[None, :]          # (rest, x)
        ok_right = r[rest][:, None] >= ys[None, :]         # (rest, y)
        feasible = np.all(
            ok_left[:, :, None] | ok_right[:, None, :], axis=0
        )  # (x, y)
        if feasible.any():
            gaps = ys[None, :] - xs[:, None]
            best = max(best, float(gaps[feasible].max()))
    return best


def brute_force_upper_gap(a: int, snapshot: IntervalSnapshot) -> tuple[float, float]:
    """Oracle (right, left) gap upper bounds by exhaustive endpoint search.

    Restricted to small arm counts; the left bound reuses the right-gap
    search on the reflected snapshot (negate and swap endpoints).
    """
    if snapshot.n_arms > BRUTE_FORCE_MAX_ARMS:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_MAX_ARMS} arms, got {snapshot.n_arms}"
        )
    ud_r = _brute_force_right(a, snapshot.l, snapshot.r)
    ud_l = _brute_force_right(a, -snapshot.r, -snapshot.l)
    return ud_r, ud_l
