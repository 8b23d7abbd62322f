"""Confidence bounds on gaps, derived from per-arm mean intervals.

Given one interval [l_a, r_a] per arm, ``upper_gap`` computes the largest
right/left adjacent-mean gap any assignment of means consistent with all
intervals could give arm ``a``.  The key fact is that the optimum is attained
with the arm pinned at one of finitely many anchor positions: the left
endpoints of intervals falling inside [l_a, r_a] for the right gap (right
endpoints for the left gap).  ``upper_gaps`` bounds all arms on both sides in
one pass: an anchor's value does not depend on the arm it bounds (save for
the arm holding the largest endpoint, which is fixed up), so each side sorts
one endpoint, writes one vector of anchor values, and one ``reduceat`` takes
every arm's range max on both sides at once.  The left side is the right rule
on the reflected intervals.  The sorts and searches are O(K log K); the range
max walks ``sum(hi - lo)`` anchors, which grows with interval overlap.

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


def upper_gaps(l: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right and left gap upper bounds for every arm at once.

    Returns (upper_right, upper_left), equal bit for bit to the scalar
    ``upper_gap`` and defined for crossed envelope intervals (a bad-event
    artifact where l > r).  The left side is the right rule on the reflected
    intervals ``[-r, -l]``; both sides are one pass, with one sort and one
    search per side and a single ``np.maximum.reduceat`` for both.

    Right side.  Put the arms in descending order of ``l``.  The anchor at
    position p is worth the smallest ``r`` at the positions before p, minus
    ``l`` at p; position 0 gets ``max r``, the cap when nothing is forced
    right.  Within a tie group of ``l`` only the group's first position
    excludes all of its tie-mates, so it holds the group's exact value and
    the later positions hold at most that.  Arm a's anchors run from
    position ``#(l > r_a)`` to the first position of its own group, so
    every range holds the first position of each group it touches and its
    max is exact; a crossed arm's range is that first position alone.  The
    order within a tie group is therefore irrelevant, and the sorts need not
    be stable.  The one arm that must not cap itself is the one holding
    ``max r`` (the last in the left side's sort of ``r``): when its range
    reaches position 0, that slot is set to the runner-up ``r`` minus
    ``max l`` and its max is taken again.  Every other slot of its range is
    worth the same to it as to any arm.  The left side mirrors this with
    ``r`` ascending and the arm holding ``min l`` (the last in the right
    side's sort).

    The range max walks every anchor of every range: its element work is
    ``sum(hi - lo)``, about 22-45 anchors per arm at K=90 and K^2 when all
    intervals coincide, on top of the O(K log K) sorts and searches.
    """
    q = np.concatenate((l, r), dtype=float)
    nq = -q
    k = q.size // 2
    r, neg_l = q[k:], nq[:k]
    by_l = neg_l.argsort()  # right side: l descending
    by_r = r.argsort()  # left side: r ascending
    key_r = neg_l[by_l]
    key_l = r[by_r]
    # anchor values of the right side in vals[:k], of the left side in
    # vals[k + 1 : 2k + 1]; the running minima fill one slot past each
    vals = np.empty(2 * k + 2)
    vals[0] = key_l[-1]
    np.minimum.accumulate(r[by_l], out=vals[1 : k + 1])
    np.add(vals[:k], key_r, out=vals[:k])
    vals[k + 1] = key_r[-1]
    np.minimum.accumulate(neg_l[by_r], out=vals[k + 2 :])
    np.add(vals[k + 1 : 2 * k + 1], key_l, out=vals[k + 1 : 2 * k + 1])
    # #(l > l_a), #(l > r_a) and #(r < l_a), #(r < r_a)
    n_r = key_r.searchsorted(nq)
    n_l = key_l.searchsorted(q)
    # right ranges [min(#(l > r_a), #(l > l_a)), #(l > l_a) + 1); the left
    # ones mirrored and shifted by k + 1
    bounds = np.empty(4 * k, dtype=np.intp)
    lo_r, hi_r = bounds[0 : 2 * k : 2], bounds[1 : 2 * k : 2]
    lo_l, hi_l = bounds[2 * k :: 2], bounds[2 * k + 1 :: 2]
    np.minimum(n_r[:k], n_r[k:], out=lo_r)
    np.add(n_r[:k], 1, out=hi_r)
    np.minimum(n_l[:k], n_l[k:], out=lo_l)
    lo_l += k + 1
    np.add(n_l[k:], k + 2, out=hi_l)
    ud = np.maximum.reduceat(vals, bounds)
    # compact copies: a caller that keeps one pins no other values
    udr = ud[: 2 * k : 2].copy()
    udl = ud[2 * k :: 2].copy()
    # the arm holding max r (min l on the left) must not cap itself
    top = by_r[-1]
    if lo_r[top] == 0:
        vals[0] = key_l[-2] + key_r[0]
        udr[top] = np.maximum.reduce(vals[: hi_r[top]])
    top = by_l[-1]
    if lo_l[top] == k + 1:
        vals[k + 1] = key_r[-2] + key_l[0]
        udl[top] = np.maximum.reduce(vals[k + 1 : hi_l[top]])
    return udr, udl


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
