"""Adaptive algorithms for largest-gap identification, plus baselines.

All algorithms share the same skeleton, ``_Run.step``: sample some set of
arms up to the next scheduled check, refresh the anytime confidence intervals
(envelope form), and convert them into gap upper bounds and a global lower
bound.  The bound-driven samplers are that loop plus a selection rule, which
picks the next set from the bounds and says when they certify the split.
They differ in which arms they sample:

- ``max_gap_elim`` samples every arm in an active set and eliminates arms
  whose gap upper bound falls below the certified lower bound.
- ``max_gap_ucb`` samples all arms attaining the largest gap upper bound and
  stops when two arms dominate the sample counts.
- ``max_gap_top2_ucb`` samples the arms attaining the two largest distinct
  gap upper bound values and stops when the second value drops below the
  lower bound.
- ``uniform_baseline`` samples round-robin with no stopping rule.
- ``naive_sort_then_bai`` first sorts the arms by separating all intervals,
  then runs a LUCB best-arm race over the adjacent-gap pseudo-arms.

Bound recompute cadence: by default bounds are recomputed every round.
``RunConfig.check_growth > 1`` switches to a geometrically spaced schedule
(the law of the sampling is unchanged, since a block is drawn as one
Gaussian sum per arm; eliminations and stopping are only evaluated at
scheduled rounds), which long Monte-Carlo sweeps need to stay tractable.

Runs are deterministic functions of (instance, config, generator state):
identical seeds give identical traces.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .confidence import IntervalTracker
from .env import Instance, _descending_order, _sample_sums, _split_order
from .env import sample_block  # noqa: F401  the benchmark's tracer patches this name
from .gapbounds import lower_max_gap, upper_gaps

__all__ = [
    "RunConfig",
    "CheckpointRecord",
    "RunTrace",
    "report_clusters",
    "max_gap_elim",
    "max_gap_ucb",
    "max_gap_top2_ucb",
    "uniform_baseline",
    "naive_sort_then_bai",
    "ALGORITHMS",
]

RECORD_BLOCK = 256  # records per block of the run's record buffers

# The per-record fields of ``RunTrace`` in ``_Run.record``'s row order, each
# with its dtype and whether a record holds one value per arm.
_RECORD_FIELDS = (
    ("round_index", np.int64, False),
    ("counts", np.int64, True),
    ("upper_right", float, True),
    ("upper_left", float, True),
    ("lower", float, False),
    ("env_l", float, True),
    ("env_r", float, True),
    ("sampled", bool, True),
    ("active", bool, True),
)


def _require_int(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integral number is a ``ValueError``
    that names the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by all algorithm runs.

    ``ucb_stop_factor`` is the count-dominance factor in the UCB stopping
    test.  ``budget_cap`` is a hard safety horizon on total samples; runs
    that hit it return a best-effort clustering flagged as truncated.
    ``checkpoints`` are total-sample budgets at which the anytime clustering
    is recorded even before stopping.  ``check_growth`` controls the bound
    recompute schedule (1.0 = every round).
    """

    delta: float = 0.1
    ucb_stop_factor: float = 10.0
    budget_cap: int = 10_000_000
    elim_early_stop: bool = False
    checkpoints: tuple[int, ...] = ()
    check_growth: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        # NaN fails these chained comparisons, so it is rejected too.
        if not 0.0 < self.ucb_stop_factor < math.inf:
            raise ValueError(
                f"ucb_stop_factor must be finite and positive, got {self.ucb_stop_factor}"
            )
        if not 1.0 <= self.check_growth < math.inf:
            raise ValueError(f"check_growth must be finite and >= 1, got {self.check_growth}")
        cps = tuple(_require_int("checkpoints", c) for c in self.checkpoints)
        _require_int("budget_cap", self.budget_cap)
        if any(c <= 0 for c in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be positive and strictly increasing")
        object.__setattr__(self, "checkpoints", cps)


@dataclass(frozen=True)
class CheckpointRecord:
    """Anytime clustering at a sample budget."""

    budget: int
    total_samples: int
    clusters: tuple[tuple[int, ...], tuple[int, ...]]
    counts: np.ndarray


@dataclass
class RunTrace:
    """Full record of one run.

    Per-record arrays cover the rounds at which bounds were recomputed;
    ``sampled`` marks arms drawn in the block ending at that round and
    ``active`` the algorithm's active/top set after the round's update.
    ``upper`` is derived: the larger of ``upper_right`` and ``upper_left``.
    """

    algorithm: str
    n_arms: int
    round_index: np.ndarray
    counts: np.ndarray
    upper_right: np.ndarray
    upper_left: np.ndarray
    lower: np.ndarray
    env_l: np.ndarray
    env_r: np.ndarray
    sampled: np.ndarray
    active: np.ndarray
    stop_round: int
    total_samples: int
    stopped_by: str  # "rule" | "early_rule" | "budget"
    truncated: bool
    clusters: tuple[tuple[int, ...], tuple[int, ...]]
    checkpoints: tuple[CheckpointRecord, ...]
    final_counts: np.ndarray
    final_means: np.ndarray
    good_event: bool
    phase1_rounds: Optional[int] = None
    degenerate_rounds: int = 0

    @property
    def upper(self) -> np.ndarray:
        return np.maximum(self.upper_right, self.upper_left)

    def fingerprint(self) -> str:
        """Digest of the full trace; equal inputs must reproduce it exactly."""
        h = hashlib.sha256()
        for a in (
            self.round_index, self.counts, self.upper_right, self.upper_left,
            self.upper, self.lower, self.env_l, self.env_r, self.sampled,
            self.active, self.final_counts, self.final_means,
        ):
            h.update(np.ascontiguousarray(a).tobytes())
            h.update(str(a.dtype).encode())
            h.update(str(a.shape).encode())
        for rec in self.checkpoints:
            h.update(repr((rec.budget, rec.total_samples, rec.clusters)).encode())
            h.update(np.ascontiguousarray(rec.counts).tobytes())
        h.update(
            repr(
                (
                    self.algorithm, self.n_arms, self.stop_round, self.total_samples,
                    self.stopped_by, self.truncated, self.clusters,
                    self.good_event, self.phase1_rounds, self.degenerate_rounds,
                )
            ).encode()
        )
        return h.hexdigest()


def report_clusters(
    empirical_means: np.ndarray,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the arms at the largest adjacent gap of the empirical means.

    Ties in means break by ascending arm index; ties in the largest gap break
    toward the smaller top cluster.  Every arm must have been sampled.
    """
    means = np.asarray(empirical_means, dtype=float)
    if means.ndim != 1 or means.size < 2:
        raise ValueError("need a 1-d vector of at least 2 empirical means")
    if not np.all(np.isfinite(means)):
        raise ValueError("every arm needs at least one sample before clustering")
    order = _descending_order(means)
    s = means[order]
    gaps = s[:-1] - s[1:]
    split = int(gaps.argmax())  # first max -> smallest top cluster
    return _split_order(order, split + 1)


class _Run:
    """Shared bookkeeping: the recompute schedule, sampling blocks, budget
    cap, checkpoints, the bounds of the last check and the records.

    Records are written row by row into per-field blocks of ``RECORD_BLOCK``
    rows; ``finish`` joins each field's blocks once.
    """

    def __init__(self, instance: Instance, config: RunConfig, rng: np.random.Generator):
        if config.budget_cap < instance.n_arms:
            raise ValueError("budget_cap must allow at least one round over all arms")
        self.instance = instance
        self.config = config
        self.rng = rng
        self.tracker = IntervalTracker(instance.n_arms, instance.sigmas, config.delta)
        self.t = 0
        self.total = 0
        self.truncated = False
        self.degenerate_rounds = 0
        self._pending = list(reversed(config.checkpoints))  # next checkpoint last
        self.checkpoint_records: list[CheckpointRecord] = []
        self._blocks: list[list[np.ndarray]] = [[] for _ in _RECORD_FIELDS]
        self._new_block()

    def _new_block(self) -> None:
        k = self.instance.n_arms
        self._block = tuple(
            np.empty((RECORD_BLOCK, k) if per_arm else RECORD_BLOCK, dtype)
            for _, dtype, per_arm in _RECORD_FIELDS
        )
        for blocks, block in zip(self._blocks, self._block):
            blocks.append(block)
        self._row = 0

    # -- sampling ---------------------------------------------------------

    def advance(self, arms: np.ndarray, n_rounds: int) -> tuple[int, np.ndarray]:
        """Sample ``arms`` for up to ``n_rounds`` rounds.

        Splits at checkpoint crossings and at the budget cap; each chunk is one
        Gaussian sum per arm (``sample_sums``).  Returns (rounds run, each
        arm's sum of rewards).
        """
        m = arms.size
        done = 0
        sums = None
        while done < n_rounds:
            cap_rounds = (self.config.budget_cap - self.total) // m
            if cap_rounds <= 0:
                self.truncated = True
                break
            step = min(n_rounds - done, cap_rounds)
            if self._pending:  # stop at the next checkpoint, always above total
                step = min(step, -(-(self._pending[-1] - self.total) // m))
            chunk = _sample_sums(self.instance, arms, step, self.rng)
            self.tracker.add(arms, step, chunk)
            sums = chunk if sums is None else sums + chunk
            self.t += step
            self.total += step * m
            done += step
            while self._pending and self.total >= self._pending[-1]:
                self._record_checkpoint(self._pending.pop())
        return done, np.zeros(m) if sums is None else sums

    def step(
        self,
        arms: np.ndarray,
        n_rounds: Optional[int] = None,
        sampled: Optional[np.ndarray] = None,
    ) -> bool:
        """Sample ``arms`` up to the next scheduled check (or for ``n_rounds``),
        keeping ``sampled`` (their mask, built unless given), ``block_rounds``
        and ``block_sums``, and ``check`` there unless the block drew nothing.
        False when the budget cap cut the block short."""
        if n_rounds is None:  # growth 1.0 checks every round
            n_rounds = max(1, int(self.t * self.config.check_growth) - self.t)
        self.block_rounds, self.block_sums = self.advance(arms, n_rounds)
        if sampled is None:
            sampled = np.zeros(self.instance.n_arms, dtype=bool)
            sampled[arms] = True
        self.sampled = sampled
        if self.block_rounds:
            self.check()
        return self.block_rounds == n_rounds

    def _record_checkpoint(self, budget: int) -> None:
        tr = self.tracker
        self.checkpoint_records.append(
            CheckpointRecord(budget, self.total, report_clusters(tr.means), tr.counts.copy())
        )

    # -- bounds and records -------------------------------------------------

    def check(self) -> None:
        """Refresh the intervals and the gap bounds: ``udr``, ``udl``, their
        max ``ud``, the lower bound ``lb`` and its ``split_size``."""
        tr = self.tracker
        tr.refresh()
        self.udr, self.udl = upper_gaps(tr.l_env, tr.r_env)
        self.ud = np.maximum(self.udr, self.udl)
        self.lb, self.split_size, _ = lower_max_gap(tr.l_env, tr.r_env, tr.means)

    def record(self, active: Optional[np.ndarray] = None) -> None:
        """Record the last check, ``sampled`` and ``active`` (default
        ``sampled``); a block that drew nothing has no check and no record."""
        if not self.block_rounds:
            return
        if self._row == RECORD_BLOCK:
            self._new_block()
        tr = self.tracker
        row = (
            self.t, tr.counts, self.udr, self.udl, self.lb, tr.l_env, tr.r_env,
            self.sampled, self.sampled if active is None else active,
        )
        i = self._row
        for block, value in zip(self._block, row):
            block[i] = value
        self._row = i + 1

    def finish(
        self,
        algorithm: str,
        stopped_by: str,
        clusters: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None,
        phase1_rounds: Optional[int] = None,
    ) -> RunTrace:
        """Build the trace.  ``clusters`` defaults to the empirical split;
        checkpoints the run never reached get the final clustering."""
        if clusters is None:
            clusters = report_clusters(self.tracker.means)
        while self._pending:
            self._record_checkpoint(self._pending.pop())
        self._block = ()
        records = {}
        for (name, _, _), blocks in zip(_RECORD_FIELDS, self._blocks):
            blocks[-1] = blocks[-1][: self._row]
            records[name] = np.concatenate(blocks)  # a fresh array pins no block
            blocks.clear()  # frees this field's blocks before the next is joined
        return RunTrace(
            algorithm=algorithm,
            n_arms=self.instance.n_arms,
            **records,
            stop_round=self.t,
            total_samples=self.total,
            stopped_by=stopped_by,
            truncated=self.truncated,
            clusters=clusters,
            checkpoints=tuple(self.checkpoint_records),
            final_counts=self.tracker.counts.copy(),
            final_means=np.asarray(self.tracker.means, dtype=float),
            good_event=self.tracker.contains_truth(self.instance),
            phase1_rounds=phase1_rounds,
            degenerate_rounds=self.degenerate_rounds,
        )


def _bound_driven(
    algorithm: str,
    select: Callable[[_Run, np.ndarray], tuple[np.ndarray, Optional[str]]],
    instance: Instance,
    config: RunConfig,
    rng: np.random.Generator,
) -> RunTrace:
    """The loop shared by the bound-driven samplers: start from every arm and
    step to each scheduled check.  There ``select(run, sampled)`` returns the
    set to sample next and the stop reason (None: go on)."""
    run = _Run(instance, config, rng)
    current = np.ones(instance.n_arms, dtype=bool)
    while True:
        if not run.step(current.nonzero()[0], sampled=current):
            run.record()
            return run.finish(algorithm, "budget")
        nxt, stopped_by = select(run, current)
        run.record(nxt)
        if stopped_by:
            return run.finish(algorithm, stopped_by)
        current = nxt


def _early_stop_holds(run: _Run) -> bool:
    """Certified-split early stop: every right-gap bound in the top group and
    every left-gap bound in the bottom group sits below the lower bound."""
    if not run.lb > 0:
        return False
    order = _descending_order(run.tracker.means)
    top = order[: run.split_size]
    bottom = order[run.split_size :]
    return bool(np.all(run.udr[top] < run.lb) and np.all(run.udl[bottom] < run.lb))


def _elim_select(run: _Run, active: np.ndarray) -> tuple[np.ndarray, Optional[str]]:
    active = active & ~(run.ud < run.lb)  # strict: ties never eliminate
    if run.config.elim_early_stop and _early_stop_holds(run):
        return active, "early_rule"
    return active, "rule" if int(active.sum()) <= 2 else None


def _ucb_select(run: _Run, current: np.ndarray) -> tuple[np.ndarray, Optional[str]]:
    # exact ties: shared witnesses give equal floats
    top_set = run.ud == np.maximum.reduce(run.ud)
    counts = run.tracker.counts.copy()
    counts.partition(counts.size - 2)
    top_two = int(counts[-1]) + int(counts[-2])
    dominant = top_two >= run.config.ucb_stop_factor * (run.total - top_two)
    return top_set, "rule" if dominant else None


def _top2_select(run: _Run, current: np.ndarray) -> tuple[np.ndarray, Optional[str]]:
    ud = run.ud
    top_set = ud == np.maximum.reduce(ud)
    rest = ~top_set
    if not np.logical_or.reduce(rest):
        run.degenerate_rounds += 1
        return top_set, None
    second = np.maximum.reduce(ud[rest])
    return top_set | (rest & (ud == second)), "rule" if second < run.lb else None


def max_gap_elim(
    instance: Instance, config: RunConfig, rng: np.random.Generator
) -> RunTrace:
    """Eliminate arms whose gap upper bound falls below the certified lower
    bound; stop when only two arms remain (or earlier under the optional
    certified-split rule)."""
    return _bound_driven("maxgap-elim", _elim_select, instance, config, rng)


def max_gap_ucb(
    instance: Instance, config: RunConfig, rng: np.random.Generator
) -> RunTrace:
    """Sample every arm attaining the largest gap upper bound; stop when two
    arms' sample counts dominate the rest by ``ucb_stop_factor``."""
    return _bound_driven("maxgap-ucb", _ucb_select, instance, config, rng)


def max_gap_top2_ucb(
    instance: Instance, config: RunConfig, rng: np.random.Generator
) -> RunTrace:
    """Sample the arms attaining the two largest distinct gap upper bound
    values; stop when the second value drops below the lower bound.

    When every arm ties at the single largest value there is no runner-up
    value to test: the round is degenerate (counted on the trace), only the
    top set is sampled, and the run continues.
    """
    return _bound_driven("maxgap-top2-ucb", _top2_select, instance, config, rng)


def uniform_baseline(
    instance: Instance, config: RunConfig, rng: np.random.Generator
) -> RunTrace:
    """Round-robin sampling up to the budget cap; no adaptive stopping.

    No bounds are maintained, so the trace carries checkpoint clusterings
    only; the final good-event flag reflects the end-of-run raw intervals.
    """
    run = _Run(instance, config, rng)
    arms = np.arange(instance.n_arms)
    rounds = config.budget_cap // instance.n_arms
    run.advance(arms, rounds)  # ends within the cap, so never truncated
    run.tracker.refresh()
    return run.finish("uniform", "budget")


def naive_sort_then_bai(
    instance: Instance, config: RunConfig, rng: np.random.Generator
) -> RunTrace:
    """Sort-then-search baseline.

    Phase 1 samples all arms until every pair of confidence intervals is
    disjoint, certifying the order of the means.  Phase 2 treats the K-1
    adjacent gaps as pseudo-arms (a gap sample is the difference of fresh
    draws from its two endpoint arms, hence twice the variance) and runs a
    LUCB race: each round samples the empirical-best gap and the highest-UCB
    challenger, stopping when the leader's lower bound clears every other
    gap's upper bound.
    """
    run = _Run(instance, config, rng)
    k = instance.n_arms
    idx = np.arange(k)

    # ---- phase 1: separate all intervals ----
    while True:
        full = run.step(idx)
        run.record()
        if not full:
            return run.finish("naive", "budget", phase1_rounds=run.t)
        tr = run.tracker
        by_l = np.argsort(tr.l_env, kind="stable")
        if np.all(tr.r_env[by_l][:-1] < tr.l_env[by_l][1:]):
            order = _descending_order(tr.means)
            break
    phase1_rounds = run.t

    # ---- phase 2: LUCB over adjacent-gap pseudo-arms ----
    hi, lo = order[:-1], order[1:]
    n_gaps = k - 1
    gap_sigma = np.sqrt(instance.sigmas[hi] ** 2 + instance.sigmas[lo] ** 2)
    gap_counts = np.zeros(n_gaps, dtype=np.int64)
    gap_sums = np.zeros(n_gaps, dtype=float)

    def gap_step(gaps: np.ndarray, n_rounds: Optional[int] = None) -> bool:
        arms = np.empty(2 * gaps.size, dtype=int)
        arms[0::2] = hi[gaps]
        arms[1::2] = lo[gaps]
        full = run.step(arms, n_rounds)
        gap_counts[gaps] += run.block_rounds
        gap_sums[gaps] += run.block_sums[0::2] - run.block_sums[1::2]
        return full

    full = gap_step(np.arange(n_gaps), 1)  # one sample of every gap
    run.record()
    while full:
        s = gap_counts.astype(float)
        ghat = gap_sums / s
        crad = run.tracker.radius(s, gap_sigma)
        leader = int(np.argmax(ghat))
        others = idx[:-1] != leader
        best_other = float((ghat + crad)[others].max())
        if ghat[leader] - crad[leader] > best_other:
            return run.finish("naive", "rule", _split_order(order, leader + 1), phase1_rounds)
        challenger = int(np.flatnonzero(others)[np.argmax((ghat + crad)[others])])
        full = gap_step(np.array([leader, challenger]))
        run.record()
    return run.finish("naive", "budget", phase1_rounds=phase1_rounds)


ALGORITHMS: dict[str, Callable[[Instance, RunConfig, np.random.Generator], RunTrace]] = {
    "maxgap-elim": max_gap_elim,
    "maxgap-ucb": max_gap_ucb,
    "maxgap-top2-ucb": max_gap_top2_ucb,
    "uniform": uniform_baseline,
    "naive": naive_sort_then_bai,
}
