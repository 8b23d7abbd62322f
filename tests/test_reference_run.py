"""Whole runs against a slow reference written from the docstrings.

The reference takes one plain-Python step at a time:

- a block of n rounds over m listed arms, split at checkpoint crossings and at
  the budget cap, draws one ``rng.standard_normal(m)`` per chunk and adds
  ``n * mu + sqrt(n) * sigma * z`` to each listed arm (the Gaussian sum of n
  rewards; an arm listed twice gets its own normal);
- counts, sums and envelopes are Python numbers per arm, the envelope of every
  sampled arm tightened by ``mean +- radius`` at each check, with the radius
  from ``IntervalTracker.radius``;
- gap upper bounds come from the scalar anchor loop ``gapbounds.upper_gap``,
  and the lower bound from enumerating every split of the arms ordered by
  descending mean (ties by index), the first best split winning;
- each selection rule is taken as its docstring states it.

Every run must equal its reference exactly: each record field, the stop
reason, the clusters, each checkpoint record and the trace fingerprint.
"""

import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from maxgap.algorithms import ALGORITHMS, CheckpointRecord, RunConfig, RunTrace
from maxgap.confidence import IntervalTracker
from maxgap.env import ArmSpec, Instance, InstanceError
from maxgap.gapbounds import upper_gap

RUNS = 60  # per sampler

# RunTrace's per-record fields in record order: dtype, one value per arm
RECORD_FIELDS = (
    ("round_index", np.int64, False), ("counts", np.int64, True),
    ("upper_right", float, True), ("upper_left", float, True), ("lower", float, False),
    ("env_l", float, True), ("env_r", float, True), ("sampled", bool, True),
    ("active", bool, True),
)


def descending(values):
    """Arm indices by descending value, ties by ascending index."""
    return sorted(range(len(values)), key=lambda a: (-values[a], a))


def split_clusters(order, m):
    return tuple(sorted(order[:m])), tuple(sorted(order[m:]))


def largest_gap_split(means):
    """``report_clusters``: split the arms at the largest adjacent gap of the
    means, ties in the gap toward the smaller top cluster."""
    order = descending(means)
    gaps = [means[order[i]] - means[order[i + 1]] for i in range(len(order) - 1)]
    return split_clusters(order, gaps.index(max(gaps)) + 1)


class ReferenceRun:
    """One run's state: per-arm Python lists, records and checkpoint records."""

    def __init__(self, instance, config, rng):
        k = instance.n_arms
        self.k, self.config, self.rng = k, config, rng
        self.mu = [float(m) for m in instance.means]
        self.sigma = [float(s) for s in instance.sigmas]
        self.vector_radius = IntervalTracker(k, instance.sigmas, config.delta).radius
        self.counts = [0] * k
        self.sums = [0.0] * k
        self.l_env = [-math.inf] * k
        self.r_env = [math.inf] * k
        self.t = self.total = self.degenerate_rounds = 0
        self.checkpoint_splits = 0  # blocks cut at a checkpoint, for coverage
        self.ended_empty = False
        self.truncated = False
        self.pending = list(config.checkpoints)
        self.checkpoints = []
        self.records = []

    def radius(self, count, sigma):
        return float(self.vector_radius(np.array([float(count)]), np.array([sigma]))[0])

    def means(self):
        return [s / c if c else math.nan for s, c in zip(self.sums, self.counts)]

    def next_check_rounds(self):
        """Rounds to the next scheduled check: 1 at growth 1.0."""
        return max(1, int(self.t * self.config.check_growth) - self.t)

    def draw(self, arms, n_rounds):
        """Sample the listed arms for up to ``n_rounds`` rounds; returns the
        rounds drawn and each listed arm's sum over them."""
        m = len(arms)
        done, block = 0, [0.0] * m
        while done < n_rounds:
            n = min(n_rounds - done, (self.config.budget_cap - self.total) // m)
            if n <= 0:
                self.truncated = True
                self.ended_empty = done == 0  # the cap left the block nothing
                break
            if self.pending:  # stop at the first round that reaches the checkpoint
                to_checkpoint = (self.pending[0] - self.total + m - 1) // m
                self.checkpoint_splits += to_checkpoint < n
                n = min(n, to_checkpoint)
            z = self.rng.standard_normal(m)
            chunk = [
                n * self.mu[a] + math.sqrt(n) * self.sigma[a] * float(z[i])
                for i, a in enumerate(arms)
            ]
            for a, x in zip(arms, chunk):
                self.counts[a] += n
                self.sums[a] += x
            block = chunk if done == 0 else [b + x for b, x in zip(block, chunk)]
            self.t += n
            self.total += n * m
            done += n
            while self.pending and self.total >= self.pending[0]:
                self.record_checkpoint(self.pending.pop(0))
        return done, block

    def record_checkpoint(self, budget):
        clusters = largest_gap_split(self.means())
        self.checkpoints.append((budget, self.total, clusters, list(self.counts)))

    def tighten(self):
        for a in range(self.k):
            if self.counts[a]:
                c = self.radius(self.counts[a], self.sigma[a])
                mean = self.sums[a] / self.counts[a]
                self.l_env[a] = max(self.l_env[a], mean - c)
                self.r_env[a] = min(self.r_env[a], mean + c)

    def check(self):
        self.tighten()
        # IntervalSnapshot rejects crossed envelopes (a bad-event artifact);
        # upper_gap reads them as they are
        rows = SimpleNamespace(l=np.array(self.l_env), r=np.array(self.r_env), n_arms=self.k)
        bounds = [upper_gap(a, rows) for a in range(self.k)]
        self.udr = [b[0] for b in bounds]
        self.udl = [b[1] for b in bounds]
        self.ud = [b[2] for b in bounds]
        order = descending(self.means())
        self.lb, self.split_size = -math.inf, 0
        for m in range(1, self.k):
            value = min(self.l_env[a] for a in order[:m]) - max(self.r_env[a] for a in order[m:])
            if value > self.lb:
                self.lb, self.split_size = value, m

    def record(self, sampled, active=None):
        self.records.append((
            self.t, list(self.counts), self.udr, self.udl, self.lb, list(self.l_env),
            list(self.r_env), sampled, sampled if active is None else active,
        ))

    def finish(self, algorithm, stopped_by, clusters=None, phase1_rounds=None):
        """Keep the run's trace as ``trace``; returns the run."""
        means = self.means()
        while self.pending:  # checkpoints never reached: the final clustering
            self.record_checkpoint(self.pending.pop(0))
        fields = {}
        for i, (name, dtype, per_arm) in enumerate(RECORD_FIELDS):
            column = np.array([rec[i] for rec in self.records], dtype=dtype)
            fields[name] = column.reshape(-1, self.k) if per_arm else column
        self.trace = RunTrace(
            algorithm=algorithm,
            n_arms=self.k,
            **fields,
            stop_round=self.t,
            total_samples=self.total,
            stopped_by=stopped_by,
            truncated=self.truncated,
            clusters=largest_gap_split(means) if clusters is None else clusters,
            checkpoints=tuple(
                CheckpointRecord(b, n, c, np.array(counts, dtype=np.int64))
                for b, n, c, counts in self.checkpoints
            ),
            final_counts=np.array(self.counts, dtype=np.int64),
            final_means=np.array(means),
            good_event=all(l <= m <= r for l, m, r in zip(self.l_env, self.mu, self.r_env)),
            phase1_rounds=phase1_rounds,
            degenerate_rounds=self.degenerate_rounds,
        )
        return self


def mask(k, arms):
    listed = set(arms)
    return [a in listed for a in range(k)]


# -- selection rules, as the samplers' docstrings state them -----------------


def elim_rule(run, active):
    """Eliminate arms whose gap upper bound falls below the certified lower
    bound (ties never eliminate); stop at two arms, or earlier when the
    certified split holds: a positive lower bound that every right-gap bound
    of the top group and every left-gap bound of the bottom group sits below."""
    active = [on and not run.ud[a] < run.lb for a, on in enumerate(active)]
    if run.config.elim_early_stop and run.lb > 0:
        order = descending(run.means())
        top, bottom = order[: run.split_size], order[run.split_size :]
        if all(run.udr[a] < run.lb for a in top) and all(run.udl[a] < run.lb for a in bottom):
            return active, "early_rule"
    return active, "rule" if sum(active) <= 2 else None


def ucb_rule(run, current):
    """Sample every arm attaining the largest gap upper bound; stop when the two
    largest sample counts reach ``ucb_stop_factor`` times all the others."""
    top = max(run.ud)
    counts = sorted(run.counts, reverse=True)
    top_two = counts[0] + counts[1]
    dominant = top_two >= run.config.ucb_stop_factor * (run.total - top_two)
    return [u == top for u in run.ud], "rule" if dominant else None


def top2_rule(run, current):
    """Sample the arms attaining the two largest distinct gap upper bound
    values; stop when the second value is below the lower bound.  When every
    arm ties at one value the round is degenerate and samples every arm."""
    values = sorted(set(run.ud), reverse=True)
    if len(values) == 1:
        run.degenerate_rounds += 1
        return [True] * run.k, None
    return [u >= values[1] for u in run.ud], "rule" if values[1] < run.lb else None


def bound_driven(algorithm, rule, instance, config, rng):
    """Start from every arm; at each scheduled check let the rule pick the next
    set.  A block the cap cuts short ends the run, recorded if it drew."""
    run = ReferenceRun(instance, config, rng)
    current = [True] * run.k
    while True:
        n_rounds = run.next_check_rounds()
        drawn, _ = run.draw([a for a in range(run.k) if current[a]], n_rounds)
        if drawn < n_rounds:
            if drawn:
                run.check()
                run.record(current)
            return run.finish(algorithm, "budget")
        run.check()
        nxt, stopped_by = rule(run, current)
        run.record(current, nxt)
        if stopped_by:
            return run.finish(algorithm, stopped_by)
        current = nxt


def uniform(instance, config, rng):
    """Round-robin up to the cap, one tightening at the end, no records."""
    run = ReferenceRun(instance, config, rng)
    run.draw(list(range(run.k)), config.budget_cap // run.k)
    run.tighten()
    return run.finish("uniform", "budget")


def naive(instance, config, rng):
    """Sort, then search.  Phase 1 samples every arm until the intervals, in
    order of their lower ends, each end below the next one's lower end.
    Phase 2 races the K-1 adjacent gaps of the empirical order as pseudo-arms:
    a gap's sample is its upper arm's draw minus its lower arm's, with sigma
    ``sqrt(sigma_hi^2 + sigma_lo^2)``; after one round of every gap each round
    samples the leader (largest mean) and the challenger (largest UCB among
    the rest), stopping when the leader's LCB beats every other UCB."""
    run = ReferenceRun(instance, config, rng)
    k = run.k

    def block(arms, n_rounds):
        drawn, sums = run.draw(arms, n_rounds)
        if drawn:
            run.check()
            run.record(mask(k, arms))
        return drawn, sums, drawn == n_rounds

    while True:
        *_, full = block(list(range(k)), run.next_check_rounds())
        if not full:
            return run.finish("naive", "budget", phase1_rounds=run.t)
        by_l = sorted(range(k), key=lambda a: (run.l_env[a], a))
        if all(run.r_env[a] < run.l_env[b] for a, b in zip(by_l, by_l[1:])):
            break
    phase1_rounds = run.t
    order = descending(run.means())
    pairs = list(zip(order, order[1:]))
    gap_sigma = [math.sqrt(run.sigma[h] ** 2 + run.sigma[lo] ** 2) for h, lo in pairs]
    gap_counts, gap_sums = [0] * (k - 1), [0.0] * (k - 1)

    def gap_block(gaps, n_rounds):
        drawn, sums, full = block([a for g in gaps for a in pairs[g]], n_rounds)
        for i, g in enumerate(gaps):
            gap_counts[g] += drawn
            gap_sums[g] += sums[2 * i] - sums[2 * i + 1]
        return full

    full = gap_block(range(k - 1), 1)
    while full:
        ghat = [s / c for s, c in zip(gap_sums, gap_counts)]
        crad = [run.radius(c, sig) for c, sig in zip(gap_counts, gap_sigma)]
        ucb = [g + c for g, c in zip(ghat, crad)]
        leader = ghat.index(max(ghat))
        others = [g for g in range(k - 1) if g != leader]
        challenger = max(others, key=lambda g: (ucb[g], -g))
        if ghat[leader] - crad[leader] > ucb[challenger]:
            clusters = split_clusters(order, leader + 1)
            return run.finish("naive", "rule", clusters, phase1_rounds)
        full = gap_block([leader, challenger], run.next_check_rounds())
    return run.finish("naive", "budget", phase1_rounds=phase1_rounds)


REFERENCES = {
    "maxgap-elim": lambda *a: bound_driven("maxgap-elim", elim_rule, *a),
    "maxgap-ucb": lambda *a: bound_driven("maxgap-ucb", ucb_rule, *a),
    "maxgap-top2-ucb": lambda *a: bound_driven("maxgap-top2-ucb", top2_rule, *a),
    "uniform": uniform,
    "naive": naive,
}


def random_case(seed):
    """An instance of K = 3..8 arms and a run config, both drawn from ``seed``.

    Arm labels are shuffled against the mean order.  Noise is small against
    the gaps, so that many runs stop by their rule before the cap; every
    eighth case is noiseless, with ladder gaps of 0 and 0.25 (tied means).
    Every other case has checkpoints, most of them inside the cap."""
    rng = np.random.default_rng(seed)
    k = 3 + seed % 6
    growth = 1.0 if seed % 4 < 2 else 1.02
    # noisier arms on the 1.02 schedule, whose blocks grow past one round
    # from round 100 on, so that checkpoints split them
    noise = 1.0 if growth == 1.0 else 2.5
    while True:
        gaps = rng.uniform(0.05, 0.4, k - 1)
        gaps[rng.integers(k - 1)] = rng.uniform(0.5, 1.2)
        sigmas = noise * rng.choice([0.02, 0.05, 0.1, 0.2, 0.4], k)
        if seed % 8 == 7:
            gaps[gaps < 0.5] = np.resize([0.0, 0.25], k - 1)[gaps < 0.5]
            sigmas[:] = 0.0
        means = rng.permutation(np.concatenate(([0.0], np.cumsum(gaps))))
        try:
            instance = Instance(tuple(ArmSpec(float(m), float(s)) for m, s in zip(means, sigmas)))
            break
        except InstanceError:  # tied largest gap
            continue
    cap = k * int(rng.integers(15, 70) if growth == 1.0 else rng.integers(60, 200))
    checkpoints = ()
    if seed % 2:
        checkpoints = tuple(sorted({int(c) for c in rng.integers(1, cap + 5 * k, 4)}))
    config = RunConfig(
        delta=float(rng.choice([0.05, 0.1, 0.3])),
        ucb_stop_factor=float(rng.choice([1.5, 3.0, 10.0])),
        budget_cap=cap,
        checkpoints=checkpoints,
        check_growth=growth,
    )
    return instance, config


def assert_same_trace(fast, ref):
    for name, dtype, _ in RECORD_FIELDS:
        got, want = getattr(fast, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for name in (
        "algorithm", "stop_round", "total_samples", "stopped_by", "truncated", "clusters",
        "good_event", "phase1_rounds", "degenerate_rounds",
    ):
        assert getattr(fast, name) == getattr(ref, name), name
    assert len(fast.checkpoints) == len(ref.checkpoints)
    for got, want in zip(fast.checkpoints, ref.checkpoints):
        assert (got.budget, got.total_samples, got.clusters) == (
            want.budget, want.total_samples, want.clusters
        )
        assert np.array_equal(got.counts, want.counts)
    assert fast.final_counts.tobytes() == ref.final_counts.tobytes()
    assert fast.final_means.tobytes() == ref.final_means.tobytes()
    assert fast.fingerprint() == ref.fingerprint()


def outcomes(fast, ref):
    """What one run exercised: its stop reason and the paths it took."""
    paths = {
        "ended_empty": ref.ended_empty,
        "split": ref.checkpoint_splits > 0,
        "degenerate": fast.degenerate_rounds > 0,
        "crossed": bool((fast.env_l > fast.env_r).any()),
    }
    return {fast.stopped_by, *(name for name, taken in paths.items() if taken)}


# (algorithm, elim_early_stop): outcomes at least two of its runs must show
COVERAGE = {
    ("maxgap-elim", False): ("rule", "budget", "ended_empty", "split", "crossed"),
    ("maxgap-elim", True): ("early_rule", "budget", "ended_empty", "split"),
    ("maxgap-ucb", False): ("rule", "budget", "ended_empty", "split", "crossed"),
    ("maxgap-top2-ucb", False): ("rule", "budget", "ended_empty", "split", "degenerate", "crossed"),
    ("naive", False): ("rule", "budget", "ended_empty", "split", "crossed"),
    ("uniform", False): ("budget", "split"),
}


@pytest.mark.parametrize("algorithm, early_stop", list(COVERAGE))
def test_runs_equal_reference(algorithm, early_stop):
    seen = Counter()
    for seed in range(RUNS):
        instance, config = random_case(seed)
        config = replace(config, elim_early_stop=early_stop)
        fast = ALGORITHMS[algorithm](instance, config, np.random.default_rng(seed))
        ref = REFERENCES[algorithm](instance, config, np.random.default_rng(seed))
        try:
            assert_same_trace(fast, ref.trace)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from exc
        seen.update(outcomes(fast, ref))
    assert all(seen[o] >= 2 for o in COVERAGE[algorithm, early_stop]), seen
