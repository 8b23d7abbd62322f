import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgap.confidence import IntervalTracker, radius
from maxgap.algorithms import RunConfig, _Run
from maxgap.env import ArmSpec, Instance


class TestRadius:
    def test_closed_form_value(self):
        # direct evaluation: sqrt(2 * log(4*4*1/0.1)) = sqrt(2 log 160);
        # the factor 2 is required for the anytime coverage guarantee (the
        # sqrt(log 160) = 2.2528 variant fails it measurably)
        assert radius(1, 4, 0.1, 1.0) == pytest.approx(
            math.sqrt(2.0 * math.log(160.0)), abs=1e-12
        )
        assert radius(1, 4, 0.1, 1.0) == pytest.approx(
            math.sqrt(2.0) * 2.2528, abs=1e-3
        )

    def test_linear_sigma_scaling(self):
        assert radius(10, 4, 0.1, 2.0) == pytest.approx(2.0 * radius(10, 4, 0.1, 1.0))
        assert radius(10, 4, 0.1, 0.0) == 0.0

    def test_inverse_sqrt_count_shape(self):
        # quadrupling the count roughly halves the radius (log factor aside)
        big, other = radius(400_000, 4, 0.1, 1.0), radius(100_000, 4, 0.1, 1.0)
        assert big / other == pytest.approx(0.5, rel=0.1)

    def test_decreasing_and_vanishing(self):
        vals = [radius(s, 6, 0.05, 1.0) for s in range(1, 2000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert radius(10**9, 6, 0.05, 1.0) < 1e-3

    def test_sqrt_log_factor_nondecreasing(self):
        # radius(s) * sqrt(s) / sigma is the sqrt-log factor, nondecreasing in s
        vals = [radius(s, 4, 0.1, 1.0) * math.sqrt(s) for s in range(1, 500)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("k", [3, 24, 90])
    @pytest.mark.parametrize("delta", [0.1, 1e-6])
    def test_tracker_radius_matches_scalar(self, k, delta):
        counts = np.unique(np.rint(np.logspace(0, 9, 400)))
        sigmas = np.resize([0.0, 0.05, 1.0, 2.5], counts.size)
        got = IntervalTracker(k, np.ones(k), delta).radius(counts, sigmas)
        want = [radius(int(s), k, delta, sig) for s, sig in zip(counts, sigmas)]
        assert counts[0] == 1 and counts[-1] == 1e9
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            radius(0, 4, 0.1, 1.0)
        with pytest.raises(ValueError):
            radius(1, 4, 1.5, 1.0)
        with pytest.raises(ValueError):
            radius(1, 4, 0.1, -1.0)


class TestUpdate:
    """Samples folded into the tracker one at a time, each followed by a refresh."""

    def test_first_sample(self):
        tracker = IntervalTracker(4, np.ones(4), delta=0.1)
        tracker.add(np.array([2]), 1, np.array([0.5]))
        tracker.refresh()
        c = radius(1, 4, 0.1, 1.0)
        assert tracker.counts[2] == 1 and tracker.means[2] == 0.5
        assert tracker.l_env[2] == pytest.approx(0.5 - c, abs=1e-12)
        assert tracker.r_env[2] == pytest.approx(0.5 + c, abs=1e-12)

    def test_mean_undefined_before_first_sample(self):
        # no mean and no interval before an arm's first sample: a refresh
        # leaves its envelope unbounded
        tracker = IntervalTracker(4, np.ones(4), delta=0.1)
        tracker.add(np.array([0]), 3, np.array([1.0]))
        tracker.refresh()
        assert np.isnan(tracker.means[1:]).all()
        assert np.all(tracker.l_env[1:] == -np.inf) and np.all(tracker.r_env[1:] == np.inf)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=60)
    )
    def test_envelopes_monotone_and_nested(self, xs):
        tracker = IntervalTracker(4, np.ones(4), delta=0.1)
        raw = []  # each refresh's interval, mean +- radius
        total = 0.0
        for n, x in enumerate(xs, start=1):
            prev = tracker.l_env[0], tracker.r_env[0]
            tracker.add(np.array([0]), 1, np.array([x]))
            tracker.refresh()
            assert tracker.l_env[0] >= prev[0] and tracker.r_env[0] <= prev[1]
            total += x
            c = radius(n, 4, 0.1, 1.0)
            raw.append((total / n - c, total / n + c))
        # the envelope lies inside every raw interval, and touches the
        # tightest lower and upper ends
        l_env, r_env = tracker.l_env[0], tracker.r_env[0]
        assert all(l_env >= l - 1e-12 and r_env <= r + 1e-12 for l, r in raw)
        assert l_env == pytest.approx(max(l for l, _ in raw), abs=1e-12)
        assert r_env == pytest.approx(min(r for _, r in raw), abs=1e-12)

    def test_tracker_matches_scalar_updates(self):
        # the tracker against a per-sample fold with the scalar radius
        rng = np.random.default_rng(5)
        k, delta, sigma = 4, 0.2, 1.3
        tracker = IntervalTracker(k, np.full(k, sigma), delta=delta)
        counts, totals = [0] * k, [0.0] * k
        l_env, r_env = [-math.inf] * k, [math.inf] * k
        for _ in range(50):
            arm = int(rng.integers(k))
            x = float(rng.normal())
            tracker.add(np.array([arm]), 1, np.array([x]))
            tracker.refresh()
            counts[arm] += 1
            totals[arm] += x
            c = radius(counts[arm], k, delta, sigma)
            l_env[arm] = max(l_env[arm], totals[arm] / counts[arm] - c)
            r_env[arm] = min(r_env[arm], totals[arm] / counts[arm] + c)
        assert tracker.counts.tolist() == counts
        for a in range(k):
            assert tracker.l_env[a] == pytest.approx(l_env[a], abs=1e-12)
            assert tracker.r_env[a] == pytest.approx(r_env[a], abs=1e-12)

    def test_add_repeated_index_accumulates_per_occurrence(self):
        # naive's LUCB round lists the endpoints of the leader and challenger
        # gaps; when the two gaps share an arm, that arm is listed twice
        tracker = IntervalTracker(4, np.ones(4), delta=0.1)
        tracker.add(np.array([0, 1, 1, 2]), 3, np.array([1.5, 2.0, 4.0, -3.0]))
        assert tracker.counts.tolist() == [3, 6, 3, 0]
        assert tracker.sums.tolist() == [1.5, 6.0, -3.0, 0.0]
        tracker.add(np.array([1, 1]), 2, np.array([0.5, 0.25]))
        assert tracker.counts.tolist() == [3, 10, 3, 0]
        assert tracker.sums.tolist() == [1.5, 6.75, -3.0, 0.0]

    def test_means_nan_before_first_sample_without_warnings(self):
        tracker = IntervalTracker(4, np.ones(4), delta=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(tracker.means).all()
            tracker.add(np.array([0, 2]), 4, np.array([2.0, -1.0]))
            means = tracker.means
        assert means[[0, 2]].tolist() == [0.5, -0.25]
        assert np.isnan(means[[1, 3]]).all()
        assert means is not tracker.means  # a fresh array per read


class TestCoverage:
    def test_anytime_coverage_monte_carlo(self):
        # 500 trials of 1e4 updates on N(0,1) with delta=0.05: the true mean
        # stays inside the raw interval at every step in >= 95% of trials.
        trials, steps, delta, k = 500, 10_000, 0.05, 4
        rng = np.random.default_rng(123)
        draws = rng.standard_normal((trials, steps))
        means = np.cumsum(draws, axis=1) / np.arange(1, steps + 1)
        s = np.arange(1, steps + 1, dtype=float)
        c = np.sqrt(2.0 * np.log(4.0 * k * s * s / delta) / s)
        covered_all = np.all(np.abs(means) <= c, axis=1)
        assert covered_all.mean() >= 0.95

    def test_good_event_zero_noise(self):
        inst = Instance(tuple(ArmSpec(m, 0.0) for m in [0.0, 1.0, 3.0]))
        tracker = IntervalTracker(3, inst.sigmas, 0.1)
        tracker.add(np.arange(3), 1, inst.means)
        tracker.refresh()
        assert tracker.contains_truth(inst)

    def test_good_event_detects_escape(self):
        inst = Instance(tuple(ArmSpec(m, 1.0) for m in [0.0, 1.0, 3.0]))
        tracker = IntervalTracker(3, inst.sigmas, 0.1)
        tracker.add(np.arange(3), 10_000, 10_000 * inst.means)
        tracker.refresh()
        assert tracker.contains_truth(inst)
        # arm 1's empirical mean pushed to 0.5: its interval (radius ~0.05)
        # misses the true mean 1.0
        tracker.add(np.array([1]), 10_000, np.zeros(1))
        tracker.refresh()
        assert tracker.means[1] + radius(20_000, 3, 0.1, 1.0) < 1.0
        assert tracker.r_env[1] < 1.0
        assert not tracker.contains_truth(inst)

    def test_good_event_rate_over_runs(self):
        # envelope containment at the end of a run is equivalent to raw
        # containment at every refresh; failure rate must stay below delta.
        delta, trials, steps, k = 0.1, 500, 2000, 4
        means = np.array([0.0, 0.3, 1.0, 2.0])
        rng = np.random.default_rng(77)
        fails = 0
        s = np.arange(1, steps + 1, dtype=float)
        c = np.sqrt(2.0 * np.log(4.0 * k * s * s / delta) / s)
        for _ in range(trials):
            draws = rng.standard_normal((steps, k)) + means
            paths = np.cumsum(draws, axis=0) / s[:, None]
            l_env = (paths - c[:, None]).max(axis=0)
            r_env = (paths + c[:, None]).min(axis=0)
            if not np.all((l_env <= means) & (means <= r_env)):
                fails += 1
        assert fails / trials <= delta


def refresh_every_sampled_arm(tracker):
    """Reference refresh: tighten every arm with counts > 0 by its interval,
    recomputed from the counts and sums."""
    sampled = tracker.counts > 0
    s = tracker.counts[sampled].astype(float)
    c = tracker.radius(s, tracker.sigmas[sampled])
    mean = tracker.sums[sampled] / s
    tracker.l_env[sampled] = np.maximum(tracker.l_env[sampled], mean - c)
    tracker.r_env[sampled] = np.minimum(tracker.r_env[sampled], mean + c)


def assert_same_intervals(a, b):
    for name in ("counts", "sums", "means", "l_env", "r_env"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


class TestTouchedArmRefresh:
    """``refresh`` recomputes only the arms added to since the last refresh,
    and must leave every interval bitwise equal to a full recompute."""

    def pair(self, k=7):
        sigmas = np.linspace(0.5, 2.0, k)
        return IntervalTracker(k, sigmas, 0.05), IntervalTracker(k, sigmas, 0.05)

    def test_mixed_adds_match_full_recompute(self):
        rng = np.random.default_rng(31)
        fast, ref = self.pair()
        for _ in range(300):
            # arms 5 and 6 are never sampled; repeats are allowed
            arms = rng.integers(0, 5, size=int(rng.integers(1, 7)))
            n_rounds = int(rng.integers(1, 40))
            sums = rng.normal(size=arms.size) * n_rounds
            for t in (fast, ref):
                t.add(arms, n_rounds, sums)
            if rng.random() < 0.6:
                fast.refresh()
                refresh_every_sampled_arm(ref)
                assert_same_intervals(fast, ref)
        assert np.all(fast.counts[5:] == 0)
        assert np.all(fast.l_env[5:] == -np.inf) and np.all(fast.r_env[5:] == np.inf)

    def test_block_split_over_add_chunks(self):
        # a checkpoint split: one block reaches the tracker as several adds
        fast, ref = self.pair()
        arms = np.array([0, 2, 3])
        fast.add(arms, 5, np.array([1.0, -2.0, 0.5]))
        ref.add(arms, 5, np.array([1.0, -2.0, 0.5]))
        fast.refresh()
        refresh_every_sampled_arm(ref)
        for n_rounds, sums in ((3, [0.2, 0.1, -0.4]), (7, [2.0, -1.0, 3.0]), (1, [0.0, 0.3, 0.1])):
            fast.add(arms, n_rounds, np.array(sums))
            ref.add(arms, n_rounds, np.array(sums))
        fast.refresh()
        refresh_every_sampled_arm(ref)
        assert_same_intervals(fast, ref)

    def test_refresh_without_add_changes_nothing(self):
        fast, ref = self.pair()
        fast.add(np.array([1, 1, 4]), 2, np.array([0.5, -0.5, 3.0]))
        ref.add(np.array([1, 1, 4]), 2, np.array([0.5, -0.5, 3.0]))
        fast.refresh()
        refresh_every_sampled_arm(ref)
        before = {n: getattr(fast, n).copy() for n in ("l_env", "r_env")}
        fast.refresh()
        refresh_every_sampled_arm(ref)
        assert_same_intervals(fast, ref)
        for name, value in before.items():
            assert np.array_equal(getattr(fast, name), value), name

    def test_uniform_single_refresh_after_checkpoint_splits(self):
        # uniform_baseline's shape: one advance split at every checkpoint,
        # then a single refresh
        inst = Instance(tuple(ArmSpec(m, 1.0) for m in [0.0, 0.4, 1.5, 1.7, 3.0]))
        cfg = RunConfig(delta=0.1, budget_cap=1000, checkpoints=(7, 52, 300, 640))
        run = _Run(inst, cfg, np.random.default_rng(4))
        adds = []
        add = run.tracker.add
        run.tracker.add = lambda *args: (adds.append(args), add(*args))
        run.advance(np.arange(inst.n_arms), cfg.budget_cap // inst.n_arms)
        assert len(adds) == 5
        ref = IntervalTracker(inst.n_arms, inst.sigmas, cfg.delta)
        for args in adds:
            ref.add(*args)
        run.tracker.refresh()
        refresh_every_sampled_arm(ref)
        assert_same_intervals(run.tracker, ref)


class TestKeptMeans:
    """``add`` keeps the mean of every arm it touched, which ``means`` and
    ``refresh`` read; it must equal ``sums / counts`` bit for bit."""

    @staticmethod
    def assert_kept(tracker):
        sampled = tracker.counts > 0
        means = tracker.means
        want = tracker.sums[sampled] / tracker.counts[sampled]
        assert means[sampled].tobytes() == want.tobytes()
        assert np.isnan(means[~sampled]).all()

    def test_after_every_add_with_repeated_indices(self):
        rng = np.random.default_rng(32)
        tracker = IntervalTracker(7, np.ones(7), 0.05)
        self.assert_kept(tracker)
        for _ in range(300):
            # arms 5 and 6 are never sampled; an index may repeat, as naive's
            # leader and challenger gaps list a shared endpoint arm twice
            arms = rng.integers(0, 5, size=int(rng.integers(1, 7)))
            n_rounds = int(rng.integers(1, 40))
            tracker.add(arms, n_rounds, rng.normal(size=arms.size) * n_rounds)
            self.assert_kept(tracker)
            if rng.random() < 0.5:
                tracker.refresh()
        assert np.isnan(tracker.means[5:]).all()

    def test_naive_shared_endpoint_arm(self):
        tracker = IntervalTracker(4, np.ones(4), delta=0.1)
        tracker.add(np.arange(4), 1, np.array([0.3, -0.1, 0.7, 0.2]))
        tracker.add(np.array([0, 1, 1, 2]), 3, np.array([1.5, 2.0, 4.0, -3.0]))
        self.assert_kept(tracker)
        assert tracker.means[1] == (-0.1 + 6.0) / 7

    def test_block_split_at_checkpoints(self):
        inst = Instance(tuple(ArmSpec(m, 1.0) for m in [0.0, 0.4, 1.5, 1.7, 3.0]))
        cfg = RunConfig(delta=0.1, budget_cap=1000, checkpoints=(7, 52, 300, 640))
        run = _Run(inst, cfg, np.random.default_rng(4))
        add = run.tracker.add
        adds = []

        def checked_add(*args):
            add(*args)
            adds.append(args)
            self.assert_kept(run.tracker)

        run.tracker.add = checked_add
        run.advance(np.arange(inst.n_arms), 1)  # a checkpoint clusters every arm
        run.advance(np.array([0, 2, 3]), 40)  # split at checkpoints 7 and 52
        run.advance(np.arange(inst.n_arms), 150)  # split at 300 and 640
        assert len(adds) == 7
