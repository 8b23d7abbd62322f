import numpy as np
import pytest

from conftest import check_elimination_monotone, check_trace_invariants
from maxgap.algorithms import (
    ALGORITHMS,
    RECORD_BLOCK,
    RunConfig,
    max_gap_elim,
    max_gap_top2_ucb,
    max_gap_ucb,
    naive_sort_then_bai,
    report_clusters,
    uniform_baseline,
)
from maxgap.env import (
    ArmSpec,
    Instance,
    build_lower_bound_instance,
    build_one_gap_instance,
    build_two_gap_instance,
)


def make_instance(means, sigma=1.0):
    return Instance(tuple(ArmSpec(m, sigma) for m in means))


def noiseless_013():
    return make_instance([0.0, 1.0, 3.0], sigma=0.0)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(delta=0.0)
        with pytest.raises(ValueError):
            RunConfig(checkpoints=(10, 10))
        with pytest.raises(ValueError):
            RunConfig(check_growth=0.5)
        with pytest.raises(ValueError):
            RunConfig(ucb_stop_factor=0.0)
        numpy_ints = RunConfig(budget_cap=np.int64(5000), checkpoints=(np.int64(100),))
        assert numpy_ints.checkpoints == (100,)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("budget_cap", 5e4), ("budget_cap", True),
            ("checkpoints", (1000.7, 5000)), ("checkpoints", (False, 5000)),
        ],
    )
    def test_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    def test_budget_cap_must_cover_one_round(self):
        inst = noiseless_013()
        with pytest.raises(ValueError):
            max_gap_elim(inst, RunConfig(budget_cap=2), np.random.default_rng(0))


class TestReportClusters:
    def test_obvious_split(self):
        assert report_clusters(np.array([0.1, 0.2, 0.9])) == ((2,), (0, 1))

    def test_tie_breaks_to_smaller_top_cluster(self):
        # two adjacent gaps of 1.0: the split closer to the top wins
        assert report_clusters(np.array([0.0, 1.0, 2.0, 2.1])) == ((2, 3), (0, 1))

    def test_equal_means_tie_breaks_by_index(self):
        top, bottom = report_clusters(np.array([1.0, 1.0, 0.0]))
        assert top == (0, 1) and bottom == (2,)

    def test_two_gap_instance_true_means(self):
        inst = build_two_gap_instance()
        assert report_clusters(inst.means) == (inst.top_cluster, inst.bottom_cluster)

    def test_requires_all_sampled(self):
        with pytest.raises(ValueError):
            report_clusters(np.array([0.1, np.nan, 0.4]))


class TestMaxGapElim:
    def test_noiseless_three_arm_dynamics(self):
        # point intervals after round 1: the small arm's bound (1) sits below
        # the certified lower bound (2) and is eliminated; the tied arm stays
        inst = noiseless_013()
        trace = max_gap_elim(inst, RunConfig(delta=0.1, budget_cap=1000), np.random.default_rng(0))
        assert trace.stop_round == 1
        assert trace.stopped_by == "rule"
        assert trace.active[-1].tolist() == [False, True, True]
        assert trace.clusters == ((2,), (0, 1))
        assert trace.total_samples == 3

    def test_eliminated_arms_never_resampled(self):
        inst = build_lower_bound_instance(1.0, 0.1)
        cfg = RunConfig(delta=0.1, budget_cap=500_000, check_growth=1.01)
        trace = max_gap_elim(inst, cfg, np.random.default_rng(3))
        assert trace.stopped_by == "rule"
        check_elimination_monotone(trace)
        check_trace_invariants(trace, inst)

    def test_flanking_arms_survive_under_good_event(self):
        inst = build_lower_bound_instance(1.0, 0.1)
        cfg = RunConfig(delta=0.1, budget_cap=500_000, check_growth=1.01)
        for seed in range(5):
            trace = max_gap_elim(inst, cfg, np.random.default_rng(seed))
            if trace.good_event and trace.stopped_by == "rule":
                assert trace.active[-1].tolist() == [False, True, True, False]
                assert trace.clusters == ((0, 1), (2, 3))

    def test_early_stop_rule(self):
        inst = build_lower_bound_instance(1.0, 0.1)
        base = RunConfig(delta=0.1, budget_cap=2_000_000, check_growth=1.02)
        early = RunConfig(
            delta=0.1, budget_cap=2_000_000, check_growth=1.02, elim_early_stop=True
        )
        a = max_gap_elim(inst, base, np.random.default_rng(5))
        b = max_gap_elim(inst, early, np.random.default_rng(5))
        assert b.total_samples <= a.total_samples
        assert b.stopped_by in ("early_rule", "rule")
        assert b.clusters == a.clusters == ((0, 1), (2, 3))

    def test_budget_truncation_flagged(self):
        inst = build_lower_bound_instance(1.0, 0.01)  # tiny eps: very hard
        cfg = RunConfig(delta=0.1, budget_cap=2000)
        trace = max_gap_elim(inst, cfg, np.random.default_rng(0))
        assert trace.truncated and trace.stopped_by == "budget"
        assert sorted(trace.clusters[0] + trace.clusters[1]) == [0, 1, 2, 3]


class TestMaxGapUCB:
    def test_noiseless_count_stop(self):
        # after round 1 only the two large-gap arms tie at the top bound;
        # they are sampled until their counts dominate by the stop factor
        inst = noiseless_013()
        cfg = RunConfig(delta=0.1, budget_cap=1000, ucb_stop_factor=10.0)
        trace = max_gap_ucb(inst, cfg, np.random.default_rng(0))
        assert trace.final_counts.tolist() == [1, 5, 5]
        assert trace.stop_round == 5
        assert trace.clusters == ((2,), (0, 1))

    def test_sampled_set_always_at_least_two(self):
        inst = build_lower_bound_instance(1.0, 0.1)
        cfg = RunConfig(delta=0.1, budget_cap=100_000, check_growth=1.01, ucb_stop_factor=5.0)
        trace = max_gap_ucb(inst, cfg, np.random.default_rng(1))
        assert np.all(trace.active.sum(axis=1) >= 2)
        check_trace_invariants(trace, inst)

    def test_harder_epsilon_needs_more_samples_of_bottom_arm(self):
        # the bottom arm's sampling cost scales with its hardness; doubling
        # epsilon makes it easier on average over trials
        cfg = RunConfig(delta=0.1, budget_cap=3_000_000, check_growth=1.02, ucb_stop_factor=5.0)
        t4 = {}
        for eps in (0.1, 0.2):
            inst = build_lower_bound_instance(1.0, eps)
            t4[eps] = np.mean(
                [
                    max_gap_ucb(inst, cfg, np.random.default_rng(200 + t)).final_counts[3]
                    for t in range(20)
                ]
            )
        assert t4[0.1] > t4[0.2]

    def test_two_gap_late_profile_bimodal(self):
        # late in the run only the four large-gap flankers keep being
        # sampled, with the widest pair eventually dominating
        inst = build_two_gap_instance()
        cfg = RunConfig(
            delta=0.1,
            budget_cap=2_000_000,
            check_growth=1.02,
            checkpoints=(3_000, 2_000_000),
        )
        trace = max_gap_ucb(inst, cfg, np.random.default_rng(2))
        early, late = trace.checkpoints
        flankers = {8, 9, 17, 18}
        top4 = set(np.argsort(late.counts)[-4:].tolist())
        assert top4 == flankers
        assert late.counts[17] + late.counts[18] >= late.counts[8] + late.counts[9]
        # early allocation is comparatively flat; by the end it is anything but
        assert early.counts.min() >= 0.1 * early.counts.max()
        assert late.counts.min() < 0.01 * late.counts.max()


class TestMaxGapTop2UCB:
    def test_noiseless_stops_immediately(self):
        inst = noiseless_013()
        trace = max_gap_top2_ucb(inst, RunConfig(delta=0.1, budget_cap=1000), np.random.default_rng(0))
        assert trace.stop_round == 1
        assert trace.stopped_by == "rule"
        assert trace.clusters == ((2,), (0, 1))

    def test_degenerate_rounds_sample_top_set_and_continue(self, streetview_scale_instance):
        # early rounds with huge overlapping intervals can tie every arm at
        # one bound value; the run must continue rather than stop vacuously
        inst = streetview_scale_instance
        cfg = RunConfig(delta=0.1, budget_cap=3000, checkpoints=(3000,), check_growth=1.0)
        hit = None
        for seed in range(60):
            trace = max_gap_top2_ucb(inst, cfg, np.random.default_rng(seed))
            if trace.degenerate_rounds > 0:
                hit = trace
                break
        assert hit is not None, "no all-tied round found in 60 seeds"
        assert hit.stopped_by == "budget"
        assert hit.total_samples == 3000 - 3000 % 90 or hit.total_samples <= 3000

    def test_trace_invariants(self):
        inst = build_lower_bound_instance(1.0, 0.1)
        cfg = RunConfig(delta=0.1, budget_cap=500_000, check_growth=1.01)
        trace = max_gap_top2_ucb(inst, cfg, np.random.default_rng(4))
        assert trace.stopped_by == "rule"
        check_trace_invariants(trace, inst)
        assert trace.clusters == ((0, 1), (2, 3))
        # at stopping only one gap value remains plausible above the bound:
        # the top tier clears it, the runner-up value sits strictly below
        last = trace.upper[-1]
        lb = trace.lower[-1]
        top = last.max()
        runner_up = last[last < top].max()
        assert top >= lb > runner_up


class TestUniform:
    def test_round_robin_counts(self):
        inst = noiseless_013()
        cfg = RunConfig(delta=0.1, budget_cap=300, checkpoints=(30, 90, 240))
        trace = uniform_baseline(inst, cfg, np.random.default_rng(0))
        assert np.all(trace.final_counts == 100)
        assert not trace.truncated
        assert [c.budget for c in trace.checkpoints] == [30, 90, 240]
        assert all(c.clusters == ((2,), (0, 1)) for c in trace.checkpoints)

    def test_checkpoint_overshoot_bounded(self):
        inst = build_lower_bound_instance(1.0, 0.1)
        cfg = RunConfig(delta=0.1, budget_cap=5000, checkpoints=(101, 1003, 4999))
        trace = uniform_baseline(inst, cfg, np.random.default_rng(0))
        for rec in trace.checkpoints:
            assert 0 <= rec.total_samples - rec.budget < inst.n_arms


class TestNaive:
    def test_noiseless_two_phase(self):
        inst = noiseless_013()
        trace = naive_sort_then_bai(inst, RunConfig(delta=0.1, budget_cap=1000), np.random.default_rng(0))
        assert trace.phase1_rounds is not None and trace.phase1_rounds <= 2
        assert trace.stopped_by == "rule"
        assert trace.clusters == ((2,), (0, 1))
        # 3 sorting samples plus one two-draw sample of each of the 2 gaps
        assert trace.total_samples == 7

    def test_gap_samples_have_double_variance(self):
        # a gap sample is the difference of fresh draws from its two arms
        inst = make_instance([0.0, 1.0, 3.0], sigma=1.0)
        rng = np.random.default_rng(8)
        from maxgap.env import sample_block

        draws = sample_block(inst, np.array([2, 1]), 200_000, rng)
        diffs = draws[:, 0] - draws[:, 1]
        assert diffs.var() == pytest.approx(2.0, rel=0.05)
        assert diffs.mean() == pytest.approx(2.0, abs=0.02)

    def test_sorting_cost_grows_with_inverse_min_gap(self):
        # shrinking the small gaps blows up the sort-first baseline much
        # faster than the adaptive sampler
        ratios = {}
        for dmin in (0.2, 0.05):
            inst = build_one_gap_instance(24, dmin, 1.0)
            cfg_naive = RunConfig(delta=0.1, budget_cap=10_000_000, check_growth=1.02)
            cfg_ucb = RunConfig(
                delta=0.1, budget_cap=10_000_000, check_growth=1.02, ucb_stop_factor=2.0
            )
            naive = np.mean(
                [
                    naive_sort_then_bai(inst, cfg_naive, np.random.default_rng(100 + t)).total_samples
                    for t in range(3)
                ]
            )
            ucb = np.mean(
                [
                    max_gap_ucb(inst, cfg_ucb, np.random.default_rng(100 + t)).total_samples
                    for t in range(3)
                ]
            )
            ratios[dmin] = naive / ucb
        assert ratios[0.05] > ratios[0.2]

    def test_truncation_in_phase_one(self):
        # near-duplicate means keep intervals overlapping past the budget
        inst = make_instance([0.0, 1e-9, 1.0], sigma=1.0)
        cfg = RunConfig(delta=0.1, budget_cap=3000)
        trace = naive_sort_then_bai(inst, cfg, np.random.default_rng(0))
        assert trace.truncated and trace.stopped_by == "budget"


class TestSampleCountEnvelope:
    def test_elimination_counts_bounded_by_hardness(self):
        """Per-arm counts at stopping obey T_a <= C * log(K/(delta*gamma_a))
        / gamma_a^2 for one modest constant C fitted across arms.

        The envelope constant is 100: it scales with the square of the
        confidence-radius constant (doubling it versus the pre-correction
        radius), and the log factors in the bound only line up for small
        delta, so the check runs at delta = 1e-6.
        """
        import maxgap.hardness as hardness

        inst = build_two_gap_instance()
        _, _, g = hardness.gamma(inst)
        non_flanking = np.isfinite(g)
        term = np.log(24.0 / (1e-6 * g[non_flanking])) / g[non_flanking] ** 2
        cfg = RunConfig(delta=1e-6, budget_cap=200_000_000, check_growth=1.02)
        for seed in range(5):
            trace = max_gap_elim(inst, cfg, np.random.Generator(np.random.PCG64(seed)))
            assert trace.stopped_by == "rule"
            fitted = (trace.final_counts[non_flanking] / term).max()
            assert fitted <= 100.0


DETERMINISM_CONFIG = RunConfig(
    delta=0.1, budget_cap=60_000, checkpoints=(500, 5000), check_growth=1.01,
    ucb_stop_factor=5.0,
)

# (stopped_by, total_samples, stop_round, final_counts, clusters,
# degenerate_rounds) of one seed-9 run on the lower-bound instance under
# DETERMINISM_CONFIG, recorded before the samplers shared one loop.  The
# maxgap-ucb pin was re-recorded when a block became one Gaussian sum per arm
# (``sample_sums``); the others read the same on both streams.
PINNED_SUMMARIES = {
    "maxgap-elim": ("budget", 60000, 15000, [15000] * 4, ((0, 1), (2, 3)), 0),
    "maxgap-ucb": ("budget", 59999, 23718, [1385, 23718, 22464, 12432], ((0, 1), (2, 3)), 0),
    "maxgap-top2-ucb": ("budget", 60000, 15000, [15000] * 4, ((0, 1), (2, 3)), 130),
    "uniform": ("budget", 60000, 15000, [15000] * 4, ((0, 1), (2, 3)), 0),
    "naive": ("budget", 60000, 15000, [15000] * 4, ((0, 1), (2, 3)), 0),
}


class TestDeterminism:
    @pytest.mark.parametrize(
        "algorithm",
        [max_gap_elim, max_gap_ucb, max_gap_top2_ucb, uniform_baseline, naive_sort_then_bai],
    )
    def test_identical_seed_identical_trace(self, algorithm):
        inst = build_lower_bound_instance(1.0, 0.1)
        cfg = DETERMINISM_CONFIG
        a = algorithm(inst, cfg, np.random.default_rng(9))
        b = algorithm(inst, cfg, np.random.default_rng(9))
        assert a.fingerprint() == b.fingerprint()
        assert a.clusters == b.clusters
        assert np.array_equal(a.final_counts, b.final_counts)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_pinned_summary(self, name):
        # Integers and index tuples only: float bytes could move by an ulp
        # with the platform's libm.
        inst = build_lower_bound_instance(1.0, 0.1)
        t = ALGORITHMS[name](inst, DETERMINISM_CONFIG, np.random.default_rng(9))
        summary = (
            t.stopped_by, t.total_samples, t.stop_round, t.final_counts.tolist(),
            t.clusters, t.degenerate_rounds,
        )
        assert summary == PINNED_SUMMARIES[name]

    def test_different_seeds_differ(self):
        inst = build_lower_bound_instance(1.0, 0.1)
        cfg = RunConfig(delta=0.1, budget_cap=60_000, check_growth=1.01)
        a = max_gap_elim(inst, cfg, np.random.default_rng(1))
        b = max_gap_elim(inst, cfg, np.random.default_rng(2))
        assert a.fingerprint() != b.fingerprint()


class TestCheckpointSemantics:
    def test_adaptive_checkpoints_filled_after_stop(self):
        inst = noiseless_013()
        cfg = RunConfig(delta=0.1, budget_cap=10_000, checkpoints=(2, 5000, 9000))
        trace = max_gap_elim(inst, cfg, np.random.default_rng(0))
        assert trace.stopped_by == "rule"
        assert [c.budget for c in trace.checkpoints] == [2, 5000, 9000]
        # checkpoints past the stop inherit the final clustering
        assert trace.checkpoints[-1].clusters == trace.clusters
        assert trace.checkpoints[-1].total_samples == trace.total_samples


RECORD_ARRAYS = (
    "round_index", "counts", "upper_right", "upper_left", "lower",
    "env_l", "env_r", "sampled", "active",
)


def record_layout(trace):
    return {n: (getattr(trace, n).shape, getattr(trace, n).dtype) for n in RECORD_ARRAYS}


def expected_layout(n_records, k):
    wide = lambda dtype: ((n_records, k), np.dtype(dtype))  # noqa: E731
    return {
        "round_index": ((n_records,), np.dtype(np.int64)),
        "counts": wide(np.int64),
        "upper_right": wide(float),
        "upper_left": wide(float),
        "lower": ((n_records,), np.dtype(float)),
        "env_l": wide(float),
        "env_r": wide(float),
        "sampled": wide(bool),
        "active": wide(bool),
    }


class TestRecordBuffers:
    """Records are written into fixed-size blocks and joined once per field."""

    def test_more_records_than_one_block(self):
        inst = build_two_gap_instance()
        cfg = RunConfig(delta=0.1, budget_cap=6_000)
        trace = max_gap_ucb(inst, cfg, np.random.default_rng(3))
        n = trace.round_index.size
        assert trace.stopped_by == "budget" and n > 2 * RECORD_BLOCK
        assert record_layout(trace) == expected_layout(n, inst.n_arms)
        # rows on both sides of each block boundary hold their own rounds; the
        # block the cap left empty is not recorded, so no round repeats
        assert np.all(np.diff(trace.round_index) > 0)
        assert trace.round_index[-1] == trace.stop_round
        assert np.array_equal(trace.counts[-1], trace.final_counts)
        assert np.all(np.diff(trace.counts.sum(axis=1)) > 0)
        check_trace_invariants(trace, inst)

    def test_uniform_has_no_records(self):
        inst = noiseless_013()
        trace = uniform_baseline(inst, RunConfig(budget_cap=300), np.random.default_rng(0))
        assert record_layout(trace) == expected_layout(0, inst.n_arms)

    def test_traces_own_compact_unshared_arrays(self):
        inst = build_two_gap_instance()
        cfg = RunConfig(delta=0.1, budget_cap=6_000)
        first = max_gap_ucb(inst, cfg, np.random.default_rng(3))
        later = max_gap_top2_ucb(inst, cfg, np.random.default_rng(4))
        empty = uniform_baseline(inst, cfg, np.random.default_rng(5))
        short = max_gap_elim(noiseless_013(), cfg, np.random.default_rng(6))
        assert 0 < short.round_index.size < RECORD_BLOCK
        traces = (first, later, empty, short)
        arrays = [getattr(t, n) for t in traces for n in RECORD_ARRAYS]
        # owned data: a trace holds no view into a record block
        assert all(a.flags.c_contiguous and a.flags.owndata for a in arrays)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)
