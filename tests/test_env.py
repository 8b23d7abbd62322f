import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgap.env import (
    ArmSpec,
    Instance,
    InstanceError,
    build_lower_bound_instance,
    build_one_gap_instance,
    build_two_gap_instance,
    load_means_file,
    sample_block,
    sample_sums,
)
from maxgap.env import _descending_order  # private: the package's one arm order


def make_instance(means, sigma=1.0):
    return Instance(tuple(ArmSpec(m, sigma) for m in means))


class TestInstanceBasics:
    def test_rejects_fewer_than_three_arms(self):
        with pytest.raises(InstanceError):
            make_instance([0.0, 1.0])

    def test_rejects_tied_max_gap(self):
        with pytest.raises(InstanceError):
            make_instance([0.0, 1.0, 2.0])

    def test_rejects_all_equal_means(self):
        with pytest.raises(InstanceError):
            make_instance([1.0, 1.0, 1.0])

    def test_rejects_nonfinite_mean_and_negative_sigma(self):
        with pytest.raises(InstanceError):
            ArmSpec(math.nan, 1.0)
        with pytest.raises(InstanceError):
            ArmSpec(0.0, -0.5)

    def test_three_point_gaps(self):
        # means [0, 1, 3]: the middle arm's gap is max{1, 2} = 2
        inst = make_instance([0.0, 1.0, 3.0])
        assert inst.gaps[1] == 2.0
        assert inst.gaps[0] == 1.0  # bottom arm: single right-side gap
        assert inst.gaps[2] == 2.0  # top arm: single left-side gap
        assert inst.delta_max == 2.0
        assert inst.split_rank == 1
        assert inst.top_cluster == (2,) and inst.bottom_cluster == (0, 1)

    def test_extreme_arm_takes_single_finite_gap(self):
        inst = make_instance([0.0, 0.5, 2.0, 2.2])
        # top arm (index 3): only its left-side difference counts
        assert inst.gaps[3] == pytest.approx(0.2)
        assert inst.gaps[0] == pytest.approx(0.5)

    def test_duplicate_means_allowed_when_max_gap_unique(self):
        inst = make_instance([0.0, 0.0, 1.0])
        assert inst.delta_max == 1.0
        assert inst.split_rank == 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=3,
        max_size=12,
        unique=True,
    )
)
def test_gap_properties_random_instances(means):
    try:
        inst = make_instance(means)
    except InstanceError:
        return  # tied max gap
    s = inst.sorted_means
    # adjacent gaps telescope to the full span
    assert inst.adjacent_gaps.sum() == pytest.approx(s[0] - s[-1], abs=1e-9)
    # delta_max is the largest adjacent sorted difference
    assert inst.delta_max == max(s[j] - s[j + 1] for j in range(len(means) - 1))
    # each arm's gap is the max over the sides touching it
    order = inst.sorted_order
    for rank, arm in enumerate(order):
        sides = []
        if rank > 0:
            sides.append(s[rank - 1] - s[rank])
        if rank < len(means) - 1:
            sides.append(s[rank] - s[rank + 1])
        assert inst.gaps[arm] == pytest.approx(max(sides))
    # clusters partition the arms
    assert sorted(inst.top_cluster + inst.bottom_cluster) == list(range(len(means)))


_SPECIAL_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(_SPECIAL_VALUES | st.floats(), min_size=1, max_size=40))
def test_descending_order_matches_two_key_lexsort(values):
    # ties, +-0.0, +-inf and nan: one stable argsort of -v is the arm order
    # "descending value, ties by ascending index, nan last"
    v = np.array(values, dtype=float)
    assert np.array_equal(_descending_order(v), np.lexsort((np.arange(v.size), -v)))


class TestSampling:
    def test_zero_noise_arm_is_deterministic(self):
        inst = make_instance([0.1, 0.7, 1.5], sigma=0.0)
        block = sample_block(inst, np.array([1, 1, 2]), 5, np.random.default_rng(0))
        assert block.tolist() == [[0.7, 0.7, 1.5]] * 5

    def test_same_seed_same_samples(self):
        inst = make_instance([0.0, 1.0, 3.0])
        arms = np.array([2, 0])
        a = sample_block(inst, arms, 3, np.random.default_rng(42))
        b = sample_block(inst, arms, 3, np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()
        rng = np.random.default_rng(7)
        first, second = (sample_block(inst, arms, 1, rng) for _ in range(2))
        assert not np.array_equal(first, second)  # the generator moves on

    def test_block_matches_sequential_draws(self):
        # one standard normal per draw, round by round and arm by arm
        inst = Instance((ArmSpec(0.0, 1.0), ArmSpec(1.0, 0.5), ArmSpec(3.0, 2.0)))
        rng_block, rng = np.random.default_rng(3), np.random.default_rng(3)
        block = sample_block(inst, np.array([0, 2]), 4, rng_block)
        seq = [
            [m + s * rng.standard_normal() for m, s in ((0.0, 1.0), (3.0, 2.0))]
            for _ in range(4)
        ]
        assert block.tolist() == seq
        assert rng_block.bit_generator.state == rng.bit_generator.state

    def test_law_of_large_numbers(self):
        # 1e5 standard normal samples: empirical mean within 0.02 of zero
        inst = make_instance([0.0, 1.0, 3.0])
        draws = sample_block(inst, np.array([0]), 100_000, np.random.default_rng(11))
        assert abs(draws.mean()) < 0.02

    def test_out_of_range_arm(self):
        inst = make_instance([0.0, 1.0, 3.0])
        for arms in ([0, 3], [-1]):
            with pytest.raises(IndexError):
                sample_block(inst, np.array(arms), 2, np.random.default_rng(0))


class TestSampleSums:
    def test_one_round_is_sample_block_bit_for_bit(self):
        inst = make_instance([0.3, -1.2, 2.5, 7.0], sigma=0.7)
        arms = np.array([3, 0, 2, 2, 1])
        rng_sums, rng_block = np.random.default_rng(5), np.random.default_rng(5)
        sums = sample_sums(inst, arms, 1, rng_sums)
        block = sample_block(inst, arms, 1, rng_block)
        assert sums.tobytes() == block[0].tobytes()
        assert rng_sums.bit_generator.state == rng_block.bit_generator.state

    def test_moments_match_sum_of_n_draws(self):
        means, sigmas = [0.5, -2.0, 4.0], [1.0, 0.25, 2.0]
        inst = Instance(tuple(ArmSpec(m, s) for m, s in zip(means, sigmas)))
        n, draws = 37, 20_000
        arms = np.tile(np.arange(3), draws)
        sums = sample_sums(inst, arms, n, np.random.default_rng(21)).reshape(draws, 3)
        mu, var = n * np.array(means), n * np.array(sigmas) ** 2
        # standard errors of the sample mean and of the sample variance
        assert np.all(np.abs(sums.mean(axis=0) - mu) < 4 * np.sqrt(var / draws))
        assert np.all(np.abs(sums.var(axis=0, ddof=1) - var) < 4 * var * np.sqrt(2 / (draws - 1)))

    def test_repeated_index_gets_its_own_normal(self):
        inst = make_instance([0.0, 1.0, 3.0])
        pairs = sample_sums(inst, np.ones(10_000, dtype=int), 10, np.random.default_rng(8))
        pairs = pairs.reshape(-1, 2)
        assert not np.any(pairs[:, 0] == pairs[:, 1])
        # independent columns: correlation within 4 standard errors of 0
        assert abs(np.corrcoef(pairs.T)[0, 1]) < 4 / np.sqrt(pairs.shape[0])

    def test_out_of_range_arm(self):
        inst = make_instance([0.0, 1.0, 3.0])
        for arms in ([0, 3], [-1]):
            with pytest.raises(IndexError):
                sample_sums(inst, np.array(arms), 5, np.random.default_rng(0))

    def test_zero_noise_gives_exact_sum(self):
        inst = make_instance([0.1, 0.7, 1.5], sigma=0.0)
        sums = sample_sums(inst, np.array([2, 0, 1]), 1000, np.random.default_rng(4))
        assert sums.tolist() == [1000 * 1.5, 1000 * 0.1, 1000 * 0.7]


class TestBuilders:
    def test_two_gap_instance(self):
        inst = build_two_gap_instance()
        assert inst.n_arms == 24
        assert inst.delta_max == 1.0
        assert inst.split_rank == 18
        assert sorted(inst.adjacent_gaps)[-2] == 0.98
        assert inst.top_cluster == tuple(range(18))
        assert np.all(inst.sigmas == 1.0)

    def test_one_gap_instance_k4(self):
        inst = build_one_gap_instance(4, 0.1, 1.0)
        assert sorted(inst.means) == pytest.approx([0.0, 0.1, 1.1, 1.2])
        assert inst.delta_max == pytest.approx(1.0)
        assert inst.split_rank == 2

    def test_one_gap_rejects_tied_gaps(self):
        with pytest.raises(InstanceError):
            build_one_gap_instance(4, 1.0, 1.0)
        with pytest.raises(InstanceError):
            build_one_gap_instance(4, 2.0, 1.0)

    def test_lower_bound_instance(self):
        inst = build_lower_bound_instance(1.0, 0.1)
        # arms labelled in descending-mean order: arm 4 (index 3) has mean 0
        assert inst.means.tolist() == pytest.approx([2.2, 1.2, 0.1, 0.0])
        assert inst.delta_max == pytest.approx(1.1)
        assert inst.top_cluster == (0, 1)

    def test_lower_bound_shifted_alternative_moves_the_split(self):
        # shifting the bottom arm up by 2.1*eps relocates the largest gap
        base = build_lower_bound_instance(1.0, 0.1)
        shifted = make_instance([2.2, 1.2, 0.1, 0.21])
        assert shifted.delta_max == pytest.approx(1.0)
        assert shifted.top_cluster == (0,)
        assert base.top_cluster != shifted.top_cluster

    def test_lower_bound_rejects_small_nu(self):
        with pytest.raises(InstanceError):
            build_lower_bound_instance(0.15, 0.1)


class TestMeansFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "means.txt"
        p.write_text("0.0\n0.5\n1.0\n1.6\n")
        inst = load_means_file(str(p), sigma=0.05)
        assert inst.n_arms == 4
        assert inst.delta_max == pytest.approx(0.6)
        assert np.all(inst.sigmas == 0.05)
        assert inst.means.tolist() == [0.0, 0.5, 1.0, 1.6]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(ValueError):
            load_means_file(str(p), sigma=1.0)

    def test_parse_failure_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        for bad in ("oops", "nan", "inf"):
            p.write_text(f"0.1\n{bad}\n0.3\n")
            with pytest.raises(ValueError, match=f"bad.txt:2: .*{bad!r}"):
                load_means_file(str(p), sigma=1.0)

    def test_too_few_means(self, tmp_path):
        p = tmp_path / "two.txt"
        p.write_text("0.0\n1.0\n")
        with pytest.raises(InstanceError):
            load_means_file(str(p), sigma=1.0)

    def test_streetview_scale_file(self, tmp_path, streetview_scale_means):
        p = tmp_path / "sv.txt"
        p.write_text("\n".join(repr(m) for m in streetview_scale_means) + "\n")
        inst = load_means_file(str(p), sigma=0.05)
        assert inst.n_arms == 90
        assert inst.delta_max == pytest.approx(0.029)
        assert sorted(inst.adjacent_gaps)[-2] == pytest.approx(0.024)
