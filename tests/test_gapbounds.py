import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgap import cli
from maxgap.algorithms import RunConfig, max_gap_elim, max_gap_ucb
from maxgap.env import ArmSpec, Instance, build_two_gap_instance
from maxgap.gapbounds import (
    IntervalSnapshot,
    brute_force_upper_gap,
    left_anchor_gap,
    lower_max_gap,
    right_anchor_gap,
    upper_gap,
    upper_gaps,
)


def snap(l, r):
    return IntervalSnapshot(l=np.asarray(l, float), r=np.asarray(r, float))


def random_snapshot(rng, n_arms):
    mid = rng.uniform(-1.0, 1.0, n_arms)
    rad = rng.uniform(0.0, 0.8, n_arms) * (rng.random(n_arms) < 0.9)
    return snap(mid - rad, mid + rad)


class TestAnchorGaps:
    def test_right_branch_one(self):
        s = snap([0.0, 0.7, 0.6], [1.0, 0.9, 1.2])
        assert right_anchor_gap(0, 0.5, s) == pytest.approx(0.4)

    def test_right_branch_two(self):
        s = snap([0.0, 0.1, 0.2], [1.0, 0.6, 0.8])
        assert right_anchor_gap(0, 0.5, s) == pytest.approx(0.3)

    def test_right_negative_when_anchor_beyond_everything(self):
        s = snap([0.0, 0.1, 0.2], [1.0, 0.6, 0.8])
        assert right_anchor_gap(0, 2.0, s) == pytest.approx(-1.2)

    def test_left_branch_one(self):
        s = snap([0.0, 0.2, 0.3], [2.0, 0.5, 0.6])
        assert left_anchor_gap(0, 1.0, s) == pytest.approx(0.7)

    def test_left_branch_two(self):
        # nothing entirely below x: fall back to the smallest other lower endpoint
        s = snap([0.0, 0.2, 0.3], [2.0, 1.5, 1.8])
        assert left_anchor_gap(0, 1.0, s) == pytest.approx(0.8)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 7))
    def test_reflection_symmetry(self, seed, k):
        rng = np.random.default_rng(seed)
        s = random_snapshot(rng, k)
        mirrored = snap(-s.r, -s.l)
        for a in range(k):
            x = float(rng.uniform(-2, 2))
            assert right_anchor_gap(a, x, s) == pytest.approx(
                left_anchor_gap(a, -x, mirrored), abs=1e-12
            )


class TestUpperGap:
    def test_well_separated_sandwich(self):
        # intervals of radius eps around means [0, 1, 3]
        eps = 0.01
        mid = np.array([0.0, 1.0, 3.0])
        s = snap(mid - eps, mid + eps)
        _, _, ud = upper_gap(1, s)
        assert 2.0 <= ud <= 2.0 + 4 * eps

    def test_identical_intervals(self):
        s = snap([0.0] * 4, [1.0] * 4)
        udr, udl = upper_gaps(s.l, s.r)
        assert np.allclose(np.maximum(udr, udl), 1.0)
        for a in range(4):
            assert brute_force_upper_gap(a, s) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_point_intervals_recover_true_gaps(self):
        inst = Instance(tuple(ArmSpec(m, 0.0) for m in [0.0, 0.4, 1.0, 2.5]))
        s = snap(inst.means, inst.means)
        udr, udl = upper_gaps(s.l, s.r)
        assert np.allclose(np.maximum(udr, udl), inst.gaps)
        for a in range(4):
            br, bl = brute_force_upper_gap(a, s)
            assert max(br, bl) == pytest.approx(inst.gaps[a], abs=1e-12)

    def test_scalar_matches_vectorized(self):
        # generic intervals at K 3..8, then each ``verify-bounds`` stress
        # pattern (degenerate points, identical and nested intervals among
        # them) twice at K up to 90, where ties reach the top of the order
        # and anchor ranges span most arms.  Both paths subtract the same
        # two endpoints and take exact maxima, so they agree bit for bit.
        rng = np.random.default_rng(9)
        snapshots = [random_snapshot(rng, int(rng.integers(3, 9))) for _ in range(50)]
        snapshots += [
            snap(*cli._random_snapshot(rng, k, pattern))
            for k in (3, 4, 5, 6, 7, 8, 24, 90)
            for pattern in range(12)
        ]
        for s in snapshots:
            assert_scalar_equal(s)

    def test_scalar_matches_recorded_k90_rows(self, streetview_scale_instance):
        # envelopes a UCB run records at K=90 with bounds checked every
        # round (budget 30k), read at 16 rounds spread over the run
        config = RunConfig(delta=0.1, budget_cap=30_000)
        rng = np.random.Generator(np.random.PCG64(0))
        trace = max_gap_ucb(streetview_scale_instance, config, rng)
        rows = np.linspace(0, trace.round_index.size - 1, 16).astype(int)
        for i in rows:
            s = snap(trace.env_l[i], trace.env_r[i])
            assert_scalar_equal(s)
            udr, udl = upper_gaps(s.l, s.r)
            assert np.array_equal(udr, trace.upper_right[i])
            assert np.array_equal(udl, trace.upper_left[i])

    def test_shared_maximum(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            k = int(rng.integers(3, 10))
            s = random_snapshot(rng, k)
            udr, udl = upper_gaps(s.l, s.r)
            ud = np.maximum(udr, udl)
            assert (ud == ud.max()).sum() >= 2

    def test_reflection_swaps_sides(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(3, 9))
            s = random_snapshot(rng, k)
            udr, udl = upper_gaps(s.l, s.r)
            mdr, mdl = upper_gaps(-s.r, -s.l)
            assert np.allclose(udr, mdl, atol=1e-12)
            assert np.allclose(udl, mdr, atol=1e-12)

    def test_validity_under_containment(self):
        # whenever each true mean sits inside its interval, the bound covers
        # the arm's true gap
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = int(rng.integers(3, 9))
            means = np.sort(rng.uniform(-1, 1, k))[::-1]
            try:
                inst = Instance(tuple(ArmSpec(float(m), 1.0) for m in means))
            except Exception:
                continue
            rad = rng.uniform(0.0, 0.5, k)
            off = rng.uniform(-1.0, 1.0, k) * rad
            s = snap(inst.means + off - rad, inst.means + off + rad)
            if not np.all((s.l <= inst.means) & (inst.means <= s.r)):
                continue
            udr, udl = upper_gaps(s.l, s.r)
            assert np.all(np.maximum(udr, udl) >= inst.gaps - 1e-12)


def assert_scalar_equal(s):
    """The scalar ``upper_gap`` of every arm equals ``upper_gaps`` exactly."""
    udr, udl = upper_gaps(s.l, s.r)
    for a in range(s.n_arms):
        sr, sl, sm = upper_gap(a, s)
        assert (sr, sl, sm) == (udr[a], udl[a], max(udr[a], udl[a]))


def anchor_loop_right(l, r):
    """Right gap bounds by ``right_anchor_gap``'s rule on raw arrays.

    Anchors are ``l_a`` plus every ``l_b`` in ``[l_a, r_a]``.  An anchor ``x``
    is capped by the smallest ``r`` among the other arms with ``l > x``, or
    else by the largest other ``r``.  Unlike ``IntervalSnapshot`` this takes
    crossed rows (l > r).
    """
    k = l.size
    out = np.empty(k)
    for a in range(k):
        others = np.arange(k) != a
        best = -np.inf
        for x in np.append(l[(l >= l[a]) & (l <= r[a])], l[a]):
            forced = others & (l > x)
            cap = r[forced].min() if forced.any() else r[others].max()
            best = max(best, cap - x)
        out[a] = best
    return out


class TestCrossedEnvelopes:
    @pytest.mark.parametrize("seed", [10400017, 10900048])
    def test_recorded_bounds_match_anchor_loop(self, seed):
        # bad-event elimination runs on the two-gap instance in which some
        # envelopes cross; the left side is the right rule on the reflection
        config = RunConfig(delta=0.1, budget_cap=60_000_000, check_growth=1.02)
        rng = np.random.Generator(np.random.PCG64(seed))
        trace = max_gap_elim(build_two_gap_instance(), config, rng)
        assert (trace.env_l > trace.env_r).any()
        for l, r, udr, udl in zip(
            trace.env_l, trace.env_r, trace.upper_right, trace.upper_left
        ):
            assert np.array_equal(anchor_loop_right(l, r), udr)
            assert np.array_equal(anchor_loop_right(-r, -l), udl)

    def test_forced_crossings_match_anchor_loop(self):
        # one arm per snapshot swapped to l > r; when that arm held the
        # largest r it now tops the order of l with an empty anchor range
        rng = np.random.default_rng(15)
        for i in range(300):
            k = int(rng.integers(3, 9))
            l, r = cli._random_snapshot(rng, k, i)
            a = int(rng.integers(k))
            l[a], r[a] = r[a] + rng.uniform(0.0, 0.3), l[a]
            udr, udl = upper_gaps(l, r)
            assert np.array_equal(anchor_loop_right(l, r), udr)
            assert np.array_equal(anchor_loop_right(-r, -l), udl)


def tie_grid_snapshot(rng, k):
    """Intervals on a grid of a few endpoint values, so that ``l`` and ``r``
    tie often, at ``max r`` and at ``min l`` too; a few arms are crossed."""
    levels = int(rng.integers(2, 6))
    ends = rng.integers(0, levels, size=(2, k)) / 2.0
    l, r = ends.min(axis=0), ends.max(axis=0)
    l[rng.random(k) < 0.2] = l.min()
    r[rng.random(k) < 0.2] = r.max()
    # an arm holding max r, tied or alone, in or out of the top group of l;
    # another holding min l, in or out of the bottom group of r
    t, u = rng.choice(k, size=2, replace=False)
    r[t] = r.max() + 0.5 * rng.integers(0, 2)
    l[t] = l.max() if rng.random() < 0.5 else l.min()
    l[u] = l.min() - 0.5 * rng.integers(0, 2)
    r[u] = r.min() if rng.random() < 0.5 else r.max()
    for a in np.flatnonzero(rng.random(k) < 0.08):
        l[a], r[a] = r[a] + 0.5 * rng.integers(1, 3), l[a]
    return l, r


class TestTieGrids:
    def test_both_sides_match_anchor_loop(self):
        # each range must hold the one anchor of every tie group it touches
        # that carries the group's exact value, and the arms holding max r
        # (min l on the left side) must not cap themselves, whether or not
        # they sit in the top tie group of l (bottom tie group of r)
        rng = np.random.default_rng(18)
        seen = dict.fromkeys(
            ("max_r_in_top_l", "max_r_outside", "min_l_in_bottom_r", "min_l_outside",
             "crossed", "tied_max_r", "lone_max_r", "tied_min_l", "lone_min_l"),
            0,
        )
        for _ in range(400):
            k = int(rng.integers(3, 41))
            l, r = tie_grid_snapshot(rng, k)
            holds_max_r = r == r.max()
            holds_min_l = l == l.min()
            in_top_l = (holds_max_r & (l == l.max())).any()
            in_bottom_r = (holds_min_l & (r == r.min())).any()
            seen["max_r_in_top_l" if in_top_l else "max_r_outside"] += 1
            seen["min_l_in_bottom_r" if in_bottom_r else "min_l_outside"] += 1
            seen["crossed"] += bool((l > r).any())
            seen["tied_max_r" if holds_max_r.sum() > 1 else "lone_max_r"] += 1
            seen["tied_min_l" if holds_min_l.sum() > 1 else "lone_min_l"] += 1
            udr, udl = upper_gaps(l, r)
            assert np.array_equal(anchor_loop_right(l, r), udr)
            assert np.array_equal(anchor_loop_right(-r, -l), udl)
        assert min(seen.values()) >= 40, seen


class TestInputsAndOutputs:
    """Runs keep each check's bound arrays by reference in their records, so
    the kernels may neither write to their inputs nor hand back a buffer
    that a later call reuses, and what they return holds only its own k
    values."""

    @staticmethod
    def frozen(*arrays):
        """Read-only copies: a kernel that writes to one raises."""
        out = []
        for a in arrays:
            a = np.array(a, dtype=float)
            a.flags.writeable = False
            out.append(a)
        return out

    def test_inputs_are_not_written(self):
        rng = np.random.default_rng(16)
        for i in range(60):
            k = int(rng.integers(3, 91))
            l, r = cli._random_snapshot(rng, k, i)
            if i % 5 == 0:  # a crossed arm
                a = int(rng.integers(k))
                l[a], r[a] = r[a] + 0.1, l[a]
            l, r, means = self.frozen(l, r, (l + r) / 2)
            upper_gaps(l, r)
            lower_max_gap(l, r, means)

    def test_each_call_returns_new_arrays(self):
        rng = np.random.default_rng(17)
        l, r = self.frozen(*cli._random_snapshot(rng, 90, 0))
        first = upper_gaps(l, r)
        second = upper_gaps(l, r)
        arrays = (l, r, *first, *second)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)
        assert all(u.flags.owndata and u.flags.c_contiguous for u in first)


class TestBruteForceOracle:
    def test_hand_example(self):
        s = snap([0.0, 0.5, 0.55], [0.1, 0.6, 0.7])
        br, _ = brute_force_upper_gap(0, s)
        assert br == pytest.approx(0.6)

    def test_rejects_large_k(self):
        s = snap([0.0] * 9, [1.0] * 9)
        with pytest.raises(ValueError):
            brute_force_upper_gap(0, s)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 6))
    def test_oracle_agreement(self, seed, k):
        rng = np.random.default_rng(seed)
        s = random_snapshot(rng, k)
        udr, udl = upper_gaps(s.l, s.r)
        for a in range(k):
            br, bl = brute_force_upper_gap(a, s)
            assert abs(udr[a] - br) <= 1e-12
            assert abs(udl[a] - bl) <= 1e-12

    def test_nested_identical_stress(self):
        s = snap([-1.0, -0.5, -0.25, -0.125], [1.0, 0.5, 0.25, 0.125])
        udr, udl = upper_gaps(s.l, s.r)
        for a in range(4):
            br, bl = brute_force_upper_gap(a, s)
            assert abs(udr[a] - br) <= 1e-12
            assert abs(udl[a] - bl) <= 1e-12


class TestLowerBound:
    def test_hand_enumeration(self):
        lb, split, witness = lower_max_gap(
            np.array([0.9, 0.8, 0.0]),
            np.array([1.1, 1.0, 0.2]),
            np.array([1.0, 0.9, 0.1]),
        )
        assert lb == pytest.approx(0.6)
        assert split == 2
        assert witness == (1, 2)

    def test_no_certified_separation(self):
        l = np.array([0.0, 0.1, 0.2])
        r = np.array([1.0, 1.1, 1.2])
        lb, _, _ = lower_max_gap(l, r, (l + r) / 2)
        assert lb <= 0.0

    def test_never_exceeds_true_gap_under_containment(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = int(rng.integers(3, 9))
            means = rng.uniform(-1, 1, k)
            try:
                inst = Instance(tuple(ArmSpec(float(m), 1.0) for m in means))
            except Exception:
                continue
            rad = rng.uniform(0.01, 0.5, k)
            off = rng.uniform(-1.0, 1.0, k) * rad
            l = inst.means + off - rad
            r = inst.means + off + rad
            if not np.all((l <= inst.means) & (inst.means <= r)):
                continue
            emp = inst.means + off
            lb, _, _ = lower_max_gap(l, r, emp)
            assert lb <= inst.delta_max + 1e-12

    def test_bundle_invariants(self):
        rng = np.random.default_rng(14)
        s = random_snapshot(rng, 6)
        means = (s.l + s.r) / 2
        ud = np.maximum(*upper_gaps(s.l, s.r))
        assert np.count_nonzero(ud == ud.max()) >= 2
        lower, split_size, (top_w, bot_w) = lower_max_gap(s.l, s.r, means)
        assert 1 <= split_size < 6
        assert lower == pytest.approx(s.l[top_w] - s.r[bot_w])
