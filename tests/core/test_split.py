"""Unit tests for split-policy selection."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.node import SplitPolicy
from repro.core.split import (
    TIE_TOLERANCE,
    LeafStats,
    box_diameter,
    choose_split,
)
from repro.summarization.eapca import Segmentation, segment_stats

from ..conftest import make_random_walks


class TestLeafStats:
    def test_range_stats_match_numpy(self):
        data = make_random_walks(10, 32, seed=70)
        stats = LeafStats(data)
        means, stds = stats.range_stats(5, 20)
        ref = data[:, 5:20].astype(np.float64)
        np.testing.assert_allclose(means, ref.mean(axis=1), atol=1e-9)
        np.testing.assert_allclose(stds, ref.std(axis=1), atol=1e-7)

    def test_segmentation_stats_match_segment_stats(self):
        data = make_random_walks(8, 32, seed=71)
        seg = Segmentation([10, 32])
        stats = LeafStats(data)
        means, stds = stats.segmentation_stats(seg)
        ref_means, ref_stds = segment_stats(data, seg)
        np.testing.assert_allclose(means, ref_means, atol=1e-9)
        np.testing.assert_allclose(stds, ref_stds, atol=1e-9)

    def test_rejects_invalid_range(self):
        stats = LeafStats(np.zeros((2, 8)))
        with pytest.raises(ValueError):
            stats.range_stats(4, 4)


class TestBoxDiameter:
    def test_zero_for_identical_series(self):
        means = np.full((5, 2), 1.0)
        stds = np.full((5, 2), 0.3)
        assert box_diameter(means, stds, np.array([4.0, 4.0])) == 0.0

    def test_weighted_by_segment_length(self):
        means = np.array([[0.0, 0.0], [1.0, 1.0]])
        stds = np.zeros((2, 2))
        lengths = np.array([2.0, 6.0])
        assert box_diameter(means, stds, lengths) == pytest.approx(8.0)


class TestChooseSplit:
    def test_splits_bimodal_data_on_the_separating_mean(self):
        rng = np.random.default_rng(72)
        low = rng.normal(-2.0, 0.1, size=(20, 16))
        high = rng.normal(2.0, 0.1, size=(20, 16))
        data = np.concatenate([low, high]).astype(np.float32)
        seg = Segmentation([8, 16])
        decision = choose_split(seg, data)
        assert decision is not None
        # The mask must separate the two populations exactly.
        left_ids = set(np.nonzero(decision.left_mask)[0])
        assert left_ids in ({*range(20)}, {*range(20, 40)})
        assert not decision.policy.use_std

    def test_splits_on_std_when_means_are_equal(self):
        rng = np.random.default_rng(73)
        calm = rng.normal(0.0, 0.05, size=(15, 16))
        wild = rng.normal(0.0, 3.0, size=(15, 16))
        data = np.concatenate([calm, wild]).astype(np.float32)
        decision = choose_split(Segmentation([16]), data)
        assert decision is not None
        assert decision.policy.use_std
        left_ids = set(np.nonzero(decision.left_mask)[0])
        # Most of each population lands on its own side (std estimates
        # fluctuate, so allow one straggler).
        calm_left = len(left_ids & set(range(15)))
        assert calm_left >= 14 or calm_left <= 1

    def test_children_are_nonempty(self):
        data = make_random_walks(40, 32, seed=74)
        decision = choose_split(Segmentation.uniform(32, 4), data)
        assert decision is not None
        n_left = int(decision.left_mask.sum())
        assert 0 < n_left < 40

    def test_returns_none_for_identical_series(self):
        data = np.tile(np.arange(16, dtype=np.float32), (10, 1))
        assert choose_split(Segmentation([8, 16]), data) is None

    def test_vertical_split_has_child_segmentation_with_extra_segment(self):
        # Construct data whose halves of segment 0 behave oppositely, so a
        # V-split is strictly better than any H-split.
        rng = np.random.default_rng(75)
        n = 40
        data = np.zeros((n, 8), dtype=np.float32)
        signs = rng.choice([-1.0, 1.0], size=n)
        data[:, :4] = signs[:, None] * 2.0
        data[:, 4:] = -signs[:, None] * 2.0  # whole-segment mean cancels
        data += rng.normal(0, 0.01, size=data.shape).astype(np.float32)
        decision = choose_split(Segmentation([8]), data)
        assert decision is not None
        assert decision.policy.vertical
        assert decision.policy.child_segmentation.num_segments == 2

    def test_split_reduces_weighted_child_diameter(self):
        data = make_random_walks(60, 64, seed=76)
        seg = Segmentation.uniform(64, 4)
        decision = choose_split(seg, data)
        assert decision is not None
        stats = LeafStats(data)
        means, stds = stats.segmentation_stats(
            decision.policy.child_segmentation
        )
        lengths = decision.policy.child_segmentation.lengths
        parent_d = box_diameter(means, stds, lengths)
        mask = decision.left_mask
        d_left = box_diameter(means[mask], stds[mask], lengths)
        d_right = box_diameter(means[~mask], stds[~mask], lengths)
        n_left = mask.sum()
        weighted = (n_left * d_left + (60 - n_left) * d_right) / 60
        assert weighted < parent_d

    def test_route_matches_mask(self):
        """The chosen policy routes each series to the side its mask says."""
        from repro.summarization.eapca import SeriesSketch

        data = make_random_walks(30, 32, seed=77)
        decision = choose_split(Segmentation.uniform(32, 2), data)
        assert decision is not None
        for i in range(30):
            went_left = decision.policy.route_left(SeriesSketch(data[i]))
            assert went_left == bool(decision.left_mask[i])

    @pytest.mark.parametrize("scale", [1e18, 1e20, 1e30])
    def test_large_magnitudes_split_like_unit_scale(self, scale):
        # Squared value ranges of ~1e19 overflow float32; the scores are
        # float64, so scaling the leaf changes nothing about the choice.
        data = make_random_walks(101, 256, seed=78)
        seg = Segmentation.uniform(256, 4)
        expected = choose_split(seg, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decision = choose_split(seg, data * np.float32(scale))
        assert decision is not None
        assert decision.policy.split_segment == expected.policy.split_segment
        assert decision.policy.vertical == expected.policy.vertical
        assert decision.policy.use_std == expected.policy.use_std
        np.testing.assert_array_equal(decision.left_mask, expected.left_mask)


def reference_split(segmentation, data, allow_vertical=True, allow_std=True):
    """One candidate at a time, in canonical order, scored in float64.

    Returns ``(policy, left_mask, child_means, child_stds)`` or ``None``.
    """
    stats = LeafStats(data)
    total = stats.count
    candidates = []
    for index in range(segmentation.num_segments):
        start, end = segmentation.segment_range(index)
        routes = [(False, segmentation, start, end)]
        if allow_vertical and end - start >= 2:
            mid = (start + end) // 2
            halved = segmentation.split_vertically(index)
            routes += [(True, halved, start, mid), (True, halved, mid, end)]
        for vertical, child_seg, route_start, route_end in routes:
            means, stds = stats.range_stats(route_start, route_end)
            statistics = [(False, means), (True, stds)]
            for use_std, values in statistics[: 2 if allow_std else 1]:
                threshold = (float(values.min()) + float(values.max())) / 2.0
                mask = values < threshold
                n_left = int(mask.sum())
                if not 0 < n_left < total:
                    continue
                child_means, child_stds = stats.segmentation_stats(child_seg)
                lengths = child_seg.lengths
                d_left = box_diameter(
                    child_means[mask], child_stds[mask], lengths
                )
                d_right = box_diameter(
                    child_means[~mask], child_stds[~mask], lengths
                )
                score = box_diameter(child_means, child_stds, lengths) - (
                    n_left * d_left + (total - n_left) * d_right
                ) / total
                policy = SplitPolicy(
                    split_segment=index,
                    vertical=vertical,
                    use_std=use_std,
                    threshold=threshold,
                    route_start=route_start,
                    route_end=route_end,
                    child_segmentation=child_seg,
                )
                candidates.append(
                    (score, (policy, mask, child_means, child_stds))
                )
    top = max((score for score, _ in candidates), default=0.0)
    if not top > 0.0:
        return None
    return next(
        found for score, found in candidates
        if score >= top * (1.0 - TIE_TOLERANCE)
    )


def assert_matches_reference(segmentation, data, **flags):
    decision = choose_split(segmentation, data, **flags)
    expected = reference_split(segmentation, data, **flags)
    if expected is None:
        assert decision is None
        return
    policy, mask, child_means, child_stds = expected
    assert decision is not None
    assert decision.policy == policy
    np.testing.assert_array_equal(decision.left_mask, mask)
    assert decision.child_means.tobytes() == child_means.tobytes()
    assert decision.child_stds.tobytes() == child_stds.tobytes()


_FLAGS = [
    {},
    {"allow_vertical": False},
    {"allow_std": False},
]


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    segment_lengths=st.lists(st.integers(1, 5), min_size=1, max_size=30),
    count=st.integers(2, 60),
    seed=st.integers(0, 2**16),
    constant_columns=st.integers(0, 4),
    duplicates=st.integers(0, 10),
    flags=st.sampled_from(_FLAGS),
)
def test_stacked_scorer_matches_reference_loop(
    segment_lengths, count, seed, constant_columns, duplicates, flags
):
    segmentation = Segmentation(np.cumsum(segment_lengths))
    length = segmentation.length
    data = make_random_walks(count, length, seed=seed)
    rng = np.random.default_rng(seed)
    for column in rng.integers(0, length, size=constant_columns):
        data[:, column] = data[0, column]
    for _ in range(duplicates):
        source, target = rng.integers(0, count, size=2)
        data[target] = data[source]
    assert_matches_reference(segmentation, data, **flags)


@pytest.mark.parametrize("flags", _FLAGS)
def test_identical_rows_have_no_split(flags):
    data = np.tile(make_random_walks(1, 24, seed=79), (12, 1))
    segmentation = Segmentation([1, 3, 10, 24])
    assert choose_split(segmentation, data, **flags) is None
    assert reference_split(segmentation, data, **flags) is None


class TestTies:
    def test_equal_scores_pick_the_earlier_candidate(self):
        # Both segments hold the same values, so H-splits of segment 0 and
        # of segment 1 score exactly alike: segment 0 comes first.
        half = make_random_walks(30, 8, seed=90)
        data = np.concatenate([half, half], axis=1)
        decision = choose_split(
            Segmentation([8, 16]), data, allow_vertical=False,
            allow_std=False,
        )
        assert decision is not None
        assert decision.policy.split_segment == 0
        assert_matches_reference(
            Segmentation([8, 16]), data, allow_vertical=False,
            allow_std=False,
        )

    def test_ties_across_child_segmentations_pick_the_earlier(self):
        # Two rows falling over a 2-point segment: the H-split on the mean
        # and the V-split on the first point score the same in exact
        # arithmetic but sum different columns, and the V-split's float
        # score comes out higher in the last bits.
        data = np.array([[0.3, -0.6], [0.1, -1.2]], dtype=np.float32)
        decision = choose_split(Segmentation([2]), data)
        assert decision is not None
        assert not decision.policy.vertical
        assert not decision.policy.use_std
        assert_matches_reference(Segmentation([2]), data)
