"""Tests for the split-policy ablation switches (Section 3.2 claims)."""

import numpy as np

from repro import HerculesConfig, HerculesIndex
from repro.core.split import choose_split
from repro.summarization.eapca import Segmentation

from ..conftest import make_random_walks


class TestChooseSplitFlags:
    def test_no_vertical_keeps_segmentation(self):
        data = make_random_walks(60, 32, seed=280)
        seg = Segmentation.uniform(32, 4)
        decision = choose_split(seg, data, allow_vertical=False)
        assert decision is not None
        assert not decision.policy.vertical
        assert decision.policy.child_segmentation == seg

    def test_no_std_routes_on_mean_only(self):
        rng = np.random.default_rng(281)
        calm = rng.normal(0.0, 0.05, size=(15, 16))
        wild = rng.normal(0.0, 3.0, size=(15, 16))
        data = np.concatenate([calm, wild]).astype(np.float32)
        decision = choose_split(
            Segmentation([16]), data, allow_std=False
        )
        # Means are all ~0: with std routing off and one segment, only a
        # weak mean split (if any) is available.
        if decision is not None:
            assert not decision.policy.use_std

    def test_flags_reduce_candidates_but_preserve_validity(self):
        data = make_random_walks(80, 32, seed=282)
        seg = Segmentation.uniform(32, 4)
        for kwargs in (
            {"allow_vertical": False},
            {"allow_std": False},
            {"allow_vertical": False, "allow_std": False},
        ):
            decision = choose_split(seg, data, **kwargs)
            assert decision is not None
            n_left = int(decision.left_mask.sum())
            assert 0 < n_left < 80


class TestIndexLevelAblation:
    def test_h_only_tree_has_no_vertical_splits(self, tmp_path):
        data = make_random_walks(600, 32, seed=283)
        config = HerculesConfig(
            leaf_capacity=40,
            allow_vertical_splits=False,
            initial_segments=4,
            sax_segments=8,
        )
        index = HerculesIndex.build(data, config, directory=tmp_path / "h")
        from repro.core.stats import tree_statistics

        stats = tree_statistics(index.root)
        assert stats.vertical_splits == 0
        assert stats.max_segments == 4  # never refined vertically
        # Still exact.
        query = make_random_walks(1, 32, seed=284)[0]
        d = np.sqrt(
            ((data.astype(np.float64) - query.astype(np.float64)) ** 2).sum(1)
        )
        np.testing.assert_allclose(
            index.knn(query, k=3).distances, np.sort(d)[:3], atol=1e-5
        )
        index.close()

    def test_mean_only_tree_has_no_std_routing(self, tmp_path):
        data = make_random_walks(600, 32, seed=285)
        config = HerculesConfig(
            leaf_capacity=40,
            allow_std_routing=False,
            sax_segments=8,
        )
        index = HerculesIndex.build(data, config, directory=tmp_path / "m")
        from repro.core.stats import tree_statistics

        stats = tree_statistics(index.root)
        assert stats.std_routed_splits == 0
        index.close()

    def test_full_policy_prunes_at_least_as_well(self, tmp_path):
        """Both split dimensions help (the paper's §3.2 argument): the
        restricted trees should not access *less* data on average."""
        from repro.workloads.generators import make_noise_queries

        data = make_random_walks(1500, 64, seed=286)
        queries = make_noise_queries(data, 10, 0.05, seed=287)

        def mean_accessed(**flags):
            config = HerculesConfig(
                leaf_capacity=60,
                l_max=3,
                sax_segments=8,
                **flags,
            )
            index = HerculesIndex.build(data, config)
            accessed = [
                index.knn(q, k=1).profile.series_accessed for q in queries
            ]
            index.close()
            return float(np.mean(accessed))

        full = mean_accessed()
        h_only = mean_accessed(allow_vertical_splits=False)
        # Heuristic claim, so allow slack — but H-only must not beat the
        # full policy by a wide margin.
        assert full <= h_only * 1.5
