"""Unit tests of individual query-answering phases (Algorithms 11-14)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.core.query import _SearchState, _approx_knn, _find_candidate_leaves

from ..conftest import make_random_walks


@pytest.fixture(scope="module")
def corpus():
    return make_random_walks(900, 32, seed=190)


@pytest.fixture(scope="module")
def index(corpus, tmp_path_factory):
    config = HerculesConfig(
        leaf_capacity=45,
        num_build_threads=1,
        flush_threshold=1,
        num_query_threads=1,
        l_max=3,
        sax_segments=8,
    )
    idx = HerculesIndex.build(
        corpus, config, directory=tmp_path_factory.mktemp("phases")
    )
    yield idx
    idx.close()


def make_state(index, query, k=3, **config_overrides):
    config = index.config.with_options(**config_overrides)
    return _SearchState(
        query,
        k,
        config,
        index._table,
        index._lrd,
        index.signatures,
        index.num_series,
    )


class TestApproxPhase:
    def test_visits_at_most_l_max_leaves(self, index):
        query = make_random_walks(1, 32, seed=191)[0]
        for l_max in (1, 2, 5):
            state = make_state(index, query, l_max=l_max)
            _approx_knn(state)
            assert state.profile.approx_leaves <= l_max

    def test_first_leaf_is_the_query_route_leaf(self, index, corpus):
        """For a dataset member, phase 1 must reach distance zero."""
        state = make_state(index, corpus[10], k=1, l_max=1)
        _approx_knn(state)
        distances, _ = state.results.items()
        assert distances[0] == pytest.approx(0.0, abs=1e-5)

    def test_terminates_early_when_pq_prunes(self, index, corpus):
        """With an exact self-match, BSF=0 prunes every remaining bound
        before the leaf budget is exhausted."""
        state = make_state(index, corpus[10], k=1, l_max=1000)
        _approx_knn(state)
        assert state.profile.approx_leaves < index.num_leaves

    def test_results_populated_with_k_answers(self, index):
        query = make_random_walks(1, 32, seed=192)[0]
        state = make_state(index, query, k=5, l_max=3)
        _approx_knn(state)
        distances, positions = state.results.items()
        assert distances.shape == (5,)
        assert np.all(np.diff(distances) >= 0)

    def test_visits_in_ascending_bound_order_leftmost_first(self, index):
        query = make_random_walks(1, 32, seed=192)[0]
        state = make_state(index, query, l_max=6)
        _approx_knn(state)
        keys = [(state.bounds[leaf], leaf) for leaf in state.visited]
        assert keys == sorted(keys)
        assert state.profile.approx_leaves == len(state.visited)


class TestCandidateLeafPhase:
    def test_lclist_sorted_by_file_position(self, index):
        query = make_random_walks(1, 32, seed=193)[0]
        state = make_state(index, query, l_max=1)
        _approx_knn(state)
        lclist = _find_candidate_leaves(state)
        assert lclist.dtype.kind == "i" and lclist.size > 0
        positions = index._table.positions[lclist].tolist()
        assert positions == sorted(positions)

    def test_candidates_exclude_approx_visited_leaves(self, index):
        """Leaves popped in phase 1 are not re-examined in phase 2 (the
        paper: 'nodes that were visited by algorithm 11 are not accessed
        again')."""
        query = make_random_walks(1, 32, seed=194)[0]
        state = make_state(index, query, l_max=4)

        visited = []
        original = state.scan_leaf

        def tracking(leaf):
            visited.append(leaf)
            original(leaf)

        state.scan_leaf = tracking
        _approx_knn(state)
        lclist = _find_candidate_leaves(state)
        candidate_ids = {index._table.leaves[i].node_id for i in lclist}
        assert visited and not candidate_ids & {leaf.node_id for leaf in visited}
        assert [index._table.leaves[i] for i in state.visited] == visited

    def test_bounds_below_bsf(self, index):
        query = make_random_walks(1, 32, seed=195)[0]
        state = make_state(index, query, l_max=2)
        _approx_knn(state)
        bsf_squared = state.results.bsf_squared
        lclist = _find_candidate_leaves(state)
        assert np.all(state.bounds[lclist] < bsf_squared)
        # ... and nothing below BSF² was left out, bar the visited leaves.
        rest = np.setdiff1d(np.arange(index.num_leaves), lclist)
        pruned = np.setdiff1d(rest, state.visited)
        assert np.all(state.bounds[pruned] >= bsf_squared)


class TestPathSelectionBoundaries:
    def test_threshold_zero_never_takes_eapca_skipseq(self, index):
        query = make_random_walks(1, 32, seed=196)[0]
        answer = index.knn(
            query, k=1, config=index.config.with_options(eapca_th=0.0, sax_th=0.0)
        )
        assert answer.profile.path in ("full-four-phase", "approx-only")

    def test_threshold_one_forces_skip_sequential(self, index):
        query = make_random_walks(1, 32, seed=197)[0]
        answer = index.knn(
            query, k=1, config=index.config.with_options(eapca_th=1.0)
        )
        assert answer.profile.path in ("eapca-skipseq", "approx-only")

    def test_sax_threshold_one_forces_sax_skipseq(self, index):
        query = make_random_walks(1, 32, seed=198)[0]
        answer = index.knn(
            query,
            k=1,
            config=index.config.with_options(eapca_th=0.0, sax_th=1.0),
        )
        assert answer.profile.path in ("sax-skipseq", "approx-only")

    def test_all_paths_agree_on_answers(self, index, corpus):
        query = make_random_walks(1, 32, seed=199)[0]
        d = np.sqrt(
            ((corpus.astype(np.float64) - query.astype(np.float64)) ** 2).sum(1)
        )
        expected = np.sort(d)[:4]
        for overrides in (
            {"eapca_th": 0.0, "sax_th": 0.0},
            {"eapca_th": 1.0},
            {"eapca_th": 0.0, "sax_th": 1.0},
            {"use_sax": False},
        ):
            answer = index.knn(
                query, k=4, config=index.config.with_options(**overrides)
            )
            np.testing.assert_allclose(answer.distances, expected, atol=1e-5)


class TestPhaseTiming:
    def test_phase_times_populated_and_bounded(self, index):
        query = make_random_walks(1, 32, seed=205)[0]
        profile = index.knn(query, k=3).profile
        assert profile.time_approx > 0
        assert profile.time_candidates >= 0
        assert profile.time_refine >= 0
        phase_sum = (
            profile.time_approx + profile.time_candidates + profile.time_refine
        )
        assert phase_sum <= profile.time_total + 1e-6

    def test_approx_only_path_has_no_refine_work(self, index, corpus):
        """A self-query that prunes everything spends ~nothing refining."""
        answer = index.knn(corpus[3], k=1)
        if answer.profile.path == "approx-only":
            assert answer.profile.time_refine < answer.profile.time_total


class TestEdgeCases:
    def test_k_equal_to_dataset_size(self, tmp_path):
        data = make_random_walks(30, 16, seed=200)
        config = HerculesConfig(
            leaf_capacity=10,
            num_build_threads=1,
            flush_threshold=1,
            num_query_threads=1,
            sax_segments=8,
            l_max=2,
        )
        index = HerculesIndex.build(data, config, directory=tmp_path / "idx")
        query = make_random_walks(1, 16, seed=201)[0]
        answer = index.knn(query, k=30)
        assert answer.k == 30
        d = np.sqrt(
            ((data.astype(np.float64) - query.astype(np.float64)) ** 2).sum(1)
        )
        np.testing.assert_allclose(answer.distances, np.sort(d), atol=1e-5)
        index.close()

    def test_duplicate_series_all_reported(self, tmp_path):
        base = make_random_walks(1, 16, seed=202)
        data = np.concatenate([np.tile(base, (5, 1)),
                               make_random_walks(60, 16, seed=203)])
        config = HerculesConfig(
            leaf_capacity=20,
            num_build_threads=1,
            flush_threshold=1,
            num_query_threads=1,
            sax_segments=8,
        )
        index = HerculesIndex.build(data, config, directory=tmp_path / "idx")
        answer = index.knn(base[0], k=5)
        np.testing.assert_allclose(answer.distances, np.zeros(5), atol=1e-5)
        assert len(set(answer.positions.tolist())) == 5  # distinct copies
        index.close()

    def test_single_series_dataset(self, tmp_path):
        data = make_random_walks(1, 16, seed=204)
        config = HerculesConfig(
            leaf_capacity=10,
            num_build_threads=1,
            flush_threshold=1,
            num_query_threads=1,
            sax_segments=8,
        )
        index = HerculesIndex.build(data, config, directory=tmp_path / "idx")
        answer = index.knn(data[0], k=1)
        assert answer.distances[0] == pytest.approx(0.0, abs=1e-6)
        index.close()
