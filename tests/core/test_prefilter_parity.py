"""Parity gates for the position of the LB_SAX pass: answers never change.

Every test queries the *same* materialized index with ``prefilter``
toggled through the query-time config, so distances AND positions must
match bit-for-bit (positions are LRD file positions — comparing across
independent builds would be confounded by layout).
"""

import numpy as np
import pytest

from repro.core import HerculesConfig, HerculesIndex, ShardedIndex
from repro.core.query import (
    _approx_knn,
    _find_candidate_leaves,
    _find_candidate_series,
    _search_states,
    _trim_to_candidates,
)
from repro.types import as_series

from ..conftest import make_random_walks

_LENGTH = 64


def _config(**overrides):
    base = dict(
        leaf_capacity=20,
        num_build_threads=1,
        flush_threshold=1,
        prefilter=True,
        prefilter_bits=5,
    )
    base.update(overrides)
    return HerculesConfig(**base)


@pytest.fixture(scope="module")
def data():
    return make_random_walks(400, _LENGTH, seed=17)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(3)
    noisy = data[:6] + 0.3 * rng.standard_normal((6, _LENGTH))
    hard = rng.standard_normal((3, _LENGTH))
    copies = data[100:103]
    return np.vstack([noisy, hard, copies]).astype(np.float32)


@pytest.fixture(scope="module")
def index(data, tmp_path_factory):
    directory = tmp_path_factory.mktemp("prefilter-parity") / "index"
    built = HerculesIndex.build(data, _config(), directory=directory)
    yield built
    built.close()


@pytest.fixture(scope="module")
def unfiltered(index):
    return index.config.with_options(prefilter=False)


def _state(index, query, k, config):
    """One query's search state, from the pipeline's own front half."""
    (state,) = _search_states(
        as_series(query)[None], k, config, index._table, index._lrd,
        index.signatures, index.num_series,
    )
    return state


def _lclist(index, query, k, config):
    """Phase 2's LCList for one query, from the pipeline's own phases."""
    state = _state(index, query, k, config)
    _approx_knn(state)
    return _find_candidate_leaves(state)


class TestExactParity:
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_bit_for_bit(self, index, unfiltered, queries, k):
        for query in queries:
            filtered = index.knn(query, k=k)
            plain = index.knn(query, k=k, config=unfiltered)
            np.testing.assert_array_equal(
                filtered.distances, plain.distances
            )
            np.testing.assert_array_equal(
                filtered.positions, plain.positions
            )

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_bit_for_bit_through_refinement(self, index, queries, adaptive):
        # The default L_max covers this whole small tree; a short phase 1
        # leaves work for the LB_SAX pass, phase 4 and the scans.
        # One thread: with more, how much phase 4 reads depends on how
        # the CRWorkers' BSF updates interleave.
        config = index.config.with_options(
            l_max=2, adaptive_thresholds=adaptive, num_query_threads=1
        )
        paths = set()
        for query in queries:
            filtered = index.knn(query, k=5, config=config)
            plain = index.knn(
                query, k=5, config=config.with_options(prefilter=False)
            )
            np.testing.assert_array_equal(
                filtered.distances, plain.distances
            )
            np.testing.assert_array_equal(
                filtered.positions, plain.positions
            )
            assert (
                filtered.profile.series_accessed
                <= plain.profile.series_accessed
            )
            paths.add(plain.profile.path)
        assert "full-four-phase" in paths
        if adaptive:
            assert "eapca-skipseq" in paths

    def test_screen_engages_only_when_enabled(self, index, queries):
        # A short phase 1, so that phase 2 leaves candidate leaves (the
        # default L_max covers this whole small tree).
        config = index.config.with_options(l_max=2)
        engaged = 0
        for query in queries:
            filtered = index.knn(query, k=5, config=config).profile
            plain = index.knn(
                query, k=5, config=config.with_options(prefilter=False)
            ).profile
            # The early pass examines the series of the LCList leaves —
            # exactly what phase 2 left, which `plain` reports untrimmed.
            leaves = [
                index.leaves[i] for i in _lclist(index, query, 5, config)
            ]
            assert len(leaves) == plain.candidate_leaves
            assert filtered.prefilter_screened == sum(
                leaf.size for leaf in leaves
            )
            assert (
                0
                <= filtered.prefilter_survivors
                <= filtered.prefilter_screened
            )
            if filtered.prefilter_screened:
                engaged += 1
                assert filtered.prefilter_pruned_fraction is not None
            if plain.sax_pruning is not None:
                # Same pass, same BSF², same rows: same survivors.
                assert plain.candidate_series == filtered.prefilter_survivors
            assert plain.prefilter_screened == 0
            assert plain.prefilter_pruned_fraction is None
        assert engaged

    @pytest.mark.parametrize("l_max", [1, 2, 80])
    def test_trimmed_lclist_is_the_unique_survivor_leaves(self, index, queries, l_max):
        """The trim takes the run heads of the survivors' (sorted) leaves:
        exactly ``np.unique`` of them, in file order."""
        config = index.config.with_options(l_max=l_max)
        longest = 0
        for k in (1, 5, 25):
            for query in queries:
                state = _state(index, query, k, config)
                _approx_knn(state)
                lclist = _find_candidate_leaves(state)
                positions, _ = _find_candidate_series(state, lclist)
                trimmed = _trim_to_candidates(state, lclist, positions)
                np.testing.assert_array_equal(
                    trimmed, np.unique(index._table.leaf_of(positions))
                )
                longest = max(longest, len(trimmed))
        assert longest > 1 or l_max == 80  # the default covers the tree

    def test_screen_only_subtracts_work(self, index, unfiltered, queries):
        for query in queries:
            filtered = index.knn(query, k=5)
            plain = index.knn(query, k=5, config=unfiltered)
            # Same refine path (the decision is taken pre-screen), so a
            # valid lower bound can only remove reads, never add them.
            assert filtered.profile.path == plain.profile.path
            assert (
                filtered.profile.series_accessed
                <= plain.profile.series_accessed
            )
            assert (
                filtered.profile.candidate_leaves
                <= plain.profile.candidate_leaves
            )


class TestOtherModes:
    def test_progressive_converges_to_unfiltered_exact(
        self, index, unfiltered, queries
    ):
        for query in queries[:4]:
            exact = index.knn(query, k=3, config=unfiltered)
            final = None
            for step in index.knn_progressive(query, k=3):
                final = step
            np.testing.assert_array_equal(final.distances, exact.distances)
            np.testing.assert_array_equal(final.positions, exact.positions)

    def test_approximate_unaffected(self, index, queries):
        # The approximate phase never consults the SAX tier; its answers
        # are real distances of really-stored rows either way.
        for query in queries[:4]:
            answer = index.knn_approx(query, k=3)
            for dist, pos in zip(answer.distances, answer.positions):
                row = index.get_series(int(pos)).astype(np.float64)
                true = float(
                    np.sqrt(((row - query.astype(np.float64)) ** 2).sum())
                )
                assert dist == pytest.approx(true, abs=1e-6)

    def test_epsilon_guarantee_holds_filtered(self, index, unfiltered, queries):
        # Under epsilon-approximate pruning the screen scales its bound
        # by the same prune factor; answers must stay within (1+eps).
        eps = 0.1
        approx_cfg = index.config.with_options(epsilon=eps)
        for query in queries:
            exact = index.knn(query, k=5, config=unfiltered)
            loose = index.knn(query, k=5, config=approx_cfg)
            assert (
                loose.distances <= (1.0 + eps) * exact.distances + 1e-9
            ).all()


class TestShardedParity:
    @pytest.fixture(scope="class", params=[1, 2, 4], ids=["n1", "n2", "n4"])
    def sharded(self, request, data, tmp_path_factory):
        directory = (
            tmp_path_factory.mktemp(f"prefilter-shards{request.param}")
            / "index"
        )
        built = ShardedIndex.build(
            data,
            _config(num_shards=request.param, shard_workers=0),
            directory=directory,
        )
        yield built
        built.close()

    def test_bit_for_bit(self, sharded, data, queries):
        plain_cfg = sharded.config.with_options(prefilter=False)
        for query in queries:
            filtered = sharded.knn(query, k=5)
            plain = sharded.knn(query, k=5, config=plain_cfg)
            np.testing.assert_array_equal(
                filtered.distances, plain.distances
            )
            np.testing.assert_array_equal(
                filtered.positions, plain.positions
            )

    def test_counters_merge_across_shards(self, sharded, data, queries):
        # A hard query after a short phase 1: phase 2 leaves candidate
        # leaves for the early pass to examine.
        answer = sharded.knn(
            queries[6], k=5, config=sharded.config.with_options(l_max=1)
        )
        assert 0 < answer.profile.prefilter_screened <= data.shape[0]
        assert (
            answer.profile.prefilter_survivors
            <= answer.profile.prefilter_screened
        )
        assert answer.profile.prefilter_pruned_fraction is not None
        # num_shards=1 builds a plain index; only the truly sharded
        # answers carry per-shard breakdowns, and the merged profile is
        # their sum.
        shard_answers = getattr(answer, "shard_answers", ())
        if shard_answers:
            for field in ("prefilter_screened", "prefilter_survivors"):
                assert getattr(answer.profile, field) == sum(
                    getattr(shard.profile, field) for _, shard in shard_answers
                )

    def test_matches_single_index_distances(self, sharded, index, queries):
        # Layout differs between a sharded and a single build, so compare
        # distances (value identity), not file positions.
        for query in queries:
            np.testing.assert_allclose(
                sharded.knn(query, k=5).distances,
                index.knn(query, k=5).distances,
                atol=1e-9,
            )
